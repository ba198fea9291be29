//! One serving runtime, two databases: register a retail and an HR
//! tenant with different quota policies, start a single `Server` over
//! both with `Server::start_tenants`, replay an interleaved stream, and
//! print each tenant's own books.
//!
//! ```bash
//! cargo run --release --example multitenant
//! ```

use std::sync::Arc;

use nlidb::benchdata::{
    derive_slots, domain_database, interleave_streams, request_stream, DOMAIN_NAMES,
};
use nlidb::ontology::JoinPathCache;
use nlidb::serve::{
    run_closed_loop_tenants, tenant_pipeline, Clock, ManualClock, Server, ServerConfig,
    TenantPolicy, TenantRegistry,
};

fn main() {
    // One join-path cache serves every tenant: each tenant's plans are
    // keyed under its schema fingerprint, so sharing never mixes them.
    let join_cache = Arc::new(JoinPathCache::new(256));
    let mut registry = TenantRegistry::new();

    // Tenant 1: retail, on a metered plan — at most 20 admissions.
    let retail = domain_database("retail", 42);
    let (fp_retail, retail_pipeline) = tenant_pipeline(&retail, &join_cache);
    registry.register(
        "retail",
        retail_pipeline,
        TenantPolicy {
            admission_budget: Some(20),
        },
    );

    // Tenant 2: HR, unmetered.
    let hr = domain_database("hr", 43);
    let (fp_hr, hr_pipeline) = tenant_pipeline(&hr, &join_cache);
    registry.register("hr", hr_pipeline, TenantPolicy::default());

    // One pool for both tenants; routing salts spread each tenant's
    // traffic over the workers independently.
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_tenants(
        &registry,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            interp_cache: 256,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );

    // 32 seeded requests per tenant, deterministically interleaved —
    // the retail stream outruns its budget; the HR stream never
    // notices.
    let retail_stream = request_stream(&derive_slots(&retail), 42, 32, 0.25);
    let hr_stream = request_stream(&derive_slots(&hr), 43, 32, 0.25);
    let stream = interleave_streams(42, vec![(fp_retail, retail_stream), (fp_hr, hr_stream)]);
    let report = run_closed_loop_tenants(&mut server, &clock, &stream, 8);
    println!(
        "served {} requests for {} tenants on one runtime\n",
        report.completions.len(),
        registry.len()
    );

    // Each tenant's books, from its own metrics scope.
    for (name, fp) in DOMAIN_NAMES.iter().zip([fp_retail, fp_hr]) {
        let m = server.tenant_metrics(fp).expect("registered tenant");
        println!("tenant {name} (fingerprint {fp:016x})");
        println!(
            "  submitted {:>3}  admitted {:>3}  quota-refused {:>3}",
            m.submitted, m.admitted, m.quota_refused
        );
        println!(
            "  answered  {:>3}  turns    {:>3}  cache hits    {:>3}",
            m.answered, m.session_turns, m.interp_hits
        );
        let journal = server.tenant_journal(fp).expect("registered tenant");
        println!("  journaled sessions: {:?}\n", journal.sessions());
    }

    let global = server.shutdown();
    println!(
        "global: submitted {} admitted {} quota-refused {}",
        global.submitted, global.admitted, global.quota_refused
    );
}
