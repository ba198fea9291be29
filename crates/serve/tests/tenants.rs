//! Multi-tenant isolation end to end: one [`Server`] runtime,
//! many databases, zero leakage. Caches, journals, quotas, and metrics
//! are all keyed by schema fingerprint; these tests pin the isolation
//! properties E17 builds on — fingerprint distinctness, cache
//! non-leakage, deterministic quotas, lockstep metrics scopes, and
//! single-tenant byte-compatibility.

use std::sync::Arc;

use nlidb_benchdata::{all_domains, retail_database, RequestSpec, DOMAIN_NAMES};
use nlidb_core::pipeline::NliPipeline;
use nlidb_obs::MetricsRegistry;
use nlidb_ontology::JoinPathCache;
use nlidb_serve::{
    run_closed_loop_tenants, schema_fingerprint_of, tenant_pipeline, Clock, Disposition,
    ManualClock, MetricsSnapshot, ServeObs, Server, ServerConfig, TenantPolicy, TenantRegistry,
};

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 256,
        ..ServerConfig::default()
    }
}

/// Register the first `n` benchdata domains as tenants over one shared
/// join-path cache, all under `policy`.
fn registry_of(n: usize, policy: TenantPolicy) -> (TenantRegistry, Vec<u64>) {
    let cache = Arc::new(JoinPathCache::new(256));
    let mut registry = TenantRegistry::new();
    let mut fps = Vec::with_capacity(n);
    for (i, db) in all_domains(42).into_iter().take(n).enumerate() {
        let (fp, pipeline) = tenant_pipeline(&db, &cache);
        registry.register(DOMAIN_NAMES[i], pipeline, policy.clone());
        fps.push(fp);
    }
    (registry, fps)
}

/// Satellite: collision hygiene. Every pair of benchdata domains must
/// fingerprint differently — a collision would silently merge two
/// tenants' caches and journals, and `TenantRegistry::register` would
/// panic on it.
#[test]
fn schema_fingerprints_are_pairwise_distinct_across_domains() {
    let fps: Vec<u64> = all_domains(42)
        .iter()
        .map(|db| {
            let p = NliPipeline::standard(db);
            schema_fingerprint_of(&p.context().ontology)
        })
        .collect();
    for i in 0..fps.len() {
        for j in (i + 1)..fps.len() {
            assert_ne!(
                fps[i], fps[j],
                "{} and {} collide on {:016x}",
                DOMAIN_NAMES[i], DOMAIN_NAMES[j], fps[i]
            );
        }
    }
    // And the fingerprint is seed-independent: same schema, different
    // data, same identity.
    let a = NliPipeline::standard(&retail_database(7));
    let b = NliPipeline::standard(&retail_database(900));
    assert_eq!(
        schema_fingerprint_of(&a.context().ontology),
        schema_fingerprint_of(&b.context().ontology)
    );
}

/// The interpretation cache never leaks across tenants: tenant A
/// warming a question must not turn tenant B's identical question into
/// a hit — B has a different schema, so a leaked entry would be a
/// wrong answer, not a fast one.
#[test]
fn interpretation_cache_is_tenant_scoped() {
    let (registry, fps) = registry_of(2, TenantPolicy::default());
    let clock = Arc::new(ManualClock::new());
    let mut server =
        Server::start_tenants(&registry, config(2), clock as Arc<dyn Clock>, None, None);
    let q = RequestSpec::single("how many customers are there");
    server.submit_to(fps[0], &q); // retail: miss
    server.drain();
    server.submit_to(fps[0], &q); // retail again: hit
    server.drain();
    server.submit_to(fps[1], &q); // hr, same words: MUST miss
    server.drain();
    let retail = server.tenant_metrics(fps[0]).unwrap();
    assert_eq!((retail.interp_misses, retail.interp_hits), (1, 1));
    let hr = server.tenant_metrics(fps[1]).unwrap();
    assert_eq!(
        hr.interp_misses, 1,
        "hr's probe must not see retail's entry"
    );
    assert_eq!(hr.interp_hits, 0);
    let global = server.shutdown();
    assert_eq!((global.interp_misses, global.interp_hits), (2, 1));
}

/// Admission quotas are per-tenant, deterministic, and invisible to
/// the other tenants: exhausting one tenant's budget refuses exactly
/// its overflow with `quota_refused`, while a co-resident tenant's
/// traffic is untouched.
#[test]
fn admission_budget_refuses_deterministically_per_tenant() {
    let run = || {
        let cache = Arc::new(JoinPathCache::new(256));
        let mut registry = TenantRegistry::new();
        let (fp_a, p_a) = tenant_pipeline(&retail_database(7), &cache);
        let domains = all_domains(42);
        let (fp_b, p_b) = tenant_pipeline(&domains[1], &cache);
        registry.register(
            "retail",
            p_a,
            TenantPolicy {
                admission_budget: Some(2),
            },
        );
        registry.register("hr", p_b, TenantPolicy::default());
        let clock = Arc::new(ManualClock::new());
        let mut server =
            Server::start_tenants(&registry, config(2), Arc::clone(&clock) as _, None, None);
        let stream: Vec<(u64, RequestSpec)> = (0..4)
            .flat_map(|i| {
                [
                    (fp_a, RequestSpec::single(format!("show order {i}"))),
                    (fp_b, RequestSpec::single("show all employees")),
                ]
            })
            .collect();
        let report = run_closed_loop_tenants(&mut server, &clock, &stream, 4);
        let a = server.tenant_metrics(fp_a).unwrap();
        let b = server.tenant_metrics(fp_b).unwrap();
        (report.signatures(), a, b, server.shutdown())
    };
    let (sigs, a, b, global) = run();
    // Retail offered 4, budget 2: exactly the last two are refused.
    assert_eq!(a.submitted, 4);
    assert_eq!(a.admitted, 2);
    assert_eq!(a.quota_refused, 2);
    assert_eq!(a.shed_full, 0, "quota refusals are not sheds");
    let quota_refusals = sigs
        .iter()
        .filter(|s| s.contains("tenant admission budget exhausted"))
        .count();
    assert_eq!(quota_refusals, 2);
    // The co-resident tenant never notices.
    assert_eq!(b.submitted, 4);
    assert_eq!(b.admitted, 4);
    assert_eq!(b.quota_refused, 0);
    assert_eq!(global.quota_refused, 2);
    // And the whole episode replays byte-identically.
    let (sigs2, a2, b2, global2) = run();
    assert_eq!(sigs, sigs2);
    assert_eq!((a, b, global), (a2, b2, global2));
}

/// An unregistered fingerprint is refused deterministically, in the
/// global scope only — no tenant's books are charged for traffic that
/// belongs to nobody — and, like every other admission reject, leaves
/// exactly one trace, attributed to no tenant.
#[test]
fn unknown_fingerprints_are_refused_without_tenant_attribution() {
    let (registry, fps) = registry_of(2, TenantPolicy::default());
    let clock = Arc::new(ManualClock::new());
    let obs = ServeObs::new(8);
    let mut server = Server::start_tenants(
        &registry,
        config(1),
        clock as Arc<dyn Clock>,
        None,
        Some(obs.clone()),
    );
    let bogus = fps[0] ^ 0xdead_beef;
    assert_eq!(server.route_to(bogus, &RequestSpec::single("q")), None);
    server.submit_to(bogus, &RequestSpec::single("q"));
    let done = server.drain();
    assert_eq!(done.len(), 1);
    match &done[0].disposition {
        Disposition::Refused { reason } => {
            assert!(reason.contains("unknown tenant fingerprint"), "{reason}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    for &fp in &fps {
        let tenant = server.tenant_metrics(fp).unwrap();
        assert_eq!(tenant.submitted, 0, "nobody's books are charged");
    }
    let traces = obs.sink.traces();
    assert_eq!(traces.len(), 1, "the refusal leaves exactly one trace");
    let root = traces[0].root().expect("every trace has a root span");
    assert_eq!(root.attr("outcome"), Some("refused"));
    assert_eq!(root.attr("tenant"), None, "the trace names no tenant");
    let global = server.shutdown();
    assert_eq!((global.submitted, global.refused), (1, 1));
}

/// Single-tenant lockstep: a plain [`Server`] is a one-tenant registry
/// under the hood, and its global and tenant-scope counters must agree
/// exactly (the per-tenant breakdown costs nothing and invents
/// nothing).
#[test]
fn single_tenant_global_and_tenant_scopes_agree() {
    let (registry, fps) = registry_of(1, TenantPolicy::default());
    let clock = Arc::new(ManualClock::new());
    let mut server =
        Server::start_tenants(&registry, config(2), clock as Arc<dyn Clock>, None, None);
    for i in 0..6 {
        server.submit_to(
            fps[0],
            &RequestSpec::single(format!("show order {}", i % 3)),
        );
    }
    for _ in 0..2 {
        server.submit_to(
            fps[0],
            &RequestSpec {
                question: "show customers in Austin".into(),
                session: Some(3),
                deadline: None,
            },
        );
    }
    server.drain();
    let tenant = server.tenant_metrics(fps[0]).unwrap();
    let global = server.shutdown();
    assert_eq!(tenant, global);
}

/// Multi-tenant bookkeeping closes: every global counter is the sum of
/// its per-tenant scopes (no unknown-tenant traffic here), and
/// [`Server::export_metrics`] publishes both the `serve.*`
/// aggregate and a `serve.tenant.<name>.*` breakdown.
#[test]
fn tenant_scopes_sum_to_the_global_scope_and_export_labelled() {
    let (registry, fps) = registry_of(3, TenantPolicy::default());
    let clock = Arc::new(ManualClock::new());
    let mut server =
        Server::start_tenants(&registry, config(2), Arc::clone(&clock) as _, None, None);
    let stream: Vec<(u64, RequestSpec)> = fps
        .iter()
        .flat_map(|&fp| (0..5).map(move |i| (fp, RequestSpec::single(format!("show {i}")))))
        .collect();
    run_closed_loop_tenants(&mut server, &clock, &stream, 4);
    let per: Vec<MetricsSnapshot> = fps
        .iter()
        .map(|&fp| server.tenant_metrics(fp).unwrap())
        .collect();
    let global = server.metrics();
    let sum = |f: fn(&MetricsSnapshot) -> u64| per.iter().map(f).sum::<u64>();
    assert_eq!(global.submitted, sum(|m| m.submitted));
    assert_eq!(global.admitted, sum(|m| m.admitted));
    assert_eq!(global.answered, sum(|m| m.answered));
    assert_eq!(global.refused, sum(|m| m.refused));
    assert_eq!(global.interp_misses, sum(|m| m.interp_misses));
    assert_eq!(global.interp_hits, sum(|m| m.interp_hits));
    // Exported breakdown: aggregate plus one labelled family per tenant.
    let reg = MetricsRegistry::new();
    server.export_metrics(&reg);
    let text = reg.report().export_text();
    assert!(text.contains(&format!("counter serve.submitted {}\n", global.submitted)));
    for (i, m) in per.iter().enumerate() {
        let line = format!(
            "counter serve.tenant.{}.submitted {}\n",
            DOMAIN_NAMES[i], m.submitted
        );
        assert!(text.contains(&line), "missing {line:?}");
    }
    server.shutdown();
}
