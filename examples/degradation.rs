//! Fault injection and graceful degradation on the serving path: replay
//! a seeded request stream under a seeded fault schedule and watch the
//! server absorb transients, degrade down the interpreter ladder, trip
//! circuit breakers, and contain a worker panic — all deterministically.
//!
//! ```bash
//! cargo run --release --example degradation
//! ```

use std::sync::Arc;

use nlidb::benchdata::{
    derive_slots, request_stream, retail_database, FaultKind, FaultPlan, FaultRates,
};
use nlidb::core::pipeline::NliPipeline;
use nlidb::serve::{
    fault_plan_hook, run_closed_loop, silence_worker_panics, Clock, Disposition, ManualClock,
    Server, ServerConfig,
};

fn main() {
    // The injected worker panic below is expected; keep its backtrace
    // off the terminal.
    silence_worker_panics();

    let db = retail_database(42);
    let pipeline = Arc::new(NliPipeline::standard(&db));
    let slots = derive_slots(&db);

    // A seeded schedule: ~10% transient / ~5% fatal faults drawn from
    // seed 42, plus a pinned worker panic at request #41 (an id that
    // computes fresh — cache hits never reach the fault hook). The
    // schedule is a pure function of (request id, rung, attempt) —
    // replaying this binary reproduces every outcome byte for byte.
    let plan = FaultPlan::seeded(42, 64, &FaultRates::default()).with(41, FaultKind::WorkerPanic);
    println!("fault schedule covers {} of 64 requests\n", plan.len());

    let clock = Arc::new(ManualClock::new());
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let mut server = Server::start_observed(
        Arc::clone(&pipeline),
        config,
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );

    let stream = request_stream(&slots, 42, 64, 0.25);
    let report = run_closed_loop(&mut server, &clock, &stream, 16);

    // Show the interesting completions: anything that didn't come back
    // as a full-fidelity answer.
    for completion in &report.completions {
        match &completion.disposition {
            Disposition::Degraded { served_by, sql, .. } => {
                println!("[degraded → {served_by}] {sql}");
            }
            Disposition::Refused { reason } => println!("[refused] {reason}"),
            _ => {}
        }
    }

    let metrics = server.shutdown();
    println!("\n{metrics}");
}
