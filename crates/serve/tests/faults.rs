//! The serving robustness layer, end to end: seeded fault injection,
//! retry transparency, graceful degradation, circuit breaking, worker
//! death recovery — and the serve-layer regression fixes (Drop
//! joins the pool, the schema fingerprint covers relationships,
//! disabled-cache metrics stay meaningful). Everything here replays
//! bit-identically: faults are a pure function of (request id, rung,
//! attempt). Crash *recovery* — session replay, re-admission to live
//! workers — has its own suite in `tests/recovery.rs`; this file keeps
//! the no-spare-worker edge, where recovery has nowhere to go.

use std::sync::Arc;

use nlidb_benchdata::{
    derive_slots, request_stream, retail_database, FaultKind, FaultPlan, FaultRates, RequestSpec,
};
use nlidb_core::pipeline::{NliPipeline, SchemaContext};
use nlidb_serve::{
    fault_plan_hook, run_closed_loop, silence_worker_panics, Clock, Disposition, ManualClock,
    MetricsSnapshot, Server, ServerConfig,
};

fn pipeline() -> Arc<NliPipeline> {
    let db = retail_database(7);
    Arc::new(NliPipeline::standard(&db))
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 256,
        ..ServerConfig::default()
    }
}

/// Replay a seeded mixed stream under `plan`; return (signatures,
/// final metrics).
fn faulted_run(
    workers: usize,
    n: usize,
    session_share: f64,
    plan: FaultPlan,
) -> (Vec<String>, MetricsSnapshot) {
    let db = retail_database(7);
    let slots = derive_slots(&db);
    let p = Arc::new(NliPipeline::standard(&db));
    let stream = request_stream(&slots, 42, n, session_share);
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        config(workers),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    let report = run_closed_loop(&mut server, &clock, &stream, 16);
    assert_eq!(report.completions.len(), n, "every request completes");
    (report.signatures(), server.shutdown())
}

#[test]
fn transient_faults_within_retry_budget_are_invisible() {
    // Transient-only schedule; every drawn fault recovers within the
    // default retry budget (max failures 2 == max retries 2).
    let rates = FaultRates {
        transient: 0.4,
        fatal: 0.0,
        ..FaultRates::default()
    };
    let plan = FaultPlan::seeded(42, 80, &rates);
    assert!(!plan.is_empty(), "schedule must actually fault something");
    let (clean_sigs, clean_m) = faulted_run(2, 80, 0.25, FaultPlan::none());
    let (faulted_sigs, faulted_m) = faulted_run(2, 80, 0.25, plan);
    assert_eq!(
        clean_sigs, faulted_sigs,
        "absorbed transients must leave the answer stream byte-identical"
    );
    assert_eq!(clean_m.retries, 0);
    assert!(faulted_m.retries > 0, "retries must actually have happened");
    assert!(
        faulted_m.retry_backoff_ticks >= faulted_m.retries,
        "backoff accounted"
    );
    assert_eq!(faulted_m.degraded, 0, "nothing should have degraded");
    assert_eq!(faulted_m.answered, clean_m.answered);
    assert_eq!(faulted_m.refused, clean_m.refused);
}

#[test]
fn fatal_fault_degrades_down_the_ladder_and_is_marked() {
    let question = "how many customers are there";
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let plan = FaultPlan::none().with(0, FaultKind::Fatal { depth: 1 });
    let mut server = Server::start_observed(
        Arc::clone(&p),
        config(1),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    server.submit(&RequestSpec::single(question)); // id 0: hybrid is down
    server.submit(&RequestSpec::single(question)); // id 1: healthy
    let done = server.drain();
    match &done[0].disposition {
        Disposition::Degraded {
            served_by, rows, ..
        } => {
            assert_eq!(*served_by, "entity", "first rung below hybrid");
            assert!(!rows.is_empty());
        }
        other => panic!("expected a degraded answer, got {other:?}"),
    }
    assert!(
        done[0].signature().contains("degraded[entity]"),
        "signature carries the degradation marker: {}",
        done[0].signature()
    );
    // The healthy request computes fresh: degraded answers are never
    // written to the interpretation cache.
    match &done[1].disposition {
        Disposition::Answered { from_cache, .. } => {
            assert!(!from_cache, "degraded answers must not seed the cache")
        }
        other => panic!("expected a full-fidelity answer, got {other:?}"),
    }
    let m = server.shutdown();
    assert_eq!(m.degraded, 1);
    assert_eq!(m.answered, 1);
}

#[test]
fn ladder_exhaustion_refuses_deterministically() {
    let plan = FaultPlan::none().with(0, FaultKind::Fatal { depth: 4 });
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        config(1),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    server.submit(&RequestSpec::single("how many customers are there"));
    let done = server.drain();
    match &done[0].disposition {
        Disposition::Refused { reason } => {
            assert!(
                reason.contains("no interpreter family available"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    let m = server.shutdown();
    assert_eq!((m.refused, m.degraded), (1, 0));
}

#[test]
fn circuit_breaker_trips_and_sheds_load_off_a_failing_family() {
    // Three consecutive hybrid-fatal requests trip the rung-0 breaker
    // (default threshold 3); the *healthy* fourth request then skips
    // hybrid outright and degrades — that's the breaker doing its job.
    let mut plan = FaultPlan::none();
    for id in 0..3 {
        plan = plan.with(id, FaultKind::Fatal { depth: 1 });
    }
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        config(1),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    for _ in 0..5 {
        server.submit(&RequestSpec::single("how many customers are there"));
    }
    let done = server.drain();
    let degraded = done
        .iter()
        .filter(|c| matches!(c.disposition, Disposition::Degraded { .. }))
        .count();
    assert_eq!(degraded, 5, "faulted and breaker-skipped all degrade");
    let m = server.shutdown();
    assert_eq!(m.breaker_trips, 1, "one open transition");
    assert_eq!(m.breaker_skips, 2, "requests 3 and 4 skipped the open rung");
}

#[test]
fn worker_panic_with_no_spare_worker_refuses_cleanly() {
    silence_worker_panics();
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    // Cache off: a cache hit never consults the hook (a replayed
    // answer touches no backend), and this test wants every request to
    // reach the fault schedule. One worker: recovery has nowhere to
    // re-admit to, so every bounce must surface as a clean refusal —
    // never a hang, never a lost completion.
    let mut server = Server::start_observed(
        p,
        ServerConfig {
            workers: 1,
            interp_cache: 0,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    for _ in 0..4 {
        server.submit(&RequestSpec::single("how many customers are there"));
    }
    let done = server.drain(); // must not hang
    assert_eq!(done.len(), 4, "every admitted request completes");
    assert!(
        matches!(done[0].disposition, Disposition::Answered { .. }),
        "request before the panic is unaffected"
    );
    for c in &done[1..] {
        match &c.disposition {
            Disposition::Refused { reason } => assert!(
                reason.contains("no live workers"),
                "bounced work with nowhere to go refuses: {reason}"
            ),
            other => panic!("bounced requests must refuse, got {other:?}"),
        }
    }
    // The router never offers the corpse new work: with the whole pool
    // dead, admission itself refuses.
    let adm = server.submit(&RequestSpec::single("how many customers are there"));
    assert!(matches!(adm, nlidb_serve::Admission::Refused { .. }));
    let more = server.drain();
    assert!(matches!(more[0].disposition, Disposition::Refused { .. }));
    let m = server.shutdown(); // must not panic
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(m.crashed_requests, 3, "panicked + 2 queued behind it");
    assert_eq!(m.readmitted, 0, "no live worker to re-admit to");
    assert_eq!(m.readmit_refused, 3);
}

#[test]
fn faulted_runs_replay_bit_identically() {
    silence_worker_panics();
    let plan = || {
        FaultPlan::seeded(42, 60, &FaultRates::default())
            .with(17, FaultKind::WorkerPanic)
            .with(23, FaultKind::Fatal { depth: 2 })
    };
    let a = faulted_run(2, 60, 0.25, plan());
    let b = faulted_run(2, 60, 0.25, plan());
    assert_eq!(a.0, b.0, "signature streams must match");
    assert_eq!(a.1, b.1, "metrics snapshots must match");
    assert!(a.1.worker_deaths >= 1);
}

#[test]
fn drop_joins_worker_threads() {
    // The hook closure lives inside the shared state every worker
    // holds; once every worker thread has been joined, this sentinel's
    // only owner is the test again.
    let sentinel = Arc::new(());
    let witness = Arc::clone(&sentinel);
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        config(3),
        clock.clone() as Arc<dyn Clock>,
        Some(Box::new(move |_| {
            let _ = &witness;
            None
        })),
        None,
    );
    server.submit(&RequestSpec::single("how many customers are there"));
    server.drain();
    assert!(Arc::strong_count(&sentinel) > 1, "workers hold the hook");
    drop(server); // no shutdown(): the destructor must join the pool
    assert_eq!(
        Arc::strong_count(&sentinel),
        1,
        "dropping the server must join every worker thread"
    );
}

#[test]
fn fingerprint_covers_relationships() {
    let db = retail_database(7);
    let clock = Arc::new(ManualClock::new());
    let base_ctx = SchemaContext::build(&db);
    assert!(
        !base_ctx.ontology.object_properties.is_empty(),
        "retail schema must have relationships for this test to mean anything"
    );
    let fp = |ctx: SchemaContext| {
        let p = Arc::new(NliPipeline::with_context(&db, ctx));
        let server = Server::start_observed(
            p,
            config(1),
            Arc::clone(&clock) as Arc<dyn Clock>,
            None,
            None,
        );
        let fp = server.fingerprint();
        server.shutdown();
        fp
    };
    let baseline = fp(SchemaContext::build(&db));
    assert_eq!(
        baseline,
        fp(SchemaContext::build(&db)),
        "fingerprint is deterministic"
    );
    // Same concepts and columns, different join structure: must not
    // share cache keys.
    let mut relabeled = SchemaContext::build(&db);
    relabeled.ontology.object_properties[0].label = "renamed relationship".to_string();
    assert_ne!(baseline, fp(relabeled), "relationship label is hashed");
    let mut dropped = SchemaContext::build(&db);
    dropped.ontology.object_properties.pop();
    assert_ne!(baseline, fp(dropped), "relationship presence is hashed");
    let mut rewired = SchemaContext::build(&db);
    let rel = &mut rewired.ontology.object_properties[0];
    std::mem::swap(&mut rel.from_column, &mut rel.to_column);
    assert_ne!(baseline, fp(rewired), "relationship endpoints are hashed");
}

#[test]
fn disabled_cache_metrics_stay_meaningful() {
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        ServerConfig {
            workers: 1,
            interp_cache: 0,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );
    for _ in 0..3 {
        server.submit(&RequestSpec::single("how many customers are there"));
    }
    server.drain();
    let m = server.shutdown();
    assert!(m.cache_disabled, "snapshot must flag the disabled cache");
    assert_eq!(m.interp_hits, 0);
    assert_eq!(
        m.interp_misses, 3,
        "lookups are counted even with the cache off"
    );
    assert!(m.to_string().contains("interp-cache off"));
}
