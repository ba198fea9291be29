//! The observability layer end to end: a traced server exports a
//! byte-identical JSONL trace stream run over run, tracing never
//! perturbs dispositions, the serving counters round-trip into the
//! obs registry, and every piece of robustness machinery — retries,
//! breaker trips, degradation rungs, worker panics, dead-worker
//! refusals, admission rejects — leaves attributable span evidence.

use std::sync::Arc;

use nlidb_benchdata::{
    derive_slots, request_stream, retail_database, FaultKind, FaultPlan, FaultRates, RequestSpec,
};
use nlidb_core::pipeline::NliPipeline;
use nlidb_serve::{
    fault_plan_hook, run_closed_loop, silence_worker_panics, Clock, ManualClock, MetricsSnapshot,
    ServeObs, Server, ServerConfig,
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

/// Replay the standard seeded mixed stream on a traced server; return
/// (signatures, final metrics, the obs handles).
fn traced_run(
    workers: usize,
    n: usize,
    plan: FaultPlan,
) -> (Vec<String>, MetricsSnapshot, ServeObs) {
    let db = retail_database(7);
    let slots = derive_slots(&db);
    let p = Arc::new(NliPipeline::standard(&db));
    let stream = request_stream(&slots, 42, n, 0.25);
    let clock = Arc::new(ManualClock::new());
    let obs = ServeObs::new(n + 8);
    let mut server = Server::start_observed(
        p,
        config(workers),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        Some(obs.clone()),
    );
    let report = run_closed_loop(&mut server, &clock, &stream, 16);
    assert_eq!(report.completions.len(), n, "every request completes");
    (report.signatures(), server.shutdown(), obs)
}

fn mixed_plan(n: u64) -> FaultPlan {
    let rates = FaultRates {
        transient: 0.3,
        fatal: 0.05,
        ..FaultRates::default()
    };
    FaultPlan::seeded(42, n, &rates)
}

#[test]
fn traced_replays_export_byte_identical_jsonl() {
    let (sigs_a, m_a, obs_a) = traced_run(2, 60, mixed_plan(60));
    let (sigs_b, m_b, obs_b) = traced_run(2, 60, mixed_plan(60));
    assert_eq!(sigs_a, sigs_b, "semantic stream replays identically");
    assert_eq!(m_a, m_b, "metrics replay identically");
    let jsonl_a = obs_a.sink.export_jsonl();
    let jsonl_b = obs_b.sink.export_jsonl();
    assert!(!jsonl_a.is_empty(), "traces were actually recorded");
    assert_eq!(jsonl_a, jsonl_b, "trace export must be byte-identical");
    assert_eq!(obs_a.sink.len(), 60, "one trace per request");
    // The registry report (per-stage histograms) replays too.
    assert_eq!(
        obs_a.registry.report().to_string(),
        obs_b.registry.report().to_string()
    );
}

#[test]
fn tracing_never_perturbs_the_answer_stream() {
    let (traced_sigs, traced_m, _obs) = traced_run(2, 60, mixed_plan(60));
    // Same stream, same plan, no obs attached.
    let db = retail_database(7);
    let slots = derive_slots(&db);
    let p = Arc::new(NliPipeline::standard(&db));
    let stream = request_stream(&slots, 42, 60, 0.25);
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        p,
        config(2),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(mixed_plan(60))),
        None,
    );
    let report = run_closed_loop(&mut server, &clock, &stream, 16);
    let untraced_m = server.shutdown();
    assert_eq!(
        report.signatures(),
        traced_sigs,
        "observed and unobserved servers must answer identically"
    );
    assert_eq!(untraced_m, traced_m, "and count identically");
}

#[test]
fn snapshot_counters_round_trip_into_the_registry() {
    let (_sigs, m, obs) = traced_run(2, 60, mixed_plan(60));
    m.export_into(&obs.registry);
    let report = obs.registry.report();
    assert_eq!(report.counter("serve.submitted"), Some(m.submitted));
    assert_eq!(report.counter("serve.answered"), Some(m.answered));
    assert_eq!(report.counter("serve.retries"), Some(m.retries));
    assert_eq!(report.counter("serve.degraded"), Some(m.degraded));
    assert_eq!(report.counter("serve.breaker_trips"), Some(m.breaker_trips));
    // Per-stage cost histograms exist alongside the counters.
    let request = report
        .histogram("span.request")
        .expect("request-span histogram registered");
    assert_eq!(request.count, 60, "one root span cost per request");
}

#[test]
fn fault_evidence_is_attributed_to_spans() {
    // A regime that exercises every robustness path: seeded transients
    // (retries + backoff) plus a pinned fatal window deep enough to
    // trip the rung-0 breaker (threshold 3) and force degradations.
    // Faults are only consulted on cache misses, so the fatal window
    // must land on *fresh* requests — discovered by a clean pass.
    let (_clean_sigs, _clean_m, clean_obs) = traced_run(2, 120, FaultPlan::none());
    let fresh: Vec<u64> = clean_obs
        .sink
        .traces()
        .iter()
        .filter(|t| {
            t.spans_named("cache")
                .next()
                .is_some_and(|s| s.attr("outcome") == Some("miss"))
        })
        .map(|t| t.id)
        .collect();
    assert!(fresh.len() >= 12, "enough cache misses to pin faults on");
    let mut plan = FaultPlan::seeded(
        42,
        120,
        &FaultRates {
            transient: 0.3,
            fatal: 0.0,
            ..FaultRates::default()
        },
    );
    for id in &fresh[..12] {
        plan = plan.with(*id, FaultKind::Fatal { depth: 1 });
    }
    let (_sigs, m, obs) = traced_run(2, 120, plan);
    assert!(m.retries > 0 && m.breaker_trips > 0 && m.degraded > 0);

    let traces = obs.sink.traces();
    let mut retries = 0u64;
    let mut backoff = 0u64;
    let mut trips = 0u64;
    let mut skips = 0u64;
    let mut degraded_roots = 0u64;
    let mut degraded_rungs = 0u64;
    for t in &traces {
        let root = t.root().expect("every trace has a root span");
        assert_eq!(root.name, "request");
        assert!(
            root.attr("outcome").is_some(),
            "every root is dispositioned"
        );
        if root.attr("outcome") == Some("degraded") {
            degraded_roots += 1;
        }
        for s in t.spans.iter() {
            if let Some(r) = s.attr("retries") {
                retries += r.parse::<u64>().expect("retries attr is a count");
            }
            if let Some(b) = s.attr("backoff") {
                backoff += b.parse::<u64>().expect("backoff attr is ticks");
            }
            match s.attr("breaker") {
                Some("tripped") => trips += 1,
                Some("open") => skips += 1,
                _ => {}
            }
        }
        for rung in t.spans_named("rung") {
            assert!(
                rung.attr("outcome").is_some(),
                "every rung is dispositioned"
            );
            if rung.attr("outcome") == Some("degraded") {
                degraded_rungs += 1;
            }
        }
    }
    assert_eq!(retries, m.retries, "every retry is attributed to a span");
    assert_eq!(backoff, m.retry_backoff_ticks, "and its backoff with it");
    assert_eq!(trips, m.breaker_trips, "every breaker trip is attributed");
    assert_eq!(skips, m.breaker_skips, "every breaker skip is attributed");
    assert_eq!(
        degraded_roots, m.degraded,
        "every degradation is attributed"
    );
    assert_eq!(
        degraded_rungs, m.degraded,
        "each degraded request shows the rung that served it"
    );
}

#[test]
fn worker_death_leaves_bounce_evidence_in_traces() {
    // One worker, panic pinned on request 1: the corpse records no
    // trace for the jobs it bounces (one trace per request, owned by
    // whoever finishes it) — with no live worker left, the submitter's
    // terminal re-admission refusals are that owner.
    silence_worker_panics();
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let obs = ServeObs::new(16);
    let mut server = Server::start_observed(
        p,
        ServerConfig {
            workers: 1,
            interp_cache: 0,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        Some(obs.clone()),
    );
    for _ in 0..4 {
        server.submit(&RequestSpec::single("how many customers are there"));
    }
    let done = server.drain();
    assert_eq!(done.len(), 4);
    server.shutdown();
    let traces = obs.sink.traces();
    assert_eq!(traces.len(), 4, "every request still yields one trace");
    let root_attr = |i: usize, key: &str| traces[i].root().and_then(|r| r.attr(key));
    assert_eq!(root_attr(0, "outcome"), Some("answered"));
    for i in 1..4 {
        assert_eq!(root_attr(i, "outcome"), Some("refused"), "request {i}");
        assert_eq!(
            root_attr(i, "redeliveries"),
            Some("1"),
            "the bounce is attributed"
        );
        assert_eq!(
            root_attr(i, "bounced_from"),
            Some("0"),
            "and so is the dead worker it came off"
        );
    }
}

#[test]
fn admission_rejects_are_traced() {
    let p = pipeline();
    let clock = Arc::new(ManualClock::new());
    let obs = ServeObs::new(64);
    let mut server = Server::start_observed(
        p,
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        Some(obs.clone()),
    );
    // Overfill the single worker's queue: admissions beyond capacity
    // shed at submit time, each leaving a two-span reject trace.
    let mut shed = 0u64;
    for _ in 0..6 {
        let admission = server.submit(&RequestSpec::single("how many customers are there"));
        if matches!(admission, nlidb_serve::Admission::Shed { .. }) {
            shed += 1;
        }
    }
    assert!(shed > 0, "the tiny queue must actually shed");
    server.drain();
    let m = server.shutdown();
    assert_eq!(m.shed_full, shed);
    let shed_traces: Vec<_> = obs
        .sink
        .traces()
        .into_iter()
        .filter(|t| t.root().and_then(|r| r.attr("outcome")) == Some("shed"))
        .collect();
    assert_eq!(shed_traces.len(), shed as usize, "one trace per shed");
    for t in &shed_traces {
        let adm = t
            .spans_named("admission")
            .next()
            .expect("reject traces carry the admission span");
        assert_eq!(adm.attr("outcome"), Some("shed"));
        assert!(adm.attr("depth").is_some(), "queue depth recorded");
    }
}
