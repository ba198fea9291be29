//! Crash recovery end to end: a worker dies mid-conversation and no
//! dialogue state dies with it. The write-ahead session journal plus
//! bounce/re-admission turn a panic into (deterministic) rerouting —
//! the recovered stream answers exactly like a run that never crashed.
//! The no-spare-worker edge (recovery with nowhere to go) lives in
//! `tests/faults.rs`.

use std::sync::Arc;
use std::time::Duration;

use nlidb_benchdata::{
    derive_slots, request_stream, retail_database, session_turn_ids, sessions_with_min_turns,
    FaultKind, FaultPlan, RequestSpec,
};
use nlidb_core::pipeline::NliPipeline;
use nlidb_serve::{
    fault_plan_hook, run_closed_loop, silence_worker_panics, Clock, Disposition, HookCtx,
    InjectedFault, ManualClock, MetricsSnapshot, RequestHook, ServeObs, Server, ServerConfig,
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

/// Three turns whose later answers depend on earlier state — if replay
/// lost anything, "what about Boston" and "how many of those" would
/// answer differently.
const TURNS: [&str; 3] = [
    "show customers in Austin",
    "what about Boston",
    "how many of those are there",
];

fn turn(session: u64, utterance: &str) -> RequestSpec {
    RequestSpec {
        question: utterance.to_string(),
        session: Some(session),
        deadline: None,
    }
}

/// Run the three-turn conversation on a 2-worker server under `plan`
/// (panic on id 1 = the second turn), with optional tracing.
fn three_turn_run(
    plan: FaultPlan,
    obs: Option<ServeObs>,
) -> (Vec<nlidb_serve::Completion>, MetricsSnapshot, Vec<usize>) {
    silence_worker_panics();
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        pipeline(),
        config(2),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        obs,
    );
    for u in TURNS {
        server.submit(&turn(0, u));
    }
    let done = server.drain();
    let journal_lens = server
        .journal()
        .sessions()
        .iter()
        .map(|&s| server.journal().turn_count(s))
        .collect();
    (done, server.shutdown(), journal_lens)
}

#[test]
fn crashed_workers_sessions_recover_by_journal_replay() {
    // Baseline: the same conversation on a server that never crashes.
    let (clean, clean_m, _) = three_turn_run(FaultPlan::none(), None);
    // Crash: session 0 is affine to worker 0; the panic lands on its
    // second turn, killing worker 0 with one committed turn in the
    // journal and one more turn still queued behind the panic.
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let (done, m, journal_lens) = three_turn_run(plan, None);
    assert_eq!(done.len(), 3, "every admitted turn completes");
    assert!(
        done.iter()
            .all(|c| matches!(c.disposition, Disposition::SessionReply { .. })),
        "zero session-loss refusals"
    );
    // The recovered answers are the never-crashed answers.
    let sigs: Vec<String> = done.iter().map(|c| c.signature()).collect();
    let clean_sigs: Vec<String> = clean.iter().map(|c| c.signature()).collect();
    assert_eq!(sigs, clean_sigs, "recovery must not change a single answer");
    // Placement shows the remap: turn 0 on the original worker, the
    // bounced turns on the survivor.
    assert_eq!(done[0].worker, Some(0));
    assert_eq!(
        done[1].worker,
        Some(1),
        "bounced turn re-served by the survivor"
    );
    assert_eq!(done[2].worker, Some(1));
    // Recovery accounting.
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(
        m.crashed_requests, 2,
        "the panicked turn + the one queued behind"
    );
    assert_eq!(m.readmitted, 2);
    assert_eq!(m.readmit_refused, 0);
    assert_eq!(m.refused, 0);
    assert_eq!(m.sessions_recovered, 1);
    assert_eq!(
        m.turns_replayed, 1,
        "one committed turn replayed on the survivor"
    );
    assert_eq!(
        m.replay_divergence, 0,
        "replay reproduced the journaled digests"
    );
    assert_eq!(
        m.session_turns, clean_m.session_turns,
        "replayed turns are rebuild work, not served turns"
    );
    // The journal holds the whole committed conversation exactly once.
    assert_eq!(journal_lens, vec![3]);
    assert_eq!(m.journal_turns, 3);
}

#[test]
fn recovery_leaves_trace_evidence() {
    let obs = ServeObs::new(16);
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let (_done, m, _) = three_turn_run(plan, Some(obs.clone()));
    let traces = obs.sink.traces();
    assert_eq!(traces.len(), 3, "one trace per request, crash or no crash");
    let by_id = |id: u64| traces.iter().find(|t| t.id == id).expect("trace exists");
    // The untouched first turn carries no recovery evidence.
    let t0 = by_id(0);
    assert_eq!(t0.root().unwrap().attr("redeliveries"), None);
    assert_eq!(t0.spans_named("replay").count(), 0);
    // The panicked turn's trace is owned by the worker that finally
    // served it: root attrs show the bounce, a `replay` span shows the
    // rebuild.
    let t1 = by_id(1);
    let root = t1.root().unwrap();
    assert_eq!(root.attr("worker"), Some("1"));
    assert_eq!(root.attr("redeliveries"), Some("1"));
    assert_eq!(root.attr("bounced_from"), Some("0"));
    let replay = t1
        .spans_named("replay")
        .next()
        .expect("replay span recorded");
    assert_eq!(replay.attr("session"), Some("0"));
    assert_eq!(replay.attr("turns_replayed"), Some("1"));
    assert_eq!(replay.attr("remap_target"), Some("1"));
    assert_eq!(replay.attr("divergence"), Some("0"));
    // The turn behind it was redelivered too, but found the session
    // already rebuilt — no second replay.
    let t2 = by_id(2);
    assert_eq!(t2.root().unwrap().attr("redeliveries"), Some("1"));
    assert_eq!(t2.spans_named("replay").count(), 0);
    // Span evidence reconciles with the counters, E14-style.
    let replayed: u64 = traces.iter().map(|t| t.attr_sum("turns_replayed")).sum();
    assert_eq!(replayed, m.turns_replayed);
    let redelivered: u64 = traces.iter().map(|t| t.attr_sum("redeliveries")).sum();
    assert_eq!(redelivered, m.readmitted);
}

#[test]
fn dead_worker_is_never_offered_new_work() {
    silence_worker_panics();
    let clock = Arc::new(ManualClock::new());
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let mut server = Server::start_observed(
        pipeline(),
        config(2),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    for u in TURNS {
        server.submit(&turn(0, u));
    }
    server.drain(); // reveals the death of worker 0
                    // New work whose content- or session-hash lands on the corpse is
                    // rerouted at admission; nothing is refused, nothing hangs.
    server.submit(&turn(2, "show orders")); // session 2 % 2 == worker 0
    server.submit(&RequestSpec::single("how many customers are there"));
    server.submit(&RequestSpec::single("how many customers are there"));
    let done = server.drain();
    assert_eq!(done.len(), 3);
    for c in &done {
        assert_eq!(c.worker, Some(1), "only the survivor serves new work");
        assert!(
            !matches!(c.disposition, Disposition::Refused { .. }),
            "rerouted work is served, not refused: {:?}",
            c.disposition
        );
    }
    let m = server.shutdown();
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(m.readmit_refused, 0);
}

#[test]
fn stream_recovery_matches_a_never_crashed_run() {
    // The acceptance regime: a seeded mixed stream loses a worker on
    // the middle turn of a multi-turn conversation. Previously this
    // surfaced as refusals for the crashed turn and everything queued
    // behind it; now the stream must be answer-identical to a clean run.
    silence_worker_panics();
    let db = retail_database(7);
    let slots = derive_slots(&db);
    let stream = request_stream(&slots, 42, 80, 0.25);
    let victims = sessions_with_min_turns(&stream, 3);
    assert!(
        !victims.is_empty(),
        "stream must hold a 3-turn conversation"
    );
    let mid_turn = session_turn_ids(&stream, victims[0])[1];
    let run = |plan: FaultPlan| {
        let p = Arc::new(NliPipeline::standard(&db));
        let clock = Arc::new(ManualClock::new());
        let mut server = Server::start_observed(
            p,
            config(2),
            clock.clone() as Arc<dyn Clock>,
            Some(fault_plan_hook(plan)),
            None,
        );
        let report = run_closed_loop(&mut server, &clock, &stream, 16);
        (report, server.shutdown())
    };
    let (clean, clean_m) = run(FaultPlan::none());
    let plan = || FaultPlan::none().with(mid_turn, FaultKind::WorkerPanic);
    let (crashed, m) = run(plan());
    assert_eq!(crashed.completions.len(), 80);
    // Exactly-once delivery: every admitted id appears once.
    let ids: Vec<u64> = crashed.completions.iter().map(|c| c.id).collect();
    let mut deduped = ids.clone();
    deduped.dedup();
    assert_eq!(ids.len(), deduped.len(), "no double delivery");
    assert_eq!(
        crashed.signatures(),
        clean.signatures(),
        "the crashed run answers exactly like the clean run"
    );
    assert_eq!(m.refused, clean_m.refused, "zero session-loss refusals");
    assert!(m.worker_deaths >= 1 && m.sessions_recovered >= 1);
    assert!(m.turns_replayed >= 1);
    assert_eq!(m.replay_divergence, 0);
    // And the whole recovery replays bit-identically.
    let (crashed_b, m_b) = run(plan());
    assert_eq!(crashed.signatures(), crashed_b.signatures());
    assert_eq!(m, m_b);
}

#[test]
fn redelivery_budget_bounds_worker_chasing() {
    // Every attempt of request 0 kills its worker, so the request
    // chases from corpse to corpse. The retry budget of 2 allows two
    // redeliveries; the third bounce is refused while a fourth worker
    // still lives, proving the budget (not worker exhaustion) is what
    // stopped it.
    silence_worker_panics();
    let clock = Arc::new(ManualClock::new());
    let hook: RequestHook =
        Box::new(|ctx: &HookCtx| (ctx.id == 0).then_some(InjectedFault::WorkerPanic));
    let mut server = Server::start_observed(
        pipeline(),
        config(4),
        clock.clone() as Arc<dyn Clock>,
        Some(hook),
        None,
    );
    // Session 0's home is worker 0; its redeliveries land on 1, then 2.
    server.submit(&turn(0, "show customers in Austin"));
    let done = server.drain();
    assert_eq!(done.len(), 1);
    match &done[0].disposition {
        Disposition::Refused { reason } => assert!(
            reason.contains("redelivery budget exhausted after 3 bounces"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    // Worker 3 outlived the chase: session 1 (home worker 1, dead)
    // is served there.
    server.submit(&turn(1, "show orders"));
    let done = server.drain();
    assert!(matches!(
        done[0].disposition,
        Disposition::SessionReply { .. }
    ));
    assert_eq!(done[0].worker, Some(3));
    let m = server.shutdown();
    assert_eq!(m.worker_deaths, 3);
    assert_eq!(m.readmitted, 2, "two redeliveries within the budget");
    assert_eq!(m.readmit_refused, 1, "then the budget cut the chase");
}

#[test]
fn readmission_rechecks_deadlines_against_the_clock() {
    // A deadline that was satisfiable at admission may be hopeless by
    // the time its worker dies. Re-admission re-checks it against the
    // manual clock instead of queueing doomed work on a survivor.
    silence_worker_panics();
    let clock = Arc::new(ManualClock::new());
    let plan = FaultPlan::none().with(0, FaultKind::WorkerPanic);
    let mut server = Server::start_observed(
        pipeline(),
        config(2),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    for u in &TURNS[..2] {
        server.submit(&RequestSpec {
            question: u.to_string(),
            session: Some(0),
            deadline: Some(10), // loose at tick 0 (projected ≤ 2)
        });
    }
    clock.advance(50); // the crash is discovered far past the deadline
    let done = server.drain();
    assert_eq!(done.len(), 2);
    for c in &done {
        assert!(
            matches!(c.disposition, Disposition::DeadlineExceeded),
            "doomed re-admissions are shed: {:?}",
            c.disposition
        );
    }
    let m = server.shutdown();
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(m.readmitted, 0);
    assert_eq!(m.readmit_refused, 2);
    assert_eq!(m.shed_deadline, 2);
}

#[test]
fn shutdown_concurrent_with_worker_panic_neither_hangs_nor_leaks() {
    // The race the drain rounds must survive: `shutdown()` lands while
    // the panic is still in flight. The corpse bounces its queue into a
    // channel nobody will drain; nothing may hang, double-deliver, or
    // poison the join.
    silence_worker_panics();
    let clock = Arc::new(ManualClock::new());
    let plan = FaultPlan::none().with(1, FaultKind::WorkerPanic);
    let mut server = Server::start_observed(
        pipeline(),
        config(2),
        clock.clone() as Arc<dyn Clock>,
        Some(fault_plan_hook(plan)),
        None,
    );
    for u in TURNS {
        server.submit(&turn(0, u));
    }
    // No drain: shutdown races the worker processing (and panicking on)
    // the queue. A watchdog bounds the whole experiment — a hang is a
    // failure, not a stuck CI job. (Wall-clock is fine in tests; the
    // library itself never reads it.)
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let m = server.shutdown();
        let _ = tx.send(m);
    });
    let m = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must not hang on a panicking worker");
    assert_eq!(m.worker_deaths, 1);
    assert!(
        m.crashed_requests >= 1,
        "the bounce path ran during shutdown"
    );
}

#[test]
fn two_tenants_on_one_dead_worker_both_recover_without_leakage() {
    // Journal namespacing under crash: one worker serves conversations
    // for TWO tenants; it dies mid-stream; both tenants' sessions must
    // be rebuilt from their own journals with zero divergence and zero
    // cross-tenant traffic. Routing math pins both sessions to worker
    // 0 of 2: tenant 0 carries salt 0, so session 4 → worker 0;
    // tenant 1's salt (the odd golden-ratio constant) flips the low
    // bit, so session 7 → worker 0 too.
    use nlidb_benchdata::all_domains;
    use nlidb_ontology::JoinPathCache;
    use nlidb_serve::{TenantPolicy, TenantRegistry};

    silence_worker_panics();
    const HR_TURNS: [&str; 3] = [
        "show all employees",
        "how many employees are there",
        "show all departments",
    ];
    let run = |plan: FaultPlan| {
        let cache = Arc::new(JoinPathCache::new(256));
        let mut registry = TenantRegistry::new();
        let (fp_retail, p_retail) = nlidb_serve::tenant_pipeline(&retail_database(7), &cache);
        let (fp_hr, p_hr) = nlidb_serve::tenant_pipeline(&all_domains(42)[1], &cache);
        registry.register("retail", p_retail, TenantPolicy::default());
        registry.register("hr", p_hr, TenantPolicy::default());
        let clock = Arc::new(ManualClock::new());
        let mut server = Server::start_tenants(
            &registry,
            config(2),
            clock as Arc<dyn Clock>,
            Some(fault_plan_hook(plan)),
            None,
        );
        // Interleaved: ids 0,2,4 are retail session 4; ids 1,3,5 are
        // hr session 7. Both route to worker 0.
        for i in 0..3 {
            assert_eq!(server.route_to(fp_retail, &turn(4, TURNS[i])), Some(0));
            assert_eq!(server.route_to(fp_hr, &turn(7, HR_TURNS[i])), Some(0));
            server.submit_to(fp_retail, &turn(4, TURNS[i]));
            server.submit_to(fp_hr, &turn(7, HR_TURNS[i]));
        }
        let done = server.drain();
        let retail_m = server.tenant_metrics(fp_retail).unwrap();
        let hr_m = server.tenant_metrics(fp_hr).unwrap();
        let retail_j: Vec<(u64, usize)> = {
            let j = server.tenant_journal(fp_retail).unwrap();
            j.sessions().iter().map(|&s| (s, j.turn_count(s))).collect()
        };
        let hr_j: Vec<(u64, usize)> = {
            let j = server.tenant_journal(fp_hr).unwrap();
            j.sessions().iter().map(|&s| (s, j.turn_count(s))).collect()
        };
        let sigs: Vec<String> = done.iter().map(|c| c.signature()).collect();
        (sigs, retail_m, hr_m, retail_j, hr_j, server.shutdown())
    };
    let (clean_sigs, ..) = run(FaultPlan::none());
    // id 2 = retail's second turn: the panic kills worker 0 with one
    // committed turn in EACH tenant's journal and ids 3..5 queued
    // behind the corpse.
    let plan = FaultPlan::none().with(2, FaultKind::WorkerPanic);
    let (sigs, retail_m, hr_m, retail_j, hr_j, m) = run(plan);
    assert_eq!(
        sigs, clean_sigs,
        "both tenants answer exactly like the never-crashed run"
    );
    // Both tenants' sessions were rebuilt, each from its own journal.
    assert_eq!(m.worker_deaths, 1);
    assert_eq!(m.sessions_recovered, 2, "one session per tenant");
    assert_eq!(m.replay_divergence, 0);
    assert_eq!(retail_m.sessions_recovered, 1);
    assert_eq!(hr_m.sessions_recovered, 1);
    assert_eq!(retail_m.worker_deaths + hr_m.worker_deaths, 1);
    assert_eq!(retail_m.replay_divergence, 0);
    assert_eq!(hr_m.replay_divergence, 0);
    // Journals are fully namespaced: each holds exactly its own
    // conversation, session ids never cross tenants.
    assert_eq!(retail_j, vec![(4, 3)]);
    assert_eq!(hr_j, vec![(7, 3)]);
    assert_eq!(retail_m.journal_turns, 3);
    assert_eq!(hr_m.journal_turns, 3);
    assert_eq!(m.journal_turns, 6);
}

#[test]
fn panic_racing_drain_delivers_every_outcome_exactly_once() {
    // Drain invoked immediately after submitting a panicking workload —
    // the recovery rounds run concurrently with the panic itself, and
    // must still hand back exactly one outcome per admitted id.
    silence_worker_panics();
    for trial in 0..3u64 {
        let clock = Arc::new(ManualClock::new());
        let plan = FaultPlan::none().with(trial, FaultKind::WorkerPanic);
        let mut server = Server::start_observed(
            pipeline(),
            config(2),
            clock.clone() as Arc<dyn Clock>,
            Some(fault_plan_hook(plan)),
            None,
        );
        for u in TURNS {
            server.submit(&turn(0, u));
        }
        for u in TURNS {
            server.submit(&turn(1, u));
        }
        let done = server.drain();
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            vec![0, 1, 2, 3, 4, 5],
            "trial {trial}: exactly once, in order"
        );
        assert!(
            done.iter()
                .all(|c| matches!(c.disposition, Disposition::SessionReply { .. })),
            "trial {trial}: both conversations fully served"
        );
        let m = server.shutdown();
        assert_eq!(m.worker_deaths, 1, "trial {trial}");
    }
}
