//! Serving equivalence: the semantic outcome stream of a concurrent
//! server must be identical to a serial one — same seeded workload,
//! 1 worker vs N workers, interpretation cache hot or disabled. This
//! is the tentpole invariant experiment E12 reports; the test here is
//! the fast gate.

use std::sync::Arc;

use nlidb_benchdata::{derive_slots, request_stream, retail_database};
use nlidb_core::pipeline::NliPipeline;
use nlidb_serve::{run_closed_loop, Clock, ManualClock, Server, ServerConfig};

/// Run one workload through a fresh server and return the signature
/// stream plus (interp hits, interp misses).
fn serve_once(
    workers: usize,
    interp_cache: usize,
    n: usize,
    session_share: f64,
) -> (Vec<String>, u64, u64) {
    let db = retail_database(7);
    let slots = derive_slots(&db);
    let pipeline = Arc::new(NliPipeline::standard(&db));
    let stream = request_stream(&slots, 42, n, session_share);
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start_observed(
        pipeline,
        ServerConfig {
            workers,
            queue_capacity: n, // no shedding: equivalence runs admit everything
            interp_cache,
            ..ServerConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        None,
    );
    let report = run_closed_loop(&mut server, &clock, &stream, 16);
    let m = server.shutdown();
    assert_eq!(report.completions.len(), n, "every request completes");
    (report.signatures(), m.interp_hits, m.interp_misses)
}

#[test]
fn concurrent_equals_serial_across_worker_counts() {
    let (serial, _, _) = serve_once(1, 128, 80, 0.25);
    for workers in [2, 4] {
        let (concurrent, _, _) = serve_once(workers, 128, 80, 0.25);
        assert_eq!(
            serial, concurrent,
            "{workers}-worker run diverged from serial"
        );
    }
}

#[test]
fn caches_do_not_change_answers() {
    let (cached, hits, _) = serve_once(2, 128, 80, 0.0);
    let (uncached, no_hits, no_misses) = serve_once(2, 0, 80, 0.0);
    assert!(hits > 0, "hot workload must actually hit the cache");
    assert_eq!(no_hits, 0, "disabled cache can never hit");
    assert_eq!(
        no_misses, 80,
        "lookups are counted even with the cache disabled"
    );
    assert_eq!(cached, uncached, "cache changed a visible answer");
}

#[test]
fn repeated_runs_are_bitwise_reproducible() {
    let a = serve_once(4, 64, 60, 0.3);
    let b = serve_once(4, 64, 60, 0.3);
    assert_eq!(a, b, "same seed, same everything");
}
