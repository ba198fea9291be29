//! Seeded load drivers: the exact closed loop and the soak-scale open
//! loop.
//!
//! [`run_closed_loop`] replays a [`RequestSpec`] stream against a
//! [`Server`] in fixed-size batches: submit a batch, advance the
//! [`ManualClock`] one tick, drain, repeat. Closed-loop means a
//! batch's completions are collected before the next batch is offered
//! — so queue depth (and therefore shedding) is a pure function of
//! `batch` and the server's `queue_capacity`, never of thread
//! scheduling. It keeps every [`Completion`] and is what E12–E19
//! compare signature-for-signature.
//!
//! [`run_open_loop`] decouples arrivals from completions, the way real
//! traffic does: a fixed number of requests arrive every tick whether
//! or not earlier ones finished, and the server is only drained every
//! `drain_every` ticks — so between drains the credit ledger
//! accumulates `arrivals_per_tick × drain_every` requests and
//! sustained saturation is a *deterministic* property of the schedule,
//! not an accident of thread timing. At soak scale (10⁵–10⁶ requests)
//! nothing may accumulate per request: completions are folded into a
//! [`SoakReport`] — counters, a bounded-memory latency sketch, and a
//! rolling signature digest — the moment they drain, and dropped.
//!
//! Sojourn latency is measured in logical ticks, submit to drain; it
//! is recorded for *served* requests only (answered, session replies,
//! degraded answers) — a shed request has no service time.

use nlidb_benchdata::RequestSpec;
use nlidb_core::{fnv1a, FNV1A_OFFSET};
use nlidb_obs::SketchHistogram;

use crate::clock::{Clock, ManualClock};
use crate::server::{Completion, Disposition, Server};

/// Everything a closed-loop run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// All completions, in submission order.
    pub completions: Vec<Completion>,
    /// Batches driven.
    pub batches: usize,
}

impl LoadReport {
    /// The per-request semantic digests (see [`Completion::signature`]),
    /// in submission order — the unit of serving-equivalence checks.
    pub fn signatures(&self) -> Vec<String> {
        self.completions.iter().map(Completion::signature).collect()
    }
}

/// Drive `stream` through `server` in closed-loop batches of `batch`
/// requests, advancing `clock` one tick per batch.
pub fn run_closed_loop(
    server: &mut Server,
    clock: &ManualClock,
    stream: &[RequestSpec],
    batch: usize,
) -> LoadReport {
    let fingerprint = server.fingerprint();
    let stream = stream.iter().map(|spec| (fingerprint, spec));
    closed_loop(server, clock, stream, batch)
}

/// [`run_closed_loop`] for a multi-tenant stream: each element of
/// `stream` is a `(schema fingerprint, request)` pair (the shape
/// [`nlidb_benchdata::interleave_streams`] produces), submitted to
/// `server` under its owning tenant.
pub fn run_closed_loop_tenants(
    server: &mut Server,
    clock: &ManualClock,
    stream: &[(u64, RequestSpec)],
    batch: usize,
) -> LoadReport {
    let stream = stream
        .iter()
        .map(|(fingerprint, spec)| (*fingerprint, spec));
    closed_loop(server, clock, stream, batch)
}

/// The closed-loop schedule: submit a batch, drain it, advance the
/// clock one tick, repeat.
fn closed_loop<'a>(
    server: &mut Server,
    clock: &ManualClock,
    stream: impl Iterator<Item = (u64, &'a RequestSpec)>,
    batch: usize,
) -> LoadReport {
    // Grown drain by drain — capacity stays chunk-bounded instead of
    // preallocating the whole stream's length up front (the soak-scale
    // hazard the open loop avoids entirely by never keeping
    // completions at all).
    let mut completions = Vec::new();
    let mut batches = 0;
    let mut stream = stream.peekable();
    while stream.peek().is_some() {
        for (fingerprint, spec) in stream.by_ref().take(batch.max(1)) {
            server.submit_to(fingerprint, spec);
        }
        completions.append(&mut server.drain());
        clock.advance(1);
        batches += 1;
    }
    LoadReport {
        completions,
        batches,
    }
}

/// The open-loop arrival schedule (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopConfig {
    /// Requests offered per clock tick, regardless of completions
    /// (at least 1).
    pub arrivals_per_tick: usize,
    /// Ticks between drains (at least 1). Between drains the credit
    /// ledger only grows — this knob times overload pressure.
    pub drain_every: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals_per_tick: 8,
            drain_every: 4,
        }
    }
}

/// The streaming summary of an open-loop run: O(1) memory in the
/// stream length. Completions fold in as they drain — disposition
/// counters, a [`SketchHistogram`] of served sojourn ticks, and a
/// rolling FNV-1a digest of every [`Completion::signature`] in id
/// order — and are then dropped. Two runs fold byte-identical
/// summaries iff they served the stream identically.
#[derive(Debug)]
pub struct SoakReport {
    /// Requests offered to the server.
    pub requests: u64,
    /// Standalone questions answered at full fidelity.
    pub answered: u64,
    /// Dialogue turns processed.
    pub session_replies: u64,
    /// Questions answered by a weaker interpreter family.
    pub degraded: u64,
    /// Requests the pipeline refused or the runtime could not place.
    pub refused: u64,
    /// Requests shed at admission (queue-full or overload — the
    /// metrics snapshot breaks these apart).
    pub shed: u64,
    /// Requests rejected for an unmeetable deadline.
    pub deadline_exceeded: u64,
    /// Drains performed.
    pub drains: u64,
    /// Clock ticks the run spanned.
    pub ticks: u64,
    /// Sojourn ticks (submit → drain) of served requests, in a
    /// bounded-memory log₂-bucket sketch.
    pub latency: SketchHistogram,
    /// Rolling FNV-1a digest over completion signatures, folded in id
    /// order.
    digest: u64,
}

impl Default for SoakReport {
    fn default() -> SoakReport {
        SoakReport::new()
    }
}

impl SoakReport {
    /// An empty report.
    pub fn new() -> SoakReport {
        SoakReport {
            requests: 0,
            answered: 0,
            session_replies: 0,
            degraded: 0,
            refused: 0,
            shed: 0,
            deadline_exceeded: 0,
            drains: 0,
            ticks: 0,
            latency: SketchHistogram::new(),
            digest: FNV1A_OFFSET,
        }
    }

    /// Fold one drained completion, `sojourn` ticks after its submit,
    /// and drop it.
    fn fold(&mut self, completion: &Completion, sojourn: u64) {
        self.requests += 1;
        let served = match completion.disposition {
            Disposition::Answered { .. } => {
                self.answered += 1;
                true
            }
            Disposition::SessionReply { .. } => {
                self.session_replies += 1;
                true
            }
            Disposition::Degraded { .. } => {
                self.degraded += 1;
                true
            }
            Disposition::Refused { .. } => {
                self.refused += 1;
                false
            }
            Disposition::Shed => {
                self.shed += 1;
                false
            }
            Disposition::DeadlineExceeded => {
                self.deadline_exceeded += 1;
                false
            }
        };
        if served {
            self.latency.observe(sojourn);
        }
        self.digest = fnv1a(self.digest, completion.signature().as_bytes());
        self.digest = fnv1a(self.digest, b"\n");
    }

    /// Requests served at some fidelity (answered + session replies +
    /// degraded).
    pub fn served(&self) -> u64 {
        self.answered + self.session_replies + self.degraded
    }

    /// The rolling FNV-1a digest over every completion signature, in
    /// id order. Equal digests ⇔ signature-identical runs; this is the
    /// O(1)-memory stand-in for comparing full signature vectors.
    pub fn signature_digest(&self) -> u64 {
        self.digest
    }

    /// One canonical line: every counter, the latency percentiles
    /// (bucket upper bounds, 0 when nothing was served), and the
    /// signature digest. E20 byte-compares exactly this across paired
    /// runs.
    pub fn summary_line(&self) -> String {
        format!(
            "requests={} served={} answered={} session={} degraded={} refused={} shed={} \
             deadline={} drains={} ticks={} p50={} p95={} p99={} digest={:016x}",
            self.requests,
            self.served(),
            self.answered,
            self.session_replies,
            self.degraded,
            self.refused,
            self.shed,
            self.deadline_exceeded,
            self.drains,
            self.ticks,
            self.latency.percentile(50.0).unwrap_or(0),
            self.latency.percentile(95.0).unwrap_or(0),
            self.latency.percentile(99.0).unwrap_or(0),
            self.digest,
        )
    }
}

/// Drive a lazy `stream` through `server` open-loop (see the module
/// docs): `arrivals_per_tick` requests arrive per tick whether or not
/// earlier ones finished, the server is drained every `drain_every`
/// ticks (plus once at the end), and completions fold straight into
/// the returned [`SoakReport`].
pub fn run_open_loop(
    server: &mut Server,
    clock: &ManualClock,
    stream: impl IntoIterator<Item = RequestSpec>,
    config: OpenLoopConfig,
) -> SoakReport {
    let fingerprint = server.fingerprint();
    let stream = stream.into_iter().map(|spec| (fingerprint, spec));
    run_open_loop_tenants(server, clock, stream, config)
}

/// [`run_open_loop`] for a multi-tenant stream of
/// `(schema fingerprint, request)` pairs.
pub fn run_open_loop_tenants(
    server: &mut Server,
    clock: &ManualClock,
    stream: impl IntoIterator<Item = (u64, RequestSpec)>,
    config: OpenLoopConfig,
) -> SoakReport {
    let start = clock.now();
    let mut report = SoakReport::new();
    open_loop(server, clock, stream, config, |drained| {
        report.drains += 1;
        for (completion, sojourn) in &drained {
            report.fold(completion, *sojourn);
        }
    });
    report.ticks = clock.now() - start;
    report
}

/// The open-loop schedule (see the module docs): every tick, submit
/// the next `arrivals_per_tick` `(schema fingerprint, request)` pairs
/// of `stream` and advance `clock`; every `drain_every` ticks, and once
/// more after the stream runs dry, drain `server` and hand `on_drain`
/// that drain's completions, each paired with its sojourn (ticks from
/// its submit to the drain). Nothing outlives a drain, so memory is
/// bounded by one drain window's arrivals whatever the stream length.
pub fn open_loop(
    server: &mut Server,
    clock: &ManualClock,
    stream: impl IntoIterator<Item = (u64, RequestSpec)>,
    config: OpenLoopConfig,
    mut on_drain: impl FnMut(Vec<(Completion, u64)>),
) {
    let arrivals = config.arrivals_per_tick.max(1);
    let drain_every = config.drain_every.max(1);
    let mut drain = |server: &mut Server| {
        let tick = clock.now();
        let drained = server
            .drain()
            .into_iter()
            .map(|c| {
                let sojourn = tick.saturating_sub(c.submit_tick);
                (c, sojourn)
            })
            .collect();
        on_drain(drained);
    };
    let mut stream = stream.into_iter();
    let mut since_drain = 0u64;
    let mut exhausted = false;
    while !exhausted {
        for _ in 0..arrivals {
            match stream.next() {
                Some((fingerprint, spec)) => {
                    server.submit_to(fingerprint, &spec);
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        clock.advance(1);
        since_drain += 1;
        if since_drain >= drain_every {
            drain(server);
            since_drain = 0;
        }
    }
    drain(server);
}

/// Assign a deadline of `now + budget` ticks to every `period`-th
/// request of `stream` (a deterministic deadline mix for backpressure
/// experiments). `now` is taken per batch position: request `i` is
/// submitted in batch `i / batch`, so its submit-time tick is known in
/// advance — no clock reads needed here.
pub fn with_deadlines(
    mut stream: Vec<RequestSpec>,
    period: usize,
    budget: u64,
    batch: usize,
) -> Vec<RequestSpec> {
    let period = period.max(1);
    let batch = batch.max(1);
    for (i, spec) in stream.iter_mut().enumerate() {
        if i % period == 0 {
            let submit_tick = (i / batch) as u64;
            spec.deadline = Some(submit_tick + budget);
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::server::{OverloadPolicy, ServerConfig};
    use nlidb_benchdata::{derive_slots, question_pool, request_stream, retail_database};
    use nlidb_core::pipeline::NliPipeline;
    use std::sync::Arc;

    fn setup(workers: usize, overload: Option<OverloadPolicy>) -> (Server, Arc<ManualClock>) {
        let db = retail_database(7);
        let pipeline = Arc::new(NliPipeline::standard(&db));
        let clock = Arc::new(ManualClock::new());
        let server = Server::start_observed(
            pipeline,
            ServerConfig {
                workers,
                overload,
                ..ServerConfig::default()
            },
            clock.clone() as Arc<dyn Clock>,
            None,
            None,
        );
        (server, clock)
    }

    #[test]
    fn closed_loop_completes_everything() {
        let db = retail_database(7);
        let slots = derive_slots(&db);
        let pipeline = Arc::new(NliPipeline::standard(&db));
        let stream = request_stream(&slots, 42, 40, 0.25);
        let clock = Arc::new(ManualClock::new());
        let mut server = Server::start_observed(
            pipeline,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            clock.clone() as Arc<dyn Clock>,
            None,
            None,
        );
        let report = run_closed_loop(&mut server, &clock, &stream, 8);
        assert_eq!(report.completions.len(), 40);
        assert_eq!(report.batches, 5);
        assert_eq!(clock.now(), 5, "one tick per batch");
        // Submission order is preserved.
        let ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        server.shutdown();
    }

    #[test]
    fn with_deadlines_marks_the_periodic_subset() {
        let stream = vec![RequestSpec::single("q"); 10];
        let marked = with_deadlines(stream, 3, 5, 4);
        let deadlines: Vec<Option<u64>> = marked.iter().map(|r| r.deadline).collect();
        // i = 0, 3, 6, 9 get deadlines; submit ticks 0, 0, 1, 2.
        assert_eq!(deadlines[0], Some(5));
        assert_eq!(deadlines[3], Some(5));
        assert_eq!(deadlines[6], Some(6));
        assert_eq!(deadlines[9], Some(7));
        assert!(deadlines[1].is_none() && deadlines[2].is_none());
    }

    #[test]
    fn open_loop_accounts_every_request_and_is_repeatable() {
        let db = retail_database(7);
        let slots = derive_slots(&db);
        let pool = question_pool(&slots, 42, 8);
        let run = || {
            let (mut server, clock) = setup(2, None);
            let stream = nlidb_benchdata::zipfian_stream(pool.clone(), 42, 120, 1.0);
            let report = run_open_loop(
                &mut server,
                &clock,
                stream,
                OpenLoopConfig {
                    arrivals_per_tick: 6,
                    drain_every: 3,
                },
            );
            server.shutdown();
            report.summary_line()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "open-loop summaries are byte-identical");
        assert!(a.contains("requests=120"), "unexpected summary: {a}");
        // Everything either served or rejected — nothing vanishes.
        let report = {
            let (mut server, clock) = setup(2, None);
            let stream = nlidb_benchdata::zipfian_stream(pool.clone(), 42, 120, 1.0);
            let r = run_open_loop(&mut server, &clock, stream, OpenLoopConfig::default());
            server.shutdown();
            r
        };
        assert_eq!(
            report.served() + report.refused + report.shed + report.deadline_exceeded,
            report.requests
        );
        assert!(report.latency.count() > 0, "served requests have sojourns");
    }

    #[test]
    fn open_loop_overload_sheds_then_recovers() {
        let db = retail_database(7);
        let slots = derive_slots(&db);
        let pool = question_pool(&slots, 42, 6);
        let policy = OverloadPolicy {
            high_watermark: 8,
            early_warning: None,
        };
        let (mut server, clock) = setup(1, Some(policy));
        // Warm pass teaches answered questions without pressure.
        let warm: Vec<RequestSpec> =
            nlidb_benchdata::zipfian_stream(pool.clone(), 7, 6, 0.0).collect();
        run_closed_loop(&mut server, &clock, &warm, 1);
        // Open loop at 6 arrivals/tick, drain every 4 ticks: the
        // ledger hits 8+ mid-window, so overload must engage.
        let stream = nlidb_benchdata::zipfian_stream(pool.clone(), 42, 200, 1.0);
        let report = run_open_loop(
            &mut server,
            &clock,
            stream,
            OpenLoopConfig {
                arrivals_per_tick: 6,
                drain_every: 4,
            },
        );
        let m = server.shutdown();
        assert!(m.overload_entered > 0, "pressure must open episodes");
        assert_eq!(
            m.overload_entered, m.overload_recovered,
            "every episode closed by a drain — the controller never wedges"
        );
        assert!(m.shed_overload > 0, "answered repeats were shed");
        assert_eq!(report.shed, m.shed_overload + m.shed_full);
        assert!(report.served() > 0, "degradation, not collapse");
    }
}
