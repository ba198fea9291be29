//! Shared soak regimes: the load shapes and open-loop schedules that
//! E20 and the `soak` binary both drive.
//!
//! Each regime pairs one seeded load shape from [`nlidb_benchdata`]'s
//! soak generators (zipfian-skewed popularity, flash-crowd bursts,
//! long CoSQL-shaped sessions, tenant-skewed mixes, deliberate
//! overload) with a fixed open-loop schedule, and returns the
//! streaming [`SoakReport`] plus the server's final metrics and the
//! health hub's per-window throughput / p99 / burn-rate series. The
//! stream is handed to the driver as a lazy iterator and completions
//! fold as they drain, so a regime's memory footprint is independent
//! of `n` — the property E20 exists to keep honest at 10⁵ requests.

use std::sync::Arc;

use nlidb_benchdata::{derive_slots, domain_database, DOMAIN_NAMES};
use nlidb_core::pipeline::NliPipeline;
use nlidb_nlp::{fnv1a, FNV1A_OFFSET};
use nlidb_serve::{
    open_loop, run_closed_loop, run_open_loop, run_open_loop_tenants, Clock, Disposition,
    HealthConfig, ManualClock, MetricsSnapshot, OpenLoopConfig, OverloadPolicy, ServeObs, Server,
    ServerConfig, SoakReport, TenantPolicy, TenantRegistry, WindowSample,
};

/// The soak shapes, in run order. `overload` is the robustness
/// regime: its schedule outruns the watermark on purpose.
pub const SOAK_SHAPES: [&str; 5] = [
    "zipfian",
    "flash-crowd",
    "long-session",
    "tenant-skew",
    "overload",
];

/// The question-pool size every single-tenant shape draws from.
const POOL: usize = 32;

/// The overload regime's watermark policy: the open-loop window
/// (12 arrivals × 4 ticks = 48 outstanding) crosses `high_watermark`
/// mid-window every window, and every drain returns every credit and
/// closes the episode, so episodes provably open *and* close.
/// The shed-first set is exactly the repeats of questions the server
/// has already answered.
pub const OVERLOAD_POLICY: OverloadPolicy = OverloadPolicy {
    high_watermark: 24,
    early_warning: None,
};

/// The overload regime's schedule (also used by the prefix audit).
pub const OVERLOAD_SCHEDULE: OpenLoopConfig = OpenLoopConfig {
    arrivals_per_tick: 12,
    drain_every: 4,
};

/// Everything one soak regime produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Which of [`SOAK_SHAPES`] ran.
    pub shape: &'static str,
    /// The streaming open-loop report.
    pub report: SoakReport,
    /// The server's final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// `(traces stored, traces sampled out)` when the regime ran with
    /// a sampling [`ServeObs`] attached (the zipfian shape does, to
    /// keep the bounded-span claim measured, not assumed).
    pub spans: Option<(usize, u64)>,
    /// Per-window health series from the regime's [`HealthHub`]
    /// (merged over tenants): served count, p99 sojourn, availability
    /// burn per fixed-width logical-tick window. Every shape runs with
    /// a health hub attached; the hub observes drains only, so the
    /// report and metrics are byte-identical to an unobserved run.
    ///
    /// [`HealthHub`]: nlidb_serve::HealthHub
    pub windows: Vec<WindowSample>,
}

impl SoakOutcome {
    /// One canonical line — the [`SoakReport`] summary extended with
    /// the overload counters (and span retention when observed). E20
    /// byte-compares exactly this across paired runs.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{}: {} shed_overload={} entered={} recovered={} shed_full={}",
            self.shape,
            self.report.summary_line(),
            self.metrics.shed_overload,
            self.metrics.overload_entered,
            self.metrics.overload_recovered,
            self.metrics.shed_full,
        );
        if let Some((stored, sampled_out)) = self.spans {
            line.push_str(&format!(" spans={stored} sampled_out={sampled_out}"));
        }
        let burn_max = self.windows.iter().map(|w| w.burn_milli).max().unwrap_or(0);
        line.push_str(&format!(
            " windows={} burn_max={burn_max}",
            self.windows.len()
        ));
        line
    }

    /// The outcome as one JSON object (hand-rendered: every value is
    /// an integer or a fixed-width hex string, so the encoding is
    /// trivially canonical). `scripts/check_bench_json.py` validates
    /// this schema.
    pub fn json(&self) -> String {
        let r = &self.report;
        let served = r.served();
        let p = |q: f64| r.latency.percentile(q).unwrap_or(0);
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"index\":{},\"served\":{},\"p99\":{},\"burn_milli\":{}}}",
                    w.index, w.served, w.p99, w.burn_milli
                )
            })
            .collect();
        format!(
            "{{\"shape\":\"{}\",\"requests\":{},\"served\":{},\"answered\":{},\"session\":{},\
             \"degraded\":{},\"refused\":{},\"shed\":{},\"deadline\":{},\"drains\":{},\
             \"ticks\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"served_per_kilotick\":{},\
             \"shed_overload\":{},\"overload_entered\":{},\"overload_recovered\":{},\
             \"digest\":\"{:016x}\",\"windows\":[{}]}}",
            self.shape,
            r.requests,
            served,
            r.answered,
            r.session_replies,
            r.degraded,
            r.refused,
            r.shed,
            r.deadline_exceeded,
            r.drains,
            r.ticks,
            p(50.0),
            p(95.0),
            p(99.0),
            served * 1000 / r.ticks.max(1),
            self.metrics.shed_overload,
            self.metrics.overload_entered,
            self.metrics.overload_recovered,
            r.signature_digest(),
            windows.join(","),
        )
    }
}

/// A retail-domain server for the single-tenant shapes (also E21's
/// overload regime).
pub(crate) fn retail_server(
    seed: u64,
    overload: Option<OverloadPolicy>,
    obs: Option<ServeObs>,
) -> (Server, Arc<ManualClock>) {
    let db = domain_database("retail", seed);
    let pipeline = Arc::new(NliPipeline::standard(&db));
    let clock = Arc::new(ManualClock::new());
    let server = Server::start_observed(
        pipeline,
        ServerConfig {
            workers: 4,
            queue_capacity: 4096,
            interp_cache: 256,
            overload,
        },
        clock.clone() as Arc<dyn Clock>,
        None,
        obs,
    );
    (server, clock)
}

/// The retail question pool every single-tenant shape draws from.
pub fn retail_pool(seed: u64) -> Vec<String> {
    let db = domain_database("retail", seed);
    let slots = derive_slots(&db);
    nlidb_benchdata::question_pool(&slots, seed, POOL)
}

/// Run one soak shape (a name from [`SOAK_SHAPES`]) for `n` requests
/// at `seed`.
///
/// # Panics
///
/// On an unknown shape name — the binaries validate names at parse
/// time.
pub fn run_soak_shape(shape: &str, seed: u64, n: usize) -> SoakOutcome {
    // Every shape runs with a sampling + health-tracking ServeObs:
    // span memory stays at the sink capacity no matter how long the
    // run is, and the health hub folds every drained completion into
    // its windowed scopes (bounded by the ring, not the stream).
    let obs = ServeObs::with_health(64, 1024, HealthConfig::default());
    let hub = obs.health.clone().expect("with_health attaches a hub");
    match shape {
        "zipfian" => {
            let (mut server, clock) = retail_server(seed, None, Some(obs.clone()));
            let stream = nlidb_benchdata::zipfian_stream(retail_pool(seed), seed, n, 1.2);
            let report = run_open_loop(
                &mut server,
                &clock,
                stream,
                OpenLoopConfig {
                    arrivals_per_tick: 8,
                    drain_every: 4,
                },
            );
            let metrics = server.shutdown();
            SoakOutcome {
                shape: "zipfian",
                report,
                metrics,
                spans: Some((obs.sink.len(), obs.sink.sampled_out())),
                windows: hub.window_series(),
            }
        }
        "flash-crowd" => {
            let (mut server, clock) = retail_server(seed, None, Some(obs.clone()));
            let stream = nlidb_benchdata::flash_crowd_stream(retail_pool(seed), seed, n, 50, 10);
            let report = run_open_loop(
                &mut server,
                &clock,
                stream,
                OpenLoopConfig {
                    arrivals_per_tick: 8,
                    drain_every: 4,
                },
            );
            let metrics = server.shutdown();
            SoakOutcome {
                shape: "flash-crowd",
                report,
                metrics,
                spans: None,
                windows: hub.window_series(),
            }
        }
        "long-session" => {
            // Dialogue turns execute the full pipeline every turn —
            // caching a turn is off the table because session state
            // must advance — so this shape is ~100× the per-request
            // cost of the cached singles shapes. It runs at a tenth
            // of the headline scale to keep the harness fast; the
            // bounded-memory property it guards is scale-free.
            let n = (n / 10).max(1);
            let db = domain_database("retail", seed);
            let slots = derive_slots(&db);
            let (mut server, clock) = retail_server(seed, None, Some(obs.clone()));
            let stream = nlidb_benchdata::long_session_stream(&slots, seed, n, 8, 6);
            let report = run_open_loop(
                &mut server,
                &clock,
                stream,
                OpenLoopConfig {
                    arrivals_per_tick: 4,
                    drain_every: 2,
                },
            );
            let metrics = server.shutdown();
            SoakOutcome {
                shape: "long-session",
                report,
                metrics,
                spans: None,
                windows: hub.window_series(),
            }
        }
        "tenant-skew" => {
            let mut registry = TenantRegistry::new();
            let mut tenants = Vec::new();
            for (i, name) in DOMAIN_NAMES.iter().take(3).enumerate() {
                let db = domain_database(name, seed.wrapping_add(i as u64));
                let slots = derive_slots(&db);
                let fp = registry.register(
                    *name,
                    Arc::new(NliPipeline::standard(&db)),
                    TenantPolicy::default(),
                );
                tenants.push((
                    fp,
                    nlidb_benchdata::question_pool(&slots, seed.wrapping_add(i as u64), 16),
                ));
            }
            let clock = Arc::new(ManualClock::new());
            let mut server = Server::start_tenants(
                &registry,
                ServerConfig {
                    workers: 4,
                    queue_capacity: 4096,
                    interp_cache: 256,
                    ..ServerConfig::default()
                },
                clock.clone() as Arc<dyn Clock>,
                None,
                Some(obs.clone()),
            );
            let stream = nlidb_benchdata::tenant_skew_stream(tenants, seed, n, 1.5);
            let report = run_open_loop_tenants(
                &mut server,
                &clock,
                stream,
                OpenLoopConfig {
                    arrivals_per_tick: 8,
                    drain_every: 4,
                },
            );
            let metrics = server.shutdown();
            SoakOutcome {
                shape: "tenant-skew",
                report,
                metrics,
                spans: None,
                windows: hub.window_series(),
            }
        }
        "overload" => {
            let (mut server, clock) = retail_server(seed, Some(OVERLOAD_POLICY), Some(obs.clone()));
            let stream = nlidb_benchdata::zipfian_stream(retail_pool(seed), seed, n, 1.0);
            let report = run_open_loop(&mut server, &clock, stream, OVERLOAD_SCHEDULE);
            let metrics = server.shutdown();
            SoakOutcome {
                shape: "overload",
                report,
                metrics,
                spans: None,
                windows: hub.window_series(),
            }
        }
        other => panic!("unknown soak shape {other:?} (see SOAK_SHAPES)"),
    }
}

/// The E20 overload-fidelity audit: replay the overload regime's
/// exact schedule while recording, per request id, the signature of
/// every *served* completion — then compare each against an unloaded
/// closed-loop oracle over the same stream. Returns
/// `(served, shed, n)` after asserting that the served set is a
/// signature-identical subset of the oracle (overload degrades *which*
/// requests get answered, never *what* an answered request says).
pub fn overload_prefix_audit(seed: u64, n: usize) -> (usize, usize, usize) {
    let (served, shed, n, _) = overload_audit_observed(seed, n, OVERLOAD_POLICY, None);
    (served, shed, n)
}

/// [`overload_prefix_audit`] parameterized over the overload policy
/// and an optional [`ServeObs`] attached to the audited (loaded)
/// server. E21 uses it to audit the `early_warning` regime: with a
/// health hub attached and a burn threshold set, episodes open below
/// the watermark — and the served subset must *still* be
/// signature-identical to the unloaded oracle. Returns
/// `(served, shed, n, final metrics of the loaded server)`.
pub fn overload_audit_observed(
    seed: u64,
    n: usize,
    policy: OverloadPolicy,
    obs: Option<ServeObs>,
) -> (usize, usize, usize, MetricsSnapshot) {
    let stream: Vec<_> = nlidb_benchdata::zipfian_stream(retail_pool(seed), seed, n, 1.0).collect();
    let digest = |signature: String| fnv1a(FNV1A_OFFSET, signature.as_bytes());

    // The oracle: every request answered, no overload policy.
    let (mut server, clock) = retail_server(seed, None, None);
    let oracle = run_closed_loop(&mut server, &clock, &stream, 32);
    server.shutdown();
    assert_eq!(oracle.completions.len(), n, "oracle serves everything");
    let mut oracle_sig = vec![0u64; n];
    for c in &oracle.completions {
        assert!(
            matches!(c.disposition, Disposition::Answered { .. }),
            "oracle run must answer every request, got {}",
            c.signature()
        );
        oracle_sig[c.id as usize] = digest(c.signature());
    }

    // The audit: the regime's schedule, drains inspected in place.
    let (mut server, clock) = retail_server(seed, Some(policy), obs);
    let fingerprint = server.fingerprint();
    let arrivals = stream.into_iter().map(|spec| (fingerprint, spec));
    let (mut served, mut shed) = (0usize, 0usize);
    open_loop(
        &mut server,
        &clock,
        arrivals,
        OVERLOAD_SCHEDULE,
        |drained| {
            for (c, _) in drained {
                match c.disposition {
                    Disposition::Answered { .. } => {
                        assert_eq!(
                            digest(c.signature()),
                            oracle_sig[c.id as usize],
                            "request {} diverged from the unloaded oracle",
                            c.id
                        );
                        served += 1;
                    }
                    Disposition::Shed => shed += 1,
                    ref other => panic!("unexpected disposition in audit: {other:?}"),
                }
            }
        },
    );
    let metrics = server.shutdown();
    assert_eq!(served + shed, n, "audit accounts for every request");
    assert!(shed > 0, "the overload schedule must actually shed");
    (served, shed, n, metrics)
}
