//! Wall-clock benchmark of the nlidb serving stack.
//!
//! One run builds the retail stack for a workload at a seed, drives the
//! real `Server` from a single generator thread in closed-loop rounds
//! for a fixed time, checks its answers, and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics of a separate
//! traced run. See `perfbench/README.md` for the workloads and metrics.

pub mod closed_loop;
pub mod host;
pub mod oracle;
pub mod trace;
pub mod workload;

use std::sync::Arc;
use std::time::{Duration, Instant};

use nlidb_obs::{Trace, TraceSink};
use nlidb_serve::ServeObs;

use crate::closed_loop::{Budget, ServeLog};
use crate::host::HostMark;
use crate::oracle::Verdict;
use crate::trace::{Profile, WallClock, RUNGS};
use crate::workload::{Request, Served, Trained, Workload, WORKERS};

/// Set-ups per timed run; `setup_s` is the median of their CPU times.
const SETUP_REPS: usize = 7;
/// Round traces the traced run keeps for export (the newest).
const ROUND_TRACES_KEPT: usize = 32;
/// Request traces the traced run keeps for export (the newest); also
/// the capacity of the server's own trace sink.
const REQUEST_TRACES_KEPT: usize = 256;
/// Trace ids of replayed requests start here, above any round id.
const REPLAY_TRACE_BASE: u64 = 1 << 32;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall time of the measured phase.
    pub seconds: f64,
    /// Run the traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Stop after this many requests even if time remains.
    pub max_requests: u64,
    /// Where the traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched its oracle and the serving layer delivered
    /// every request exactly once, as asked.
    pub correct: bool,
    /// Requests submitted in measured phases.
    pub attempted: u64,
    /// Requests that failed, oracle mismatches included.
    pub failed: u64,
    /// The metrics, in the order they print.
    pub metrics: Vec<Metric>,
    /// Human-readable lines explaining the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The final result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; an undefined ratio reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The end-to-end metrics of the timed run's result line, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("answer_accuracy", "%"),
];

/// End-to-end metrics the timed run prints but leaves out of its result
/// line: host steal sets the latency tail, so its run-to-run spread is
/// wider than a bound on the result line could be.
pub const PRINTED_ONLY: [(&str, &str); 1] = [("latency_p99_ms", "ms")];

/// The per-layer metrics of the traced run, with units.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("serve.submit_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.route_imbalance", "ratio"),
    ("serve.cpu_utilization", "ratio"),
    ("core.link_us", "us"),
    ("core.interpret_us", "us"),
    ("core.interpret_link_ratio", "ratio"),
    ("dialogue.turn_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.execute_us.select", "us"),
    ("engine.execute_us.aggregate", "us"),
    ("engine.execute_us.join", "us"),
    ("engine.execute_us.nested", "us"),
    ("engine.batch_speedup", "ratio"),
    ("engine.ns_per_tick", "ns"),
    ("setup.train_s", "s"),
    ("setup.context_s", "s"),
    ("obs.overhead_pct", "%"),
];

/// Attach a unit from `table` to each `(name, value)` pair.
fn with_units(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not measured")),
        })
        .collect()
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Build the stack and, on `hot`, warm the pool into the cache.
fn set_up(opts: &Options) -> (Trained, Served, workload::SetupTimes) {
    let host = HostMark::now();
    let start = Instant::now();
    let (trained, mut times) = Trained::build(opts.workload, opts.seed);
    let served = start_warm(&trained, opts.workload, None);
    times.wall_s = start.elapsed().as_secs_f64();
    times.cpu_s = host.until(&HostMark::now()).0;
    (trained, served, times)
}

/// Start a server over `trained`; on `hot`, ask each pool question once
/// so every later request is a cache hit.
fn start_warm(trained: &Trained, workload: Workload, obs: Option<ServeObs>) -> Served {
    let mut served = trained.start_server(workload, obs);
    for q in &trained.pool {
        served.server.submit(&Request::Single(Arc::clone(q)).spec());
    }
    served.clock.advance(1);
    served.server.drain();
    served
}

/// Serve one phase of the workload's stream from its start.
fn serve_phase(
    trained: &Trained,
    served: &mut Served,
    opts: &Options,
    time: Duration,
    tracer: Option<closed_loop::Tracer<'_>>,
) -> ServeLog {
    let mut requests = trained.requests(opts.workload, opts.seed);
    closed_loop::run(
        served,
        &mut requests,
        opts.workload.round_size(),
        Budget {
            time,
            max_requests: opts.max_requests,
        },
        opts.workload.sample_size(),
        tracer,
    )
}

/// Failures of a phase, oracle mismatches included.
fn failures(log: &ServeLog, verdict: &Verdict) -> u64 {
    log.failed + verdict.mismatches
}

/// Every answer matched its oracle and the serving layer delivered
/// each request exactly once as asked. Pipeline refusals are failed
/// operations, but the oracle refuses them too, so they are correct
/// output.
fn correct(logs: &[&ServeLog], verdict: &Verdict) -> bool {
    verdict.mismatches == 0
        && logs.iter().all(|l| l.serving_failures() == 0)
        && logs.iter().any(|l| l.attempted > 0)
}

fn host_note(log: &ServeLog) -> String {
    format!(
        "host: wall_s={:.3} process_cpu_s={:.3} host_steal_s={:.3} nproc={}",
        log.wall_s,
        log.cpu_s,
        log.steal_s,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

fn request_note(log: &ServeLog, verdict: &Verdict) -> String {
    let kinds: Vec<String> = log
        .failure_kinds
        .iter()
        .map(|(kind, (n, first))| format!("; {kind}={n} (first: {first})"))
        .collect();
    format!(
        "requests: attempted={} completed={} failed={} (serving={} oracle_mismatch={}; checked {} sampled answers, {} later answers to them ({} changed), {} dialogue turns){}",
        log.attempted,
        log.completed,
        failures(log, verdict),
        log.failed,
        verdict.mismatches,
        verdict.sampled,
        log.repeats_checked,
        log.changed_answers,
        verdict.turns,
        kinds.concat()
    )
}

/// A metric as it would read on the reference host: times divided by
/// the host's slowdown, rates multiplied by it. Memory and accuracy do
/// not depend on speed.
fn at_reference_speed(name: &str, value: f64, slowdown: f64) -> f64 {
    match name {
        "throughput_rps" => value * slowdown,
        "peak_rss_mb" | "answer_accuracy" => value,
        _ => value / slowdown,
    }
}

/// `values` times `scale`, three decimals each, comma-separated.
fn three_decimals(values: &[f64], scale: f64) -> String {
    values
        .iter()
        .map(|v| format!("{:.3}", v * scale))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run one untraced, timed invocation: the end-to-end metrics.
pub fn run_timed(opts: &Options) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_walls = Vec::with_capacity(SETUP_REPS);
    // Probed only while no server thread is alive, so nothing the
    // program runs can slow the probe.
    let mut probes = Vec::with_capacity(SETUP_REPS + 1);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous stack first, so set-ups never overlap in
        // memory.
        drop(stack.take());
        probes.push(host::probe_ns());
        let (trained, served, times) = set_up(opts);
        setups.push(times.cpu_s);
        setup_walls.push(times.wall_s);
        stack = Some((trained, served));
    }
    let (trained, mut served) = stack.expect("at least one set-up");
    let log = serve_phase(
        &trained,
        &mut served,
        opts,
        Duration::from_secs_f64(opts.seconds),
        None,
    );
    served.server.shutdown();
    probes.push(host::probe_ns());
    let slowdown = percentile(&probes, 0.5) / host::REFERENCE_PROBE_NS;
    let verdict = oracle::verify(&trained, &log);
    let measured = [
        ("setup_s", percentile(&setups, 0.5)),
        ("throughput_rps", log.throughput_rps()),
        ("latency_p50_ms", percentile(&log.round_ms, 0.5)),
        ("latency_p99_ms", percentile(&log.round_ms, 0.99)),
        (
            "cpu_ms_per_req",
            log.cpu_s * 1e3 / log.completed.max(1) as f64,
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("answer_accuracy", verdict.accuracy_pct()),
    ];
    let values = measured.map(|(name, v)| (name, at_reference_speed(name, v, slowdown)));
    let metrics = with_units(&END_TO_END, &values);
    let printed_only = with_units(&PRINTED_ONLY, &values);
    let mut notes = vec![format!(
        "perfbench workload={} seed={} seconds={} trace=0 workers={} round={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        WORKERS,
        opts.workload.round_size()
    )];
    notes.push(format!(
        "host speed: probe median {:.4} ms of {} ({}); slowdown {:.4} against the {:.3}-ms reference host, which the metrics below are scaled to",
        percentile(&probes, 0.5) / 1e6,
        probes.len(),
        three_decimals(&probes, 1e-6),
        slowdown,
        host::REFERENCE_PROBE_NS / 1e6
    ));
    for m in metrics.iter().chain(&printed_only) {
        let raw = measured
            .iter()
            .find(|(name, _)| *name == m.name)
            .map_or(f64::NAN, |(_, v)| *v);
        let detail = match m.name {
            "setup_s" => format!(
                "median process CPU of {} set-ups ({}); wall ({})",
                setups.len(),
                three_decimals(&setups, 1.0),
                three_decimals(&setup_walls, 1.0)
            ),
            "latency_p50_ms" => {
                format!("over {} samples, one per round", log.round_ms.len())
            }
            "latency_p99_ms" => format!(
                "over {} samples, one per round; printed only, not in the result line",
                log.round_ms.len()
            ),
            "answer_accuracy" => format!(
                "{} of {} sampled questions match gold rows",
                verdict.accurate, verdict.sampled
            ),
            _ => String::new(),
        };
        notes.push(format!(
            "  {:<18} {:>14.4} {:<6} as measured {:>14.4}  {}",
            m.name, m.value, m.unit, raw, detail
        ));
    }
    notes.push(request_note(&log, &verdict));
    notes.push(host_note(&log));
    Report {
        correct: correct(&[&log], &verdict),
        attempted: log.attempted,
        failed: failures(&log, &verdict),
        metrics,
        notes,
    }
}

/// Run the traced invocation: serve the stream untraced and then with
/// `ServeObs` and a span around every `submit` and `drain`, then replay
/// the same requests through the layers' public calls. Reports the
/// per-layer metrics and writes the spans as JSONL.
pub fn run_traced(opts: &Options) -> Report {
    let (trained, mut served, times) = set_up(opts);
    let quarter = Duration::from_secs_f64(opts.seconds / 4.0);
    let untraced = serve_phase(&trained, &mut served, opts, quarter, None);
    served.server.shutdown();

    let clock = Arc::new(WallClock::default());
    let round_sink = TraceSink::new(ROUND_TRACES_KEPT);
    let request_sink = TraceSink::new(REQUEST_TRACES_KEPT);
    let mut profile = Profile::default();
    let (traced, replayed) = {
        let mut record = |trace: Trace| {
            profile.ingest(&trace);
            if trace.id >= REPLAY_TRACE_BASE {
                request_sink.push(trace);
            } else {
                round_sink.push(trace);
            }
        };
        let mut served = start_warm(
            &trained,
            opts.workload,
            Some(ServeObs::new(REQUEST_TRACES_KEPT)),
        );
        let traced = serve_phase(
            &trained,
            &mut served,
            opts,
            quarter,
            Some((&clock, &mut record)),
        );
        served.server.shutdown();
        let mut requests = trained.requests(opts.workload, opts.seed);
        let replayed = trace::replay_layers(
            &trained,
            &mut requests,
            quarter * 2,
            traced.attempted,
            &clock,
            REPLAY_TRACE_BASE,
            &mut record,
        );
        (traced, replayed)
    };

    let mut verdict = oracle::verify(&trained, &untraced);
    let traced_verdict = oracle::verify(&trained, &traced);
    verdict.mismatches += traced_verdict.mismatches;
    let failed = failures(&untraced, &verdict) + traced.failed;
    let attempted = untraced.attempted + traced.attempted;

    let trace_path = opts.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let kept = round_sink.len() + request_sink.len();
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            round_sink.export_jsonl() + &request_sink.export_jsonl(),
        )
    });

    let link = profile.span("tokenize").total_ns + profile.span("link").total_ns;
    let singles = profile.span("tokenize").count.max(1) as f64;
    let link_us = link as f64 / singles / 1e3;
    let interpret_us = profile.span("interpret").mean_us();
    let batch_ns: u64 = profile.plans.iter().map(|p| p.batch_ns).sum();
    let row_ns: u64 = profile.plans.iter().map(|p| p.row_ns).sum();
    let batch_ticks: u64 = profile.plans.iter().map(|p| p.batch_ticks).sum();
    let rung_mean_us = |rung: &str| {
        let (n, ns) = profile
            .plans
            .iter()
            .filter(|p| p.class == rung)
            .fold((0u64, 0u64), |(n, ns), p| (n + 1, ns + p.batch_ns));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let lookups = untraced.cache_hits + untraced.cache_misses;
    let values = [
        ("serve.submit_us", profile.span("submit").mean_us()),
        ("serve.drain_ms", profile.span("drain").mean_us() / 1e3),
        (
            "serve.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                untraced.cache_hits as f64 / lookups as f64
            },
        ),
        ("serve.route_imbalance", traced.route_imbalance),
        (
            "serve.cpu_utilization",
            untraced.cpu_s / (untraced.wall_s * WORKERS as f64),
        ),
        ("core.link_us", link_us),
        ("core.interpret_us", interpret_us),
        ("core.interpret_link_ratio", interpret_us / link_us),
        ("dialogue.turn_us", profile.span("turn").mean_us()),
        ("engine.execute_us", profile.span("execute").mean_us()),
        ("engine.execute_us.select", rung_mean_us("select")),
        ("engine.execute_us.aggregate", rung_mean_us("aggregate")),
        ("engine.execute_us.join", rung_mean_us("join")),
        ("engine.execute_us.nested", rung_mean_us("nested")),
        ("engine.batch_speedup", row_ns as f64 / batch_ns as f64),
        ("engine.ns_per_tick", batch_ns as f64 / batch_ticks as f64),
        ("setup.train_s", times.train_s),
        ("setup.context_s", times.context_s),
        (
            "obs.overhead_pct",
            (untraced.throughput_rps() / traced.throughput_rps() - 1.0) * 100.0,
        ),
    ];
    let metrics = with_units(&PER_LAYER, &values);

    let mut notes = vec![format!(
        "perfbench workload={} seed={} seconds={} trace=1 workers={} round={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        WORKERS,
        opts.workload.round_size()
    )];
    for m in &metrics {
        notes.push(format!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit));
    }
    notes.extend(pipeline_shares(&profile));
    notes.extend(span_table(&profile));
    notes.extend(calibration_table(&profile));
    notes.extend(estimator_table(&profile));
    notes.push(format!(
        "serving: untraced {:.1} req/s over {} requests; traced {:.1} req/s over {}; replayed {} requests through the layers",
        untraced.throughput_rps(),
        untraced.attempted,
        traced.throughput_rps(),
        traced.attempted,
        replayed
    ));
    notes.push(request_note(&untraced, &verdict));
    notes.push(format!(
        "traced phase: attempted={} completed={} failed={}",
        traced.attempted, traced.completed, traced.failed
    ));
    notes.push(host_note(&untraced));
    notes.push(match written {
        Ok(()) => format!(
            "spans: {} traces kept of {} recorded, written to {}",
            kept,
            kept as u64 + round_sink.dropped() + request_sink.dropped(),
            trace_path.display()
        ),
        Err(e) => format!("spans: could not write {}: {e}", trace_path.display()),
    });
    Report {
        correct: correct(&[&untraced, &traced], &verdict),
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Share of standalone pipeline time — the calls `ask_bounded` makes:
/// interpret, render, explain, batch execute — spent interpreting and
/// executing.
fn pipeline_shares(profile: &Profile) -> Vec<String> {
    let ns = |name: &str| profile.span(name).total_ns as f64;
    let pipeline = ns("interpret") + ns("sqlgen") + ns("explain") + ns("execute");
    vec![format!(
        "pipeline time: interpret {:.1}%, execute {:.1}%, explain {:.1}%, sqlgen {:.1}% of {:.1} ms",
        100.0 * ns("interpret") / pipeline,
        100.0 * ns("execute") / pipeline,
        100.0 * ns("explain") / pipeline,
        100.0 * ns("sqlgen") / pipeline,
        pipeline / 1e6
    )]
}

/// Per span name: count, mean duration and total self time.
fn span_table(profile: &Profile) -> Vec<String> {
    let mut out = vec!["spans (wall time):".to_string()];
    out.push(format!(
        "  {:<16} {:>9} {:>12} {:>12}",
        "span", "count", "mean_us", "self_ms"
    ));
    for (name, t) in &profile.spans {
        out.push(format!(
            "  {:<16} {:>9} {:>12.2} {:>12.2}",
            name,
            t.count,
            t.mean_us(),
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

/// ns per logical tick by engine and rung.
fn calibration_table(profile: &Profile) -> Vec<String> {
    let mut out = vec!["engine calibration (ns per tick):".to_string()];
    out.push(format!(
        "  {:<10} {:>6} {:>12} {:>12} {:>14} {:>14}",
        "rung", "plans", "batch_ns/t", "row_ns/t", "batch_ticks", "row_ticks"
    ));
    for rung in RUNGS {
        let plans: Vec<_> = profile.plans.iter().filter(|p| p.class == rung).collect();
        let sum = |f: fn(&trace::PlanRecord) -> u64| plans.iter().map(|p| f(p)).sum::<u64>();
        let (bt, bn, rt, rn) = (
            sum(|p| p.batch_ticks),
            sum(|p| p.batch_ns),
            sum(|p| p.row_ticks),
            sum(|p| p.row_ns),
        );
        out.push(format!(
            "  {:<10} {:>6} {:>12.1} {:>12.1} {:>14} {:>14}",
            rung,
            plans.len(),
            bn as f64 / bt.max(1) as f64,
            rn as f64 / rt.max(1) as f64,
            bt,
            rt
        ));
    }
    out
}

/// Actual batch ticks over `explain().est_cost`, by plan shape, and the
/// plans the estimate misses worst.
fn estimator_table(profile: &Profile) -> Vec<String> {
    let ratio = |p: &trace::PlanRecord| p.batch_ticks as f64 / p.est_cost.max(1) as f64;
    let mut by_shape: std::collections::BTreeMap<&str, (u64, f64, f64)> = Default::default();
    for p in &profile.plans {
        let e = by_shape.entry(p.shape.as_str()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += ratio(p);
        e.2 = e.2.max(ratio(p));
    }
    let mut out = vec!["estimator (actual ticks / est_cost) by plan shape:".to_string()];
    for (shape, (n, sum, max)) in &by_shape {
        out.push(format!(
            "  {:<40} plans={:<5} mean={:>8.2} max={:>8.2}",
            shape,
            n,
            sum / *n as f64,
            max
        ));
    }
    let mut worst: Vec<_> = profile.plans.iter().collect();
    worst.sort_by(|a, b| ratio(b).total_cmp(&ratio(a)));
    out.push("worst-estimated plans:".to_string());
    for p in worst.iter().take(5) {
        out.push(format!(
            "  ratio={:.1} est={} ticks={} batch_ms={:.2} row_ms={:.2} {}",
            ratio(p),
            p.est_cost,
            p.batch_ticks,
            p.batch_ns as f64 / 1e6,
            p.row_ns as f64 / 1e6,
            p.sql
        ));
    }
    out
}
