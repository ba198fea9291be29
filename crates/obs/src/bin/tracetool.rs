//! Analyze exported trace corpora from the command line.
//!
//! ```text
//! tracetool profile  <trace.jsonl>            # per-stage self/inherited/critical-path profile
//! tracetool critical <trace.jsonl>            # the critical path of every trace
//! tracetool tail     <trace.jsonl> [--p N]    # tail attribution at the Nth percentile (default 95)
//! tracetool chrome   <trace.jsonl>            # Chrome Trace Event JSON (load in about://tracing)
//! tracetool folded   <trace.jsonl>            # folded stacks (pipe to a flamegraph renderer)
//! tracetool diff     <base.jsonl> <other.jsonl>  # per-stage overhead of other over base
//! tracetool metrics  <trace.jsonl>            # canonical span.* histogram export
//! tracetool timeline <trace.jsonl> [--width W]   # windowed request matrix, first to last window a request opened in
//! tracetool health   <trace.jsonl>            # SLO health-event log carried in the corpus
//! ```
//!
//! Input files are the byte-reproducible JSONL written by
//! `TraceSink::export_jsonl` (see `examples/profiling.rs` for the
//! producing side). Every output is deterministic: same corpus in,
//! same bytes out. Bad arguments and malformed input fail fast with
//! one-line errors, like the `experiments` binary.

use std::collections::BTreeSet;
use std::env;
use std::process::exit;

use nlidb_obs::profile::self_costs;
use nlidb_obs::{
    chrome_trace_json, critical_path, critical_path_cost, folded_stacks, parse_jsonl,
    tail_attribution, HealthEvent, MetricsRegistry, Profile, ProfileDiff, Trace, WindowedScope,
};

fn usage() -> ! {
    eprintln!(
        "usage: tracetool <profile|critical|tail|chrome|folded|metrics|timeline|health> <trace.jsonl>\n\
         \x20      tracetool tail <trace.jsonl> [--p <percentile>]\n\
         \x20      tracetool timeline <trace.jsonl> [--width <ticks>]\n\
         \x20      tracetool diff <base.jsonl> <other.jsonl>\n\
         subcommands: profile critical tail chrome folded diff metrics timeline health"
    );
    exit(2);
}

fn load(path: &str) -> Vec<Trace> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("tracetool: cannot read {path}: {e}");
            exit(2);
        }
    };
    match parse_jsonl(&text) {
        Ok(traces) => traces,
        Err(e) => {
            eprintln!("tracetool: {path} is not a trace export: {e}");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match (command.as_str(), &args[1..]) {
        ("profile", [path]) => {
            print!("{}", Profile::from_traces(&load(path)).export_text());
        }
        ("critical", [path]) => {
            for trace in load(path) {
                let selfs = self_costs(&trace);
                let chain: Vec<String> = critical_path(&trace)
                    .iter()
                    .map(|&i| format!("{}[{}]", trace.spans[i].name, selfs[i]))
                    .collect();
                println!(
                    "trace {} cost={} critical={} path={}",
                    trace.id,
                    trace.root().map(|r| r.cost()).unwrap_or(0),
                    critical_path_cost(&trace),
                    chain.join(";")
                );
            }
        }
        ("tail", [path, rest @ ..]) => {
            let percentile = match rest {
                [] => 95.0,
                [flag, value] if flag == "--p" => match value.parse::<f64>() {
                    Ok(p) if (0.0..=100.0).contains(&p) => p,
                    _ => {
                        eprintln!("--p wants a percentile in [0, 100], got {value:?}");
                        usage();
                    }
                },
                _ => usage(),
            };
            match tail_attribution(&load(path), percentile) {
                Some(tail) => print!("{}", tail.export_text()),
                None => println!("tail: corpus has no rooted traces"),
            }
        }
        ("chrome", [path]) => println!("{}", chrome_trace_json(&load(path))),
        ("folded", [path]) => print!("{}", folded_stacks(&load(path))),
        ("diff", [base, other]) => {
            let base = Profile::from_traces(&load(base));
            let other = Profile::from_traces(&load(other));
            print!("{}", ProfileDiff::between(&base, &other).export_text());
        }
        ("metrics", [path]) => {
            let registry = MetricsRegistry::new();
            for trace in load(path) {
                registry.observe_trace(&trace);
            }
            print!("{}", registry.report().export_text());
        }
        ("timeline", [path, rest @ ..]) => {
            let width = match rest {
                [] => 8,
                [flag, value] if flag == "--width" => match value.parse::<u64>() {
                    Ok(w) if w > 0 => w,
                    _ => {
                        eprintln!("--width wants a positive tick count, got {value:?}");
                        usage();
                    }
                },
                _ => usage(),
            };
            print!("{}", timeline(&load(path), width));
        }
        ("health", [path]) => {
            let lines = health_log(path, &load(path));
            if lines.is_empty() {
                println!("health: corpus has no health events");
            } else {
                print!("{lines}");
            }
        }
        _ => usage(),
    }
}

/// Re-bucket a request corpus into a windowed matrix over the coarse
/// tick axis: one counter series per root outcome, plus a sojourn
/// histogram (root `tick_close - tick_open`), each recorded at the
/// root's `tick_open`. The matrix runs from the first window a request
/// opened in to the last, so a corpus whose first request opens late
/// starts its matrix there, not at w0. Health-event traces are
/// excluded — `tracetool health` renders those.
fn timeline(traces: &[Trace], width: u64) -> String {
    let roots: Vec<_> = traces
        .iter()
        .filter_map(|t| t.root())
        .filter(|r| r.name != "health")
        .collect();
    let windows = roots.iter().map(|r| r.tick_open / width);
    let first = windows.clone().min().unwrap_or(0);
    let last = windows.max().unwrap_or(0);
    // The ring holds exactly the windows the matrix prints.
    let mut scope = WindowedScope::new(width, (last - first) as usize + 1);
    let mut outcomes = BTreeSet::new();
    for root in &roots {
        let outcome = root.attr("outcome").unwrap_or("unknown");
        outcomes.insert(outcome);
        scope.counter(outcome).record(root.tick_open, 1);
        scope.histogram("sojourn").record(
            root.tick_open,
            root.tick_close.saturating_sub(root.tick_open),
        );
    }
    // A series' ring reaches back `capacity` windows from its newest
    // one; carry every outcome to the last window (a zero record) so
    // none reaches back past the first.
    for outcome in outcomes {
        scope.counter(outcome).record(last * width, 0);
    }
    scope.render_text()
}

/// The canonical health-event log carried in the corpus: one
/// [`HealthEvent::render`] line per `health` root, in trace-id order
/// (the sink exports id-sorted, and health ids are emission-ordered).
/// A `health` root that does not read back as an event fails like any
/// malformed corpus.
fn health_log(path: &str, traces: &[Trace]) -> String {
    let mut out = String::new();
    for trace in traces {
        if trace.root().is_none_or(|r| r.name != "health") {
            continue;
        }
        let Some(event) = HealthEvent::from_trace(trace) else {
            eprintln!(
                "tracetool: {path} is not a trace export: trace {} has a malformed health root",
                trace.id
            );
            exit(2);
        };
        out.push_str(&event.render());
        out.push('\n');
    }
    out
}
