//! Smoke tests for the `tracetool` binary's command-line surface:
//! bad invocations exit non-zero with a usage string naming every
//! subcommand, malformed corpora fail fast with a one-line error, and
//! the new `timeline`/`health` subcommands render deterministically
//! from a real export.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

use nlidb_obs::slo::{HealthEvent, HealthEventKind, HEALTH_TRACE_BASE};
use nlidb_obs::{Clock, ManualClock, TraceBuilder, TraceSink};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("spawn tracetool")
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tracetool-smoke-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp corpus");
    path
}

/// A tiny but real corpus: two request traces (one shed) and one
/// health event, exported through the same sink the server uses.
fn corpus() -> String {
    let sink = TraceSink::new(8);
    for (id, outcome, tick) in [(1u64, "answered", 2u64), (2, "shed", 9)] {
        let clock = Arc::new(ManualClock::starting_at(tick));
        let mut tb = TraceBuilder::new(id, clock as Arc<dyn Clock>);
        let root = tb.open("request");
        tb.annotate(root, "outcome", outcome);
        let inner = tb.open("admission");
        tb.close(inner);
        tb.close(root);
        sink.push(tb.finish());
    }
    let event = HealthEvent {
        seq: 0,
        objective: "availability".to_string(),
        kind: HealthEventKind::Fired,
        window: 1,
        tick: 9,
        short_burn_milli: 2500,
        long_burn_milli: 2100,
        short_counts: (1, 2),
        long_counts: (1, 2),
    };
    sink.push(event.to_trace(HEALTH_TRACE_BASE));
    sink.export_jsonl()
}

fn assert_usage(out: &Output) {
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tracetool"), "got: {stderr}");
    for sub in [
        "profile", "critical", "tail", "chrome", "folded", "diff", "metrics", "timeline", "health",
    ] {
        assert!(stderr.contains(sub), "usage must list {sub}; got: {stderr}");
    }
}

#[test]
fn no_arguments_prints_usage_and_exits_nonzero() {
    assert_usage(&tracetool(&[]));
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_nonzero() {
    assert_usage(&tracetool(&["frobnicate", "x.jsonl"]));
}

#[test]
fn wrong_arity_prints_usage() {
    assert_usage(&tracetool(&["profile"]));
    assert_usage(&tracetool(&["diff", "only-one.jsonl"]));
}

#[test]
fn unreadable_path_fails_with_one_line_error() {
    let out = tracetool(&["profile", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "got: {stderr}");
}

#[test]
fn malformed_corpus_fails_with_one_line_error() {
    let path = temp_file("malformed.jsonl", "this is not a trace export\n");
    let out = tracetool(&["timeline", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is not a trace export"), "got: {stderr}");
}

#[test]
fn timeline_renders_window_matrix_deterministically() {
    let path = temp_file("timeline.jsonl", &corpus());
    let out = tracetool(&["timeline", path.to_str().unwrap(), "--width", "4"]);
    let again = tracetool(&["timeline", path.to_str().unwrap(), "--width", "4"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, String::from_utf8_lossy(&again.stdout));
    assert!(
        stdout.starts_with("windows width=4 from=w0 to=w2\n"),
        "got: {stdout}"
    );
    assert!(stdout.contains("counter answered | 1 0 0 | total=1 evicted=0"));
    assert!(stdout.contains("counter shed | 0 0 1 | total=1 evicted=0"));
    assert!(stdout.contains("histogram sojourn.count | 1 0 1 | total=2 evicted=0"));
    // The health trace must not leak into the request matrix.
    assert!(!stdout.contains("health"), "got: {stdout}");

    let bad = tracetool(&["timeline", "x.jsonl", "--width", "0"]);
    assert_usage(&bad);
}

#[test]
fn timeline_ring_spans_only_the_windows_it_prints() {
    // One request opened at tick 4·10¹²: with one-tick windows, a ring
    // reaching back to w0 would need 4·10¹² windows.
    let sink = TraceSink::new(2);
    let clock = Arc::new(ManualClock::starting_at(4_000_000_000_000));
    let mut tb = TraceBuilder::new(1, clock.clone() as Arc<dyn Clock>);
    let root = tb.open("request");
    tb.annotate(root, "outcome", "answered");
    clock.advance(5);
    tb.close(root);
    sink.push(tb.finish());
    let path = temp_file("late.jsonl", &sink.export_jsonl());
    let out = tracetool(&["timeline", path.to_str().unwrap(), "--width", "1"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "windows width=1 from=w4000000000000 to=w4000000000000\n\
         counter answered | 1 | total=1 evicted=0\n\
         histogram sojourn.count | 1 | total=1 evicted=0\n\
         histogram sojourn.p99 | 7\n"
    );
}

#[test]
fn health_renders_event_log_from_corpus() {
    let path = temp_file("health.jsonl", &corpus());
    let out = tracetool(&["health", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "health seq=0 objective=availability event=fired window=w1 tick=9 \
         short_burn=2500 (1/2) long_burn=2100 (1/2)\n"
    );
}

#[test]
fn health_on_eventless_corpus_says_so() {
    let sink = TraceSink::new(2);
    let clock = Arc::new(ManualClock::new());
    let mut tb = TraceBuilder::new(1, clock as Arc<dyn Clock>);
    let root = tb.open("request");
    tb.close(root);
    sink.push(tb.finish());
    let path = temp_file("no-health.jsonl", &sink.export_jsonl());
    let out = tracetool(&["health", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "health: corpus has no health events\n"
    );
}
