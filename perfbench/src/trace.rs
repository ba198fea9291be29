//! The traced run's span recording and analysis.
//!
//! Spans are recorded with `obs::TraceBuilder` over [`WallClock`], so a
//! span's `tick` pair is wall nanoseconds since the run started; the
//! library's own spans keep their logical clocks. Each request replayed
//! through the layers' public calls becomes one trace: a `request` root
//! with one child span per call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlidb_core::interpretation::InterpreterKind;
use nlidb_core::linking::link_mentions;
use nlidb_dialogue::{ConversationSession, ManagerKind};
use nlidb_engine::{execute_rowwise_with_stats, execute_with_stats, explain};
use nlidb_nlp::tokenize;
use nlidb_obs::{Clock, Trace, TraceBuilder};
use nlidb_sqlir::classify;

use crate::workload::{Request, Trained};

/// Wall-clock time source for spans: nanoseconds since construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

/// A clock reading 0 now.
impl Default for WallClock {
    fn default() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Count, total duration and total self time of one span name, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans seen.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time direct children cover.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in µs (0 when no span was seen).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// One executed plan, as the replay's `explain` and `execute` spans
/// recorded it.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// `Query::shape` of the plan.
    pub shape: String,
    /// Rung of the plan itself.
    pub class: &'static str,
    /// `explain().est_cost`.
    pub est_cost: u64,
    /// Batch engine: ticks charged and wall ns.
    pub batch_ticks: u64,
    /// See `batch_ticks`.
    pub batch_ns: u64,
    /// Row engine: ticks charged and wall ns.
    pub row_ticks: u64,
    /// See `row_ticks`.
    pub row_ns: u64,
    /// The plan's SQL.
    pub sql: String,
}

/// Aggregates over every recorded trace.
#[derive(Debug, Default)]
pub struct Profile {
    /// Totals per span name.
    pub spans: BTreeMap<String, SpanTotals>,
    /// Every executed plan of the replay.
    pub plans: Vec<PlanRecord>,
}

impl Profile {
    /// Fold one finished trace in.
    pub fn ingest(&mut self, trace: &Trace) {
        let dur: Vec<u64> = trace
            .spans
            .iter()
            .map(|s| s.tick_close.saturating_sub(s.tick_open))
            .collect();
        let mut own = dur.clone();
        for s in &trace.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.tick_close.saturating_sub(s.tick_open));
            }
        }
        for (i, s) in trace.spans.iter().enumerate() {
            let t = self.spans.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur[i];
            t.self_ns += own[i];
        }
        let span = |name: &str| trace.spans.iter().find(|s| s.name == name);
        if let (Some(ex), Some(batch), Some(row)) =
            (span("explain"), span("execute"), span("execute_rowwise"))
        {
            let num = |s: &nlidb_obs::Span, k: &str| -> u64 {
                s.attr(k).and_then(|v| v.parse().ok()).unwrap_or(0)
            };
            self.plans.push(PlanRecord {
                shape: ex.attr("shape").unwrap_or("").to_string(),
                class: class_label(batch.attr("class").unwrap_or("")),
                est_cost: num(ex, "est_cost"),
                batch_ticks: num(batch, "ticks"),
                batch_ns: batch.tick_close - batch.tick_open,
                row_ticks: num(row, "ticks"),
                row_ns: row.tick_close - row.tick_open,
                sql: span("sqlgen")
                    .and_then(|s| s.attr("sql"))
                    .unwrap_or("")
                    .to_string(),
            });
        }
    }

    /// Totals of one span name (zero when never seen).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// The static label for a rung label read back from a span.
fn class_label(label: &str) -> &'static str {
    RUNGS
        .iter()
        .copied()
        .find(|r| *r == label)
        .unwrap_or("other")
}

/// Rung labels, in ladder order.
pub const RUNGS: [&str; 4] = ["select", "aggregate", "join", "nested"];

/// Replay `requests` through the layers' public calls, one trace per
/// request, until `time` runs out or `max_requests` are replayed.
/// Returns the number replayed.
pub fn replay_layers(
    trained: &Trained,
    requests: &mut dyn Iterator<Item = Request>,
    time: Duration,
    max_requests: u64,
    clock: &Arc<WallClock>,
    first_id: u64,
    record: &mut dyn FnMut(Trace),
) -> u64 {
    let pipeline = &trained.pipeline;
    let (db, ctx) = (pipeline.database(), pipeline.context());
    let mut sessions: BTreeMap<u64, ConversationSession<'_>> = BTreeMap::new();
    let start = Instant::now();
    let mut replayed = 0u64;
    while start.elapsed() < time && replayed < max_requests {
        let Some(request) = requests.next() else {
            break;
        };
        let mut tb = TraceBuilder::new(first_id + replayed, Arc::clone(clock) as _);
        let root = tb.open("request");
        match &request {
            Request::Single(q) => {
                tb.annotate(root, "kind", "single");
                let s = tb.open("tokenize");
                let tokens = tokenize(&q.text);
                tb.close(s);
                let s = tb.open("link");
                black_box(link_mentions(&tokens, ctx));
                tb.close(s);
                let s = tb.open("interpret");
                let best = pipeline
                    .interpreter(InterpreterKind::Hybrid)
                    .best(&q.text, ctx);
                tb.close(s);
                if let Some(interp) = best {
                    let s = tb.open("sqlgen");
                    let sql = interp.sql.to_string();
                    tb.close(s);
                    tb.annotate(s, "sql", sql);
                    let s = tb.open("explain");
                    let plan = explain(db, &interp.sql);
                    tb.close(s);
                    tb.annotate(s, "shape", plan.shape.as_str());
                    tb.annotate(s, "est_cost", plan.est_cost.to_string());
                    let class = classify(&interp.sql).label();
                    for (name, rowwise) in [("execute", false), ("execute_rowwise", true)] {
                        let s = tb.open(name);
                        let run = if rowwise {
                            execute_rowwise_with_stats(db, &interp.sql)
                        } else {
                            execute_with_stats(db, &interp.sql)
                        };
                        tb.close(s);
                        tb.annotate(s, "class", class);
                        if let Ok((rows, stats)) = black_box(run) {
                            tb.annotate(s, "rows", rows.rows.len().to_string());
                            tb.annotate(s, "ticks", stats.ticks.to_string());
                        }
                    }
                }
            }
            Request::Turn { session, utterance } => {
                tb.annotate(root, "kind", "turn");
                let conversation = sessions
                    .entry(*session)
                    .or_insert_with(|| ConversationSession::new(db, ctx, ManagerKind::Agent));
                let s = tb.open("turn");
                black_box(conversation.turn(utterance));
                tb.close(s);
            }
        }
        tb.close(root);
        record(tb.finish());
        replayed += 1;
    }
    replayed
}
