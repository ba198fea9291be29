//! Deterministic SLO tracking: error-budget burn rates over windowed
//! series, with replayable fire/clear health events.
//!
//! The model is the multi-window burn-rate discipline of production
//! SRE practice, transplanted onto logical ticks so that alerting is
//! as reproducible as everything else in this workspace:
//!
//! * An objective is a target *good share* in milli-units (e.g. 990 =
//!   99.0% of requests good). Its error budget is `1000 - target`.
//! * The **burn rate** over a span of windows is the observed error
//!   share divided by the budget, reported ×1000 in integer milli
//!   math: `burn_milli = ⌊bad·1000 / total⌋ · 1000 / (1000 − target)`
//!   ([`burn_milli`], the one copy of that formula).
//!   Burn 1000 means the budget is being spent exactly at the
//!   sustainable rate; 2000 means twice as fast.
//! * An objective **fires** when the burn over *both* a short and a
//!   long window span sits at or above the policy threshold — the
//!   short span makes the signal responsive, the long span makes it
//!   ignore single-window blips. It **clears** when the short-span
//!   burn falls back below the threshold (the long span is the
//!   memory; requiring it to drain before clearing would hold alerts
//!   long after recovery).
//! * Evaluation happens at explicit ticks the caller chooses (the
//!   serving layer evaluates at each drain), so the events are a
//!   pure function of the fed stream — run twice, byte-identical.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::clock::ManualClock;
use crate::span::{Trace, TraceBuilder};
use crate::timeseries::WindowedCounter;

/// Trace ids at and above this base are health events, not requests
/// (serving request ids are small sequential integers; this keeps the
/// two id spaces disjoint in a shared sink).
pub const HEALTH_TRACE_BASE: u64 = 1 << 48;

/// The burn rate (milli) of `bad` observations out of `total` against
/// an error budget of `budget_milli` (≥ 1): the error share in
/// milli-units, ×1000, over the budget. 0 when `total` is 0 — no
/// traffic burns nothing.
pub fn burn_milli(bad: u64, total: u64, budget_milli: u64) -> u64 {
    bad.saturating_mul(1000)
        .checked_div(total)
        .map_or(0, |share| share.saturating_mul(1000) / budget_milli)
}

/// One service-level objective: a good-share target plus the window
/// spans and burn threshold that decide when it fires. What counts as
/// good or bad is the feeder's call: the engine only counts what it is
/// handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// Objective name (unique within an engine; used in renderings
    /// and metrics keys).
    pub objective: String,
    /// Target good share in milli-units, clamped to ≤ 999 so the
    /// error budget `1000 - target` is never zero.
    pub target_milli: u64,
    /// Short span length in windows (responsiveness), ≥ 1.
    pub short_windows: u64,
    /// Long span length in windows (memory), ≥ `short_windows`.
    pub long_windows: u64,
    /// Fire when both spans' burn (milli) reaches this value; 1000 =
    /// burning the budget exactly at the sustainable rate.
    pub fire_burn_milli: u64,
}

impl SloPolicy {
    /// The error budget in milli-units: `1000 - target` (≥ 1).
    pub fn budget_milli(&self) -> u64 {
        1000 - self.target_milli.min(999)
    }
}

/// Did the objective start or stop violating its burn threshold?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEventKind {
    /// Burn crossed the threshold on both spans.
    Fired,
    /// Short-span burn fell back below the threshold.
    Cleared,
}

impl HealthEventKind {
    /// Canonical lowercase label (`fired` / `cleared`).
    pub fn label(&self) -> &'static str {
        match self {
            HealthEventKind::Fired => "fired",
            HealthEventKind::Cleared => "cleared",
        }
    }
}

/// One fire/clear transition, with the window evidence that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// Position among the engine's events (0-based, dense).
    pub seq: u64,
    /// Objective name from the policy.
    pub objective: String,
    /// Fired or cleared.
    pub kind: HealthEventKind,
    /// Window index the evaluation tick fell into.
    pub window: u64,
    /// Tick the engine was evaluated at.
    pub tick: u64,
    /// Burn (milli) over the short span at evaluation.
    pub short_burn_milli: u64,
    /// Burn (milli) over the long span at evaluation.
    pub long_burn_milli: u64,
    /// Bad / total counts over the short span.
    pub short_counts: (u64, u64),
    /// Bad / total counts over the long span.
    pub long_counts: (u64, u64),
}

impl HealthEvent {
    /// Canonical one-line rendering: one line of the serving health
    /// hub's event log, and what `tracetool health` rebuilds from the
    /// event's trace.
    pub fn render(&self) -> String {
        format!(
            "health seq={} objective={} event={} window=w{} tick={} short_burn={} ({}/{}) long_burn={} ({}/{})",
            self.seq,
            self.objective,
            self.kind.label(),
            self.window,
            self.tick,
            self.short_burn_milli,
            self.short_counts.0,
            self.short_counts.1,
            self.long_burn_milli,
            self.long_counts.0,
            self.long_counts.1,
        )
    }

    /// Build a single-span trace carrying this event's evidence, for
    /// pushing into a [`TraceSink`](crate::TraceSink) alongside
    /// request traces. `trace_id` should come from
    /// [`HEALTH_TRACE_BASE`] plus an emission counter so health ids
    /// never collide with request ids.
    pub fn to_trace(&self, trace_id: u64) -> Trace {
        let clock = Arc::new(ManualClock::starting_at(self.tick));
        let mut tb = TraceBuilder::new(trace_id, clock);
        let root = tb.open("health");
        tb.annotate(root, "objective", &self.objective);
        tb.annotate(root, "event", self.kind.label());
        tb.annotate(root, "window", self.window.to_string());
        tb.annotate(root, "seq", self.seq.to_string());
        tb.annotate(root, "short_burn_milli", self.short_burn_milli.to_string());
        tb.annotate(root, "long_burn_milli", self.long_burn_milli.to_string());
        tb.annotate(root, "short_bad", self.short_counts.0.to_string());
        tb.annotate(root, "short_total", self.short_counts.1.to_string());
        tb.annotate(root, "long_bad", self.long_counts.0.to_string());
        tb.annotate(root, "long_total", self.long_counts.1.to_string());
        tb.close(root);
        tb.finish()
    }

    /// The event a [`HealthEvent::to_trace`] trace carries, read back
    /// from its `health` root span; `None` when the trace has no such
    /// root or an attribute is missing or malformed.
    pub fn from_trace(trace: &Trace) -> Option<HealthEvent> {
        let root = trace.root().filter(|r| r.name == "health")?;
        let num = |key: &str| root.attr(key)?.parse::<u64>().ok();
        Some(HealthEvent {
            seq: num("seq")?,
            objective: root.attr("objective")?.to_string(),
            kind: match root.attr("event")? {
                "fired" => HealthEventKind::Fired,
                "cleared" => HealthEventKind::Cleared,
                _ => return None,
            },
            window: num("window")?,
            tick: root.tick_open,
            short_burn_milli: num("short_burn_milli")?,
            long_burn_milli: num("long_burn_milli")?,
            short_counts: (num("short_bad")?, num("short_total")?),
            long_counts: (num("long_bad")?, num("long_total")?),
        })
    }
}

/// Per-objective feed state: good/bad windowed counters plus the
/// current firing latch.
#[derive(Debug, Clone)]
struct ObjectiveState {
    policy: SloPolicy,
    good: WindowedCounter,
    bad: WindowedCounter,
    firing: bool,
}

/// Burn evidence over one span of windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BurnSample {
    /// Burn rate ×1000 (0 when the span saw no traffic).
    burn_milli: u64,
    /// Bad observations in the span.
    bad: u64,
    /// Total observations in the span.
    total: u64,
}

/// A deterministic multi-objective SLO engine over windowed good/bad
/// counters. Feed with [`SloEngine::record`], evaluate at explicit
/// ticks with [`SloEngine::evaluate`]; the events it returns are pure
/// functions of those calls. The engine keeps no event log, only the
/// next event's sequence number: the caller logs what it is handed.
#[derive(Debug, Clone)]
pub struct SloEngine {
    width: u64,
    capacity: usize,
    objectives: BTreeMap<String, ObjectiveState>,
    /// `seq` of the next event.
    next_seq: u64,
}

impl SloEngine {
    /// An engine whose objectives bucket observations into
    /// `width`-tick windows, retaining `capacity` windows per series.
    /// Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> SloEngine {
        assert!(width > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        SloEngine {
            width,
            capacity,
            objectives: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Register an objective (replacing any previous one of the same
    /// name). Normalizes `short_windows`/`long_windows` to ≥ 1 and
    /// long ≥ short; panics if `long_windows` exceeds the ring
    /// capacity (the span would silently read evicted windows).
    pub fn add_objective(&mut self, policy: SloPolicy) {
        let mut policy = policy;
        policy.short_windows = policy.short_windows.max(1);
        policy.long_windows = policy.long_windows.max(policy.short_windows);
        assert!(
            policy.long_windows <= self.capacity as u64,
            "long span exceeds ring capacity"
        );
        let state = ObjectiveState {
            good: WindowedCounter::new(self.width, self.capacity),
            bad: WindowedCounter::new(self.width, self.capacity),
            firing: false,
            policy,
        };
        self.objectives
            .insert(state.policy.objective.clone(), state);
    }

    /// Record `good`/`bad` observations for `objective` at `tick`.
    /// Unknown objectives are ignored (the feeder may classify more
    /// outcomes than the engine tracks).
    pub fn record(&mut self, objective: &str, tick: u64, good: u64, bad: u64) {
        if let Some(state) = self.objectives.get_mut(objective) {
            if good > 0 {
                state.good.record(tick, good);
            }
            if bad > 0 {
                state.bad.record(tick, bad);
            }
        }
    }

    fn burn_of(state: &ObjectiveState, span: u64) -> BurnSample {
        let bad = state.bad.sum_last(span);
        let total = state.good.sum_last(span).saturating_add(bad);
        BurnSample {
            burn_milli: burn_milli(bad, total, state.policy.budget_milli()),
            bad,
            total,
        }
    }

    /// The maximum short-span burn across all objectives (0 with no
    /// objectives) — the overload controller's early-warning signal.
    pub fn max_short_burn_milli(&self) -> u64 {
        self.objectives
            .values()
            .map(|s| SloEngine::burn_of(s, s.policy.short_windows).burn_milli)
            .max()
            .unwrap_or(0)
    }

    /// Whether `objective` is currently firing.
    pub fn is_firing(&self, objective: &str) -> bool {
        self.objectives.get(objective).is_some_and(|s| s.firing)
    }

    /// Align every series to the window containing `tick`, then apply
    /// the fire/clear rules per objective (in name order). Returns the
    /// events emitted by this evaluation, numbered on from the last.
    pub fn evaluate(&mut self, tick: u64) -> Vec<HealthEvent> {
        let window = tick / self.width;
        let mut emitted = Vec::new();
        for state in self.objectives.values_mut() {
            // Roll both series forward so quiet windows read as zero
            // traffic rather than staying pinned at the last burst.
            state.good.advance_to(window);
            state.bad.advance_to(window);
            let short = SloEngine::burn_of(state, state.policy.short_windows);
            let long = SloEngine::burn_of(state, state.policy.long_windows);
            let threshold = state.policy.fire_burn_milli;
            let next = if state.firing {
                short.burn_milli >= threshold
            } else {
                short.burn_milli >= threshold && long.burn_milli >= threshold
            };
            if next != state.firing {
                state.firing = next;
                let event = HealthEvent {
                    seq: self.next_seq,
                    objective: state.policy.objective.clone(),
                    kind: if next {
                        HealthEventKind::Fired
                    } else {
                        HealthEventKind::Cleared
                    },
                    window,
                    tick,
                    short_burn_milli: short.burn_milli,
                    long_burn_milli: long.burn_milli,
                    short_counts: (short.bad, short.total),
                    long_counts: (long.bad, long.total),
                };
                self.next_seq += 1;
                emitted.push(event);
            }
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn availability(target: u64, short: u64, long: u64, fire: u64) -> SloPolicy {
        SloPolicy {
            objective: "availability".to_string(),
            target_milli: target,
            short_windows: short,
            long_windows: long,
            fire_burn_milli: fire,
        }
    }

    #[test]
    fn budget_never_zero() {
        let p = availability(1000, 1, 1, 1000);
        assert_eq!(p.budget_milli(), 1);
        assert_eq!(availability(990, 1, 1, 1000).budget_milli(), 10);
    }

    #[test]
    fn burn_math_in_milli() {
        let mut e = SloEngine::new(4, 16);
        e.add_objective(availability(990, 2, 8, 2000));
        // 90 good, 10 bad in window 0: error = 100‰, budget = 10‰,
        // burn = 10× = 10000 milli.
        e.record("availability", 0, 90, 10);
        let b = SloEngine::burn_of(&e.objectives["availability"], 2);
        assert_eq!(
            b,
            BurnSample {
                burn_milli: 10_000,
                bad: 10,
                total: 100
            }
        );
        assert_eq!(e.max_short_burn_milli(), 10_000);
        // No traffic → burn 0, not a division by zero.
        e.add_objective(SloPolicy {
            objective: "quiet".to_string(),
            ..availability(990, 2, 8, 2000)
        });
        let quiet = SloEngine::burn_of(&e.objectives["quiet"], 2);
        assert_eq!((quiet.burn_milli, quiet.total), (0, 0));
        let empty = SloEngine::new(4, 16);
        assert_eq!(empty.max_short_burn_milli(), 0);
    }

    #[test]
    fn fires_on_both_spans_and_clears_on_short() {
        let mut e = SloEngine::new(1, 16);
        e.add_objective(availability(990, 2, 4, 2000));
        // Window 0: all good. Long and short burns are 0.
        e.record("availability", 0, 50, 0);
        assert!(e.evaluate(0).is_empty());
        // Window 1: heavy errors → both spans hot → fires.
        e.record("availability", 1, 10, 40);
        let events = e.evaluate(1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, HealthEventKind::Fired);
        assert!(e.is_firing("availability"));
        // Re-evaluating while still hot emits nothing (latched).
        assert!(e.evaluate(1).is_empty());
        // Two quiet windows later the short span drains → clears,
        // even though the long span still remembers the burst.
        e.record("availability", 2, 50, 0);
        e.record("availability", 3, 50, 0);
        let events = e.evaluate(3);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, HealthEventKind::Cleared);
        assert!(!e.is_firing("availability"));
        assert_eq!(events[0].seq, 1, "numbered on from the fired event");
    }

    #[test]
    fn single_window_blip_does_not_fire() {
        let mut e = SloEngine::new(1, 16);
        e.add_objective(availability(990, 1, 8, 2000));
        // Seven good windows, then one bad one: short burn is hot but
        // the long span dilutes it below threshold.
        for w in 0..7 {
            e.record("availability", w, 100, 0);
            assert!(e.evaluate(w).is_empty());
        }
        e.record("availability", 7, 99, 1);
        // error over 8 windows = 1/800 → 1‰ → burn 100 < 2000.
        assert!(e.evaluate(7).is_empty());
        assert!(!e.is_firing("availability"));
    }

    #[test]
    fn quiet_windows_decay_the_burn() {
        let mut e = SloEngine::new(1, 16);
        e.add_objective(availability(990, 2, 2, 1000));
        e.record("availability", 0, 0, 10);
        let events = e.evaluate(0);
        assert_eq!(events.len(), 1);
        // Nothing recorded afterwards: evaluating three windows later
        // must advance the rings and clear.
        let events = e.evaluate(3);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, HealthEventKind::Cleared);
        assert_eq!(events[0].short_counts, (0, 0));
    }

    #[test]
    fn event_render_and_trace_are_canonical() {
        let event = HealthEvent {
            seq: 3,
            objective: "latency".to_string(),
            kind: HealthEventKind::Fired,
            window: 12,
            tick: 99,
            short_burn_milli: 2500,
            long_burn_milli: 2100,
            short_counts: (5, 40),
            long_counts: (11, 160),
        };
        assert_eq!(
            event.render(),
            "health seq=3 objective=latency event=fired window=w12 tick=99 \
             short_burn=2500 (5/40) long_burn=2100 (11/160)"
        );
        let trace = event.to_trace(HEALTH_TRACE_BASE + 3);
        assert_eq!(trace.id, HEALTH_TRACE_BASE + 3);
        let root = trace.root().unwrap();
        assert_eq!(root.name, "health");
        assert_eq!(root.attr("objective"), Some("latency"));
        assert_eq!(root.attr("event"), Some("fired"));
        assert_eq!(root.attr("short_burn_milli"), Some("2500"));
        assert_eq!(root.tick_open, 99);
        // Rendering twice is byte-identical.
        assert_eq!(
            trace.to_json(),
            event.to_trace(HEALTH_TRACE_BASE + 3).to_json()
        );
        // `from_trace` inverts `to_trace`, for a fired event and a
        // cleared one; a request trace carries no event.
        assert_eq!(HealthEvent::from_trace(&trace), Some(event.clone()));
        let cleared = HealthEvent {
            seq: 4,
            kind: HealthEventKind::Cleared,
            tick: 104,
            short_burn_milli: 0,
            short_counts: (0, 0),
            ..event
        };
        let trace = cleared.to_trace(HEALTH_TRACE_BASE + 4);
        assert_eq!(HealthEvent::from_trace(&trace), Some(cleared));
        let mut tb = TraceBuilder::new(1, Arc::new(ManualClock::new()));
        let root = tb.open("request");
        tb.close(root);
        assert_eq!(HealthEvent::from_trace(&tb.finish()), None);
    }

    #[test]
    fn evaluation_replays_byte_identically() {
        let run = || {
            let mut e = SloEngine::new(2, 16);
            e.add_objective(availability(990, 2, 6, 2000));
            e.add_objective(SloPolicy {
                objective: "latency".to_string(),
                target_milli: 950,
                short_windows: 2,
                long_windows: 6,
                fire_burn_milli: 2000,
            });
            let mut log = String::new();
            for tick in 0..40u64 {
                let bad = u64::from(tick % 7 == 0);
                e.record("availability", tick, 3, bad);
                e.record("latency", tick, 2, bad * 2);
                if tick % 4 == 3 {
                    for event in e.evaluate(tick) {
                        log.push_str(&event.render());
                        log.push('\n');
                    }
                }
            }
            log
        };
        let a = run();
        assert!(!a.is_empty(), "the stream fires at least once");
        assert_eq!(a, run());
    }
}
