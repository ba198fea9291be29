#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nlidb-obs — deterministic tracing and metrics
//!
//! The survey's qualitative claims are about *why* an interpretation
//! succeeded or failed: entity-based readings are interpretable and
//! precise, learned ones are opaque but paraphrase-robust, and
//! comparative evaluations (Affolter et al.) classify systems by the
//! pipeline stage each test question dies in. Aggregate counters cannot
//! answer that question; per-query traces can. This crate is the
//! observability substrate the rest of the workspace records that
//! evidence into — built so that observing a run never makes it less
//! reproducible:
//!
//! * [`clock`] — injectable logical time. The [`Clock`] trait and
//!   [`ManualClock`] live here (the serving crate re-exports them);
//!   no wall-clock exists anywhere in this crate.
//! * [`span`] — a [`TraceBuilder`] records a tree of named spans. Every
//!   open/close event is stamped with a coarse tick read from the
//!   injected clock *and* a per-trace monotonic sequence number (the
//!   trace's own logical tick: one per recorded event). Span cost is
//!   measured in those trace ticks, so it is bit-identical run over
//!   run — never a duration sampled from a real timer.
//! * [`metrics`] — a [`MetricsRegistry`] of named [`Counter`]s and
//!   [`Histogram`]s over logical values, with *exact* percentile
//!   queries (one bucket per value up to a cap, saturating above it),
//!   plus the bounded-memory [`SketchHistogram`] (65 fixed log₂
//!   buckets and a count, mergeable, never clamps): a plain
//!   single-writer value, the one sketch both the soak report's
//!   latency fold and every windowed histogram use.
//! * [`sink`] — a bounded [`TraceSink`] collecting finished traces from
//!   concurrent workers. Retention and JSONL export depend only on the
//!   set of trace ids pushed, never on arrival interleaving, so two
//!   runs of the same seeded stream export byte-identical JSONL —
//!   experiment E14's claim. [`TraceSink::with_sampling`] adds a
//!   deterministic id-modulus sampling policy so soak runs keep span
//!   memory constant without losing reproducibility.
//! * [`profile`] — the analysis layer over a trace corpus: per-stage
//!   self vs. inherited cost, critical-path extraction, tail
//!   attribution (which stage dominates the p95/p99 root cost, split
//!   by rung and interpreter), and clean-vs-faulted diffing. E16's
//!   substrate, and what the perf-drift gate compares byte-exactly.
//! * [`export`] — deterministic Chrome Trace Event JSON (for
//!   `about://tracing`) and folded-stack text (for flamegraphs).
//! * [`jsonl`] — strict re-import of the sink's JSONL export, so the
//!   `tracetool` binary can profile a corpus written by an earlier
//!   run.
//! * [`timeseries`] — the time dimension: [`WindowedCounter`] /
//!   [`WindowedHistogram`] bucket observations into fixed-width
//!   logical-tick windows of one bounded ring, generic over what a
//!   window holds (a count or a sketch). Evicted windows fold into
//!   totals, so window sums reconcile exactly with cumulative
//!   counters, and a [`WindowedScope`] renders the resulting window
//!   matrix canonically — E21's substrate.
//! * [`slo`] — the deterministic [`SloEngine`]: per-objective
//!   error-budget burn rates over short+long window pairs, returning
//!   numbered fire/clear [`HealthEvent`]s that replay byte-identically
//!   and travel as ordinary traces (root span `health`) in the sink.
//!   The engine keeps no event log; its caller (the serving health
//!   hub) keeps the one log.

pub mod clock;
pub mod export;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use clock::{Clock, ManualClock};
pub use export::{chrome_trace_json, folded_stacks};
pub use jsonl::{parse_jsonl, parse_trace, ParseError};
pub use metrics::{
    Counter, Histogram, HistogramSummary, MetricsRegistry, MetricsReport, SketchHistogram,
};
pub use profile::{
    attr_cost_breakdown, critical_path, critical_path_cost, tail_attribution, AttrBucket, Profile,
    ProfileDiff, StageDelta, StageProfile, TailAttribution,
};
pub use sink::TraceSink;
pub use slo::{HealthEvent, HealthEventKind, SloEngine, SloPolicy, HEALTH_TRACE_BASE};
pub use span::{Span, SpanId, Trace, TraceBuilder};
pub use timeseries::{WindowedCounter, WindowedHistogram, WindowedScope};
