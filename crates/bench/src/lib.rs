//! # nlidb-bench — the reproduction harness
//!
//! One function per experiment in `EXPERIMENTS.md` (E1–E21), each
//! returning a rendered [`nlidb_evalkit::Table`]. The `experiments`
//! binary prints them; the `perfgate` binary renders the perf-drift
//! baseline (per-stage profiles, clean-vs-faulted diff, and metric
//! counters at a fixed seed) that `scripts/check_perf_drift.py`
//! byte-compares against `scripts/perf_baseline_seed42.txt`; the
//! `soak` binary drives the [`soak`] regimes open-loop and appends the
//! tracked throughput/latency trajectory to `BENCH_soak.json`.
//! Wall-clock timing lives in the separate `perfbench/` package (see
//! `perfbench/README.md`), which builds its stacks from [`workloads`].

pub mod experiments;
pub mod soak;
pub mod workloads;

pub use experiments::{
    e17_multi_tenant_with, e20_soak_with, run_experiment, EXPERIMENT_IDS, EXPERIMENT_SUMMARIES,
};
pub use soak::{
    overload_audit_observed, overload_prefix_audit, run_soak_shape, SoakOutcome, SOAK_SHAPES,
};
