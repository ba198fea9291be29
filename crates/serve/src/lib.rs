#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # nlidb-serve — a concurrent, cache-fronted query-serving runtime
//!
//! The survey's systems are built as single-user pipelines; production
//! NLIDBs sit behind many concurrent users asking overlapping
//! questions and holding multi-turn conversations. This crate wraps a
//! trained [`NliPipeline`](nlidb_core::pipeline::NliPipeline) in a
//! serving runtime that adds exactly the things a single-user pipeline
//! lacks, while preserving the workspace's determinism invariant:
//!
//! * [`server`] — the one runtime type, [`Server`]: a fixed pool of
//!   `std::thread` workers behind per-worker bounded queues;
//!   session-affinity routing keeps each conversation's turns ordered
//!   on one thread, and content-hash routing sends duplicate questions
//!   to the same worker-local cache. Backpressure (admit / shed /
//!   deadline-reject) is decided entirely at admission time from a
//!   credit ledger the single-threaded submitter owns — so outcomes
//!   never depend on thread timing.
//! * [`lru`] — the O(1) LRU interpretation cache, one per (worker,
//!   tenant) and keyed by the normalized question, storing the fully
//!   rendered answer so a hit skips interpretation *and* execution.
//! * [`clock`] — injectable logical time ([`ManualClock`], re-exported
//!   from [`nlidb_obs`]); deadlines are ticks of a clock the driver
//!   advances, never a wall clock.
//! * [`metrics`] — atomic counters with a comparable, printable
//!   [`MetricsSnapshot`], exportable into an obs
//!   [`MetricsRegistry`](nlidb_obs::MetricsRegistry).
//! * [`obs`] — per-request tracing: start the server with a
//!   [`ServeObs`] and every request finishes as a span tree
//!   (admission, queueing, cache probe, ladder rungs with retry /
//!   breaker / fault evidence, pipeline stages) in a deterministic
//!   [`TraceSink`](nlidb_obs::TraceSink) — E14's byte-identical-JSONL
//!   claim.
//! * [`loadgen`] — seeded load drivers: the exact closed loop
//!   replaying [`nlidb_benchdata::request_stream`] workloads batch by
//!   batch, and the soak-scale open loop ([`loadgen::run_open_loop`])
//!   whose arrival schedule is decoupled from completion and whose
//!   completions fold into a streaming [`loadgen::SoakReport`] —
//!   O(1) memory at 10⁵–10⁶ requests.
//! * [`fault`] / [`retry`] — the robustness layer: seeded fault
//!   injection through the request hook, retry with logical backoff
//!   (2 retries, `1 << n` ticks), per-interpreter circuit breakers
//!   (open after 3 consecutive failures, for 8 requests), graceful
//!   degradation down the §4 family ladder, and contained worker
//!   panics. None of these numbers is a setting.
//! * [`journal`] — the write-ahead session journal behind crash
//!   recovery: every committed dialogue turn is journaled before its
//!   reply is released, a panicked worker's queued work bounces back
//!   for deterministic re-admission, and its sessions are rebuilt on
//!   live workers by exact replay of their journaled turns.
//! * [`tenant`] — multi-tenant sharding: a [`TenantRegistry`] maps
//!   schema fingerprints to (pipeline, policy, journal namespace), and
//!   a [`Server`] started with [`Server::start_tenants`] routes
//!   fingerprints ([`Server::submit_to`]) over one worker pool with
//!   per-(worker, tenant) caches and sessions, per-tenant
//!   metrics/journals, and deterministic admission quotas.
//!   [`Server::start_observed`] is the one-tenant case,
//!   byte-identical to the pre-tenancy runtime.
//! * [`health`] — windowed telemetry + SLO tracking: a [`HealthHub`]
//!   (attached via [`ServeObs::with_health`](obs::ServeObs::with_health))
//!   buckets every drained completion into per-tenant logical-tick
//!   windows, computes error-budget burn rates over short+long window
//!   pairs, and emits deterministic fire/clear health events into the
//!   trace sink and a `health.*` metrics scope. A [`HealthConfig`]
//!   sets the window width, the long span and the fire threshold; the
//!   ring size, objectives and short span are fixed. The overload
//!   controller's opt-in [`OverloadPolicy::early_warning`] knob
//!   consults the short-window burn to open episodes before the high
//!   watermark — E21's claim.
//!
//! Experiment E12 asserts the payoff: at seed 42, the completion
//! stream of a 4-worker server is signature-identical to a 1-worker
//! server (and to itself with caches disabled), while the caches
//! absorb most repeat traffic. E13 extends the claim to failure:
//! under a seeded fault schedule the full completion stream and
//! metrics snapshot are bit-identical run over run, and transient
//! faults absorbed by the retry budget leave the stream byte-identical
//! to the unfaulted run. E15 extends it to recovery: runs that lose a
//! worker mid-stream produce the same answers as runs that never
//! crash — lost work ≡ replayed work.

pub mod clock;
pub mod fault;
pub mod health;
pub mod journal;
pub mod loadgen;
pub mod lru;
pub mod metrics;
pub mod obs;
pub mod retry;
pub mod server;
pub mod tenant;

pub use clock::{Clock, ManualClock};
pub use fault::{fault_plan_hook, silence_worker_panics, HookCtx, InjectedFault};
pub use health::{HealthConfig, HealthHub, WindowSample};
pub use journal::{JournalEntry, SessionJournal};
pub use loadgen::{
    open_loop, run_closed_loop, run_closed_loop_tenants, run_open_loop, run_open_loop_tenants,
    with_deadlines, LoadReport, OpenLoopConfig, SoakReport,
};
pub use lru::LruCache;
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use obs::ServeObs;
pub use server::{
    normalize_question, Admission, Completion, Disposition, OverloadPolicy, RequestHook, Server,
    ServerConfig,
};
pub use tenant::{schema_fingerprint, TenantEntry, TenantPolicy, TenantRegistry};

/// Compile-time proof of the sharing model: the server handle moves
/// between threads, and everything workers touch is `Send + Sync`.
fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    let _ = assert_send::<Server>;
    let _ = assert_send_sync::<ManualClock>;
    let _ = assert_send_sync::<ServeMetrics>;
    let _ = assert_send_sync::<std::sync::Arc<dyn Clock>>;
};
