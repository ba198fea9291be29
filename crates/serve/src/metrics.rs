//! Serving counters and their deterministic snapshot.
//!
//! Counters that are *admission-side* (submitted, admitted, shed) are
//! incremented by the single-threaded submitter, so they are exact.
//! Counters that are *worker-side* (answered, refused, cache hits) are
//! atomics written by worker threads; because the request→worker
//! mapping and each worker's queue order are deterministic, their
//! values after a drain are also exact — snapshots taken between
//! drains are what E12 compares across runs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared mutable counters (workers hold this behind an `Arc`).
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests offered to [`crate::Server::submit`].
    pub submitted: AtomicU64,
    /// Requests accepted into a worker queue.
    pub admitted: AtomicU64,
    /// Requests rejected because the target queue was full.
    pub shed_full: AtomicU64,
    /// Requests rejected because the deadline could not be met.
    pub shed_deadline: AtomicU64,
    /// Requests refused because the tenant's admission budget was
    /// exhausted (always 0 for tenants without a budget).
    pub quota_refused: AtomicU64,
    /// Requests shed by the overload controller while the runtime was
    /// above its high watermark: standalone repeats whose learned plan
    /// cost exceeded the policy threshold, or standalone traffic from
    /// a tenant over its fair share of the overload episode (always 0
    /// with no [`crate::OverloadPolicy`] — the default).
    pub shed_overload: AtomicU64,
    /// Overload episodes begun: the credit ledger crossed the policy's
    /// high watermark while the controller was idle.
    pub overload_entered: AtomicU64,
    /// The subset of `overload_entered` opened by the opt-in
    /// early-warning burn-rate signal *below* the high watermark
    /// (always 0 with [`crate::OverloadPolicy::early_warning`] unset —
    /// the default). Deliberately not in the exported scalar set: the
    /// perf-drift baseline predates the knob and is byte-compared.
    pub overload_entered_early: AtomicU64,
    /// Overload episodes ended: pressure fell back to the low
    /// watermark (the drain-to-empty invariant guarantees every
    /// episode ends at the next drain, so after a final drain this
    /// equals `overload_entered` — the controller never wedges).
    pub overload_recovered: AtomicU64,
    /// Standalone questions answered (cache hit or computed).
    pub answered: AtomicU64,
    /// Standalone questions the pipeline could not interpret/execute.
    pub refused: AtomicU64,
    /// Dialogue turns processed.
    pub session_turns: AtomicU64,
    /// Interpretation-cache hits.
    pub interp_hits: AtomicU64,
    /// Interpretation-cache misses — every lookup that was not a hit,
    /// counted whether or not a cache is configured, so the hit rate
    /// is meaningful (and distinguishable from "no lookups") even with
    /// the cache disabled.
    pub interp_misses: AtomicU64,
    /// Highest per-worker queue depth observed at admission time.
    pub max_queue_depth: AtomicU64,
    /// Transient-fault retries performed.
    pub retries: AtomicU64,
    /// Logical backoff ticks accounted to those retries (never slept).
    pub retry_backoff_ticks: AtomicU64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: AtomicU64,
    /// Ladder rungs skipped because their breaker was open.
    pub breaker_skips: AtomicU64,
    /// Questions answered by a weaker family after the preferred one
    /// faulted (not included in `answered`).
    pub degraded: AtomicU64,
    /// Worker threads that panicked and were contained.
    pub worker_deaths: AtomicU64,
    /// Requests bounced off a dead worker: the request it panicked on
    /// plus everything still queued on it or routed to it before the
    /// submitter learned of the death. Each bounce is re-admitted to a
    /// live worker where possible (see `readmitted`) — bouncing is not
    /// an outcome, it is the start of recovery.
    pub crashed_requests: AtomicU64,
    /// Bounced requests successfully re-admitted to a live worker.
    pub readmitted: AtomicU64,
    /// Bounced requests that could not be re-admitted (redelivery
    /// budget exhausted, deadline unmeetable, or no live worker left).
    pub readmit_refused: AtomicU64,
    /// Dialogue sessions rebuilt by journal replay after their worker
    /// died.
    pub sessions_recovered: AtomicU64,
    /// Journaled turns re-executed during those rebuilds.
    pub turns_replayed: AtomicU64,
    /// Replayed turns whose outcome digest did not match the journal
    /// (must stay 0 — replay is exact; asserted by E15).
    pub replay_divergence: AtomicU64,
    /// Dialogue turns committed to the write-ahead session journal.
    pub journal_turns: AtomicU64,
    /// Whether this server runs with the interpretation cache off
    /// (`interp_cache = 0`) — lets snapshot readers tell "cache
    /// disabled" from "cache enabled but cold".
    pub cache_disabled: bool,
    /// Requests completed per worker.
    pub per_worker: Vec<AtomicU64>,
}

impl ServeMetrics {
    /// Zeroed counters for `workers` workers.
    pub fn new(workers: usize, cache_disabled: bool) -> ServeMetrics {
        ServeMetrics {
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            quota_refused: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            overload_entered: AtomicU64::new(0),
            overload_entered_early: AtomicU64::new(0),
            overload_recovered: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            session_turns: AtomicU64::new(0),
            interp_hits: AtomicU64::new(0),
            interp_misses: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retry_backoff_ticks: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_skips: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            worker_deaths: AtomicU64::new(0),
            crashed_requests: AtomicU64::new(0),
            readmitted: AtomicU64::new(0),
            readmit_refused: AtomicU64::new(0),
            sessions_recovered: AtomicU64::new(0),
            turns_replayed: AtomicU64::new(0),
            replay_divergence: AtomicU64::new(0),
            journal_turns: AtomicU64::new(0),
            cache_disabled,
            per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Raise `max_queue_depth` to at least `depth`.
    pub fn observe_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_full: self.shed_full.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            quota_refused: self.quota_refused.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            overload_entered: self.overload_entered.load(Ordering::Relaxed),
            overload_entered_early: self.overload_entered_early.load(Ordering::Relaxed),
            overload_recovered: self.overload_recovered.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            session_turns: self.session_turns.load(Ordering::Relaxed),
            interp_hits: self.interp_hits.load(Ordering::Relaxed),
            interp_misses: self.interp_misses.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retry_backoff_ticks: self.retry_backoff_ticks.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            crashed_requests: self.crashed_requests.load(Ordering::Relaxed),
            readmitted: self.readmitted.load(Ordering::Relaxed),
            readmit_refused: self.readmit_refused.load(Ordering::Relaxed),
            sessions_recovered: self.sessions_recovered.load(Ordering::Relaxed),
            turns_replayed: self.turns_replayed.load(Ordering::Relaxed),
            replay_divergence: self.replay_divergence.load(Ordering::Relaxed),
            journal_turns: self.journal_turns.load(Ordering::Relaxed),
            cache_disabled: self.cache_disabled,
            per_worker: self
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A runtime-global and a per-tenant counter set updated in lockstep.
///
/// Every increment site in the serving hot path goes through this pair
/// so the global counters keep their exact pre-tenancy values (the
/// perf-drift baseline byte-compares them) while each tenant's
/// breakdown accrues the same amounts. In a single-tenant server both
/// references point at different instances but see identical traffic,
/// so `global == tenant` holds — a property the tenant tests assert.
#[derive(Clone, Copy)]
pub(crate) struct ScopedMetrics<'a> {
    /// The whole-runtime counters.
    pub global: &'a ServeMetrics,
    /// The owning tenant's counters.
    pub tenant: &'a ServeMetrics,
}

impl ScopedMetrics<'_> {
    /// Add `n` to the counter `sel` picks, in both scopes.
    pub fn add(&self, sel: fn(&ServeMetrics) -> &AtomicU64, n: u64) {
        sel(self.global).fetch_add(n, Ordering::Relaxed);
        sel(self.tenant).fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the max-depth watermark in both scopes.
    pub fn observe_depth(&self, depth: u64) {
        self.global.observe_depth(depth);
        self.tenant.observe_depth(depth);
    }

    /// Count a completion against worker `w` in both scopes (the
    /// tenant's `per_worker` is sized like the global one).
    pub fn per_worker(&self, w: usize) {
        self.global.per_worker[w].fetch_add(1, Ordering::Relaxed);
        self.tenant.per_worker[w].fetch_add(1, Ordering::Relaxed);
    }
}

/// A frozen view of [`ServeMetrics`]; plain values, comparable and
/// printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`ServeMetrics::submitted`].
    pub submitted: u64,
    /// See [`ServeMetrics::admitted`].
    pub admitted: u64,
    /// See [`ServeMetrics::shed_full`].
    pub shed_full: u64,
    /// See [`ServeMetrics::shed_deadline`].
    pub shed_deadline: u64,
    /// See [`ServeMetrics::quota_refused`].
    pub quota_refused: u64,
    /// See [`ServeMetrics::shed_overload`].
    pub shed_overload: u64,
    /// See [`ServeMetrics::overload_entered`].
    pub overload_entered: u64,
    /// See [`ServeMetrics::overload_entered_early`].
    pub overload_entered_early: u64,
    /// See [`ServeMetrics::overload_recovered`].
    pub overload_recovered: u64,
    /// See [`ServeMetrics::answered`].
    pub answered: u64,
    /// See [`ServeMetrics::refused`].
    pub refused: u64,
    /// See [`ServeMetrics::session_turns`].
    pub session_turns: u64,
    /// See [`ServeMetrics::interp_hits`].
    pub interp_hits: u64,
    /// See [`ServeMetrics::interp_misses`].
    pub interp_misses: u64,
    /// See [`ServeMetrics::max_queue_depth`].
    pub max_queue_depth: u64,
    /// See [`ServeMetrics::retries`].
    pub retries: u64,
    /// See [`ServeMetrics::retry_backoff_ticks`].
    pub retry_backoff_ticks: u64,
    /// See [`ServeMetrics::breaker_trips`].
    pub breaker_trips: u64,
    /// See [`ServeMetrics::breaker_skips`].
    pub breaker_skips: u64,
    /// See [`ServeMetrics::degraded`].
    pub degraded: u64,
    /// See [`ServeMetrics::worker_deaths`].
    pub worker_deaths: u64,
    /// See [`ServeMetrics::crashed_requests`].
    pub crashed_requests: u64,
    /// See [`ServeMetrics::readmitted`].
    pub readmitted: u64,
    /// See [`ServeMetrics::readmit_refused`].
    pub readmit_refused: u64,
    /// See [`ServeMetrics::sessions_recovered`].
    pub sessions_recovered: u64,
    /// See [`ServeMetrics::turns_replayed`].
    pub turns_replayed: u64,
    /// See [`ServeMetrics::replay_divergence`].
    pub replay_divergence: u64,
    /// See [`ServeMetrics::journal_turns`].
    pub journal_turns: u64,
    /// See [`ServeMetrics::cache_disabled`].
    pub cache_disabled: bool,
    /// See [`ServeMetrics::per_worker`].
    pub per_worker: Vec<u64>,
}

impl MetricsSnapshot {
    /// Interpretation-cache hit fraction in `[0, 1]` (0 when unused).
    pub fn interp_hit_rate(&self) -> f64 {
        let total = self.interp_hits + self.interp_misses;
        if total == 0 {
            0.0
        } else {
            self.interp_hits as f64 / total as f64
        }
    }

    /// Fraction of submitted requests rejected (shed or deadline).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.shed_full + self.shed_deadline) as f64 / self.submitted as f64
        }
    }

    /// Every scalar counter as `(bare_name, value)`, in export order.
    fn scalar_fields(&self) -> [(&'static str, u64); 27] {
        [
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("shed_full", self.shed_full),
            ("shed_deadline", self.shed_deadline),
            ("shed_overload", self.shed_overload),
            ("overload_entered", self.overload_entered),
            ("overload_recovered", self.overload_recovered),
            ("quota_refused", self.quota_refused),
            ("answered", self.answered),
            ("refused", self.refused),
            ("session_turns", self.session_turns),
            ("interp_hits", self.interp_hits),
            ("interp_misses", self.interp_misses),
            ("max_queue_depth", self.max_queue_depth),
            ("retries", self.retries),
            ("retry_backoff_ticks", self.retry_backoff_ticks),
            ("breaker_trips", self.breaker_trips),
            ("breaker_skips", self.breaker_skips),
            ("degraded", self.degraded),
            ("worker_deaths", self.worker_deaths),
            ("crashed_requests", self.crashed_requests),
            ("readmitted", self.readmitted),
            ("readmit_refused", self.readmit_refused),
            ("sessions_recovered", self.sessions_recovered),
            ("turns_replayed", self.turns_replayed),
            ("replay_divergence", self.replay_divergence),
            ("journal_turns", self.journal_turns),
        ]
    }

    /// Export every counter into `registry` under `serve.`-prefixed
    /// names (per-worker counts as `serve.per_worker.N`), overwriting
    /// prior values — so the obs registry is the one place a driver
    /// reads both serving counters and stage-cost histograms from.
    pub fn export_into(&self, registry: &nlidb_obs::MetricsRegistry) {
        for (name, value) in self.scalar_fields() {
            registry.counter(&format!("serve.{name}")).store(value);
        }
        for (w, value) in self.per_worker.iter().enumerate() {
            registry
                .counter(&format!("serve.per_worker.{w}"))
                .store(*value);
        }
    }

    /// Export the scalar counters under `serve.tenant.<label>.<name>`,
    /// overwriting prior values. Per-worker counts are deliberately
    /// skipped: worker placement is runtime-global, not per-tenant.
    /// [`crate::Server::export_metrics`] calls this once per
    /// tenant next to the global [`MetricsSnapshot::export_into`], so
    /// one registry report breaks the workload down by tenant.
    pub fn export_labelled_into(&self, registry: &nlidb_obs::MetricsRegistry, label: &str) {
        for (name, value) in self.scalar_fields() {
            registry
                .counter(&format!("serve.tenant.{label}.{name}"))
                .store(value);
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "submitted {}  admitted {}  shed(full) {}  shed(deadline) {}  quota-refused {}",
            self.submitted, self.admitted, self.shed_full, self.shed_deadline, self.quota_refused
        )?;
        writeln!(
            f,
            "overload: shed {}  entered {}  recovered {}",
            self.shed_overload, self.overload_entered, self.overload_recovered
        )?;
        writeln!(
            f,
            "answered {}  refused {}  session-turns {}  max-depth {}",
            self.answered, self.refused, self.session_turns, self.max_queue_depth
        )?;
        if self.cache_disabled {
            writeln!(
                f,
                "interp-cache off ({} lookups bypassed)",
                self.interp_misses
            )?;
        } else {
            writeln!(
                f,
                "interp-cache {} hits / {} misses ({:.1}% hit)",
                self.interp_hits,
                self.interp_misses,
                self.interp_hit_rate() * 100.0
            )?;
        }
        writeln!(
            f,
            "faults: retries {} (backoff {} ticks)  degraded {}  breaker trips {} / skips {}",
            self.retries,
            self.retry_backoff_ticks,
            self.degraded,
            self.breaker_trips,
            self.breaker_skips
        )?;
        writeln!(
            f,
            "worker deaths {}  crashed requests {}",
            self.worker_deaths, self.crashed_requests
        )?;
        writeln!(
            f,
            "recovery: readmitted {} / refused {}  sessions recovered {}  turns replayed {} (journal {}, divergence {})",
            self.readmitted,
            self.readmit_refused,
            self.sessions_recovered,
            self.turns_replayed,
            self.journal_turns,
            self.replay_divergence
        )?;
        write!(f, "per-worker {:?}", self.per_worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = ServeMetrics::new(2, false);
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.interp_hits.fetch_add(1, Ordering::Relaxed);
        m.interp_misses.fetch_add(1, Ordering::Relaxed);
        m.per_worker[1].fetch_add(2, Ordering::Relaxed);
        m.observe_depth(5);
        m.observe_depth(3);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.per_worker, vec![0, 2]);
        assert_eq!(s.max_queue_depth, 5);
        assert!((s.interp_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_default_to_zero() {
        let s = ServeMetrics::new(1, false).snapshot();
        assert_eq!(s.interp_hit_rate(), 0.0);
        assert_eq!(s.shed_rate(), 0.0);
    }

    #[test]
    fn display_mentions_every_section() {
        let text = ServeMetrics::new(2, false).snapshot().to_string();
        for needle in [
            "submitted",
            "shed",
            "overload:",
            "interp-cache",
            "faults:",
            "worker deaths",
            "recovery:",
            "per-worker",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn export_into_registry_mirrors_every_counter() {
        let m = ServeMetrics::new(2, false);
        m.submitted.fetch_add(9, Ordering::Relaxed);
        m.retries.fetch_add(3, Ordering::Relaxed);
        m.per_worker[1].fetch_add(4, Ordering::Relaxed);
        let registry = nlidb_obs::MetricsRegistry::new();
        m.snapshot().export_into(&registry);
        let report = registry.report();
        assert_eq!(report.counter("serve.submitted"), Some(9));
        assert_eq!(report.counter("serve.retries"), Some(3));
        assert_eq!(report.counter("serve.readmitted"), Some(0));
        assert_eq!(report.counter("serve.turns_replayed"), Some(0));
        assert_eq!(report.counter("serve.per_worker.0"), Some(0));
        assert_eq!(report.counter("serve.per_worker.1"), Some(4));
        // Re-export overwrites rather than accumulates.
        m.snapshot().export_into(&registry);
        assert_eq!(registry.report().counter("serve.submitted"), Some(9));
    }

    #[test]
    fn scoped_metrics_update_both_scopes_in_lockstep() {
        let global = ServeMetrics::new(2, false);
        let a = ServeMetrics::new(2, false);
        let b = ServeMetrics::new(2, false);
        let sa = ScopedMetrics {
            global: &global,
            tenant: &a,
        };
        let sb = ScopedMetrics {
            global: &global,
            tenant: &b,
        };
        sa.add(|m| &m.answered, 3);
        sb.add(|m| &m.answered, 2);
        sa.add(|m| &m.quota_refused, 1);
        sa.observe_depth(5);
        sb.observe_depth(2);
        sa.per_worker(1);
        assert_eq!(global.snapshot().answered, 5);
        assert_eq!(a.snapshot().answered, 3);
        assert_eq!(b.snapshot().answered, 2);
        assert_eq!(a.snapshot().quota_refused, 1);
        assert_eq!(b.snapshot().quota_refused, 0);
        assert_eq!(global.snapshot().max_queue_depth, 5);
        assert_eq!(b.snapshot().max_queue_depth, 2);
        assert_eq!(global.snapshot().per_worker, vec![0, 1]);
        assert_eq!(a.snapshot().per_worker, vec![0, 1]);
    }

    #[test]
    fn labelled_export_mirrors_plain_export_byte_for_byte() {
        let m = ServeMetrics::new(2, false);
        m.submitted.fetch_add(9, Ordering::Relaxed);
        m.quota_refused.fetch_add(2, Ordering::Relaxed);
        m.per_worker[0].fetch_add(4, Ordering::Relaxed);
        let snap = m.snapshot();

        let plain = nlidb_obs::MetricsRegistry::new();
        snap.export_into(&plain);
        let labelled = nlidb_obs::MetricsRegistry::new();
        snap.export_labelled_into(&labelled, "retail");

        // Same counters, same values — only the prefix differs, and
        // per-worker rows are global-only.
        let plain_text = plain.report().export_text();
        let labelled_text = labelled.report().export_text();
        let rebuilt: String = plain_text
            .lines()
            .filter(|l| !l.starts_with("counter serve.per_worker."))
            .map(|l| {
                format!(
                    "counter serve.tenant.retail.{}\n",
                    l.trim_start_matches("counter serve.")
                )
            })
            .collect();
        assert_eq!(labelled_text, rebuilt);
        assert!(labelled_text.contains("serve.tenant.retail.quota_refused 2"));
        assert!(!labelled_text.contains("per_worker"));
        // Re-export overwrites rather than accumulates.
        snap.export_labelled_into(&labelled, "retail");
        assert_eq!(labelled.report().export_text(), labelled_text);
    }

    #[test]
    fn labelled_export_order_is_independent_of_insertion_order() {
        // The perf-drift gate byte-compares the registry's export, so
        // tenant scopes must render sorted by name no matter which
        // tenant exported first (or how the snapshots interleave with
        // global export).
        let snap_a = {
            let m = ServeMetrics::new(1, false);
            m.answered.fetch_add(3, Ordering::Relaxed);
            m.snapshot()
        };
        let snap_b = {
            let m = ServeMetrics::new(1, false);
            m.refused.fetch_add(1, Ordering::Relaxed);
            m.snapshot()
        };
        let forward = nlidb_obs::MetricsRegistry::new();
        snap_a.export_into(&forward);
        snap_a.export_labelled_into(&forward, "alpha");
        snap_b.export_labelled_into(&forward, "zed");
        let backward = nlidb_obs::MetricsRegistry::new();
        snap_b.export_labelled_into(&backward, "zed");
        snap_a.export_labelled_into(&backward, "alpha");
        snap_a.export_into(&backward);
        let text = forward.report().export_text();
        assert_eq!(text, backward.report().export_text());
        // Scope blocks land in sorted order: global serve.* rows
        // between the alphabetically-smaller and -larger tenants.
        let alpha = text.find("serve.tenant.alpha.answered 3").unwrap();
        let global = text.find("counter serve.answered 3").unwrap();
        let zed = text.find("serve.tenant.zed.refused 1").unwrap();
        assert!(global < alpha && alpha < zed);
    }

    #[test]
    fn disabled_cache_is_distinguishable_from_cold() {
        let off = ServeMetrics::new(1, true);
        off.interp_misses.fetch_add(4, Ordering::Relaxed);
        let s = off.snapshot();
        assert!(s.cache_disabled);
        assert_eq!(s.interp_misses, 4, "lookups are still counted");
        assert!(s.to_string().contains("interp-cache off"));
        let cold = ServeMetrics::new(1, false).snapshot();
        assert!(!cold.cache_disabled);
        assert!(cold.to_string().contains("0.0% hit"));
    }
}
