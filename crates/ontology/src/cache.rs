//! A bounded, shared memo for join-path inference.
//!
//! Steiner-tree planning is the most expensive step of entity-based
//! interpretation, and a serving workload asks for the same small set
//! of terminal combinations over and over (every "total order amount by
//! customer city" needs `order ⋈ customer`). [`JoinPathCache`] fronts
//! [`crate::JoinGraph::steiner_plan`] with a capacity-bounded LRU memo.
//!
//! **Single-flight semantics:** the compute closure runs while the
//! cache lock is held, so for any key the plan is computed exactly once
//! no matter how many threads race on it — every other thread waits and
//! then hits. This serializes *planning* (not interpretation as a
//! whole) and in exchange makes hit/miss counters deterministic for a
//! deterministic request stream, which experiment E12 asserts.
//!
//! **Scopes:** one cache can be shared across independent schemas
//! (multi-tenant serving shares a single memo across every tenant
//! pipeline). Each entry is namespaced by a caller-chosen `u64` scope —
//! in serving, the tenant's schema fingerprint — so two schemas can
//! never exchange plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::graph::JoinPlan;

/// Counters and content of the memo, guarded by one lock.
#[derive(Debug, Default)]
struct CacheInner {
    /// Key (scope then terminal sequence, joined by `\u{1}`) →
    /// (memoized plan, last-touch stamp).
    map: HashMap<String, (Option<JoinPlan>, u64)>,
    /// Monotonic touch counter driving LRU eviction.
    stamp: u64,
}

/// Render the internal key for `(scope, terminals)`. The scope leads
/// so [`JoinPathCache::len_in_scope`] can match by prefix.
fn scoped_key(scope: u64, terminals: &[&str]) -> String {
    let mut key = format!("{scope:016x}");
    for t in terminals {
        key.push('\u{1}');
        key.push_str(t);
    }
    key
}

/// A bounded LRU memo of `terminals → Option<JoinPlan>`.
///
/// Negative results (disconnected terminal sets) are cached too: a
/// question that cannot be planned stays expensive to recompute
/// otherwise.
#[derive(Debug)]
pub struct JoinPathCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the planner.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl JoinCacheStats {
    /// Hit fraction in `[0, 1]` (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl JoinPathCache {
    /// A cache holding at most `capacity` plans (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> JoinPathCache {
        JoinPathCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `terminals` in `scope`, running `compute` on a miss
    /// (single-flight: `compute` runs under the cache lock).
    ///
    /// The key is the exact terminal sequence: plan growth starts from
    /// the first terminal, so order is semantically significant.
    /// Lookups in different scopes can never observe each other's
    /// plans, which is what lets multi-tenant serving share one memo
    /// across schemas (scope = schema fingerprint).
    pub fn get_or_compute_scoped(
        &self,
        scope: u64,
        terminals: &[&str],
        compute: impl FnOnce() -> Option<JoinPlan>,
    ) -> Option<JoinPlan> {
        let key = scoped_key(scope, terminals);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some((plan, touched)) = inner.map.get_mut(&key) {
            *touched = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = compute();
        if inner.map.len() >= self.capacity {
            // Evict the least-recently-touched entry.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, (plan.clone(), stamp));
        plan
    }

    /// Drop all entries and zero the counters (used between experiment
    /// passes that must start cold).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        inner.stamp = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Resident entry count in `scope` alone.
    pub fn len_in_scope(&self, scope: u64) -> usize {
        let prefix = format!("{scope:016x}\u{1}");
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.keys().filter(|k| k.starts_with(&prefix)).count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JoinCacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        JoinCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(root: &str) -> Option<JoinPlan> {
        Some(JoinPlan {
            concepts: vec![root.to_string()],
            edges: Vec::new(),
        })
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = JoinPathCache::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            let p = cache.get_or_compute_scoped(0, &["a", "b"], || {
                computed += 1;
                plan("a")
            });
            assert_eq!(p.unwrap().concepts, vec!["a".to_string()]);
        }
        assert_eq!(computed, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn caches_negative_results() {
        let cache = JoinPathCache::new(8);
        let mut computed = 0;
        for _ in 0..2 {
            let p = cache.get_or_compute_scoped(0, &["x", "island"], || {
                computed += 1;
                None
            });
            assert!(p.is_none());
        }
        assert_eq!(computed, 1);
    }

    #[test]
    fn scopes_never_share_plans() {
        let cache = JoinPathCache::new(8);
        let a = cache.get_or_compute_scoped(1, &["order", "customer"], || plan("a"));
        // Same terminals, different scope: must recompute, not leak.
        let b = cache.get_or_compute_scoped(2, &["order", "customer"], || plan("b"));
        assert_eq!(a.unwrap().concepts, vec!["a".to_string()]);
        assert_eq!(b.unwrap().concepts, vec!["b".to_string()]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 2, 2));
        // Within a scope the memo still hits.
        let again = cache.get_or_compute_scoped(1, &["order", "customer"], || plan("never"));
        assert_eq!(again.unwrap().concepts, vec!["a".to_string()]);
        assert_eq!(cache.stats().hits, 1);
        // Scope 0 is a scope like any other.
        cache.get_or_compute_scoped(0, &["order", "customer"], || plan("zero"));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn len_in_scope_counts_one_scope() {
        let cache = JoinPathCache::new(8);
        cache.get_or_compute_scoped(7, &["a", "b"], || plan("a"));
        cache.get_or_compute_scoped(7, &["c"], || plan("c"));
        cache.get_or_compute_scoped(9, &["a", "b"], || plan("x"));
        assert_eq!(cache.len_in_scope(7), 2);
        assert_eq!(cache.len_in_scope(9), 1);
        assert_eq!(cache.len_in_scope(12345), 0);
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn terminal_order_is_part_of_the_key() {
        let cache = JoinPathCache::new(8);
        cache.get_or_compute_scoped(0, &["a", "b"], || plan("a"));
        let p = cache.get_or_compute_scoped(0, &["b", "a"], || plan("b"));
        assert_eq!(p.unwrap().concepts, vec!["b".to_string()]);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = JoinPathCache::new(2);
        cache.get_or_compute_scoped(0, &["a"], || plan("a"));
        cache.get_or_compute_scoped(0, &["b"], || plan("b"));
        cache.get_or_compute_scoped(0, &["a"], || plan("never"));
        // Inserting c evicts b (a was touched more recently than b).
        cache.get_or_compute_scoped(0, &["c"], || plan("c"));
        let mut b_recomputed = false;
        cache.get_or_compute_scoped(0, &["b"], || {
            b_recomputed = true;
            plan("b")
        });
        assert!(b_recomputed, "b must have been evicted by c");
        // b's reinsertion in turn evicted a — the LRU of {a, c}.
        let mut a_recomputed = false;
        cache.get_or_compute_scoped(0, &["a"], || {
            a_recomputed = true;
            plan("a")
        });
        assert!(a_recomputed, "a was least-recently used when b returned");
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = JoinPathCache::new(4);
        cache.get_or_compute_scoped(0, &["a"], || plan("a"));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 0, 0));
    }
}
