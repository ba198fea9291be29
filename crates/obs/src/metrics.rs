//! Named counters and histograms over logical values: an exact
//! per-value kind and a bounded-memory sketch kind.
//!
//! [`Histogram`] is not the approximating kind production metrics
//! stacks use: the values it observes are small logical quantities
//! (trace ticks, queue depths, retry counts), so one bucket per value
//! up to a cap is affordable and makes every percentile query *exact*
//! (nearest-rank). Observations above the cap saturate into the top
//! bucket and are counted, so saturation is visible, never silent.
//!
//! [`SketchHistogram`] is the soak-scale complement: 65 fixed log₂
//! buckets cover the whole `u64` range in constant memory, every
//! observation lands in a bucket (nothing is ever clamped), and two
//! sketches merge by bucket-wise addition — the shape a 10⁵–10⁶
//! request open-loop run folds its latencies into. The price is
//! resolution: percentile queries return the matched bucket's upper
//! bound, an overestimate of strictly less than 2×. The exact
//! histogram stays the default everywhere E12–E19 render committed
//! tables; the sketch is opt-in for drivers that would otherwise
//! outgrow the cap (see the clamp-cap test pinning the difference).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::span::Trace;

/// A monotonic named counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `delta`, saturating at `u64::MAX`. Counters are lifetime
    /// totals — a soak run that actually reached the top of the range
    /// must read as "pegged", never wrap back toward zero and
    /// masquerade as a quiet counter.
    pub fn add(&self, delta: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            });
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrite the value — for exporting an externally-maintained
    /// counter (e.g. a serving-metrics snapshot) into a registry.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An exact histogram over `u64` values in `[0, cap]`; observations
/// above `cap` clamp into the top bucket (and are counted as clamped).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    clamped: AtomicU64,
}

impl Histogram {
    /// A histogram with one bucket per value in `[0, cap]`.
    pub fn with_cap(cap: u64) -> Histogram {
        Histogram {
            buckets: (0..=cap).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            clamped: AtomicU64::new(0),
        }
    }

    /// Record one observation (clamped to the cap).
    ///
    /// Clamping is the exact histogram's deliberate memory bound: the
    /// recorded value, the `sum`, and every percentile above the cap
    /// all saturate at `cap`, with the excess visible only through
    /// [`Histogram::clamped`]. A [`SketchHistogram`] never clamps —
    /// the same observation lands in a log₂ bucket whose upper bound
    /// may overestimate it, but its count and full-range position
    /// survive. Drivers whose values can exceed
    /// any affordable cap (open-loop soak latencies) should fold into
    /// the sketch; everything E12–E19 renders stays on the exact kind.
    pub fn observe(&self, value: u64) {
        let cap = (self.buckets.len() - 1) as u64;
        let v = if value > cap {
            self.clamped.fetch_add(1, Ordering::Relaxed);
            cap
        } else {
            value
        };
        self.buckets[v as usize].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded (post-clamp) values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Observations that exceeded the cap and were clamped.
    pub fn clamped(&self) -> u64 {
        self.clamped.load(Ordering::Relaxed)
    }

    /// Exact nearest-rank percentile of the recorded values: the
    /// smallest value whose cumulative count reaches `ceil(p/100 × n)`
    /// (rank 1 at `p = 0`, so `percentile(0)` is the minimum and
    /// `percentile(100)` the maximum). `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile_of(&self.bucket_snapshot(), p)
    }

    /// One relaxed read of every bucket, index = value.
    fn bucket_snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Freeze into a plain summary. Count, sum, and every percentile
    /// are all derived from *one* bucket snapshot, so the summary is
    /// internally consistent even while other threads are observing
    /// (separate passes could pair a fresh count with stale
    /// percentiles). `clamped` is read before the snapshot, so it can
    /// only under-count relative to the buckets, never invent clamps
    /// the top bucket has not seen.
    pub fn summary(&self) -> HistogramSummary {
        let clamped = self.clamped();
        let buckets = self.bucket_snapshot();
        let count: u64 = buckets.iter().sum();
        let sum: u64 = buckets.iter().enumerate().map(|(v, c)| v as u64 * c).sum();
        HistogramSummary {
            count,
            sum,
            clamped,
            min: percentile_of(&buckets, 0.0).unwrap_or(0),
            max: percentile_of(&buckets, 100.0).unwrap_or(0),
            p50: percentile_of(&buckets, 50.0).unwrap_or(0),
            p95: percentile_of(&buckets, 95.0).unwrap_or(0),
            p99: percentile_of(&buckets, 99.0).unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile over a frozen bucket array (index = value).
fn percentile_of(buckets: &[u64], p: f64) -> Option<u64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0 * n as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (v, &b) in buckets.iter().enumerate() {
        cumulative += b;
        if cumulative >= rank {
            return Some(v as u64);
        }
    }
    None // unreachable: cumulative reaches n
}

/// Plain-value view of one histogram (all zeros when `count == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded (post-clamp) values.
    pub sum: u64,
    /// Observations clamped into the top bucket.
    pub clamped: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Exact 50th percentile.
    pub p50: u64,
    /// Exact 95th percentile.
    pub p95: u64,
    /// Exact 99th percentile.
    pub p99: u64,
}

/// Number of buckets in a [`SketchHistogram`]: bucket 0 holds the
/// value 0, bucket `k ≥ 1` holds values in `[2^(k-1), 2^k - 1]`, so 65
/// buckets cover all of `u64` with no clamping.
const SKETCH_BUCKETS: usize = 65;

/// A bounded-memory, mergeable log₂-bucketed histogram over `u64`.
///
/// The soak-scale counterpart of [`Histogram`] (see the module docs
/// for the trade): 65 fixed buckets plus a count, every observation
/// recorded, nothing clamped, constant memory whatever the value
/// range. Percentiles are *bucket-resolution*: nearest-rank over the
/// bucket counts, reported as the matched bucket's inclusive upper
/// bound — an overestimate of the true percentile by strictly less
/// than 2× (exact for 0, 1, and 2).
///
/// A plain value with one writer (the open-loop submitter, or the
/// window that owns it); every add saturates. Two sketches merge by
/// bucket-wise addition, so per-window sketches fold into one
/// distribution without storing a single observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchHistogram {
    buckets: [u64; SKETCH_BUCKETS],
    count: u64,
}

impl Default for SketchHistogram {
    fn default() -> SketchHistogram {
        SketchHistogram::new()
    }
}

/// Bucket index of `value`: 0 for 0, else `1 + floor(log2 value)`.
fn sketch_bucket(value: u64) -> usize {
    match value {
        0 => 0,
        v => 64 - v.leading_zeros() as usize,
    }
}

/// Inclusive upper bound of sketch bucket `index` (its reported
/// representative value): 0 for bucket 0, else `2^index - 1`.
fn sketch_bucket_top(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

impl SketchHistogram {
    /// An empty sketch.
    pub fn new() -> SketchHistogram {
        SketchHistogram {
            buckets: [0; SKETCH_BUCKETS],
            count: 0,
        }
    }

    /// Record one observation in its log₂ bucket. Never clamps.
    pub fn observe(&mut self, value: u64) {
        let bucket = &mut self.buckets[sketch_bucket(value)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket-resolution nearest-rank percentile: the upper bound of
    /// the bucket holding the nearest-rank observation. `None` when
    /// empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(b);
            if cumulative >= rank {
                return Some(sketch_bucket_top(k));
            }
        }
        None // unreachable: cumulative reaches the count
    }

    /// Fold `other` into `self`, bucket by bucket (saturating).
    /// Merging is exact: the merged sketch equals one that observed
    /// both input streams directly.
    pub fn merge(&mut self, other: &SketchHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
    }
}

/// Default histogram cap for registries: trace-tick costs and queue
/// depths in this workspace sit far below it.
pub const DEFAULT_HISTOGRAM_CAP: u64 = 1024;

/// A registry of named counters and histograms. Get-or-create by name;
/// snapshots iterate in name order, so reports are deterministic
/// regardless of which thread registered what first.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram named `name`, created with
    /// [`DEFAULT_HISTOGRAM_CAP`] on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_cap(name, DEFAULT_HISTOGRAM_CAP)
    }

    /// The histogram named `name`, created with `cap` on first use
    /// (an existing histogram keeps its original cap).
    pub fn histogram_with_cap(&self, name: &str, cap: u64) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_cap(cap))),
        )
    }

    /// Record every span of `trace` into the `span.<name>` histogram
    /// (observing the span's cost in trace ticks). This is how the
    /// serving layer turns finished traces into the per-stage cost
    /// distributions E14 tabulates.
    pub fn observe_trace(&self, trace: &Trace) {
        for span in &trace.spans {
            self.histogram(&format!("span.{}", span.name))
                .observe(span.cost());
        }
    }

    /// Freeze every metric into a sorted, comparable report.
    pub fn report(&self) -> MetricsReport {
        let counters = self
            .counters
            .lock()
            .expect("counter map lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        MetricsReport {
            counters,
            histograms,
        }
    }
}

/// Frozen registry contents, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsReport {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The histogram summary named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// The canonical machine-diffable rendering: one line per metric,
    /// name-ordered (the report is already sorted), every field in a
    /// fixed order with fixed formatting, trailing newline per line.
    /// The perf-drift gate and `tracetool metrics` both emit this, so
    /// a baseline written by one is byte-comparable against the other.
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, s) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} clamped={} min={} max={} p50={} p95={} p99={}\n",
                s.count, s.sum, s.clamped, s.min, s.max, s.p50, s.p95, s.p99
            ));
        }
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, value) in &self.counters {
            writeln!(f, "  {name} = {value}")?;
        }
        writeln!(f, "histograms (count p50/p95/max sum):")?;
        for (name, s) in &self.histograms {
            writeln!(
                f,
                "  {name} = {} {}/{}/{} {}",
                s.count, s.p50, s.p95, s.max, s.sum
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.store(2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::with_cap(8);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
    }

    #[test]
    fn single_observation_is_every_percentile() {
        let h = Histogram::with_cap(8);
        h.observe(5);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(5), "p{p}");
        }
        assert_eq!(h.sum(), 5);
    }

    #[test]
    fn percentiles_are_exact_at_boundaries() {
        let h = Histogram::with_cap(16);
        for v in [1, 2, 3, 4] {
            h.observe(v);
        }
        // Nearest-rank over {1,2,3,4}: rank = ceil(p/100 × 4).
        assert_eq!(h.percentile(0.0), Some(1), "rank 1 (minimum)");
        assert_eq!(h.percentile(25.0), Some(1), "rank 1");
        assert_eq!(h.percentile(25.1), Some(2), "rank 2 starts just above");
        assert_eq!(h.percentile(50.0), Some(2), "rank 2");
        assert_eq!(h.percentile(75.0), Some(3), "rank 3");
        assert_eq!(h.percentile(75.1), Some(4), "rank 4 starts just above");
        assert_eq!(h.percentile(100.0), Some(4), "rank 4 (maximum)");
        assert_eq!(h.percentile(200.0), Some(4), "clamped to 100");
        assert_eq!(h.percentile(-5.0), Some(1), "clamped to 0");
    }

    #[test]
    fn saturation_clamps_into_the_top_bucket_visibly() {
        let h = Histogram::with_cap(4);
        h.observe(3);
        h.observe(4);
        h.observe(100);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.clamped(), 2);
        assert_eq!(h.percentile(100.0), Some(4), "clamped values sit at cap");
        assert_eq!(h.sum(), 3 + 4 + 4 + 4, "sum records post-clamp values");
    }

    #[test]
    fn registry_reports_sorted_by_name() {
        let r = MetricsRegistry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.histogram("m.mid").observe(3);
        let report = r.report();
        assert_eq!(
            report.counters,
            vec![("a.first".to_string(), 2), ("z.last".to_string(), 1)]
        );
        assert_eq!(report.counter("a.first"), Some(2));
        assert_eq!(report.histogram("m.mid").unwrap().count, 1);
        assert_eq!(report.histogram("absent"), None);
        // Same name returns the same instance.
        r.counter("a.first").add(1);
        assert_eq!(r.report().counter("a.first"), Some(3));
    }

    #[test]
    fn summary_is_internally_consistent_under_concurrent_observes() {
        // Every observation is the same value, so any self-consistent
        // summary must satisfy sum == value × count and pin every
        // percentile to the value. The pre-fix summary read count,
        // sum, and each percentile in separate passes over the live
        // buckets, so a concurrent observe could land between passes
        // and tear them apart (e.g. sum > 0 with stale percentiles).
        use std::sync::atomic::AtomicBool;
        const VALUE: u64 = 3;
        let h = Arc::new(Histogram::with_cap(8));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (h, stop) = (Arc::clone(&h), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    h.observe(VALUE);
                }
            })
        };
        for _ in 0..10_000 {
            let s = h.summary();
            assert_eq!(s.sum, VALUE * s.count, "sum and count from one snapshot");
            if s.count > 0 {
                assert_eq!((s.min, s.p50, s.p95, s.p99, s.max), (3, 3, 3, 3, 3));
            }
            assert_eq!(s.clamped, 0);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
    }

    #[test]
    fn counter_add_saturates_instead_of_wrapping() {
        // A soak run that genuinely pegged a counter must read as
        // "pegged" forever, not wrap into a small, plausible-looking
        // number.
        let c = Counter::new();
        c.store(u64::MAX - 3);
        c.add(2);
        assert_eq!(c.get(), u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "saturates at the top");
        c.add(1);
        assert_eq!(c.get(), u64::MAX, "and stays there");
        c.inc();
        assert_eq!(c.get(), u64::MAX, "inc is add(1)");
    }

    #[test]
    fn sketch_buckets_values_by_log2() {
        assert_eq!(sketch_bucket(0), 0);
        assert_eq!(sketch_bucket(1), 1);
        assert_eq!(sketch_bucket(2), 2);
        assert_eq!(sketch_bucket(3), 2);
        assert_eq!(sketch_bucket(4), 3);
        assert_eq!(sketch_bucket(1023), 10);
        assert_eq!(sketch_bucket(1024), 11);
        assert_eq!(sketch_bucket(u64::MAX), 64);
        assert_eq!(sketch_bucket_top(0), 0);
        assert_eq!(sketch_bucket_top(1), 1);
        assert_eq!(sketch_bucket_top(2), 3);
        assert_eq!(sketch_bucket_top(64), u64::MAX);
        // Round trip: every value sits at or below its bucket's top,
        // and strictly above the previous bucket's top.
        for v in [0u64, 1, 2, 5, 100, 1 << 20, u64::MAX - 1, u64::MAX] {
            let k = sketch_bucket(v);
            assert!(v <= sketch_bucket_top(k));
            if k > 0 {
                assert!(v > sketch_bucket_top(k - 1));
            }
        }
    }

    /// SplitMix64 step, for seeded streams without a `rand`
    /// dependency.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn sketch_percentile_overestimates_by_less_than_two_x() {
        // A hand-picked stream, then three seeded soak-scale (10⁵)
        // streams spread log-uniformly over 1..2^40, the regime log₂
        // buckets are built for.
        let mut streams = vec![vec![1u64, 3, 7, 9, 20, 150, 151, 1000, 40_000, 1 << 33]];
        for seed in [42u64, 7, 1234] {
            let mut state = seed;
            streams.push(
                (0..100_000)
                    .map(|_| {
                        let r = splitmix64(&mut state);
                        let shift = (r >> 58) % 40;
                        1 + ((r & 0xffff_ffff) >> (32u64.saturating_sub(shift).min(31)))
                    })
                    .collect(),
            );
        }
        for mut values in streams {
            let mut s = SketchHistogram::new();
            for &v in &values {
                s.observe(v);
            }
            assert_eq!(s.count(), values.len() as u64);
            values.sort_unstable();
            for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                // Nearest-rank exact percentile over the sorted values.
                let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).max(1);
                let exact = values[rank - 1];
                let sketched = s.percentile(p).unwrap();
                assert!(sketched >= exact, "p{p}: {sketched} >= {exact}");
                assert!(
                    sketched < exact.saturating_mul(2).max(1),
                    "p{p}: {sketched} < 2×{exact}"
                );
            }
        }
    }

    #[test]
    fn sketch_never_clamps_where_the_exact_histogram_does() {
        // The documented trade: the exact histogram clamps visibly at
        // its cap; the sketch records the same stream with no clamping
        // and a bucket-resolution (≤ 2×) tail instead.
        let exact = Histogram::with_cap(4);
        let mut sketch = SketchHistogram::new();
        for v in [3u64, 4, 100, u64::MAX] {
            exact.observe(v);
            sketch.observe(v);
        }
        assert_eq!(exact.clamped(), 2);
        assert_eq!(exact.percentile(100.0), Some(4), "tail truncated at cap");
        assert_eq!(exact.sum(), 3 + 4 + 4 + 4, "sum is post-clamp");
        assert_eq!(sketch.count(), 4, "a sketch never clamps");
        assert_eq!(sketch.percentile(100.0), Some(u64::MAX), "tail survives");
    }

    #[test]
    fn sketch_merge_equals_observing_both_streams() {
        let mut a = SketchHistogram::new();
        let mut b = SketchHistogram::new();
        let mut both = SketchHistogram::new();
        for v in [0u64, 1, 5, 5, 900] {
            a.observe(v);
            both.observe(v);
        }
        for v in [2u64, 5, 1 << 40] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), both.percentile(p), "p{p}");
        }
    }

    #[test]
    fn empty_sketch_has_no_percentiles() {
        let s = SketchHistogram::new();
        assert_eq!(s.count(), 0);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(s.percentile(p), None, "p{p}");
        }
    }

    #[test]
    fn export_text_is_canonical_bytes() {
        let r = MetricsRegistry::new();
        r.counter("serve.answered").add(7);
        r.counter("serve.retries").add(2);
        let h = r.histogram_with_cap("span.request", 8);
        h.observe(1);
        h.observe(3);
        h.observe(100); // clamps to 8
        assert_eq!(
            r.report().export_text(),
            "counter serve.answered 7\n\
             counter serve.retries 2\n\
             histogram span.request count=3 sum=12 clamped=1 min=1 max=8 p50=3 p95=8 p99=8\n"
        );
        // Registration order never leaks into the rendering.
        let r2 = MetricsRegistry::new();
        let h2 = r2.histogram_with_cap("span.request", 8);
        h2.observe(100);
        h2.observe(3);
        h2.observe(1);
        r2.counter("serve.retries").add(2);
        r2.counter("serve.answered").add(7);
        assert_eq!(r2.report().export_text(), r.report().export_text());
    }

    #[test]
    fn sketch_percentile_edge_cases_pinned() {
        // p=0.0 and p=1.0 both resolve to rank 1 (nearest-rank takes
        // max(ceil(p/100·n), 1)): the smallest observation's bucket
        // top, not zero and not a panic.
        let mut s = SketchHistogram::new();
        for v in [6u64, 6, 6, 900] {
            s.observe(v);
        }
        assert_eq!(s.percentile(0.0), Some(7), "p0 = min bucket top");
        assert_eq!(s.percentile(1.0), Some(7), "p1 rank-clamps to rank 1");
        assert_eq!(s.percentile(100.0), Some(1023), "p100 = max bucket top");
        // Out-of-range p clamps rather than extrapolating.
        assert_eq!(s.percentile(-5.0), s.percentile(0.0));
        assert_eq!(s.percentile(250.0), s.percentile(100.0));

        // Single-bucket stream: every percentile is that bucket's top.
        let mut single = SketchHistogram::new();
        for _ in 0..50 {
            single.observe(5); // bucket 3, top 7
        }
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(single.percentile(p), Some(7), "p{p}");
        }
        // Zero-only stream: bucket 0's top is exactly 0.
        let mut zeros = SketchHistogram::new();
        zeros.observe(0);
        assert_eq!(zeros.percentile(100.0), Some(0));

        // Post-merge percentiles keep the edge behavior: merging an
        // empty sketch changes nothing, and p0/p100 of a merged
        // sketch span both input streams.
        let mut merged = SketchHistogram::new();
        merged.merge(&SketchHistogram::new());
        assert_eq!(merged.percentile(50.0), None, "empty ∪ empty = empty");
        merged.merge(&s);
        merged.merge(&single);
        assert_eq!(merged.percentile(0.0), Some(7));
        assert_eq!(merged.percentile(100.0), Some(1023));
        assert_eq!(merged.count(), 54);
    }

    #[test]
    fn sketch_merge_is_commutative() {
        let fill = |values: &[u64]| {
            let mut s = SketchHistogram::new();
            for &v in values {
                s.observe(v);
            }
            s
        };
        let xs = [0u64, 1, 7, 7, 300, 1 << 50];
        let ys = [2u64, 9, 1024, u64::MAX];
        let mut ab = fill(&xs);
        ab.merge(&fill(&ys));
        let mut ba = fill(&ys);
        ba.merge(&fill(&xs));
        assert_eq!(ab, ba);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(ab.percentile(p), ba.percentile(p), "p{p}");
        }
    }

    #[test]
    fn export_text_sorts_across_scopes_whatever_the_insertion_order() {
        // The perf-drift gate byte-compares export_text output, so
        // scope and key ordering must be a pure function of the name
        // set — never of which thread or code path registered first.
        let names = [
            "serve.tenant.retail.answered",
            "health.fired",
            "serve.answered",
            "a.first",
            "serve.tenant.hr.answered",
            "health.cleared",
        ];
        let render = |order: &[&str]| {
            let r = MetricsRegistry::new();
            for name in order {
                r.counter(name).add(1);
            }
            r.histogram("span.request").observe(3);
            r.report().export_text()
        };
        let mut reversed = names;
        reversed.reverse();
        let mut rotated = names;
        rotated.rotate_left(3);
        let baseline = render(&names);
        assert_eq!(baseline, render(&reversed));
        assert_eq!(baseline, render(&rotated));
        let counter_lines: Vec<&str> = baseline
            .lines()
            .filter(|l| l.starts_with("counter "))
            .collect();
        let mut sorted = counter_lines.clone();
        sorted.sort_unstable();
        assert_eq!(counter_lines, sorted, "counters render name-sorted");
    }

    #[test]
    fn observe_trace_fills_per_stage_histograms() {
        use crate::clock::ManualClock;
        use crate::span::TraceBuilder;
        let r = MetricsRegistry::new();
        let clock = Arc::new(ManualClock::new());
        let mut tb = TraceBuilder::new(0, clock as Arc<dyn crate::clock::Clock>);
        let root = tb.open("request");
        let inner = tb.open("stage");
        tb.close(inner);
        tb.close(root);
        r.observe_trace(&tb.finish());
        let report = r.report();
        assert_eq!(report.histogram("span.request").unwrap().p50, 3);
        assert_eq!(report.histogram("span.stage").unwrap().p50, 1);
    }
}
