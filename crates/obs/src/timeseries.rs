//! Windowed time series over logical ticks.
//!
//! Everything else in this crate is *cumulative*: a
//! [`Counter`](crate::Counter) or
//! [`SketchHistogram`](crate::SketchHistogram) answers "what happened
//! since boot", never "what is happening now". This module adds the
//! time dimension without giving up determinism or bounded memory:
//!
//! * Time is the same logical tick the rest of the workspace uses —
//!   a [`WindowedCounter`] is fed `(tick, n)` pairs and maps each tick
//!   into a fixed-width window `tick / width`. No wall clock exists.
//! * Retention is a bounded ring of the most recent `capacity`
//!   windows. Counts that rotate out of the ring are folded into an
//!   `evicted` total, so the reconciliation invariant
//!   `sum(retained windows) + evicted == total` holds *exactly* at all
//!   times — experiment E21 asserts it against the serving counters.
//! * Rendering is canonical: [`WindowedScope::render_text`] and
//!   [`WindowedScope::render_jsonl`] emit series in sorted name order
//!   over one shared window range, so two identical runs render
//!   byte-identical window matrices.
//!
//! All arithmetic is saturating integer math (rates are reported in
//! milli-units per tick) — no floats feed any rendered byte.

use std::collections::BTreeMap;

use crate::metrics::{sketch_bucket, sketch_percentile_of, SKETCH_BUCKETS};

/// A counter bucketed into fixed-width logical-tick windows, retained
/// in a bounded ring.
///
/// Observations older than the retained range (possible only if the
/// caller feeds ticks out of order across more than `capacity`
/// windows) are folded straight into the evicted total so nothing is
/// ever silently dropped.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    width: u64,
    /// Ring slot for window `w` is `w % capacity`; only windows in
    /// `(head - capacity, head]` are live.
    ring: Vec<u64>,
    /// Newest window index that has been observed (valid once
    /// `initialized`).
    head: u64,
    initialized: bool,
    evicted: u64,
    total: u64,
}

impl WindowedCounter {
    /// A new series with `width` ticks per window retaining the most
    /// recent `capacity` windows. Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> WindowedCounter {
        assert!(width > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        WindowedCounter {
            width,
            ring: vec![0; capacity],
            head: 0,
            initialized: false,
            evicted: 0,
            total: 0,
        }
    }

    /// Ticks per window.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of windows the ring retains.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The window index `tick` falls into.
    pub fn window_of(&self, tick: u64) -> u64 {
        tick / self.width
    }

    /// Record `n` events at `tick` (saturating).
    pub fn record(&mut self, tick: u64, n: u64) {
        let w = self.window_of(tick);
        self.advance_to(w);
        self.total = self.total.saturating_add(n);
        let oldest = self.oldest();
        if w < oldest {
            // Out-of-order past the ring: account it, don't drop it.
            self.evicted = self.evicted.saturating_add(n);
        } else {
            let slot = (w % self.ring.len() as u64) as usize;
            self.ring[slot] = self.ring[slot].saturating_add(n);
        }
    }

    /// Advance the ring so `window` is retained (no-op if it is not
    /// newer than the head). Windows rotating out fold into `evicted`.
    pub fn advance_to(&mut self, window: u64) {
        if !self.initialized {
            self.head = window;
            self.initialized = true;
            return;
        }
        if window <= self.head {
            return;
        }
        let cap = self.ring.len() as u64;
        let steps = window - self.head;
        if steps >= cap {
            // Every retained window rotates out.
            for slot in &mut self.ring {
                self.evicted = self.evicted.saturating_add(*slot);
                *slot = 0;
            }
        } else {
            for w in (self.head + 1)..=window {
                let slot = (w % cap) as usize;
                self.evicted = self.evicted.saturating_add(self.ring[slot]);
                self.ring[slot] = 0;
            }
        }
        self.head = window;
    }

    /// Oldest retained window index (0 before any observation).
    pub fn oldest(&self) -> u64 {
        if !self.initialized {
            return 0;
        }
        let span = self.ring.len() as u64 - 1;
        self.head.saturating_sub(span)
    }

    /// Newest retained window index (0 before any observation).
    pub fn head(&self) -> u64 {
        if self.initialized {
            self.head
        } else {
            0
        }
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        !self.initialized
    }

    /// The count recorded in `window`, 0 outside the retained range.
    pub fn delta(&self, window: u64) -> u64 {
        if !self.initialized || window > self.head || window < self.oldest() {
            return 0;
        }
        self.ring[(window % self.ring.len() as u64) as usize]
    }

    /// Sum of the counts recorded over the last `k` retained windows
    /// ending at the head (fewer if the series is younger than `k`).
    pub fn sum_last(&self, k: u64) -> u64 {
        if !self.initialized || k == 0 {
            return 0;
        }
        let from = self.head.saturating_sub(k - 1).max(self.oldest());
        (from..=self.head).map(|w| self.delta(w)).sum()
    }

    /// Events per tick in `window`, in milli-units
    /// (`delta * 1000 / width`, integer).
    pub fn rate_milli(&self, window: u64) -> u64 {
        self.delta(window).saturating_mul(1000) / self.width
    }

    /// Lifetime total (saturating), including evicted windows.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total folded out of the ring by eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Sum over the retained ring. By construction
    /// `retained_sum() + evicted() == total()` exactly (modulo
    /// saturation at `u64::MAX`).
    pub fn retained_sum(&self) -> u64 {
        let mut sum = 0u64;
        for &slot in &self.ring {
            sum = sum.saturating_add(slot);
        }
        sum
    }

    /// Retained `(window, count)` pairs, oldest first.
    pub fn windows(&self) -> Vec<(u64, u64)> {
        if !self.initialized {
            return Vec::new();
        }
        (self.oldest()..=self.head)
            .map(|w| (w, self.delta(w)))
            .collect()
    }

    /// Fold `other` into `self`, window by window. Panics if the
    /// widths differ (the series would not share a time base).
    /// Windows of `other` older than the merged ring fold into
    /// `evicted`, so reconciliation still holds after a merge.
    pub fn merge(&mut self, other: &WindowedCounter) {
        assert_eq!(self.width, other.width, "windowed merge: width mismatch");
        self.evicted = self.evicted.saturating_add(other.evicted);
        // `record` re-adds to total, so splice totals manually: the
        // retained windows are replayed below, evicted already folded.
        for (w, n) in other.windows() {
            if n == 0 {
                continue;
            }
            self.advance_to(w);
            if w < self.oldest() {
                self.evicted = self.evicted.saturating_add(n);
            } else {
                let slot = (w % self.ring.len() as u64) as usize;
                self.ring[slot] = self.ring[slot].saturating_add(n);
            }
        }
        self.total = self.total.saturating_add(other.total);
    }
}

/// Per-window sketch cells: the plain-integer core of a
/// [`SketchHistogram`](crate::SketchHistogram) (no atomics — a
/// windowed series is owned by one writer).
#[derive(Debug, Clone)]
struct SketchCells {
    buckets: [u64; SKETCH_BUCKETS],
    count: u64,
    sum: u64,
}

impl SketchCells {
    fn new() -> SketchCells {
        SketchCells {
            buckets: [0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        self.buckets[sketch_bucket(value)] = self.buckets[sketch_bucket(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    fn fold_into(&self, other: &mut SketchCells) {
        for (mine, theirs) in other.buckets.iter_mut().zip(&self.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        other.count = other.count.saturating_add(self.count);
        other.sum = other.sum.saturating_add(self.sum);
    }

    fn clear(&mut self) {
        self.buckets = [0; SKETCH_BUCKETS];
        self.count = 0;
        self.sum = 0;
    }
}

/// A sketch histogram bucketed into fixed-width logical-tick windows:
/// per-window log₂ value buckets in a bounded ring, with windows that
/// rotate out folded into an evicted sketch so lifetime count/sum
/// reconcile exactly.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    width: u64,
    ring: Vec<SketchCells>,
    head: u64,
    initialized: bool,
    evicted: SketchCells,
}

impl WindowedHistogram {
    /// A new series with `width` ticks per window retaining the most
    /// recent `capacity` windows. Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> WindowedHistogram {
        assert!(width > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        WindowedHistogram {
            width,
            ring: vec![SketchCells::new(); capacity],
            head: 0,
            initialized: false,
            evicted: SketchCells::new(),
        }
    }

    /// Ticks per window.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The window index `tick` falls into.
    pub fn window_of(&self, tick: u64) -> u64 {
        tick / self.width
    }

    /// Record one observation of `value` at `tick`.
    pub fn record(&mut self, tick: u64, value: u64) {
        let w = self.window_of(tick);
        self.advance_to(w);
        if w < self.oldest() {
            self.evicted.observe(value);
        } else {
            let slot = (w % self.ring.len() as u64) as usize;
            self.ring[slot].observe(value);
        }
    }

    fn advance_to(&mut self, window: u64) {
        if !self.initialized {
            self.head = window;
            self.initialized = true;
            return;
        }
        if window <= self.head {
            return;
        }
        let cap = self.ring.len() as u64;
        let steps = window - self.head;
        if steps >= cap {
            for slot in &mut self.ring {
                slot.fold_into(&mut self.evicted);
                slot.clear();
            }
        } else {
            for w in (self.head + 1)..=window {
                let slot = (w % cap) as usize;
                self.ring[slot].fold_into(&mut self.evicted);
                self.ring[slot].clear();
            }
        }
        self.head = window;
    }

    /// Oldest retained window index (0 before any observation).
    pub fn oldest(&self) -> u64 {
        if !self.initialized {
            return 0;
        }
        self.head.saturating_sub(self.ring.len() as u64 - 1)
    }

    /// Newest retained window index (0 before any observation).
    pub fn head(&self) -> u64 {
        if self.initialized {
            self.head
        } else {
            0
        }
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        !self.initialized
    }

    fn cells(&self, window: u64) -> Option<&SketchCells> {
        if !self.initialized || window > self.head || window < self.oldest() {
            return None;
        }
        Some(&self.ring[(window % self.ring.len() as u64) as usize])
    }

    /// Observation count in `window` (0 outside the retained range).
    pub fn count_in(&self, window: u64) -> u64 {
        self.cells(window).map_or(0, |c| c.count)
    }

    /// Saturating value sum in `window` (0 outside the retained range).
    pub fn sum_in(&self, window: u64) -> u64 {
        self.cells(window).map_or(0, |c| c.sum)
    }

    /// Bucket-resolution nearest-rank percentile within `window`
    /// (upper bound of the matched log₂ bucket, like
    /// [`SketchHistogram::percentile`](crate::SketchHistogram::percentile)).
    /// `None` when the window holds no observations.
    pub fn percentile_in(&self, window: u64, p: f64) -> Option<u64> {
        self.cells(window)
            .and_then(|c| sketch_percentile_of(&c.buckets, p))
    }

    /// Percentile over the last `k` retained windows ending at the
    /// head, folding their buckets together.
    pub fn percentile_last(&self, k: u64, p: f64) -> Option<u64> {
        if !self.initialized || k == 0 {
            return None;
        }
        let from = self.head.saturating_sub(k - 1).max(self.oldest());
        let mut folded = SketchCells::new();
        for w in from..=self.head {
            if let Some(c) = self.cells(w) {
                c.fold_into(&mut folded);
            }
        }
        sketch_percentile_of(&folded.buckets, p)
    }

    /// Lifetime observation count, including evicted windows.
    pub fn total_count(&self) -> u64 {
        self.retained_count().saturating_add(self.evicted.count)
    }

    /// Lifetime saturating value sum, including evicted windows.
    pub fn total_sum(&self) -> u64 {
        let mut sum = self.evicted.sum;
        for c in &self.ring {
            sum = sum.saturating_add(c.sum);
        }
        sum
    }

    /// Observation count folded out of the ring by eviction.
    pub fn evicted_count(&self) -> u64 {
        self.evicted.count
    }

    /// Observation count over the retained ring.
    pub fn retained_count(&self) -> u64 {
        let mut count = 0u64;
        for c in &self.ring {
            count = count.saturating_add(c.count);
        }
        count
    }

    /// Fold `other` into `self`, window by window (panics on width
    /// mismatch). Like the counter merge, nothing is dropped: windows
    /// older than the merged ring fold into the evicted sketch.
    pub fn merge(&mut self, other: &WindowedHistogram) {
        assert_eq!(self.width, other.width, "windowed merge: width mismatch");
        other.evicted.fold_into(&mut self.evicted);
        if !other.initialized {
            return;
        }
        for w in other.oldest()..=other.head {
            let Some(theirs) = other.cells(w) else {
                continue;
            };
            if theirs.count == 0 && theirs.sum == 0 {
                continue;
            }
            self.advance_to(w);
            if w < self.oldest() {
                theirs.fold_into(&mut self.evicted);
            } else {
                let slot = (w % self.ring.len() as u64) as usize;
                let cloned = theirs.clone();
                cloned.fold_into(&mut self.ring[slot]);
            }
        }
    }
}

/// A named family of windowed series sharing one width and ring
/// capacity, with canonical byte-reproducible renderings of the
/// resulting window matrix.
#[derive(Debug, Clone)]
pub struct WindowedScope {
    width: u64,
    capacity: usize,
    counters: BTreeMap<String, WindowedCounter>,
    histograms: BTreeMap<String, WindowedHistogram>,
}

impl WindowedScope {
    /// A new scope whose series use `width`-tick windows and retain
    /// `capacity` of them. Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> WindowedScope {
        assert!(width > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        WindowedScope {
            width,
            capacity,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Ticks per window.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The window index `tick` falls into.
    pub fn window_of(&self, tick: u64) -> u64 {
        tick / self.width
    }

    /// The counter series named `name`, created empty on first use.
    pub fn counter(&mut self, name: &str) -> &mut WindowedCounter {
        let (width, capacity) = (self.width, self.capacity);
        self.counters
            .entry(name.to_string())
            .or_insert_with(|| WindowedCounter::new(width, capacity))
    }

    /// The histogram series named `name`, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut WindowedHistogram {
        let (width, capacity) = (self.width, self.capacity);
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| WindowedHistogram::new(width, capacity))
    }

    /// The counter series named `name`, if it exists.
    pub fn counter_ref(&self, name: &str) -> Option<&WindowedCounter> {
        self.counters.get(name)
    }

    /// The histogram series named `name`, if it exists.
    pub fn histogram_ref(&self, name: &str) -> Option<&WindowedHistogram> {
        self.histograms.get(name)
    }

    /// Counter series names, sorted.
    pub fn counter_names(&self) -> Vec<&str> {
        self.counters.keys().map(String::as_str).collect()
    }

    /// Shared retained window range across every non-empty series:
    /// `(oldest, newest)`, or `None` if nothing has been observed.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        let mut range: Option<(u64, u64)> = None;
        let spans = self
            .counters
            .values()
            .filter(|c| !c.is_empty())
            .map(|c| (c.oldest(), c.head()))
            .chain(
                self.histograms
                    .values()
                    .filter(|h| !h.is_empty())
                    .map(|h| (h.oldest(), h.head())),
            );
        for (lo, hi) in spans {
            range = Some(match range {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
        range
    }

    /// Canonical text rendering of the window matrix: a header line,
    /// then one line per series in sorted name order (counters first),
    /// every series printed over the same shared window range. Window
    /// deltas outside a series' retained ring print as 0.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let Some((from, to)) = self.window_range() else {
            out.push_str(&format!("windows width={} (empty)\n", self.width));
            return out;
        };
        out.push_str(&format!(
            "windows width={} from=w{} to=w{}\n",
            self.width, from, to
        ));
        for (name, series) in &self.counters {
            out.push_str(&format!("counter {name} |"));
            for w in from..=to {
                out.push_str(&format!(" {}", series.delta(w)));
            }
            out.push_str(&format!(
                " | total={} evicted={}\n",
                series.total(),
                series.evicted()
            ));
        }
        for (name, series) in &self.histograms {
            out.push_str(&format!("histogram {name}.count |"));
            for w in from..=to {
                out.push_str(&format!(" {}", series.count_in(w)));
            }
            out.push_str(&format!(
                " | total={} evicted={}\n",
                series.total_count(),
                series.evicted_count()
            ));
            out.push_str(&format!("histogram {name}.p99 |"));
            for w in from..=to {
                out.push_str(&format!(" {}", series.percentile_in(w, 99.0).unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }

    /// Canonical JSONL rendering: one line per series, sorted name
    /// order (counters first), deltas over the shared window range.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let Some((from, to)) = self.window_range() else {
            return out;
        };
        for (name, series) in &self.counters {
            let deltas: Vec<String> = (from..=to).map(|w| series.delta(w).to_string()).collect();
            out.push_str(&format!(
                "{{\"series\":\"{}\",\"kind\":\"counter\",\"width\":{},\"base\":{},\"deltas\":[{}],\"total\":{},\"evicted\":{}}}\n",
                escape(name),
                self.width,
                from,
                deltas.join(","),
                series.total(),
                series.evicted()
            ));
        }
        for (name, series) in &self.histograms {
            let counts: Vec<String> = (from..=to)
                .map(|w| series.count_in(w).to_string())
                .collect();
            let p99s: Vec<String> = (from..=to)
                .map(|w| series.percentile_in(w, 99.0).unwrap_or(0).to_string())
                .collect();
            out.push_str(&format!(
                "{{\"series\":\"{}\",\"kind\":\"histogram\",\"width\":{},\"base\":{},\"counts\":[{}],\"p99\":[{}],\"total\":{},\"evicted\":{}}}\n",
                escape(name),
                self.width,
                from,
                counts.join(","),
                p99s.join(","),
                series.total_count(),
                series.evicted_count()
            ));
        }
        out
    }

    /// Fold `other` into `self`, series by series (panics on width
    /// mismatch). Series missing on either side are created.
    pub fn merge(&mut self, other: &WindowedScope) {
        assert_eq!(self.width, other.width, "scope merge: width mismatch");
        for (name, series) in &other.counters {
            self.counter(name).merge(series);
        }
        for (name, series) in &other.histograms {
            self.histogram(name).merge(series);
        }
    }
}

/// Minimal JSON string escaping for series names (which are
/// identifier-like in practice; this keeps the rendering total).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_and_deltas() {
        let mut c = WindowedCounter::new(4, 8);
        c.record(0, 2); // w0
        c.record(3, 1); // w0
        c.record(4, 5); // w1
        c.record(11, 7); // w2
        assert_eq!(c.delta(0), 3);
        assert_eq!(c.delta(1), 5);
        assert_eq!(c.delta(2), 7);
        assert_eq!(c.delta(3), 0);
        assert_eq!(c.total(), 15);
        assert_eq!(c.evicted(), 0);
        assert_eq!(c.retained_sum(), 15);
        assert_eq!(c.rate_milli(1), 1250);
        assert_eq!(c.sum_last(2), 12);
        assert_eq!(c.windows(), vec![(0, 3), (1, 5), (2, 7)]);
    }

    #[test]
    fn counter_eviction_reconciles_exactly() {
        let mut c = WindowedCounter::new(2, 4);
        for tick in 0..40 {
            c.record(tick, tick + 1);
        }
        let expected_total: u64 = (1..=40).sum();
        assert_eq!(c.total(), expected_total);
        assert_eq!(c.retained_sum() + c.evicted(), c.total());
        assert_eq!(c.oldest(), c.head() - 3);
        // A jump far past the ring rotates everything out.
        c.record(1000, 1);
        assert_eq!(c.retained_sum(), 1);
        assert_eq!(c.retained_sum() + c.evicted(), c.total());
    }

    #[test]
    fn counter_out_of_order_past_ring_goes_to_evicted() {
        let mut c = WindowedCounter::new(1, 4);
        c.record(100, 1);
        c.record(3, 9); // far older than the retained range
        assert_eq!(c.delta(3), 0);
        assert_eq!(c.evicted(), 9);
        assert_eq!(c.total(), 10);
        assert_eq!(c.retained_sum() + c.evicted(), c.total());
    }

    #[test]
    fn counter_merge_reconciles() {
        let mut a = WindowedCounter::new(4, 8);
        let mut b = WindowedCounter::new(4, 8);
        a.record(0, 1);
        a.record(9, 2);
        b.record(5, 10);
        b.record(30, 4);
        let (ta, tb) = (a.total(), b.total());
        a.merge(&b);
        assert_eq!(a.total(), ta + tb);
        assert_eq!(a.retained_sum() + a.evicted(), a.total());
        assert_eq!(a.delta(1), 10); // b's window-1 burst
        assert_eq!(a.delta(2), 2); // a's tick-9 observation
        assert_eq!(a.delta(7), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn counter_merge_width_mismatch_panics() {
        let mut a = WindowedCounter::new(4, 8);
        let b = WindowedCounter::new(2, 8);
        a.merge(&b);
    }

    #[test]
    fn histogram_percentiles_per_window() {
        let mut h = WindowedHistogram::new(4, 8);
        for v in [1u64, 2, 3, 200] {
            h.record(0, v);
        }
        h.record(5, 1000);
        assert_eq!(h.count_in(0), 4);
        assert_eq!(h.sum_in(0), 206);
        // p50 of {1,2,3,200}: rank 2 → value 2 → bucket top 3.
        assert_eq!(h.percentile_in(0, 50.0), Some(3));
        assert_eq!(h.percentile_in(1, 99.0), Some(1023));
        assert_eq!(h.percentile_in(2, 99.0), None);
        assert_eq!(h.percentile_last(2, 100.0), Some(1023));
        assert_eq!(h.total_count(), 5);
        assert_eq!(h.total_sum(), 1206);
    }

    #[test]
    fn histogram_eviction_and_merge_reconcile() {
        let mut h = WindowedHistogram::new(1, 4);
        for tick in 0..32 {
            h.record(tick, 7);
        }
        assert_eq!(h.total_count(), 32);
        assert_eq!(h.retained_count(), 4);
        assert_eq!(h.evicted_count(), 28);
        assert_eq!(h.total_sum(), 32 * 7);

        let mut other = WindowedHistogram::new(1, 4);
        other.record(31, 9);
        other.record(2, 1); // lands in evicted on merge (too old)
        h.merge(&other);
        assert_eq!(h.total_count(), 34);
        assert_eq!(h.retained_count() + h.evicted_count(), 34);
    }

    #[test]
    fn scope_renders_canonically_regardless_of_insertion_order() {
        let render = |names: &[&str]| {
            let mut scope = WindowedScope::new(4, 8);
            for name in names {
                scope.counter(name);
            }
            scope.counter("b").record(0, 1);
            scope.counter("a").record(5, 2);
            scope.histogram("lat").record(5, 9);
            scope.render_text()
        };
        let forward = render(&["a", "b"]);
        let reverse = render(&["b", "a"]);
        assert_eq!(forward, reverse);
        assert!(forward.starts_with("windows width=4 from=w0 to=w1\n"));
        let lines: Vec<&str> = forward.lines().collect();
        assert_eq!(lines[1], "counter a | 0 2 | total=2 evicted=0");
        assert_eq!(lines[2], "counter b | 1 0 | total=1 evicted=0");
        assert_eq!(lines[3], "histogram lat.count | 0 1 | total=1 evicted=0");
        assert_eq!(lines[4], "histogram lat.p99 | 0 15");
    }

    #[test]
    fn scope_jsonl_is_line_per_series() {
        let mut scope = WindowedScope::new(2, 4);
        scope.counter("x").record(0, 3);
        scope.histogram("y").record(2, 5);
        let jsonl = scope.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"series\":\"x\",\"kind\":\"counter\",\"width\":2,\"base\":0,\"deltas\":[3,0],\"total\":3,\"evicted\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"series\":\"y\",\"kind\":\"histogram\",\"width\":2,\"base\":0,\"counts\":[0,1],\"p99\":[0,7],\"total\":1,\"evicted\":0}"
        );
    }

    #[test]
    fn empty_scope_renders_empty_marker() {
        let scope = WindowedScope::new(4, 8);
        assert_eq!(scope.render_text(), "windows width=4 (empty)\n");
        assert_eq!(scope.render_jsonl(), "");
    }

    #[test]
    fn scope_merge_folds_series() {
        let mut a = WindowedScope::new(4, 8);
        let mut b = WindowedScope::new(4, 8);
        a.counter("req").record(0, 1);
        b.counter("req").record(0, 2);
        b.counter("other").record(4, 3);
        b.histogram("lat").record(0, 100);
        a.merge(&b);
        assert_eq!(a.counter_ref("req").unwrap().delta(0), 3);
        assert_eq!(a.counter_ref("other").unwrap().delta(1), 3);
        assert_eq!(a.histogram_ref("lat").unwrap().total_count(), 1);
    }
}
