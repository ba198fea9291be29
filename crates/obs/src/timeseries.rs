//! Windowed time series over logical ticks.
//!
//! Everything else in this crate is *cumulative*: a
//! [`Counter`](crate::Counter) or [`SketchHistogram`] answers "what happened
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
//!   Both series are one ring, generic over what a window holds: a
//!   count for the counter, a [`SketchHistogram`] for the histogram.
//! * Rendering is canonical: [`WindowedScope::render_text`] emits
//!   series in sorted name order over one shared window range, so two
//!   identical runs render byte-identical window matrices.
//!
//! All arithmetic is saturating integer math (rates are reported in
//! milli-units per tick) — no floats feed any rendered byte.

use std::collections::BTreeMap;

use crate::metrics::SketchHistogram;

/// What one window of a [`Ring`] holds: a count for a
/// [`WindowedCounter`], a sketch for a [`WindowedHistogram`].
trait Cell: Clone + Default {
    /// Whether nothing has been recorded into the cell.
    fn is_empty(&self) -> bool;
    /// Add `other` into `self` (saturating).
    fn absorb(&mut self, other: &Self);
}

impl Cell for u64 {
    fn is_empty(&self) -> bool {
        *self == 0
    }

    fn absorb(&mut self, other: &u64) {
        *self = self.saturating_add(*other);
    }
}

impl Cell for SketchHistogram {
    fn is_empty(&self) -> bool {
        self.count() == 0
    }

    fn absorb(&mut self, other: &SketchHistogram) {
        self.merge(other);
    }
}

/// The ring both windowed series are built on: window `w` (ticks
/// `w·width ..= w·width + width − 1`) lives in slot `w % capacity`
/// while it is one of the `capacity` newest windows, i.e. in
/// `(head − capacity, head]`. Windows that rotate out, and records
/// too old for the ring (possible only when ticks arrive out of order
/// across more than `capacity` windows), fold into `evicted`, so
/// nothing recorded is ever dropped.
#[derive(Debug, Clone)]
struct Ring<C> {
    width: u64,
    slots: Vec<C>,
    /// Newest window observed; `None` before the first record.
    head: Option<u64>,
    evicted: C,
}

impl<C: Cell> Ring<C> {
    fn new(width: u64, capacity: usize) -> Ring<C> {
        assert!(width > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        Ring {
            width,
            slots: vec![C::default(); capacity],
            head: None,
            evicted: C::default(),
        }
    }

    fn slot(&self, window: u64) -> usize {
        (window % self.slots.len() as u64) as usize
    }

    /// Oldest retained window index (0 before any observation).
    fn oldest(&self) -> u64 {
        self.head
            .map_or(0, |h| h.saturating_sub(self.slots.len() as u64 - 1))
    }

    /// `(oldest, head)`, or `None` before any observation.
    fn span(&self) -> Option<(u64, u64)> {
        self.head.map(|h| (self.oldest(), h))
    }

    /// Advance so `window` is retained (no-op unless it is newer than
    /// the head). Windows rotating out fold into `evicted`.
    fn advance_to(&mut self, window: u64) {
        let Some(head) = self.head else {
            self.head = Some(window);
            return;
        };
        if window <= head {
            return;
        }
        // A jump of a full turn or more rotates every slot out once.
        let first = (head + 1).max(window.saturating_sub(self.slots.len() as u64 - 1));
        for w in first..=window {
            let slot = self.slot(w);
            let rotated = std::mem::take(&mut self.slots[slot]);
            self.evicted.absorb(&rotated);
        }
        self.head = Some(window);
    }

    /// The cell of a retained `window`; `None` outside the ring.
    fn cell(&self, window: u64) -> Option<&C> {
        let (oldest, head) = self.span()?;
        (oldest..=head)
            .contains(&window)
            .then(|| &self.slots[self.slot(window)])
    }

    /// Where a record at `tick` lands (see [`Ring::cell_at`]).
    fn cell_for(&mut self, tick: u64) -> &mut C {
        self.cell_at(tick / self.width)
    }

    /// Where a record in `window` lands: its slot, after advancing the
    /// ring, or `evicted` when the window is too old for it.
    fn cell_at(&mut self, window: u64) -> &mut C {
        self.advance_to(window);
        if window < self.oldest() {
            &mut self.evicted
        } else {
            let slot = self.slot(window);
            &mut self.slots[slot]
        }
    }

    /// Retained `(window, cell)` pairs, oldest first.
    fn retained(&self) -> impl Iterator<Item = (u64, &C)> + '_ {
        self.span()
            .into_iter()
            .flat_map(|(oldest, head)| oldest..=head)
            .map(|w| (w, &self.slots[self.slot(w)]))
    }

    /// Fold `other` in, window by window. Panics if the widths differ
    /// (the series would not share a time base). Windows of `other`
    /// older than the merged ring fold into `evicted`, so nothing is
    /// dropped by a merge either.
    fn merge(&mut self, other: &Ring<C>) {
        assert_eq!(self.width, other.width, "windowed merge: width mismatch");
        self.evicted.absorb(&other.evicted);
        for (w, theirs) in other.retained() {
            if !theirs.is_empty() {
                self.cell_at(w).absorb(theirs);
            }
        }
    }
}

/// A counter bucketed into fixed-width logical-tick windows, retained
/// in a bounded ring.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    ring: Ring<u64>,
    /// Lifetime total, kept apart from the ring: E21's
    /// `retained_sum() + evicted() == total()` compares two tallies.
    total: u64,
}

impl WindowedCounter {
    /// A new series with `width` ticks per window retaining the most
    /// recent `capacity` windows. Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> WindowedCounter {
        WindowedCounter {
            ring: Ring::new(width, capacity),
            total: 0,
        }
    }

    /// Record `n` events at `tick` (saturating).
    pub fn record(&mut self, tick: u64, n: u64) {
        self.total = self.total.saturating_add(n);
        self.ring.cell_for(tick).absorb(&n);
    }

    /// Advance the ring so `window` is retained; quiet windows then
    /// read as zero.
    pub(crate) fn advance_to(&mut self, window: u64) {
        self.ring.advance_to(window);
    }

    /// The count recorded in `window`, 0 outside the retained range.
    pub fn delta(&self, window: u64) -> u64 {
        self.ring.cell(window).copied().unwrap_or(0)
    }

    /// Sum of the counts recorded over the last `k` retained windows
    /// ending at the head (fewer if the series is younger than `k`).
    pub(crate) fn sum_last(&self, k: u64) -> u64 {
        let Some((oldest, head)) = self.ring.span() else {
            return 0;
        };
        if k == 0 {
            return 0;
        }
        let from = head.saturating_sub(k - 1).max(oldest);
        (from..=head)
            .map(|w| self.delta(w))
            .fold(0, u64::saturating_add)
    }

    /// Lifetime total (saturating), including evicted windows.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total folded out of the ring by eviction.
    pub fn evicted(&self) -> u64 {
        self.ring.evicted
    }

    /// Sum over the retained ring. By construction
    /// `retained_sum() + evicted() == total()` exactly (modulo
    /// saturation at `u64::MAX`).
    pub fn retained_sum(&self) -> u64 {
        self.ring
            .retained()
            .map(|(_, &n)| n)
            .fold(0, u64::saturating_add)
    }

    /// Fold `other` into `self`, window by window (panics on width
    /// mismatch); reconciliation still holds after a merge.
    pub fn merge(&mut self, other: &WindowedCounter) {
        self.ring.merge(&other.ring);
        self.total = self.total.saturating_add(other.total);
    }
}

/// A sketch histogram bucketed into fixed-width logical-tick windows:
/// one [`SketchHistogram`] per window in a bounded ring, with windows
/// that rotate out folded into an evicted sketch so lifetime counts
/// reconcile exactly.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    ring: Ring<SketchHistogram>,
}

impl WindowedHistogram {
    /// A new series with `width` ticks per window retaining the most
    /// recent `capacity` windows. Panics if either is zero.
    pub fn new(width: u64, capacity: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: Ring::new(width, capacity),
        }
    }

    /// Record one observation of `value` at `tick`.
    pub fn record(&mut self, tick: u64, value: u64) {
        self.ring.cell_for(tick).observe(value);
    }

    /// Observation count in `window` (0 outside the retained range).
    pub fn count_in(&self, window: u64) -> u64 {
        self.ring.cell(window).map_or(0, SketchHistogram::count)
    }

    /// Bucket-resolution nearest-rank percentile within `window`
    /// (see [`SketchHistogram::percentile`]). `None` when the window
    /// holds no observations.
    pub fn percentile_in(&self, window: u64, p: f64) -> Option<u64> {
        self.ring.cell(window).and_then(|c| c.percentile(p))
    }

    /// Lifetime observation count, including evicted windows.
    pub fn total_count(&self) -> u64 {
        self.retained_count().saturating_add(self.evicted_count())
    }

    /// Observation count folded out of the ring by eviction.
    pub fn evicted_count(&self) -> u64 {
        self.ring.evicted.count()
    }

    /// Observation count over the retained ring.
    pub fn retained_count(&self) -> u64 {
        self.ring
            .retained()
            .map(|(_, c)| c.count())
            .fold(0, u64::saturating_add)
    }

    /// Fold `other` into `self`, window by window (panics on width
    /// mismatch).
    pub fn merge(&mut self, other: &WindowedHistogram) {
        self.ring.merge(&other.ring);
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

    /// Shared retained window range across every non-empty series:
    /// `(oldest, newest)`, or `None` if nothing has been observed.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        self.counters
            .values()
            .filter_map(|c| c.ring.span())
            .chain(self.histograms.values().filter_map(|h| h.ring.span()))
            .reduce(|(a, b), (lo, hi)| (a.min(lo), b.max(hi)))
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
        assert_eq!(c.sum_last(2), 12);
        assert_eq!(
            c.sum_last(9),
            15,
            "a span longer than the series reads all of it"
        );
        assert_eq!(c.ring.span(), Some((0, 2)));
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
        assert_eq!(c.ring.span(), Some((16, 19)));
        // A jump far past the ring rotates everything out.
        c.record(1000, 1);
        assert_eq!(c.retained_sum(), 1);
        assert_eq!(c.retained_sum() + c.evicted(), c.total());
    }

    #[test]
    fn a_jump_to_the_last_tick_rotates_the_ring_once() {
        let mut c = WindowedCounter::new(1, 4);
        c.record(0, 3);
        c.record(u64::MAX, 1);
        assert_eq!(c.ring.span(), Some((u64::MAX - 3, u64::MAX)));
        assert_eq!((c.delta(u64::MAX), c.evicted(), c.total()), (1, 3, 4));
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
        // p50 of {1,2,3,200}: rank 2 → value 2 → bucket top 3.
        assert_eq!(h.percentile_in(0, 50.0), Some(3));
        assert_eq!(h.percentile_in(1, 99.0), Some(1023));
        assert_eq!(h.percentile_in(2, 99.0), None);
        assert_eq!(h.total_count(), 5);
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
    fn empty_scope_renders_empty_marker() {
        let scope = WindowedScope::new(4, 8);
        assert_eq!(scope.render_text(), "windows width=4 (empty)\n");
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
