//! Property tests for the windowed ring behind `WindowedCounter` and
//! `WindowedHistogram`: streams of `(tick, value)` records with ticks
//! in any order, over rings small enough (1–6 windows of 1–3 ticks)
//! that most streams rotate windows out and send some records in
//! older than the ring.

use nlidb_obs::{WindowedCounter, WindowedHistogram, WindowedScope};
use proptest::prelude::*;

/// One record: tick, value, and which half of a split receives it.
type Record = (u64, u64, bool);

/// Ticks span 16 windows of the widest ring, so every capacity sees
/// both rotation and too-old records. Values are positive: a record
/// of 0 would still advance the ring it is fed, while a merge skips
/// empty windows, so a split stream could end on an older head.
fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec((0u64..48, 1u64..5000, any::<bool>()), 0..64)
}

/// Every window a stream over `0..48` ticks can touch, and one past.
const WINDOWS: std::ops::RangeInclusive<u64> = 0..=48;

fn counter(width: u64, capacity: usize, records: &[Record]) -> WindowedCounter {
    let mut c = WindowedCounter::new(width, capacity);
    for &(tick, value, _) in records {
        c.record(tick, value);
    }
    c
}

fn histogram(width: u64, capacity: usize, records: &[Record]) -> WindowedHistogram {
    let mut h = WindowedHistogram::new(width, capacity);
    for &(tick, value, _) in records {
        h.record(tick, value);
    }
    h
}

fn scope(width: u64, capacity: usize, records: &[Record]) -> WindowedScope {
    let mut s = WindowedScope::new(width, capacity);
    for &(tick, value, _) in records {
        s.counter("requests").record(tick, value);
        s.histogram("sojourn").record(tick, value);
    }
    s
}

/// The two halves of a split, in stream order within each half.
fn split(records: &[Record]) -> (Vec<Record>, Vec<Record>) {
    records.iter().partition(|r| r.2)
}

fn counter_view(c: &WindowedCounter) -> (Vec<u64>, u64, u64) {
    (
        WINDOWS.map(|w| c.delta(w)).collect(),
        c.evicted(),
        c.total(),
    )
}

fn histogram_view(h: &WindowedHistogram) -> (Vec<(u64, Option<u64>)>, u64, u64) {
    (
        WINDOWS
            .map(|w| (h.count_in(w), h.percentile_in(w, 99.0)))
            .collect(),
        h.evicted_count(),
        h.total_count(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn a_counter_reconciles_after_every_record(
        records in records(),
        width in 1u64..4,
        capacity in 1usize..7,
    ) {
        let mut c = WindowedCounter::new(width, capacity);
        let mut sum = 0u64;
        for &(tick, value, _) in &records {
            c.record(tick, value);
            sum += value;
            prop_assert_eq!(c.retained_sum() + c.evicted(), c.total());
            prop_assert_eq!(c.total(), sum);
        }
    }

    #[test]
    fn a_histogram_counts_what_a_counter_of_ones_counts(
        records in records(),
        width in 1u64..4,
        capacity in 1usize..7,
    ) {
        let h = histogram(width, capacity, &records);
        let mut ones = WindowedCounter::new(width, capacity);
        for &(tick, _, _) in &records {
            ones.record(tick, 1);
        }
        for w in WINDOWS {
            prop_assert_eq!(h.count_in(w), ones.delta(w), "window {}", w);
        }
        prop_assert_eq!(h.evicted_count(), ones.evicted());
        prop_assert_eq!(h.total_count(), ones.total());
        prop_assert_eq!(h.retained_count() + h.evicted_count(), records.len() as u64);
    }

    #[test]
    fn merging_a_split_stream_equals_feeding_it_whole(
        records in records(),
        width in 1u64..4,
        capacity in 1usize..7,
    ) {
        let (left, right) = split(&records);

        let whole = counter_view(&counter(width, capacity, &records));
        let mut lr = counter(width, capacity, &left);
        lr.merge(&counter(width, capacity, &right));
        let mut rl = counter(width, capacity, &right);
        rl.merge(&counter(width, capacity, &left));
        prop_assert_eq!(&counter_view(&lr), &whole);
        prop_assert_eq!(&counter_view(&rl), &whole);

        let whole = histogram_view(&histogram(width, capacity, &records));
        let mut lr = histogram(width, capacity, &left);
        lr.merge(&histogram(width, capacity, &right));
        let mut rl = histogram(width, capacity, &right);
        rl.merge(&histogram(width, capacity, &left));
        prop_assert_eq!(&histogram_view(&lr), &whole);
        prop_assert_eq!(&histogram_view(&rl), &whole);

        let whole = scope(width, capacity, &records).render_text();
        let mut lr = scope(width, capacity, &left);
        lr.merge(&scope(width, capacity, &right));
        let mut rl = scope(width, capacity, &right);
        rl.merge(&scope(width, capacity, &left));
        prop_assert_eq!(&lr.render_text(), &whole);
        prop_assert_eq!(&rl.render_text(), &whole);
    }
}
