//! Lock-free metric primitives: monotonic counters, gauges and
//! log2-bucketed histograms, all single-atomic on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one (when recording is enabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (when recording is enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.force_add(n);
        }
    }

    /// Adds `n` unconditionally, bypassing the enable switch.
    #[inline]
    pub fn force_add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point level (queue depth, cost, …).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Stores `v` (when recording is enabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.force_set(v);
        }
    }

    /// Stores `v` unconditionally.
    #[inline]
    pub fn force_set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.force_set(0.0);
    }
}

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A histogram over `u64` observations (nanoseconds, queue depths, …)
/// with power-of-two buckets: bucket `0` holds the value `0`, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value stored in bucket `i` (inclusive upper bound).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Smallest value stored in bucket `i` (inclusive lower bound).
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// A histogram not registered anywhere: scratch space for folding
    /// [`HistogramCells`] digests (fleet rollups, merge tests) without
    /// touching the process-wide registry.
    pub fn detached() -> Self {
        Self::new()
    }

    /// Records one observation (when recording is enabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.force_record(v);
        }
    }

    /// Records one observation unconditionally, bypassing the enable
    /// switch (a span opened while recording was on must close).
    pub fn force_record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps above `u64::MAX` totals).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the current state into a plain-data snapshot, computed
    /// from one [`cells`](Self::cells) read so that its count, bounds
    /// and percentiles all describe the same observations. The
    /// percentile fields are bucket **midpoints**
    /// ([`HistogramCells::percentile_midpoint`]), not the pessimistic
    /// bucket upper bounds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells().snapshot()
    }

    /// Freezes the raw cells — dense buckets plus count/sum/min/max —
    /// as plain mergeable data. The buckets are read before the count,
    /// and the count is clamped up to the bucket total, so a racing
    /// record can only inflate `count`, never leave it below the bucket
    /// series (the cumulative OpenMetrics bucket lines stay at or under
    /// `_count`).
    ///
    /// A record publishes its bucket and count before `min` and `max`,
    /// so a read racing the first records can see `min > max`. The
    /// bounds then come from the non-empty buckets; with none visible
    /// yet, the cells are empty.
    pub fn cells(&self) -> HistogramCells {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let bucket_total: u64 = buckets.iter().sum();
        let count = self.count().max(bucket_total);
        let sum = self.sum();
        let mut min = self.min.load(Ordering::Relaxed);
        let mut max = self.max.load(Ordering::Relaxed);
        if min > max {
            let first = buckets.iter().position(|&c| c > 0);
            let last = buckets.iter().rposition(|&c| c > 0);
            let (Some(lo), Some(hi)) = (first, last) else {
                return HistogramCells::empty();
            };
            (min, max) = (bucket_lower_bound(lo), bucket_upper_bound(hi));
        }
        HistogramCells { buckets, count, sum, min, max }
    }

    /// Folds a cells digest into this histogram element-wise (when
    /// recording is enabled): the result is exactly what recording the
    /// digest's underlying observations here would have produced.
    #[inline]
    pub fn merge_cells(&self, cells: &HistogramCells) {
        if crate::enabled() {
            self.force_merge_cells(cells);
        }
    }

    /// [`merge_cells`](Self::merge_cells) bypassing the enable switch.
    pub fn force_merge_cells(&self, cells: &HistogramCells) {
        for (i, &c) in cells.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        if cells.count > 0 {
            self.count.fetch_add(cells.count, Ordering::Relaxed);
            self.sum.fetch_add(cells.sum, Ordering::Relaxed);
            self.min.fetch_min(cells.min, Ordering::Relaxed);
            self.max.fetch_max(cells.max, Ordering::Relaxed);
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Plain-data histogram cells: the element-wise mergeable core of a
/// [`Histogram`]. Merging is associative and commutative with
/// [`HistogramCells::empty`] as identity (property-tested), so
/// per-client digests fold into exact fleet rollups in any order —
/// the same algebra count-min sketch cells obey.
///
/// `min` is `u64::MAX` while empty so that `min.min(other.min)` is the
/// correct fold without a special case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramCells {
    /// Dense per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observations (wraps above `u64::MAX` totals).
    pub sum: u64,
    /// Smallest observation, `u64::MAX` when empty.
    pub min: u64,
    /// Largest observation, `0` when empty.
    pub max: u64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramCells {
    /// The merge identity: no observations.
    pub const fn empty() -> Self {
        HistogramCells { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Element-wise merge: bucket and scalar sums, min/max folds.
    pub fn merge(&mut self, other: &HistogramCells) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The observations recorded since `earlier`, an older copy of these
    /// same cells: bucket counts, count and sum are the differences,
    /// while min and max stay these cells' own, so merging the result
    /// into a histogram that already holds `earlier` is exact.
    pub fn since(&self, earlier: &HistogramCells) -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
            count: self.count - earlier.count,
            sum: self.sum.wrapping_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// The `(lo, hi)` inclusive bounds of the bucket containing the
    /// `q`-th percentile, clamped to the observed min/max — the true
    /// percentile is guaranteed to lie within. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 100]`.
    pub fn percentile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min, self.max);
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let lo = bucket_lower_bound(i).clamp(min, max);
                let hi = bucket_upper_bound(i).clamp(min, max);
                return Some((lo, hi));
            }
        }
        Some((max, max))
    }

    /// Midpoint of [`percentile_bounds`](Self::percentile_bounds), at
    /// most half a bucket width from the true percentile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 100]`.
    pub fn percentile_midpoint(&self, q: f64) -> Option<u64> {
        self.percentile_bounds(q).map(|(lo, hi)| lo + (hi - lo) / 2)
    }

    /// These cells as a snapshot: the non-empty buckets, and zeros for
    /// every statistic of an empty histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let seen = |v: u64| if self.is_empty() { 0 } else { v };
        let p = |q: f64| self.percentile_midpoint(q).unwrap_or(0);
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            mean: self.mean().unwrap_or(0.0),
            min: seen(self.min),
            max: seen(self.max),
            p50: p(50.0),
            p90: p(90.0),
            p95: p(95.0),
            p99: p(99.0),
            buckets: (0..BUCKETS)
                .filter(|&i| self.buckets[i] > 0)
                .map(|i| (bucket_upper_bound(i), self.buckets[i]))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`Histogram`], used by snapshots. The `p*`
/// fields are bucket-midpoint estimates (the bucket upper bound would
/// overstate by up to 2×).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p95: u64,
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            // The upper bound of bucket i is the last value mapping to i.
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_aggregates_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100, 1000] {
            h.force_record(v);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (6, 1111, 0, 1000));
        assert!((s.mean - 1111.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_walk_buckets_monotonically() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.force_record(v);
        }
        let cells = h.cells();
        let hi = |q: f64| cells.percentile_bounds(q).unwrap().1;
        assert!(hi(50.0) <= hi(90.0) && hi(90.0) <= hi(95.0) && hi(95.0) <= hi(100.0));
        assert_eq!(hi(100.0), 1000);
        // p50 of 1..=1000 lands in the bucket holding 500, whose upper
        // bound is 511.
        assert_eq!(hi(50.0), 511);
        // Estimates never leave the observed range.
        assert!(cells.percentile_bounds(0.0).unwrap().0 >= 1);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = Histogram::new();
        let cells = h.cells();
        assert_eq!(cells.percentile_bounds(50.0), None);
        assert_eq!(cells.percentile_midpoint(50.0), None);
        assert_eq!(cells.mean(), None);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50, s.mean), (0, 0, 0, 0, 0.0));
    }

    #[test]
    fn percentile_upper_bound_can_overstate_but_bounds_bracket_the_truth() {
        // Two observations, 520 and 1000, both in bucket [512, 1023].
        // The true p50 is 520; the bucket's max-clamped upper bound is
        // 1000 — nearly 2× pessimistic — while the bounds bracket the
        // truth and the midpoint halves the error.
        let h = Histogram::new();
        h.force_record(520);
        h.force_record(1000);
        assert_eq!(h.cells().percentile_bounds(50.0), Some((520, 1000)));
        assert_eq!(h.cells().percentile_midpoint(50.0), Some(760));
        // Snapshots report the midpoint, not the upper bound.
        assert_eq!(h.snapshot().p50, 760);
    }

    #[test]
    fn percentile_bounds_stay_within_observed_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.force_record(v);
        }
        let cells = h.cells();
        for q in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let (lo, hi) = cells.percentile_bounds(q).unwrap();
            assert!(lo <= hi, "q={q}: lo {lo} > hi {hi}");
            assert!(lo >= 1 && hi <= 1000, "q={q}: ({lo}, {hi}) escapes [1, 1000]");
            let mid = cells.percentile_midpoint(q).unwrap();
            assert!((lo..=hi).contains(&mid));
        }
        // p50 of 1..=1000 is 500, inside bucket [256, 511].
        assert_eq!(cells.percentile_bounds(50.0), Some((256, 511)));
    }

    #[test]
    fn a_read_racing_the_first_record_stays_self_consistent() {
        use crate::doc::Document;
        let check = |h: HistogramSnapshot| {
            let doc = crate::snapshot::Snapshot {
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: vec![("h".into(), h)],
            };
            doc.check()
        };
        // `force_record` has bumped the bucket and the count of 700 but
        // not yet `min` and `max`.
        let h = Histogram::new();
        h.buckets[bucket_index(700)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, 512, 1023));
        assert!((s.min..=s.max).contains(&s.p50));
        assert_eq!(check(s), Ok(()));
        // Only the count is visible: nothing to bound yet.
        let h = Histogram::new();
        h.count.fetch_add(1, Ordering::Relaxed);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p99), (0, 0, 0, 0));
        assert_eq!(check(s), Ok(()));
    }

    #[test]
    fn bucket_lower_bounds_match_indexing() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        for i in 1..=64 {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
            assert!(bucket_lower_bound(i) <= bucket_upper_bound(i));
        }
    }

    #[test]
    fn counter_is_atomic_under_contention() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.force_add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_count_is_atomic_under_contention() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.force_record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        let bucket_total: u64 = h.cells().buckets.iter().sum();
        assert_eq!(bucket_total, 40_000);
    }

    #[test]
    fn cells_round_trip_and_merge_exactly() {
        let h = Histogram::detached();
        for v in [0u64, 1, 5, 5, 100, 1000] {
            h.force_record(v);
        }
        let cells = h.cells();
        assert_eq!(cells.count, 6);
        assert_eq!(cells.sum, 1111);
        assert_eq!(cells.min, 0);
        assert_eq!(cells.max, 1000);

        // Folding the cells into a fresh histogram reproduces it.
        let g = Histogram::detached();
        g.force_merge_cells(&cells);
        assert_eq!(g.cells(), cells);
        assert_eq!(g.snapshot(), h.snapshot());

        // Splitting the stream and merging matches pooled recording.
        let (a, b) = (Histogram::detached(), Histogram::detached());
        for v in [0u64, 1, 5] {
            a.force_record(v);
        }
        for v in [5u64, 100, 1000] {
            b.force_record(v);
        }
        let mut merged = a.cells();
        merged.merge(&b.cells());
        assert_eq!(merged, cells);
    }

    #[test]
    fn cells_since_an_earlier_copy_merge_back_exactly() {
        let mut cells = HistogramCells::empty();
        for v in [3u64, 70, 70] {
            cells.record(v);
        }
        let earlier = cells.clone();
        assert!(cells.since(&earlier).is_empty());
        for v in [0u64, 9000] {
            cells.record(v);
        }
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&cells.since(&earlier));
        assert_eq!(rebuilt, cells);
    }

    #[test]
    fn empty_cells_are_the_merge_identity() {
        let mut cells = HistogramCells::empty();
        assert!(cells.is_empty());
        assert_eq!(cells.mean(), None);
        let mut populated = HistogramCells::empty();
        populated.record(7);
        populated.record(9000);
        let before = populated.clone();
        populated.merge(&HistogramCells::empty());
        assert_eq!(populated, before);
        cells.merge(&before);
        assert_eq!(cells, before);
        // Merging empty into a live histogram leaves min/max untouched.
        let h = Histogram::detached();
        h.force_merge_cells(&HistogramCells::empty());
        assert_eq!(h.cells(), HistogramCells::empty());
    }

    #[test]
    fn gated_merge_respects_the_enable_switch() {
        let _guard = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let mut cells = HistogramCells::empty();
        cells.record(42);
        let h = Histogram::detached();
        h.merge_cells(&cells);
        assert_eq!(h.count(), 0, "disabled merge must be a no-op");
        crate::set_enabled(true);
        h.merge_cells(&cells);
        assert_eq!(h.count(), 1);
        crate::set_enabled(false);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::new();
        g.force_set(135.59999999999997);
        assert_eq!(g.get(), 135.59999999999997);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let c = Counter::new();
        c.inc();
        c.add(5);
        let h = Histogram::new();
        h.record(42);
        let g = Gauge::new();
        g.set(7.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 0.0);
    }
}
