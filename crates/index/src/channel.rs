//! One broadcast channel with (1, m) index interleaving.

use dbcast_model::{next_slot_start, ChannelSchedule, ItemId, ModelError};
use serde::{Deserialize, Serialize};

/// One entry of the indexed cycle layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayoutEntry {
    /// A full channel index (the `i`-th of `m` per cycle).
    Index {
        /// Which of the `m` index copies this is.
        copy: usize,
    },
    /// A data item slot.
    Item {
        /// The item occupying the slot.
        item: ItemId,
    },
}

/// A slot in the indexed cycle: what it carries, where it starts (size
/// units from cycle start) and how long it is (size units).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Slot {
    entry: LayoutEntry,
    offset: f64,
    size: f64,
}

/// The classic (1, m) rule: choose the number of index copies `m`
/// minimizing the overhead tradeoff `f(m) = Z/(2m) + m·I/2` for a data
/// payload of aggregate size `z_total` and an index of size
/// `index_size` (both in size units). The continuous optimum is
/// `sqrt(Z/I)`; the exact integer argmin is picked between its floor
/// and ceiling (plain rounding is off by one near `m(m+1) = Z/I`).
///
/// Returns at least 1.
///
/// # Panics
///
/// Panics when either argument is non-positive or non-finite.
///
/// # Example
///
/// ```
/// use dbcast_index::optimal_segments;
/// assert_eq!(optimal_segments(100.0, 1.0), 10);
/// assert_eq!(optimal_segments(1.0, 100.0), 1);
/// ```
pub fn optimal_segments(z_total: f64, index_size: f64) -> usize {
    assert!(z_total.is_finite() && z_total > 0.0, "payload size must be positive");
    assert!(index_size.is_finite() && index_size > 0.0, "index size must be positive");
    let x = z_total / index_size;
    let lo = (x.sqrt().floor() as usize).max(1);
    // Integer argmin of m + x/m: prefer lo unless lo+1 is strictly
    // better, i.e. unless lo (lo+1) < x.
    if ((lo * (lo + 1)) as f64) < x {
        lo + 1
    } else {
        lo
    }
}

/// A broadcast channel carrying `m` interleaved index copies.
///
/// The cycle is `[Ix][bucket 1][Ix][bucket 2]…[Ix][bucket m]` where the
/// buckets partition the channel's data slots into `m` contiguous runs
/// of near-equal aggregate size. Cycle length becomes
/// `Z + m · index_size`.
///
/// The client protocol modelled (doze-capable (1, m)):
///
/// 1. tune in; read the current packet header (active for
///    `header_size` units) to learn the next index offset;
/// 2. doze until the next index copy; read it (active);
/// 3. doze until the target item's next slot start; download (active).
///
/// *Access time* covers 1–3 wall-clock; *tuning time* is only the
/// active spans: `min(header, wait-to-index) + index + item` — when the
/// next index arrives before the header read would finish, the client
/// simply stays awake into it, so the active span is capped by the
/// wait itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexedChannel {
    slots: Vec<Slot>,
    cycle_size: f64,
    index_size: f64,
    header_size: f64,
    segments: usize,
}

impl IndexedChannel {
    /// Interleaves `segments` index copies (each `index_size` size
    /// units, headers of `header_size` units) into `schedule`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidSize`] for non-positive `index_size` /
    ///   negative `header_size`.
    /// * [`ModelError::ZeroChannels`] (reused) when `segments == 0`.
    /// * [`ModelError::EmptyDatabase`] (reused) for an empty schedule.
    pub fn new(
        schedule: &ChannelSchedule,
        segments: usize,
        index_size: f64,
        header_size: f64,
    ) -> Result<Self, ModelError> {
        if !index_size.is_finite() || index_size <= 0.0 {
            return Err(ModelError::InvalidSize { index: 0, value: index_size });
        }
        if !header_size.is_finite() || header_size < 0.0 {
            return Err(ModelError::InvalidSize { index: 1, value: header_size });
        }
        if segments == 0 {
            return Err(ModelError::ZeroChannels);
        }
        if schedule.is_empty() {
            return Err(ModelError::EmptyDatabase);
        }
        let m = segments.min(schedule.slots().len());

        // Greedy near-equal-size contiguous bucketing: close bucket j
        // once the cumulative size crosses the fraction (j+1)/m of the
        // total, forcing a close when exactly one slot per remaining
        // bucket is left.
        let n_slots = schedule.slots().len();
        let total: f64 = schedule.slots().iter().map(|s| s.size).sum();
        let mut buckets: Vec<Vec<(ItemId, f64)>> = Vec::with_capacity(m);
        let mut current: Vec<(ItemId, f64)> = Vec::new();
        let mut cum = 0.0;
        for (idx, slot) in schedule.slots().iter().enumerate() {
            current.push((slot.item, slot.size));
            cum += slot.size;
            let closed = buckets.len();
            if closed + 1 >= m {
                continue; // the rest belongs to the final bucket
            }
            let remaining_slots = n_slots - idx - 1;
            let remaining_buckets = m - closed - 1;
            let boundary = total * (closed + 1) as f64 / m as f64;
            let must_close = remaining_slots == remaining_buckets;
            if (cum >= boundary || must_close) && remaining_slots >= remaining_buckets {
                buckets.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            buckets.push(current);
        }
        debug_assert_eq!(buckets.len(), m);

        let mut slots = Vec::new();
        let mut offset = 0.0;
        for (copy, bucket) in buckets.iter().enumerate() {
            slots.push(Slot {
                entry: LayoutEntry::Index { copy },
                offset,
                size: index_size,
            });
            offset += index_size;
            for &(item, size) in bucket {
                slots.push(Slot { entry: LayoutEntry::Item { item }, offset, size });
                offset += size;
            }
        }
        Ok(IndexedChannel {
            slots,
            cycle_size: offset,
            index_size,
            header_size,
            segments: m,
        })
    }

    /// Number of index copies `m` actually used (capped by slot count).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Cycle length in size units, including index overhead.
    pub fn cycle_size(&self) -> f64 {
        self.cycle_size
    }

    /// The full cycle layout in broadcast order:
    /// `(entry, offset, size)` per slot.
    pub fn layout(&self) -> impl Iterator<Item = (LayoutEntry, f64, f64)> + '_ {
        self.slots.iter().map(|s| (s.entry, s.offset, s.size))
    }

    /// The next index-copy start time `>= now` (seconds).
    pub fn next_index_start(&self, now: f64, bandwidth: f64) -> f64 {
        self.slots
            .iter()
            .filter(|s| matches!(s.entry, LayoutEntry::Index { .. }))
            .map(|s| next_slot_start(s.offset, self.cycle_size, now, bandwidth))
            .fold(f64::INFINITY, f64::min)
    }

    /// The next start time `>= now` of `item`'s slot (seconds), or
    /// `None` if the channel does not carry the item.
    pub fn next_item_start(&self, item: ItemId, now: f64, bandwidth: f64) -> Option<f64> {
        let slot = self
            .slots
            .iter()
            .find(|s| matches!(s.entry, LayoutEntry::Item { item: i } if i == item))?;
        Some(next_slot_start(slot.offset, self.cycle_size, now, bandwidth))
    }

    /// Item size (size units), if carried.
    fn item_size(&self, item: ItemId) -> Option<f64> {
        self.slots
            .iter()
            .find(|s| matches!(s.entry, LayoutEntry::Item { item: i } if i == item))
            .map(|s| s.size)
    }

    /// Access and tuning time (seconds) for a request of `item` issued
    /// at `now`: wait for the next index, read it, doze to the item's
    /// next start *after the index read*, download. Tuning counts only
    /// the radio-active spans and is always `<=` access.
    ///
    /// Returns `None` if the channel does not carry the item.
    pub fn request_metrics(
        &self,
        item: ItemId,
        now: f64,
        bandwidth: f64,
    ) -> Option<(f64, f64)> {
        let size = self.item_size(item)?;
        let index_start = self.next_index_start(now, bandwidth);
        let index_end = index_start + self.index_size / bandwidth;
        // Tolerance guards the exact-boundary case where the item slot
        // begins at the index end: one ULP of rounding must not cost a
        // whole extra cycle.
        let eps = 1e-9 * self.cycle_size / bandwidth;
        let item_start =
            self.next_item_start(item, index_end - eps, bandwidth)?.max(index_end);
        let access = item_start + size / bandwidth - now;
        let header_active = (self.header_size / bandwidth).min(index_start - now);
        let tuning = header_active + (self.index_size + size) / bandwidth;
        Some((access, tuning))
    }

    /// Access time (seconds) for a request of `item` issued at `now`.
    ///
    /// Returns `None` if the channel does not carry the item.
    pub fn access_time(&self, item: ItemId, now: f64, bandwidth: f64) -> Option<f64> {
        self.request_metrics(item, now, bandwidth).map(|(a, _)| a)
    }

    /// Upper bound on the tuning time (seconds of radio-active time)
    /// for any request of `item`: full header read + index read + item
    /// download. The exact per-request value
    /// ([`request_metrics`](Self::request_metrics)) is lower only when
    /// the next index starts within the header read.
    ///
    /// Returns `None` if the channel does not carry the item.
    pub fn tuning_time(&self, item: ItemId, bandwidth: f64) -> Option<f64> {
        let size = self.item_size(item)?;
        Some((self.header_size + self.index_size + size) / bandwidth)
    }

    /// Mean `(access, tuning)` over a request instant uniform in the
    /// cycle, computed by deterministic grid integration (`samples`
    /// points).
    pub fn expected_metrics(
        &self,
        item: ItemId,
        bandwidth: f64,
        samples: usize,
    ) -> Option<(f64, f64)> {
        let cycle_time = self.cycle_size / bandwidth;
        let mut access_sum = 0.0;
        let mut tuning_sum = 0.0;
        for i in 0..samples {
            let t = cycle_time * (i as f64 + 0.5) / samples as f64;
            let (a, tu) = self.request_metrics(item, t, bandwidth)?;
            access_sum += a;
            tuning_sum += tu;
        }
        Some((access_sum / samples as f64, tuning_sum / samples as f64))
    }

    /// Mean access time over a request instant uniform in the cycle.
    pub fn expected_access_time(
        &self,
        item: ItemId,
        bandwidth: f64,
        samples: usize,
    ) -> Option<f64> {
        self.expected_metrics(item, bandwidth, samples).map(|(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};

    /// One channel with four unit-ish items.
    fn schedule() -> (Database, BroadcastProgram) {
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.4, 2.0),
            ItemSpec::new(0.3, 3.0),
            ItemSpec::new(0.2, 4.0),
            ItemSpec::new(0.1, 1.0),
        ])
        .unwrap();
        let alloc = Allocation::from_assignment(&db, 1, vec![0; 4]).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        (db, program)
    }

    #[test]
    fn optimal_segments_formula() {
        assert_eq!(optimal_segments(400.0, 4.0), 10);
        assert_eq!(optimal_segments(2.0, 8.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn optimal_segments_rejects_zero() {
        let _ = optimal_segments(0.0, 1.0);
    }

    #[test]
    fn layout_interleaves_m_indexes() {
        let (_, p) = schedule();
        let ch = IndexedChannel::new(&p.channels()[0], 2, 0.5, 0.05).unwrap();
        assert_eq!(ch.segments(), 2);
        // Cycle = data (10) + 2 indexes (1.0).
        assert!((ch.cycle_size() - 11.0).abs() < 1e-12);
        let indexes: Vec<f64> = ch
            .layout()
            .filter(|(e, _, _)| matches!(e, LayoutEntry::Index { .. }))
            .map(|(_, o, _)| o)
            .collect();
        assert_eq!(indexes.len(), 2);
        assert_eq!(indexes[0], 0.0);
        assert!(indexes[1] > 0.0);
    }

    #[test]
    fn segments_capped_by_slot_count() {
        let (_, p) = schedule();
        let ch = IndexedChannel::new(&p.channels()[0], 99, 0.5, 0.0).unwrap();
        assert_eq!(ch.segments(), 4);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let (_, p) = schedule();
        let s = &p.channels()[0];
        assert!(IndexedChannel::new(s, 0, 0.5, 0.0).is_err());
        assert!(IndexedChannel::new(s, 2, 0.0, 0.0).is_err());
        assert!(IndexedChannel::new(s, 2, 0.5, -1.0).is_err());
    }

    #[test]
    fn tuning_time_is_constant_and_small() {
        let (_, p) = schedule();
        let ch = IndexedChannel::new(&p.channels()[0], 2, 0.5, 0.05).unwrap();
        let t = ch.tuning_time(ItemId::new(2), 10.0).unwrap();
        // (0.05 + 0.5 + 4.0) / 10
        assert!((t - 0.455).abs() < 1e-12);
        // Access varies with request time; tuning does not.
        let a0 = ch.access_time(ItemId::new(2), 0.0, 10.0).unwrap();
        let a1 = ch.access_time(ItemId::new(2), 0.37, 10.0).unwrap();
        assert_ne!(a0, a1);
        assert!(t <= a0 && t <= a1);
    }

    #[test]
    fn access_walks_index_then_item() {
        let (_, p) = schedule();
        // m = 1: cycle = [Ix 0.5][d0 2][d1 3][d2 4][d3 1], size 10.5.
        let ch = IndexedChannel::new(&p.channels()[0], 1, 0.5, 0.0).unwrap();
        // Request d0 at t = 0: index at 0..0.05s, d0 at 0.05..0.25s.
        let a = ch.access_time(ItemId::new(0), 0.0, 10.0).unwrap();
        assert!((a - 0.25).abs() < 1e-12);
        // Request d0 just after cycle start: next index is next cycle
        // (1.05s), then d0 at 1.10s, done 1.30s => access = 1.30 - 0.01.
        let a = ch.access_time(ItemId::new(0), 0.01, 10.0).unwrap();
        assert!((a - (1.30 - 0.01)).abs() < 1e-9, "{a}");
    }

    #[test]
    fn unknown_item_yields_none() {
        let (_, p) = schedule();
        let ch = IndexedChannel::new(&p.channels()[0], 1, 0.5, 0.0).unwrap();
        assert!(ch.access_time(ItemId::new(9), 0.0, 10.0).is_none());
        assert!(ch.tuning_time(ItemId::new(9), 10.0).is_none());
    }

    #[test]
    fn more_segments_reduce_index_wait_but_grow_cycle() {
        let (_, p) = schedule();
        let m1 = IndexedChannel::new(&p.channels()[0], 1, 0.5, 0.0).unwrap();
        let m4 = IndexedChannel::new(&p.channels()[0], 4, 0.5, 0.0).unwrap();
        assert!(m4.cycle_size() > m1.cycle_size());
        // Mean distance to next index shrinks with more copies.
        let mean_wait = |ch: &IndexedChannel| {
            let cycle = ch.cycle_size() / 10.0;
            let n = 1000;
            (0..n)
                .map(|i| {
                    let t = cycle * (i as f64 + 0.5) / n as f64;
                    ch.next_index_start(t, 10.0) - t
                })
                .sum::<f64>()
                / n as f64
        };
        assert!(mean_wait(&m4) < mean_wait(&m1));
    }

    #[test]
    fn expected_access_time_near_theory_for_m1() {
        // For m = 1 the expected access is roughly
        // E[wait to index] + index + E[index end -> item start] + item
        // ≈ L/2 + I + L/2-ish; just sanity-bound it by the cycle.
        let (_, p) = schedule();
        let ch = IndexedChannel::new(&p.channels()[0], 1, 0.5, 0.0).unwrap();
        let cycle_time = ch.cycle_size() / 10.0;
        for item in 0..4 {
            let e = ch.expected_access_time(ItemId::new(item), 10.0, 2000).unwrap();
            assert!(e > 0.0 && e < 2.0 * cycle_time + 1.0);
        }
    }
}
