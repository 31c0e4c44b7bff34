//! Client-side picture of the serving program.
//!
//! A [`Directory`] frame is the wire's self-description: the complete
//! [`BroadcastProgram`] plus the virtual-time origin of the generation's
//! phase zero and the optional (1,m) air-index parameters. From it a
//! client rebuilds a [`WorldView`] — the exact same structures the
//! server schedules from, down to the one [`IndexedProgram`] per
//! indexed generation that the egress also airs — and plans fetches
//! analytically: the plan is then *verified* against the frames that
//! actually aired, so a wrong world view shows up as a torn frame,
//! never as a silent bias.

use std::sync::OnceLock;

use dbcast_index::{IndexParams, IndexedProgram};
use dbcast_model::{next_slot_start, BroadcastProgram, ChannelId, ItemId};
use serde::{Deserialize, Serialize};

/// Self-description of one program generation, carried in a
/// [`Frame::Directory`](crate::Frame::Directory) payload as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Directory {
    /// Generation counter from the server's epoch cell.
    pub generation: u64,
    /// Virtual time at which this generation's cycles start (phase 0).
    pub origin: f64,
    /// Per-channel bandwidth in size units per second.
    pub bandwidth: f64,
    /// Access frequency of every database item, by item index.
    pub frequencies: Vec<f64>,
    /// Size of every database item, by item index.
    pub sizes: Vec<f64>,
    /// Air-index parameters; `None` means pure data broadcast.
    pub index: Option<IndexParams>,
    /// The full cyclic program being broadcast.
    pub program: BroadcastProgram,
}

/// A planned single-item fetch: where to tune and what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchPlan {
    /// Channel to tune to.
    pub channel: ChannelId,
    /// Virtual start of the chosen occurrence.
    pub start: f64,
    /// Virtual time the download completes.
    pub completion: f64,
    /// Access time: completion minus request instant.
    pub access: f64,
    /// Tuning time: virtual seconds of radio-active listening.
    pub tuning: f64,
}

/// Whether a frame ending at `end` airs whole by `boundary` (a window's
/// end, or a hot swap). The egress holds back, and at a swap truncates,
/// every frame this rejects; a client retunes rather than count on one.
/// One tolerance on both sides: any gap between them tears frames.
pub(crate) fn airs_by(end: f64, boundary: f64) -> bool {
    end <= boundary + 1e-12
}

/// A decoded directory plus, on an indexed stream, its (1,m) layout.
#[derive(Debug)]
pub struct WorldView {
    /// The directory this view was built from.
    pub directory: Directory,
    /// The program's (1,m) layout, present iff the stream carries index
    /// frames.
    pub indexed: Option<IndexedProgram>,
    /// Virtual instant this generation stops being on the air.
    /// `f64::INFINITY` until a successor directory arrives.
    pub valid_until: f64,
    /// [`WorldView::expected_access`] per item, filled on first use.
    expected: Vec<OnceLock<Option<f64>>>,
}

impl WorldView {
    /// Builds a world view from a decoded directory.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency when the directory's
    /// bandwidth is not its program's, or its index parameters cannot
    /// lay out one of its own channels.
    pub fn from_directory(directory: Directory) -> Result<Self, String> {
        let bandwidth = directory.program.bandwidth();
        if directory.bandwidth != bandwidth {
            let stated = directory.bandwidth;
            return Err(format!(
                "directory bandwidth {stated} is not its program's {bandwidth}"
            ));
        }
        let indexed = directory
            .index
            .map(|params| IndexedProgram::with_optimal_segments(&directory.program, params))
            .transpose()
            .map_err(|e| format!("directory index params invalid: {e}"))?;
        let expected = (0..directory.frequencies.len()).map(|_| OnceLock::new()).collect();
        Ok(WorldView { directory, indexed, valid_until: f64::INFINITY, expected })
    }

    /// Size of an item per the directory, if in range.
    pub fn item_size(&self, item: ItemId) -> Option<f64> {
        self.directory.sizes.get(item.index()).copied()
    }

    /// Upper bound on the access time of any single-item request under
    /// this generation: a request arriving more than this long before
    /// the generation's end can never straddle the swap. Used to carve
    /// out the censoring-free sample window for Eq. 2 comparisons.
    pub fn worst_case_access(&self) -> f64 {
        let bandwidth = self.directory.bandwidth;
        let mut worst = 0.0f64;
        for idx in 0..self.directory.frequencies.len() {
            let item = ItemId::new(idx);
            let Some((schedule, slot)) = self.directory.program.locate(item) else {
                continue;
            };
            let (cycle, size) = (schedule.cycle_size(), slot.size);
            let bound = match self.directory.index {
                // Indexed: wait for an index copy (≤ one cycle), read
                // it, then doze to the item (≤ one more cycle).
                Some(params) => (2.0 * cycle + params.index_size + size) / bandwidth,
                None => (cycle + size) / bandwidth,
            };
            worst = worst.max(bound);
        }
        worst
    }

    /// The Eq. 2 expectation for a single-item request for `item`
    /// arriving uniformly in phase: probe to the next occurrence plus
    /// the download itself: half the item's cycle plus its download
    /// time, or on an indexed stream the exact (1,m) grid expectation.
    ///
    /// Returns `None` when the program does not carry the item.
    ///
    /// A pure function of the directory, so each item's value is
    /// computed on first use and memoized.
    pub fn expected_access(&self, item: ItemId) -> Option<f64> {
        match self.expected.get(item.index()) {
            Some(cell) => *cell.get_or_init(|| self.compute_expected_access(item)),
            None => self.compute_expected_access(item),
        }
    }

    fn compute_expected_access(&self, item: ItemId) -> Option<f64> {
        match &self.indexed {
            Some(indexed) => indexed.expected_item_metrics(item).map(|(access, _)| access),
            None => self.directory.program.expected_response_time(item),
        }
    }

    /// Plans the fetch of `item` for a request issued at the virtual
    /// instant `now`, on the one channel that carries it.
    ///
    /// Without an air index the client must listen continuously from
    /// `now` until the download ends, so tuning equals access. With the
    /// (1,m) index it reads at most a frame header, dozes to the next
    /// index copy, then dozes again until its item airs.
    ///
    /// Returns `None` when the program does not carry the item.
    pub fn plan_fetch(&self, item: ItemId, now: f64) -> Option<FetchPlan> {
        let origin = self.directory.origin;
        let bandwidth = self.directory.bandwidth;
        let local = now - origin;
        let (schedule, slot) = self.directory.program.locate(item)?;
        let (start, completion, access, tuning) = match &self.indexed {
            Some(indexed) => {
                let (access, tuning) = indexed.request_metrics(item, local)?;
                let completion = now + access;
                (completion - slot.size / bandwidth, completion, access, tuning)
            }
            None => {
                let start =
                    next_slot_start(slot.offset, schedule.cycle_size(), local, bandwidth)
                        + origin;
                let completion = start + slot.size / bandwidth;
                (start, completion, completion - now, completion - now)
            }
        };
        Some(FetchPlan { channel: schedule.channel(), start, completion, access, tuning })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Allocation, Database, ItemSpec};

    fn demo_directory(index: Option<IndexParams>) -> Directory {
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.5, 1.0),
            ItemSpec::new(0.3, 2.0),
            ItemSpec::new(0.2, 1.0),
        ])
        .unwrap();
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1]).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 1.0).unwrap();
        Directory {
            generation: 0,
            origin: 0.0,
            bandwidth: 1.0,
            frequencies: db.items().iter().map(|i| i.frequency()).collect(),
            sizes: db.items().iter().map(|i| i.size()).collect(),
            index,
            program,
        }
    }

    #[test]
    fn plain_plan_matches_model_response_time() {
        let dir = demo_directory(None);
        let world = WorldView::from_directory(dir).unwrap();
        for idx in 0..3 {
            let item = ItemId::new(idx);
            for k in 0..8 {
                let now = k as f64 * 0.37;
                let plan = world.plan_fetch(item, now).expect("carried item");
                let expect = world.directory.program.response_time(item, now).unwrap();
                assert!(
                    (plan.access - expect).abs() < 1e-9,
                    "item {idx} at {now}: plan {} vs model {expect}",
                    plan.access
                );
                assert!((plan.tuning - plan.access).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn indexed_plan_tunes_less_than_it_waits() {
        let dir = demo_directory(Some(IndexParams { index_size: 0.25, header_size: 0.05 }));
        let world = WorldView::from_directory(dir).unwrap();
        let plan = world.plan_fetch(ItemId::new(1), 0.1).expect("carried");
        assert!(plan.tuning < plan.access + 1e-12);
        assert!(plan.tuning > 0.0);
    }

    #[test]
    fn origin_shift_translates_plans() {
        let mut dir = demo_directory(None);
        dir.origin = 10.0;
        let shifted = WorldView::from_directory(dir).unwrap();
        let base = WorldView::from_directory(demo_directory(None)).unwrap();
        let a = base.plan_fetch(ItemId::new(2), 0.4).unwrap();
        let b = shifted.plan_fetch(ItemId::new(2), 10.4).unwrap();
        assert!((b.access - a.access).abs() < 1e-9);
        assert!((b.start - (a.start + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn single_channel_probe_is_half_cycle() {
        // Without an index, an item's expected access is half its
        // channel's cycle plus its own download: Z_i/(2b) + z_j/b.
        let world = WorldView::from_directory(demo_directory(None)).unwrap();
        let b = world.directory.bandwidth;
        for idx in 0..3 {
            let item = ItemId::new(idx);
            let (schedule, slot) = world.directory.program.locate(item).unwrap();
            let eq1 = schedule.cycle_size() / (2.0 * b) + slot.size / b;
            let got = world.expected_access(item).unwrap();
            assert!((got - eq1).abs() < 1e-12, "item {idx}: {got} vs {eq1}");
        }
    }
}
