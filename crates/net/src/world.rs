//! Client-side picture of the serving program.
//!
//! A [`Directory`] frame is the wire's self-description: the complete
//! [`BroadcastProgram`] plus the virtual-time origin of the generation's
//! phase zero and the optional (1,m) air-index parameters. From it a
//! client rebuilds a [`WorldView`] — the exact same structures the
//! server schedules from — and plans fetches analytically: the plan is
//! then *verified* against the frames that actually aired, so a wrong
//! world view shows up as a torn frame, never as a silent bias.

use std::sync::OnceLock;

use dbcast_index::{optimal_segments, IndexedChannel};
use dbcast_model::{BroadcastProgram, ChannelId, ItemId};
use serde::{Deserialize, Serialize};

/// (1,m) air-index parameters shared by server and clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexParams {
    /// Size of one index segment copy (same units as item sizes).
    pub index_size: f64,
    /// Size of the per-frame header a dozing client must read before it
    /// learns when the next index copy starts.
    pub header_size: f64,
}

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

/// A decoded directory plus the derived per-channel air indexes.
#[derive(Debug)]
pub struct WorldView {
    /// The directory this view was built from.
    pub directory: Directory,
    /// Per-channel (1,m) index models, present iff the stream carries
    /// index frames. `None` entries are empty channels.
    pub indexed: Option<Vec<Option<IndexedChannel>>>,
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
    /// index parameters cannot model one of its own channels.
    pub fn from_directory(directory: Directory) -> Result<Self, String> {
        let indexed = match directory.index {
            None => None,
            Some(params) => {
                let mut per_channel =
                    Vec::with_capacity(directory.program.channels().len());
                for schedule in directory.program.channels() {
                    if schedule.is_empty() {
                        per_channel.push(None);
                        continue;
                    }
                    let m = optimal_segments(schedule.cycle_size(), params.index_size);
                    let ic = IndexedChannel::new(
                        schedule,
                        m,
                        params.index_size,
                        params.header_size,
                    )
                    .map_err(|e| format!("directory index params invalid: {e}"))?;
                    per_channel.push(Some(ic));
                }
                Some(per_channel)
            }
        };
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
            let Some((_, slot)) = self.directory.program.locate(item) else {
                continue;
            };
            let size = slot.size;
            // The client can always fall back to the fastest-cycle
            // carrier, so its wait-to-start is bounded by that cycle.
            let best_cycle = self
                .directory
                .program
                .locate_all(item)
                .map(|(s, _)| s.cycle_size())
                .fold(f64::INFINITY, f64::min);
            let bound = match self.directory.index {
                // Indexed: wait for an index copy (≤ one cycle), read
                // it, then doze to the item (≤ one more cycle).
                Some(params) => (2.0 * best_cycle + params.index_size + size) / bandwidth,
                None => (best_cycle + size) / bandwidth,
            };
            worst = worst.max(bound);
        }
        worst
    }

    /// The Eq. 2 expectation for a single-item request for `item`
    /// arriving uniformly in phase: probe to the next occurrence plus
    /// the download itself. Replicated items use the independent-phase
    /// earliest-probe approximation; indexed single-carrier items use
    /// the exact (1,m) grid expectation.
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
        let bandwidth = self.directory.bandwidth;
        let carriers = self.directory.program.locate_all(item);
        let replicas = carriers.len();
        let (schedule, slot) = self.directory.program.locate(item)?;
        let size = slot.size;
        match &self.indexed {
            Some(per_channel) if replicas == 1 => per_channel
                .get(schedule.channel().index())
                .and_then(|c| c.as_ref())
                .and_then(|ic| ic.expected_metrics(item, bandwidth, 512))
                .map(|(access, _)| access),
            _ => {
                let cycles: Vec<f64> =
                    carriers.map(|(s, _)| s.cycle_size() / bandwidth).collect();
                Some(expected_min_probe(&cycles) + size / bandwidth)
            }
        }
    }

    /// Plans the cheapest fetch of `item` for a request issued at the
    /// virtual instant `now`, considering every channel that carries a
    /// replica (earliest completion wins; ties break on channel index).
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
        let mut best: Option<FetchPlan> = None;
        for (schedule, slot) in self.directory.program.locate_all(item) {
            let candidate = match &self.indexed {
                Some(per_channel) => {
                    let ic = per_channel
                        .get(schedule.channel().index())
                        .and_then(|c| c.as_ref())?;
                    let (access, tuning) = ic.request_metrics(item, local, bandwidth)?;
                    let completion = now + access;
                    FetchPlan {
                        channel: schedule.channel(),
                        start: completion - slot.size / bandwidth,
                        completion,
                        access,
                        tuning,
                    }
                }
                None => {
                    let start = schedule.next_start(item, local, bandwidth)? + origin;
                    let completion = start + slot.size / bandwidth;
                    FetchPlan {
                        channel: schedule.channel(),
                        start,
                        completion,
                        access: completion - now,
                        tuning: completion - now,
                    }
                }
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    candidate.completion < b.completion - 1e-12
                        || (candidate.completion <= b.completion + 1e-12
                            && candidate.channel.index() < b.channel.index())
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best
    }
}

/// Expected probe time of an item carried by channels with cycle times
/// `cycles` (seconds), under the independent-uniform-phase
/// approximation:
///
/// `E[min_i U_i] = ∫_0^{T_min} Π_i (1 − t/T_i) dt`,  `U_i ~ U(0, T_i)`.
///
/// For a single channel this is exactly `T/2` (the paper's probe term).
/// The integrand is a degree-`r` polynomial; it is integrated
/// numerically with Simpson's rule at 1e-6 relative accuracy, which is
/// far below the approximation error of the independence assumption.
///
/// # Panics
///
/// Panics if `cycles` is empty or contains a non-positive entry.
fn expected_min_probe(cycles: &[f64]) -> f64 {
    assert!(!cycles.is_empty(), "at least one cycle time required");
    assert!(
        cycles.iter().all(|&t| t.is_finite() && t > 0.0),
        "cycle times must be positive"
    );
    let t_min = cycles.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    // Closed forms for the common cases.
    match cycles.len() {
        1 => return cycles[0] / 2.0,
        2 => {
            // E[min] = T1/2 − T1²/(6 T2) with T1 = min, T2 = max.
            let t1 = t_min;
            let t2 = cycles[0].max(cycles[1]);
            return t1 / 2.0 - t1 * t1 / (6.0 * t2);
        }
        _ => {}
    }
    let survivor = |t: f64| cycles.iter().map(|&ti| 1.0 - t / ti).product::<f64>();
    // Composite Simpson over [0, t_min]; the integrand is a smooth
    // low-degree polynomial, so 512 panels are far beyond the needed
    // accuracy.
    let n = 512;
    let h = t_min / n as f64;
    let mut sum = survivor(0.0) + survivor(t_min);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * survivor(i as f64 * h);
    }
    sum * h / 3.0
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
        for t in [0.5, 3.0, 120.0] {
            assert!((expected_min_probe(&[t]) - t / 2.0).abs() < 1e-6 * t);
        }
    }

    #[test]
    fn equal_pair_is_third_of_cycle() {
        // min of two independent U(0,T): E = T/3.
        assert!((expected_min_probe(&[9.0, 9.0]) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn closed_form_for_unequal_pair() {
        // E[min] = T1/2 − T1²/(6 T2) for T1 <= T2.
        let (t1, t2) = (4.0, 10.0);
        let expected = t1 / 2.0 - t1 * t1 / (6.0 * t2);
        assert!((expected_min_probe(&[t2, t1]) - expected).abs() < 1e-6);
    }

    #[test]
    fn more_replicas_never_increase_probe() {
        let mut prev = expected_min_probe(&[10.0]);
        for r in 2..=5 {
            let cycles = vec![10.0; r];
            let cur = expected_min_probe(&cycles);
            assert!(cur < prev);
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycle_panics() {
        let _ = expected_min_probe(&[0.0]);
    }

    #[test]
    fn expected_min_probe_matches_grid_integration() {
        // E[min_i U_i] with U_i ~ U(0, T_i) independent, evaluated by a
        // deterministic midpoint grid over the unit cube — an entirely
        // different computation from the closed forms / Simpson's rule
        // inside `expected_min_probe`.
        let cases: [&[f64]; 4] = [&[8.0], &[4.0, 10.0], &[3.0, 5.0, 7.0], &[2.0, 2.0, 9.0]];
        for cycles in cases {
            let n = match cycles.len() {
                1 => 4096,
                2 => 512,
                _ => 96,
            };
            let mut sum = 0.0;
            let mut count = 0u64;
            let mut grid = vec![0usize; cycles.len()];
            loop {
                let min = grid
                    .iter()
                    .zip(cycles)
                    .map(|(&g, &t)| (g as f64 + 0.5) / n as f64 * t)
                    .fold(f64::INFINITY, f64::min);
                sum += min;
                count += 1;
                let mut dim = 0;
                loop {
                    if dim == cycles.len() {
                        break;
                    }
                    grid[dim] += 1;
                    if grid[dim] < n {
                        break;
                    }
                    grid[dim] = 0;
                    dim += 1;
                }
                if dim == cycles.len() {
                    break;
                }
            }
            let empirical = sum / count as f64;
            let analytic = expected_min_probe(cycles);
            let tol = 2.0 / n as f64 * cycles.iter().fold(0.0f64, |a, &b| a.max(b));
            assert!(
                (empirical - analytic).abs() <= tol,
                "cycles {cycles:?}: grid {empirical:.6} vs analytic {analytic:.6} \
                 (tol {tol:.6})"
            );
        }
    }

    mod props {
        use super::expected_min_probe;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn min_probe_is_bounded_and_monotone(
                cycles in prop::collection::vec(0.1f64..100.0, 1..6),
            ) {
                let e = expected_min_probe(&cycles);
                let t_min = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
                // Bounds: adding channels can only reduce the wait below the
                // single-best-channel expectation; and the wait is positive.
                prop_assert!(e > 0.0);
                prop_assert!(e <= t_min / 2.0 + 1e-9);
                // Monotonicity: appending one more channel cannot increase it.
                let mut extended = cycles.clone();
                extended.push(50.0);
                prop_assert!(expected_min_probe(&extended) <= e + 1e-9);
            }

            #[test]
            fn equal_cycles_follow_the_uniform_order_statistic(
                t in 0.5f64..50.0,
                r in 1usize..6,
            ) {
                // E[min of r iid U(0,T)] = T/(r+1).
                let cycles = vec![t; r];
                let e = expected_min_probe(&cycles);
                prop_assert!(
                    (e - t / (r as f64 + 1.0)).abs() < 1e-3 * t,
                    "r = {r}: {e} vs {}",
                    t / (r as f64 + 1.0)
                );
            }
        }
    }
}
