//! Mechanism **CDS — Cost-Diminishing Selection** (paper §3.2).
//!
//! CDS refines an existing allocation by steepest-descent over
//! single-item moves: each iteration applies the best strictly-improving
//! move (Eq. 4 reduction, ties to the smallest item id then the
//! smallest destination channel) and stops at a local optimum.
//!
//! Two interchangeable implementations share that contract:
//!
//! * [`ReferenceCds`] — the paper-literal exhaustive scan, `O(KN)` per
//!   iteration. It is the oracle: simple enough to audit by eye.
//! * [`Cds`] — the production engine, backed by
//!   [`BestMoveEngine`](crate::engine::BestMoveEngine): maintained
//!   per-group `(F, Z)` aggregates plus a `K × K` table of each
//!   (source, destination) pair's best move. A move re-scores no pair:
//!   the pairs it raises take an upper bound (or the moved item's exact
//!   value), the pairs it lowers keep theirs, `O(K)` per iteration, and
//!   a stale pair is re-scored over its source's members only when it
//!   reaches the pick. Its step sequence is **bit-for-bit identical** to the
//!   reference's — the conformance crate's differential battery replays
//!   both on every generated and regression instance and fails on the
//!   first diverging step.

use dbcast_model::{Allocation, ChannelId, ItemId, ModelError, Move};
use serde::{Deserialize, Serialize};

use crate::engine::BestMoveEngine;

/// One applied CDS move, mirroring a row of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdsStep {
    /// The applied relocation.
    pub mv: Move,
    /// The predicted-and-realized cost reduction `Δc_max`.
    pub reduction: f64,
    /// Total cost after applying the move.
    pub cost_after: f64,
}

/// The result of a CDS refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct CdsOutcome {
    /// The refined (locally optimal, unless capped) allocation.
    pub allocation: Allocation,
    /// Total cost before any move.
    pub initial_cost: f64,
    /// Every applied move, in order.
    pub steps: Vec<CdsStep>,
    /// `true` when CDS stopped because no improving move exists (a
    /// genuine local optimum); `false` when the iteration cap fired.
    pub converged: bool,
    /// When the cap fired, the Eq. 4 reduction of the best move left
    /// untaken: a lower bound on the further gain a continued run would
    /// realize (steepest descent only compounds it). `0` when converged.
    pub remaining_gain_bound: f64,
}

impl CdsOutcome {
    /// Total cost after the last applied move.
    pub fn final_cost(&self) -> f64 {
        self.steps.last().map_or(self.initial_cost, |s| s.cost_after)
    }
}

/// The exhaustive best-move scan both CDS implementations agree on:
/// items in id order, destinations ascending, strict `>` keeps the
/// first of tied candidates, seeded at `min_reduction`.
fn scan_best_move(alloc: &Allocation, min_reduction: f64) -> Option<(Move, f64)> {
    let _scan = dbcast_obs::span!("alloc.cds.best_move");
    let k = alloc.channels();
    let mut best: Option<(Move, f64)> = None;
    let mut best_reduction = min_reduction;
    for (item, &p) in alloc.assignment().iter().enumerate() {
        for q in 0..k {
            if q == p {
                continue;
            }
            let mv = Move {
                item: ItemId::new(item),
                from: ChannelId::new(p),
                to: ChannelId::new(q),
            };
            let reduction =
                alloc.move_reduction(mv).expect("scan only proposes consistent moves");
            if reduction > best_reduction {
                best_reduction = reduction;
                best = Some((mv, reduction));
            }
        }
    }
    best
}

/// Shared refinement loop: `next(alloc, take)` yields the best move
/// for the current allocation, and with `take` the implementation also
/// commits to it (both implementations plug their scan in here, so step
/// accounting, the iteration counter and the capped-run re-check stay
/// literally the same code). The re-check only peeks.
fn refine_with(
    db: &dbcast_model::Database,
    mut alloc: Allocation,
    max_iterations: usize,
    mut next: impl FnMut(&Allocation, bool) -> Option<(Move, f64)>,
) -> Result<CdsOutcome, ModelError> {
    if alloc.items() != db.len() {
        return Err(ModelError::AssignmentLength {
            expected: db.len(),
            actual: alloc.items(),
        });
    }
    let _refine_span = dbcast_obs::span!("alloc.cds.refine");
    let initial_cost = alloc.total_cost();
    let mut steps = Vec::new();
    let mut converged = false;
    while steps.len() < max_iterations {
        match next(&alloc, true) {
            Some((mv, reduction)) => {
                alloc.apply_move(mv)?;
                let cost_after = alloc.total_cost();
                steps.push(CdsStep { mv, reduction, cost_after });
                dbcast_obs::counter!("alloc.cds.iterations").inc();
            }
            None => {
                converged = true;
                break;
            }
        }
    }
    // A capped run reports the move it left untaken; with none left it
    // is converged after all.
    let left = if converged { None } else { next(&alloc, false) };
    Ok(CdsOutcome {
        allocation: alloc,
        initial_cost,
        steps,
        converged: left.is_none(),
        remaining_gain_bound: left.map_or(0.0, |(_, reduction)| reduction),
    })
}

/// The paper-literal CDS refiner: a full `O(KN)` candidate scan per
/// iteration, kept as the differential oracle for [`Cds`].
///
/// # Example
///
/// ```
/// use dbcast_alloc::{Cds, Drp, ReferenceCds};
/// use dbcast_model::ChannelAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::paper::table2_profile();
/// let rough = Drp::new().allocate(&db, 5)?;
/// let oracle = ReferenceCds::new().refine(&db, rough.clone())?;
/// let fast = Cds::new().refine(&db, rough)?;
/// assert_eq!(oracle.steps, fast.steps); // bit-for-bit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReferenceCds(Cds);

impl ReferenceCds {
    /// Creates the oracle with [`Cds`]'s defaults: threshold `1e-9`,
    /// iteration cap `1_000_000`.
    pub fn new() -> Self {
        ReferenceCds::default()
    }

    /// Sets the minimum strict improvement a move must deliver.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    pub fn min_reduction(self, threshold: f64) -> Self {
        ReferenceCds(self.0.min_reduction(threshold))
    }

    /// Caps the number of applied moves.
    pub fn max_iterations(self, cap: usize) -> Self {
        ReferenceCds(self.0.max_iterations(cap))
    }

    /// Finds the best single-item move via the exhaustive scan, if any
    /// clears the threshold.
    pub fn best_move(&self, alloc: &Allocation) -> Option<(Move, f64)> {
        scan_best_move(alloc, self.0.min_reduction)
    }

    /// Refines `alloc` to a local optimum over `db`'s cost surface
    /// using the exhaustive per-iteration scan.
    ///
    /// # Errors
    ///
    /// [`ModelError::AssignmentLength`] if `alloc` was not built over
    /// `db` (defensive; the refinement itself cannot fail).
    pub fn refine(
        &self,
        db: &dbcast_model::Database,
        alloc: Allocation,
    ) -> Result<CdsOutcome, ModelError> {
        refine_with(db, alloc, self.0.max_iterations, |a, _| {
            scan_best_move(a, self.0.min_reduction)
        })
    }
}

/// The production CDS refiner, backed by the incremental
/// [`BestMoveEngine`](crate::engine::BestMoveEngine).
///
/// The improvement threshold rejects moves whose Eq. 4 reduction is not
/// strictly above `min_reduction` (default `1e-9`); together with the
/// iteration cap this guarantees termination in the presence of
/// floating-point noise. The step sequence is bit-for-bit identical to
/// [`ReferenceCds`]'s on every input.
///
/// # Example
///
/// ```
/// use dbcast_alloc::{Cds, Drp};
/// use dbcast_model::ChannelAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::paper::table2_profile();
/// let rough = Drp::new().allocate(&db, 5)?;
/// let refined = Cds::new().refine(&db, rough)?;
/// assert!(refined.converged);
/// assert!(refined.final_cost() <= refined.initial_cost);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cds {
    min_reduction: f64,
    max_iterations: usize,
}

impl Default for Cds {
    fn default() -> Self {
        Cds { min_reduction: 1e-9, max_iterations: 1_000_000 }
    }
}

impl Cds {
    /// Creates a refiner with default threshold (`1e-9`) and iteration
    /// cap (`1_000_000`).
    pub fn new() -> Self {
        Cds::default()
    }

    /// Sets the minimum strict improvement a move must deliver.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    pub fn min_reduction(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "min_reduction must be finite and >= 0"
        );
        self.min_reduction = threshold;
        self
    }

    /// Caps the number of applied moves (safety valve at paper scale, a
    /// deliberate refinement budget at production scale).
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = cap;
        self
    }

    /// Refines `alloc` over `db`'s cost surface to a local optimum, or
    /// until the iteration cap stops it.
    ///
    /// # Errors
    ///
    /// [`ModelError::AssignmentLength`] if `alloc` was not built over
    /// `db` (defensive; the refinement itself cannot fail).
    pub fn refine(
        &self,
        db: &dbcast_model::Database,
        alloc: Allocation,
    ) -> Result<CdsOutcome, ModelError> {
        let mut engine: Option<BestMoveEngine> = None;
        refine_with(db, alloc, self.max_iterations, |a, take| {
            // Built on the first call, after `refine_with` has checked `a`
            // against `db`, from the allocation's *evolved* aggregates so
            // every cached reduction is bit-identical to the scan's.
            let engine = engine.get_or_insert_with(|| {
                let stats = a.all_channel_stats();
                BestMoveEngine::new(
                    a.channels(),
                    self.min_reduction,
                    db.iter().map(|d| d.frequency()).collect(),
                    db.iter().map(|d| d.size()).collect(),
                    a.assignment().iter().map(|&c| c as u32).collect(),
                    stats.iter().map(|s| s.frequency).collect(),
                    stats.iter().map(|s| s.size).collect(),
                )
            });
            let em = if take { engine.apply_best() } else { engine.best() }?;
            debug_assert_eq!(em.from, a.assignment()[em.item]);
            Some((
                Move {
                    item: ItemId::new(em.item),
                    from: ChannelId::new(em.from),
                    to: ChannelId::new(em.to),
                },
                em.reduction,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Allocation, ChannelAllocator, Database, ItemSpec};

    fn paper_drp_allocation(db: &Database) -> Allocation {
        crate::Drp::new().allocate_traced(db, 5).unwrap().allocation
    }

    #[test]
    fn refine_rejects_mismatched_allocation() {
        let db = dbcast_workload::paper::table2_profile();
        let other = Database::try_from_specs(vec![ItemSpec::new(1.0, 1.0)]).unwrap();
        let alloc = Allocation::from_assignment(&other, 1, vec![0]).unwrap();
        assert!(Cds::new().refine(&db, alloc.clone()).is_err());
        assert!(ReferenceCds::new().refine(&db, alloc).is_err());
    }

    #[test]
    fn local_optimum_has_no_improving_move() {
        let db = dbcast_workload::paper::table2_profile();
        let out = Cds::new().refine(&db, paper_drp_allocation(&db)).unwrap();
        assert!(out.converged);
        assert!(ReferenceCds::new().best_move(&out.allocation).is_none());
    }

    #[test]
    fn cost_strictly_decreases_along_steps() {
        let db = dbcast_workload::WorkloadBuilder::new(100).seed(4).build().unwrap();
        let rough = crate::Drp::new().allocate(&db, 6).unwrap();
        let out = Cds::new().refine(&db, rough).unwrap();
        let mut prev = out.initial_cost;
        for s in &out.steps {
            assert!(s.cost_after < prev);
            assert!((prev - s.cost_after - s.reduction).abs() < 1e-6);
            prev = s.cost_after;
        }
    }

    #[test]
    fn reproduces_paper_table4() {
        // Table 4: initial cost 24.09; first move d10: group4 -> group2
        // with Δc = 0.95; second move d12: group3 -> group2 with
        // Δc = 0.45; local optimum at cost 22.29.
        let db = dbcast_workload::paper::table2_profile();
        let out = Cds::new().refine(&db, paper_drp_allocation(&db)).unwrap();
        assert!((out.initial_cost - 24.09).abs() < 0.01, "{}", out.initial_cost);
        assert!(out.steps.len() >= 2);
        let s0 = &out.steps[0];
        assert_eq!(s0.mv.item.index() + 1, 10); // paper's d10
        assert!((s0.reduction - 0.95).abs() < 0.01, "{}", s0.reduction);
        let s1 = &out.steps[1];
        assert_eq!(s1.mv.item.index() + 1, 12); // paper's d12
        assert!((s1.reduction - 0.45).abs() < 0.01, "{}", s1.reduction);
        assert!((out.final_cost() - 22.29).abs() < 0.01, "{}", out.final_cost());
    }

    #[test]
    fn incremental_matches_reference_bit_for_bit() {
        for (n, k, seed) in [(40usize, 4usize, 11u64), (100, 6, 4), (120, 8, 1), (75, 5, 9)]
        {
            let db = dbcast_workload::WorkloadBuilder::new(n).seed(seed).build().unwrap();
            let rough = crate::Drp::new().allocate(&db, k).unwrap();
            let oracle = ReferenceCds::new().refine(&db, rough.clone()).unwrap();
            let fast = Cds::new().refine(&db, rough).unwrap();
            assert_eq!(oracle.steps.len(), fast.steps.len(), "n={n} k={k} seed={seed}");
            for (i, (a, b)) in oracle.steps.iter().zip(&fast.steps).enumerate() {
                assert_eq!(a.mv, b.mv, "step {i} move (n={n} k={k} seed={seed})");
                assert_eq!(
                    a.reduction.to_bits(),
                    b.reduction.to_bits(),
                    "step {i} reduction (n={n} k={k} seed={seed})"
                );
                assert_eq!(
                    a.cost_after.to_bits(),
                    b.cost_after.to_bits(),
                    "step {i} cost (n={n} k={k} seed={seed})"
                );
            }
            assert_eq!(oracle.allocation, fast.allocation);
            assert_eq!(oracle.converged, fast.converged);
        }
    }

    #[test]
    fn incremental_matches_reference_under_caps_and_thresholds() {
        let db = dbcast_workload::WorkloadBuilder::new(90).seed(13).build().unwrap();
        let rough = crate::Drp::new().allocate(&db, 6).unwrap();
        let mut capped_runs = 0;
        for cap in [0usize, 1, 3, 1000] {
            for threshold in [0.0, 1e-9, 1e-3] {
                let oracle = ReferenceCds::new()
                    .min_reduction(threshold)
                    .max_iterations(cap)
                    .refine(&db, rough.clone())
                    .unwrap();
                let fast = Cds::new()
                    .min_reduction(threshold)
                    .max_iterations(cap)
                    .refine(&db, rough.clone())
                    .unwrap();
                assert_eq!(oracle.steps, fast.steps, "cap={cap} threshold={threshold}");
                assert_eq!(oracle.converged, fast.converged);
                assert_eq!(oracle.allocation, fast.allocation);
                assert_eq!(
                    oracle.remaining_gain_bound.to_bits(),
                    fast.remaining_gain_bound.to_bits(),
                    "cap={cap} threshold={threshold}"
                );
                assert_eq!(
                    fast.remaining_gain_bound == 0.0,
                    fast.converged,
                    "cap={cap} threshold={threshold}"
                );
                capped_runs += usize::from(!fast.converged);
            }
        }
        assert!(capped_runs > 0, "some cap must stop a run with gain left");
    }

    #[test]
    fn convergence_trace_from_steps_is_monotone_non_increasing() {
        // The returned steps are the convergence trace: CDS only applies
        // improving moves, so the cost series never increases.
        let db = dbcast_workload::WorkloadBuilder::new(100).seed(4).build().unwrap();
        let rough = crate::Drp::new().allocate(&db, 6).unwrap();
        let out = Cds::new().refine(&db, rough).unwrap();
        assert!(!out.steps.is_empty(), "this workload admits improving moves");
        let mut prev = out.initial_cost;
        for s in &out.steps {
            assert!(s.cost_after <= prev + 1e-9, "{} after {prev}", s.cost_after);
            prev = s.cost_after;
        }
        assert_eq!(out.steps.last().map(|s| s.cost_after), Some(out.final_cost()));
    }

    #[test]
    fn iteration_cap_limits_moves() {
        let db = dbcast_workload::WorkloadBuilder::new(120).seed(1).build().unwrap();
        let rough = crate::Drp::new().allocate(&db, 8).unwrap();
        let capped = Cds::new().max_iterations(1).refine(&db, rough.clone()).unwrap();
        assert!(capped.steps.len() <= 1);
        let full = Cds::new().refine(&db, rough).unwrap();
        assert!(full.final_cost() <= capped.final_cost() + 1e-12);
    }

    #[test]
    fn already_optimal_allocation_is_untouched() {
        // Two identical items on two channels is a local optimum.
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.5, 1.0),
            ItemSpec::new(0.5, 1.0),
        ])
        .unwrap();
        let alloc = Allocation::from_assignment(&db, 2, vec![0, 1]).unwrap();
        let out = Cds::new().refine(&db, alloc.clone()).unwrap();
        assert!(out.steps.is_empty());
        assert!(out.converged);
        assert_eq!(out.allocation, alloc);
    }

    #[test]
    fn cds_can_empty_a_channel() {
        // The paper's own example empties group 3 (Table 4(c)): CDS may
        // leave channels empty when that lowers cost.
        let db = dbcast_workload::paper::table2_profile();
        let out = Cds::new().refine(&db, paper_drp_allocation(&db)).unwrap();
        // After step 2, group 3 = {d1} only — and the run is still valid.
        out.allocation.validate(&db).unwrap();
    }

    #[test]
    #[should_panic(expected = "min_reduction")]
    fn negative_threshold_panics() {
        let _ = Cds::new().min_reduction(-1.0);
    }

    #[test]
    #[should_panic(expected = "min_reduction")]
    fn reference_negative_threshold_panics() {
        let _ = ReferenceCds::new().min_reduction(-1.0);
    }

    #[test]
    fn threshold_suppresses_tiny_improvements() {
        let db = dbcast_workload::WorkloadBuilder::new(40).seed(6).build().unwrap();
        let rough = crate::Drp::new().allocate(&db, 4).unwrap();
        let strict = Cds::new().min_reduction(1e3).refine(&db, rough).unwrap();
        // No move can beat a huge threshold, so nothing is applied.
        assert!(strict.steps.is_empty());
        assert!(strict.converged);
    }
}
