//! Workload drift detection: when can re-allocating for the live
//! request distribution pay?
//!
//! The paper minimises the Eq. 3 cost `Σ_i F_i Z_i`, so that is what the
//! runtime watches. At each tick boundary [`GapMonitor`] charges the
//! serving generation its Eq. 3 cost under the live estimate `f̂`,
//! `C = Σ_j f̂_j Z_{a(j)}`, and divides it by
//! [`cost_lower_bound`] on `f̂`, a bound no allocation can beat. The
//! ratio `G = C / LB ≥ 1` certifies the most any repair could lower the
//! cost by.
//!
//! `G` never reads 1, even for a perfect allocation: the bound is a
//! few percent loose, and estimator noise inflates `C` against `LB`
//! (at N=2000 the truth-optimal allocation reads `G ≈ 1.12` under the
//! estimate, against 1.024 under the truth). So the reference is `G`'s
//! own floor, its minimum over the serving generation's checks, and a
//! repair is dispatched when `G > (1 + ε) · floor`. The score reported
//! is `G / floor − 1`.
//!
//! The floor opens only once the estimate can tell the serving
//! generation apart from its own input: after
//! [`DriftDetector::min_observations`] requests since the swap, and
//! once at least half of the estimator's decayed mass post-dates the
//! repair's input. Before that `f̂` still shares most of its samples
//! with the estimate the repair was fitted to, and the new allocation
//! looks better than it is. While the guard holds, nothing is computed.
//!
//! The L1 distance between `f̂` and the serving profile cannot make this
//! call: it ignores which items share a channel, so it bounds the cost
//! error only K-fold loosely, and its sampling-noise floor at N=2000
//! (about 0.41) sits above any useful threshold.

use dbcast_model::{cost_lower_bound, BroadcastProgram};
use serde::{Deserialize, Serialize};

use crate::estimator::FrequencyEstimator;

/// L1 distance between two frequency vectors.
///
/// No longer dispatches anything; it remains only for the benchmark's
/// per-layer replay (`serve.drift_check_ns`) and should be removed with
/// the next change to `benchmark/`.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "frequency vectors must cover the same catalogue");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// The drift rule's two knobs; [`GapMonitor`] applies them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftDetector {
    /// `ε`: a repair is dispatched when the Eq. 3 gap `G` exceeds
    /// `(1 + ε)` times its floor.
    pub threshold: f64,
    /// Minimum requests since the last swap before the floor opens —
    /// guards against judging a generation off a handful of arrivals.
    /// `u64::MAX` keeps drift unreachable and the tick free of work.
    pub min_observations: u64,
}

impl Default for DriftDetector {
    fn default() -> Self {
        DriftDetector { threshold: 0.15, min_observations: 200 }
    }
}

impl DriftDetector {
    /// The retired L1 verdict: distance plus `distance > threshold`
    /// once warmed up.
    ///
    /// No longer dispatches anything; it remains only for the
    /// benchmark's per-layer replay and should be removed with the next
    /// change to `benchmark/`.
    pub fn check(&self, estimated: &[f64], serving: &[f64], observations: u64) -> Drift {
        let distance = l1_distance(estimated, serving);
        Drift {
            distance,
            drifted: observations >= self.min_observations && distance > self.threshold,
        }
    }
}

/// One drift measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Drift {
    /// The score: `G / floor − 1` from [`GapMonitor`]; the L1 distance
    /// from the retired [`DriftDetector::check`].
    pub distance: f64,
    /// Whether the detector declared drift.
    pub drifted: bool,
}

/// The per-run state of the Eq. 3 gap rule: the serving generation's
/// floor, its request count, the decayed estimator mass its repair was
/// fitted to, and the buffers one check fills. After the first check
/// no method allocates.
#[derive(Debug, Clone)]
pub struct GapMonitor {
    detector: DriftDetector,
    /// The estimator's decay per virtual second (mass is aged alike).
    decay: f64,
    /// Minimum `G` over the serving generation's checks (∞ until open).
    floor: f64,
    /// Requests served since the serving generation was installed.
    since_swap: u64,
    /// Decayed estimator mass the serving generation was fitted to
    /// (0 for generation 0, built from the catalogue).
    serving_input: f64,
    /// The same for the repair in flight.
    dispatched_input: f64,
    estimated: Vec<f64>,
    scratch: Vec<f64>,
}

impl GapMonitor {
    /// A monitor for generation 0 over a catalogue of `items`, ageing
    /// input mass at the estimator's `decay` per virtual second.
    pub fn new(detector: DriftDetector, decay: f64, items: usize) -> Self {
        GapMonitor {
            detector,
            decay,
            floor: f64::INFINITY,
            since_swap: 0,
            serving_input: 0.0,
            dispatched_input: 0.0,
            estimated: Vec::with_capacity(items),
            scratch: Vec::with_capacity(items),
        }
    }

    /// Counts one served request.
    pub fn observe(&mut self) {
        self.since_swap += 1;
    }

    /// Ages the carried input masses by `dt` virtual seconds, by the
    /// same factor the estimator's counts decay by.
    pub fn tick(&mut self, dt: f64) {
        let factor = self.decay.powf(dt);
        self.serving_input *= factor;
        self.dispatched_input *= factor;
    }

    /// Records that a repair was dispatched on an estimate of `mass`.
    pub fn dispatched(&mut self, mass: f64) {
        self.dispatched_input = mass;
    }

    /// The dispatched repair went live: its input becomes the serving
    /// generation's, and the floor and request count start afresh.
    pub fn installed(&mut self) {
        self.serving_input = self.dispatched_input;
        self.floor = f64::INFINITY;
        self.since_swap = 0;
    }

    /// One check of the serving generation (`program`, `assignment`)
    /// against the live estimate; `None` while the guard holds.
    pub fn check(
        &mut self,
        estimator: &FrequencyEstimator,
        sizes: &[f64],
        program: &BroadcastProgram,
        assignment: &[usize],
    ) -> Option<Drift> {
        if self.since_swap < self.detector.min_observations
            || self.serving_input > 0.5 * estimator.mass()
        {
            return None;
        }
        estimator.frequency_vector_into(&mut self.estimated);
        let channels = program.channels();
        let cost: f64 = self
            .estimated
            .iter()
            .zip(assignment)
            .map(|(f, &ch)| f * channels[ch].cycle_size())
            .sum();
        let bound =
            cost_lower_bound(&self.estimated, sizes, channels.len(), &mut self.scratch);
        let gap = cost / bound;
        self.floor = self.floor.min(gap);
        Some(Drift {
            distance: gap / self.floor - 1.0,
            drifted: gap > (1.0 + self.detector.threshold) * self.floor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Allocation, Database, ItemId, ItemSpec};

    use crate::estimator::EstimatorConfig;

    #[test]
    fn l1_of_identical_vectors_is_zero() {
        let v = [0.5, 0.3, 0.2];
        assert_eq!(l1_distance(&v, &v), 0.0);
    }

    #[test]
    fn l1_of_disjoint_distributions_is_two() {
        assert!((l1_distance(&[1.0, 0.0], &[0.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_suppresses_drift() {
        let det = DriftDetector { threshold: 0.1, min_observations: 100 };
        let a = [0.9, 0.1];
        let b = [0.1, 0.9];
        assert!(!det.check(&a, &b, 99).drifted);
        assert!(det.check(&a, &b, 100).drifted);
    }

    #[test]
    fn below_threshold_is_quiet() {
        let det = DriftDetector { threshold: 0.5, min_observations: 0 };
        let drift = det.check(&[0.6, 0.4], &[0.5, 0.5], 1_000);
        assert!(!drift.drifted);
        assert!((drift.distance - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same catalogue")]
    fn mismatched_lengths_panic() {
        let _ = l1_distance(&[1.0], &[0.5, 0.5]);
    }

    /// Items of sizes 1, 10, 1, 10; the program puts items 0–1 on
    /// channel 0 and items 2–3 on channel 1.
    fn fixture() -> (Vec<f64>, BroadcastProgram, Vec<usize>) {
        let sizes = vec![1.0, 10.0, 1.0, 10.0];
        let specs: Vec<ItemSpec> = sizes.iter().map(|&z| ItemSpec::new(1.0, z)).collect();
        let db = Database::try_from_specs(specs).unwrap();
        let assignment = vec![0, 0, 1, 1];
        let alloc = Allocation::from_assignment(&db, 2, assignment.clone()).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 1.0).unwrap();
        (sizes, program, assignment)
    }

    fn estimator() -> FrequencyEstimator {
        FrequencyEstimator::new(4, EstimatorConfig { decay: 0.5 })
    }

    fn feed(est: &mut FrequencyEstimator, monitor: &mut GapMonitor, items: &[usize]) {
        for &i in items {
            est.observe(ItemId::new(i));
            monitor.observe();
        }
    }

    #[test]
    fn the_gap_is_scored_against_its_own_floor() {
        let (sizes, program, assignment) = fixture();
        let det = DriftDetector { threshold: 0.15, min_observations: 4 };
        let mut monitor = GapMonitor::new(det, 0.5, 4);
        let mut est = estimator();
        feed(&mut est, &mut monitor, &[0, 1, 2]);
        assert_eq!(monitor.check(&est, &sizes, &program, &assignment), None);
        // The first open check sets the floor, so the score reads 0.
        feed(&mut est, &mut monitor, &[3]);
        let first = monitor.check(&est, &sizes, &program, &assignment).unwrap();
        assert!(first.distance.abs() < 1e-9 && !first.drifted, "{first:?}");
        // Demand piles onto the two small items, yet each still waits
        // out a large one's slot: grouping by size would cost far less.
        feed(&mut est, &mut monitor, &[0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2]);
        let drift = monitor.check(&est, &sizes, &program, &assignment).unwrap();
        assert!(drift.drifted && drift.distance > 0.15, "{drift:?}");
    }

    #[test]
    fn the_floor_waits_for_mass_newer_than_the_repair_input() {
        let (sizes, program, assignment) = fixture();
        let det = DriftDetector { threshold: 0.15, min_observations: 0 };
        let mut monitor = GapMonitor::new(det, 0.5, 4);
        let mut est = estimator();
        feed(&mut est, &mut monitor, &[0, 1, 2, 3]);
        assert!(monitor.check(&est, &sizes, &program, &assignment).is_some());
        // A repair fitted to all four requests goes live: the estimate
        // is nothing but its input, so the guard holds…
        monitor.dispatched(est.mass());
        monitor.installed();
        assert_eq!(monitor.check(&est, &sizes, &program, &assignment), None);
        // …until ageing and fresh requests make the input at most half.
        est.tick(1.0);
        monitor.tick(1.0);
        feed(&mut est, &mut monitor, &[0]);
        assert_eq!(monitor.check(&est, &sizes, &program, &assignment), None);
        feed(&mut est, &mut monitor, &[2]);
        assert!(monitor.check(&est, &sizes, &program, &assignment).is_some());
    }

    #[test]
    fn unreachable_drift_computes_nothing() {
        let (sizes, program, assignment) = fixture();
        let det = DriftDetector { threshold: 10.0, min_observations: u64::MAX };
        let mut monitor = GapMonitor::new(det, 0.5, 4);
        let mut est = estimator();
        feed(&mut est, &mut monitor, &[0, 0, 0, 0, 1]);
        assert_eq!(monitor.check(&est, &sizes, &program, &assignment), None);
        assert!(monitor.estimated.is_empty(), "the guard must short-circuit");
    }
}
