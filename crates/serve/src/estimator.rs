//! Online access-frequency estimation over the live request stream.
//!
//! The paper's algorithms take the access probabilities `f_j` as given;
//! a serving runtime has to *learn* them from arrivals (cf.
//! arXiv:2112.00449, which learns schedules from frequent patterns in
//! the stream instead of assuming Zipf parameters are known). The
//! catalogue is dense and known, so the estimator keeps one exact
//! decayed count per item: a request adds 1 to its item's count, and a
//! tick of `dt` virtual seconds multiplies every count by `decay^dt`.
//! The estimate therefore tracks the recent request distribution rather
//! than the all-time one, which is what the gap monitor and the
//! re-allocator need to chase a shifting workload.
//!
//! Counts alone are a poor input to DRP-CDS. The decayed window holds
//! about `λ / (1 − decay)` requests (2,500 at λ = 50/s and decay 0.98),
//! too few to see the tail of a 2,000-item catalogue: most tail items
//! read zero, DRP-CDS correctly piles those "free" items onto one
//! channel, and every real request for one of them then waits out that
//! channel's enormous cycle. The next noisy estimate can always
//! "improve" on such a program, so the gap rule re-dispatches on
//! sampling noise. The frequency vector is therefore the posterior mean
//! under a symmetric Dirichlet prior of `α` = 0.2 decayed pseudo-requests
//! per item:
//!
//! ```text
//!   f̂_j = (c_j + α) / (m + N·α)
//! ```
//!
//! where `c_j` is item j's decayed count and `m` their sum. An unseen
//! item keeps a share that shrinks as real mass accumulates, and no
//! entry is ever zero (downstream `Database` construction rejects
//! zeros).

use dbcast_model::ItemId;
use serde::{Deserialize, Serialize};

/// `α`: the symmetric Dirichlet prior, in decayed pseudo-requests per
/// item. Measured at N=2000, K=16 and λ = 50/s on a θ=0.8 catalogue
/// with one mid-stream shift: 0.05 still re-dispatched on noise (15
/// swaps), while 0.5 swapped once but served a mean wait about 10%
/// higher than 0.2, which swapped twice.
const PRIOR: f64 = 0.2;

/// Configuration of a [`FrequencyEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Multiplicative decay `∈ [0, 1]` **per virtual second**: a tick
    /// of duration `dt` multiplies every count by `decay^dt`, so the
    /// effective averaging window is independent of how fine the
    /// scheduler's tick granularity happens to be. 1 disables aging.
    pub decay: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        // Decay 0.98/s ≈ a 34-second half-life: at λ requests per second
        // the estimate averages roughly λ/0.02 ≈ 50λ recent requests.
        EstimatorConfig { decay: 0.98 }
    }
}

/// Exact per-item decayed counts with a Dirichlet prior: an estimator
/// of the per-item access frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyEstimator {
    /// Item j's decayed request count.
    counts: Vec<f64>,
    /// The decayed mass of real requests, `Σ counts`.
    mass: f64,
    decay: f64,
}

impl FrequencyEstimator {
    /// Creates an estimator over a catalogue of `items` ids.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn new(items: usize, config: EstimatorConfig) -> Self {
        assert!(items > 0, "estimator needs a non-empty catalogue");
        FrequencyEstimator { counts: vec![0.0; items], mass: 0.0, decay: config.decay }
    }

    /// Folds one request into the estimate.
    ///
    /// # Panics
    ///
    /// Panics if `item` is outside the catalogue.
    pub fn observe(&mut self, item: ItemId) {
        self.counts[item.index()] += 1.0;
        self.mass += 1.0;
    }

    /// Ages the history by `dt` virtual seconds (multiplies every count
    /// by `decay^dt`).
    pub fn tick(&mut self, dt: f64) {
        let factor = self.decay.powf(dt);
        for c in &mut self.counts {
            *c *= factor;
        }
        self.mass *= factor;
    }

    /// The decayed mass of real requests; the prior adds none.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Each item's decayed request count, indexed by item id.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The posterior-mean frequency vector over the catalogue,
    /// `(c_j + α) / (m + N·α)`: positive and summing to 1.
    pub fn frequency_vector(&self) -> Vec<f64> {
        let mut v = Vec::new();
        self.frequency_vector_into(&mut v);
        v
    }

    /// [`frequency_vector`](Self::frequency_vector) into a caller-owned
    /// buffer, so the per-tick drift check can reuse one allocation for
    /// the whole run (`out` is cleared first; after the first call it
    /// never reallocates).
    pub fn frequency_vector_into(&self, out: &mut Vec<f64>) {
        let total = self.mass + self.counts.len() as f64 * PRIOR;
        out.clear();
        out.extend(self.counts.iter().map(|&c| (c + PRIOR) / total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator(items: usize) -> FrequencyEstimator {
        FrequencyEstimator::new(items, EstimatorConfig { decay: 0.9 })
    }

    #[test]
    fn frequency_vector_is_the_posterior_mean() {
        let mut est = estimator(10);
        for i in 0..10usize {
            for _ in 0..=i {
                est.observe(ItemId::new(i));
            }
        }
        let v = est.frequency_vector();
        assert_eq!(v.len(), 10);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // 55 requests plus 10 items × α pseudo-requests.
        let total = 55.0 + 10.0 * PRIOR;
        for (i, &f) in v.iter().enumerate() {
            assert!((f - (i as f64 + 1.0 + PRIOR) / total).abs() < 1e-15, "item {i}");
        }
        assert_eq!(est.mass(), 55.0);
    }

    #[test]
    fn vector_into_reuses_the_buffer() {
        let mut est = estimator(8);
        est.observe(ItemId::new(3));
        let mut buf = Vec::with_capacity(8);
        est.frequency_vector_into(&mut buf);
        assert_eq!(buf, est.frequency_vector());
        let ptr = buf.as_ptr();
        est.observe(ItemId::new(5));
        est.frequency_vector_into(&mut buf);
        assert_eq!(ptr, buf.as_ptr(), "refill must not reallocate");
        assert_eq!(buf, est.frequency_vector());
    }

    #[test]
    fn empty_estimator_is_uniform() {
        let est = estimator(5);
        let v = est.frequency_vector();
        for &f in &v {
            assert!((f - 0.2).abs() < 1e-9);
        }
        assert_eq!(est.mass(), 0.0);
    }

    #[test]
    fn decay_forgets_the_old_regime() {
        let mut est = estimator(2);
        // Old regime: item 0 hot.
        for _ in 0..1000 {
            est.observe(ItemId::new(0));
        }
        // 60 seconds of decay at 0.9/s shrink the old mass by ~500x …
        est.tick(60.0);
        assert!((est.mass() - 1000.0 * 0.9f64.powf(60.0)).abs() < 1e-9);
        // … so a much shorter burst for item 1 dominates.
        for _ in 0..100 {
            est.observe(ItemId::new(1));
        }
        let v = est.frequency_vector();
        assert!(v[1] > v[0], "recent requests must dominate: {v:?}");
    }
}
