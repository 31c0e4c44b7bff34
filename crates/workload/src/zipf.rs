//! The Zipf distribution used by the paper for access frequencies:
//! `f_i = (1/i)^θ / Σ_j (1/j)^θ` for ranks `i = 1..=N`, and the
//! categorical CDF sampler behind it and every other weighted draw in
//! the workspace (request traces, query workloads, client requests).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::WorkloadError;

/// A finite Zipf distribution over ranks `1..=n` with skewness `θ ≥ 0`.
///
/// `θ = 0` is uniform; larger `θ` concentrates probability on the
/// lowest ranks. This is exactly the frequency model of paper §4.1.
///
/// # Example
///
/// ```
/// use dbcast_workload::Zipf;
/// # fn main() -> Result<(), dbcast_workload::WorkloadError> {
/// let z = Zipf::new(4, 1.0)?;
/// // pmf = [1, 1/2, 1/3, 1/4] / (25/12)
/// assert!((z.pmf(1) - 12.0 / 25.0).abs() < 1e-12);
/// assert!((z.pmf_slice().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: usize,
    theta: f64,
    pmf: Vec<f64>,
    cdf: Categorical,
}

impl Zipf {
    /// Builds the distribution for `n` ranks with skewness `theta`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] if `n == 0`, or `theta` is
    /// negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "n",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                name: "theta",
                value: theta,
                constraint: "must be finite and >= 0",
            });
        }
        let weights: Vec<f64> = (1..=n).map(|i| (1.0 / i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let pmf: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let cdf = Categorical::from_probabilities(pmf.iter().copied());
        Ok(Zipf { n, theta, pmf, cdf })
    }

    /// Number of ranks `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the distribution has no ranks (never true once built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The skewness parameter `θ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of rank `i` (1-based, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is 0 or exceeds `n`.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.n, "rank {rank} out of 1..={}", self.n);
        self.pmf[rank - 1]
    }

    /// The full pmf, index 0 holding rank 1.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Samples a rank (1-based) by CDF inversion, O(log n).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cdf.sample(rng) + 1
    }
}

/// A categorical distribution over indices `0..len`, sampled by CDF
/// inversion in O(log len).
///
/// The cumulative table is summed in index order and its last entry is
/// pinned to exactly 1.0, so rounding in the sum can never leave a
/// uniform draw past the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Builds the distribution from probabilities that already sum to
    /// (about) 1, such as a database's access frequencies.
    pub fn from_probabilities(probabilities: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = probabilities
            .into_iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Categorical { cdf }
    }

    /// Builds the distribution from non-negative weights, each
    /// normalized by their sum.
    pub fn from_weights(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        Categorical::from_probabilities(weights.iter().map(|w| w / total))
    }

    /// Maps a uniform `u` in `[0, 1)` to the first index whose
    /// cumulative probability exceeds `u`.
    fn index(&self, u: f64) -> usize {
        assert!(!self.cdf.is_empty(), "sampling an empty categorical distribution");
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Draws one index by inverting the CDF at one uniform draw.
    ///
    /// # Panics
    ///
    /// Panics when the distribution is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -0.1).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(8, 0.0).unwrap();
        for r in 1..=8 {
            assert!((z.pmf(r) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_is_decreasing_and_normalized() {
        for theta in [0.4, 0.8, 1.2, 1.6] {
            let z = Zipf::new(100, theta).unwrap();
            let pmf = z.pmf_slice();
            assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for w in pmf.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let lo = Zipf::new(50, 0.4).unwrap();
        let hi = Zipf::new(50, 1.6).unwrap();
        assert!(hi.pmf(1) > lo.pmf(1));
        assert!(hi.pmf(50) < lo.pmf(50));
    }

    #[test]
    fn matches_paper_formula() {
        // f_i = (1/i)^θ / Σ (1/j)^θ, spot-check N = 3, θ = 2.
        let z = Zipf::new(3, 2.0).unwrap();
        let denom = 1.0 + 0.25 + 1.0 / 9.0;
        assert!((z.pmf(1) - 1.0 / denom).abs() < 1e-12);
        assert!((z.pmf(2) - 0.25 / denom).abs() < 1e-12);
        assert!((z.pmf(3) - (1.0 / 9.0) / denom).abs() < 1e-12);
    }

    #[test]
    fn sampling_approximates_pmf() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for r in 1..=10 {
            let expected = z.pmf(r);
            let observed = counts[r - 1] as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(20, 0.9).unwrap();
        let a: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn categorical_skips_zero_weights_and_clamps_the_tail() {
        let c = Categorical::from_weights(&[0.0, 2.0, 0.0, 2.0]);
        assert_eq!(c.index(0.0), 1);
        assert_eq!(c.index(0.4999), 1);
        assert_eq!(c.index(0.5), 3);
        // A probability table summing just short of 1 still lands every
        // draw in range.
        let short = Categorical::from_probabilities([0.3, 0.3, 0.3]);
        assert_eq!(short.index(0.95), 2);
    }

    #[test]
    #[should_panic(expected = "empty categorical")]
    fn categorical_empty_panics() {
        let _ = Categorical::from_weights(&[]).index(0.5);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn pmf_rank_zero_panics() {
        let z = Zipf::new(3, 1.0).unwrap();
        let _ = z.pmf(0);
    }
}
