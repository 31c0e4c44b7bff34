//! Streaming summary statistics (Welford) with optional percentiles.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max plus retained samples for
/// percentiles.
///
/// Uses Welford's algorithm, so the running moments are numerically
/// stable regardless of sample magnitude.
///
/// # Example
///
/// ```
/// use dbcast_sim::SummaryStats;
/// let mut s = SummaryStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.percentile(50.0).unwrap() - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SummaryStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl SummaryStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SummaryStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`None` with fewer than 2 samples).
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.count - 1) as f64)
        }
    }

    /// Sample standard deviation (`None` with fewer than 2 samples).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Linear-interpolated percentile `p ∈ [0, 100]` (`None` when
    /// empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// around the mean (`None` with fewer than 2 samples).
    pub fn ci95_halfwidth(&self) -> Option<f64> {
        let sd = self.std_dev()?;
        Some(1.96 * sd / (self.count as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = SummaryStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.variance().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.percentile(50.0).is_none());
        assert!(s.ci95_halfwidth().is_none());
    }

    #[test]
    fn moments_match_direct_computation() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = SummaryStats::new();
        for &x in &data {
            s.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(s.min().unwrap(), 1.0);
        assert_eq!(s.max().unwrap(), 9.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = SummaryStats::new();
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            s.record(x);
        }
        assert_eq!(s.percentile(0.0).unwrap(), 10.0);
        assert_eq!(s.percentile(100.0).unwrap(), 50.0);
        assert!((s.percentile(25.0).unwrap() - 20.0).abs() < 1e-12);
        assert!((s.percentile(90.0).unwrap() - 46.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let mut s = SummaryStats::new();
        s.record(1.0);
        let _ = s.percentile(120.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = SummaryStats::new();
        let mut large = SummaryStats::new();
        // Same alternating data, different counts.
        for i in 0..10 {
            small.record((i % 2) as f64);
        }
        for i in 0..1000 {
            large.record((i % 2) as f64);
        }
        assert!(large.ci95_halfwidth().unwrap() < small.ci95_halfwidth().unwrap());
    }
}
