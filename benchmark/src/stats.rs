//! Order statistics and the small timing helpers every workload shares.

use std::time::{Duration, Instant};

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The 10th percentile of `values` (linear interpolation between ranks).
///
/// Wall times here are shared with other tenants' processes, which only
/// ever add time; the fastest decile of a run's repetitions is the speed
/// the code reaches when left alone, and varies far less from run to run
/// than the median does.
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = 0.1 * (sorted.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Heap allocations and bytes `f` made, read from the counting global
/// allocator (exact while no other thread allocates).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = dbcast_perf::allocation_counts();
    let out = f();
    let (a1, b1) = dbcast_perf::allocation_counts();
    (out, a1 - a0, b1 - b0)
}

/// Repeats `f` until `budget` has passed and at least `min_reps` ran,
/// stopping at the first error.
pub fn repeat_for<E>(
    budget: Duration,
    min_reps: usize,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed() < budget {
        f(rep)?;
        rep += 1;
    }
    Ok(())
}

/// Nanoseconds per unit of work: the median over `reps` passes of `f`,
/// each covering `units` units.
pub fn ns_per_unit(reps: usize, units: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(&mut f).1.as_nanos() as f64 / units.max(1) as f64)
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn low_decile_interpolates_between_ranks() {
        let values: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(low_decile(&values), 1.0);
        assert!((low_decile(&[2.0, 1.0]) - 1.1).abs() < 1e-12);
        assert_eq!(low_decile(&[5.0]), 5.0);
    }
}
