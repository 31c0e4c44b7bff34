//! Execution-time measurement behind Figures 6–7.

use std::time::Instant;

use dbcast_baselines::AlgoSpec;
use dbcast_sim::SummaryStats;
use dbcast_workload::{SizeDistribution, WorkloadBuilder};
use serde::{Deserialize, Serialize};

use crate::config::{ExperimentConfig, SweepAxis};

/// Wall-clock statistics of one algorithm at one sweep point, over the
/// configured seeds (all in milliseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoTiming {
    /// Algorithm name.
    pub algo: String,
    /// Mean execution time.
    pub mean_ms: f64,
    /// Median (p50) execution time.
    pub median_ms: f64,
    /// 95th-percentile execution time.
    pub p95_ms: f64,
}

/// Execution-time statistics of each algorithm at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingPoint {
    /// The x-coordinate (K or N).
    pub x: f64,
    /// Per-algorithm timings, in registry order.
    pub algos: Vec<AlgoTiming>,
}

/// A completed timing sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingResult {
    /// Axis label.
    pub axis: String,
    /// Points in axis order.
    pub points: Vec<TimingPoint>,
}

/// Measures wall-clock execution time per algorithm per point,
/// reporting mean, median and p95 over the seeds. Before the recorded
/// runs of each (point, algorithm) cell, the algorithm runs once on the
/// first seed's workload and that sample is discarded: without the
/// warmup, the first sample absorbs cold-cache and lazy-initialization
/// noise (metric-registry interning, allocator warm-up) and skews the
/// mean and p95 upward.
///
/// Unlike [`run_sweep`](crate::run_sweep) this runs **serially** —
/// concurrent cells would contend for cores and corrupt the
/// measurements. The workloads are identical to the waiting-time
/// sweeps (same seeds), so Figures 2/6 and 3/7 describe the same runs,
/// mirroring the paper.
///
/// # Panics
///
/// Panics on an empty axis, algorithm list, or seed list.
pub fn run_timing_sweep(
    config: &ExperimentConfig,
    axis: &SweepAxis,
    algos: &[AlgoSpec],
) -> TimingResult {
    assert!(!axis.is_empty(), "sweep axis must have points");
    assert!(!algos.is_empty(), "need at least one algorithm");
    assert!(!config.seeds.is_empty(), "need at least one seed");

    let xs = axis.values();
    let mut points = Vec::with_capacity(axis.len());
    for (p, &x) in xs.iter().enumerate() {
        let (n, k, phi, theta) = config.at_point(axis, p);
        let mut samples = vec![SummaryStats::new(); algos.len()];
        let workload = |seed| {
            WorkloadBuilder::new(n)
                .skewness(theta)
                .sizes(SizeDistribution::Diversity { phi_max: phi })
                .seed(seed)
                .build()
                .expect("paper parameter space is valid")
        };
        let first = config.seeds[0];
        let db = workload(first);
        for spec in algos {
            let warmup = spec.build(first).allocate(&db, k).expect("feasible instance");
            std::hint::black_box(&warmup);
        }
        for &seed in &config.seeds {
            let db = workload(seed);
            for (a, spec) in algos.iter().enumerate() {
                let algo = spec.build(seed);
                let start = Instant::now();
                let alloc = algo.allocate(&db, k).expect("feasible instance");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                // Keep the allocation alive past the timer so the work
                // cannot be optimized away.
                std::hint::black_box(&alloc);
                samples[a].record(elapsed);
            }
        }
        points.push(TimingPoint {
            x,
            algos: algos
                .iter()
                .zip(&samples)
                .map(|(spec, s)| AlgoTiming {
                    algo: spec.name(),
                    mean_ms: s.mean(),
                    median_ms: s.percentile(50.0).expect("at least one seed"),
                    p95_ms: s.percentile(95.0).expect("at least one seed"),
                })
                .collect(),
        });
    }
    TimingResult { axis: axis.label().to_string(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_baselines::GoptConfig;

    #[test]
    fn timing_shape_and_positivity() {
        let cfg = ExperimentConfig {
            items: 15,
            channels: 3,
            seeds: vec![0],
            ..ExperimentConfig::default()
        };
        let axis = SweepAxis::Channels(vec![2, 3]);
        let result = run_timing_sweep(&cfg, &axis, &[AlgoSpec::Drp, AlgoSpec::DrpCds]);
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            for t in &p.algos {
                assert!(t.mean_ms >= 0.0, "{} took {} ms", t.algo, t.mean_ms);
                assert!(t.median_ms >= 0.0);
                assert!(t.p95_ms >= t.median_ms - 1e-12, "{}: p95 below median", t.algo);
            }
        }
    }

    #[test]
    fn single_seed_collapses_the_percentiles() {
        let cfg = ExperimentConfig {
            items: 12,
            channels: 2,
            seeds: vec![0],
            ..ExperimentConfig::default()
        };
        let axis = SweepAxis::Channels(vec![2]);
        let result = run_timing_sweep(&cfg, &axis, &[AlgoSpec::Drp]);
        let t = &result.points[0].algos[0];
        assert!((t.mean_ms - t.median_ms).abs() < 1e-12);
        assert!((t.p95_ms - t.median_ms).abs() < 1e-12);
    }

    #[test]
    fn gopt_is_slower_than_drpcds() {
        // The core claim of Figures 6–7.
        let cfg = ExperimentConfig {
            items: 40,
            channels: 4,
            seeds: vec![0, 1],
            ..ExperimentConfig::default()
        };
        let axis = SweepAxis::Channels(vec![4]);
        let gopt = AlgoSpec::Gopt(GoptConfig {
            population: 60,
            max_generations: 100,
            ..GoptConfig::default()
        });
        let result = run_timing_sweep(&cfg, &axis, &[AlgoSpec::DrpCds, gopt]);
        let p = &result.points[0];
        let drpcds_ms = p.algos[0].mean_ms;
        let gopt_ms = p.algos[1].mean_ms;
        assert!(
            gopt_ms > drpcds_ms,
            "GOPT ({gopt_ms} ms) should dwarf DRP-CDS ({drpcds_ms} ms)"
        );
    }
}
