//! Integration test: the trace simulator agrees with the
//! analytical model across allocations, parameters and algorithms.

use dbcast::alloc::DrpCds;
use dbcast::baselines::{Flat, Vfk};
use dbcast::model::ChannelAllocator;
use dbcast::sim::validate_against_model;
use dbcast::workload::{SizeDistribution, TraceBuilder, WorkloadBuilder};

fn check(n: usize, k: usize, phi: f64, theta: f64, algo: &dyn ChannelAllocator) {
    let db = WorkloadBuilder::new(n)
        .skewness(theta)
        .sizes(SizeDistribution::Diversity { phi_max: phi })
        .seed(21)
        .build()
        .unwrap();
    let alloc = algo.allocate(&db, k).unwrap();
    let trace = TraceBuilder::new(&db).requests(40_000).seed(22).build().unwrap();
    let report = validate_against_model(&db, &alloc, &trace, 10.0).unwrap();
    assert!(
        report.relative_error() < 0.05,
        "{} at (N={n}, K={k}, phi={phi}, theta={theta}): \
         analytical {:.4} vs empirical {:.4} (err {:.4})",
        algo.name(),
        report.analytical,
        report.empirical,
        report.relative_error()
    );
}

#[test]
fn model_and_simulator_agree_for_drpcds() {
    check(60, 4, 1.0, 0.8, &DrpCds::new());
    check(120, 6, 2.0, 0.8, &DrpCds::new());
}

#[test]
fn model_and_simulator_agree_for_baselines() {
    check(80, 5, 2.0, 0.8, &Flat::new());
    check(80, 5, 2.0, 0.8, &Vfk::new());
}

#[test]
fn model_and_simulator_agree_at_extreme_parameters() {
    check(60, 4, 0.0, 0.4, &DrpCds::new()); // conventional, near-uniform
    check(60, 4, 3.0, 1.6, &DrpCds::new()); // extreme diversity + skew
}

#[test]
fn empirical_ranking_matches_analytical_ranking() {
    // The simulator must reproduce the paper's algorithm ordering, not
    // just each algorithm's own mean.
    let db = WorkloadBuilder::new(100)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(31)
        .build()
        .unwrap();
    let trace = TraceBuilder::new(&db).requests(40_000).seed(32).build().unwrap();
    let flat_alloc = Flat::new().allocate(&db, 6).unwrap();
    let smart_alloc = DrpCds::new().allocate(&db, 6).unwrap();
    let flat = validate_against_model(&db, &flat_alloc, &trace, 10.0).unwrap();
    let smart = validate_against_model(&db, &smart_alloc, &trace, 10.0).unwrap();
    assert!(smart.empirical < flat.empirical);
    assert!(smart.analytical < flat.analytical);
}
