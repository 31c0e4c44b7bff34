//! Integration test: the quality ordering between algorithms the
//! paper's evaluation relies on, checked across many seeded workloads.

use dbcast::alloc::{Drp, DrpCds};
use dbcast::baselines::{AlgoSpec, ExactBnB, Flat, Gopt, GoptConfig, Vfk};
use dbcast::model::{ChannelAllocator, Database};
use dbcast::workload::{SizeDistribution, WorkloadBuilder};

fn workloads(n: usize, phi: f64, theta: f64, seeds: std::ops::Range<u64>) -> Vec<Database> {
    seeds
        .map(|s| {
            WorkloadBuilder::new(n)
                .skewness(theta)
                .sizes(SizeDistribution::Diversity { phi_max: phi })
                .seed(s)
                .build()
                .unwrap()
        })
        .collect()
}

fn mean_cost(algo: &dyn ChannelAllocator, dbs: &[Database], k: usize) -> f64 {
    dbs.iter().map(|db| algo.allocate(db, k).unwrap().total_cost()).sum::<f64>()
        / dbs.len() as f64
}

#[test]
fn exact_lower_bounds_every_heuristic_on_small_instances() {
    let exact = ExactBnB::new();
    // Every registered allocator but GOPT, whose GA budget is too slow
    // to run per seed.
    let heuristics: Vec<Box<dyn ChannelAllocator>> = AlgoSpec::registry()
        .into_iter()
        .filter(|s| !matches!(s, AlgoSpec::Gopt(_)))
        .map(|s| s.build(0))
        .collect();
    for seed in 0..8 {
        let db = WorkloadBuilder::new(11).seed(seed).build().unwrap();
        let optimum = exact.allocate(&db, 3).unwrap().total_cost();
        for algo in &heuristics {
            let cost = algo.allocate(&db, 3).unwrap().total_cost();
            assert!(
                cost >= optimum - 1e-9,
                "{} beat the exact optimum on seed {seed}: {cost} < {optimum}",
                algo.name()
            );
        }
    }
}

#[test]
fn drpcds_is_close_to_exact_optimum() {
    // The paper reports ~3% error vs the (near-)global optimum.
    let mut total_gap = 0.0;
    let trials = 8;
    for seed in 0..trials {
        let db = WorkloadBuilder::new(12).seed(seed).build().unwrap();
        let optimum = ExactBnB::new().allocate(&db, 4).unwrap().total_cost();
        let heuristic = DrpCds::new().allocate(&db, 4).unwrap().total_cost();
        total_gap += heuristic / optimum - 1.0;
    }
    let mean_gap = total_gap / trials as f64;
    assert!(mean_gap < 0.05, "mean DRP-CDS optimality gap {mean_gap:.4} exceeds 5%");
}

#[test]
fn paper_ordering_holds_in_the_diverse_environment() {
    // Figure 2/4 ordering at Φ = 2: FLAT ≥ VF^K ≥ DRP ≥ DRP-CDS.
    let dbs = workloads(80, 2.0, 0.8, 0..10);
    let k = 6;
    let flat = mean_cost(&Flat::new(), &dbs, k);
    let vfk = mean_cost(&Vfk::new(), &dbs, k);
    let drp = mean_cost(&Drp::new(), &dbs, k);
    let drpcds = mean_cost(&DrpCds::new(), &dbs, k);
    assert!(flat > vfk, "FLAT {flat} should exceed VF^K {vfk}");
    assert!(vfk > drp, "VF^K {vfk} should exceed DRP {drp}");
    assert!(drp >= drpcds - 1e-9, "DRP {drp} should not beat DRP-CDS {drpcds}");
}

#[test]
fn vfk_matches_drpcds_in_the_conventional_environment() {
    // Figure 4 at Φ = 0: size-blind VF^K is near-optimal.
    let dbs = workloads(80, 0.0, 0.8, 0..10);
    let vfk = mean_cost(&Vfk::new(), &dbs, 6);
    let drpcds = mean_cost(&DrpCds::new(), &dbs, 6);
    assert!(
        (vfk - drpcds).abs() / drpcds < 0.05,
        "at Phi = 0, VF^K {vfk} and DRP-CDS {drpcds} should be within 5%"
    );
}

#[test]
fn gopt_tracks_the_best_heuristic() {
    let gopt = Gopt::new(GoptConfig {
        population: 60,
        max_generations: 150,
        stagnation_limit: 40,
        ..GoptConfig::default()
    });
    let dbs = workloads(40, 2.0, 0.8, 0..5);
    let g = mean_cost(&gopt, &dbs, 4);
    let d = mean_cost(&DrpCds::new(), &dbs, 4);
    assert!(
        g <= d * 1.01,
        "GOPT {g} should be at least as good as DRP-CDS {d} (within 1%)"
    );
}

#[test]
fn increasing_channels_reduces_cost_for_every_algorithm() {
    // Figure 2's x-axis effect.
    let db = WorkloadBuilder::new(90).seed(3).build().unwrap();
    for algo in [AlgoSpec::Vfk, AlgoSpec::Drp, AlgoSpec::DrpCds].map(|s| s.build(0)) {
        let mut prev = f64::INFINITY;
        for k in [4, 6, 8, 10] {
            let cost = algo.allocate(&db, k).unwrap().total_cost();
            assert!(
                cost <= prev + 1e-9,
                "{} cost should not grow with K (K = {k})",
                algo.name()
            );
            prev = cost;
        }
    }
}

#[test]
fn skewness_reduces_waiting_time() {
    // Figure 5's x-axis effect: more skew, less expected waiting.
    let k = 6;
    let mut prev = f64::INFINITY;
    for theta in [0.4, 0.8, 1.2, 1.6] {
        let dbs = workloads(100, 2.0, theta, 0..10);
        let cost = mean_cost(&DrpCds::new(), &dbs, k);
        assert!(
            cost < prev,
            "cost should fall as skewness rises (theta = {theta}): {cost} vs {prev}"
        );
        prev = cost;
    }
}

#[test]
fn diversity_increases_waiting_time() {
    // Figure 4's x-axis effect: more diversity, more waiting.
    let k = 6;
    let mut prev = 0.0;
    for phi in [0.0, 1.0, 2.0, 3.0] {
        let dbs = workloads(100, phi, 0.8, 0..10);
        let cost = mean_cost(&DrpCds::new(), &dbs, k);
        assert!(
            cost > prev,
            "cost should rise with diversity (phi = {phi}): {cost} vs {prev}"
        );
        prev = cost;
    }
}

#[test]
fn drp_alone_is_strong_at_power_of_two_channels() {
    // The paper's K = 2^n observation: DRP ≈ DRP-CDS at K = 4, 8.
    let dbs = workloads(96, 2.0, 0.8, 0..10);
    for k in [4usize, 8] {
        let drp = mean_cost(&Drp::new(), &dbs, k);
        let refined = mean_cost(&DrpCds::new(), &dbs, k);
        let gap = drp / refined - 1.0;
        assert!(
            gap < 0.12,
            "at K = {k}, DRP should already be close to DRP-CDS (gap {gap:.3})"
        );
    }
}

#[test]
fn cost_lower_bound_certifies_drpcds_on_the_serving_catalogue() {
    // The N=2000, K=16 catalogue the serving runtime is sized on.
    let db = workloads(2000, 2.0, 0.8, 42..43).remove(0);
    let (f, z): (Vec<f64>, Vec<f64>) = db.iter().map(|d| (d.frequency(), d.size())).unzip();
    let bound = dbcast::model::cost_lower_bound(&f, &z, 16, &mut Vec::new());
    let heuristic = DrpCds::new().allocate(&db, 16).unwrap().total_cost();
    assert!(bound <= heuristic, "bound {bound} exceeds DRP-CDS {heuristic}");
    // Tight enough to read a gap off: DRP-CDS sits within a few percent.
    assert!(heuristic / bound < 1.05, "DRP-CDS / bound = {}", heuristic / bound);
}
