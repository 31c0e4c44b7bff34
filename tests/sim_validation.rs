//! Integration test: the discrete-event simulator agrees with the
//! analytical model across allocations, parameters and algorithms, and
//! runs programs that carry an item on several channels.

use dbcast::alloc::DrpCds;
use dbcast::baselines::{Flat, Vfk};
use dbcast::model::{BroadcastProgram, ChannelAllocator, ItemId};
use dbcast::sim::{validate_against_model, Simulation};
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

#[test]
fn overlapping_programs_simulate_with_all_engine_invariants() {
    // A decoded directory may carry an item on several channels; the
    // event engine must handle such a program (3 events per request,
    // every request completes, no negative probe).
    let db = WorkloadBuilder::new(30).skewness(1.0).seed(49).build().unwrap();
    let mut groups: Vec<Vec<ItemId>> = vec![Vec::new(); 3];
    for i in 0..30 {
        groups[i % 3].push(ItemId::new(i));
    }
    // The hottest item airs on all three channels, the next on two.
    groups[1].push(ItemId::new(0));
    groups[2].push(ItemId::new(0));
    groups[0].push(ItemId::new(1));
    let program = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();
    assert_eq!(program.locate_all(ItemId::new(0)).len(), 3);
    assert_eq!(program.locate_all(ItemId::new(1)).len(), 2);
    let trace = TraceBuilder::new(&db).requests(5_000).seed(50).build().unwrap();
    let report = Simulation::new(&program, &trace).run().unwrap();
    assert_eq!(report.completed(), 5_000);
    assert_eq!(report.events_processed(), 15_000);
    for r in report.records() {
        assert!(r.probe_time() >= -1e-12);
        assert!(r.download_time() > 0.0);
    }
}
