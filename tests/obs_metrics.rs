//! End-to-end telemetry check: with recording switched on, running the
//! paper's algorithms populates the global registry with DRP split
//! timers and counters, CDS iteration counters and GOPT generation
//! counts, each agreeing with the progress the optimizer returns.

use dbcast_alloc::DrpCds;
use dbcast_baselines::{Gopt, GoptConfig};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[test]
fn snapshot_captures_drp_cds_and_gopt_telemetry() {
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();

    let db = WorkloadBuilder::new(30)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(0)
        .build()
        .expect("valid workload parameters");

    let drp_cds = DrpCds::new().allocate_traced(&db, 4).expect("feasible instance");
    let snap = dbcast_obs::registry().snapshot();

    // DRP: splitting 1 group into 4 takes 3 splits, each under the
    // split-scan span timer and each in the returned split log.
    let split_scan =
        snap.histogram("alloc.drp.split_scan").expect("span histogram present");
    assert!(split_scan.count >= 3, "expected >= 3 split scans, got {}", split_scan.count);
    assert_eq!(drp_cds.drp.splits().len(), 3);
    assert_eq!(snap.counter("alloc.drp.splits"), Some(drp_cds.drp.splits().len() as u64));

    // CDS: the refine span always runs, and the iteration counter
    // equals the moves the outcome returns.
    assert!(snap.histogram("alloc.cds.refine").is_some());
    let cds_moves = drp_cds.cds.steps.len() as u64;
    assert_eq!(snap.counter("alloc.cds.iterations").unwrap_or(0), cds_moves);

    // GOPT: one run, its generations counted, and its returned
    // best-cost history non-increasing (elitist selection). Its final
    // polish runs CDS again, which may only add iterations.
    let (_, report) = Gopt::new(GoptConfig {
        max_generations: 10,
        population: 12,
        seed: 7,
        ..GoptConfig::default()
    })
    .allocate_reported(&db, 4)
    .expect("feasible instance");
    let snap = dbcast_obs::registry().snapshot();
    assert_eq!(snap.counter("baselines.gopt.runs"), Some(1));
    assert_eq!(snap.counter("baselines.gopt.generations"), Some(report.generations as u64));
    assert!(report.generations >= 1);
    assert!(snap.counter("alloc.cds.iterations").unwrap_or(0) >= cds_moves);
    assert!(report.best_cost_history.len() >= 2);
    for w in report.best_cost_history.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "GOPT best cost rose: {w:?}");
    }

    // The JSON export carries everything above, and no trace list.
    let json = snap.to_json();
    for needle in
        ["alloc.drp.split_scan", "alloc.cds.iterations", "baselines.gopt", "\"version\": 3"]
    {
        assert!(json.contains(needle), "snapshot JSON missing {needle}");
    }
    assert!(!json.contains("\"traces\""));
}
