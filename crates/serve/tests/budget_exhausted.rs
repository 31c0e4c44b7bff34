//! Budgeted repair that runs out of moves, on `e2e_shift`'s scenario: a
//! one-move budget cannot absorb the shift, so every repair must say so
//! in its report and in the flight recorder, with the gain it left; and
//! a repair that moves nothing must not swap at all.
//!
//! The flight ring is process-global; the tests hold one lock so no
//! other run records into the ring while one is read back.

use std::sync::Mutex;

use dbcast_flight::EventKind;
use dbcast_serve::{
    shifted_trace, shifted_workload, EstimatorConfig, RepairMode, ServeConfig, ServeReport,
    ServeRuntime,
};
use dbcast_workload::WorkloadBuilder;

static RING: Mutex<()> = Mutex::new(());

/// Runs `e2e_shift`'s scenario under a budgeted repair of `budget` moves.
fn run_with_budget(budget: usize) -> ServeReport {
    let seed = 41;
    let pre = WorkloadBuilder::new(60).skewness(0.8).seed(seed).build().unwrap();
    let post = shifted_workload(&pre, 1.2, 30).unwrap();
    let trace = shifted_trace(&pre, &post, 3_000, 9_000, 50.0, seed).unwrap();
    let config = ServeConfig {
        channels: 5,
        estimator: EstimatorConfig { decay: 0.98 },
        repair: RepairMode::Budgeted { budget },
        ..ServeConfig::default()
    };
    ServeRuntime::new(&pre, config).unwrap().run(&trace).unwrap()
}

#[test]
fn a_zero_move_budget_never_swaps() {
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_with_budget(0);
    assert!(report.drift_events >= 1, "the shift must still be detected: {report:?}");
    assert_eq!(report.swaps, 0, "a repair that moves nothing must not swap: {report:?}");
}

#[test]
fn a_one_move_budget_reports_the_gain_it_left() {
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let first_seq = dbcast_flight::recorder().recorded();
    let report = run_with_budget(1);
    let events = dbcast_flight::recorder().snapshot();

    let exhausted: Vec<_> = report
        .generations
        .iter()
        .filter_map(|g| g.repair.as_ref().filter(|r| r.budget_exhausted).map(|r| (g, r)))
        .collect();
    assert!(!exhausted.is_empty(), "one move cannot absorb the shift: {report:?}");
    for (g, repair) in exhausted {
        assert_eq!(repair.moves, 1, "generation {}", g.generation);
        assert!(repair.remaining_gain_bound > 0.0, "generation {}", g.generation);
        // The boundary that installs the generation records the bound
        // as the event's value and the move count as its extra.
        let event = events
            .iter()
            .find(|e| {
                e.seq >= first_seq
                    && e.kind == EventKind::BudgetExhausted
                    && e.generation == g.generation
            })
            .unwrap_or_else(|| panic!("no budget_exhausted event for {}", g.generation));
        assert_eq!(event.tick, g.installed_tick);
        assert_eq!(event.value.to_bits(), repair.remaining_gain_bound.to_bits());
        assert_eq!(event.extra, repair.moves as u64);
    }
}
