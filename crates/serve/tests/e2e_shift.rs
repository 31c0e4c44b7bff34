//! The acceptance scenario for the serving runtime: a mid-run Zipf
//! shift is injected into the request stream; the runtime must detect
//! it, hot-swap the program at a cycle boundary without dropping a
//! request, and converge the serving Eq. 3 cost to within 10% of an
//! oracle DRP-CDS re-run on the *true* post-shift workload.

use dbcast_alloc::DrpCds;
use dbcast_model::{Allocation, ChannelAllocator};
use dbcast_serve::{
    shifted_trace, shifted_workload, DriftDetector, EstimatorConfig, RepairMode,
    ServeConfig, ServeRuntime, WorkerMode,
};
use dbcast_workload::WorkloadBuilder;

const CHANNELS: usize = 5;
const SEED: u64 = 41;

fn scenario(
) -> (dbcast_model::Database, dbcast_model::Database, dbcast_workload::RequestTrace) {
    // The assumed workload the server starts from…
    let pre = WorkloadBuilder::new(60).skewness(0.8).seed(SEED).build().unwrap();
    // …and the regime it shifts into: a steeper Zipf whose hot set is
    // yesterday's cold half.
    let post = shifted_workload(&pre, 1.2, 30).unwrap();
    // 3k requests of the old regime, then 9k of the new one — enough
    // post-shift mass for the EWMA estimate to converge.
    let trace = shifted_trace(&pre, &post, 3_000, 9_000, 50.0, SEED).unwrap();
    (pre, post, trace)
}

fn config() -> ServeConfig {
    ServeConfig {
        channels: CHANNELS,
        bandwidth: 10.0,
        estimator: EstimatorConfig {
            decay: 0.98,
            seed: SEED,
            ..EstimatorConfig::default()
        },
        detector: DriftDetector::default(),
        repair: RepairMode::Full,
        worker: WorkerMode::Deterministic,
        max_ticks: None,
        slo: None,
        pace_ms: 0,
        inject_panic_at_tick: None,
        audit: Default::default(),
        inject_slow_channel: None,
        inject_slow_factor: 1.0,
    }
}

#[test]
fn detects_the_shift_swaps_at_a_boundary_and_converges_to_the_oracle() {
    let (pre, post, trace) = scenario();
    let runtime = ServeRuntime::new(&pre, config()).unwrap();
    let report = runtime.run(&trace).unwrap();

    // Every request was admitted and accounted; nothing fell through a
    // swap and the run was not cut short.
    assert_eq!(report.requests, trace.len() as u64);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.unserved, 0);
    assert_eq!(
        report.generations.iter().map(|g| g.requests()).sum::<u64>(),
        report.requests
    );

    // The shift was detected and at least one hot swap happened, at a
    // tick (= cycle) boundary strictly inside the run.
    assert!(report.drift_events >= 1, "no drift detected: {report:?}");
    assert!(report.swaps >= 1, "no swap performed: {report:?}");
    assert_eq!(report.generations.len() as u64, report.swaps + 1);
    for g in &report.generations[1..] {
        assert!(g.installed_tick >= 1);
        assert!(g.installed_at > 0.0);
        let latency = g.swap_latency.expect("swapped generations record latency");
        assert!(latency > 0.0, "swap must land at a later boundary than its dispatch");
        assert!(g.repair.is_some());
        assert!(g.drift_at_dispatch.unwrap() > config().detector.threshold);
    }

    // Convergence: evaluate the assignment the runtime is serving at
    // the end of the run under the TRUE post-shift frequencies, and
    // compare with an oracle that re-runs DRP-CDS on the post-shift
    // workload itself.
    let serving_cost =
        Allocation::from_assignment(&post, CHANNELS, report.final_assignment.clone())
            .unwrap()
            .total_cost();
    let oracle_cost = DrpCds::new().allocate(&post, CHANNELS).unwrap().total_cost();
    assert!(
        serving_cost <= oracle_cost * 1.10,
        "serving cost {serving_cost:.4} not within 10% of oracle {oracle_cost:.4}"
    );

    // And the swap was worth it: the initial program (generation 0 is
    // DRP-CDS on the pre-shift workload) evaluated on the post-shift
    // workload is strictly worse than what the loop converged to.
    let stale_assignment = DrpCds::new().allocate(&pre, CHANNELS).unwrap();
    let stale_cost = Allocation::from_assignment(
        &post,
        CHANNELS,
        stale_assignment.assignment().to_vec(),
    )
    .unwrap()
    .total_cost();
    assert!(
        serving_cost < stale_cost,
        "converged cost {serving_cost:.4} should beat the stale program {stale_cost:.4}"
    );
}

#[test]
fn the_acceptance_run_is_seed_replayable() {
    let (pre, _, trace) = scenario();
    let mut reports = (0..2).map(|_| {
        let runtime = ServeRuntime::new(&pre, config()).unwrap();
        let mut report = runtime.run(&trace).unwrap();
        // Wall-clock repair timing is the one legitimately
        // nondeterministic field.
        for g in &mut report.generations {
            if let Some(r) = &mut g.repair {
                r.wall_ns = 0;
            }
        }
        report
    });
    let (first, second) = (reports.next().unwrap(), reports.next().unwrap());
    assert_eq!(first, second);
}

#[test]
fn budgeted_repair_also_closes_most_of_the_gap() {
    let (pre, post, trace) = scenario();
    let mut cfg = config();
    cfg.repair = RepairMode::Budgeted { budget: 64 };
    let runtime = ServeRuntime::new(&pre, cfg).unwrap();
    let report = runtime.run(&trace).unwrap();

    assert_eq!(report.dropped, 0);
    assert!(report.swaps >= 1);
    let serving_cost =
        Allocation::from_assignment(&post, CHANNELS, report.final_assignment.clone())
            .unwrap()
            .total_cost();
    let oracle_cost = DrpCds::new().allocate(&post, CHANNELS).unwrap().total_cost();
    // The budgeted repair starts from the stale assignment and applies
    // at most 64 CDS moves per swap; it must still land within 25% of
    // the oracle on this scenario (full repair gets within 10%).
    assert!(
        serving_cost <= oracle_cost * 1.25,
        "budgeted serving cost {serving_cost:.4} vs oracle {oracle_cost:.4}"
    );
}
