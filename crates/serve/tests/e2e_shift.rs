//! The acceptance scenario for the serving runtime: a mid-run Zipf
//! shift is injected into the request stream; the runtime must detect
//! it, hot-swap the program at a cycle boundary without dropping a
//! request, and converge the serving Eq. 3 cost to within 10% of an
//! oracle DRP-CDS re-run on the *true* post-shift workload.
//!
//! The flight ring is process-global; the tests hold one lock so no
//! other run records into the ring while one is read back.

use std::sync::Mutex;

use dbcast_alloc::DrpCds;
use dbcast_flight::EventKind;
use dbcast_model::{Allocation, ChannelAllocator};
use dbcast_serve::{
    shifted_trace, shifted_workload, DriftDetector, EstimatorConfig, RepairMode,
    ServeConfig, ServeRuntime, WorkerMode,
};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

const CHANNELS: usize = 5;
const SEED: u64 = 41;

static RING: Mutex<()> = Mutex::new(());

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
        estimator: EstimatorConfig { decay: 0.98 },
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
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
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
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
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
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn one_shift_at_n2000_is_absorbed_in_a_few_swaps() {
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    // The CLI shape `serve --items 2000 --channels 16 --poisson 50
    // --requests 200000 --shift-at 0.5 --seed 3`: one θ=1.2 shift onto
    // the catalogue's cold half, halfway through.
    let seed = 3;
    let pre = WorkloadBuilder::new(2_000)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(seed)
        .build()
        .unwrap();
    let post = shifted_workload(&pre, 1.2, 1_000).unwrap();
    let trace = shifted_trace(&pre, &post, 100_000, 100_000, 50.0, seed).unwrap();
    let config = ServeConfig { channels: 16, ..config() };
    let report = ServeRuntime::new(&pre, config).unwrap().run(&trace).unwrap();
    assert_eq!(report.requests, trace.len() as u64);
    assert!(report.swaps >= 1, "the shift must be absorbed: {} swaps", report.swaps);
    assert!(report.swaps <= 5, "{} swaps for one shift", report.swaps);
    let mean = report.waiting.mean();
    assert!(mean <= 60.94, "mean wait {mean:.4} s");
}

#[test]
fn every_full_repair_reports_the_items_it_moves() {
    let _ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let (pre, _, trace) = scenario();
    let first_seq = dbcast_flight::recorder().recorded();
    let report = ServeRuntime::new(&pre, config()).unwrap().run(&trace).unwrap();
    let events = dbcast_flight::recorder().snapshot();
    assert!(report.swaps >= 1, "no swap performed: {report:?}");

    // The assignment serving just before a generation installs: a run
    // cut at that generation's install tick ends on it.
    let serving_before = |tick: u64| {
        let capped = ServeConfig { max_ticks: Some(tick), ..config() };
        ServeRuntime::new(&pre, capped).unwrap().run(&trace).unwrap().final_assignment
    };
    let gens = &report.generations;
    for (k, g) in gens.iter().enumerate().skip(1) {
        let repair = g.repair.as_ref().expect("installed generations carry their repair");
        let before = serving_before(g.installed_tick);
        let after = match gens.get(k + 1) {
            Some(next) => serving_before(next.installed_tick),
            None => report.final_assignment.clone(),
        };
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(repair.moves > 0, "generation {} installed no move", g.generation);
        assert_eq!(repair.moves, moved, "generation {}", g.generation);
        // The boundary that dispatched the repair, on the generation it
        // replaces, records the move count as the outcome's extra.
        let wall_ms = repair.wall_ns as f64 / 1e6;
        let event = events
            .iter()
            .find(|e| {
                e.seq >= first_seq
                    && e.kind == EventKind::RepairOutcome
                    && e.generation == g.generation - 1
                    && e.value.to_bits() == wall_ms.to_bits()
            })
            .unwrap_or_else(|| panic!("no repair_outcome event for {}", g.generation));
        assert_eq!(event.extra, repair.moves as u64, "generation {}", g.generation);
    }
}
