//! Allocation discipline of the per-request serving path: the counting
//! allocator is installed for this test binary, so the deltas below are
//! real heap traffic, not estimates.
//!
//! 1. The Eq. 1 wait kernel (`response_time`, `best_start`,
//!    `locate_all`) reads the program's placement table and performs
//!    no heap allocation, replicated programs included.
//! 2. `ServeRuntime::run` allocates a fixed amount per run: serving ten
//!    times the requests costs no more allocations, with the SLO
//!    verdict (read from the audit ledger at tick boundaries) on or off.

use std::hint::black_box;
use std::sync::Mutex;

use dbcast_model::{Allocation, BroadcastProgram, Database, ItemId, ItemSpec};
use dbcast_perf::{allocation_counts, CountingAllocator};
use dbcast_serve::{poisson_trace, DriftDetector, ServeConfig, ServeRuntime, SloConfig};
use dbcast_workload::WorkloadBuilder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so a test's measured
/// window sees every thread's heap traffic — the tests below must not
/// overlap.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Allocations made by `f`, as the fewest over three runs: the harness
/// thread reporting a sibling test can leak into one window, but a
/// per-call allocation shows up in every window.
fn fewest_allocations(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let (before, _) = allocation_counts();
            f();
            let (after, _) = allocation_counts();
            after - before
        })
        .min()
        .expect("three windows")
}

#[test]
fn wait_kernel_is_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::try_from_specs(
        (0..60).map(|i| ItemSpec::new(1.0 / f64::from(i + 1), 1.0 + f64::from(i % 7))),
    )
    .unwrap();
    let alloc = Allocation::from_assignment(&db, 4, (0..db.len()).map(|i| i % 4).collect())
        .unwrap();
    let partition = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
    let mut groups: Vec<Vec<ItemId>> = vec![Vec::new(); 4];
    for i in 0..db.len() {
        groups[i % 4].push(ItemId::new(i));
        groups[(i + 1) % 4].push(ItemId::new(i));
    }
    let replicated = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();

    for program in [&partition, &replicated] {
        let allocs = fewest_allocations(|| {
            for r in 0..10_000u32 {
                let item = ItemId::new(r as usize % 60);
                let now = f64::from(r) * 0.0137;
                black_box(program.response_time(black_box(item), now));
                black_box(program.best_start(black_box(item), now));
                for carrier in program.locate_all(black_box(item)) {
                    black_box(carrier);
                }
            }
        });
        assert_eq!(allocs, 0, "the wait kernel allocated over 10000 lookups");
    }
}

#[test]
fn serve_run_allocations_do_not_scale_with_requests() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = WorkloadBuilder::new(120).skewness(0.8).seed(42).build().unwrap();
    let slo_off = ServeConfig {
        // L1 distance never exceeds 2: drift is unreachable.
        detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
        ..ServeConfig::default()
    };
    let slo_on = ServeConfig {
        slo: Some(SloConfig { trigger: true, ..SloConfig::default() }),
        ..slo_off
    };
    for config in [slo_off, slo_on] {
        let run_allocs = |requests: usize| {
            let trace = poisson_trace(&db, 50.0, requests, 7).unwrap();
            let runtime = ServeRuntime::new(&db, config).unwrap();
            // Warm once so lazily built registry entries are not counted.
            runtime.run(&trace).unwrap();
            fewest_allocations(|| {
                let report = runtime.run(&trace).unwrap();
                assert_eq!(report.requests, requests as u64);
                assert_eq!(report.swaps, 0);
                assert_eq!(report.final_generation().slo.is_some(), config.slo.is_some());
                black_box(report);
            })
        };
        let small = run_allocs(2_000);
        let large = run_allocs(20_000);
        assert!(
            large <= small + 16,
            "serving 10x the requests went from {small} to {large} allocations \
             (slo {:?})",
            config.slo
        );
    }
}
