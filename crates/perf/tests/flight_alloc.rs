//! Allocation discipline of the always-on observability hot paths: the
//! counting allocator is installed for this test binary, so the deltas
//! below are real heap traffic, not estimates.
//!
//! Three contracts from the flight-recorder design:
//!
//! 1. recording a flight event is allocation-free (pure atomics),
//! 2. so are the audit trace ring's record and straddle-amend paths,
//!    which write through the same seqlock ring, and
//! 3. the serve loop performs zero per-tick heap allocations — total
//!    allocations for a run depend on the request count, never on how
//!    many scheduling ticks the same stream is chopped into.

use std::sync::Mutex;

use dbcast_audit::{TraceRecord, TraceRing, FLAG_SEEDED};
use dbcast_flight::{EventKind, FlightEvent};
use dbcast_perf::{allocation_counts, thread_allocations, CountingAllocator};
use dbcast_serve::{
    poisson_trace, DriftDetector, EstimatorConfig, RepairMode, ServeConfig, ServeRuntime,
    WorkerMode,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The serve-loop test reads the process-wide counters, whose window
/// sees every thread's heap traffic — the tests below must not overlap
/// it. The record-path tests count the calling thread only.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn event(i: u64) -> FlightEvent {
    FlightEvent::new(EventKind::RequestServed, i, 0, i as f64 * 0.25)
        .value(i as f64)
        .extra(i)
}

#[test]
fn flight_record_is_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // First record initializes the global ring (one-time slot table
    // allocation); do it outside the measured window.
    dbcast_flight::record(event(0));

    let before = thread_allocations();
    for i in 1..10_000u64 {
        dbcast_flight::record(event(i));
    }
    let allocs = thread_allocations() - before;
    assert_eq!(allocs, 0, "flight record allocated {allocs} time(s) over 9999 events");
}

#[test]
fn trace_ring_record_and_mark_straddles_are_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring = TraceRing::new(256);
    let mut marked = 0;
    let before = thread_allocations();
    for i in 0..30_000u64 {
        let wait = (i % 7) as f64 + 0.5;
        ring.record(&TraceRecord {
            request_id: i,
            item: i % 40,
            arrival_tick: i,
            satisfied_tick: i + 1,
            generation: 0,
            channel: i % 4,
            queue_position: i % 5,
            arrival: i as f64 * 0.25,
            wait,
            predicted: wait * 0.8,
            straddle_penalty: 0.0,
            flags: FLAG_SEEDED,
        });
        if i % 16 == 15 {
            marked += ring.mark_straddles(i as f64 * 0.25 - 0.1);
        }
    }
    let allocs = thread_allocations() - before;
    assert!(marked > 0, "no straddle was amended");
    assert_eq!(allocs, 0, "trace ring allocated over 30000 records and 1875 amend passes");
}

/// Runs one quiet serve loop (no drift, no swaps, deterministic) and
/// returns its total allocation count.
fn run_allocs(rate: f64) -> u64 {
    let db = dbcast_workload::WorkloadBuilder::new(60)
        .skewness(0.8)
        .sizes(dbcast_workload::SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(7)
        .build()
        .expect("workload builds");
    // Same request count at a lower arrival rate = the same stream
    // stretched over more virtual time = strictly more ticks.
    let trace = poisson_trace(&db, rate, 1500, 11).expect("trace builds");
    let config = ServeConfig {
        channels: 4,
        bandwidth: 10.0,
        estimator: EstimatorConfig::default(),
        detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
        repair: RepairMode::Full,
        worker: WorkerMode::Deterministic,
        max_ticks: None,
        slo: None,
        pace_ms: 0,
        inject_panic_at_tick: None,
        audit: Default::default(),
        inject_slow_channel: None,
        inject_slow_factor: 1.0,
    };
    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let (before, _) = allocation_counts();
    let report = runtime.run(&trace).expect("run succeeds");
    let (after, _) = allocation_counts();
    assert_eq!(report.requests + report.dropped + report.unserved, 1500);
    assert_eq!(report.swaps, 0, "quiet run must not swap");
    after - before
}

#[test]
fn serve_loop_heap_traffic_is_independent_of_tick_count() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warm up global state (obs registry interning, flight ring, lazy
    // statics) so neither measured run pays one-time costs.
    let _ = run_allocs(10.0);

    let fast = run_allocs(10.0); // ~150 virtual seconds
    let slow = run_allocs(1.0); // ~1500 virtual seconds, ~10x the ticks
    let delta = fast.abs_diff(slow);
    assert!(
        delta <= 8,
        "per-tick allocations detected: {fast} allocs at rate 10 vs {slow} at rate 1 \
         (delta {delta}); the tick path must not touch the heap"
    );
}
