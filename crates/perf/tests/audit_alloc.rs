//! Allocation discipline of the per-request audit hot path: the
//! counting allocator is installed for this test binary, so the deltas
//! below are real heap traffic, not estimates.
//!
//! Two contracts from the audit design:
//!
//! 1. the per-request decision path — seeded sampling hash, residual
//!    accounting and the tail check — is allocation-free, and
//! 2. recording a sampled request into the seqlock trace ring is also
//!    allocation-free (pure atomics into preallocated slots).

use std::sync::Mutex;

use dbcast_audit::{AuditConfig, AuditTracer, TraceRecord, FLAG_SEEDED};
use dbcast_perf::{allocation_counts, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so a test's measured
/// window sees every thread's heap traffic — the tests below must not
/// overlap.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn audit_decision_path_is_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Tracer construction (ring slot table, ledger cells) happens once,
    // outside the measured window.
    let tracer = AuditTracer::new(AuditConfig { seed: 42, ..AuditConfig::default() }, 6);

    let (before, _) = allocation_counts();
    let mut sampled = 0u64;
    for id in 0..10_000u64 {
        let channel = (id % 6) as usize;
        let predicted = 0.3 + channel as f64 * 0.01;
        let wait = predicted + (id % 13) as f64 * 0.005;
        tracer.observe_wait(channel, wait, predicted);
        sampled += u64::from(tracer.should_sample(id));
        std::hint::black_box(tracer.tail_slow(wait, 0.35));
    }
    let (after, _) = allocation_counts();
    std::hint::black_box(sampled);
    // The counters are process-wide, so the harness thread printing a
    // sibling test's result can leak a couple of allocations into the
    // window; any per-request allocation would show up as >= 9999.
    assert!(
        after - before < 16,
        "audit decision path allocated {} time(s) over 10000 requests",
        after - before
    );
}

#[test]
fn trace_ring_record_is_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = AuditTracer::new(AuditConfig { seed: 42, ..AuditConfig::default() }, 6);

    let (before, _) = allocation_counts();
    for id in 0..10_000u64 {
        tracer.record(&TraceRecord {
            request_id: id,
            item: id % 120,
            arrival_tick: id / 50,
            satisfied_tick: id / 50 + 1,
            generation: 0,
            channel: id % 6,
            queue_position: id % 7,
            arrival: id as f64 * 0.02,
            wait: 0.4,
            predicted: 0.3,
            straddle_penalty: 0.0,
            flags: FLAG_SEEDED,
        });
    }
    let (after, _) = allocation_counts();
    assert_eq!(tracer.sampled(), 10_000);
    assert!(
        after - before < 16,
        "trace ring record allocated {} time(s) over 10000 records",
        after - before
    );
}
