//! Allocation discipline of the broadcast egress hot path: the
//! counting allocator is installed for this test binary, so the delta
//! below is real heap traffic, not an estimate.
//!
//! The contract from the transport design: appending a data frame's
//! wire encoding to a warm (pre-sized) buffer performs zero heap
//! allocations. The egress loop encodes every slot of every window
//! through this path, so a single allocation here would turn into
//! per-frame heap churn on the server.

use std::sync::Mutex;

use dbcast_net::{
    decode_telemetry_payload, encode_data_frame_into, encode_telemetry_frame_into,
    DataFrame, HEADER_LEN, TRAILER_LEN,
};
use dbcast_perf::{allocation_counts, CountingAllocator};
use dbcast_serve::FleetDigest;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so a test's measured
/// window sees every thread's heap traffic — the tests below must not
/// overlap.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn frame(i: u32) -> DataFrame {
    DataFrame {
        channel: i % 6,
        item: i % 120,
        generation: u64::from(i % 3),
        start: f64::from(i) * 0.25,
        duration: 0.5 + f64::from(i % 7) * 0.125,
    }
}

#[test]
fn steady_state_frame_encode_is_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the buffer outside the measured window: the first encode may
    // grow it once, after which clear() keeps the capacity.
    let mut buf = Vec::with_capacity(256);
    encode_data_frame_into(&mut buf, &frame(0));

    let (before, _) = allocation_counts();
    for i in 1..10_000u32 {
        buf.clear();
        encode_data_frame_into(&mut buf, &frame(i));
        assert!(!buf.is_empty());
    }
    let (after, _) = allocation_counts();
    // The counters are process-wide, so the harness thread printing a
    // sibling test's result can leak a couple of allocations into the
    // window; any per-frame allocation would show up as >= 9999.
    assert!(
        after - before < 16,
        "frame encode allocated {} time(s) over 9999 frames",
        after - before
    );
}

/// A representative measurement-slice digest: populated histogram
/// cells and a few coverage rows, like a real client's per-generation
/// upload.
fn telemetry(i: u32) -> FleetDigest {
    let mut t = FleetDigest::ack(i % 8, i, 1);
    t.slice = true;
    t.generation = u64::from(i % 2);
    t.origin = f64::from(i % 2) * 12.5;
    t.samples = 6;
    t.mean_access = 0.42 + f64::from(i % 5) * 0.01;
    t.mean_tuning = 0.03;
    t.predicted_access = 0.40;
    t.requests = 8;
    t.completed = 6;
    t.cache_hits = 1;
    t.conflicts = 2;
    t.retunes = 3;
    t.torn = 0;
    for k in 0..6u64 {
        t.access.record(400_000 + k * 17_000 + u64::from(i % 3));
        t.tuning.record(30_000 + k * 500);
    }
    t.coverage = vec![(0, 120 + u64::from(i % 4)), (1, 96), (2, 80)];
    t
}

#[test]
fn steady_state_telemetry_encode_and_decode_are_allocation_free() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warm every buffer outside the measured window: the scratch wire
    // buffer grows once, and the decode target's coverage vector keeps
    // its capacity across `clear()`.
    let mut wire = Vec::with_capacity(1024);
    encode_telemetry_frame_into(&mut wire, &telemetry(0));
    let mut decoded = telemetry(0);
    decode_telemetry_payload(&wire[HEADER_LEN..wire.len() - TRAILER_LEN], &mut decoded)
        .expect("warm-up digest decodes");
    let mut digest = telemetry(0);

    let (before, _) = allocation_counts();
    for i in 1..10_000u32 {
        // Mutate the warm digest in place — a client reuses one frame
        // per slice the same way.
        digest.seq = i;
        digest.generation = u64::from(i % 2);
        wire.clear();
        encode_telemetry_frame_into(&mut wire, &digest);
        decode_telemetry_payload(&wire[HEADER_LEN..wire.len() - TRAILER_LEN], &mut decoded)
            .expect("clean digest decodes");
        assert_eq!(decoded.seq, i);
    }
    let (after, _) = allocation_counts();
    assert!(
        after - before < 16,
        "telemetry encode+decode allocated {} time(s) over 9999 digests",
        after - before
    );
}
