//! Allocation discipline of the broadcast egress hot path: the
//! counting allocator is installed for this test binary, so the delta
//! below is real heap traffic, not an estimate.
//!
//! The contract from the transport design: appending a data frame's
//! wire encoding to a warm (pre-sized) buffer performs zero heap
//! allocations. The egress encodes each window's data frames through
//! this path, and its index frames through their own encoder, straight
//! into one window buffer, so no frame costs an allocation of its own.
//! The last test pins the whole egress loop to a few allocations per
//! window.

use std::sync::atomic::AtomicBool;

use dbcast_alloc::DrpCds;
use dbcast_model::{BroadcastProgram, ChannelAllocator};
use dbcast_net::{
    decode_telemetry_payload, encode_data_frame_into, encode_telemetry_frame_into,
    run_egress, BroadcastServer, DataFrame, EgressConfig, IndexParams, NetConfig,
    ScriptedSource, SourceGeneration, HEADER_LEN, TRAILER_LEN,
};
use dbcast_perf::{thread_allocations, CountingAllocator};
use dbcast_serve::{FleetDigest, GenerationSlice};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

// Every window counts the calling thread only, so the tests may run in
// parallel without seeing each other's (or the harness's) heap traffic.

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
    // Warm the buffer outside the measured window: the first encode may
    // grow it once, after which clear() keeps the capacity.
    let mut buf = Vec::with_capacity(256);
    encode_data_frame_into(&mut buf, &frame(0));

    let before = thread_allocations();
    for i in 1..10_000u32 {
        buf.clear();
        encode_data_frame_into(&mut buf, &frame(i));
        assert!(!buf.is_empty());
    }
    let allocs = thread_allocations() - before;
    assert_eq!(allocs, 0, "frame encode allocated {allocs} time(s) over 9999 frames");
}

/// A representative measurement-slice digest: populated histogram
/// cells and a few coverage rows, like a real client's per-generation
/// upload.
fn telemetry(i: u32) -> FleetDigest {
    let mut t = FleetDigest::ack(i % 8, i, 1);
    t.slice = Some(GenerationSlice {
        generation: u64::from(i % 2),
        origin: f64::from(i % 2) * 12.5,
        requests: 6,
        mean_access: 0.42 + f64::from(i % 5) * 0.01,
        mean_tuning: 0.03,
        predicted_access: 0.40,
    });
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
    // Warm every buffer outside the measured window: the scratch wire
    // buffer grows once, and the decode target's coverage vector keeps
    // its capacity across `clear()`.
    let mut wire = Vec::with_capacity(1024);
    encode_telemetry_frame_into(&mut wire, &telemetry(0));
    let mut decoded = telemetry(0);
    decode_telemetry_payload(&wire[HEADER_LEN..wire.len() - TRAILER_LEN], &mut decoded)
        .expect("warm-up digest decodes");
    let mut digest = telemetry(0);

    let before = thread_allocations();
    for i in 1..10_000u32 {
        // Mutate the warm digest in place — a client reuses one frame
        // per slice the same way.
        digest.seq = i;
        if let Some(slice) = &mut digest.slice {
            slice.generation = u64::from(i % 2);
        }
        wire.clear();
        encode_telemetry_frame_into(&mut wire, &digest);
        decode_telemetry_payload(&wire[HEADER_LEN..wire.len() - TRAILER_LEN], &mut decoded)
            .expect("clean digest decodes");
        assert_eq!(decoded.seq, i);
    }
    let allocs = thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "telemetry encode+decode allocated {allocs} time(s) over 9999 digests"
    );
}

#[test]
fn the_egress_allocates_per_window_not_per_frame() {
    const WINDOWS: u64 = 500;
    // The `fleet_wire` shape: 120 items of diverse sizes on 6 channels,
    // with the (1,m) air index on.
    let db = WorkloadBuilder::new(120)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(1)
        .build()
        .expect("workload builds");
    let alloc = DrpCds::new().allocate(&db, 6).expect("allocates");
    let program = BroadcastProgram::new(&db, &alloc, 10.0).expect("program builds");
    let frequencies = db.iter().map(|d| d.frequency()).collect();
    let source = ScriptedSource::new(vec![(
        0,
        SourceGeneration { generation: 0, program, frequencies },
    )]);
    // No subscriber: what is left is the egress itself, which encodes
    // every window and hands it to the fan-out.
    let server = BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let config = EgressConfig {
        index: Some(IndexParams { index_size: 0.5, header_size: 0.05 }),
        max_windows: Some(WINDOWS),
        pace: None,
    };

    // The egress encodes and fans out on the calling thread; the window
    // leaves out only the listener's accept thread.
    let before = thread_allocations();
    let report = run_egress(&server, &source, &config, &AtomicBool::new(false))
        .expect("egress runs");
    let allocs = thread_allocations() - before;
    server.shutdown();
    assert!(report.frames > 20 * WINDOWS, "{} frames in {WINDOWS} windows", report.frames);
    // Putting the generation on the air and its directory allocate a
    // fixed amount; one allocation per frame would be >= 20 per window.
    assert!(
        allocs < 8 * WINDOWS,
        "the egress allocated {allocs} time(s) for {} frames in {WINDOWS} windows",
        report.frames
    );
}
