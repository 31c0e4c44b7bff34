//! End-to-end transport test: a seeded program streamed over real TCP
//! through a mid-run hot swap, measured by a fleet of concurrent
//! clients.
//!
//! Acceptance criteria pinned here:
//! * ≥ 8 clients complete **all** their requests with zero dropped and
//!   zero torn frames;
//! * per client, per generation, measured mean access time is within
//!   10% of the Eq. 2 expectation for that generation's program;
//! * with (1,m) index frames on the air, tuning time is strictly below
//!   the full-listening time;
//! * the same seed produces a bit-identical fleet report, pinned to a
//!   fixed fingerprint;
//! * a subscriber that never reads is evicted by the write timeout,
//!   while a reading subscriber records the whole stream.

#[path = "common/fleet.rs"]
mod fleet;

use fleet::{
    fleet_config, fnv64, net_config, scripted_stages, seeded_db, swap_and_windows,
};

use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use dbcast::net::{
    run_egress, run_fleet_inline, AirLog, BroadcastServer, CacheKind, EgressConfig,
    IndexParams, NetConfig, OverflowPolicy, ScriptedSource, WorkloadPattern,
};
use dbcast::workload::{SizeDistribution, WorkloadBuilder};

#[test]
fn fleet_measures_eq2_across_a_hot_swap() {
    let db = seeded_db();
    let config = fleet_config();
    let (swap_at, max_windows) = swap_and_windows(&db, &config);
    let source = ScriptedSource::new(scripted_stages(&db, swap_at));
    let egress = EgressConfig { index: None, max_windows: Some(max_windows), pace: None };
    let (report, egress_report) =
        run_fleet_inline(&source, &egress, net_config(), &config).expect("fleet runs");

    report.validate().expect("report validates");
    assert_eq!(egress_report.generations, 2, "both generations aired");
    assert_eq!(report.totals.dropped_frames, Some(0), "zero dropped frames");
    assert_eq!(report.totals.torn_frames, 0, "zero torn frames");
    assert_eq!(report.clients.len(), 8);

    for client in &report.clients {
        assert_eq!(
            client.completed, client.requests,
            "client {} completed all requests",
            client.id
        );
        assert_eq!(
            client.generations.len(),
            2,
            "client {} saw the swap on the wire",
            client.id
        );
        for slice in &client.generations {
            assert!(
                slice.requests >= 20,
                "client {} generation {} has too few clean samples ({})",
                client.id,
                slice.generation,
                slice.requests
            );
            let relative =
                (slice.mean_access - slice.predicted_access).abs() / slice.predicted_access;
            assert!(
                relative <= 0.10,
                "client {} generation {}: measured {:.4} vs Eq.2 {:.4} ({:.1}% off)",
                client.id,
                slice.generation,
                slice.mean_access,
                slice.predicted_access,
                relative * 100.0
            );
        }
    }
}

#[test]
fn indexed_stream_tunes_below_full_listening() {
    let db = seeded_db();
    let config = fleet_config();
    let (swap_at, max_windows) = swap_and_windows(&db, &config);
    let source = ScriptedSource::new(scripted_stages(&db, swap_at));
    let egress = EgressConfig {
        index: Some(IndexParams { index_size: 0.5, header_size: 0.05 }),
        max_windows: Some(max_windows),
        pace: None,
    };
    let (report, _) =
        run_fleet_inline(&source, &egress, net_config(), &config).expect("fleet runs");
    report.validate().expect("report validates");
    assert!(report.indexed);
    assert_eq!(report.totals.torn_frames, 0);
    for client in &report.clients {
        assert_eq!(client.completed, client.requests);
        assert!(
            client.tuning.mean < client.access.mean,
            "client {}: tuning {:.4} must be strictly below access {:.4}",
            client.id,
            client.tuning.mean,
            client.access.mean
        );
        // Selective tuning is a big win, not a rounding artifact.
        assert!(client.tuning.mean < 0.8 * client.access.mean);
    }
}

#[test]
fn same_seed_produces_bit_identical_reports() {
    let db = seeded_db();
    let config = fleet_config();
    let (swap_at, max_windows) = swap_and_windows(&db, &config);
    let egress = EgressConfig { index: None, max_windows: Some(max_windows), pace: None };
    let run = || {
        let source = ScriptedSource::new(scripted_stages(&db, swap_at));
        let (report, _) =
            run_fleet_inline(&source, &egress, net_config(), &config).expect("fleet runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must give a bit-identical report");
    // And it is pinned: a change to the client fold that moves any
    // byte of the report fails here.
    assert_eq!(
        (first.len(), fnv64(first.as_bytes())),
        (6286, 0x6381_9729_ae1d_b479),
        "fleet report moved:\n{first}"
    );
}

#[test]
fn frequent_pattern_fleet_exercises_cache_and_conflicts() {
    let db = seeded_db();
    let mut config = fleet_config();
    config.pattern = WorkloadPattern::Frequent;
    config.patterns = 6;
    config.max_size = 4;
    config.cache = CacheKind::Lru;
    config.cache_budget = 6.0;
    config.requests = 120;
    let (swap_at, max_windows) = swap_and_windows(&db, &config);
    let source = ScriptedSource::new(scripted_stages(&db, swap_at));
    let egress = EgressConfig { index: None, max_windows: Some(max_windows), pace: None };
    let (report, _) =
        run_fleet_inline(&source, &egress, net_config(), &config).expect("fleet runs");
    report.validate().expect("report validates");
    assert!(
        report.totals.cache_hits > 0,
        "correlated patterns through an LRU cache must hit"
    );
    assert!(
        report.totals.conflicts > 0,
        "multi-item requests over one tuner must see conflicts"
    );
    for client in &report.clients {
        assert_eq!(client.completed, client.requests);
    }
}

/// Slowloris on the broadcast port: under `Block` a subscriber that
/// never reads holds the egress only until its write timeout evicts it.
#[test]
fn stalled_subscriber_is_evicted_without_starving_a_reader() {
    // A 300-item catalogue's index frames make each window tens of
    // KiB, so the stream far outgrows what the stalled socket's
    // buffers can absorb.
    let db = WorkloadBuilder::new(300)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 1.0 })
        .seed(11)
        .build()
        .expect("workload builds");
    let source = ScriptedSource::new(scripted_stages(&db, 200));
    let egress = EgressConfig {
        index: Some(IndexParams { index_size: 0.05, header_size: 0.01 }),
        max_windows: Some(400),
        pace: None,
    };
    let net = NetConfig {
        queue_capacity: 256,
        overflow: OverflowPolicy::Block,
        write_timeout: Some(Duration::from_millis(200)),
    };
    let server = BroadcastServer::bind("127.0.0.1:0", net).expect("bind");
    let stalled = TcpStream::connect(server.addr()).expect("connect stalled");
    let reading = TcpStream::connect(server.addr()).expect("connect reader");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.subscriber_count() < 2 {
        assert!(Instant::now() < deadline, "both subscribers registered");
        std::thread::yield_now();
    }
    let reader = std::thread::spawn(move || AirLog::record(reading));

    let report = run_egress(&server, &source, &egress, &AtomicBool::new(false))
        .expect("egress returns");
    assert_eq!(report.windows, 400);
    assert_eq!(server.subscriber_count(), 1, "the stalled subscriber is evicted");
    assert!(server.dropped_frames() > 0, "the evicted subscriber's frames are counted");

    // The reader's socket stays open until shutdown, so a recording
    // that finishes first has stopped on the End frame, not on EOF.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !reader.is_finished() {
        assert!(Instant::now() < deadline, "the reader never saw the End frame");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let log = reader.join().expect("reader thread").expect("reader records");
    assert_eq!(log.truncated_bytes, 0);
    assert_eq!(log.decode_errors, 0);
    assert_eq!(log.worlds.len(), 2, "both generations reached the reader");
    assert_eq!(
        (log.frames.len() + log.index_frames.len()) as u64,
        report.frames,
        "the reader lost no frame to the stalled subscriber"
    );
    drop(stalled);
}
