//! End-to-end acceptance test for the distributed observability plane:
//! 8 clients measure a seeded program over real TCP through a mid-run
//! hot swap while pushing telemetry digests over a real uplink socket
//! into a `FleetAggregator` exposed at `/fleet`.
//!
//! Acceptance criteria pinned here:
//! * a mid-run `/fleet` scrape (uplink + exposition still live) passes
//!   the strict `/fleet` decoder and shows per-generation fleet
//!   access time within 10% of the Eq. 2 expectation;
//! * live aggregates for fully-covered generations reconcile with the
//!   final post-hoc `FleetReport` within 1e-6;
//! * the same seed produces bit-identical per-client digest streams.

mod common;

use common::http_get;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbcast::alloc::DrpCds;
use dbcast::model::{BroadcastProgram, ChannelAllocator, Database};
use dbcast::net::{
    encode_telemetry_frame_into, run_fleet_inline_with, CacheKind, DigestSink,
    EgressConfig, FleetConfig, FleetReport, NetConfig, OverflowPolicy, ScriptedSource,
    SourceGeneration, UplinkConfig, UplinkServer, WorkloadPattern,
};
use dbcast::serve::{FleetAggregator, FleetDigest, FleetDoc};
use dbcast_obs::doc;

use dbcast::workload::{SizeDistribution, WorkloadBuilder};

const BANDWIDTH: f64 = 1.0;
const CLIENTS: usize = 8;

fn seeded_db() -> Database {
    WorkloadBuilder::new(24)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 1.0 })
        .seed(11)
        .build()
        .expect("workload builds")
}

/// Two generations over the same database: the swap changes the channel
/// count (3 → 4), so every channel's cycle — and Eq. 2 — changes.
fn scripted_stages(db: &Database, swap_at_window: u64) -> Vec<(u64, SourceGeneration)> {
    let frequencies: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
    let mut stages = Vec::new();
    for (generation, channels) in [(0u64, 3usize), (1, 4)] {
        let alloc = DrpCds::new().allocate(db, channels).expect("allocates");
        let program = BroadcastProgram::new(db, &alloc, BANDWIDTH).expect("program builds");
        stages.push((
            if generation == 0 { 0 } else { swap_at_window },
            SourceGeneration { generation, program, frequencies: frequencies.clone() },
        ));
    }
    stages
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        clients: CLIENTS,
        seed: 2024,
        requests: 220,
        rate: 1.0,
        cache: CacheKind::None,
        cache_budget: 0.0,
        pattern: WorkloadPattern::Single,
        patterns: 8,
        max_size: 4,
    }
}

/// Swap mid-arrival-span and budget enough windows that the last
/// request plus a full slow cycle always fits before the horizon
/// (same sizing logic as the transport e2e test).
fn swap_and_windows(db: &Database, config: &FleetConfig) -> (u64, u64) {
    let stages = scripted_stages(db, 1);
    let mut gen0_window = f64::INFINITY;
    let mut min_window = f64::INFINITY;
    let mut max_cycle = 0.0f64;
    for (i, (_, stage)) in stages.iter().enumerate() {
        for schedule in stage.program.channels() {
            if schedule.is_empty() {
                continue;
            }
            let cycle = schedule.cycle_size() / BANDWIDTH;
            if i == 0 {
                gen0_window = gen0_window.min(cycle);
            }
            min_window = min_window.min(cycle);
            max_cycle = max_cycle.max(cycle);
        }
    }
    let arrival_span = config.requests as f64 / config.rate;
    let swap_at = ((arrival_span * 0.45) / gen0_window).ceil().max(1.0) as u64;
    let horizon_needed = arrival_span * 1.6 + 4.0 * max_cycle;
    let max_windows = swap_at + (horizon_needed / min_window).ceil() as u64 + 4;
    (swap_at, max_windows)
}

fn net_config() -> NetConfig {
    NetConfig {
        queue_capacity: 1 << 15,
        overflow: OverflowPolicy::Block,
        write_timeout: Some(Duration::from_secs(30)),
    }
}

/// Folds every digest into the aggregator *and* re-encodes it into a
/// per-client byte stream — TCP keeps each client's frames in order,
/// and the encoding is canonical, so the recorded bytes are exactly
/// what the client sent.
struct RecordingSink {
    aggregator: Arc<FleetAggregator>,
    streams: Mutex<BTreeMap<u32, Vec<u8>>>,
}

impl DigestSink for RecordingSink {
    fn on_digest(&self, digest: &FleetDigest) {
        let mut streams = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        encode_telemetry_frame_into(streams.entry(digest.client).or_default(), digest);
        self.aggregator.ingest(digest);
    }
}

/// One full run: broadcast + uplink + exposition live together, the
/// `/fleet` scrape happens over real HTTP while both servers are still
/// up, and only then does the stack shut down.
fn run_once() -> (FleetReport, FleetDoc, BTreeMap<u32, Vec<u8>>) {
    let db = seeded_db();
    let config = fleet_config();
    let (swap_at, max_windows) = swap_and_windows(&db, &config);
    let source = ScriptedSource::new(scripted_stages(&db, swap_at));
    let egress = EgressConfig { index: None, max_windows: Some(max_windows), pace: None };

    let aggregator = Arc::new(FleetAggregator::new());
    let sink = Arc::new(RecordingSink {
        aggregator: Arc::clone(&aggregator),
        streams: Mutex::new(BTreeMap::new()),
    });
    let uplink =
        UplinkServer::bind("127.0.0.1:0", Arc::clone(&sink) as Arc<dyn DigestSink>)
            .expect("bind uplink server");
    let fleet_route = Arc::clone(&aggregator);
    let exposition = dbcast_flight::ExpositionServer::bind_with_routes(
        "127.0.0.1:0",
        Box::new(|| String::from("{\"command\": \"fleet-obs-e2e\"}")),
        vec![dbcast_flight::Route::json("/fleet", move || doc::render(&fleet_route.doc()))],
    )
    .expect("bind exposition server");

    let uplink_config = UplinkConfig { addr: uplink.addr().to_string(), straggle_ms: 0 };
    let (report, egress_report) = run_fleet_inline_with(
        &source,
        &egress,
        net_config(),
        &config,
        Some(&uplink_config),
    )
    .expect("fleet runs");
    assert_eq!(egress_report.generations, 2, "both generations aired");
    aggregator.set_published(1);

    // The clients have flushed their sockets; wait for the uplink
    // readers to drain. Slices are each connection's final frames, so
    // full reporter coverage on both generations implies every earlier
    // ack landed too.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = aggregator.doc();
        let covered = doc.generations.len() == 2
            && doc.generations.iter().all(|g| g.reporters == CLIENTS as u64);
        if covered {
            break;
        }
        assert!(Instant::now() < deadline, "uplink digests never drained: {doc:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The mid-run scrape: broadcast measurement is complete but the
    // whole observability stack is still live.
    let body = http_get(exposition.addr(), "/fleet");
    let doc: FleetDoc = doc::decode(&body).expect("mid-run /fleet scrape decodes strictly");

    let streams = {
        let mut guard = sink.streams.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *guard)
    };
    exposition.shutdown();
    drop(uplink);
    (report, doc, streams)
}

#[test]
fn fleet_uplink_tracks_eq2_through_a_hot_swap() {
    let (report, doc, streams) = run_once();
    report.validate().expect("post-hoc report validates");

    assert_eq!(doc.published, 1);
    assert_eq!(doc.clients, CLIENTS as u64);
    assert_eq!(doc.stragglers, 0, "nobody straggles without pacing: {:?}", doc.lagging);
    assert_eq!(doc.generations.len(), 2);
    assert_eq!(streams.len(), CLIENTS, "every client recorded a digest stream");

    for g in &doc.generations {
        // Live fleet-level Eq. 2 tracking: the sample-weighted observed
        // mean access time stays within 10% of the prediction.
        assert!(g.samples > 0, "generation {} aggregated no samples", g.generation);
        assert!(
            g.gap <= 0.10,
            "generation {}: fleet access {:.4} vs Eq.2 {:.4} ({:.1}% off)",
            g.generation,
            g.mean_access,
            g.predicted_access,
            g.gap * 100.0
        );

        // Reconciliation: the live aggregate folded from uplink digests
        // must equal the post-hoc report's sample-weighted mean.
        let mut weighted = 0.0;
        let mut samples = 0.0;
        for client in &report.clients {
            for slice in &client.generations {
                if slice.generation == g.generation {
                    weighted += slice.requests as f64 * slice.mean_access;
                    samples += slice.requests as f64;
                }
            }
        }
        let posthoc = weighted / samples;
        assert_eq!(g.samples as f64, samples, "sample counts reconcile");
        assert!(
            (g.mean_access - posthoc).abs() <= 1e-6,
            "generation {}: live {:.9} vs post-hoc {:.9}",
            g.generation,
            g.mean_access,
            posthoc
        );

        // Counters fold exactly: requests arrive at most once per slice.
        assert!(g.completed <= g.requests);
        assert!(!g.coverage.is_empty(), "coverage rows aggregated");
    }
}

#[test]
fn same_seed_produces_bit_identical_digest_streams() {
    let (_, first_doc, first) = run_once();
    let (_, second_doc, second) = run_once();
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>(),
        "same client census"
    );
    for (client, bytes) in &first {
        assert_eq!(
            Some(bytes),
            second.get(client),
            "client {client}: digest streams diverged between same-seed runs"
        );
    }
    // And the documents built from those streams agree too.
    assert_eq!(
        serde_json::to_string(&first_doc).unwrap(),
        serde_json::to_string(&second_doc).unwrap()
    );
}
