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
//!   final post-hoc `FleetReport` bit for bit;
//! * the same seed produces bit-identical per-client digest streams,
//!   pinned to fixed fingerprints.

mod common;
#[path = "common/fleet.rs"]
mod fleet;

use common::http_get;
use fleet::{
    fleet_config, fnv64, net_config, scripted_stages, seeded_db, swap_and_windows, CLIENTS,
};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbcast::net::{
    encode_telemetry_frame_into, run_fleet_inline_with, DigestSink, EgressConfig,
    FleetReport, ScriptedSource, UplinkConfig, UplinkServer,
};
use dbcast::serve::{FleetAggregator, FleetDigest, FleetDoc, GenerationSlice};
use dbcast_obs::doc;

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

        // Reconciliation: the live aggregate pools the clients' uplinked
        // slices with the same function, in the same client order, as
        // the post-hoc report's rows, so every figure agrees bit for bit.
        let posthoc = GenerationSlice::pool(
            report
                .clients
                .iter()
                .flat_map(|c| &c.generations)
                .filter(|s| s.generation == g.generation),
        );
        assert_eq!(g.samples, posthoc.requests, "sample counts reconcile");
        for (what, live, post) in [
            ("mean access", g.mean_access, posthoc.mean_access),
            ("mean tuning", g.mean_tuning, posthoc.mean_tuning),
            ("predicted access", g.predicted_access, posthoc.predicted_access),
        ] {
            assert_eq!(
                live.to_bits(),
                post.to_bits(),
                "generation {} {what}: live {live} vs post-hoc {post}",
                g.generation
            );
        }

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
    // And they are pinned: (length, FNV-1a/64) per client stream. A
    // change to the client fold, the digest layout or the telemetry
    // codec that moves any byte fails here.
    let pinned: Vec<(u32, usize, u64)> =
        first.iter().map(|(&c, bytes)| (c, bytes.len(), fnv64(bytes))).collect();
    assert_eq!(
        pinned,
        vec![
            (0, 1060, 0xf252_f81b_ba7a_3524),
            (1, 1042, 0xa635_3bfa_a597_d540),
            (2, 1060, 0x8a5e_1ee1_c36e_a90d),
            (3, 1042, 0x4880_84c5_214b_0883),
            (4, 1042, 0x58ba_bf00_f4f6_1e6d),
            (5, 1042, 0x102f_5d4f_1979_aae0),
            (6, 1060, 0x1957_0ce2_a2bc_ac3d),
            (7, 1060, 0x9d55_8ca7_2df3_3141),
        ],
        "uplink digest streams moved"
    );
    // And the documents built from those streams agree too.
    assert_eq!(
        serde_json::to_string(&first_doc).unwrap(),
        serde_json::to_string(&second_doc).unwrap()
    );
}
