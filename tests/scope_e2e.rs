//! End-to-end scope acceptance tests:
//!
//! * a live `/series` scrape taken while a paced, threaded serve run is
//!   in flight round-trips the strict validator, and the final document
//!   renders a `dbcast top` frame with req/s, drift and the per-channel
//!   Eq. 2 table,
//! * a watchdog drill (sustained SLO-burn breach fed through the
//!   store) latches a firing, records a `watchdog` flight event and
//!   produces a postmortem dump,
//! * the background sampler stays consistent under concurrent metric
//!   writers (the `tests/obs_concurrency.rs` posture, applied to the
//!   scrape path).
//!
//! The series store, validator and watchdog are always-on; only the
//! *content* of registry scrapes needs the `obs` feature, so those
//! assertions are gated on `dbcast_obs::enabled()`.

mod common;

use common::http_get;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dbcast_obs::doc::{decode, render};
use dbcast_scope::{
    parse_rules, render_top, Sampler, ScopeConfig, SeriesDoc, SeriesStore, TopOptions,
    Watchdog,
};
use dbcast_serve::{
    poisson_trace, DriftDetector, EstimatorConfig, RepairMode, ServeConfig, ServeRuntime,
    SloConfig, WorkerMode,
};

/// The global registry and flight ring are process-wide; serialize the
/// tests that assert on their contents.
static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

fn db() -> dbcast_model::Database {
    dbcast_workload::WorkloadBuilder::new(80)
        .skewness(0.8)
        .sizes(dbcast_workload::SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(3)
        .build()
        .expect("workload builds")
}

fn base_config() -> ServeConfig {
    ServeConfig {
        channels: 5,
        bandwidth: 10.0,
        estimator: EstimatorConfig::default(),
        detector: DriftDetector { threshold: 0.25, min_observations: 200 },
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
fn live_series_scrape_mid_run_validates_and_top_renders() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);
    let live = dbcast_obs::enabled();
    dbcast_obs::registry().reset();

    let db = db();
    let trace = poisson_trace(&db, 10.0, 3000, 7).expect("trace builds");
    let config = ServeConfig {
        worker: WorkerMode::Threaded,
        pace_ms: 10,
        slo: Some(SloConfig { tolerance: 0.5, ..SloConfig::default() }),
        ..base_config()
    };

    let store = Arc::new(SeriesStore::default());
    let sampler = Sampler::start(
        Arc::clone(&store),
        Watchdog::new(parse_rules("").expect("empty rule list parses")),
        Duration::from_millis(5),
    )
    .expect("sampler starts");
    let route_store = Arc::clone(&store);
    let server = dbcast_flight::ExpositionServer::bind_with_routes(
        "127.0.0.1:0",
        Box::new(|| String::from("{\"command\": \"scope-e2e\"}")),
        vec![dbcast_flight::Route::json("/series", move || render(&route_store.export()))],
    )
    .expect("bind exposition server");
    let addr = server.addr();

    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let run = std::thread::spawn(move || runtime.run(&trace));

    // Every mid-run scrape must round-trip the strict decoder, and
    // the document's tick stamp must never go backwards.
    let mut scrapes = 0usize;
    let mut last_tick = 0u64;
    while !run.is_finished() {
        let body = http_get(addr, "/series");
        let doc: SeriesDoc = decode(&body).expect("mid-run /series decodes");
        assert!(doc.tick >= last_tick, "tick went backwards: {} < {last_tick}", doc.tick);
        last_tick = doc.tick;
        scrapes += 1;
        std::thread::sleep(Duration::from_millis(15));
    }
    run.join().expect("run thread").expect("run succeeds");
    assert!(scrapes > 0, "run finished before a single scrape");
    let firings = sampler.stop();
    assert!(firings.is_empty(), "no watchdog rules were armed: {firings:?}");

    let doc: SeriesDoc = decode(&render(&store.export())).expect("final export decodes");
    if live {
        assert!(doc.tick > 0, "sampler never saw a tick");
        let req = doc.series("serve.requests").expect("request counter series");
        assert!(req.last().unwrap_or(0.0) > 0.0, "no requests recorded");
        assert_eq!(
            doc.series_with_prefix("serve.channel.expected_wait.").count(),
            5,
            "one Eq. 2 gauge per channel"
        );
        let frame = render_top(&doc, &TopOptions::default());
        for needle in ["req/s", "drift L1", "SLO burn", "channels (Eq. 2", "ch0"] {
            assert!(frame.contains(needle), "missing {needle}:\n{frame}");
        }
        assert!(
            frame.chars().any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
            "no sparkline glyphs in frame:\n{frame}"
        );
    }
}

#[test]
fn watchdog_drill_fires_flight_event_and_postmortem() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();
    let dir = std::env::temp_dir().join("dbcast_scope_e2e_watchdog");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create postmortem dir");
    dbcast_flight::postmortem::set_dir(Some(dir.clone()));

    let store = SeriesStore::default();
    let mut watchdog = Watchdog::new(
        parse_rules("scope.test.drill_burn > 1 for 300ms").expect("rule parses"),
    );
    let mut fired = Vec::new();
    for i in 0..5u64 {
        let snap = dbcast_obs::snapshot::Snapshot {
            counters: vec![("serve.ticks".to_string(), i)],
            gauges: vec![("scope.test.drill_burn".to_string(), 2.5)],
            histograms: Vec::new(),
        };
        store.append_snapshot(&snap, i * 200);
        fired.extend(watchdog.check_at(&store, i, i * 200));
    }
    dbcast_flight::postmortem::set_dir(None);

    assert_eq!(fired.len(), 1, "sustained breach fires exactly once: {fired:?}");
    let firing = &fired[0];
    assert!(firing.rule.contains("scope.test.drill_burn"), "{firing:?}");
    assert!((firing.observed - 2.5).abs() < 1e-9, "{firing:?}");
    let dump = firing.postmortem.as_ref().expect("armed drill dumps a postmortem");
    let body = std::fs::read_to_string(dump).expect("postmortem readable");
    assert!(body.contains("watchdog"), "dump lacks the firing reason:\n{body}");

    let events = dbcast_flight::recorder().snapshot();
    let watchdog_events: Vec<_> =
        events.iter().filter(|e| e.kind == dbcast_flight::EventKind::Watchdog).collect();
    assert!(!watchdog_events.is_empty(), "no watchdog flight event recorded");
    assert!(
        watchdog_events.iter().any(|e| (e.value - 2.5).abs() < 1e-9),
        "flight event should carry the observed value: {watchdog_events:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampler_stays_consistent_under_concurrent_writers() {
    // force_* writers bypass the runtime switch, so this exercises the
    // scrape path in feature-off builds too. No registry reset: this
    // test only asserts on its own `.test.` metrics.
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let r = dbcast_obs::registry();
                let requests = r.counter("scope.test.conc_requests");
                let drift = r.gauge("scope.test.conc_drift");
                let wait = r.histogram("scope.test.conc_wait");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    requests.force_add(1);
                    drift.force_set((i % 100) as f64 / 100.0);
                    wait.force_record(w * 1000 + i % 1000);
                    i += 1;
                    if i.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let store = Arc::new(SeriesStore::new(ScopeConfig {
        tick_counter: "scope.test.conc_requests".to_string(),
        ..ScopeConfig::default()
    }));
    let sampler = Sampler::start(
        Arc::clone(&store),
        Watchdog::new(Vec::new()),
        Duration::from_millis(2),
    )
    .expect("sampler starts");
    std::thread::sleep(Duration::from_millis(250));
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread");
    }
    let firings = sampler.stop();
    assert!(firings.is_empty());

    // Whatever interleaving happened, the export must round-trip the
    // strict decoder (counters and rates non-negative, clocks ordered)
    // and the counter series must be non-decreasing.
    let doc: SeriesDoc =
        decode(&render(&store.export())).expect("concurrent export decodes");
    let req = doc.series("scope.test.conc_requests").expect("counter series present");
    assert!(!req.raw.is_empty(), "sampler never scraped");
    for pair in req.raw.windows(2) {
        assert!(
            pair[1].value >= pair[0].value,
            "counter series regressed: {} -> {}",
            pair[0].value,
            pair[1].value
        );
    }
    assert!(store.series_count() >= 3, "writer metrics missing from the store");
}
