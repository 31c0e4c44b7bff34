//! End-to-end flight recorder / exposition / SLO acceptance tests:
//!
//! * a live `/metrics` scrape taken while a paced serve run on its own
//!   thread is in flight parses as OpenMetrics and shows monotone serve
//!   counters across scrapes,
//! * an injected panic produces a postmortem JSON carrying a deep
//!   flight-event history including the drift and swap events that
//!   preceded the fault, even when more requests than the flight ring
//!   holds were served between the swap and the fault,
//! * a stationary workload's observed mean wait (its generation's
//!   residual-ledger row, which the SLO verdict reads) lands within
//!   tolerance of the Eq. 2 prediction `W_b`,
//! * `serve.generation` and `serve.generation_cost` follow each install
//!   while the run is live, not only once it returns,
//! * `docs/METRICS.md` is exactly the generated catalogue, and every
//!   metric the runtime records is catalogued.
//!
//! The flight ring, postmortem machinery and SLO tracker are always on;
//! metric recording is off until a test switches it on, which each test
//! that reads the registry does under the global-state lock.

mod common;

use common::http_get;

use std::net::TcpStream;
use std::sync::Mutex;

use dbcast_serve::{
    poisson_trace, shifted_trace, shifted_workload, DriftDetector, EstimatorConfig,
    RepairMode, ServeConfig, ServeRuntime, SloConfig, WorkerMode,
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
        detector: DriftDetector::default(),
        repair: RepairMode::Full,
        worker: WorkerMode::Deterministic,
        max_ticks: None,
        slo: None,
        pace_ms: 0,
        inject_panic_at_tick: None,
        audit: dbcast_serve::AuditConfig::default(),
        inject_slow_channel: None,
        inject_slow_factor: 1.0,
    }
}

#[test]
fn live_scrape_during_threaded_run_parses_and_counters_are_monotone() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();

    let db = db();
    let post = shifted_workload(&db, 1.2, db.len() / 2).expect("shifted workload");
    let trace = shifted_trace(&db, &post, 2000, 2000, 10.0, 5).expect("trace builds");
    let config = ServeConfig {
        pace_ms: 10,
        slo: Some(SloConfig { tolerance: 0.5 }),
        ..base_config()
    };

    let server = dbcast_flight::ExpositionServer::bind(
        "127.0.0.1:0",
        Box::new(|| String::from("{\"command\": \"flight-e2e\"}")),
    )
    .expect("bind exposition server");
    let addr = server.addr();

    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let run = std::thread::spawn(move || runtime.run(&trace));

    // Scrape while the paced run is in flight; every scrape must parse,
    // and the tick counter must never go backwards.
    let mut ticks_seen: Vec<f64> = Vec::new();
    let mut scrapes = 0usize;
    while !run.is_finished() {
        let body = http_get(addr, "/metrics");
        let families = dbcast_obs::openmetrics::parse(&body)
            .expect("mid-run scrape is valid OpenMetrics");
        if let Some(t) =
            dbcast_obs::openmetrics::sample_value(&families, "serve_ticks_total")
        {
            ticks_seen.push(t);
        }
        scrapes += 1;
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    let report = run.join().expect("run thread").expect("run succeeds");
    assert!(scrapes > 0, "run finished before a single scrape");

    // Two post-run scrapes guarantee at least two data points even on a
    // machine that raced through the paced loop.
    for _ in 0..2 {
        let body = http_get(addr, "/metrics");
        let families =
            dbcast_obs::openmetrics::parse(&body).expect("post-run scrape parses");
        let t = dbcast_obs::openmetrics::sample_value(&families, "serve_ticks_total")
            .expect("serve_ticks_total exposed");
        ticks_seen.push(t);
        let served =
            dbcast_obs::openmetrics::sample_value(&families, "serve_requests_total")
                .expect("serve_requests_total exposed");
        assert_eq!(served as u64, report.requests);
    }
    assert!(ticks_seen.len() >= 2);
    assert!(
        ticks_seen.windows(2).all(|w| w[1] >= w[0]),
        "serve_ticks_total went backwards: {ticks_seen:?}"
    );
    assert_eq!(*ticks_seen.last().unwrap() as u64, report.ticks);

    // The other two endpoints serve consistent JSON.
    let status = http_get(addr, "/status");
    assert!(status.contains("flight-e2e"), "status body: {status}");
    let flight = http_get(addr, "/flight");
    assert!(flight.contains("\"events\""), "flight body: {flight}");

    assert!(report.swaps >= 1, "shifted workload should hot-swap");
    drop(server); // Drop shuts the listener down.
    assert!(TcpStream::connect(addr).is_err(), "server still listening after drop");
}

#[test]
fn generation_gauges_follow_each_install_mid_run() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();
    let generation = dbcast_obs::registry().gauge("serve.generation");
    let cost = dbcast_obs::registry().gauge("serve.generation_cost");

    let db = db();
    let post = shifted_workload(&db, 1.2, db.len() / 2).expect("shifted workload");
    let trace = shifted_trace(&db, &post, 1200, 2800, 10.0, 9).expect("trace builds");
    let config = ServeConfig { pace_ms: 10, ..base_config() };
    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let run = std::thread::spawn(move || runtime.run(&trace));

    // Another thread reads the gauges while the paced run swaps: a
    // reading counts only if the run was still going after it.
    let mut live = None;
    while live.is_none() && !run.is_finished() {
        let reading = (generation.get(), cost.get());
        if reading.0 >= 1.0 && !run.is_finished() {
            live = Some(reading);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = run.join().expect("run thread").expect("run succeeds");
    assert!(report.swaps >= 1, "shifted workload should hot-swap");
    let (gen, gen_cost) = live.expect("serve.generation read 0 for the whole run");
    assert!(gen as u64 <= report.swaps, "gauge {gen} past {} swaps", report.swaps);
    assert!(
        report.generations[1..].iter().any(|g| g.cost == gen_cost),
        "serve.generation_cost {gen_cost} is no installed generation's cost"
    );
    assert_eq!(generation.get(), report.swaps as f64);
    assert_eq!(cost.get(), report.final_generation().cost);
}

#[test]
fn injected_panic_dumps_a_postmortem_with_deep_history() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();
    let dir = std::env::temp_dir().join("dbcast_flight_e2e_postmortem");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create postmortem dir");
    dbcast_flight::postmortem::set_dir(Some(dir.clone()));
    dbcast_flight::postmortem::install_panic_hook();

    let db = db();
    let post = shifted_workload(&db, 1.2, db.len() / 2).expect("shifted workload");
    // Shift early so drift fires and a swap publishes well before the
    // injected fault at tick 30.
    let trace = shifted_trace(&db, &post, 1200, 2800, 10.0, 9).expect("trace builds");
    // A healthy run serves no slow request, so the fail point slows
    // one channel ×20 to put `request_served` events in the ring.
    let config = ServeConfig {
        inject_panic_at_tick: Some(30),
        inject_slow_channel: Some(0),
        inject_slow_factor: 20.0,
        ..base_config()
    };
    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let result = std::thread::spawn(move || runtime.run(&trace)).join();
    assert!(result.is_err(), "injected fault must panic the run");

    // Disarm before asserting so a failure below cannot re-dump.
    dbcast_flight::postmortem::set_dir(None);

    let doc = read_postmortem(&dir);
    assert!(doc.reason.contains("injected fault at tick 30"), "reason: {}", doc.reason);

    let events = &doc.flight.events;
    assert!(events.len() >= 64, "only {} events in the dump", events.len());
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    for expected in ["tick", "request_served", "drift_score", "swap_publish", "fault"] {
        assert!(kinds.contains(&expected), "no {expected} event before the fault");
    }
    assert_eq!(kinds.last(), Some(&"fault"), "fault must be the final event");

    // The metrics snapshot rode along, with the request count the
    // loop publishes at each tick boundary.
    let served = doc.metrics.counter("serve.requests");
    assert!(served.is_some_and(|n| n > 0), "serve.requests in the dump: {served:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads the one postmortem dump the panic hook wrote into `dir`.
fn read_postmortem(dir: &std::path::Path) -> dbcast_flight::Postmortem {
    let dump = std::fs::read_dir(dir)
        .expect("read postmortem dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("postmortem-") && n.ends_with(".json"))
        })
        .expect("panic hook wrote a postmortem dump");
    let body = std::fs::read_to_string(&dump).expect("read dump");
    dbcast_obs::doc::decode(&body).expect("dump decodes strictly")
}

#[test]
fn postmortem_keeps_the_swap_behind_more_requests_than_the_ring_holds() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let capacity = dbcast_flight::recorder().capacity();
    let dir = std::env::temp_dir().join("dbcast_flight_e2e_deep_postmortem");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create postmortem dir");

    let db = db();
    let post = shifted_workload(&db, 1.2, db.len() / 2).expect("shifted workload");
    // The shift swaps early; three ring capacities of requests follow.
    let trace = shifted_trace(&db, &post, 1200, 3 * capacity, 10.0, 9).expect("trace");
    // The deterministic worker replays bit for bit, so a clean run
    // finds the last tick boundary, where the fault is injected.
    let clean = ServeRuntime::new(&db, base_config()).unwrap().run(&trace).unwrap();
    assert!(clean.swaps >= 1, "shifted workload should hot-swap");

    dbcast_flight::postmortem::set_dir(Some(dir.clone()));
    dbcast_flight::postmortem::install_panic_hook();
    let first_seq = dbcast_flight::recorder().recorded();
    let config = ServeConfig { inject_panic_at_tick: Some(clean.ticks), ..base_config() };
    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let faulty = trace.clone();
    let result = std::thread::spawn(move || runtime.run(&faulty)).join();
    assert!(result.is_err(), "injected fault must panic the run");
    dbcast_flight::postmortem::set_dir(None);

    let doc = read_postmortem(&dir);
    let events = &doc.flight.events;
    let fault = events.last().expect("dump holds events");
    assert_eq!(fault.kind, dbcast_flight::EventKind::Fault, "fault must be last");
    let swap = events
        .iter()
        .rfind(|e| e.kind == dbcast_flight::EventKind::SwapPublish && e.seq >= first_seq)
        .expect("the run's swap_publish fell out of the flight ring");
    let served_since_swap =
        trace.iter().filter(|r| r.time >= swap.vtime && r.time < fault.vtime).count();
    assert!(
        served_since_swap > capacity,
        "only {served_since_swap} requests between the swap and the fault; the case \
         needs more than the ring's {capacity} slots"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stationary_slo_observed_mean_matches_eq2_prediction() {
    // This run records into the process-global registry when obs is
    // enabled, so it must not overlap the live-scrape test's counters.
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = db();
    // Stationary Poisson arrivals drawn from the db's own frequencies:
    // the workload the initial allocation was optimized for, so the
    // measured mean wait should track the analytical W_b of Eq. 2.
    let trace = poisson_trace(&db, 10.0, 6000, 17).expect("trace builds");
    let tolerance = 0.25;
    let config = ServeConfig {
        // No drift machinery in the way: one generation end to end.
        detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
        slo: Some(SloConfig { tolerance }),
        ..base_config()
    };
    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let report = runtime.run(&trace).expect("run succeeds");

    assert_eq!(report.swaps, 0);
    let generation = &report.generations[0];
    let slo = generation.slo.as_ref().expect("SLO report finalized");
    assert!(slo.target_wait > 0.0);
    assert_eq!(generation.requests(), report.requests);
    let observed = generation.mean_wait();
    let rel = (observed - slo.target_wait).abs() / slo.target_wait;
    assert!(
        slo.within_tolerance && rel <= tolerance,
        "observed mean {observed:.4} vs Eq.2 target {:.4} (relative error {rel:.3} > \
         {tolerance})",
        slo.target_wait
    );
}

#[test]
fn metrics_docs_match_the_generated_catalogue() {
    let generated = dbcast_obs::catalog::markdown();
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md"))
            .expect("docs/METRICS.md exists (regenerate: dbcast flight catalog)");
    assert_eq!(
        committed, generated,
        "docs/METRICS.md is stale; regenerate with `dbcast flight catalog > docs/METRICS.md`"
    );
}

#[test]
fn every_recorded_metric_is_catalogued() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dbcast_obs::set_enabled(true);

    // Drive a representative run so the registry holds the serve-layer
    // names (interning happens at runtime construction).
    let db = db();
    let trace = poisson_trace(&db, 10.0, 500, 1).expect("trace builds");
    let runtime = ServeRuntime::new(
        &db,
        ServeConfig { slo: Some(SloConfig::default()), ..base_config() },
    )
    .expect("runtime builds");
    runtime.run(&trace).expect("run succeeds");

    let snap = dbcast_obs::registry().snapshot();
    let names = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n));
    for name in names {
        if name.contains(".test.") {
            continue; // Synthetic names minted by tests.
        }
        assert!(
            dbcast_obs::catalog::describe(name).is_some(),
            "metric {name:?} is not in dbcast_obs::catalog::CATALOG"
        );
    }

    // The audit tracer's metrics are part of the catalogue contract:
    // they must actually be recorded by a serve run (not just described)
    // so `dbcast top` and the CI drills can rely on them.
    let counter_names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    for required in
        ["serve.audit.sampled", "serve.audit.tail_sampled", "serve.audit.straddled"]
    {
        assert!(
            counter_names.contains(&required),
            "audit counter {required:?} was not recorded by the serve run"
        );
        assert!(dbcast_obs::catalog::describe(required).is_some());
    }
    assert!(
        snap.gauges.iter().any(|(n, _)| n.starts_with("serve.audit.residual.")),
        "no serve.audit.residual.<i> gauge was recorded by the serve run"
    );
    assert!(dbcast_obs::catalog::describe("serve.audit.residual.0").is_some());
}
