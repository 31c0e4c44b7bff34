//! End-to-end tests of the operator scope — the `dbcast top` console
//! and the watchdog, both reading the live obs registry:
//!
//! * `dbcast top --once`, pointed at the `/metrics` exposition of a
//!   paced, threaded serve run while it is in flight, renders a frame
//!   with req/s, drift, SLO burn and the per-channel Eq. 2 table,
//! * a watchdog drill (a sustained SLO-burn breach set in the
//!   registry) latches a firing, records a `watchdog` flight event and
//!   produces a postmortem dump.
//!
//! Only the *content* of registry scrapes needs the `obs` feature, so
//! the frame assertions are gated on `dbcast_obs::enabled()`.

use std::sync::Mutex;
use std::time::Duration;

use dbcast_flight::watchdog::parse_rules;
use dbcast_flight::Watchdog;
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

/// One `dbcast top --once` frame against `addr`.
fn top_once(addr: std::net::SocketAddr) -> String {
    let addr = addr.to_string();
    let args = dbcast_cli::args::Args::parse([
        "top",
        "--addr",
        &addr,
        "--once",
        "--interval-ms",
        "50",
    ])
    .expect("top arguments parse");
    let mut out = Vec::new();
    dbcast_cli::commands::run_top(&args, &mut out).expect("top scrapes /metrics");
    String::from_utf8(out).expect("frame is UTF-8")
}

#[test]
fn live_metrics_scrape_mid_run_renders_top() {
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
    let server = dbcast_flight::ExpositionServer::bind(
        "127.0.0.1:0",
        Box::new(|| String::from("{\"command\": \"scope-e2e\"}")),
    )
    .expect("bind exposition server");

    let runtime = ServeRuntime::new(&db, config).expect("runtime builds");
    let run = std::thread::spawn(move || runtime.run(&trace));

    // Every mid-run frame comes from two strictly parsed scrapes.
    let mut frames = Vec::new();
    while !run.is_finished() {
        frames.push(top_once(server.addr()));
        std::thread::sleep(Duration::from_millis(15));
    }
    run.join().expect("run thread").expect("run succeeds");
    let frame = frames.last().expect("run finished before a single frame");

    assert!(frame.starts_with("dbcast top — tick"), "{frame}");
    assert!(!frame.contains('\x1b'), "--once must be ANSI-free:\n{frame}");
    if live {
        for needle in ["req/s", "drift L1", "SLO burn", "channels (Eq. 2", "ch0"] {
            assert!(frame.contains(needle), "missing {needle}:\n{frame}");
        }
        let channels = frame.lines().filter(|l| l.starts_with("  ch")).count();
        assert_eq!(channels, 5, "one Eq. 2 row per channel:\n{frame}");
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

    let mut watchdog = Watchdog::new(
        parse_rules("scope.test.drill_burn > 1 for 300ms").expect("rule parses"),
    );
    dbcast_obs::registry().gauge("scope.test.drill_burn").force_set(2.5);
    let mut fired = Vec::new();
    for i in 0..5u64 {
        fired.extend(watchdog.check_at(i, i * 200));
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
