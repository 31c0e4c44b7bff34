//! `dbcast serve` — run the online serving runtime over a request
//! stream with live workload estimation and hot program swap.

use dbcast_obs::doc::render;
use dbcast_serve::{
    poisson_trace, shifted_trace, shifted_workload, AuditConfig, DriftDetector,
    EstimatorConfig, RepairMode, ServeConfig, ServeRuntime, SloConfig, WorkerMode,
};
use dbcast_workload::RequestTrace;

use crate::args::{Args, ArgsError};
use crate::commands::CliError;

/// Drives [`ServeRuntime`] over either a replayed trace (`--replay
/// PATH`) or a synthetic Poisson stream (`--poisson RATE`, optionally
/// with a mid-stream Zipf shift via `--shift-at FRAC`), and reports the
/// closed-loop outcome: drift events, hot swaps, per-generation waiting
/// times and costs.
///
/// Options: `--channels K`, `--bandwidth B`, `--requests R`,
/// `--drift-threshold D`, `--min-observations M`, `--repair
/// full|budgeted`, `--budget MOVES`, `--decay A`, `--ticks T`,
/// `--shift-at FRAC`, `--shift-theta X`, `--shift-rotation N`,
/// `--save-trace PATH`, `--seed S`, `--json`,
/// `--audit-shift S` (seeded trace sampling rate `2^-S`),
/// `--inject-slow-channel I` / `--inject-slow-factor X` (scale the
/// wait of one channel's requests — residual-attribution drills).
///
/// # Errors
///
/// Infeasible instances, trace I/O failures, invalid option domains, and
/// a positional action: `serve` takes none, and an unknown bare `--flag`
/// takes the next token as its value, which can leave a stray word
/// behind; rejecting it keeps that mistake loud.
pub fn run_serve(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    if let Some(action) = args.action() {
        return Err(ArgsError::UnexpectedPositional(action.to_string()).into());
    }
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;

    let trace = build_stream(args, &db, seed)?;
    if let Some(path) = args.opt::<String>("save-trace")? {
        dbcast_workload::save_trace(&trace, path)?;
    }

    let repair = match args.opt_or("repair", "full".to_string())?.as_str() {
        "full" => RepairMode::Full,
        "budgeted" => RepairMode::Budgeted { budget: args.opt_or("budget", 32usize)? },
        other => {
            return Err(CliError::InvalidOption(format!(
                "--repair {other:?}; expected full or budgeted"
            )))
        }
    };
    let decay = args.opt_or("decay", 0.98f64)?;
    if !(0.0..=1.0).contains(&decay) {
        return Err(CliError::InvalidOption(format!("--decay {decay} not in [0, 1]")));
    }

    // Live exposition, postmortem metric snapshots, watchdogs and the
    // fleet uplink read recorded telemetry, so each turns recording on.
    let listen = args.opt::<String>("listen")?;
    let postmortem_dir = args.opt::<String>("postmortem-dir")?;
    let watch = args.opt::<String>("watch")?;
    let listen_uplink = args.opt::<String>("listen-uplink")?;
    if listen.is_some()
        || postmortem_dir.is_some()
        || watch.is_some()
        || listen_uplink.is_some()
    {
        dbcast_obs::set_enabled(true);
    }
    let watch_rules = match &watch {
        None => Vec::new(),
        Some(specs) => dbcast_flight::watchdog::parse_rules(specs)
            .map_err(|e| CliError::InvalidOption(format!("--watch: {e}")))?,
    };

    // --slo-multiplier sets the audit tail stage's slow threshold, which
    // the SLO burn rate counts; values below 1 make breaches easy to
    // provoke, which is how CI drills force a watchdog firing on an
    // otherwise healthy run.
    let slo_multiplier = args.opt::<f64>("slo-multiplier")?;
    if let Some(mult) = slo_multiplier.filter(|&m| m <= 0.0) {
        return Err(CliError::InvalidOption(format!(
            "--slo-multiplier {mult} must be positive"
        )));
    }
    let slo = match (args.opt::<f64>("slo")?, slo_multiplier) {
        (None, None) => None,
        (tol, _) => {
            let tolerance = tol.unwrap_or(SloConfig::default().tolerance);
            if tolerance <= 0.0 {
                return Err(CliError::InvalidOption(format!(
                    "--slo {tolerance} must be positive"
                )));
            }
            Some(SloConfig { tolerance })
        }
    };

    let config = ServeConfig {
        channels,
        bandwidth,
        estimator: EstimatorConfig { decay },
        detector: DriftDetector {
            threshold: args
                .opt_or("drift-threshold", DriftDetector::default().threshold)?,
            min_observations: args
                .opt_or("min-observations", DriftDetector::default().min_observations)?,
        },
        repair,
        worker: WorkerMode::Deterministic,
        max_ticks: args.opt::<u64>("ticks")?,
        slo,
        pace_ms: args.opt_or("pace-ms", 0u64)?,
        inject_panic_at_tick: args.opt::<u64>("inject-panic-at-tick")?,
        // The audit sampler shares the run seed so the sampled trace
        // set is bit-identical across same-seed replays.
        audit: AuditConfig {
            seed,
            sample_shift: args
                .opt_or("audit-shift", AuditConfig::default().sample_shift)?,
            tail_multiplier: slo_multiplier
                .unwrap_or(AuditConfig::default().tail_multiplier),
            ..AuditConfig::default()
        },
        inject_slow_channel: args.opt::<usize>("inject-slow-channel")?,
        inject_slow_factor: args.opt_or("inject-slow-factor", 1.0f64)?,
    };

    if let Some(dir) = &postmortem_dir {
        std::fs::create_dir_all(dir)?;
        dbcast_flight::postmortem::set_dir(Some(std::path::PathBuf::from(dir)));
        dbcast_flight::postmortem::install_panic_hook();
    }
    // The runtime is built before the exposition server so /exemplars
    // and the OpenMetrics exemplar provider can capture its tracer.
    let config_value = serde::Serialize::to_value(&config);
    let runtime = ServeRuntime::new(&db, config)?;
    let audit = runtime.audit();

    if dbcast_obs::enabled() {
        // Tail exemplars ride along on serve.wait histogram bucket
        // lines in every /metrics render while this run is live.
        let provider = std::sync::Arc::clone(&audit);
        dbcast_obs::openmetrics::set_exemplar_provider(Some(std::sync::Arc::new(
            move |name: &str| {
                if name == "serve.wait" {
                    provider.exemplars()
                } else {
                    Vec::new()
                }
            },
        )));
    }

    // Framed TCP broadcast egress: stream the live cyclic program (the
    // epoch cell the runtime hot-swaps) as real frames so `dbcast
    // fleet --connect` clients can measure it end to end.
    let bcast = match args.opt::<String>("listen-bcast")? {
        None => None,
        Some(addr) => {
            let index =
                super::fleet_cmd::parse_index_params(args, "bcast-index", "bcast-header")?;
            let pace_ms = args.opt_or("bcast-pace-ms", 10u64)?;
            let server = std::sync::Arc::new(dbcast_net::BroadcastServer::bind(
                addr.as_str(),
                dbcast_net::NetConfig::default(),
            )?);
            writeln!(out, "broadcasting frames on tcp://{}", server.addr())?;
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let source = dbcast_net::EpochSource::new(runtime.cell());
            let egress_config = dbcast_net::EgressConfig {
                index,
                max_windows: None,
                pace: (pace_ms > 0).then(|| std::time::Duration::from_millis(pace_ms)),
            };
            let egress_server = std::sync::Arc::clone(&server);
            let egress_stop = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                dbcast_net::run_egress(
                    &egress_server,
                    &source,
                    &egress_config,
                    &egress_stop,
                )
            });
            Some((server, stop, handle))
        }
    };

    // Telemetry uplink: fleet clients push generation acks and
    // per-generation measurement slices here; the aggregator follows
    // the runtime's epoch cell so stragglers are judged against the
    // generation actually being broadcast.
    let uplink = match &listen_uplink {
        None => None,
        Some(addr) => {
            let aggregator = std::sync::Arc::new(dbcast_serve::FleetAggregator::following(
                runtime.cell(),
            ));
            let server = dbcast_net::UplinkServer::bind(
                addr.as_str(),
                std::sync::Arc::clone(&aggregator) as _,
            )?;
            writeln!(out, "telemetry uplink on tcp://{}", server.addr())?;
            Some((server, aggregator))
        }
    };

    let exposition = match &listen {
        None => None,
        Some(addr) => {
            let (items, trace_requests) = (db.len() as u64, trace.len() as u64);
            let status = Box::new(move || {
                render(&dbcast_flight::StatusDoc {
                    command: "serve".to_string(),
                    items,
                    trace_requests,
                    flight_recorded: dbcast_flight::recorder().recorded(),
                    config: config_value.clone(),
                })
            });
            let mut routes = Vec::new();
            let audit_route = std::sync::Arc::clone(&audit);
            routes.push(dbcast_flight::Route::json("/exemplars", move || {
                render(&audit_route.snapshot())
            }));
            if let Some((_, aggregator)) = &uplink {
                let fleet_route = std::sync::Arc::clone(aggregator);
                routes.push(dbcast_flight::Route::json("/fleet", move || {
                    render(&fleet_route.doc())
                }));
            }
            let server = dbcast_flight::ExpositionServer::bind_with_routes(
                addr.as_str(),
                status,
                routes,
            )?;
            writeln!(
                out,
                "exposing /metrics, /flight, /status{} and /exemplars on http://{}",
                if uplink.is_some() { ", /fleet" } else { "" },
                server.addr()
            )?;
            Some(server)
        }
    };

    // Watchdog rules read the live registry on their own thread, and
    // only when --watch armed some.
    let watchdog = if watch_rules.is_empty() {
        None
    } else {
        Some(dbcast_flight::Watchdog::new(watch_rules).spawn()?)
    };
    let run_result = runtime.run(&trace);
    if let Some((server, stop, handle)) = bcast {
        // Let the egress notice the stop flag, send its End frame and
        // return its report before the sockets go away.
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let egress = handle
            .join()
            .map_err(|_| CliError::Fleet("broadcast egress thread panicked".to_string()))?;
        match egress {
            Ok(report) => writeln!(
                out,
                "broadcast egress: {} frame(s) over {} window(s), \
                 {} generation(s), {} truncated at swaps, {} dropped",
                report.frames,
                report.windows,
                report.generations,
                report.truncated,
                server.dropped_frames()
            )?,
            Err(e) => writeln!(out, "broadcast egress failed: {e}")?,
        }
        server.shutdown();
    }
    // Fleet clients finish measuring only after the End frame, so give
    // their slice digests (and any external /fleet scrape) a window
    // before the uplink and exposition sockets go away.
    if uplink.is_some() {
        let linger_ms = args.opt_or("uplink-linger-ms", 0u64)?;
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
    }
    if let Some((server, aggregator)) = &uplink {
        let doc = aggregator.doc();
        writeln!(
            out,
            "telemetry uplink: {} digest(s) from {} client(s), {} straggling, \
             {} decode error(s)",
            doc.digests,
            doc.clients,
            doc.stragglers,
            server.decode_errors()
        )?;
        server.shutdown();
    }
    if let Some(server) = exposition {
        server.shutdown();
    }
    // The provider holds the tracer alive and would serve stale
    // exemplars to any later render in this process; unhook it.
    dbcast_obs::openmetrics::set_exemplar_provider(None);
    // Stop (with a final check) even when the run errored, so the
    // thread never outlives the command.
    let firings = watchdog.map(dbcast_flight::WatchdogThread::stop).unwrap_or_default();
    let report = run_result?;

    if args.switch("json") {
        serde_json::to_writer_pretty(&mut *out, &report)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        writeln!(out)?;
        return finish_watchdog(firings, out);
    }

    writeln!(out, "requests served: {}", report.requests)?;
    writeln!(out, "dropped: {}, unserved (tick cap): {}", report.dropped, report.unserved)?;
    writeln!(
        out,
        "ticks: {}, drift events: {}, hot swaps: {}",
        report.ticks, report.drift_events, report.swaps
    )?;
    writeln!(
        out,
        "waiting: mean {:.4} s, p95 ≈{:.2} s (histogram bucket midpoint)",
        report.waiting.mean(),
        report.waiting.percentile(95.0).unwrap_or(0.0)
    )?;
    writeln!(
        out,
        "audit: {} seeded + {} tail (slow) sample(s), {} swap-straddled, \
         {} record(s) live in the trace ring",
        report.audit.sampled,
        report.audit.tail,
        report.audit.straddled,
        report.audit.records
    )?;
    for g in &report.generations {
        let repair = match &g.repair {
            None => String::from("initial DRP-CDS"),
            Some(r) => format!(
                "{} repair, {} move(s){}, {:.2} ms",
                r.mode,
                r.moves,
                if r.budget_exhausted {
                    format!(" [budget exhausted, ≥{:.4} gain left]", r.remaining_gain_bound)
                } else {
                    String::new()
                },
                r.wall_ns as f64 / 1e6
            ),
        };
        writeln!(
            out,
            "generation {}: installed t={:.2}s (tick {}), {} request(s), \
             mean wait {:.4} s, cost {:.4} — {}",
            g.generation,
            g.installed_at,
            g.installed_tick,
            g.requests(),
            g.mean_wait(),
            g.cost,
            repair
        )?;
        if let (Some(d), Some(l)) = (g.drift_at_dispatch, g.swap_latency) {
            writeln!(
                out,
                "  drift score {:.4} at dispatch; swap latency {:.2} virtual s",
                d, l
            )?;
        }
        if let Some(slo) = &g.slo {
            writeln!(
                out,
                "  SLO: Eq.2 target {:.4} s — {} ({} slow, burn rate {:.2})",
                slo.target_wait,
                if slo.within_tolerance { "within tolerance" } else { "OUT OF TOLERANCE" },
                slo.slow,
                slo.burn_rate
            )?;
        }
    }
    finish_watchdog(firings, out)
}

/// Reports watchdog firings and turns any into a non-zero exit — the
/// contract CI drills rely on.
fn finish_watchdog(
    firings: Vec<dbcast_flight::Firing>,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    if firings.is_empty() {
        return Ok(());
    }
    for f in &firings {
        writeln!(
            out,
            "watchdog fired: {} (observed {:.4} at tick {}, t+{:.1}s)",
            f.rule,
            f.observed,
            f.tick,
            f.wall_ms as f64 / 1000.0
        )?;
        if let Some(p) = &f.postmortem {
            writeln!(out, "  postmortem: {}", p.display())?;
        }
    }
    Err(CliError::Watchdog { firings: firings.len() })
}

/// Builds the request stream: `--replay PATH` wins; otherwise a Poisson
/// stream over the workload, with an optional mid-stream Zipf shift.
fn build_stream(
    args: &Args,
    db: &dbcast_model::Database,
    seed: u64,
) -> Result<RequestTrace, CliError> {
    if let Some(path) = args.opt::<String>("replay")? {
        return Ok(dbcast_workload::load_trace(path)?);
    }
    let rate = args.opt_or("poisson", 10.0f64)?;
    let requests = args.opt_or("requests", 10_000usize)?;
    match args.opt::<f64>("shift-at")? {
        None => Ok(poisson_trace(db, rate, requests, seed)?),
        Some(frac) => {
            if !(0.0..1.0).contains(&frac) {
                return Err(CliError::InvalidOption(format!(
                    "--shift-at {frac} not in [0, 1)"
                )));
            }
            let theta = args.opt_or("shift-theta", 1.2f64)?;
            let rotation = args.opt_or("shift-rotation", db.len() / 2)?;
            let post = shifted_workload(db, theta, rotation)?;
            let pre_requests = (requests as f64 * frac).round() as usize;
            Ok(shifted_trace(db, &post, pre_requests, requests - pre_requests, rate, seed)?)
        }
    }
}
