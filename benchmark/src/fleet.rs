//! `fleet_wire`: the paper catalogue over loopback TCP.
//!
//! A scripted source airs two DRP-CDS generations (the catalogue, then
//! its hot set rotated by half) with the (1,m) air index on, swapping at
//! the midpoint. Two clients, no more than the two cores this is sized
//! for, record the air over their own connections under flow-controlled
//! delivery (`OverflowPolicy::Block`) and then measure their requests
//! against it. The fleet is composed here from its public parts (bind,
//! connect, `run_egress`, `AirLog::record`, `generate_requests`,
//! `measure`) so that set-up, the wire and measurement are timed apart.
//! The uplink stays off: it would double the connection count.

use std::hint::black_box;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use dbcast_alloc::DrpCds;
use dbcast_model::{BroadcastProgram, ChannelAllocator, Database};
use dbcast_net::{
    encode_frame_into, generate_requests, measure, predicted_access, run_egress,
    run_fleet_inline, AirLog, BroadcastServer, CacheKind, ClientReport, EgressConfig,
    FleetConfig, FleetReport, FleetTotals, Frame, FrameDecoder, GenerationSlice,
    IndexParams, NetConfig, OverflowPolicy, RequestOutcome, ScriptedSource,
    SourceGeneration, StatSummary, WorkloadPattern, FLEET_SCHEMA,
};
use dbcast_serve::shifted_workload;

use crate::serve::{catalogue, BANDWIDTH, SETUPS_PER_REP};
use crate::stats::{counted, low_decile, median, ns_per_unit, repeat_for, timed};
use crate::trace::Tracer;
use crate::Report;

const ITEMS: usize = 120;
const CHANNELS: usize = 6;
const CLIENTS: usize = 2;
const WINDOWS: u64 = 2_000;
const REQUESTS_PER_CLIENT: usize = 2_000;
/// Arrivals fill this share of the recorded horizon, so every request
/// completes before the stream ends.
const ARRIVAL_SPAN: f64 = 0.8;
const INDEX: IndexParams = IndexParams { index_size: 0.5, header_size: 0.05 };
/// Bytes per socket read, as `AirLog::record` reads.
const READ_CHUNK: usize = 8192;
const LAYER_PASSES: usize = 3;

/// One client's run: its recording, outcomes and timings.
struct ClientRun {
    config: dbcast_net::ClientConfig,
    log: AirLog,
    outcomes: Vec<RequestOutcome>,
    record: (Instant, Instant),
    measure: (Instant, Instant),
}

/// Records the air, then draws and measures this client's requests. The
/// rate is set from the recorded horizon, which depends only on the
/// programs, so every client and repetition of a seed agrees on it.
fn run_client(id: usize, seed: u64, stream: TcpStream) -> Result<ClientRun, String> {
    let record_start = Instant::now();
    let log = AirLog::record(stream)?;
    let record_end = Instant::now();
    let config = fleet_config(seed, &log).client(id);
    let measure_start = Instant::now();
    let first = &log.worlds[0].directory;
    let requests = generate_requests(&config, first, log.coverage_start());
    let outcomes = measure(&config, &log, &requests)?;
    let measure_end = Instant::now();
    Ok(ClientRun {
        config,
        log,
        outcomes,
        record: (record_start, record_end),
        measure: (measure_start, measure_end),
    })
}

fn fleet_config(seed: u64, log: &AirLog) -> FleetConfig {
    let span = log.horizon - log.coverage_start();
    FleetConfig {
        clients: CLIENTS,
        seed,
        requests: REQUESTS_PER_CLIENT,
        rate: REQUESTS_PER_CLIENT as f64 / (ARRIVAL_SPAN * span),
        cache: CacheKind::None,
        cache_budget: 0.0,
        pattern: WorkloadPattern::Single,
        patterns: 8,
        max_size: 4,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Folds one client's outcomes into the fleet's `ClientReport`. Per
/// generation, only requests that arrived early enough not to straddle
/// the generation's end are compared with Eq. 2, as the fleet does.
fn client_report(run: &ClientRun) -> ClientReport {
    let (log, outcomes) = (&run.log, &run.outcomes);
    let done: Vec<&RequestOutcome> = outcomes.iter().filter(|o| !o.incomplete).collect();
    let access: Vec<f64> = done.iter().map(|o| o.access).collect();
    let tuning: Vec<f64> = done.iter().map(|o| o.tuning).collect();
    let generations = log
        .worlds
        .iter()
        .map(|world| {
            let generation = world.directory.generation;
            let until = world.valid_until.min(log.horizon) - world.worst_case_access();
            let clean: Vec<&&RequestOutcome> = done
                .iter()
                .filter(|o| {
                    o.generation == Some(generation) && o.torn == 0 && o.arrival <= until
                })
                .collect();
            let a: Vec<f64> = clean.iter().map(|o| o.access).collect();
            let t: Vec<f64> = clean.iter().map(|o| o.tuning).collect();
            let p: Vec<f64> = clean.iter().filter_map(|o| o.expected_access).collect();
            GenerationSlice {
                generation,
                origin: world.directory.origin,
                requests: a.len() as u64,
                mean_access: mean(&a),
                mean_tuning: mean(&t),
                predicted_access: if p.is_empty() {
                    predicted_access(world)
                } else {
                    mean(&p)
                },
            }
        })
        .collect();
    ClientReport {
        id: run.config.id,
        seed: run.config.seed,
        requests: outcomes.len() as u64,
        completed: done.len() as u64,
        cache_hits: outcomes.iter().map(|o| o.cache_hits).sum(),
        conflicts: outcomes.iter().map(|o| o.conflicts).sum(),
        retunes: outcomes.iter().map(|o| o.retunes).sum(),
        torn_frames: outcomes.iter().map(|o| o.torn).sum(),
        decode_errors: log.decode_errors,
        access: StatSummary::from_values(&access),
        tuning: StatSummary::from_values(&tuning),
        generations,
    }
}

fn fleet_report(
    config: FleetConfig,
    clients: Vec<ClientReport>,
    dropped: u64,
) -> FleetReport {
    let mut totals =
        FleetTotals { dropped_frames: Some(dropped), ..FleetTotals::default() };
    for c in &clients {
        totals.requests += c.requests;
        totals.completed += c.completed;
        totals.cache_hits += c.cache_hits;
        totals.conflicts += c.conflicts;
        totals.retunes += c.retunes;
        totals.torn_frames += c.torn_frames;
        totals.decode_errors += c.decode_errors;
    }
    FleetReport { schema: FLEET_SCHEMA, config, indexed: true, clients, totals }
}

/// The two scripted generations.
fn stages(dbs: &[Database; 2]) -> Result<Vec<(u64, SourceGeneration)>, String> {
    let mut stages = Vec::new();
    for (generation, db) in dbs.iter().enumerate() {
        let alloc = DrpCds::new().allocate(db, CHANNELS).map_err(|e| e.to_string())?;
        let program =
            BroadcastProgram::new(db, &alloc, BANDWIDTH).map_err(|e| e.to_string())?;
        let activate = if generation == 0 { 0 } else { WINDOWS / 2 };
        stages.push((
            activate,
            SourceGeneration {
                generation: generation as u64,
                program,
                frequencies: db.iter().map(|d| d.frequency()).collect(),
            },
        ));
    }
    Ok(stages)
}

/// What one fleet repetition measured.
struct Rep {
    config: FleetConfig,
    generations: u64,
    setup_s: Vec<f64>,
    fleet_s: f64,
    delivered_fps: f64,
    egress_ms: f64,
    egress_frames: u64,
    record_ms: f64,
    measure_ns: f64,
    requests: u64,
    access_mean: f64,
    tuning_mean: f64,
}

/// Binds, connects and waits until every client is subscribed.
fn set_up(net: NetConfig) -> Result<(BroadcastServer, Vec<TcpStream>), String> {
    let server = BroadcastServer::bind("127.0.0.1:0", net)
        .map_err(|e| format!("bind failed: {e}"))?;
    let streams = (0..CLIENTS)
        .map(|_| {
            TcpStream::connect(server.addr()).map_err(|e| format!("connect failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.subscriber_count() < CLIENTS {
        if Instant::now() > deadline {
            server.shutdown();
            return Err("clients did not all subscribe in time".into());
        }
        std::thread::yield_now();
    }
    Ok((server, streams))
}

/// Flow-controlled delivery: a full subscriber queue blocks the egress.
fn net_config() -> NetConfig {
    NetConfig { overflow: OverflowPolicy::Block, ..NetConfig::default() }
}

/// Both generations, `WINDOWS` windows, the (1,m) index on, unpaced.
fn egress_config() -> EgressConfig {
    EgressConfig { index: Some(INDEX), max_windows: Some(WINDOWS), pace: None }
}

/// Checks one fleet report: its requests count as attempted, and torn,
/// undecodable and dropped frames and incomplete requests as failed; it
/// must validate, and per client and generation the mean access must be
/// within 10% of Eq. 2.
fn check_fleet(fleet: &FleetReport, out: &mut Report) {
    let t = &fleet.totals;
    out.attempted += t.requests;
    out.failed += (t.requests - t.completed)
        + t.torn_frames
        + t.decode_errors
        + t.dropped_frames.unwrap_or(0);
    if let Err(e) = fleet.validate() {
        out.check(false, || format!("fleet report invalid: {e}"));
    }
    for client in &fleet.clients {
        out.check(client.generations.len() == 2, || {
            format!("client {} saw {} generations", client.id, client.generations.len())
        });
        for g in &client.generations {
            let gap = (g.mean_access - g.predicted_access).abs() / g.predicted_access;
            out.check(g.requests > 0 && gap <= 0.1, || {
                format!(
                    "client {} generation {}: mean access {} vs Eq. 2 {} over {} requests",
                    client.id, g.generation, g.mean_access, g.predicted_access, g.requests
                )
            });
        }
    }
}

/// Mean access over every completed request of the fleet.
fn fleet_access(fleet: &FleetReport) -> f64 {
    fleet.clients.iter().map(|c| c.access.mean * c.completed as f64).sum::<f64>()
        / fleet.totals.completed.max(1) as f64
}

/// One repetition: set up, air both generations, record, measure, check.
fn fleet_rep(
    seed: u64,
    stages: &[(u64, SourceGeneration)],
    tr: &mut Tracer,
    out: &mut Report,
) -> Result<(Rep, ClientRun), String> {
    let (net, egress) = (net_config(), egress_config());
    let source = ScriptedSource::new(stages.to_vec());
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REP);
    let mut ready = None;
    for _ in 0..SETUPS_PER_REP {
        // Dropping an earlier set-up shuts its server down.
        drop(ready.take());
        let (built, setup) = tr.span("net.setup", |_| timed(|| set_up(net)));
        ready = Some(built?);
        setup_s.push(setup.as_secs_f64());
    }
    let (server, streams) = ready.expect("at least one set-up");

    let stop = AtomicBool::new(false);
    let (egress_report, runs, egress_start, egress_end, fleet_end) =
        tr.span("net.fleet", |tr| {
            std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .into_iter()
                    .enumerate()
                    .map(|(id, stream)| s.spawn(move || run_client(id, seed, stream)))
                    .collect();
                let egress_start = Instant::now();
                let egress_report =
                    tr.span("net.egress", |_| run_egress(&server, &source, &egress, &stop));
                let egress_end = Instant::now();
                if egress_report.is_err() {
                    // Closing the connections ends the clients' recordings.
                    server.shutdown();
                }
                let runs: Vec<Result<ClientRun, String>> = handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| Err("client thread panicked".into()))
                    })
                    .collect();
                (egress_report, runs, egress_start, egress_end, Instant::now())
            })
        });
    let dropped = server.dropped_frames();
    server.shutdown();
    let egress_report = egress_report?;
    let runs: Vec<ClientRun> = runs.into_iter().collect::<Result<_, _>>()?;
    for run in &runs {
        tr.record("net.client_record", run.record.0, run.record.1);
        tr.record("net.client_measure", run.measure.0, run.measure.1);
    }

    let clients: Vec<ClientReport> = runs.iter().map(client_report).collect();
    let config = fleet_config(seed, &runs[0].log);
    let fleet = fleet_report(config, clients, dropped);
    check_fleet(&fleet, out);
    out.check(egress_report.generations == 2, || {
        format!("{} generations aired, expected 2", egress_report.generations)
    });
    for (run, client) in runs.iter().zip(&fleet.clients) {
        out.check(run.log.truncated_bytes == 0, || {
            format!("client {} stream ended mid-frame", client.id)
        });
    }

    let completed = fleet.totals.completed.max(1) as f64;
    let tuning_mean =
        fleet.clients.iter().map(|c| c.tuning.mean * c.completed as f64).sum::<f64>()
            / completed;
    let last_record = runs.iter().map(|r| r.record.1).max().expect("two clients");
    let fleet_s = (fleet_end - egress_start).as_secs_f64();
    let rep = Rep {
        config,
        generations: egress_report.generations,
        setup_s,
        fleet_s,
        delivered_fps: (egress_report.frames * CLIENTS as u64) as f64
            / (last_record - egress_start).as_secs_f64(),
        egress_ms: (egress_end - egress_start).as_secs_f64() * 1e3,
        egress_frames: egress_report.frames,
        record_ms: median(
            &runs
                .iter()
                .map(|r| (r.record.1 - r.record.0).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
        measure_ns: median(
            &runs
                .iter()
                .map(|r| {
                    (r.measure.1 - r.measure.0).as_nanos() as f64 / r.outcomes.len() as f64
                })
                .collect::<Vec<_>>(),
        ),
        requests: fleet.totals.completed,
        access_mean: fleet_access(&fleet),
        tuning_mean,
    };
    let first = runs.into_iter().next().expect("two clients");
    Ok((rep, first))
}

/// `fleet_wire`: 2000 windows of two generations to two clients.
pub fn fleet_wire(seed: u64, budget: Duration, tr: &mut Tracer) -> Result<Report, String> {
    let mut out = Report::default();
    let db = catalogue(ITEMS)?;
    let rotated = shifted_workload(&db, 0.8, ITEMS / 2).map_err(|e| e.to_string())?;
    let dbs = [db, rotated];
    let stages = stages(&dbs)?;
    let mut reps = Vec::new();
    let mut last_log = None;
    tr.span("fleet_wire", |tr| {
        repeat_for(budget, 3, |i| {
            let (rep, run) = tr.span("rep", |tr| fleet_rep(seed, &stages, tr, &mut out))?;
            reps.push(rep);
            // Only the traced run replays a recording; keeping one
            // otherwise would inflate the untraced peak RSS.
            if tr.enabled() {
                last_log = Some(run.log);
            }
            if i == 0 {
                out.end_to_end.push(("peak_rss_mb", crate::peak_rss_mb()?));
            }
            Ok::<_, String>(())
        })
    })?;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        out.check(rep.access_mean.to_bits() == reps[0].access_mean.to_bits(), || {
            format!("rep {i}: mean access differs from rep 0 under the same seed")
        });
    }

    // Once, untimed: the program's own fleet runner on the same source
    // and configuration must pass the same checks and measure the same
    // fleet mean access as the composed fleet.
    let (inline, _) = tr.span("net.run_fleet_inline", |_| {
        let source = ScriptedSource::new(stages.clone());
        run_fleet_inline(&source, &egress_config(), net_config(), &reps[0].config)
    })?;
    check_fleet(&inline, &mut out);
    let (composed, program) = (reps[0].access_mean, fleet_access(&inline));
    out.check(composed.to_bits() == program.to_bits(), || {
        format!("composed fleet mean access {composed}, run_fleet_inline {program}")
    });

    let fast = |f: fn(&Rep) -> f64| low_decile(&reps.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    out.end_to_end.extend([
        ("setup_s", low_decile(&setups)),
        ("serve_rps", reps[0].requests as f64 / fast(|r| r.fleet_s)),
        ("access_mean_s", reps[0].access_mean),
        ("generations", reps[0].generations as f64),
    ]);

    if tr.enabled() {
        let log = last_log.expect("at least one repetition");
        let (encode_ns, decode_ns, bytes, allocs) =
            tr.span("layers", |tr| wire_layers(&log, tr))?;
        out.layers.extend([
            ("net.frame_encode_ns", encode_ns),
            ("net.frame_decode_ns", decode_ns),
            ("net.wire_bytes_per_frame", bytes),
            ("net.client_allocs_per_frame", allocs),
            ("net.egress_ms", fast(|r| r.egress_ms)),
            ("net.egress_frames", reps[0].egress_frames as f64),
            ("net.client_record_ms", fast(|r| r.record_ms)),
            ("net.client_measure_ns", fast(|r| r.measure_ns)),
            ("net.tuning_mean_s", reps[0].tuning_mean),
            ("net.delivered_fps", -fast(|r| -r.delivered_fps)),
        ]);
    }
    Ok(out)
}

/// Re-encodes one client's recorded frames offline and decodes them back
/// in socket-sized chunks; then replays the whole recorded stream through
/// `AirLog::record` to count the client's allocations per frame.
fn wire_layers(log: &AirLog, tr: &mut Tracer) -> Result<(f64, f64, f64, f64), String> {
    let frames: Vec<Frame> = log
        .frames
        .iter()
        .map(|&d| Frame::Data(d))
        .chain(log.index_frames.iter().map(|ix| Frame::Index(ix.clone())))
        .collect();
    let n = frames.len();
    let mut wire = Vec::new();
    let encode_ns = tr.span("net.frame_encode", |_| {
        ns_per_unit(LAYER_PASSES, n, || {
            wire.clear();
            for frame in &frames {
                encode_frame_into(&mut wire, frame);
            }
            black_box(&wire);
        })
    });
    let mut decoded = 0;
    let decode_ns = tr.span("net.frame_decode", |_| {
        ns_per_unit(LAYER_PASSES, n, || {
            let mut decoder = FrameDecoder::new();
            decoded = 0;
            for chunk in wire.chunks(READ_CHUNK) {
                decoder.push(chunk);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    black_box(frame);
                    decoded += 1;
                }
            }
        })
    });
    if decoded != n {
        return Err(format!("decoded {decoded} of {n} re-encoded frames"));
    }

    // The full stream: each generation's directory before its frames,
    // then the end-of-stream frame, as the egress airs them.
    let mut stream = Vec::new();
    for world in &log.worlds {
        let json = serde_json::to_string(&world.directory).map_err(|e| e.to_string())?;
        encode_frame_into(&mut stream, &Frame::Directory(json.into_bytes()));
        for frame in
            frames.iter().filter(|f| generation_of(f) == world.directory.generation)
        {
            encode_frame_into(&mut stream, frame);
        }
    }
    encode_frame_into(&mut stream, &Frame::End { horizon: log.horizon });
    let (replayed, allocs, _) =
        tr.span("net.client_record_replay", |_| counted(|| AirLog::record(&stream[..])));
    let replayed = replayed?;
    if replayed.frames.len() + replayed.index_frames.len() != n {
        return Err("replayed recording lost frames".into());
    }
    Ok((encode_ns, decode_ns, wire.len() as f64 / n as f64, allocs as f64 / n as f64))
}

fn generation_of(frame: &Frame) -> u64 {
    match frame {
        Frame::Data(d) => d.generation,
        Frame::Index(ix) => ix.generation,
        _ => u64::MAX,
    }
}
