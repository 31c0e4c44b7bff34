//! The pinned macro-benchmark suite.
//!
//! Every benchmark closes over a seed-pinned workload built once up
//! front, so iterations measure the algorithm alone and the same
//! suite re-measures bit-identical work on every machine and commit —
//! the precondition for exact allocation-count comparison.

use std::cell::OnceCell;
use std::hint::black_box;
use std::rc::Rc;

use dbcast_alloc::{BestMoveEngine, Cds, Drp, DrpCds};
use dbcast_baselines::{Gopt, GoptConfig, Vfk};
use dbcast_conformance::{GeneratorConfig, InstanceGenerator};
use dbcast_model::{Allocation, BroadcastProgram, ChannelAllocator, Database};
use dbcast_net::{EgressConfig, FleetConfig, NetConfig, ScriptedSource, SourceGeneration};
use dbcast_serve::{DriftDetector, FleetDigest, ServeConfig, ServeRuntime, WorkerMode};
use dbcast_sim::Simulation;
use dbcast_workload::{SizeDistribution, TraceBuilder, WorkloadBuilder};

/// One named, repeatable unit of work.
pub struct Benchmark {
    name: String,
    run: Box<dyn FnMut()>,
}

impl Benchmark {
    /// Wraps a closure as a benchmark.
    pub fn new(name: impl Into<String>, run: impl FnMut() + 'static) -> Self {
        Benchmark { name: name.into(), run: Box::new(run) }
    }

    /// The benchmark's stable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executes one iteration.
    pub fn run_once(&mut self) {
        (self.run)();
    }
}

/// The paper-scale workload every allocator benchmark shares:
/// `N = 120`, Zipf `θ = 0.8`, diversity `Φ = 2`, seed 42.
fn paper_db() -> Database {
    WorkloadBuilder::new(120)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .expect("pinned workload parameters are valid")
}

/// Builds the standard suite. Names are stable keys — renaming one
/// orphans its baseline entry and trips the gate's missing-benchmark
/// check, which is intentional.
pub fn standard_suite() -> Vec<Benchmark> {
    let mut suite = Vec::new();

    let db = paper_db();
    suite.push(Benchmark::new("drp", {
        let db = db.clone();
        move || {
            let alloc = Drp::new().allocate(&db, 6).expect("feasible");
            black_box(&alloc);
        }
    }));

    // CDS in isolation: refine the same rough DRP allocation each
    // iteration (the clone is part of the measured cost and is
    // identical every time).
    let rough = Drp::new().allocate(&db, 6).expect("feasible");
    suite.push(Benchmark::new("cds", {
        let db = db.clone();
        move || {
            let out = Cds::new().refine(&db, rough.clone()).expect("refine cannot fail");
            black_box(&out);
        }
    }));

    suite.push(Benchmark::new("drp_cds", {
        let db = db.clone();
        move || {
            let alloc = DrpCds::new().allocate(&db, 6).expect("feasible");
            black_box(&alloc);
        }
    }));

    // Production-scale instance for the incremental engine: N = 100 000
    // items over K = 256 channels, same distribution family as the
    // paper workload. Setup (workload synthesis + DRP rough cut,
    // ~0.5 s) is shared between the two large benchmarks and runs
    // lazily inside the first warmup iteration, so filtered runs and
    // suite-shape tests never pay for it.
    let large: Rc<OnceCell<(Database, Allocation)>> = Rc::new(OnceCell::new());
    fn build_large() -> (Database, Allocation) {
        let db = WorkloadBuilder::new(100_000)
            .skewness(0.8)
            .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
            .seed(42)
            .build()
            .expect("pinned workload parameters are valid");
        let rough = Drp::new().allocate(&db, 256).expect("feasible");
        (db, rough)
    }

    // One steepest-descent move on a warm incremental engine — the
    // unit of work a budgeted repair pays per move at production
    // scale. The engine persists across iterations, so successive
    // iterations walk successive moves of the same deterministic
    // descent (the O(NK) engine init lands in the warmup discard).
    suite.push(Benchmark::new("cds_large", {
        let large = Rc::clone(&large);
        let mut engine: Option<BestMoveEngine> = None;
        move || {
            let engine = engine.get_or_insert_with(|| {
                let (db, rough) = large.get_or_init(build_large);
                let f: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
                let z: Vec<f64> = db.iter().map(|d| d.size()).collect();
                let assign: Vec<u32> =
                    rough.assignment().iter().map(|&c| c as u32).collect();
                let stats = rough.all_channel_stats();
                let freq: Vec<f64> = stats.iter().map(|s| s.frequency).collect();
                let size: Vec<f64> = stats.iter().map(|s| s.size).collect();
                BestMoveEngine::new(256, 1e-9, f, z, assign, freq, size)
            });
            black_box(engine.apply_best());
        }
    }));

    // The full pipeline at the same scale, descent capped at 16 moves:
    // DRP plus the engine's O(NK) init dominate, keeping an iteration
    // around a second while still exercising the incremental repair.
    suite.push(Benchmark::new("drp_cds_large", {
        let large = Rc::clone(&large);
        move || {
            let (db, _) = large.get_or_init(build_large);
            let alloc = DrpCds::new()
                .with_cds(Cds::new().max_iterations(16))
                .allocate(db, 256)
                .expect("feasible");
            black_box(&alloc);
        }
    }));

    suite.push(Benchmark::new("vfk", {
        let db = db.clone();
        move || {
            let alloc = Vfk::new().allocate(&db, 6).expect("feasible");
            black_box(&alloc);
        }
    }));

    // GOPT on a deliberately small instance: the genetic search is the
    // paper's slow baseline, and the gate needs iterations in
    // milliseconds, not minutes.
    let small_db = WorkloadBuilder::new(30)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .expect("pinned workload parameters are valid");
    suite.push(Benchmark::new("gopt_small", {
        let db = small_db;
        move || {
            let gopt = Gopt::new(GoptConfig {
                population: 24,
                max_generations: 25,
                seed: 7,
                ..GoptConfig::default()
            });
            let alloc = gopt.allocate(&db, 4).expect("feasible");
            black_box(&alloc);
        }
    }));

    // The discrete-event engine on a DRP-CDS program, 2000 requests.
    let alloc = DrpCds::new().allocate(&db, 6).expect("feasible");
    let program = BroadcastProgram::new(&db, &alloc, 10.0).expect("consistent program");
    let trace = TraceBuilder::new(&db)
        .requests(2000)
        .arrival_rate(10.0)
        .seed(43)
        .build()
        .expect("valid trace parameters");
    suite.push(Benchmark::new("sim_engine", move || {
        let report = Simulation::new(&program, &trace).run().expect("program covers trace");
        black_box(&report);
    }));

    // The conformance generator: 64 seed-replayable cases.
    suite.push(Benchmark::new("conformance_gen", || {
        let generator = InstanceGenerator::new(GeneratorConfig::default());
        for case in 0..64 {
            black_box(generator.instance(case));
        }
    }));

    // The serving runtime's steady state: 4000 requests through the
    // closed loop with a drift threshold high enough that no swap
    // fires — measures estimator + drift-check + analytical serving
    // throughput (requests per second of wall time).
    let serve_trace =
        dbcast_serve::poisson_trace(&db, 50.0, 4_000, 44).expect("valid trace parameters");
    suite.push(Benchmark::new("serve_loop", {
        let db = db.clone();
        let trace = serve_trace.clone();
        move || {
            let config = ServeConfig {
                detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
                worker: WorkerMode::Deterministic,
                ..ServeConfig::default()
            };
            let runtime = ServeRuntime::new(&db, config).expect("feasible");
            black_box(runtime.run(&trace).expect("trace is servable"));
        }
    }));

    // Hot-swap latency: a mid-stream Zipf shift forces drift-triggered
    // full re-allocations and program swaps; the dominant cost is the
    // DRP-CDS re-run plus program rebuild per swap.
    let post = dbcast_serve::shifted_workload(&db, 1.2, 60).expect("valid shift");
    let swap_trace = dbcast_serve::shifted_trace(&db, &post, 1_500, 2_500, 50.0, 44)
        .expect("valid trace parameters");
    suite.push(Benchmark::new("serve_swap", {
        let db = db.clone();
        move || {
            let config = ServeConfig {
                detector: DriftDetector { threshold: 0.25, min_observations: 200 },
                worker: WorkerMode::Deterministic,
                ..ServeConfig::default()
            };
            let runtime = ServeRuntime::new(&db, config).expect("feasible");
            let report = runtime.run(&swap_trace).expect("trace is servable");
            assert!(report.swaps >= 1, "swap benchmark must actually swap");
            black_box(report);
        }
    }));

    // One sampler scrape over a registry populated with the serving
    // runtime's metric families (per-channel gauges, SLO gauges, a
    // warm wait histogram): snapshot + bounded per-metric append +
    // watchdog evaluation. This is the always-on telemetry tax, so
    // its median is pinned to ≤2% of the serve-loop median by the
    // contract test below.
    {
        let r = dbcast_obs::registry();
        for i in 0..6 {
            r.gauge(&format!("serve.channel.load.{i}")).force_set(1.0 + i as f64);
            r.gauge(&format!("serve.channel.expected_wait.{i}")).force_set(0.3 * i as f64);
        }
        r.gauge("serve.drift_distance").force_set(0.1);
        r.gauge("serve.slo.burn_rate").force_set(0.2);
        let wait = r.histogram("serve.wait_time");
        for i in 0..512u64 {
            wait.force_record(i * 37);
        }
    }
    let scope_store = dbcast_scope::SeriesStore::default();
    let scope_watchdog = std::sync::Mutex::new(dbcast_scope::Watchdog::new(
        dbcast_scope::parse_rules("rate(serve.requests) > 1000000000 for 60s")
            .expect("pinned watchdog rule is valid"),
    ));
    suite.push(Benchmark::new("scope_sampler", move || {
        let r = dbcast_obs::registry();
        r.counter("serve.ticks").force_add(1);
        r.counter("serve.requests").force_add(50);
        dbcast_scope::sample_once(&scope_store, &scope_watchdog);
        black_box(scope_store.latest_tick());
    }));

    // The per-request audit tax in isolation, at the default sample
    // rate: the same request count the serve-loop benchmark pushes
    // through its closed loop (4000), here paying only the audit path
    // — seeded sampling decision, residual accounting, tail check and
    // (for sampled requests) a seqlock ring record. The synthetic
    // stream is precomputed so the measured loop is audit work alone.
    // Pinned to ≤2% of the serve-loop median by the contract test
    // below.
    let audit_tracer = dbcast_audit::AuditTracer::new(
        dbcast_audit::AuditConfig { seed: 42, ..dbcast_audit::AuditConfig::default() },
        6,
    );
    let audit_stream: Vec<(u32, u32, f64, f64)> = (0..4_000u32)
        .map(|id| {
            let channel = id % 6;
            let predicted = 0.3 + f64::from(channel) * 0.01;
            // A 1-in-499 slow outlier keeps the tail stage exercised.
            let slow_spike = if id % 499 == 0 { 3.0 } else { 1.0 };
            let wait = (predicted + f64::from(id % 13) * 0.005) * slow_spike;
            (id, channel, wait, predicted)
        })
        .collect();
    suite.push(Benchmark::new("audit_sampler", move || {
        for &(id, channel, wait, predicted) in &audit_stream {
            let residual = audit_tracer.observe_wait(channel as usize, wait, predicted);
            let seeded = audit_tracer.should_sample(u64::from(id));
            let tail = audit_tracer.tail_slow(wait, 0.35);
            if seeded || tail {
                // Only sampled requests (~2% at the default rate) pay
                // for a full lifecycle record.
                audit_tracer.record(&dbcast_audit::TraceRecord {
                    request_id: u64::from(id),
                    item: u64::from(id % 120),
                    arrival_tick: u64::from(id / 50),
                    satisfied_tick: u64::from(id / 50 + 1),
                    generation: 0,
                    channel: u64::from(channel),
                    queue_position: u64::from(id % 7),
                    arrival: f64::from(id) * 0.02,
                    wait,
                    predicted,
                    straddle_penalty: 0.0,
                    flags: (u64::from(seeded) * dbcast_audit::FLAG_SEEDED)
                        | (u64::from(tail) * dbcast_audit::FLAG_TAIL),
                });
            }
            black_box(residual);
        }
        black_box(audit_tracer.sampled());
    }));

    // The framed broadcast transport end to end: a loopback server, a
    // scripted single-generation egress and 16 concurrent
    // record-then-measure clients, all over real TCP sockets. Every
    // iteration pays the full lifecycle — bind, connect, frame
    // encode/decode, analytical measurement, report fold — on a small
    // pinned program, so this is the wall-time contract for `dbcast
    // fleet` itself. Virtual-time framing keeps the work seed-exact
    // across machines.
    let fleet_db = WorkloadBuilder::new(24)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 1.0 })
        .seed(42)
        .build()
        .expect("pinned workload parameters are valid");
    let fleet_alloc = DrpCds::new().allocate(&fleet_db, 2).expect("feasible");
    let fleet_program =
        BroadcastProgram::new(&fleet_db, &fleet_alloc, 10.0).expect("consistent program");
    let fleet_stage = SourceGeneration {
        generation: 0,
        program: fleet_program,
        frequencies: fleet_db.iter().map(|d| d.frequency()).collect(),
    };
    suite.push(Benchmark::new("fleet_e2e", move || {
        let source = ScriptedSource::new(vec![(0, fleet_stage.clone())]);
        let egress = EgressConfig { index: None, max_windows: Some(24), pace: None };
        let config = FleetConfig {
            clients: 16,
            seed: 42,
            requests: 12,
            rate: 2.0,
            ..FleetConfig::default()
        };
        let (report, egress_report) =
            dbcast_net::run_fleet_inline(&source, &egress, NetConfig::default(), &config)
                .expect("loopback fleet runs");
        assert_eq!(
            report.totals.torn_frames, 0,
            "fleet benchmark must measure a clean stream"
        );
        black_box((report, egress_report));
    }));

    // The telemetry uplink's server-side tax: decode a pinned wire
    // stream of fleet digests (4 clients × acks + measurement slices,
    // encoded once up front) and fold every frame into a fresh
    // aggregator. This is the entire per-digest cost the serve process
    // pays beyond the socket read, so its median is pinned to ≤2% of
    // the serve-loop median by the contract test below.
    let uplink_wire = {
        let mut wire = Vec::new();
        for client in 0..4u32 {
            for generation in 0..2u64 {
                let ack = FleetDigest::ack(client, generation as u32 * 2, generation);
                dbcast_net::encode_telemetry_frame_into(&mut wire, &ack);

                let mut slice = FleetDigest::ack(client, generation as u32 * 2 + 1, 1);
                slice.slice = true;
                slice.generation = generation;
                slice.origin = generation as f64 * 12.5;
                slice.samples = 6;
                slice.mean_access = 0.42 + f64::from(client) * 0.003;
                slice.mean_tuning = 0.03;
                slice.predicted_access = 0.40;
                slice.requests = 8;
                slice.completed = 6;
                slice.cache_hits = 1;
                slice.conflicts = 2;
                slice.retunes = 3;
                slice.torn = 0;
                for k in 0..6u64 {
                    slice.access.record(400_000 + k * 17_000 + u64::from(client));
                    slice.tuning.record(30_000 + k * 500);
                }
                slice.coverage = vec![(0, 120), (1, 96), (2, 80)];
                dbcast_net::encode_telemetry_frame_into(&mut wire, &slice);
            }
        }
        wire
    };
    suite.push(Benchmark::new("fleet_uplink", move || {
        let aggregator = dbcast_serve::FleetAggregator::new();
        aggregator.set_published(1);
        let mut decoder = dbcast_net::FrameDecoder::new();
        decoder.push(&uplink_wire);
        let mut digests = 0u64;
        while let Ok(Some(frame)) = decoder.next_frame() {
            if let dbcast_net::Frame::Telemetry(t) = frame {
                aggregator.ingest(&t);
                digests += 1;
            }
        }
        assert_eq!(digests, 16, "pinned uplink stream must decode in full");
        black_box(aggregator.doc());
    }));

    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique_and_stable() {
        let suite = standard_suite();
        let names: Vec<&str> = suite.iter().map(Benchmark::name).collect();
        assert_eq!(
            names,
            [
                "drp",
                "cds",
                "drp_cds",
                "cds_large",
                "drp_cds_large",
                "vfk",
                "gopt_small",
                "sim_engine",
                "conformance_gen",
                "serve_loop",
                "serve_swap",
                "scope_sampler",
                "audit_sampler",
                "fleet_e2e",
                "fleet_uplink"
            ]
        );
    }

    #[test]
    fn sampler_overhead_is_pinned_in_the_bench_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let baseline = crate::BenchReport::load(std::path::Path::new(path))
            .expect("committed baseline loads");
        let sampler = baseline
            .benchmark("scope_sampler")
            .expect("baseline carries the sampler benchmark");
        let serve = baseline
            .benchmark("serve_loop")
            .expect("baseline carries the serve-loop benchmark");
        assert!(
            sampler.median_ns <= 0.02 * serve.median_ns,
            "sampler scrape ({} ns) exceeds 2% of the serve-loop median ({} ns)",
            sampler.median_ns,
            serve.median_ns,
        );
    }

    #[test]
    fn audit_overhead_is_pinned_in_the_bench_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let baseline = crate::BenchReport::load(std::path::Path::new(path))
            .expect("committed baseline loads");
        let audit = baseline
            .benchmark("audit_sampler")
            .expect("baseline carries the audit-sampler benchmark");
        let serve = baseline
            .benchmark("serve_loop")
            .expect("baseline carries the serve-loop benchmark");
        assert!(
            audit.median_ns <= 0.02 * serve.median_ns,
            "per-request audit tax ({} ns for the 4000-request sweep) exceeds 2% \
             of the serve-loop median ({} ns)",
            audit.median_ns,
            serve.median_ns,
        );
    }

    #[test]
    fn uplink_overhead_is_pinned_in_the_bench_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let baseline = crate::BenchReport::load(std::path::Path::new(path))
            .expect("committed baseline loads");
        let uplink = baseline
            .benchmark("fleet_uplink")
            .expect("baseline carries the fleet-uplink benchmark");
        let serve = baseline
            .benchmark("serve_loop")
            .expect("baseline carries the serve-loop benchmark");
        assert!(
            uplink.median_ns <= 0.02 * serve.median_ns,
            "uplink decode + aggregation ({} ns for the 16-digest stream) exceeds \
             2% of the serve-loop median ({} ns)",
            uplink.median_ns,
            serve.median_ns,
        );
    }

    #[test]
    fn every_benchmark_runs() {
        for mut b in standard_suite() {
            b.run_once();
        }
    }
}
