//! The two serving workloads.
//!
//! * `serve_steady` replays a long stationary Poisson stream over the
//!   paper catalogue through one `ServeRuntime` with drift unreachable:
//!   the per-request serving path (Eq. 1 wait kernel, estimator, audit)
//!   with no re-allocation.
//! * `serve_drift` replays five equal phases whose hot set rotates, at
//!   N=2000 and K=16, with the default detector and full DRP-CDS repair:
//!   re-allocation dominates, and the serve loop publishes programs
//!   instead of only reading them.
//!
//! Both use the deterministic worker, so every repetition of one seed
//! does identical work and must report bit-identical waits.

use std::hint::black_box;
use std::time::Duration;

use dbcast_alloc::{Cds, Drp};
use dbcast_audit::{AuditConfig, AuditTracer};
use dbcast_model::{
    average_waiting_time, Allocation, BroadcastProgram, ChannelAllocator, Database,
    ItemSpec,
};
use dbcast_serve::{
    poisson_trace, shifted_workload, DriftDetector, FrequencyEstimator, ProgramGeneration,
    RepairMode, ServeConfig, ServeRuntime, WorkerMode,
};
use dbcast_workload::{Request, RequestTrace, SizeDistribution, WorkloadBuilder};

use crate::stats::{counted, low_decile, median, ns_per_unit, repeat_for, timed};
use crate::trace::Tracer;
use crate::Report;

/// Channel bandwidth of every workload, in size units per second.
pub const BANDWIDTH: f64 = 10.0;
/// Poisson arrival rate of the serve traces, requests per virtual second.
const RATE: f64 = 50.0;
/// The catalogue is pinned, so `--seed` moves only the request streams
/// and run-to-run spread measures the code, not a different catalogue.
const CATALOGUE_SEED: u64 = 42;

const STEADY_ITEMS: usize = 120;
const STEADY_CHANNELS: usize = 6;
const STEADY_REQUESTS: usize = 1_000_000;

const DRIFT_ITEMS: usize = 2_000;
const DRIFT_CHANNELS: usize = 16;
const DRIFT_PHASES: usize = 5;
const DRIFT_PHASE_REQUESTS: usize = 20_000;

/// Passes over the inputs per per-layer replay.
const LAYER_PASSES: usize = 3;

/// The paper's catalogue family: Zipf θ=0.8, size diversity Φ=2.
pub fn catalogue(items: usize) -> Result<Database, String> {
    WorkloadBuilder::new(items)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(CATALOGUE_SEED)
        .build()
        .map_err(|e| format!("catalogue: {e}"))
}

/// One hot swap as the serve report records it.
struct Swap {
    installed_tick: u64,
    cost: f64,
    repair_ms: f64,
}

/// What one serving repetition measured.
struct Rep {
    run_s: f64,
    run_allocs: u64,
    access_bits: u64,
    swaps: u64,
    ticks: u64,
    final_assignment: Vec<usize>,
    installs: Vec<Swap>,
}

/// Runtime constructions timed in every repetition; the last one serves.
/// Set-up samples then span the whole run, as the run times do, instead
/// of one burst whose speed depends on the host at that instant.
pub const SETUPS_PER_REP: usize = 3;

/// Repeats "build the runtime, serve the trace" for `budget`, checking
/// every repetition against the first. Reports `setup_s` (the fastest
/// decile of every construction) and `peak_rss_mb` (read after the first
/// repetition).
fn serve_reps(
    db: &Database,
    trace: &RequestTrace,
    config: ServeConfig,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Report,
) -> Result<Vec<Rep>, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    repeat_for(budget, 3, |i| {
        let rep = tr.span("rep", |tr| {
            let mut runtime = None;
            for _ in 0..SETUPS_PER_REP {
                let (built, setup) =
                    tr.span("serve.setup", |_| timed(|| ServeRuntime::new(db, config)));
                runtime = Some(built.map_err(|e| format!("runtime: {e}"))?);
                setups.push(setup.as_secs_f64());
            }
            let runtime = runtime.expect("at least one set-up");
            let ((report, run_allocs, _), run) =
                tr.span("serve.run", |_| timed(|| counted(|| runtime.run(trace))));
            let report = report.map_err(|e| format!("run: {e}"))?;
            out.attempted += trace.len() as u64;
            out.failed += report.dropped + report.unserved;
            out.check(report.requests == trace.len() as u64, || {
                format!("rep {i}: served {} of {} requests", report.requests, trace.len())
            });
            Ok::<_, String>(Rep {
                run_s: run.as_secs_f64(),
                run_allocs,
                access_bits: report.waiting.mean().to_bits(),
                swaps: report.swaps,
                ticks: report.ticks,
                installs: report
                    .generations
                    .iter()
                    .filter_map(|g| {
                        g.repair.as_ref().map(|r| Swap {
                            installed_tick: g.installed_tick,
                            cost: g.cost,
                            repair_ms: r.wall_ns as f64 / 1e6,
                        })
                    })
                    .collect(),
                final_assignment: report.final_assignment,
            })
        })?;
        reps.push(rep);
        if i == 0 {
            out.end_to_end.push(("peak_rss_mb", crate::peak_rss_mb()?));
        }
        Ok::<_, String>(())
    })?;
    out.end_to_end.push(("setup_s", low_decile(&setups)));
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        out.check(rep.access_bits == first.access_bits, || {
            format!("rep {i}: mean access differs from rep 0 under the same seed")
        });
        out.check(rep.swaps == first.swaps, || {
            format!("rep {i}: {} swaps, rep 0 made {}", rep.swaps, first.swaps)
        });
    }
    // The first run may pay one-time lazy initialisation; from the
    // second on the allocation count must repeat exactly.
    for (i, rep) in reps.iter().enumerate().skip(2) {
        out.check(rep.run_allocs == reps[1].run_allocs, || {
            format!(
                "rep {i}: {} allocations, rep 1 made {}",
                rep.run_allocs, reps[1].run_allocs
            )
        });
    }
    Ok(reps)
}

/// The end-to-end metrics shared by both serving workloads.
fn serve_end_to_end(reps: &[Rep], requests: usize, out: &mut Report) {
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    out.end_to_end.push(("serve_rps", requests as f64 / low_decile(&runs)));
    out.end_to_end.push(("access_mean_s", f64::from_bits(reps[0].access_bits)));
    out.end_to_end.push(("generations", (reps[0].swaps + 1) as f64));
}

/// `serve_steady`: N=120, K=6, one million stationary Poisson requests.
pub fn steady(seed: u64, budget: Duration, tr: &mut Tracer) -> Result<Report, String> {
    let mut out = Report::default();
    let db = catalogue(STEADY_ITEMS)?;
    let trace =
        poisson_trace(&db, RATE, STEADY_REQUESTS, seed).map_err(|e| e.to_string())?;
    let config = ServeConfig {
        channels: STEADY_CHANNELS,
        bandwidth: BANDWIDTH,
        // L1 distance never exceeds 2: drift is unreachable.
        detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
        worker: WorkerMode::Deterministic,
        ..ServeConfig::default()
    };
    let reps = tr
        .span("serve_steady", |tr| serve_reps(&db, &trace, config, budget, tr, &mut out))?;

    serve_end_to_end(&reps, trace.len(), &mut out);

    let runtime = ServeRuntime::new(&db, config).map_err(|e| e.to_string())?;
    let gen = runtime.cell().current();
    let expected = gen.value.expected_wait;
    let access = f64::from_bits(reps[0].access_bits);
    out.check((access - expected).abs() <= 0.1 * expected, || {
        format!("mean access {access} is not within 10% of Eq. 2's {expected}")
    });
    out.check(reps[0].swaps == 0, || {
        format!("{} swaps with drift unreachable", reps[0].swaps)
    });

    if tr.enabled() {
        tr.span("layers", |tr| {
            steady_layers(&db, &trace, &gen.value, config, &reps, tr, &mut out)
        });
    }
    Ok(out)
}

/// Replays the steady trace through each per-request layer on the
/// generation-0 program.
fn steady_layers(
    db: &Database,
    trace: &RequestTrace,
    gen: &ProgramGeneration,
    config: ServeConfig,
    reps: &[Rep],
    tr: &mut Tracer,
    out: &mut Report,
) {
    let program = &gen.program;
    let reqs: &[Request] = trace.requests();
    let n = reqs.len();

    let (rt_ns, rt_allocs) = tr.span("model.response_time", |_| {
        let serve_all = || {
            for r in reqs {
                black_box(program.response_time(black_box(r.item), r.time));
            }
        };
        let (_, allocs, _) = counted(serve_all);
        (ns_per_unit(LAYER_PASSES, n, serve_all), allocs as f64 / n as f64)
    });

    let observe_ns = tr.span("serve.estimator_observe", |_| {
        ns_per_unit(LAYER_PASSES, n, || {
            let mut est = FrequencyEstimator::new(db.len(), config.estimator);
            for r in reqs {
                est.observe(black_box(r.item));
            }
            black_box(&est);
        })
    });

    // Per tick the loop ages the estimate, reads the frequency vector
    // and checks drift against the serving profile.
    let ticks = reps[0].ticks.max(1) as usize;
    let tick_len = tick_len(program);
    let mut primed = FrequencyEstimator::new(db.len(), config.estimator);
    for r in reqs {
        primed.observe(r.item);
    }
    let mut estimated = Vec::with_capacity(db.len());
    let tick_ns = tr.span("serve.estimator_tick", |_| {
        ns_per_unit(LAYER_PASSES, ticks, || {
            let mut est = primed.clone();
            for _ in 0..ticks {
                est.tick(tick_len);
                est.frequency_vector_into(&mut estimated);
                black_box(&estimated);
            }
        })
    });
    let serving: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
    let drift_ns = tr.span("serve.drift_check", |_| {
        ns_per_unit(LAYER_PASSES, ticks, || {
            for t in 0..ticks {
                black_box(config.detector.check(&estimated, &serving, t as u64));
            }
        })
    });

    // The audit tracer sees each request's channel, wait and Eq. 2
    // per-item prediction, computed up front so only audit is timed.
    let inputs: Vec<(usize, f64, f64)> = reqs
        .iter()
        .map(|r| {
            let channel = gen.assignment[r.item.index()];
            let cycle = program.channels()[channel].cycle_size();
            let size = db.items()[r.item.index()].size();
            let wait = program.response_time(r.item, r.time).unwrap_or(0.0);
            (channel, wait, cycle / (2.0 * BANDWIDTH) + size / BANDWIDTH)
        })
        .collect();
    let audit_ns = tr.span("audit.observe", |_| {
        ns_per_unit(LAYER_PASSES, n, || {
            let audit = AuditTracer::new(AuditConfig::default(), STEADY_CHANNELS);
            for (id, &(channel, wait, predicted)) in inputs.iter().enumerate() {
                black_box(audit.observe_wait(channel, wait, predicted));
                black_box(audit.should_sample(id as u64));
                black_box(audit.tail_slow(wait, gen.expected_wait));
            }
        })
    });

    let run_ns =
        1e9 * low_decile(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()) / n as f64;
    let per_request_ticks = (tick_ns + drift_ns) * ticks as f64 / n as f64;
    let allocs = reps.get(1).unwrap_or(&reps[0]).run_allocs;
    out.layers.extend([
        ("model.response_time_ns", rt_ns),
        ("model.response_time_allocs", rt_allocs),
        ("serve.estimator_observe_ns", observe_ns),
        ("serve.estimator_tick_ns", tick_ns),
        ("serve.drift_check_ns", drift_ns),
        ("audit.observe_ns", audit_ns),
        ("serve.run_allocs_per_request", allocs as f64 / n as f64),
        (
            "serve.run_unattributed_ns",
            run_ns - rt_ns - observe_ns - audit_ns - per_request_ticks,
        ),
    ]);
}

/// Five phases of equal length; phase `p` follows the catalogue with its
/// hot set rotated by `p·N/5` items.
fn drift_inputs(seed: u64) -> Result<(Vec<Database>, RequestTrace), String> {
    let db = catalogue(DRIFT_ITEMS)?;
    let mut phases = vec![db.clone()];
    for p in 1..DRIFT_PHASES {
        let rotated = shifted_workload(&db, 0.8, p * DRIFT_ITEMS / DRIFT_PHASES)
            .map_err(|e| e.to_string())?;
        phases.push(rotated);
    }
    let mut requests = Vec::with_capacity(DRIFT_PHASES * DRIFT_PHASE_REQUESTS);
    let mut offset = 0.0;
    for (p, phase) in phases.iter().enumerate() {
        let part =
            poisson_trace(phase, RATE, DRIFT_PHASE_REQUESTS, seed ^ ((p as u64) << 32))
                .map_err(|e| e.to_string())?;
        requests
            .extend(part.iter().map(|r| Request { time: r.time + offset, item: r.item }));
        offset = requests.last().map_or(offset, |r| r.time);
    }
    Ok((phases, RequestTrace::from_requests(requests)))
}

/// `serve_drift`: N=2000, K=16, five rotating phases, full repair.
pub fn drift(seed: u64, budget: Duration, tr: &mut Tracer) -> Result<Report, String> {
    let mut out = Report::default();
    let (phases, trace) = drift_inputs(seed)?;
    let config = ServeConfig {
        channels: DRIFT_CHANNELS,
        bandwidth: BANDWIDTH,
        detector: DriftDetector::default(),
        repair: RepairMode::Full,
        worker: WorkerMode::Deterministic,
        ..ServeConfig::default()
    };
    let reps = tr.span("serve_drift", |tr| {
        serve_reps(&phases[0], &trace, config, budget, tr, &mut out)
    })?;
    if reps[0].installs.is_empty() {
        return Err("the rotating hot set never triggered a swap".into());
    }
    eprintln!(
        "serve_drift: {} swaps in {} ticks for {} injected shifts",
        reps[0].swaps,
        reps[0].ticks,
        DRIFT_PHASES - 1
    );
    serve_end_to_end(&reps, trace.len(), &mut out);

    if tr.enabled() {
        tr.span("layers", |tr| drift_layers(&phases, &trace, config, &reps, tr, &mut out))?;
    }
    Ok(out)
}

/// DRP and CDS on one database: `(drp_ms, cds_ms, moves, MiB allocated,
/// refined allocation)`. Each time is the fastest decile of
/// [`LAYER_PASSES`] passes, the statistic the repair walls it is compared
/// with use.
fn drp_cds(
    db: &Database,
    tr: &mut Tracer,
) -> Result<(f64, f64, f64, f64, Allocation), String> {
    let (mut drp_ms, mut cds_ms, mut refined, mut bytes) =
        (Vec::new(), Vec::new(), None, 0);
    for _ in 0..LAYER_PASSES {
        let ((rough, drp_t), _, drp_bytes) = tr.span("alloc.drp", |_| {
            counted(|| timed(|| Drp::new().allocate(db, DRIFT_CHANNELS)))
        });
        let rough = rough.map_err(|e| e.to_string())?;
        let ((cds, cds_t), _, cds_bytes) =
            tr.span("alloc.cds", |_| counted(|| timed(|| Cds::new().refine(db, rough))));
        drp_ms.push(drp_t.as_secs_f64() * 1e3);
        cds_ms.push(cds_t.as_secs_f64() * 1e3);
        bytes = drp_bytes + cds_bytes;
        refined = Some(cds.map_err(|e| e.to_string())?);
    }
    let refined = refined.expect("at least one pass");
    Ok((
        low_decile(&drp_ms),
        low_decile(&cds_ms),
        refined.steps.len() as f64,
        bytes as f64 / (1u64 << 20) as f64,
        refined.allocation,
    ))
}

/// The tick length the serve loop runs under `program`: its shortest
/// non-empty cycle on air.
fn tick_len(program: &BroadcastProgram) -> f64 {
    program
        .channels()
        .iter()
        .map(|c| c.cycle_size())
        .filter(|&s| s > 0.0)
        .fold(f64::INFINITY, f64::min)
        / BANDWIDTH
}

/// Replays each phase's workload through DRP, CDS and the program build
/// at the workload's N and K; then rebuilds the database every repair of
/// the run started from and times DRP and CDS on it, so the repair wall
/// can be split.
fn drift_layers(
    phases: &[Database],
    trace: &RequestTrace,
    config: ServeConfig,
    reps: &[Rep],
    tr: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let (mut drp, mut cds, mut moves, mut mb, mut build) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for db in phases {
        tr.span("phase", |tr| {
            let (drp_ms, cds_ms, steps, alloc_mb, refined) = drp_cds(db, tr)?;
            let (built, build_t) = tr.span("model.program_build", |_| {
                timed(|| {
                    let program = BroadcastProgram::new(db, &refined, BANDWIDTH)?;
                    let wait = average_waiting_time(db, &refined, BANDWIDTH)?;
                    Ok::<_, dbcast_model::ModelError>(black_box((program, wait)))
                })
            });
            built.map_err(|e| e.to_string())?;
            drp.push(drp_ms);
            cds.push(cds_ms);
            moves.push(steps);
            mb.push(alloc_mb);
            build.push(build_t.as_secs_f64() * 1e3);
            Ok::<_, String>(())
        })?;
    }

    // Per swap: the fastest decile of its repair wall over repetitions,
    // less DRP and CDS on the database that repair ran on.
    let inputs = tr.span("serve.repair_inputs", |_| {
        repair_inputs(&phases[0], trace, config, &reps[0])
    })?;
    let mut unattributed = Vec::with_capacity(inputs.len());
    for (i, db) in inputs.iter().enumerate() {
        let (drp_ms, cds_ms, ..) = tr.span("repair", |tr| drp_cds(db, tr))?;
        let walls: Vec<f64> = reps.iter().map(|r| r.installs[i].repair_ms).collect();
        unattributed.push(low_decile(&walls) - drp_ms - cds_ms);
    }
    let repair_ms: Vec<f64> = reps
        .iter()
        .map(|r| median(&r.installs.iter().map(|s| s.repair_ms).collect::<Vec<_>>()))
        .collect();
    let swaps = reps[0].swaps as f64;
    out.layers.extend([
        ("alloc.drp_ms", median(&drp)),
        ("alloc.cds_ms", median(&cds)),
        ("alloc.cds_moves", median(&moves)),
        ("alloc.recompute_alloc_mb", median(&mb)),
        ("model.program_build_ms", median(&build)),
        // One median repair wall per repetition; the fastest decile of
        // repetitions, as for the run times.
        ("serve.repair_ms_p50", low_decile(&repair_ms)),
        ("serve.repair_unattributed_ms", median(&unattributed)),
        ("serve.useful_swap_ratio", (phases.len() - 1) as f64 / swaps),
    ]);
    Ok(())
}

/// The database each hot swap of `rep` was computed from.
///
/// Replays the serve loop's estimator timeline over `trace`: at each
/// cycle boundary, a swap due there takes over the tick length, the
/// estimate ages by one tick, and a swap to be installed at the next
/// boundary is dispatched with the estimated frequencies times the item
/// sizes. Each rebuilt repair must reproduce the installed generation's
/// Eq. 3 cost bit for bit, and the last one the run's final assignment.
fn repair_inputs(
    db: &Database,
    trace: &RequestTrace,
    config: ServeConfig,
    rep: &Rep,
) -> Result<Vec<Database>, String> {
    let runtime = ServeRuntime::new(db, config).map_err(|e| e.to_string())?;
    let mut len = tick_len(&runtime.cell().current().value.program);
    let sizes: Vec<f64> = db.iter().map(|d| d.size()).collect();
    let mut est = FrequencyEstimator::new(db.len(), config.estimator);
    let (mut ticks, mut tick_end) = (0u64, len);
    let mut inputs: Vec<Database> = Vec::with_capacity(rep.installs.len());
    let mut next_len = None;
    let mut assignment = Vec::new();
    for r in trace.iter() {
        if inputs.len() == rep.installs.len() {
            break;
        }
        while r.time >= tick_end {
            ticks += 1;
            if let Some(l) = next_len.take() {
                len = l;
            }
            est.tick(len);
            let swap = &rep.installs[inputs.len()];
            if swap.installed_tick == ticks + 1 {
                let input = Database::try_from_specs(
                    est.frequency_vector()
                        .iter()
                        .zip(&sizes)
                        .map(|(&f, &z)| ItemSpec::new(f, z)),
                )
                .map_err(|e| e.to_string())?;
                let rough = Drp::new()
                    .allocate(&input, DRIFT_CHANNELS)
                    .map_err(|e| e.to_string())?;
                let refined =
                    Cds::new().refine(&input, rough).map_err(|e| e.to_string())?;
                assignment = refined.allocation.assignment().to_vec();
                let alloc =
                    Allocation::from_assignment(&input, DRIFT_CHANNELS, assignment.clone())
                        .map_err(|e| e.to_string())?;
                if alloc.total_cost().to_bits() != swap.cost.to_bits() {
                    return Err(format!(
                        "rebuilt repair {} costs {}, the run installed {}",
                        inputs.len(),
                        alloc.total_cost(),
                        swap.cost
                    ));
                }
                let program = BroadcastProgram::new(&input, &alloc, BANDWIDTH)
                    .map_err(|e| e.to_string())?;
                next_len = Some(tick_len(&program));
                inputs.push(input);
                if inputs.len() == rep.installs.len() {
                    break;
                }
            }
            tick_end += len;
        }
        est.observe(r.item);
    }
    if inputs.len() != rep.installs.len() || assignment != rep.final_assignment {
        return Err(format!(
            "rebuilt {} of {} repairs, final assignment {}",
            inputs.len(),
            rep.installs.len(),
            if assignment == rep.final_assignment { "matches" } else { "differs" }
        ));
    }
    Ok(inputs)
}
