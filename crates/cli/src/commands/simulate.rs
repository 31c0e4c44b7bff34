//! `dbcast simulate` — drive the trace simulator.

use dbcast_model::BroadcastProgram;
use dbcast_sim::Simulation;
use dbcast_workload::TraceBuilder;

use crate::args::Args;
use crate::commands::{algorithm_arg, CliError};

/// Allocates, builds the broadcast program, simulates a Poisson request
/// trace against it, and reports empirical vs analytical waiting times.
///
/// Options: `--channels K`, `--algo NAME`, `--requests R` (10000),
/// `--rate λ` (10), `--bandwidth b` (10), `--seed S`.
///
/// # Errors
///
/// Infeasible instances, simulation failures, I/O failures.
pub fn run_simulate(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let requests = args.opt_or("requests", 10_000usize)?;
    let rate = args.opt_or("rate", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;
    let algo = algorithm_arg(args, seed)?;
    let alloc = algo.allocate(&db, channels)?;
    let program = BroadcastProgram::new(&db, &alloc, bandwidth)?;
    let trace = TraceBuilder::new(&db)
        .requests(requests)
        .arrival_rate(rate)
        .seed(seed.wrapping_add(0x5eed))
        .build()?;
    let report = Simulation::new(&program, &trace).run()?;
    let analytical = dbcast_model::average_waiting_time(&db, &alloc, bandwidth)?.total();

    writeln!(out, "algorithm: {}", algo.name())?;
    writeln!(out, "requests completed: {}", report.completed())?;
    writeln!(out, "analytical W_b: {analytical:.4} s")?;
    writeln!(out, "empirical mean: {:.4} s", report.waiting().mean())?;
    writeln!(
        out,
        "empirical p50/p95/p99: {:.4} / {:.4} / {:.4} s",
        report.waiting().percentile(50.0).unwrap_or(0.0),
        report.waiting().percentile(95.0).unwrap_or(0.0),
        report.waiting().percentile(99.0).unwrap_or(0.0),
    )?;
    writeln!(
        out,
        "probe mean: {:.4} s, download mean: {:.4} s",
        report.probe().mean(),
        report.download().mean()
    )?;
    for (i, load) in report.channel_loads().iter().enumerate() {
        writeln!(
            out,
            "channel {i}: {} requests, mean wait {:.4} s",
            load.requests,
            load.mean_waiting()
        )?;
    }
    Ok(())
}
