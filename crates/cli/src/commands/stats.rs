//! `dbcast stats` — run one allocation with telemetry enabled and
//! print the collected metrics snapshot as a `metrics` document.

use crate::args::Args;
use crate::commands::{algorithm_arg, CliError};

/// Allocates a workload with `--algo NAME` (default `drp-cds`) under
/// full telemetry and prints the registry snapshot (counters, gauges,
/// span-timer histograms) to stdout as a `metrics` document.
///
/// With `--simulate`, additionally runs the trace simulator so the
/// `sim.engine.*` request counter, mean gauges and run span populate
/// too.
///
/// # Errors
///
/// Unknown algorithms, infeasible instances, I/O failures.
pub fn run_stats(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;

    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();

    let algo = algorithm_arg(args, seed)?;
    let alloc = algo.allocate(&db, channels)?;
    dbcast_obs::obs_log!(
        dbcast_obs::log::Level::Info,
        "{}: {} items on {} channels, cost {:.4}",
        algo.name(),
        db.len(),
        channels,
        alloc.total_cost()
    );

    if args.switch("simulate") {
        let requests = args.opt_or("requests", 10_000usize)?;
        let rate = args.opt_or("rate", 10.0f64)?;
        let program = dbcast_model::BroadcastProgram::new(&db, &alloc, bandwidth)?;
        let trace = dbcast_workload::TraceBuilder::new(&db)
            .requests(requests)
            .arrival_rate(rate)
            .seed(seed.wrapping_add(1))
            .build()?;
        let report = dbcast_sim::Simulation::new(&program, &trace).run()?;
        dbcast_obs::obs_log!(
            dbcast_obs::log::Level::Info,
            "simulated {} requests",
            report.completed()
        );
    }

    write!(out, "{}", dbcast_obs::doc::render(&dbcast_obs::registry().snapshot()))?;
    Ok(())
}
