//! `dbcast evaluate` — compare every algorithm on one workload.

use dbcast_baselines::AlgoSpec;

use crate::args::Args;
use crate::commands::CliError;

/// Runs every registered algorithm on one database and prints a
/// comparison table of costs and waiting times.
///
/// # Errors
///
/// Infeasible instances (K > N for some algorithms), I/O failures.
pub fn run_evaluate(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;

    writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>12}",
        "algorithm", "cost", "W_b (s)", "time (ms)"
    )?;
    for spec in AlgoSpec::registry() {
        let algo = spec.build(seed);
        let start = std::time::Instant::now();
        let alloc = algo.allocate(&db, channels)?;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let w = dbcast_model::average_waiting_time(&db, &alloc, bandwidth)?;
        writeln!(
            out,
            "{:<10} {:>12.4} {:>14.4} {:>12.3}",
            algo.name(),
            alloc.total_cost(),
            w.total(),
            elapsed
        )?;
    }
    Ok(())
}
