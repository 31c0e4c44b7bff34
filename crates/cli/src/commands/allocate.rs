//! `dbcast allocate` — run one algorithm and print the program.

use crate::args::Args;
use crate::commands::{algorithm_arg, describe_allocation, CliError};

/// Allocates a database onto `--channels K` with `--algo NAME`
/// (default `drp-cds`) and prints per-channel groups plus the summary.
///
/// With `--json`, emits the raw allocation as JSON instead.
///
/// # Errors
///
/// Unknown algorithms, infeasible instances, I/O failures.
pub fn run_allocate(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;
    let algo = algorithm_arg(args, seed)?;
    let alloc = algo.allocate(&db, channels)?;

    if args.switch("json") {
        serde_json::to_writer_pretty(&mut *out, &alloc)
            .map_err(|e| CliError::Io(std::io::Error::other(e)))?;
        writeln!(out)?;
        return Ok(());
    }

    writeln!(out, "algorithm: {}", algo.name())?;
    for (i, group) in alloc.groups().iter().enumerate() {
        let ids: Vec<String> = group.iter().map(|id| id.to_string()).collect();
        writeln!(out, "channel {i}: [{}]", ids.join(", "))?;
    }
    write!(out, "{}", describe_allocation(&db, &alloc, bandwidth))?;
    Ok(())
}
