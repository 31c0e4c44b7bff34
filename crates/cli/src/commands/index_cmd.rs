//! `dbcast index` — (1, m) air indexing report for an allocated program.

use dbcast_index::{EnergyModel, IndexParams, IndexedProgram};
use dbcast_model::BroadcastProgram;

use crate::args::Args;
use crate::commands::{algorithm_arg, CliError};

/// Allocates a database, indexes the resulting program and reports
/// access/tuning/energy per index configuration.
///
/// Options: the common workload/channel flags plus `--index-size I`
/// (default 1.0), `--header H` (0.1), `--active-mw` (250), `--doze-mw`
/// (5) and `--m M` (default: per-channel optimum).
///
/// # Errors
///
/// Unknown algorithms, infeasible instances, I/O failures.
pub fn run_index(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 6usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let seed = args.opt_or("seed", 0u64)?;
    let index_size = args.opt_or("index-size", 1.0f64)?;
    let header = args.opt_or("header", 0.1f64)?;
    let active_mw = args.opt_or("active-mw", 250.0f64)?;
    let doze_mw = args.opt_or("doze-mw", 5.0f64)?;
    if !(active_mw.is_finite()
        && doze_mw.is_finite()
        && doze_mw >= 0.0
        && active_mw >= doze_mw)
    {
        return Err(CliError::InvalidOption(format!(
            "radio powers active={active_mw} doze={doze_mw} (need active >= doze >= 0)"
        )));
    }
    let radio = EnergyModel::new(active_mw, doze_mw);
    let algo = algorithm_arg(args, seed)?;
    let alloc = algo.allocate(&db, channels)?;
    let program = BroadcastProgram::new(&db, &alloc, bandwidth)?;

    let params = IndexParams { index_size, header_size: header };
    let indexed = match args.opt::<usize>("m")? {
        Some(m) => IndexedProgram::new(&program, &vec![m; channels], params)?,
        None => IndexedProgram::with_optimal_segments(&program, params)?,
    };
    let metrics = indexed.expected_metrics(&db)?;

    writeln!(out, "algorithm: {}", algo.name())?;
    writeln!(
        out,
        "segments m: {:?}",
        indexed.channels().iter().flatten().map(|c| c.segments()).collect::<Vec<_>>()
    )?;
    writeln!(out, "expected access time:   {:.4} s", metrics.access)?;
    writeln!(out, "expected tuning time:   {:.4} s", metrics.tuning)?;
    writeln!(
        out,
        "unindexed access time:  {:.4} s (latency overhead {:.1}%)",
        metrics.unindexed_access,
        100.0 * metrics.access_overhead()
    )?;
    writeln!(
        out,
        "energy per request:     {:.2} mJ indexed vs {:.2} mJ unindexed ({:.1}x battery)",
        metrics.energy(&radio),
        metrics.energy_unindexed(&radio),
        metrics.energy_unindexed(&radio) / metrics.energy(&radio)
    )?;
    Ok(())
}
