//! `dbcast sweep` — run one of the paper's parameter sweeps from the
//! command line.

use dbcast_baselines::AlgoSpec;
use dbcast_bench::{run_sweep, ExperimentConfig, ReportTable, SweepAxis};

use crate::args::Args;
use crate::commands::CliError;

/// Runs a waiting-time sweep along `--axis k|n|phi|theta` (default `k`)
/// and prints the Markdown table. `--quick` averages 3 seeds instead of
/// 20; `--items N` / `--channels K` / `--seeds S` override the fixed
/// parameters of the sweep.
///
/// # Errors
///
/// Argument errors; the sweep itself cannot fail on the paper's
/// parameter space.
pub fn run_sweep_cmd(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let axis_name: String = args.opt_or("axis", "k".to_string())?;
    let axis = match axis_name.as_str() {
        "k" | "K" => SweepAxis::paper_channels(),
        "n" | "N" => SweepAxis::paper_items(),
        "phi" | "Phi" => SweepAxis::paper_diversity(),
        "theta" => SweepAxis::paper_skewness(),
        other => {
            return Err(CliError::InvalidOption(format!(
                "axis {other:?} (expected k, n, phi or theta)"
            )))
        }
    };
    let mut config = if args.switch("quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    config.items = args.opt_or("items", config.items)?;
    config.channels = args.opt_or("channels", config.channels)?;
    if let Some(seeds) = args.opt::<u64>("seeds")? {
        config.seeds = (0..seeds.max(1)).collect();
    }
    let result = run_sweep(&config, &axis, &AlgoSpec::paper_lineup());
    let table = ReportTable::from_sweep(
        &format!("Sweep over {}: average waiting time W_b (s)", axis.label()),
        &result,
    );
    write!(out, "{}", dbcast_bench::render_markdown(&table))?;
    Ok(())
}
