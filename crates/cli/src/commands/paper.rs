//! `dbcast paper` — regenerate the paper's tables and figures.

use std::path::Path;

use dbcast_bench::{ExperimentConfig, Report};

use crate::args::Args;
use crate::commands::CliError;

/// Runs the reports named by the positionals (`all` for every one,
/// `pinned` for the ones CI pins) in order, writing them under
/// `./results/` and printing each one's Markdown. `--quick` runs 3
/// seeds instead of 20 (instead of 10 for `indexing` and `ablations`).
///
/// # Errors
///
/// No names, an unknown name, or a filesystem error while writing.
pub fn run_paper(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut reports = Vec::new();
    for name in args.positionals() {
        match name.as_str() {
            "all" => reports.extend(Report::ALL),
            "pinned" => reports.extend(Report::ALL.into_iter().filter(|r| r.pinned())),
            other => reports.push(Report::from_name(other).ok_or_else(|| unknown(other))?),
        }
    }
    if reports.is_empty() {
        return Err(unknown(""));
    }
    let config = if args.switch("quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    for (i, report) in reports.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, reports.len(), report.name());
        write!(out, "{}", report.run(&config, Path::new("results"))?)?;
    }
    Ok(())
}

fn unknown(name: &str) -> CliError {
    let names: Vec<&str> = Report::ALL.iter().map(|r| r.name()).collect();
    CliError::InvalidOption(format!(
        "report {name:?}; expected all, pinned or one of: {}",
        names.join(", ")
    ))
}
