//! CLI subcommand implementations.

mod allocate;
mod conformance_cmd;
mod evaluate;
mod fleet_cmd;
mod flight_cmd;
mod generate;
mod index_cmd;
mod paper;
mod serve_cmd;
mod simulate;
mod stats;
mod sweep;
mod top_cmd;
mod trace_cmd;

pub use allocate::run_allocate;
pub use conformance_cmd::run_conformance;
pub use evaluate::run_evaluate;
pub use fleet_cmd::run_fleet_cmd;
pub use flight_cmd::run_flight;
pub use generate::run_generate;
pub use index_cmd::run_index;
pub use paper::run_paper;
pub use serve_cmd::run_serve;
pub use simulate::run_simulate;
pub use stats::run_stats;
pub use sweep::run_sweep_cmd;
pub use top_cmd::run_top;
pub use trace_cmd::run_trace;

use std::fmt;

use dbcast_baselines::AlgoSpec;
use dbcast_model::{AllocError, Allocation, ChannelAllocator, Database, ModelError};
use dbcast_workload::WorkloadError;

use crate::args::ArgsError;

/// Unified CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing / lookup failure.
    Args(ArgsError),
    /// Workload generation or I/O failure.
    Workload(WorkloadError),
    /// Model-layer failure.
    Model(ModelError),
    /// Allocation algorithm failure.
    Alloc(AllocError),
    /// An unknown algorithm name on the command line.
    UnknownAlgorithm(String),
    /// An option value that parses but is out of its valid domain.
    InvalidOption(String),
    /// Simulation failure.
    Sim(dbcast_sim::SimError),
    /// Serving-runtime failure.
    Serve(dbcast_serve::ServeError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// The conformance harness found invariant violations.
    Conformance {
        /// Number of violations found.
        violations: usize,
        /// What was being checked (corpus replay or a fuzzing run).
        context: String,
    },
    /// A telemetry scrape (`dbcast top`, `flight check` of a URL) failed.
    Scrape(String),
    /// A network fleet run or fleet-report validation failed.
    Fleet(String),
    /// Watchdog rules fired during a `serve --watch` run.
    Watchdog {
        /// Number of rules that fired.
        firings: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Workload(e) => write!(f, "{e}"),
            CliError::Model(e) => write!(f, "{e}"),
            CliError::Alloc(e) => write!(f, "{e}"),
            CliError::UnknownAlgorithm(name) => {
                let names: Vec<&str> =
                    AlgoSpec::registry().iter().map(AlgoSpec::cli_name).collect();
                write!(
                    f,
                    "unknown algorithm {name:?}; expected one of: {}",
                    names.join(", ")
                )
            }
            CliError::InvalidOption(msg) => write!(f, "invalid option: {msg}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Conformance { violations, context } => write!(
                f,
                "conformance failed: {violations} violation(s) ({context}); \
                 see the report above for minimized reproducers"
            ),
            CliError::Scrape(msg) => write!(f, "telemetry scrape failed: {msg}"),
            CliError::Fleet(msg) => write!(f, "fleet: {msg}"),
            CliError::Watchdog { firings } => write!(
                f,
                "watchdog: {firings} rule(s) fired during the run; \
                 see the firing report above and the flight ring for context"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<WorkloadError> for CliError {
    fn from(e: WorkloadError) -> Self {
        CliError::Workload(e)
    }
}

impl From<ModelError> for CliError {
    fn from(e: ModelError) -> Self {
        CliError::Model(e)
    }
}

impl From<AllocError> for CliError {
    fn from(e: AllocError) -> Self {
        CliError::Alloc(e)
    }
}

impl From<dbcast_sim::SimError> for CliError {
    fn from(e: dbcast_sim::SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<dbcast_serve::ServeError> for CliError {
    fn from(e: dbcast_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// One `GET` over a fresh connection (the exposition server answers a
/// single request per connection), with client-side timeouts so a
/// wedged server cannot hang the command.
pub(crate) fn http_get(addr: &str, path: &str) -> Result<String, CliError> {
    use std::io::{Read as _, Write as _};
    let timeout = Some(std::time::Duration::from_secs(5));
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Scrape(format!("connect {addr}: {e}")))?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: dbcast\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| CliError::Scrape(format!("read {addr}{path}: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| CliError::Scrape(format!("malformed response from {addr}")))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(CliError::Scrape(format!("{addr}{path}: {status_line}")));
    }
    Ok(body.to_string())
}

/// Reads `input`: an `http://host:port/path` URL is fetched with
/// [`http_get`], anything else is read as a file.
pub(crate) fn read_input(input: &str) -> Result<String, CliError> {
    match input.strip_prefix("http://") {
        Some(rest) => {
            let (addr, path) = rest.split_at(rest.find('/').unwrap_or(rest.len()));
            http_get(addr, if path.is_empty() { "/" } else { path })
        }
        None => Ok(std::fs::read_to_string(input)?),
    }
}

/// The allocator named by `--algo NAME` (default `drp-cds`), looked up
/// in the registry and built with `seed`.
pub(crate) fn algorithm_arg(
    args: &crate::args::Args,
    seed: u64,
) -> Result<Box<dyn ChannelAllocator>, CliError> {
    let name = args.opt_or("algo", AlgoSpec::DrpCds.cli_name().to_string())?;
    let spec = AlgoSpec::from_cli_name(&name).ok_or(CliError::UnknownAlgorithm(name))?;
    Ok(spec.build(seed))
}

/// Loads a database from `--db <path>`, or generates one from
/// `--items/--theta/--phi/--seed` when no path is given.
pub(crate) fn load_or_generate(args: &crate::args::Args) -> Result<Database, CliError> {
    if let Some(path) = args.opt::<String>("db")? {
        Ok(dbcast_workload::load_database(path)?)
    } else {
        let items = args.opt_or("items", 120usize)?;
        let theta = args.opt_or("theta", 0.8f64)?;
        let phi = args.opt_or("phi", 2.0f64)?;
        let seed = args.opt_or("seed", 0u64)?;
        Ok(dbcast_workload::WorkloadBuilder::new(items)
            .skewness(theta)
            .sizes(dbcast_workload::SizeDistribution::Diversity { phi_max: phi })
            .seed(seed)
            .build()?)
    }
}

/// Renders an allocation summary (channels, F/Z aggregates, cost, W_b).
pub(crate) fn describe_allocation(
    db: &Database,
    alloc: &Allocation,
    bandwidth: f64,
) -> String {
    let mut out = String::new();
    for (i, stats) in alloc.all_channel_stats().iter().enumerate() {
        out.push_str(&format!(
            "channel {i}: {} items, F = {:.4}, Z = {:.2}, cost = {:.4}\n",
            stats.items,
            stats.frequency,
            stats.size,
            stats.cost()
        ));
    }
    out.push_str(&format!("total cost (Eq. 3): {:.4}\n", alloc.total_cost()));
    if let Ok(w) = dbcast_model::average_waiting_time(db, alloc, bandwidth) {
        out.push_str(&format!(
            "average waiting time W_b: {:.4} s (probe {:.4} + download {:.4})\n",
            w.total(),
            w.probe,
            w.download
        ));
    }
    out
}
