//! `dbcast fleet` — run a simulated client fleet against a broadcast
//! stream and report measured access / tuning times. The report is the
//! `fleet-run` document (`--out`, `--json`); `dbcast flight check`
//! validates a saved one.

use dbcast_alloc::DrpCds;
use dbcast_model::{BroadcastProgram, ChannelAllocator, Database};
use dbcast_net::{
    run_fleet_inline_with, run_fleet_with, CacheKind, EgressConfig, FleetConfig,
    FleetReport, IndexParams, NetConfig, ScriptedSource, SourceGeneration, UplinkConfig,
    WorkloadPattern,
};
use dbcast_obs::doc;

use crate::args::Args;
use crate::commands::CliError;

/// Runs `dbcast fleet`: a fleet of `--clients` concurrent clients
/// against a live server (`--connect ADDR`, e.g. one started by `dbcast
/// serve --listen-bcast`) or against an in-process loopback stream
/// built from `--items/--theta/--phi/--seed/--channels/--bandwidth`
/// (optionally hot-swapping to `--swap-channels` at window `--swap-at`,
/// and carrying (1,m) index frames with `--fleet-index SIZE`).
/// With `--uplink ADDR` every client also pushes telemetry digests —
/// live generation acks and per-generation measurement slices — to a
/// `dbcast serve --listen-uplink` aggregator; `--straggle-ms MS` paces
/// client 0's acks to drill the straggler detection.
///
/// # Errors
///
/// An action (`fleet` takes none; `dbcast flight check` validates a
/// saved report), bad option domains, I/O failures, fleet runtime
/// failures.
pub fn run_fleet_cmd(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    if let Some(action) = args.action() {
        return Err(CliError::InvalidOption(format!(
            "fleet action {action:?}; fleet takes none (validate a saved report with \
             `dbcast flight check`)"
        )));
    }
    run_run(args, out)
}

fn parse_config(args: &Args) -> Result<FleetConfig, CliError> {
    let cache = match args.opt_or("cache", "none".to_string())?.as_str() {
        "none" => CacheKind::None,
        "lru" => CacheKind::Lru,
        "pix" => CacheKind::Pix,
        other => {
            return Err(CliError::InvalidOption(format!(
                "--cache {other:?}; expected none, lru or pix"
            )))
        }
    };
    let pattern = match args.opt_or("pattern", "single".to_string())?.as_str() {
        "single" => WorkloadPattern::Single,
        "frequent" => WorkloadPattern::Frequent,
        other => {
            return Err(CliError::InvalidOption(format!(
                "--pattern {other:?}; expected single or frequent"
            )))
        }
    };
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        clients: args.opt_or("clients", defaults.clients)?,
        seed: args.opt_or("seed", defaults.seed)?,
        requests: args.opt_or("requests", defaults.requests)?,
        rate: args.opt_or("rate", defaults.rate)?,
        cache,
        cache_budget: args.opt_or("cache-budget", defaults.cache_budget)?,
        pattern,
        patterns: args.opt_or("patterns", defaults.patterns)?,
        max_size: args.opt_or("max-size", defaults.max_size)?,
    };
    if config.clients == 0 {
        return Err(CliError::InvalidOption("--clients must be positive".into()));
    }
    if !(config.rate.is_finite() && config.rate > 0.0) {
        return Err(CliError::InvalidOption(format!(
            "--rate {} must be positive",
            config.rate
        )));
    }
    Ok(config)
}

/// Parses the shared `--fleet-index SIZE` / `--index-header SIZE`
/// pair into the optional (1,m) air-index parameters.
pub(crate) fn parse_index_params(
    args: &Args,
    size_key: &'static str,
    header_key: &'static str,
) -> Result<Option<IndexParams>, CliError> {
    match args.opt::<f64>(size_key)? {
        None => Ok(None),
        Some(index_size) => {
            if !(index_size.is_finite() && index_size > 0.0) {
                return Err(CliError::InvalidOption(format!(
                    "--{size_key} {index_size} must be positive"
                )));
            }
            let header_size = args.opt_or(header_key, 0.05f64)?;
            if !(header_size.is_finite() && header_size > 0.0) {
                return Err(CliError::InvalidOption(format!(
                    "--{header_key} {header_size} must be positive"
                )));
            }
            Ok(Some(IndexParams { index_size, header_size }))
        }
    }
}

/// Parses the optional `--uplink ADDR` / `--straggle-ms MS` pair.
fn parse_uplink(args: &Args) -> Result<Option<UplinkConfig>, CliError> {
    let straggle_ms = args.opt_or("straggle-ms", 0u64)?;
    match args.opt::<String>("uplink")? {
        Some(addr) => Ok(Some(UplinkConfig { addr, straggle_ms })),
        None if straggle_ms > 0 => Err(CliError::InvalidOption(
            "--straggle-ms without --uplink has nothing to pace".into(),
        )),
        None => Ok(None),
    }
}

fn run_run(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let config = parse_config(args)?;
    let uplink = parse_uplink(args)?;
    let (report, egress_note) = match args.opt::<String>("connect")? {
        Some(addr) => {
            let report = run_fleet_with(addr.as_str(), &config, uplink.as_ref())
                .map_err(CliError::Fleet)?;
            (report, None)
        }
        None => {
            let (report, egress) = run_inline(args, &config, uplink.as_ref())?;
            (report, Some(egress))
        }
    };

    if let Some(path) = args.opt::<String>("out")? {
        std::fs::write(&path, doc::render(&report))?;
        writeln!(out, "fleet report written to {path}")?;
    }
    if args.switch("json") {
        write!(out, "{}", doc::render(&report))?;
        return Ok(());
    }

    if let Some(e) = egress_note {
        writeln!(
            out,
            "egress: {} frame(s) over {} window(s), {} generation(s), \
             {} truncated at swaps",
            e.frames, e.windows, e.generations, e.truncated
        )?;
    }
    let t = &report.totals;
    writeln!(
        out,
        "fleet: {} client(s), {} request(s) ({} completed), indexed: {}",
        report.clients.len(),
        t.requests,
        t.completed,
        report.indexed
    )?;
    writeln!(
        out,
        "totals: {} cache hit(s), {} conflict(s), {} retune(s), {} torn, \
         {} decode error(s), dropped frames: {}",
        t.cache_hits,
        t.conflicts,
        t.retunes,
        t.torn_frames,
        t.decode_errors,
        t.dropped_frames.map(|d| d.to_string()).unwrap_or_else(|| "n/a".into())
    )?;
    for client in &report.clients {
        writeln!(
            out,
            "client {}: access mean {:.4} p95 {:.4}, tuning mean {:.4} p95 {:.4}",
            client.id,
            client.access.mean,
            client.access.p95,
            client.tuning.mean,
            client.tuning.p95
        )?;
        for g in &client.generations {
            writeln!(
                out,
                "  generation {}: {} clean request(s), measured {:.4} s \
                 vs Eq.2 {:.4} s, tuning {:.4} s",
                g.generation, g.requests, g.mean_access, g.predicted_access, g.mean_tuning
            )?;
        }
    }
    Ok(())
}

/// Runs an in-process loopback stream: server, egress and the client
/// fleet all inside this command.
fn run_inline(
    args: &Args,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<(FleetReport, dbcast_net::EgressReport), CliError> {
    let db = crate::commands::load_or_generate(args)?;
    let channels = args.opt_or("channels", 3usize)?;
    let bandwidth = args.opt_or("bandwidth", 10.0f64)?;
    let swap_at = args.opt::<u64>("swap-at")?;
    let swap_channels = args.opt_or("swap-channels", channels + 1)?;

    let mut stages = vec![(0u64, stage(&db, channels, bandwidth, 0)?)];
    if let Some(window) = swap_at {
        if window == 0 {
            return Err(CliError::InvalidOption(
                "--swap-at 0; the swap must come after the first window".into(),
            ));
        }
        stages.push((window, stage(&db, swap_channels, bandwidth, 1)?));
    }
    let index = parse_index_params(args, "fleet-index", "index-header")?;
    let max_windows = match args.opt::<u64>("windows")? {
        Some(w) => w,
        None => default_windows(&stages, config, swap_at.unwrap_or(0)),
    };
    let egress = EgressConfig { index, max_windows: Some(max_windows), pace: None };
    let source = ScriptedSource::new(stages);
    run_fleet_inline_with(&source, &egress, NetConfig::default(), config, uplink)
        .map_err(CliError::Fleet)
}

fn stage(
    db: &Database,
    channels: usize,
    bandwidth: f64,
    generation: u64,
) -> Result<SourceGeneration, CliError> {
    let alloc = DrpCds::new().allocate(db, channels)?;
    let program = BroadcastProgram::new(db, &alloc, bandwidth)?;
    Ok(SourceGeneration {
        generation,
        program,
        frequencies: db.iter().map(|d| d.frequency()).collect(),
    })
}

/// Enough windows that every arrival plus a few slow cycles fits: the
/// same budget rule the end-to-end transport test uses.
fn default_windows(
    stages: &[(u64, SourceGeneration)],
    config: &FleetConfig,
    swap_at: u64,
) -> u64 {
    let mut min_window = f64::INFINITY;
    let mut max_cycle = 0.0f64;
    for (_, s) in stages {
        let bandwidth = s.program.bandwidth();
        for schedule in s.program.channels() {
            if schedule.is_empty() {
                continue;
            }
            let cycle = schedule.cycle_size() / bandwidth;
            min_window = min_window.min(cycle);
            max_cycle = max_cycle.max(cycle);
        }
    }
    if !min_window.is_finite() || min_window <= 0.0 {
        return swap_at + 8;
    }
    let arrival_span = config.requests as f64 / config.rate;
    let horizon_needed = arrival_span * 1.6 + 4.0 * max_cycle;
    swap_at + (horizon_needed / min_window).ceil() as u64 + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use crate::commands::run_flight;

    fn parse(raw: &[&str]) -> Args {
        Args::parse(raw.iter().map(|s| s.to_string())).expect("args parse")
    }

    /// `dbcast flight check --input path`.
    fn flight_check(path: &str) -> Result<String, CliError> {
        let mut out = Vec::new();
        run_flight(&parse(&["flight", "check", "--input", path]), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn inline_fleet_report_passes_flight_check() {
        let dir =
            std::env::temp_dir().join(format!("dbcast-fleet-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        let path_str = path.to_str().expect("utf8 path").to_string();
        let run =
            "fleet --clients 2 --requests 24 --rate 2.0 --items 12 --channels 2 --seed 5";
        let mut args: Vec<&str> = run.split(' ').collect();
        args.extend(["--out", &path_str]);
        run_fleet_cmd(&parse(&args), &mut Vec::new()).expect("fleet runs");
        let text = flight_check(&path_str).expect("report validates");
        assert!(text.contains("valid fleet-run document"), "{text}");
        assert!(text.contains("2 client(s), 48 request(s)"), "{text}");
        // The document's check is `FleetReport::validate`.
        let torn = std::fs::read_to_string(&path).expect("report").replacen(
            "\"torn_frames\": 0",
            "\"torn_frames\": 1",
            1,
        );
        std::fs::write(&path, torn).expect("write");
        let err = flight_check(&path_str).expect_err("a torn frame fails the check");
        assert!(err.to_string().contains("client 0 saw 1 torn frames"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_check_rejects_a_garbage_fleet_report() {
        let dir =
            std::env::temp_dir().join(format!("dbcast-fleet-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bad.json");
        for bad in [
            "{\"schema\": 999}",
            "{\"schema\": 1, \"kind\": \"fleet-run\", \"body\": {\"schema\": 1}}",
        ] {
            std::fs::write(&path, bad).expect("write");
            let err = flight_check(path.to_str().expect("utf8")).expect_err("must reject");
            assert!(matches!(err, CliError::InvalidOption(_)), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_action_is_an_error() {
        let args = parse(&["fleet", "bogus"]);
        let mut out = Vec::new();
        assert!(run_fleet_cmd(&args, &mut out).is_err());
    }
}
