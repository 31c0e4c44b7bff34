//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload builds its inputs from `--seed`, repeats its timed unit
//! for `--seconds`, checks the outputs of every repetition and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the same measurement,
//! replays the inputs through each layer's public functions, writes the
//! recorded spans under `benchmark/out/` and reports the per-layer
//! metrics plus its own end-to-end numbers (`traced.*`), so tracing
//! overhead shows against an untraced run. See `benchmark/README.md`.

mod fleet;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

#[global_allocator]
static ALLOC: dbcast_perf::CountingAllocator = dbcast_perf::CountingAllocator;

/// Every end-to-end metric, reported by every workload: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("serve_rps", "req/s"),
    ("access_mean_s", "virtual_s"),
    ("generations", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric: `(name, unit)`. A workload whose path does not
/// reach a layer reports that layer's metrics as 0. The traced run also
/// reports every end-to-end metric as `traced.<name>`.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.response_time_ns", "ns"),
    ("model.response_time_allocs", "allocs/req"),
    ("serve.estimator_observe_ns", "ns"),
    ("serve.estimator_tick_ns", "ns"),
    ("serve.drift_check_ns", "ns"),
    ("audit.observe_ns", "ns"),
    ("serve.run_allocs_per_request", "allocs/req"),
    ("serve.run_unattributed_ns", "ns"),
    ("alloc.drp_ms", "ms"),
    ("alloc.cds_ms", "ms"),
    ("alloc.cds_moves", "count"),
    ("alloc.recompute_alloc_mb", "MiB"),
    ("model.program_build_ms", "ms"),
    ("serve.repair_ms_p50", "ms"),
    ("serve.repair_unattributed_ms", "ms"),
    ("serve.useful_swap_ratio", "ratio"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.wire_bytes_per_frame", "bytes"),
    ("net.client_allocs_per_frame", "allocs/frame"),
    ("net.egress_ms", "ms"),
    ("net.egress_frames", "count"),
    ("net.client_record_ms", "ms"),
    ("net.client_measure_ns", "ns"),
    ("net.tuning_mean_s", "virtual_s"),
    ("net.delivered_fps", "frames/s"),
];

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted over all repetitions.
    pub attempted: u64,
    /// Failed requests, frames and output checks over all repetitions.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values by name; empty unless tracing.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    /// Counts one output check: a failed check is one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// The process high-water resident set in MiB (Linux `VmHWM`).
///
/// Workloads read it after their first repetition: later repetitions
/// only add allocator fragmentation across threads, which varies from
/// run to run.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "serve_steady" => serve::steady(args.seed, args.seconds, &mut tracer)?,
        "serve_drift" => serve::drift(args.seed, args.seconds, &mut tracer)?,
        "fleet_wire" => fleet::fleet_wire(args.seed, args.seconds, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };

    let value_of = |list: &[(&'static str, f64)], name: &str| {
        list.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };
    let end_to_end = |name: &str| {
        value_of(&report.end_to_end, name)
            .ok_or_else(|| format!("workload did not measure {name}"))
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let path = tracer.write(&args.workload, args.seed)?;
        eprintln!("spans written to {}", path.display());
        tracer.print_self_times();
        for &(name, unit) in PER_LAYER {
            let value = value_of(&report.layers, name).unwrap_or(0.0);
            metrics.push((name.to_string(), value, unit));
        }
        for &(name, unit) in END_TO_END {
            metrics.push((format!("traced.{name}"), end_to_end(name)?, unit));
        }
    } else {
        for &(name, unit) in END_TO_END {
            metrics.push((name.to_string(), end_to_end(name)?, unit));
        }
    }
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        eprintln!("{name:>32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this binary
    /// reports, with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        ))
        .expect("BENCHMARK.json sits beside the benchmark directory");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section exists");
            let len = json[start..].find(']').expect("section ends");
            json[start..start + len].to_string()
        };
        let named =
            |table: &[(&str, &'static str)], prefix: &str| -> Vec<(String, &'static str)> {
                table.iter().map(|&(n, u)| (format!("{prefix}{n}"), u)).collect()
            };
        let mut per_layer = named(PER_LAYER, "");
        per_layer.extend(named(END_TO_END, "traced."));
        for (key, table) in
            [("end_to_end", named(END_TO_END, "")), ("per_layer", per_layer)]
        {
            let declared = section(key);
            assert_eq!(declared.matches("\"name\"").count(), table.len(), "{key} size");
            for (name, unit) in &table {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    declared.contains(&entry),
                    "{key} does not declare {name} [{unit}]"
                );
            }
        }
    }
}
