//! The schema-versioned `BENCH_*.json` report: what a benchmark run
//! measured, serializable for committing as `BENCH_baseline.json` and
//! for diffing by [`crate::compare()`].

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema this build writes. Comparing
/// reports across schema versions is refused by the gate.
pub const SCHEMA_VERSION: u32 = 1;

/// Measurements of one benchmark over all recorded iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark name (stable key for baseline diffs).
    pub name: String,
    /// Recorded iterations (after warmup discard).
    pub iterations: usize,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median wall time, nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile wall time, nanoseconds.
    pub p95_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: f64,
    /// Heap allocations per iteration (0 when unavailable).
    pub allocs: u64,
    /// Heap bytes allocated per iteration (0 when unavailable).
    pub alloc_bytes: u64,
    /// Whether every recorded iteration performed exactly `allocs`
    /// allocations — when true in both reports, the gate compares the
    /// counts exactly instead of by tolerance.
    pub alloc_stable: bool,
    /// Whether the counting allocator was installed; false means the
    /// `allocs`/`alloc_bytes` fields carry no information.
    pub allocs_available: bool,
    /// Deepest span nesting observed during the benchmark (0 when the
    /// build has no `obs` feature or profiling was off).
    pub peak_span_depth: usize,
}

/// A full benchmark run: suite results plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// `git rev-parse --short HEAD` at run time, or `"unknown"`.
    pub git_sha: String,
    /// Whether telemetry (`obs` feature) was compiled in — wall times
    /// and allocation counts are only comparable between runs with the
    /// same setting.
    pub obs_enabled: bool,
    /// Warmup iterations discarded per benchmark.
    pub warmup: usize,
    /// Per-benchmark measurements, in suite order.
    pub benchmarks: Vec<BenchRecord>,
}

impl BenchReport {
    /// Looks up a benchmark by name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchRecord> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// The conventional file name for this report: `BENCH_<sha>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.git_sha)
    }

    /// Serializes as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error describing the parse failure.
    pub fn from_json(s: &str) -> io::Result<Self> {
        serde_json::from_str(s).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad BENCH json: {e}"))
        })
    }

    /// Loads a report from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and parse failures.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Writes the report to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// The current commit's short hash via `git rev-parse`, if available.
pub fn git_short_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!sha.is_empty()).then_some(sha)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(name: &str, median_ns: f64, allocs: u64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            iterations: 5,
            mean_ns: median_ns,
            median_ns,
            p95_ns: median_ns * 1.1,
            min_ns: median_ns * 0.9,
            max_ns: median_ns * 1.2,
            allocs,
            alloc_bytes: allocs * 64,
            alloc_stable: true,
            allocs_available: true,
            peak_span_depth: 2,
        }
    }

    #[test]
    fn json_round_trip() {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "abc1234".into(),
            obs_enabled: true,
            warmup: 2,
            benchmarks: vec![sample_record("drp", 1e6, 120)],
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.benchmark("drp").unwrap().allocs, 120);
        assert_eq!(parsed.file_name(), "BENCH_abc1234.json");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(BenchReport::from_json("{not json").is_err());
    }

    #[test]
    fn write_and_load() {
        let dir = std::env::temp_dir().join("dbcast_perf_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_test.json");
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "test".into(),
            obs_enabled: false,
            warmup: 1,
            benchmarks: vec![],
        };
        report.write(&path).unwrap();
        assert_eq!(BenchReport::load(&path).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
