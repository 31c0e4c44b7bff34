//! Point-in-time snapshots of the registry, exportable as JSON.
//!
//! The writer is hand-written and outside the `doc` envelope: this is
//! the `--metrics-out` file format, and postmortems embed it verbatim.
//! Schema, version 3
//! (v2 changed the histogram `p50`/`p90`/`p95`/`p99` fields from
//! bucket upper bounds — pessimistic by up to 2× — to bucket
//! midpoints; see `Histogram::percentile_bounds`. v3 dropped the
//! `traces` array: optimizer progress lives in each optimizer's
//! returned outcome, so a snapshot's size no longer grows with the
//! number of optimizer runs):
//!
//! ```json
//! {
//!   "version": 3,
//!   "counters": { "<name>": <u64>, ... },
//!   "gauges": { "<name>": <f64>, ... },
//!   "histograms": {
//!     "<name>": {
//!       "count": <u64>, "sum": <u64>, "mean": <f64>,
//!       "min": <u64>, "max": <u64>,
//!       "p50": <u64>, "p90": <u64>, "p95": <u64>, "p99": <u64>,
//!       "buckets": [ { "le": <u64>, "count": <u64> }, ... ]
//!     }, ...
//!   }
//! }
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::metrics::HistogramSnapshot;

/// Plain-data copy of the registry at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 3,\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_string(name));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json_string(name), json_f64(*v));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"mean\": {}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json_string(name),
                h.count,
                h.sum,
                json_f64(h.mean),
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p95,
                h.p99,
            );
            for (j, &(le, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le\": {le}, \"count\": {count}}}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() { "}\n}\n" } else { "\n  }\n}\n" });
        out
    }

    /// Writes the JSON snapshot to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Renders `v` as a JSON number in Rust's shortest round-tripping
/// form (`1.0`, `2.5e-7`); non-finite values become `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` as a JSON string literal (shared with the span-tree
/// trace writer).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Convenience: snapshot the global registry and write it to `path`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_global(path: &Path) -> io::Result<()> {
    crate::registry().snapshot().write_json(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a.b.c".into(), 3)],
            gauges: vec![("g".into(), 1.5)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 6,
                    mean: 3.0,
                    min: 2,
                    max: 4,
                    p50: 3,
                    p90: 4,
                    p95: 4,
                    p99: 4,
                    buckets: vec![(3, 1), (7, 1)],
                },
            )],
        }
    }

    #[test]
    fn lookup_helpers() {
        let s = sample();
        assert_eq!(s.counter("a.b.c"), Some(3));
        assert_eq!(s.gauge("g"), Some(1.5));
        assert_eq!(s.histogram("h").unwrap().count, 2);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample().to_json();
        for needle in [
            "\"version\": 3",
            "\"a.b.c\": 3",
            "\"g\": 1.5",
            "\"count\": 2",
            "\"buckets\": [{\"le\": 3, \"count\": 1}, {\"le\": 7, \"count\": 1}]",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn empty_snapshot_is_valid_shape() {
        let s = Snapshot { counters: vec![], gauges: vec![], histograms: vec![] };
        let j = s.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"histograms\": {}"));
        assert!(!j.contains("traces"));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn write_creates_parents() {
        let dir = std::env::temp_dir().join("dbcast_obs_snapshot_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("metrics.json");
        sample().write_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"version\": 3"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
