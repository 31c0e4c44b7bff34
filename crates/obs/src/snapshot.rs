//! Point-in-time snapshots of the registry: the `metrics` document.
//!
//! A [`Snapshot`] is the body of the `metrics` [`Document`]: it is what
//! `--metrics-out` writes, what `dbcast stats` prints and what every
//! postmortem dump carries, all rendered by [`crate::doc::render`].
//! Each section lists `[name, value]` pairs in strictly ascending name
//! order, as the registry enumerates them:
//!
//! ```json
//! { "schema": 4, "kind": "metrics", "body": {
//!   "counters": [ ["<name>", <u64>], ... ],
//!   "gauges": [ ["<name>", <f64>], ... ],
//!   "histograms": [ ["<name>", {
//!       "count": <u64>, "sum": <u64>, "mean": <f64>,
//!       "min": <u64>, "max": <u64>,
//!       "p50": <u64>, "p90": <u64>, "p95": <u64>, "p99": <u64>,
//!       "buckets": [ [<inclusive upper bound>, <count>], ... ]
//!   } ], ... ]
//! } }
//! ```

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::doc::Document;
use crate::metrics::HistogramSnapshot;

/// Plain-data copy of the registry at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// The first name in `section` that does not sort strictly after its
/// predecessor (a duplicate or an out-of-order entry).
fn misordered<T>(section: &[(String, T)]) -> Option<&str> {
    section.windows(2).find(|w| w[0].0 >= w[1].0).map(|w| w[1].0.as_str())
}

impl Document for Snapshot {
    const KIND: &'static str = "metrics";
    const SCHEMA: u32 = 4;

    /// Names strictly ascend within each section; per histogram, bucket
    /// bounds strictly ascend, the buckets hold no more than `count`,
    /// and a non-empty histogram has `min ≤ p50 ≤ p90 ≤ p95 ≤ p99 ≤ max`.
    fn check(&self) -> Result<(), String> {
        for (section, name) in [
            ("counters", misordered(&self.counters)),
            ("gauges", misordered(&self.gauges)),
            ("histograms", misordered(&self.histograms)),
        ] {
            if let Some(name) = name {
                return Err(format!("{section}: {name:?} is out of order or repeated"));
            }
        }
        for (name, h) in &self.histograms {
            if h.buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!("histogram {name:?}: bucket bounds do not ascend"));
            }
            let total = h.buckets.iter().try_fold(0u64, |sum, &(_, c)| sum.checked_add(c));
            if total.is_none_or(|total| total > h.count) {
                return Err(format!("histogram {name:?}: buckets hold more than count"));
            }
            let order = [h.min, h.p50, h.p90, h.p95, h.p99, h.max];
            if h.count > 0 && order.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!(
                    "histogram {name:?}: min ≤ p50 ≤ p90 ≤ p95 ≤ p99 ≤ max fails: {order:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Writes `text` to `path`, creating parent directories.
pub(crate) fn write_file(path: &Path, text: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

/// Snapshots the global registry and writes it to `path` as a `metrics`
/// document, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_global(path: &Path) -> io::Result<()> {
    write_file(path, &crate::doc::render(&crate::registry().snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{decode, render, DocError};

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a.b.c".into(), 3), ("a.b.d".into(), 0)],
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
        assert_eq!(s.histogram("h").unwrap().count, 2);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn round_trips_through_the_envelope() {
        for s in
            [sample(), Snapshot { counters: vec![], gauges: vec![], histograms: vec![] }]
        {
            let text = render(&s);
            assert!(text.contains("\"kind\": \"metrics\""), "{text}");
            assert_eq!(decode::<Snapshot>(&text), Ok(s));
        }
    }

    type Tamper = (&'static str, fn(&mut Snapshot));

    #[test]
    fn check_rejects_each_broken_invariant() {
        let broken: [Tamper; 7] = [
            ("counters", |s| s.counters.swap(0, 1)),
            ("counters", |s| s.counters[1].0 = "a.b.c".into()),
            ("gauges", |s| s.gauges.push(("f".into(), 0.0))),
            ("histograms", |s| {
                let h = s.histograms[0].clone();
                s.histograms.push(h);
            }),
            ("bucket bounds", |s| s.histograms[0].1.buckets.reverse()),
            ("more than count", |s| s.histograms[0].1.count = 1),
            ("p50", |s| s.histograms[0].1.p50 = 1),
        ];
        for (needle, tamper) in broken {
            let mut s = sample();
            tamper(&mut s);
            let err = decode::<Snapshot>(&render(&s)).expect_err(needle);
            assert!(
                matches!(&err, DocError::Check { kind: "metrics", reason } if reason.contains(needle)),
                "{needle}: {err}"
            );
        }
    }

    #[test]
    fn write_creates_parents() {
        let dir = std::env::temp_dir().join("dbcast_obs_snapshot_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("metrics.json");
        write_global(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        decode::<Snapshot>(&body).expect("the written snapshot decodes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
