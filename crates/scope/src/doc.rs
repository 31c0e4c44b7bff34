//! The `/series` document: every scalar series' raw window and derived
//! rates plus windowed histogram quantiles, rendered and decoded
//! through the `dbcast_obs::doc` envelope (kind `series`, schema 1).
//!
//! ```text
//! { "tick": T, "wall_ms": W,
//!   "series": [ { "name", "kind": "counter"|"gauge",
//!                 "raw":  [{ "tick", "wall_ms", "value" }, …],
//!                 "rate": [{ "tick", "wall_ms", "value" }, …] }, … ],
//!   "histograms": [ { "name", "count", "sum",
//!                     "windows": [{ "window", "spanned", "count",
//!                                   "p50", "p90", "p99" }, …] }, … ] }
//! ```

use dbcast_obs::doc::Document;
use serde::{Deserialize, Serialize};

use crate::series::{Sample, SeriesKind};
use crate::store::WindowQuantiles;

/// The `/series` document body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SeriesDoc {
    /// Newest virtual tick across all series.
    pub tick: u64,
    /// Exporting store's age in milliseconds.
    pub wall_ms: u64,
    /// Scalar series, sorted by name.
    pub series: Vec<SeriesEntry>,
    /// Histogram series, sorted by name.
    pub histograms: Vec<HistEntry>,
}

impl SeriesDoc {
    /// The entry named `name`.
    pub fn series(&self, name: &str) -> Option<&SeriesEntry> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The histogram entry named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Entries whose name starts with `prefix` (indexed families like
    /// `serve.channel.expected_wait.<i>`).
    pub fn series_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a SeriesEntry> {
        self.series.iter().filter(move |s| s.name.starts_with(prefix))
    }
}

/// One scalar series in the document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SeriesEntry {
    /// Registry metric name.
    pub name: String,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// Newest raw samples, oldest → newest.
    pub raw: Vec<Sample>,
    /// Per-second rates (counters only), oldest → newest.
    pub rate: Vec<Sample>,
}

impl SeriesEntry {
    /// The newest raw value.
    pub fn last(&self) -> Option<f64> {
        self.raw.last().map(|s| s.value)
    }

    /// The newest derived rate.
    pub fn last_rate(&self) -> Option<f64> {
        self.rate.last().map(|s| s.value)
    }
}

/// One histogram in the document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HistEntry {
    /// Registry metric name.
    pub name: String,
    /// Cumulative observation count at the newest scrape.
    pub count: u64,
    /// Cumulative observation sum at the newest scrape.
    pub sum: u64,
    /// Windowed quantiles, one per configured window.
    pub windows: Vec<WindowQuantiles>,
}

/// Finite values and non-decreasing wall clocks.
fn check_samples(samples: &[Sample], what: &str) -> Result<(), String> {
    let mut prev_wall = 0u64;
    for (i, s) in samples.iter().enumerate() {
        if !s.value.is_finite() {
            return Err(format!("{what}[{i}].value is not a finite number"));
        }
        if s.wall_ms < prev_wall {
            return Err(format!("{what}[{i}] wall_ms goes backwards"));
        }
        prev_wall = s.wall_ms;
    }
    Ok(())
}

/// Non-empty, strictly ascending names.
fn check_names<'a>(names: impl Iterator<Item = &'a str>, what: &str) -> Result<(), String> {
    let mut prev: Option<&str> = None;
    for name in names {
        if name.is_empty() {
            return Err(format!("{what} entry has no name"));
        }
        if prev >= Some(name) {
            return Err(format!("{what} names not strictly sorted at {name:?}"));
        }
        prev = Some(name);
    }
    Ok(())
}

impl Document for SeriesDoc {
    const KIND: &'static str = "series";
    const SCHEMA: u32 = 1;

    /// Sorted, non-empty names; finite samples whose wall clock never
    /// goes backwards; non-negative counter values and rates; no rates
    /// on gauges; finite quantiles with `0 <= p50 <= p90 <= p99`.
    fn check(&self) -> Result<(), String> {
        check_names(self.series.iter().map(|s| s.name.as_str()), "series")?;
        for s in &self.series {
            let name = &s.name;
            check_samples(&s.raw, &format!("series {name:?} raw"))?;
            check_samples(&s.rate, &format!("series {name:?} rate"))?;
            match s.kind {
                SeriesKind::Counter => {
                    if s.raw.iter().any(|x| x.value < 0.0) {
                        return Err(format!("counter {name:?} has a negative value"));
                    }
                    if s.rate.iter().any(|x| x.value < 0.0) {
                        return Err(format!("counter {name:?} has a negative rate"));
                    }
                }
                SeriesKind::Gauge => {
                    if !s.rate.is_empty() {
                        return Err(format!("gauge {name:?} carries rates"));
                    }
                }
            }
        }
        check_names(self.histograms.iter().map(|h| h.name.as_str()), "histogram")?;
        for h in &self.histograms {
            for (j, q) in h.windows.iter().enumerate() {
                let finite = q.p50.is_finite() && q.p90.is_finite() && q.p99.is_finite();
                if !finite || q.p50 < 0.0 || q.p50 > q.p90 || q.p90 > q.p99 {
                    return Err(format!(
                        "histogram {:?} windows[{j}] quantiles unordered",
                        h.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: f64) -> Sample {
        Sample { tick: 0, wall_ms: 1, value }
    }

    fn entry(name: &str, kind: SeriesKind) -> SeriesEntry {
        SeriesEntry { name: name.into(), kind, raw: vec![sample(2.0)], rate: Vec::new() }
    }

    fn one_entry(e: SeriesEntry) -> SeriesDoc {
        SeriesDoc { tick: 0, wall_ms: 5, series: vec![e], histograms: Vec::new() }
    }

    #[test]
    fn negative_counter_rates_are_rejected() {
        let mut c = entry("c", SeriesKind::Counter);
        c.rate.push(sample(4.0));
        assert_eq!(one_entry(c.clone()).check(), Ok(()));
        c.rate[0].value = -4.0;
        assert!(one_entry(c).check().unwrap_err().contains("negative rate"));
    }

    #[test]
    fn gauges_carrying_rates_are_rejected() {
        let mut g = entry("g", SeriesKind::Gauge);
        g.rate.push(sample(1.0));
        assert!(one_entry(g).check().unwrap_err().contains("carries rates"));
    }

    #[test]
    fn unsorted_series_names_are_rejected() {
        let mut doc = one_entry(entry("b", SeriesKind::Gauge));
        doc.series.push(entry("a", SeriesKind::Gauge));
        assert!(doc.check().unwrap_err().contains("not strictly sorted"));
    }

    #[test]
    fn unordered_quantiles_are_rejected() {
        let q = WindowQuantiles {
            window: 16,
            spanned: 16,
            count: 9,
            p50: 1.0,
            p90: 3.0,
            p99: 2.0,
        };
        let mut doc = one_entry(entry("g", SeriesKind::Gauge));
        doc.histograms.push(HistEntry {
            name: "h".into(),
            count: 9,
            sum: 20,
            windows: vec![q],
        });
        assert!(doc.check().unwrap_err().contains("quantiles unordered"));
    }
}
