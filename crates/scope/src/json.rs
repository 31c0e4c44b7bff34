//! The `/series` wire format: a schema-versioned JSON document
//! rendered by a self-contained writer (like the obs snapshot and
//! flight-event exporters) and re-parsed by a strict validator — the
//! same posture `/metrics` takes with the OpenMetrics parser, so a
//! malformed export fails in CI rather than in an operator's console.
//!
//! Schema v1:
//!
//! ```text
//! { "schema": 1, "tick": T, "wall_ms": W,
//!   "series": [ { "name", "kind": "counter"|"gauge",
//!                 "raw":  [[tick, wall_ms, value], …],
//!                 "mid":  [[start_tick, end_tick, start_wall_ms, end_wall_ms,
//!                           count, min, max, mean, last], …],
//!                 "coarse": [same shape as mid],
//!                 "rate": [[tick, wall_ms, per_second], …] }, … ],
//!   "histograms": [ { "name", "count", "sum",
//!                     "windows": [{ "window", "spanned", "count",
//!                                   "p50", "p90", "p99" }, …] }, … ] }
//! ```
//!
//! Raw/rate entries are positional triples and bins positional
//! 9-tuples to keep a 100-series payload compact; the validator is
//! the schema's executable definition.

use std::fmt;

use dbcast_obs::snapshot::json_f64;

use crate::series::{Bin, Sample, SeriesKind};
use crate::store::{SeriesStore, WindowQuantiles};

/// The current `/series` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// The parsed (and validated) `/series` document.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDoc {
    /// Schema version (always [`SCHEMA_VERSION`] after validation).
    pub schema: u64,
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
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesEntry {
    /// Registry metric name.
    pub name: String,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// Newest raw samples, oldest → newest.
    pub raw: Vec<Sample>,
    /// Mid-tier bins (10 raw samples each), oldest → newest.
    pub mid: Vec<Bin>,
    /// Coarse-tier bins (100 raw samples each), oldest → newest.
    pub coarse: Vec<Bin>,
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
#[derive(Debug, Clone, PartialEq)]
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

/// Why a `/series` payload failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// The text is not well-formed JSON.
    Parse(String),
    /// The JSON does not satisfy schema v1; the string names the
    /// offending element.
    Schema(String),
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::Parse(e) => write!(f, "/series payload is not JSON: {e}"),
            SeriesError::Schema(e) => write!(f, "/series payload violates schema: {e}"),
        }
    }
}

impl std::error::Error for SeriesError {}

fn push_samples(out: &mut String, samples: &[Sample]) {
    out.push('[');
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{},{}]", s.tick, s.wall_ms, json_f64(s.value)));
    }
    out.push(']');
}

fn push_bins(out: &mut String, bins: &[Bin]) {
    out.push('[');
    for (i, b) in bins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{},{},{},{},{},{},{},{},{}]",
            b.start_tick,
            b.end_tick,
            b.start_wall_ms,
            b.end_wall_ms,
            b.count,
            json_f64(b.min),
            json_f64(b.max),
            json_f64(b.mean()),
            json_f64(b.last)
        ));
    }
    out.push(']');
}

/// Renders a document to the schema-v1 wire form.
pub fn render(doc: &SeriesDoc) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\"schema\": {}, \"tick\": {}, \"wall_ms\": {},\n\"series\": [",
        doc.schema, doc.tick, doc.wall_ms
    ));
    for (i, s) in doc.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n {{\"name\": \"{}\", \"kind\": \"{}\", \"raw\": ",
            s.name,
            s.kind.name()
        ));
        push_samples(&mut out, &s.raw);
        out.push_str(", \"mid\": ");
        push_bins(&mut out, &s.mid);
        out.push_str(", \"coarse\": ");
        push_bins(&mut out, &s.coarse);
        out.push_str(", \"rate\": ");
        push_samples(&mut out, &s.rate);
        out.push('}');
    }
    out.push_str("],\n\"histograms\": [");
    for (i, h) in doc.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"windows\": [",
            h.name, h.count, h.sum
        ));
        for (j, w) in h.windows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"window\": {}, \"spanned\": {}, \"count\": {}, \"p50\": {}, \
                 \"p90\": {}, \"p99\": {}}}",
                w.window,
                w.spanned,
                w.count,
                json_f64(w.p50),
                json_f64(w.p90),
                json_f64(w.p99)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders the store's current contents to the wire form.
pub fn render_store(store: &SeriesStore) -> String {
    render(&store.export())
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, SeriesError> {
    Err(SeriesError::Schema(msg.into()))
}

fn req_u64(v: &serde_json::Value, what: &str) -> Result<u64, SeriesError> {
    v.as_u64().ok_or_else(|| SeriesError::Schema(format!("{what} is not a u64")))
}

fn req_finite(v: &serde_json::Value, what: &str) -> Result<f64, SeriesError> {
    match v.as_f64() {
        Some(x) if x.is_finite() => Ok(x),
        _ => schema_err(format!("{what} is not a finite number")),
    }
}

fn parse_samples(v: &serde_json::Value, what: &str) -> Result<Vec<Sample>, SeriesError> {
    let seq = v
        .as_seq()
        .ok_or_else(|| SeriesError::Schema(format!("{what} is not a sequence")))?;
    let mut out = Vec::with_capacity(seq.len());
    let mut prev_wall = 0u64;
    for (i, entry) in seq.iter().enumerate() {
        let triple = entry
            .as_seq()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| SeriesError::Schema(format!("{what}[{i}] is not a triple")))?;
        let tick = req_u64(&triple[0], &format!("{what}[{i}].tick"))?;
        let wall_ms = req_u64(&triple[1], &format!("{what}[{i}].wall_ms"))?;
        let value = req_finite(&triple[2], &format!("{what}[{i}].value"))?;
        if wall_ms < prev_wall {
            return schema_err(format!("{what}[{i}] wall_ms goes backwards"));
        }
        prev_wall = wall_ms;
        out.push(Sample { tick, wall_ms, value });
    }
    Ok(out)
}

fn parse_bins(v: &serde_json::Value, what: &str) -> Result<Vec<Bin>, SeriesError> {
    let seq = v
        .as_seq()
        .ok_or_else(|| SeriesError::Schema(format!("{what} is not a sequence")))?;
    let mut out = Vec::with_capacity(seq.len());
    for (i, entry) in seq.iter().enumerate() {
        let t = entry
            .as_seq()
            .filter(|t| t.len() == 9)
            .ok_or_else(|| SeriesError::Schema(format!("{what}[{i}] is not a 9-tuple")))?;
        let count = req_u64(&t[4], &format!("{what}[{i}].count"))?;
        if count == 0 {
            return schema_err(format!("{what}[{i}] has count 0"));
        }
        let min = req_finite(&t[5], &format!("{what}[{i}].min"))?;
        let max = req_finite(&t[6], &format!("{what}[{i}].max"))?;
        let mean = req_finite(&t[7], &format!("{what}[{i}].mean"))?;
        let last = req_finite(&t[8], &format!("{what}[{i}].last"))?;
        let tol = 1e-9 * min.abs().max(max.abs()).max(1.0);
        if min > max || mean < min - tol || mean > max + tol {
            return schema_err(format!(
                "{what}[{i}] violates min <= mean <= max: {min} / {mean} / {max}"
            ));
        }
        out.push(Bin {
            start_tick: req_u64(&t[0], &format!("{what}[{i}].start_tick"))?,
            end_tick: req_u64(&t[1], &format!("{what}[{i}].end_tick"))?,
            start_wall_ms: req_u64(&t[2], &format!("{what}[{i}].start_wall_ms"))?,
            end_wall_ms: req_u64(&t[3], &format!("{what}[{i}].end_wall_ms"))?,
            count,
            min,
            max,
            sum: mean * count as f64,
            last,
        });
    }
    Ok(out)
}

/// Parses and strictly validates a `/series` payload.
///
/// # Errors
///
/// [`SeriesError::Parse`] for malformed JSON; [`SeriesError::Schema`]
/// when any schema-v1 invariant fails (wrong version, unsorted or
/// duplicate names, malformed triples/bins, negative rates, bins
/// whose mean escapes `[min, max]`, unordered quantiles, …).
pub fn validate(text: &str) -> Result<SeriesDoc, SeriesError> {
    let root: serde_json::Value =
        serde_json::from_str(text).map_err(|e| SeriesError::Parse(e.to_string()))?;
    let schema = req_u64(
        root.get("schema").ok_or(SeriesError::Schema("missing schema".into()))?,
        "schema",
    )?;
    if schema != SCHEMA_VERSION {
        return schema_err(format!("unsupported schema version {schema}"));
    }
    let tick = req_u64(
        root.get("tick").ok_or(SeriesError::Schema("missing tick".into()))?,
        "tick",
    )?;
    let wall_ms = req_u64(
        root.get("wall_ms").ok_or(SeriesError::Schema("missing wall_ms".into()))?,
        "wall_ms",
    )?;

    let series_val = root
        .get("series")
        .and_then(|v| v.as_seq())
        .ok_or(SeriesError::Schema("missing series array".into()))?;
    let mut series = Vec::with_capacity(series_val.len());
    let mut prev_name: Option<String> = None;
    for (i, entry) in series_val.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(|v| v.as_str())
            .filter(|n| !n.is_empty())
            .ok_or_else(|| SeriesError::Schema(format!("series[{i}] has no name")))?
            .to_string();
        if prev_name.as_deref() >= Some(name.as_str()) {
            return schema_err(format!("series names not strictly sorted at {name:?}"));
        }
        let kind = entry
            .get("kind")
            .and_then(|v| v.as_str())
            .and_then(SeriesKind::from_name)
            .ok_or_else(|| SeriesError::Schema(format!("series {name:?} bad kind")))?;
        let raw = parse_samples(
            entry.get("raw").unwrap_or(&serde_json::Value::Null),
            &format!("series {name:?} raw"),
        )?;
        let mid = parse_bins(
            entry.get("mid").unwrap_or(&serde_json::Value::Null),
            &format!("series {name:?} mid"),
        )?;
        let coarse = parse_bins(
            entry.get("coarse").unwrap_or(&serde_json::Value::Null),
            &format!("series {name:?} coarse"),
        )?;
        let rate = parse_samples(
            entry.get("rate").unwrap_or(&serde_json::Value::Null),
            &format!("series {name:?} rate"),
        )?;
        match kind {
            SeriesKind::Counter => {
                if raw.iter().any(|s| s.value < 0.0) {
                    return schema_err(format!("counter {name:?} has a negative value"));
                }
                if rate.iter().any(|s| s.value < 0.0) {
                    return schema_err(format!("counter {name:?} has a negative rate"));
                }
            }
            SeriesKind::Gauge => {
                if !rate.is_empty() {
                    return schema_err(format!("gauge {name:?} carries rates"));
                }
            }
        }
        prev_name = Some(name.clone());
        series.push(SeriesEntry { name, kind, raw, mid, coarse, rate });
    }

    let hist_val = root
        .get("histograms")
        .and_then(|v| v.as_seq())
        .ok_or(SeriesError::Schema("missing histograms array".into()))?;
    let mut histograms = Vec::with_capacity(hist_val.len());
    let mut prev_name: Option<String> = None;
    for (i, entry) in hist_val.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(|v| v.as_str())
            .filter(|n| !n.is_empty())
            .ok_or_else(|| SeriesError::Schema(format!("histograms[{i}] has no name")))?
            .to_string();
        if prev_name.as_deref() >= Some(name.as_str()) {
            return schema_err(format!("histogram names not strictly sorted at {name:?}"));
        }
        let count = req_u64(
            entry.get("count").unwrap_or(&serde_json::Value::Null),
            &format!("histogram {name:?} count"),
        )?;
        let sum = req_u64(
            entry.get("sum").unwrap_or(&serde_json::Value::Null),
            &format!("histogram {name:?} sum"),
        )?;
        let windows_val = entry
            .get("windows")
            .and_then(|v| v.as_seq())
            .ok_or_else(|| SeriesError::Schema(format!("histogram {name:?} windows")))?;
        let mut windows = Vec::with_capacity(windows_val.len());
        for (j, w) in windows_val.iter().enumerate() {
            let what = format!("histogram {name:?} windows[{j}]");
            let q = WindowQuantiles {
                window: req_u64(
                    w.get("window").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.window"),
                )?,
                spanned: req_u64(
                    w.get("spanned").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.spanned"),
                )?,
                count: req_u64(
                    w.get("count").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.count"),
                )?,
                p50: req_finite(
                    w.get("p50").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.p50"),
                )?,
                p90: req_finite(
                    w.get("p90").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.p90"),
                )?,
                p99: req_finite(
                    w.get("p99").unwrap_or(&serde_json::Value::Null),
                    &format!("{what}.p99"),
                )?,
            };
            if q.p50 < 0.0 || q.p50 > q.p90 || q.p90 > q.p99 {
                return schema_err(format!("{what} quantiles unordered"));
            }
            windows.push(q);
        }
        prev_name = Some(name.clone());
        histograms.push(HistEntry { name, count, sum, windows });
    }

    Ok(SeriesDoc { schema, tick, wall_ms, series, histograms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ScopeConfig, SeriesStore};

    fn populated_store() -> SeriesStore {
        let store = SeriesStore::new(ScopeConfig::default());
        let reg = dbcast_obs::registry();
        for i in 0..25u64 {
            let mut snap = reg.snapshot();
            snap.counters =
                vec![("json.test.requests".into(), i * 7), ("serve.ticks".into(), i)];
            snap.gauges = vec![("json.test.drift".into(), (i as f64 / 10.0).sin())];
            snap.histograms.clear();
            store.append_snapshot(&snap, i * 100);
        }
        store
    }

    #[test]
    fn rendered_store_round_trips_the_validator() {
        let store = populated_store();
        let text = render_store(&store);
        let doc = validate(&text).expect("rendered payload validates");
        assert_eq!(doc.schema, SCHEMA_VERSION);
        assert_eq!(doc.tick, 24);
        let req = doc.series("json.test.requests").expect("requests series");
        assert_eq!(req.kind, SeriesKind::Counter);
        assert_eq!(req.last(), Some(168.0));
        // 7 per 100 ms = 70/s.
        assert!((req.last_rate().unwrap() - 70.0).abs() < 1e-9);
        let drift = doc.series("json.test.drift").expect("drift series");
        assert_eq!(drift.kind, SeriesKind::Gauge);
        assert!(drift.rate.is_empty());
        assert_eq!(drift.mid.len(), 2);
    }

    #[test]
    fn tampered_payloads_are_rejected() {
        let text = render_store(&populated_store());
        for (needle, replacement, why) in [
            ("\"schema\": 1", "\"schema\": 2", "wrong version"),
            ("\"kind\": \"counter\"", "\"kind\": \"delta\"", "unknown kind"),
            ("\"wall_ms\":", "\"wall\":", "missing wall_ms"),
        ] {
            let bad = text.replacen(needle, replacement, 1);
            assert!(
                matches!(validate(&bad), Err(SeriesError::Schema(_))),
                "{why} accepted"
            );
        }
        assert!(matches!(validate("{nope"), Err(SeriesError::Parse(_))));
    }

    #[test]
    fn negative_counter_rates_are_rejected() {
        let good = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                    {\"name\": \"c\", \"kind\": \"counter\", \"raw\": [[0,1,2.0]], \
                    \"mid\": [], \"coarse\": [], \"rate\": [[0,1,-4.0]]}], \
                    \"histograms\": []}";
        assert!(matches!(validate(good), Err(SeriesError::Schema(_))));
    }

    #[test]
    fn bin_mean_outside_min_max_is_rejected() {
        let bad = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                   {\"name\": \"g\", \"kind\": \"gauge\", \"raw\": [], \
                   \"mid\": [[0,9,0,90,10,1.0,2.0,5.0,1.5]], \"coarse\": [], \
                   \"rate\": []}], \"histograms\": []}";
        assert!(matches!(validate(bad), Err(SeriesError::Schema(_))));
    }

    #[test]
    fn unsorted_series_names_are_rejected() {
        let bad = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                   {\"name\": \"b\", \"kind\": \"gauge\", \"raw\": [], \"mid\": [], \
                   \"coarse\": [], \"rate\": []},\
                   {\"name\": \"a\", \"kind\": \"gauge\", \"raw\": [], \"mid\": [], \
                   \"coarse\": [], \"rate\": []}], \"histograms\": []}";
        assert!(matches!(validate(bad), Err(SeriesError::Schema(_))));
    }
}
