//! OpenMetrics / Prometheus text exposition of a registry
//! [`Snapshot`], plus a strict parser for validating scrapes.
//!
//! The renderer maps registry names (`serve.requests`) to OpenMetrics
//! names (`serve_requests`), emits `# TYPE`/`# HELP` metadata (help
//! text comes from the [`catalog`](crate::catalog) when the metric is
//! catalogued), renders histograms with cumulative `_bucket{le="…"}`
//! series plus `_sum`/`_count`, suffixes counters with `_total`, and
//! terminates the exposition with `# EOF` as the spec requires.
//!
//! The parser accepts exactly what the renderer produces (metadata
//! lines, samples with optional `{le="…"}` labels and optional
//! exemplar annotations, a final `# EOF`) and checks the structural
//! invariants scrapes rely on: every sample belongs to a declared
//! family, histogram buckets are cumulative and ordered, values parse
//! as finite floats, and exemplars appear only where the spec allows
//! them (bucket and counter samples, label set ≤ 128 runes). CI feeds
//! scraped `/metrics` bodies through it via
//! `dbcast flight check`.
//!
//! Exemplars follow the OpenMetrics annotation syntax
//! `name_bucket{le="X"} N # {label="v",…} value [timestamp]` and are
//! attached at render time by an [`ExemplarProvider`] — the audit
//! layer registers one (via [`set_exemplar_provider`]) that links tail
//! wait buckets to concrete trace records.

use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::HistogramSnapshot;
use crate::snapshot::Snapshot;

/// Converts a registry name to an OpenMetrics name: dots and other
/// non-`[a-zA-Z0-9_]` characters become underscores, and a leading
/// digit is prefixed with an underscore.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

fn help_line(out: &mut String, om_name: &str, registry_name: &str) {
    if let Some(def) = crate::catalog::describe(registry_name) {
        let _ = writeln!(out, "# HELP {om_name} {}", def.help);
    }
}

/// A concrete observation attached to a bucket or counter sample per
/// the OpenMetrics exemplar syntax: `… # {labels} value [timestamp]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Label pairs identifying the exemplar (e.g. a request id).
    pub labels: Vec<(String, String)>,
    /// The exemplified observation's value.
    pub value: f64,
    /// Optional timestamp (seconds).
    pub timestamp: Option<f64>,
}

/// Renders `ex` in the exemplar wire syntax (without the leading
/// `` # `` separator).
pub fn render_exemplar(ex: &Exemplar) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in ex.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    let _ = write!(out, "}} {}", format_value(ex.value));
    if let Some(ts) = ex.timestamp {
        let _ = write!(out, " {}", format_value(ts));
    }
    out
}

/// Maps a registry metric name to the exemplars of its histogram
/// buckets, keyed by the bucket's upper bound.
pub type ExemplarProvider = dyn Fn(&str) -> Vec<(u64, Exemplar)> + Send + Sync;

fn exemplar_provider_cell() -> &'static RwLock<Option<Arc<ExemplarProvider>>> {
    static CELL: OnceLock<RwLock<Option<Arc<ExemplarProvider>>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(None))
}

/// Installs (or with `None` clears) the process-global exemplar
/// provider consulted by [`render_global`]. The serve CLI points this
/// at the audit tracer so `/metrics` scrapes carry tail exemplars.
pub fn set_exemplar_provider(provider: Option<Arc<ExemplarProvider>>) {
    *exemplar_provider_cell().write().unwrap_or_else(|e| e.into_inner()) = provider;
}

fn render_histogram(
    out: &mut String,
    om_name: &str,
    h: &HistogramSnapshot,
    exemplars: &[(u64, Exemplar)],
) {
    let mut cumulative = 0u64;
    for &(le, count) in &h.buckets {
        cumulative += count;
        match exemplars.iter().find(|(b, _)| *b == le) {
            Some((_, ex)) => {
                let _ = writeln!(
                    out,
                    "{om_name}_bucket{{le=\"{le}\"}} {cumulative} # {}",
                    render_exemplar(ex)
                );
            }
            None => {
                let _ = writeln!(out, "{om_name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
        }
    }
    let _ = writeln!(out, "{om_name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{om_name}_sum {}", h.sum);
    let _ = writeln!(out, "{om_name}_count {}", h.count);
}

/// Renders `snapshot` in OpenMetrics text format (terminated with
/// `# EOF`). Families appear in sorted-name order per section.
pub fn render(snapshot: &Snapshot) -> String {
    render_with_exemplars(snapshot, &|_| Vec::new())
}

/// Renders `snapshot` with histogram-bucket exemplars supplied by
/// `provider` (called once per histogram with the registry name).
pub fn render_with_exemplars(
    snapshot: &Snapshot,
    provider: &(impl Fn(&str) -> Vec<(u64, Exemplar)> + ?Sized),
) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let om = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {om} counter");
        help_line(&mut out, &om, name);
        let _ = writeln!(out, "{om}_total {v}");
    }
    for (name, v) in &snapshot.gauges {
        let om = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {om} gauge");
        help_line(&mut out, &om, name);
        let _ = writeln!(out, "{om} {}", format_value(*v));
    }
    for (name, h) in &snapshot.histograms {
        let om = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {om} histogram");
        help_line(&mut out, &om, name);
        render_histogram(&mut out, &om, h, &provider(name));
    }
    out.push_str("# EOF\n");
    out
}

/// Convenience: render the global registry's current state, with
/// exemplars when a provider is installed.
pub fn render_global() -> String {
    let provider =
        exemplar_provider_cell().read().unwrap_or_else(|e| e.into_inner()).clone();
    let snapshot = crate::registry().snapshot();
    match provider {
        Some(p) => render_with_exemplars(&snapshot, &*p),
        None => render(&snapshot),
    }
}

/// A parse/validation failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for document-level failures).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "openmetrics: {}", self.message)
        } else {
            write!(f, "openmetrics: line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// The declared type of a parsed family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

/// One sample line: `name{labels} value [# {labels} value [ts]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, including any `_total`/`_bucket`/… suffix.
    pub name: String,
    /// Label pairs, in order of appearance.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The exemplar annotation, if the line carried one.
    pub exemplar: Option<Exemplar>,
}

/// One metric family: its metadata plus the samples that follow it.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// The family name from the `# TYPE` line.
    pub name: String,
    /// Declared type.
    pub kind: FamilyKind,
    /// Help text, if a `# HELP` line was present.
    pub help: Option<String>,
    /// Samples belonging to this family.
    pub samples: Vec<Sample>,
}

impl Family {
    /// The value of the sample named exactly `name`, if present.
    pub fn sample(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

/// Parses a `k="v",…` label body (the text between `{` and `}`).
fn parse_labels(
    labels_str: &str,
    lineno: usize,
) -> Result<Vec<(String, String)>, ParseError> {
    let mut labels = Vec::new();
    if !labels_str.is_empty() {
        for pair in labels_str.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("malformed label {pair:?}")))?;
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| err(lineno, format!("label value not quoted: {pair:?}")))?;
            if !valid_name(k) {
                return Err(err(lineno, format!("invalid label name {k:?}")));
            }
            labels.push((k.to_string(), v.to_string()));
        }
    }
    Ok(labels)
}

/// Parses the text after a sample's `` # `` separator:
/// `{labels} value [timestamp]`.
fn parse_exemplar(text: &str, lineno: usize) -> Result<Exemplar, ParseError> {
    let rest = text
        .strip_prefix('{')
        .ok_or_else(|| err(lineno, "exemplar is missing its label set"))?;
    let close =
        rest.find('}').ok_or_else(|| err(lineno, "unterminated exemplar label set"))?;
    let labels = parse_labels(&rest[..close], lineno)?;
    // The spec caps the combined rune length of exemplar label names
    // and values at 128.
    let runes: usize =
        labels.iter().map(|(k, v)| k.chars().count() + v.chars().count()).sum();
    if runes > 128 {
        return Err(err(lineno, format!("exemplar label set has {runes} runes (> 128)")));
    }
    let mut it = rest[close + 1..].split_whitespace();
    let value_str = it.next().ok_or_else(|| err(lineno, "exemplar has no value"))?;
    let value =
        value_str.parse::<f64>().ok().filter(|v| v.is_finite()).ok_or_else(|| {
            err(lineno, format!("unparseable exemplar value {value_str:?}"))
        })?;
    let timestamp = match it.next() {
        Some(ts) => {
            Some(ts.parse::<f64>().ok().filter(|t| t.is_finite()).ok_or_else(|| {
                err(lineno, format!("unparseable exemplar timestamp {ts:?}"))
            })?)
        }
        None => None,
    };
    if it.next().is_some() {
        return Err(err(lineno, "trailing tokens after exemplar timestamp"));
    }
    Ok(Exemplar { labels, value, timestamp })
}

fn parse_sample(full_line: &str, lineno: usize) -> Result<Sample, ParseError> {
    // Split off an exemplar annotation first (`<sample> # <exemplar>`);
    // the renderer never quotes a bare " # " inside label values, so
    // the first occurrence is authoritative.
    let (line, exemplar) = match full_line.find(" # ") {
        Some(pos) => {
            (&full_line[..pos], Some(parse_exemplar(full_line[pos + 3..].trim(), lineno)?))
        }
        None => (full_line, None),
    };
    // `name{k="v",…} value` or `name value`.
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line[open..]
                .find('}')
                .map(|i| open + i)
                .ok_or_else(|| err(lineno, "unterminated label set"))?;
            (&line[..open], Some((&line[open + 1..close], &line[close + 1..])))
        }
        None => (line.split_whitespace().next().unwrap_or(""), None),
    };
    if !valid_name(name_part) {
        return Err(err(lineno, format!("invalid sample name {name_part:?}")));
    }
    let (labels, value_str) = match rest {
        Some((labels_str, tail)) => (parse_labels(labels_str, lineno)?, tail.trim()),
        None => {
            let mut it = line.split_whitespace();
            let _ = it.next();
            (Vec::new(), it.next().unwrap_or(""))
        }
    };
    if value_str.is_empty() {
        return Err(err(lineno, "sample has no value"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| err(lineno, format!("unparseable value {other:?}")))?,
    };
    if exemplar.is_some()
        && !(name_part.ends_with("_bucket") || name_part.ends_with("_total"))
    {
        return Err(err(
            lineno,
            format!("exemplar on {name_part:?} (only buckets and counters may carry one)"),
        ));
    }
    Ok(Sample { name: name_part.to_string(), labels, value, exemplar })
}

/// Does `sample` belong to the family `base` of kind `kind`?
fn belongs_to(sample: &str, base: &str, kind: FamilyKind) -> bool {
    match kind {
        FamilyKind::Counter => sample == base || sample == format!("{base}_total"),
        FamilyKind::Gauge => sample == base,
        FamilyKind::Histogram => {
            sample == format!("{base}_bucket")
                || sample == format!("{base}_sum")
                || sample == format!("{base}_count")
        }
    }
}

fn validate_histogram(family: &Family, lineno: usize) -> Result<(), ParseError> {
    let mut last_le = f64::NEG_INFINITY;
    let mut last_cum = 0.0f64;
    let mut saw_inf = false;
    let mut bucket_total = None;
    for s in &family.samples {
        if s.name.ends_with("_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| {
                    err(lineno, format!("{}: bucket sample without le label", family.name))
                })?;
            let le_val = if le == "+Inf" {
                saw_inf = true;
                f64::INFINITY
            } else {
                le.parse::<f64>().map_err(|_| {
                    err(lineno, format!("{}: unparseable le {le:?}", family.name))
                })?
            };
            if le_val <= last_le {
                return Err(err(
                    lineno,
                    format!("{}: bucket le values not increasing", family.name),
                ));
            }
            if s.value < last_cum {
                return Err(err(
                    lineno,
                    format!("{}: bucket counts not cumulative", family.name),
                ));
            }
            last_le = le_val;
            last_cum = s.value;
            if le_val.is_infinite() {
                bucket_total = Some(s.value);
            }
        }
    }
    if !saw_inf {
        return Err(err(lineno, format!("{}: missing +Inf bucket", family.name)));
    }
    if let (Some(total), Some(count)) =
        (bucket_total, family.sample(&format!("{}_count", family.name)))
    {
        if (total - count).abs() > f64::EPSILON {
            return Err(err(
                lineno,
                format!(
                    "{}: +Inf bucket {total} disagrees with _count {count}",
                    family.name
                ),
            ));
        }
    }
    Ok(())
}

/// Parses and validates an OpenMetrics text document.
///
/// # Errors
///
/// [`ParseError`] on any structural violation: a sample outside a
/// declared family, an unknown type keyword, non-cumulative histogram
/// buckets, counters with non-finite or decreasing-impossible values
/// (negative), or a missing terminal `# EOF`.
pub fn parse(text: &str) -> Result<Vec<Family>, ParseError> {
    let mut families: Vec<Family> = Vec::new();
    let mut family_start: Vec<usize> = Vec::new();
    let mut saw_eof = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(err(lineno, "content after # EOF"));
        }
        if let Some(meta) = line.strip_prefix("# ") {
            if meta == "EOF" {
                saw_eof = true;
            } else if let Some(rest) = meta.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let kind = match it.next() {
                    Some("counter") => FamilyKind::Counter,
                    Some("gauge") => FamilyKind::Gauge,
                    Some("histogram") => FamilyKind::Histogram,
                    other => {
                        return Err(err(
                            lineno,
                            format!("unknown TYPE {:?} for {name}", other.unwrap_or("")),
                        ))
                    }
                };
                if !valid_name(name) {
                    return Err(err(lineno, format!("invalid family name {name:?}")));
                }
                if families.iter().any(|f| f.name == name) {
                    return Err(err(lineno, format!("family {name} declared twice")));
                }
                families.push(Family {
                    name: name.to_string(),
                    kind,
                    help: None,
                    samples: Vec::new(),
                });
                family_start.push(lineno);
            } else if let Some(rest) = meta.strip_prefix("HELP ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let help = it.next().unwrap_or("").to_string();
                match families.last_mut() {
                    Some(f) if f.name == name => f.help = Some(help),
                    _ => {
                        return Err(err(
                            lineno,
                            format!("HELP for {name} outside its TYPE block"),
                        ))
                    }
                }
            } else {
                // Free-form comments are tolerated (the renderer emits
                // none, but scrapes may be concatenated with notes).
            }
        } else if line.starts_with('#') {
            // "#..." without a space: plain comment.
        } else {
            let sample = parse_sample(line, lineno)?;
            let family = families
                .iter_mut()
                .rev()
                .find(|f| belongs_to(&sample.name, &f.name, f.kind))
                .ok_or_else(|| {
                    err(
                        lineno,
                        format!("sample {} outside any declared family", sample.name),
                    )
                })?;
            if family.kind == FamilyKind::Counter && sample.value < 0.0 {
                return Err(err(lineno, format!("counter {} is negative", sample.name)));
            }
            family.samples.push(sample);
        }
    }
    if !saw_eof {
        return Err(err(0, "missing terminal # EOF"));
    }
    for (f, &start) in families.iter().zip(&family_start) {
        if f.kind == FamilyKind::Histogram && !f.samples.is_empty() {
            validate_histogram(f, start)?;
        }
    }
    Ok(families)
}

/// Looks up one sample value across parsed families (e.g.
/// `serve_requests_total`).
pub fn sample_value(families: &[Family], sample_name: &str) -> Option<f64> {
    families.iter().find_map(|f| f.sample(sample_name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![("serve.requests".into(), 42)],
            gauges: vec![("serve.drift_distance".into(), 0.125)],
            histograms: vec![(
                "serve.wait".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 900,
                    mean: 300.0,
                    min: 100,
                    max: 600,
                    p50: 192,
                    p90: 767,
                    p95: 767,
                    p99: 767,
                    buckets: vec![(127, 1), (1023, 2)],
                },
            )],
        }
    }

    #[test]
    fn renders_and_reparses() {
        let text = render(&sample_snapshot());
        assert!(text.ends_with("# EOF\n"), "missing EOF:\n{text}");
        let families = parse(&text).expect("own output parses");
        assert_eq!(families.len(), 3);
        assert_eq!(sample_value(&families, "serve_requests_total"), Some(42.0));
        assert_eq!(sample_value(&families, "serve_drift_distance"), Some(0.125));
        assert_eq!(sample_value(&families, "serve_wait_count"), Some(3.0));
        assert_eq!(sample_value(&families, "serve_wait_sum"), Some(900.0));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render(&sample_snapshot());
        let families = parse(&text).unwrap();
        let hist = families.iter().find(|f| f.name == "serve_wait").unwrap();
        let buckets: Vec<f64> = hist
            .samples
            .iter()
            .filter(|s| s.name.ends_with("_bucket"))
            .map(|s| s.value)
            .collect();
        assert_eq!(buckets, vec![1.0, 3.0, 3.0]);
    }

    #[test]
    fn catalogued_metrics_get_help_lines() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# HELP serve_requests "), "no help line:\n{text}");
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("serve.slo.burn_rate"), "serve_slo_burn_rate");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }

    #[test]
    fn rejects_missing_eof() {
        let e = parse("# TYPE x counter\nx_total 1\n").unwrap_err();
        assert!(e.message.contains("EOF"), "{e}");
    }

    #[test]
    fn rejects_orphan_samples() {
        let e = parse("orphan 1\n# EOF\n").unwrap_err();
        assert!(e.message.contains("outside any declared family"), "{e}");
    }

    #[test]
    fn rejects_non_cumulative_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n# EOF\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("cumulative"), "{e}");
    }

    #[test]
    fn rejects_duplicate_family() {
        let e = parse("# TYPE x counter\n# TYPE x counter\n# EOF\n").unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn rejects_negative_counter() {
        let e = parse("# TYPE x counter\nx_total -1\n# EOF\n").unwrap_err();
        assert!(e.message.contains("negative"), "{e}");
    }

    #[test]
    fn exemplars_render_and_round_trip() {
        let exemplar = Exemplar {
            labels: vec![
                ("request_id".into(), "4711".into()),
                ("channel".into(), "2".into()),
            ],
            value: 1_250_000.0,
            timestamp: Some(12.5),
        };
        let snapshot = sample_snapshot();
        let provider = move |name: &str| {
            if name == "serve.wait" {
                vec![(1023u64, exemplar.clone())]
            } else {
                Vec::new()
            }
        };
        let text = render_with_exemplars(&snapshot, &provider);
        assert!(
            text.contains(
                "serve_wait_bucket{le=\"1023\"} 3 \
                 # {request_id=\"4711\",channel=\"2\"} 1250000 12.5"
            ),
            "exemplar line missing:\n{text}"
        );
        let families = parse(&text).expect("exemplar-annotated output parses");
        let hist = families.iter().find(|f| f.name == "serve_wait").unwrap();
        let annotated: Vec<&Sample> =
            hist.samples.iter().filter(|s| s.exemplar.is_some()).collect();
        assert_eq!(annotated.len(), 1);
        let parsed = annotated[0].exemplar.as_ref().unwrap();
        assert_eq!(parsed.labels[0], ("request_id".to_string(), "4711".to_string()));
        assert_eq!(parsed.value, 1_250_000.0);
        assert_eq!(parsed.timestamp, Some(12.5));
        // The wire form itself round-trips: re-rendering the parsed
        // exemplar reproduces the annotation byte for byte.
        assert!(text.contains(&format!("# {}", render_exemplar(parsed))));
    }

    #[test]
    fn exemplar_without_timestamp_parses() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 1 # {id=\"7\"} 0.5\n\
                    h_bucket{le=\"+Inf\"} 1\n\
                    h_sum 1\nh_count 1\n# EOF\n";
        let families = parse(text).expect("parses");
        let ex = families[0].samples[0].exemplar.as_ref().expect("exemplar kept");
        assert_eq!(ex.value, 0.5);
        assert_eq!(ex.timestamp, None);
    }

    #[test]
    fn rejects_exemplar_on_gauge_sample() {
        let text = "# TYPE g gauge\ng 1 # {id=\"7\"} 0.5\n# EOF\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("only buckets and counters"), "{e}");
    }

    #[test]
    fn rejects_oversized_exemplar_label_set() {
        let big = "x".repeat(140);
        let text = format!(
            "# TYPE h histogram\n\
             h_bucket{{le=\"1\"}} 1 # {{id=\"{big}\"}} 0.5\n\
             h_bucket{{le=\"+Inf\"}} 1\nh_sum 1\nh_count 1\n# EOF\n"
        );
        let e = parse(&text).unwrap_err();
        assert!(e.message.contains("128"), "{e}");
    }

    #[test]
    fn rejects_malformed_exemplars() {
        for (annotation, why) in [
            ("# 0.5", "missing label set"),
            ("# {id=\"7\" 0.5", "unterminated label set"),
            ("# {id=\"7\"}", "missing value"),
            ("# {id=\"7\"} 0.5 1.0 junk", "trailing tokens"),
        ] {
            let text = format!(
                "# TYPE h histogram\n\
                 h_bucket{{le=\"1\"}} 1 {annotation}\n\
                 h_bucket{{le=\"+Inf\"}} 1\nh_sum 1\nh_count 1\n# EOF\n"
            );
            assert!(parse(&text).is_err(), "{why} accepted");
        }
    }

    #[test]
    fn empty_snapshot_renders_bare_eof() {
        let s = Snapshot { counters: vec![], gauges: vec![], histograms: vec![] };
        let text = render(&s);
        assert_eq!(text, "# EOF\n");
        assert!(parse(&text).unwrap().is_empty());
    }
}
