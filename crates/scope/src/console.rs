//! The `dbcast top` renderer: a zero-dependency ANSI view over a
//! validated [`SeriesDoc`] — req/s, drift L1, SLO burn rate, swap and
//! generation history, windowed wait quantiles and the per-channel
//! Eq. 2 `W_i` table. The renderer is a pure function of the document
//! (plus display options) so CI can assert on the exact text with
//! `--once` while the live console just re-renders per frame.

use crate::doc::{SeriesDoc, SeriesEntry};

/// Sparkline glyphs, shortest to tallest.
const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

const RESET: &str = "\x1b[0m";
const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const RED: &str = "\x1b[31m";
const GREEN: &str = "\x1b[32m";
const YELLOW: &str = "\x1b[33m";
const CYAN: &str = "\x1b[36m";

/// Display options for [`render_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Emit ANSI colour codes (off for `--once`/non-TTY output).
    pub color: bool,
    /// Sparkline width: at most this many newest values are drawn.
    pub width: usize,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions { color: false, width: 40 }
    }
}

/// Renders `values` as a sparkline, newest `width` values, scaled to
/// the drawn window's min/max. Constant (or single-sample) windows
/// draw at mid height — a sparkline is never empty when data exists.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let window = &values[values.len().saturating_sub(width)..];
    if window.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in window {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    window
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                GLYPHS[3]
            } else {
                let t = ((v - lo) / span * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[t.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

fn raw_values(entry: &SeriesEntry) -> Vec<f64> {
    entry.raw.iter().map(|s| s.value).collect()
}

fn rate_values(entry: &SeriesEntry) -> Vec<f64> {
    entry.rate.iter().map(|s| s.value).collect()
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

struct Painter {
    color: bool,
}

impl Painter {
    fn paint(&self, code: &str, text: &str) -> String {
        if self.color {
            format!("{code}{text}{RESET}")
        } else {
            text.to_string()
        }
    }
}

/// Renders the full `dbcast top` frame. Sections whose metrics are
/// absent from the document are skipped, so the console degrades
/// gracefully against feature-off or non-serve processes.
pub fn render_top(doc: &SeriesDoc, opts: &TopOptions) -> String {
    let p = Painter { color: opts.color };
    let mut out = String::with_capacity(2048);

    let swaps =
        doc.series("serve.swaps").and_then(|s| s.last()).map(|v| v as u64).unwrap_or(0);
    let header = format!(
        "dbcast top — tick {} · swaps {} · up {:.1}s · {} series",
        doc.tick,
        swaps,
        doc.wall_ms as f64 / 1000.0,
        doc.series.len()
    );
    out.push_str(&p.paint(BOLD, &header));
    out.push('\n');

    let mut row = |label: &str, value: String, spark: String, note: String| {
        out.push_str(&format!(
            " {label:<12} {value:>10}  {}  {}\n",
            spark,
            p.paint(DIM, &note)
        ));
    };

    if let Some(req) = doc.series("serve.requests") {
        let rates = rate_values(req);
        if !rates.is_empty() {
            row(
                "req/s",
                fmt_value(*rates.last().unwrap()),
                sparkline(&rates, opts.width),
                format!("({} served)", req.last().unwrap_or(0.0) as u64),
            );
        }
    }
    if let Some(drift) = doc.series("serve.drift_distance") {
        let values = raw_values(drift);
        if !values.is_empty() {
            let dispatched = doc
                .series("serve.drift_events")
                .and_then(|s| s.last())
                .map(|v| format!("({} repairs dispatched)", v as u64))
                .unwrap_or_default();
            row(
                "drift L1",
                fmt_value(*values.last().unwrap()),
                sparkline(&values, opts.width),
                dispatched,
            );
        }
    }
    if let Some(burn) = doc.series("serve.slo.burn_rate") {
        let values = raw_values(burn);
        if let Some(&last) = values.last() {
            let target = doc.series("serve.slo.target_wait").and_then(|s| s.last());
            let status =
                if last > 1.0 { p.paint(RED, "BURNING") } else { p.paint(GREEN, "ok") };
            let note = match target {
                Some(t) => format!("(target W_b {}s, {status})", fmt_value(t)),
                None => format!("({status})"),
            };
            row("SLO burn", fmt_value(last), sparkline(&values, opts.width), note);
        }
    }
    if let Some(generation) = doc.series("serve.generation") {
        let values = raw_values(generation);
        if let Some(&last) = values.last() {
            row(
                "generation",
                (last as u64).to_string(),
                sparkline(&values, opts.width),
                "(swap history)".to_string(),
            );
        }
    }
    if let Some(wait) = doc.histogram("serve.wait") {
        for w in &wait.windows {
            out.push_str(&format!(
                " {:<12} p50 {} / p90 {} / p99 {} µs  {}\n",
                format!("wait w{}", w.window),
                fmt_value(w.p50),
                fmt_value(w.p90),
                fmt_value(w.p99),
                p.paint(DIM, &format!("({} obs over {} scrapes)", w.count, w.spanned))
            ));
        }
    }

    // Per-channel Eq. 2 table: `serve.channel.expected_wait.<i>` is
    // channel i's contribution to the analytical wait (F_i·Z_i / 2b),
    // `serve.channel.load.<i>` its share of the access probability and
    // `serve.audit.residual.<i>` the audit tracer's observed-minus-
    // predicted mean wait ("-" until the tracer has observations).
    let waits: Vec<&SeriesEntry> =
        doc.series_with_prefix("serve.channel.expected_wait.").collect();
    if !waits.is_empty() {
        out.push_str(&p.paint(CYAN, "channels (Eq. 2 W_i seconds vs load F_i):\n"));
        for entry in waits {
            let index = entry.name.rsplit('.').next().unwrap_or("?");
            let load = doc
                .series(&format!("serve.channel.load.{index}"))
                .and_then(|s| s.last())
                .unwrap_or(0.0);
            let residual = doc
                .series(&format!("serve.audit.residual.{index}"))
                .and_then(|s| s.last())
                .map_or_else(|| "-".to_string(), |r| format!("{r:+.4}"));
            let values = raw_values(entry);
            let last = values.last().copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  ch{index:<3} load {:>7}  W {:>8}  resid {:>8}  {}\n",
                fmt_value(load),
                fmt_value(last),
                residual,
                sparkline(&values, opts.width)
            ));
        }
    }

    // Fleet panel: populated when the process runs a telemetry uplink
    // (`serve --listen-uplink`). Shows the connected-client census, the
    // stragglers trailing the published generation, digest throughput
    // and the live observed-vs-Eq. 2 access-time gap per generation.
    if let Some(clients) = doc.series("fleet.clients").and_then(|s| s.last()) {
        let stragglers = doc
            .series("fleet.stragglers")
            .and_then(|s| s.last())
            .map(|v| v as u64)
            .unwrap_or(0);
        let digests = doc
            .series("fleet.uplink.digests")
            .and_then(|s| s.last())
            .map(|v| v as u64)
            .unwrap_or(0);
        out.push_str(&p.paint(CYAN, "fleet (telemetry uplink):\n"));
        let lag = if stragglers > 0 {
            p.paint(RED, &format!("{stragglers} straggling"))
        } else {
            p.paint(GREEN, "0 straggling")
        };
        out.push_str(&format!(
            "  clients {:>4}  {lag}  digests {digests}\n",
            clients as u64
        ));
        for entry in doc.series_with_prefix("fleet.generation.gap.") {
            let index = entry.name.rsplit('.').next().unwrap_or("?");
            let observed = doc
                .series(&format!("fleet.generation.access.{index}"))
                .and_then(|s| s.last())
                .unwrap_or(0.0);
            let predicted = doc
                .series(&format!("fleet.generation.predicted.{index}"))
                .and_then(|s| s.last())
                .unwrap_or(0.0);
            let values = raw_values(entry);
            let last = values.last().copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  gen{index:<3} obs {:>8}s  Eq.2 {:>8}s  gap {:>7}  {}\n",
                fmt_value(observed),
                fmt_value(predicted),
                format!("{:.1}%", last * 100.0),
                sparkline(&values, opts.width)
            ));
        }
    }

    if let Some(firings) = doc.series("scope.watchdog.firings").and_then(|s| s.last()) {
        if firings > 0.0 {
            out.push_str(
                &p.paint(YELLOW, &format!(" watchdog: {} rule(s) fired\n", firings as u64)),
            );
        }
    }
    out
}

/// Clears the screen and homes the cursor (live mode only).
pub fn clear_screen() -> &'static str {
    "\x1b[2J\x1b[H"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Sample, SeriesKind};

    #[test]
    fn sparkline_scales_and_never_empties() {
        let s = sparkline(&[0.0, 0.5, 1.0], 40);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[5.0; 4], 40), "▄▄▄▄");
        assert_eq!(sparkline(&[], 40), "");
        // Width trims to the newest values.
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long, 10).chars().count(), 10);
    }

    fn entry(name: &str, kind: SeriesKind, values: &[f64]) -> SeriesEntry {
        SeriesEntry {
            name: name.to_string(),
            kind,
            raw: values
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample { tick: i as u64, wall_ms: i as u64 * 100, value: v })
                .collect(),
            rate: match kind {
                SeriesKind::Counter => values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| Sample {
                        tick: i as u64,
                        wall_ms: i as u64 * 100,
                        value: v,
                    })
                    .collect(),
                SeriesKind::Gauge => Vec::new(),
            },
        }
    }

    #[test]
    fn top_renders_all_sections_from_a_doc() {
        let doc = SeriesDoc {
            tick: 42,
            wall_ms: 12_400,
            series: vec![
                entry("serve.channel.expected_wait.0", SeriesKind::Gauge, &[0.2, 0.21]),
                entry("serve.channel.expected_wait.1", SeriesKind::Gauge, &[0.1, 0.09]),
                entry("serve.channel.load.0", SeriesKind::Gauge, &[0.6, 0.6]),
                entry("serve.channel.load.1", SeriesKind::Gauge, &[0.4, 0.4]),
                entry("serve.audit.residual.0", SeriesKind::Gauge, &[0.01, 0.0153]),
                entry("serve.drift_distance", SeriesKind::Gauge, &[0.01, 0.3, 0.02]),
                entry("serve.generation", SeriesKind::Gauge, &[0.0, 1.0]),
                entry("serve.requests", SeriesKind::Counter, &[100.0, 250.0]),
                entry("serve.slo.burn_rate", SeriesKind::Gauge, &[0.2, 1.4]),
                entry("serve.slo.target_wait", SeriesKind::Gauge, &[0.41]),
                entry("serve.swaps", SeriesKind::Counter, &[0.0, 1.0]),
            ],
            histograms: Vec::new(),
        };
        let text = render_top(&doc, &TopOptions::default());
        assert!(text.contains("dbcast top — tick 42 · swaps 1"), "{text}");
        for needle in ["req/s", "drift L1", "SLO burn", "generation", "ch0", "ch1"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        // Channel 0 has an audit residual series, channel 1 does not.
        assert!(text.contains("resid  +0.0153"), "residual column:\n{text}");
        assert!(text.contains("resid        -"), "missing residual dash:\n{text}");
        assert!(text.contains('▁') || text.contains('▄'), "no sparkline:\n{text}");
        // Plain mode carries no ANSI escapes.
        assert!(!text.contains('\x1b'), "escapes in plain render:\n{text}");

        let colored = render_top(&doc, &TopOptions { color: true, width: 40 });
        assert!(colored.contains("\x1b[31m"), "burn rate 1.4 should paint red");
    }

    #[test]
    fn top_renders_the_fleet_panel_when_uplink_series_exist() {
        let doc = SeriesDoc {
            tick: 3,
            wall_ms: 900,
            series: vec![
                entry("fleet.clients", SeriesKind::Gauge, &[8.0]),
                entry("fleet.stragglers", SeriesKind::Gauge, &[1.0]),
                entry("fleet.uplink.digests", SeriesKind::Counter, &[24.0]),
                entry("fleet.generation.access.0", SeriesKind::Gauge, &[0.42]),
                entry("fleet.generation.predicted.0", SeriesKind::Gauge, &[0.40]),
                entry("fleet.generation.gap.0", SeriesKind::Gauge, &[0.05]),
            ],
            histograms: Vec::new(),
        };
        let text = render_top(&doc, &TopOptions::default());
        assert!(text.contains("fleet (telemetry uplink):"), "{text}");
        assert!(text.contains("clients    8"), "{text}");
        assert!(text.contains("1 straggling"), "{text}");
        assert!(text.contains("digests 24"), "{text}");
        assert!(text.contains("gen0"), "{text}");
        assert!(text.contains("gap    5.0%"), "{text}");

        // No fleet series → no fleet panel.
        let bare =
            SeriesDoc { tick: 0, wall_ms: 0, series: Vec::new(), histograms: Vec::new() };
        assert!(!render_top(&bare, &TopOptions::default()).contains("fleet"));
    }

    #[test]
    fn empty_doc_renders_just_the_header() {
        let doc =
            SeriesDoc { tick: 0, wall_ms: 0, series: Vec::new(), histograms: Vec::new() };
        let text = render_top(&doc, &TopOptions::default());
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("dbcast top"));
    }
}
