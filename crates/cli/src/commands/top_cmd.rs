//! `dbcast top` — the live operator console: polls a serving process's
//! `/metrics` exposition (see `dbcast serve --listen`), keeps a window
//! of at most `--width` scrapes and renders sparklines/tables for
//! req/s, drift score, SLO burn rate, swap history, wait quantiles over
//! the window and the per-channel Eq. 2 `W_i` table.
//!
//! Counter rates come from successive scrapes (a counter that drops
//! has reset, so its new value is the delta — the watchdog's
//! [`counter_rate`] rule). Wait quantiles come from the difference of
//! the cumulative `serve_wait_bucket{le}` counts between the oldest and
//! newest scrape in the window.
//!
//! `--once` takes two scrapes `--interval-ms` apart (so `req/s` has a
//! rate), renders a single plain (no ANSI) frame and exits — the form
//! CI and non-TTY pipelines consume. Without it the console clears and
//! redraws after every scrape until `--frames` is reached (or forever).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dbcast_flight::watchdog::counter_rate;
use dbcast_obs::metrics::{bucket_index, bucket_lower_bound, bucket_upper_bound, BUCKETS};
use dbcast_obs::openmetrics::{self, Family, FamilyKind};

use crate::args::Args;
use crate::commands::CliError;

/// Runs the console against `--addr HOST:PORT`.
///
/// # Errors
///
/// `--interval-ms 0`, connection failures, non-200 responses and
/// scrapes that fail the strict OpenMetrics parser all fail the
/// command.
pub fn run_top(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let addr = args.require::<String>("addr")?;
    let once = args.switch("once");
    let interval_ms = args.opt_or("interval-ms", 1000u64)?;
    if interval_ms == 0 {
        return Err(CliError::InvalidOption(
            "--interval-ms 0; top needs a positive scrape interval".to_string(),
        ));
    }
    let interval = Duration::from_millis(interval_ms);
    let frames = args.opt::<u64>("frames")?;
    let width = args.opt_or("width", 40usize)?;

    let start = Instant::now();
    let mut window = VecDeque::new();
    let mut rendered = 0u64;
    loop {
        if window.len() >= width.max(2) {
            window.pop_front();
        }
        window.push_back(scrape(&addr, start)?);
        if once && window.len() < 2 {
            std::thread::sleep(interval);
            continue;
        }
        let frame = render(&window, !once, width);
        if once {
            write!(out, "{frame}")?;
            return Ok(());
        }
        write!(out, "\x1b[2J\x1b[H{frame}")?;
        out.flush()?;
        rendered += 1;
        if frames.is_some_and(|f| rendered >= f) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// One parsed `/metrics` scrape and when it was taken.
struct Scrape {
    /// Milliseconds since the console started.
    wall_ms: u64,
    families: Vec<Family>,
}

impl Scrape {
    /// The sample named exactly `name` (e.g. `serve_requests_total`).
    fn value(&self, name: &str) -> Option<f64> {
        openmetrics::sample_value(&self.families, name)
    }

    /// Dense per-bucket (not cumulative) counts of histogram `family`.
    fn buckets(&self, family: &str) -> Option<[u64; BUCKETS]> {
        let f = self
            .families
            .iter()
            .find(|f| f.name == family && f.kind == FamilyKind::Histogram)?;
        let mut dense = [0u64; BUCKETS];
        let mut below = 0.0;
        for s in f.samples.iter().filter(|s| s.name.ends_with("_bucket")) {
            // `+Inf` repeats `_count`; every finite `le` is a bucket's
            // upper bound.
            let Some(le) = s
                .labels
                .iter()
                .find_map(|(k, v)| (k == "le").then(|| v.parse::<u64>().ok()).flatten())
            else {
                continue;
            };
            dense[bucket_index(le)] += (s.value - below).max(0.0) as u64;
            below = s.value;
        }
        Some(dense)
    }
}

fn scrape(addr: &str, start: Instant) -> Result<Scrape, CliError> {
    let body = super::http_get(addr, "/metrics")?;
    let families = openmetrics::parse(&body)
        .map_err(|e| CliError::Scrape(format!("/metrics from {addr}: {e}")))?;
    Ok(Scrape { wall_ms: start.elapsed().as_millis() as u64, families })
}

/// `name`'s value in every scrape of the window that carries it,
/// oldest first.
fn values(window: &VecDeque<Scrape>, name: &str) -> Vec<f64> {
    window.iter().filter_map(|s| s.value(name)).collect()
}

/// `name`'s value in the newest scrape.
fn last(window: &VecDeque<Scrape>, name: &str) -> Option<f64> {
    window.back().and_then(|s| s.value(name))
}

/// Per-second rates of counter sample `name` between successive
/// scrapes, oldest first; pairs taken within the same millisecond
/// carry no rate.
fn rates(window: &VecDeque<Scrape>, name: &str) -> Vec<f64> {
    let points: Vec<(u64, f64)> =
        window.iter().filter_map(|s| Some((s.wall_ms, s.value(name)?))).collect();
    points
        .windows(2)
        .filter_map(|p| counter_rate(p[0].1, p[1].1, p[1].0.saturating_sub(p[0].0)))
        .collect()
}

/// Quantiles of the histogram `family`'s observations that arrived
/// between the oldest and newest scrape in the window: `(count, p50,
/// p90, p99)` at bucket midpoints. A lone scrape, or a cumulative count
/// that dropped (the source reset), counts everything in the newest.
fn window_quantiles(window: &VecDeque<Scrape>, family: &str) -> Option<(u64, [f64; 3])> {
    let newest = window.back()?.buckets(family)?;
    let mut delta = newest;
    if let Some(oldest) = window.front().filter(|_| window.len() > 1) {
        let oldest = oldest.buckets(family).unwrap_or([0; BUCKETS]);
        if newest.iter().sum::<u64>() >= oldest.iter().sum::<u64>() {
            for (d, o) in delta.iter_mut().zip(oldest) {
                *d = d.saturating_sub(o);
            }
        }
    }
    let count: u64 = delta.iter().sum();
    let quantile = |q: f64| -> f64 {
        if count == 0 {
            return 0.0;
        }
        let target = (q * count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in delta.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
                return (lo + (hi - lo) / 2) as f64;
            }
        }
        bucket_upper_bound(BUCKETS - 1) as f64
    };
    Some((count, [quantile(0.5), quantile(0.9), quantile(0.99)]))
}

/// Gauge families named `<prefix><index>`, as `(index, family name)`
/// in exposition (sorted registry-name) order.
fn indexed<'a>(
    window: &'a VecDeque<Scrape>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a str, &'a str)> {
    window.back().into_iter().flat_map(move |s| {
        s.families.iter().filter(|f| f.kind == FamilyKind::Gauge).filter_map(move |f| {
            f.name.strip_prefix(prefix).map(|index| (index, f.name.as_str()))
        })
    })
}

/// Sparkline glyphs, shortest to tallest.
const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

const RESET: &str = "\x1b[0m";
const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const RED: &str = "\x1b[31m";
const GREEN: &str = "\x1b[32m";
const YELLOW: &str = "\x1b[33m";
const CYAN: &str = "\x1b[36m";

/// Renders `values` as a sparkline, newest `width` values, scaled to
/// the drawn window's min/max. Constant (or single-sample) windows
/// draw at mid height — a sparkline is never empty when data exists.
fn sparkline(values: &[f64], width: usize) -> String {
    let window = &values[values.len().saturating_sub(width)..];
    let lo = window.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
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

/// Renders one `dbcast top` frame from the scrape window. Sections
/// whose metrics are absent are skipped, so the console degrades
/// gracefully against non-recording or non-serve processes.
fn render(window: &VecDeque<Scrape>, color: bool, width: usize) -> String {
    let paint = |code: &str, text: &str| {
        if color {
            format!("{code}{text}{RESET}")
        } else {
            text.to_string()
        }
    };
    let count = |name: &str| last(window, name).map_or(0, |v| v as u64);
    let mut out = String::with_capacity(2048);

    let header = format!(
        "dbcast top — tick {} · swaps {} · {} families",
        count("serve_ticks_total"),
        count("serve_swaps_total"),
        window.back().map_or(0, |s| s.families.len())
    );
    out.push_str(&paint(BOLD, &header));
    out.push('\n');

    let mut row = |label: &str, value: String, values: &[f64], note: String| {
        out.push_str(&format!(
            " {label:<12} {value:>10}  {}  {}\n",
            sparkline(values, width),
            paint(DIM, &note)
        ));
    };

    let req = rates(window, "serve_requests_total");
    if let Some(&now) = req.last() {
        let served = format!("({} served)", count("serve_requests_total"));
        row("req/s", fmt_value(now), &req, served);
    }
    let drift = values(window, "serve_drift_distance");
    if let Some(&now) = drift.last() {
        let dispatched = last(window, "serve_drift_events_total")
            .map(|v| format!("({} repairs dispatched)", v as u64))
            .unwrap_or_default();
        row("drift score", fmt_value(now), &drift, dispatched);
    }
    let burn = values(window, "serve_slo_burn_rate");
    if let Some(&now) = burn.last() {
        let status = if now > 1.0 { paint(RED, "BURNING") } else { paint(GREEN, "ok") };
        let note = match last(window, "serve_slo_target_wait") {
            Some(t) => format!("(target W_b {}s, {status})", fmt_value(t)),
            None => format!("({status})"),
        };
        row("SLO burn", fmt_value(now), &burn, note);
    }
    let generation = values(window, "serve_generation");
    if let Some(&now) = generation.last() {
        row("generation", (now as u64).to_string(), &generation, "(swap history)".into());
    }
    if let Some((obs, [p50, p90, p99])) = window_quantiles(window, "serve_wait") {
        out.push_str(&format!(
            " {:<12} p50 {} / p90 {} / p99 {} µs  {}\n",
            "wait",
            fmt_value(p50),
            fmt_value(p90),
            fmt_value(p99),
            paint(DIM, &format!("({obs} obs over {} scrapes)", window.len() - 1))
        ));
    }

    // Per-channel Eq. 2 table: `serve.channel.expected_wait.<i>` is
    // channel i's contribution to the analytical wait (F_i·Z_i / 2b),
    // `serve.channel.load.<i>` its share of the access probability and
    // `serve.audit.residual.<i>` the audit tracer's observed-minus-
    // predicted mean wait ("-" until the tracer has observations).
    let mut channels = indexed(window, "serve_channel_expected_wait_").peekable();
    if channels.peek().is_some() {
        out.push_str(&paint(CYAN, "channels (Eq. 2 W_i seconds vs load F_i):\n"));
        for (index, family) in channels {
            let load = last(window, &format!("serve_channel_load_{index}")).unwrap_or(0.0);
            let residual = last(window, &format!("serve_audit_residual_{index}"))
                .map_or_else(|| "-".to_string(), |r| format!("{r:+.4}"));
            let waits = values(window, family);
            out.push_str(&format!(
                "  ch{index:<3} load {:>7}  W {:>8}  resid {:>8}  {}\n",
                fmt_value(load),
                fmt_value(waits.last().copied().unwrap_or(0.0)),
                residual,
                sparkline(&waits, width)
            ));
        }
    }

    // Fleet panel: populated when the process runs a telemetry uplink
    // (`serve --listen-uplink`). Shows the connected-client census, the
    // stragglers trailing the published generation, digest throughput
    // and the live observed-vs-Eq. 2 access-time gap per generation.
    if let Some(clients) = last(window, "fleet_clients") {
        let stragglers = count("fleet_stragglers");
        out.push_str(&paint(CYAN, "fleet (telemetry uplink):\n"));
        let lag = if stragglers > 0 {
            paint(RED, &format!("{stragglers} straggling"))
        } else {
            paint(GREEN, "0 straggling")
        };
        out.push_str(&format!(
            "  clients {:>4}  {lag}  digests {}\n",
            clients as u64,
            count("fleet_uplink_digests_total")
        ));
        for (index, family) in indexed(window, "fleet_generation_gap_") {
            let observed =
                last(window, &format!("fleet_generation_access_{index}")).unwrap_or(0.0);
            let predicted =
                last(window, &format!("fleet_generation_predicted_{index}")).unwrap_or(0.0);
            let gaps = values(window, family);
            out.push_str(&format!(
                "  gen{index:<3} obs {:>8}s  Eq.2 {:>8}s  gap {:>7}  {}\n",
                fmt_value(observed),
                fmt_value(predicted),
                format!("{:.1}%", gaps.last().copied().unwrap_or(0.0) * 100.0),
                sparkline(&gaps, width)
            ));
        }
    }

    let firings = count("scope_watchdog_firings_total");
    if firings > 0 {
        out.push_str(&paint(YELLOW, &format!(" watchdog: {firings} rule(s) fired\n")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_obs::metrics::HistogramSnapshot;
    use dbcast_obs::snapshot::Snapshot;

    fn scrape_of(wall_ms: u64, counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> Scrape {
        let mut snap = Snapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            gauges: gauges.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            histograms: Vec::new(),
        };
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        with_snapshot(wall_ms, &snap)
    }

    fn with_snapshot(wall_ms: u64, snap: &Snapshot) -> Scrape {
        let text = openmetrics::render(snap);
        Scrape { wall_ms, families: openmetrics::parse(&text).expect("own render parses") }
    }

    /// A `serve.wait` histogram snapshot from `(upper_bound, count)`
    /// per-bucket pairs.
    fn wait_hist(buckets: &[(u64, u64)]) -> Snapshot {
        let count = buckets.iter().map(|&(_, c)| c).sum();
        Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![(
                "serve.wait".to_string(),
                HistogramSnapshot {
                    count,
                    sum: 0,
                    mean: 0.0,
                    min: 0,
                    max: 0,
                    p50: 0,
                    p90: 0,
                    p95: 0,
                    p99: 0,
                    buckets: buckets.to_vec(),
                },
            )],
        }
    }

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

    #[test]
    fn window_rates_are_per_second_and_reset_tolerant() {
        let window: VecDeque<Scrape> = [
            (0, 0),
            (1000, 50), // 50/s
            (1500, 75), // 25 over 0.5s = 50/s
            (1500, 80), // dt 0 → skipped
            (2500, 10), // reset: 10 counted since, over 1s
            (3500, 10), // idle
        ]
        .into_iter()
        .map(|(ms, v)| scrape_of(ms, &[("serve.requests", v)], &[]))
        .collect();
        assert_eq!(rates(&window, "serve_requests_total"), [50.0, 50.0, 10.0, 0.0]);
    }

    #[test]
    fn wait_quantiles_come_from_bucket_deltas_across_the_window() {
        // 100 observations in [64, 127], then 100 more in [1024, 2047].
        let mut window = VecDeque::from([with_snapshot(0, &wait_hist(&[(127, 100)]))]);
        let (count, [p50, ..]) = window_quantiles(&window, "serve_wait").unwrap();
        assert_eq!((count, p50), (100, 95.0), "a lone scrape counts everything");
        window.push_back(with_snapshot(250, &wait_hist(&[(127, 100), (2047, 100)])));
        let (count, [p50, p90, p99]) = window_quantiles(&window, "serve_wait").unwrap();
        assert_eq!(count, 100);
        assert_eq!([p50, p90, p99], [1535.0; 3]);
        // A reset (the cumulative count drops) counts the newest alone.
        window.push_back(with_snapshot(500, &wait_hist(&[(15, 3)])));
        let (count, [p50, ..]) = window_quantiles(&window, "serve_wait").unwrap();
        assert_eq!((count, p50), (3, 11.0));
        assert!(window_quantiles(&window, "serve_missing").is_none());
    }

    #[test]
    fn top_renders_all_sections_from_a_window() {
        let counters = |requests, swaps| {
            [("serve.requests", requests), ("serve.swaps", swaps), ("serve.ticks", 42)]
        };
        let window = VecDeque::from([
            scrape_of(
                0,
                &counters(100, 0),
                &[
                    ("serve.channel.expected_wait.0", 0.2),
                    ("serve.channel.expected_wait.1", 0.1),
                    ("serve.drift_distance", 0.01),
                    ("serve.generation", 0.0),
                    ("serve.slo.burn_rate", 0.2),
                ],
            ),
            scrape_of(
                1000,
                &counters(250, 1),
                &[
                    ("serve.audit.residual.0", 0.0153),
                    ("serve.channel.expected_wait.0", 0.21),
                    ("serve.channel.expected_wait.1", 0.09),
                    ("serve.channel.load.0", 0.6),
                    ("serve.channel.load.1", 0.4),
                    ("serve.drift_distance", 0.3),
                    ("serve.generation", 1.0),
                    ("serve.slo.burn_rate", 1.4),
                    ("serve.slo.target_wait", 0.41),
                ],
            ),
        ]);
        let text = render(&window, false, 40);
        assert!(text.contains("dbcast top — tick 42 · swaps 1"), "{text}");
        assert!(
            text.lines().any(|l| l.starts_with(" req/s") && l.contains(" 150.00 ")),
            "100 → 250 requests over 1 s:\n{text}"
        );
        for needle in ["drift score", "SLO burn", "generation", "ch0", "ch1"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        // Channel 0 has an audit residual, channel 1 does not.
        assert!(text.contains("resid  +0.0153"), "residual column:\n{text}");
        assert!(text.contains("resid        -"), "missing residual dash:\n{text}");
        assert!(text.contains('▁') || text.contains('▄'), "no sparkline:\n{text}");
        // Plain mode carries no ANSI escapes.
        assert!(!text.contains('\x1b'), "escapes in plain render:\n{text}");

        let colored = render(&window, true, 40);
        assert!(colored.contains(RED), "burn rate 1.4 should paint red");
    }

    #[test]
    fn top_renders_the_fleet_panel_when_uplink_metrics_exist() {
        let window = VecDeque::from([scrape_of(
            0,
            &[("fleet.uplink.digests", 24), ("scope.watchdog.firings", 2)],
            &[
                ("fleet.clients", 8.0),
                ("fleet.generation.access.0", 0.42),
                ("fleet.generation.gap.0", 0.05),
                ("fleet.generation.predicted.0", 0.40),
                ("fleet.stragglers", 1.0),
            ],
        )]);
        let text = render(&window, false, 40);
        assert!(text.contains("fleet (telemetry uplink):"), "{text}");
        assert!(text.contains("clients    8"), "{text}");
        assert!(text.contains("1 straggling"), "{text}");
        assert!(text.contains("digests 24"), "{text}");
        assert!(text.contains("gen0"), "{text}");
        assert!(text.contains("gap    5.0%"), "{text}");
        assert!(text.contains("watchdog: 2 rule(s) fired"), "{text}");

        // No fleet metrics → no fleet panel; an empty scrape renders
        // just the header.
        let bare = VecDeque::from([scrape_of(0, &[], &[])]);
        let text = render(&bare, false, 40);
        assert!(!text.contains("fleet"));
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("dbcast top"));
    }

    fn top(args: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(std::iter::once("top").chain(args.iter().copied())).unwrap();
        let mut out = Vec::new();
        run_top(&args, &mut out).map(|()| String::from_utf8(out).unwrap())
    }

    #[test]
    fn once_scrapes_twice_and_renders_one_plain_frame() {
        let r = dbcast_obs::registry();
        r.counter("serve.requests").force_add(120);
        r.gauge("serve.drift_distance").force_set(0.07);
        let server = dbcast_flight::ExpositionServer::bind(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let text = top(&["--addr", &addr, "--once", "--interval-ms", "20"]).unwrap();
        assert!(text.starts_with("dbcast top — tick"), "{text}");
        assert!(text.contains("req/s"), "two scrapes give a rate:\n{text}");
        assert!(text.contains("drift score"), "{text}");
        assert!(!text.contains('\x1b'), "--once must be ANSI-free:\n{text}");
    }

    #[test]
    fn a_zero_interval_is_rejected() {
        let err = top(&["--addr", "127.0.0.1:9", "--once", "--interval-ms", "0"]);
        assert!(
            matches!(err, Err(CliError::InvalidOption(m)) if m.contains("interval-ms"))
        );
    }

    #[test]
    fn scrape_failures_are_reported() {
        // Nothing listens on a port whose listener was just dropped.
        let addr =
            std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let err = top(&["--addr", &addr.to_string(), "--once"]);
        assert!(matches!(err, Err(CliError::Scrape(_))), "{err:?}");
    }
}
