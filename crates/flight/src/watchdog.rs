//! Watchdog rules over the live obs registry: threshold and stall
//! predicates that must hold for a sustained window before firing.
//! A firing is latched (once per rule per process), emits a `watchdog`
//! flight event, fires a postmortem incident dump when one is armed,
//! and bumps `scope.watchdog.firings` — the CLI turns any firing into
//! a non-zero exit for CI drills.
//!
//! Rule specs are parsed from compact operator strings:
//!
//! ```text
//! serve.slo.burn_rate > 1 for 5s            value threshold, wall window
//! rate(serve.requests) < 10 for 2s          derived-rate threshold
//! serve.drift_distance > 0.15 for 40 ticks  virtual-tick window
//! stall(serve.swaps) while serve.drift_distance > 0.15 for 50 ticks
//! ```
//!
//! The `stall` form watches a *progress counter* under a guard: if the
//! guard predicate holds continuously for the window and the counter
//! never advances, the rule fires — "drift detected but no repair
//! dispatched within N ticks".
//!
//! A signal reads the registry by name without interning it
//! ([`Registry::counter_value`](dbcast_obs::Registry::counter_value),
//! then [`gauge_value`](dbcast_obs::Registry::gauge_value)), so a rule
//! naming an absent metric simply never fires and never publishes a
//! zero-valued metric of that name.

use std::fmt;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{postmortem, recorder, EventKind, FlightEvent};

/// How often a [`WatchdogThread`] checks its rules.
pub const CHECK_PERIOD: Duration = Duration::from_millis(50);

/// Per-second rate of a cumulative counter read `dt_ms` apart. A drop
/// means the source reset, so everything in `now` was counted since:
/// the delta is `now` itself and the rate is never negative. `None`
/// when `dt_ms` is 0 (no meaningful rate).
pub fn counter_rate(before: f64, now: f64, dt_ms: u64) -> Option<f64> {
    let delta = if now >= before { now - before } else { now.max(0.0) };
    (dt_ms > 0).then(|| delta / (dt_ms as f64 / 1000.0))
}

/// The current value of the counter or gauge `name`, interning
/// nothing.
fn metric_value(name: &str) -> Option<f64> {
    let r = dbcast_obs::registry();
    r.counter_value(name).map(|v| v as f64).or_else(|| r.gauge_value(name))
}

/// What a rule reads from the registry each check.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// The current value of a counter or gauge.
    Value(String),
    /// The per-second rate of a counter since the previous check.
    Rate(String),
}

/// A rate signal's memory between checks: the previous read and the
/// newest rate derived from it.
#[derive(Debug, Clone, Copy, Default)]
struct RateState {
    last: Option<(f64, u64)>,
    rate: Option<f64>,
}

impl Signal {
    fn resolve(&self, rate: &mut RateState, wall_ms: u64) -> Option<f64> {
        match self {
            Signal::Value(name) => metric_value(name),
            Signal::Rate(name) => {
                let now = metric_value(name)?;
                if let Some((before, at)) = rate.last {
                    if let Some(r) = counter_rate(before, now, wall_ms.saturating_sub(at)) {
                        rate.rate = Some(r);
                    }
                }
                rate.last = Some((now, wall_ms));
                rate.rate
            }
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Value(n) => write!(f, "{n}"),
            Signal::Rate(n) => write!(f, "rate({n})"),
        }
    }
}

/// Comparison against the rule threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Signal strictly above the threshold.
    Above(f64),
    /// Signal strictly below the threshold.
    Below(f64),
}

impl Predicate {
    fn holds(&self, v: f64) -> bool {
        match *self {
            Predicate::Above(t) => v > t,
            Predicate::Below(t) => v < t,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Above(t) => write!(f, "> {t}"),
            Predicate::Below(t) => write!(f, "< {t}"),
        }
    }
}

/// How long a condition must hold before the rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Wall-clock milliseconds.
    WallMs(u64),
    /// Serving-loop virtual ticks.
    Ticks(u64),
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Window::WallMs(ms) => write!(f, "{ms}ms"),
            Window::Ticks(t) => write!(f, "{t} ticks"),
        }
    }
}

/// One watchdog rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// `signal predicate` must hold continuously for `window`.
    Threshold { signal: Signal, predicate: Predicate, window: Window },
    /// While `guard_signal guard_predicate` holds, the `watched`
    /// counter must advance within `window`, else the rule fires.
    Stall {
        watched: String,
        guard_signal: Signal,
        guard_predicate: Predicate,
        window: Window,
    },
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Threshold { signal, predicate, window } => {
                write!(f, "{signal} {predicate} for {window}")
            }
            Rule::Stall { watched, guard_signal, guard_predicate, window } => {
                write!(
                    f,
                    "stall({watched}) while {guard_signal} {guard_predicate} for {window}"
                )
            }
        }
    }
}

/// A rule spec that failed to parse, with the reason.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogParseError {
    /// The offending spec.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for WatchdogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad watchdog rule {:?}: {}", self.spec, self.reason)
    }
}

impl std::error::Error for WatchdogParseError {}

fn parse_err(spec: &str, reason: impl Into<String>) -> WatchdogParseError {
    WatchdogParseError { spec: spec.to_string(), reason: reason.into() }
}

fn parse_signal(token: &str) -> Option<Signal> {
    if let Some(inner) = token.strip_prefix("rate(").and_then(|t| t.strip_suffix(')')) {
        (!inner.is_empty()).then(|| Signal::Rate(inner.to_string()))
    } else {
        (!token.is_empty() && !token.contains('('))
            .then(|| Signal::Value(token.to_string()))
    }
}

fn parse_window(tokens: &[&str], spec: &str) -> Result<Window, WatchdogParseError> {
    match tokens {
        [dur] => {
            if let Some(ms) = dur.strip_suffix("ms") {
                ms.parse::<u64>()
                    .map(Window::WallMs)
                    .map_err(|_| parse_err(spec, format!("bad millisecond window {dur:?}")))
            } else if let Some(s) = dur.strip_suffix('s') {
                s.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .map(|v| Window::WallMs((v * 1000.0).round() as u64))
                    .ok_or_else(|| parse_err(spec, format!("bad second window {dur:?}")))
            } else {
                Err(parse_err(spec, format!("window {dur:?} needs an ms/s/ticks unit")))
            }
        }
        [n, unit] if *unit == "ticks" || *unit == "tick" => n
            .parse::<u64>()
            .map(Window::Ticks)
            .map_err(|_| parse_err(spec, format!("bad tick window {n:?}"))),
        _ => Err(parse_err(spec, "expected `for <duration>`".to_string())),
    }
}

/// Parses one rule spec (see the module docs for the grammar).
///
/// # Errors
///
/// Returns [`WatchdogParseError`] describing the malformed spec.
pub fn parse_rule(spec: &str) -> Result<Rule, WatchdogParseError> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    let (stall_target, rest) = match tokens.as_slice() {
        [first, "while", rest @ ..] => {
            let watched = first
                .strip_prefix("stall(")
                .and_then(|t| t.strip_suffix(')'))
                .filter(|t| !t.is_empty())
                .ok_or_else(|| parse_err(spec, "expected `stall(<counter>) while …`"))?;
            (Some(watched.to_string()), rest)
        }
        rest => (None, rest),
    };
    match rest {
        [signal, op, threshold, "for", window @ ..] => {
            let signal = parse_signal(signal)
                .ok_or_else(|| parse_err(spec, format!("bad signal {signal:?}")))?;
            let value: f64 = threshold
                .parse()
                .map_err(|_| parse_err(spec, format!("bad threshold {threshold:?}")))?;
            let predicate = match *op {
                ">" => Predicate::Above(value),
                "<" => Predicate::Below(value),
                other => return Err(parse_err(spec, format!("bad operator {other:?}"))),
            };
            let window = parse_window(window, spec)?;
            Ok(match stall_target {
                Some(watched) => Rule::Stall {
                    watched,
                    guard_signal: signal,
                    guard_predicate: predicate,
                    window,
                },
                None => Rule::Threshold { signal, predicate, window },
            })
        }
        _ => Err(parse_err(spec, "expected `<signal> <op> <threshold> for <window>`")),
    }
}

/// Parses a `;`-separated rule list (empty segments are skipped, so a
/// trailing separator is harmless).
///
/// # Errors
///
/// Returns the first [`WatchdogParseError`] encountered.
pub fn parse_rules(specs: &str) -> Result<Vec<Rule>, WatchdogParseError> {
    specs.split(';').map(str::trim).filter(|s| !s.is_empty()).map(parse_rule).collect()
}

/// One latched rule firing.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// The rule, rendered back to its spec form.
    pub rule: String,
    /// The signal value observed when the rule fired.
    pub observed: f64,
    /// Virtual tick at firing time.
    pub tick: u64,
    /// Watchdog wall clock at firing time (ms).
    pub wall_ms: u64,
    /// Path of the postmortem dump, when one was armed and written.
    pub postmortem: Option<std::path::PathBuf>,
}

/// The hold state a condition accumulates across checks.
#[derive(Debug, Clone, Copy)]
struct Hold {
    since_wall_ms: u64,
    since_tick: u64,
    /// Stall rules: the watched counter's value when the guard armed.
    base: f64,
}

#[derive(Debug, Clone)]
struct RuleState {
    rule: Rule,
    hold: Option<Hold>,
    rate: RateState,
    fired: bool,
}

/// Evaluates a rule set against the global registry; call
/// [`check`](Self::check) periodically, or [`spawn`](Self::spawn) a
/// thread that does.
#[derive(Debug, Clone)]
pub struct Watchdog {
    start: Instant,
    rules: Vec<RuleState>,
    firings: Vec<Firing>,
}

impl Watchdog {
    /// A watchdog over `rules`; its wall clock starts now.
    pub fn new(rules: Vec<Rule>) -> Self {
        Watchdog {
            start: Instant::now(),
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    hold: None,
                    rate: RateState::default(),
                    fired: false,
                })
                .collect(),
            firings: Vec::new(),
        }
    }

    /// All latched firings so far.
    pub fn firings(&self) -> &[Firing] {
        &self.firings
    }

    /// Evaluates every rule now, stamped with the `serve.ticks`
    /// counter and the watchdog's wall clock; returns the rules that
    /// newly fired during this check.
    pub fn check(&mut self) -> Vec<Firing> {
        let tick = dbcast_obs::registry().counter_value("serve.ticks").unwrap_or(0);
        self.check_at(tick, self.start.elapsed().as_millis() as u64)
    }

    /// [`check`](Self::check) with an explicit `(tick, wall_ms)` stamp
    /// — what deterministic tests drive.
    pub fn check_at(&mut self, tick: u64, wall_ms: u64) -> Vec<Firing> {
        let mut new = Vec::new();
        for (index, state) in self.rules.iter_mut().enumerate() {
            if state.fired {
                continue;
            }
            let fired_value = match &state.rule {
                Rule::Threshold { signal, predicate, window } => {
                    match signal.resolve(&mut state.rate, wall_ms) {
                        Some(v) if predicate.holds(v) => {
                            let hold = state.hold.get_or_insert(Hold {
                                since_wall_ms: wall_ms,
                                since_tick: tick,
                                base: 0.0,
                            });
                            window_elapsed(*window, hold, tick, wall_ms).then_some(v)
                        }
                        _ => {
                            state.hold = None;
                            None
                        }
                    }
                }
                Rule::Stall { watched, guard_signal, guard_predicate, window } => {
                    let guard = guard_signal.resolve(&mut state.rate, wall_ms);
                    match (guard, metric_value(watched)) {
                        (Some(g), Some(p)) if guard_predicate.holds(g) => {
                            let hold = state.hold.get_or_insert(Hold {
                                since_wall_ms: wall_ms,
                                since_tick: tick,
                                base: p,
                            });
                            if p > hold.base {
                                // Progress: restart the window from here.
                                *hold = Hold {
                                    since_wall_ms: wall_ms,
                                    since_tick: tick,
                                    base: p,
                                };
                                None
                            } else {
                                window_elapsed(*window, hold, tick, wall_ms).then_some(g)
                            }
                        }
                        _ => {
                            state.hold = None;
                            None
                        }
                    }
                }
            };
            if let Some(observed) = fired_value {
                state.fired = true;
                let firing = emit(&state.rule, index, observed, tick, wall_ms);
                new.push(firing.clone());
                self.firings.push(firing);
            }
        }
        new
    }

    /// Moves the watchdog onto a thread that checks every
    /// [`CHECK_PERIOD`] until [`WatchdogThread::stop`].
    ///
    /// # Errors
    ///
    /// The thread could not be spawned.
    pub fn spawn(mut self) -> std::io::Result<WatchdogThread> {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new().name("dbcast-watchdog".into()).spawn(
            move || {
                while let Err(RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(CHECK_PERIOD)
                {
                    self.check();
                }
                self
            },
        )?;
        Ok(WatchdogThread { stop: Some(stop), handle: Some(handle) })
    }
}

/// A [`Watchdog`] checking on its own thread. Dropping it without
/// [`stop`](Self::stop) joins the thread and discards the verdict.
#[derive(Debug)]
pub struct WatchdogThread {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<Watchdog>>,
}

impl WatchdogThread {
    /// Stops the thread, runs one final check (so short runs always
    /// end with a verdict on fresh values) and returns the latched
    /// firings.
    pub fn stop(mut self) -> Vec<Firing> {
        drop(self.stop.take());
        let handle = self.handle.take().expect("a running watchdog owns its thread");
        let mut dog =
            handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        dog.check();
        dog.firings
    }
}

impl Drop for WatchdogThread {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn window_elapsed(window: Window, hold: &Hold, tick: u64, wall_ms: u64) -> bool {
    match window {
        Window::WallMs(ms) => wall_ms.saturating_sub(hold.since_wall_ms) >= ms,
        Window::Ticks(t) => tick.saturating_sub(hold.since_tick) >= t,
    }
}

fn emit(rule: &Rule, index: usize, observed: f64, tick: u64, wall_ms: u64) -> Firing {
    let spec = rule.to_string();
    let generation = dbcast_obs::registry()
        .gauge_value("serve.generation")
        .map_or(0, |g| g.max(0.0) as u64);
    recorder().record(
        FlightEvent::new(EventKind::Watchdog, tick, generation, wall_ms as f64 / 1000.0)
            .value(observed)
            .extra(index as u64),
    );
    dbcast_obs::counter!("scope.watchdog.firings").inc();
    dbcast_obs::log::log(
        dbcast_obs::log::Level::Warn,
        format_args!("scope watchdog fired: {spec} (observed {observed})"),
    );
    let postmortem = postmortem::incident(&format!("watchdog: {spec}"));
    Firing { rule: spec, observed, tick, wall_ms, postmortem }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets each `t.test.*` gauge and raises each counter to the given
    /// cumulative value (counters only move forward here).
    fn feed(gauges: &[(&str, f64)], counters: &[(&str, u64)]) {
        let r = dbcast_obs::registry();
        for &(name, v) in gauges {
            r.gauge(name).force_set(v);
        }
        for &(name, v) in counters {
            let c = r.counter(name);
            c.force_add(v - c.get());
        }
    }

    #[test]
    fn grammar_round_trips() {
        for spec in [
            "serve.slo.burn_rate > 1 for 5s",
            "rate(serve.requests) < 10 for 1500ms",
            "serve.drift_distance > 0.3 for 40 ticks",
            "stall(serve.swaps) while serve.drift_distance > 0.25 for 50 ticks",
        ] {
            let rule = parse_rule(spec).expect(spec);
            let rendered = rule.to_string();
            assert_eq!(parse_rule(&rendered).unwrap(), rule, "{spec} → {rendered}");
        }
        assert_eq!(parse_rules("a > 1 for 1s; b < 2 for 2s;").unwrap().len(), 2);
        for bad in [
            "serve.x >= 1 for 5s",
            "serve.x > nope for 5s",
            "serve.x > 1 for 5 parsecs",
            "stall() while x > 1 for 5s",
            "for 5s",
        ] {
            assert!(parse_rule(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn threshold_rule_needs_a_sustained_hold() {
        let mut dog =
            Watchdog::new(vec![parse_rule("t.test.burn > 1 for 1000ms").unwrap()]);

        feed(&[("t.test.burn", 2.0)], &[]);
        assert!(dog.check_at(0, 0).is_empty(), "fired instantly");
        feed(&[("t.test.burn", 0.5)], &[]);
        assert!(dog.check_at(5, 500).is_empty());
        // Dip reset the hold: 900 ms above threshold is not enough…
        feed(&[("t.test.burn", 3.0)], &[]);
        assert!(dog.check_at(6, 600).is_empty());
        assert!(dog.check_at(15, 1500).is_empty());
        // …but 1000 ms is.
        feed(&[("t.test.burn", 4.0)], &[]);
        let fired = dog.check_at(16, 1600);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 4.0);
        assert_eq!(fired[0].tick, 16);
        // Latched: never fires again.
        feed(&[("t.test.burn", 9.0)], &[]);
        assert!(dog.check_at(30, 3000).is_empty());
        assert_eq!(dog.firings().len(), 1);
    }

    #[test]
    fn tick_windows_count_virtual_ticks() {
        let mut dog =
            Watchdog::new(vec![parse_rule("t.test.drift > 0.25 for 10 ticks").unwrap()]);
        feed(&[("t.test.drift", 0.5)], &[]);
        assert!(dog.check_at(100, 0).is_empty());
        assert!(dog.check_at(105, 1).is_empty());
        assert_eq!(dog.check_at(110, 2).len(), 1);
    }

    #[test]
    fn stall_rule_fires_only_without_progress() {
        let spec = "stall(t.test.repairs) while t.test.stall_drift > 0.25 for 20 ticks";
        let mut dog = Watchdog::new(vec![parse_rule(spec).unwrap()]);

        // Guard up, repairs advancing: window keeps restarting.
        feed(&[("t.test.stall_drift", 0.5)], &[("t.test.repairs", 0)]);
        dog.check_at(0, 0);
        feed(&[], &[("t.test.repairs", 1)]);
        assert!(dog.check_at(15, 100).is_empty());
        feed(&[], &[("t.test.repairs", 2)]);
        assert!(dog.check_at(30, 200).is_empty());
        // Repairs stop while the guard stays up: fires after 20 ticks.
        assert!(dog.check_at(45, 300).is_empty(), "window restarted at 30");
        let fired = dog.check_at(55, 400);
        assert_eq!(fired.len(), 1, "25 ticks without progress under guard");
        assert!(fired[0].rule.contains("stall(t.test.repairs)"));
    }

    #[test]
    fn stall_rule_resets_when_guard_drops() {
        let spec = "stall(t.test.idle_repairs) while t.test.guard > 0.25 for 10 ticks";
        let mut dog = Watchdog::new(vec![parse_rule(spec).unwrap()]);
        feed(&[("t.test.guard", 0.5)], &[("t.test.idle_repairs", 0)]);
        dog.check_at(0, 0);
        feed(&[("t.test.guard", 0.1)], &[]);
        assert!(dog.check_at(8, 100).is_empty());
        // Guard re-arms at tick 9; tick 12 is only 3 ticks in.
        feed(&[("t.test.guard", 0.5)], &[]);
        dog.check_at(9, 200);
        assert!(dog.check_at(12, 300).is_empty());
    }

    #[test]
    fn missing_signals_never_fire_and_are_never_published() {
        let mut dog = Watchdog::new(
            parse_rules(
                "t.test.no_such_metric > -1 for 0s; \
                 rate(t.test.no_such_rate) > -1 for 0s; \
                 stall(t.test.no_such_progress) while t.test.burn_guard < 1 for 0 ticks",
            )
            .unwrap(),
        );
        assert!(dog.check_at(0, 0).is_empty());
        assert!(dog.check_at(10, 10_000).is_empty());
        assert!(dog.check().is_empty());
        let exposition = dbcast_obs::openmetrics::render_global();
        for name in ["no_such_metric", "no_such_rate", "no_such_progress", "burn_guard"] {
            assert!(!exposition.contains(name), "{name} was interned:\n{exposition}");
        }
    }

    #[test]
    fn rates_are_per_second_and_reset_tolerant() {
        let signal = Signal::Rate("t.test.rate_seq".to_string());
        let mut state = RateState::default();
        let mut read = |wall_ms: u64, value: f64| {
            feed(&[("t.test.rate_seq", value)], &[]);
            signal.resolve(&mut state, wall_ms)
        };
        let rates = [
            read(0, 0.0),
            read(1000, 50.0), // 50/s
            read(1500, 75.0), // 25 over 0.5s = 50/s
            read(1500, 80.0), // dt 0 → no new rate
            read(2500, 10.0), // reset: 10 counted since, over 1s
            read(3500, 10.0), // idle
        ];
        assert_eq!(
            rates,
            [None, Some(50.0), Some(50.0), Some(50.0), Some(10.0), Some(0.0)]
        );
        assert_eq!(counter_rate(80.0, 10.0, 1000), Some(10.0));
        assert_eq!(counter_rate(1.0, 2.0, 0), None);
    }

    #[test]
    fn a_thread_checks_until_stopped_then_checks_once_more() {
        let dog = Watchdog::new(parse_rules("t.test.thread_flag > 0 for 0ms").unwrap());
        let running = dog.spawn().expect("watchdog thread spawns");
        // Raised after the last periodic check at the latest: the
        // final check on stop must still see it.
        feed(&[("t.test.thread_flag", 1.0)], &[]);
        let firings = running.stop();
        assert_eq!(firings.len(), 1, "{firings:?}");
        assert_eq!(firings[0].observed, 1.0);
    }
}
