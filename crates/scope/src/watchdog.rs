//! Watchdog rules over the series store: threshold and stall
//! predicates that must hold for a sustained window before firing.
//! A firing is latched (once per rule per process), emits a
//! [`dbcast_flight`] `watchdog` event, fires a postmortem incident
//! dump when one is armed, and bumps `scope.watchdog.firings` — the
//! CLI turns any firing into a non-zero exit for CI drills.
//!
//! Rule specs are parsed from compact operator strings:
//!
//! ```text
//! serve.slo.burn_rate > 1 for 5s            value threshold, wall window
//! rate(serve.requests) < 10 for 2s          derived-rate threshold
//! serve.drift_distance > 0.3 for 40 ticks   virtual-tick window
//! stall(serve.swaps) while serve.drift_detected > 0 for 50 ticks
//! ```
//!
//! The `stall` form watches a *progress counter* under a guard: if the
//! guard predicate holds continuously for the window and the counter
//! never advances, the rule fires — "drift detected but no repair
//! dispatched within N ticks".

use std::fmt;

use dbcast_flight::{postmortem, recorder, EventKind, FlightEvent};

use crate::store::SeriesStore;

/// What a rule reads from the store each check.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// The newest raw value of a series (counter or gauge).
    Value(String),
    /// The newest derived per-second rate of a counter.
    Rate(String),
}

impl Signal {
    fn resolve(&self, store: &SeriesStore) -> Option<f64> {
        match self {
            Signal::Value(name) => store.latest(name).map(|s| s.value),
            Signal::Rate(name) => store.latest_rate(name),
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
    /// Store wall clock at firing time (ms).
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
    fired: bool,
}

/// Evaluates a rule set against the store; call [`check`](Self::check)
/// once per scrape.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    rules: Vec<RuleState>,
    firings: Vec<Firing>,
}

impl Watchdog {
    /// A watchdog over `rules`.
    pub fn new(rules: Vec<Rule>) -> Self {
        Watchdog {
            rules: rules
                .into_iter()
                .map(|rule| RuleState { rule, hold: None, fired: false })
                .collect(),
            firings: Vec::new(),
        }
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// All latched firings so far.
    pub fn firings(&self) -> &[Firing] {
        &self.firings
    }

    /// Evaluates every rule at the store's current clock; returns the
    /// rules that newly fired during this check.
    pub fn check(&mut self, store: &SeriesStore) -> Vec<Firing> {
        self.check_at(store, store.latest_tick(), store.wall_ms())
    }

    /// [`check`](Self::check) with an explicit `(tick, wall_ms)` stamp
    /// — what the sampler uses, and what deterministic tests drive.
    pub fn check_at(
        &mut self,
        store: &SeriesStore,
        tick: u64,
        wall_ms: u64,
    ) -> Vec<Firing> {
        let mut new = Vec::new();
        for (index, state) in self.rules.iter_mut().enumerate() {
            if state.fired {
                continue;
            }
            let fired_value = match &state.rule {
                Rule::Threshold { signal, predicate, window } => {
                    let value = signal.resolve(store);
                    match value {
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
                    let guard = guard_signal.resolve(store);
                    let progress = store.latest(watched).map(|s| s.value);
                    match (guard, progress) {
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
                let firing = emit(&state.rule, index, observed, tick, wall_ms, store);
                new.push(firing.clone());
                self.firings.push(firing);
            }
        }
        new
    }
}

fn window_elapsed(window: Window, hold: &Hold, tick: u64, wall_ms: u64) -> bool {
    match window {
        Window::WallMs(ms) => wall_ms.saturating_sub(hold.since_wall_ms) >= ms,
        Window::Ticks(t) => tick.saturating_sub(hold.since_tick) >= t,
    }
}

fn emit(
    rule: &Rule,
    index: usize,
    observed: f64,
    tick: u64,
    wall_ms: u64,
    store: &SeriesStore,
) -> Firing {
    let spec = rule.to_string();
    let generation =
        store.latest("serve.generation").map(|s| s.value.max(0.0) as u64).unwrap_or(0);
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
    use crate::store::SeriesStore;
    use dbcast_obs::snapshot::Snapshot;

    fn feed(
        store: &SeriesStore,
        wall_ms: u64,
        tick: u64,
        gauges: Vec<(&str, f64)>,
        counters: Vec<(&str, u64)>,
    ) {
        let mut counters: Vec<(String, u64)> =
            counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
        counters.push(("serve.ticks".to_string(), tick));
        counters.sort();
        let snap = Snapshot {
            counters,
            gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: Vec::new(),
        };
        store.append_snapshot(&snap, wall_ms);
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
        let store = SeriesStore::default();
        let mut dog =
            Watchdog::new(vec![parse_rule("t.test.burn > 1 for 1000ms").unwrap()]);

        feed(&store, 0, 0, vec![("t.test.burn", 2.0)], vec![]);
        assert!(dog.check_at(&store, 0, 0).is_empty(), "fired instantly");
        feed(&store, 500, 5, vec![("t.test.burn", 0.5)], vec![]);
        assert!(dog.check_at(&store, 5, 500).is_empty());
        // Dip reset the hold: 900 ms above threshold is not enough…
        feed(&store, 600, 6, vec![("t.test.burn", 3.0)], vec![]);
        assert!(dog.check_at(&store, 6, 600).is_empty());
        feed(&store, 1500, 15, vec![("t.test.burn", 3.0)], vec![]);
        assert!(dog.check_at(&store, 15, 1500).is_empty());
        // …but 1000 ms is.
        feed(&store, 1600, 16, vec![("t.test.burn", 4.0)], vec![]);
        let fired = dog.check_at(&store, 16, 1600);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 4.0);
        assert_eq!(fired[0].tick, 16);
        // Latched: never fires again.
        feed(&store, 3000, 30, vec![("t.test.burn", 9.0)], vec![]);
        assert!(dog.check_at(&store, 30, 3000).is_empty());
        assert_eq!(dog.firings().len(), 1);
    }

    #[test]
    fn tick_windows_count_virtual_ticks() {
        let store = SeriesStore::default();
        let mut dog =
            Watchdog::new(vec![parse_rule("t.test.drift > 0.25 for 10 ticks").unwrap()]);
        feed(&store, 0, 100, vec![("t.test.drift", 0.5)], vec![]);
        assert!(dog.check_at(&store, 100, 0).is_empty());
        feed(&store, 1, 105, vec![("t.test.drift", 0.5)], vec![]);
        assert!(dog.check_at(&store, 105, 1).is_empty());
        feed(&store, 2, 110, vec![("t.test.drift", 0.5)], vec![]);
        assert_eq!(dog.check_at(&store, 110, 2).len(), 1);
    }

    #[test]
    fn stall_rule_fires_only_without_progress() {
        let store = SeriesStore::default();
        let spec = "stall(t.test.repairs) while t.test.drift > 0.25 for 20 ticks";
        let mut dog = Watchdog::new(vec![parse_rule(spec).unwrap()]);

        // Guard up, repairs advancing: window keeps restarting.
        feed(&store, 0, 0, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 0)]);
        dog.check_at(&store, 0, 0);
        feed(&store, 100, 15, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 1)]);
        assert!(dog.check_at(&store, 15, 100).is_empty());
        feed(&store, 200, 30, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 2)]);
        assert!(dog.check_at(&store, 30, 200).is_empty());
        // Repairs stop while the guard stays up: fires after 20 ticks.
        feed(&store, 300, 45, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 2)]);
        assert!(dog.check_at(&store, 45, 300).is_empty(), "window restarted at 30");
        feed(&store, 400, 55, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 2)]);
        let fired = dog.check_at(&store, 55, 400);
        assert_eq!(fired.len(), 1, "25 ticks without progress under guard");
        assert!(fired[0].rule.contains("stall(t.test.repairs)"));
    }

    #[test]
    fn stall_rule_resets_when_guard_drops() {
        let store = SeriesStore::default();
        let spec = "stall(t.test.repairs) while t.test.drift > 0.25 for 10 ticks";
        let mut dog = Watchdog::new(vec![parse_rule(spec).unwrap()]);
        feed(&store, 0, 0, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 0)]);
        dog.check_at(&store, 0, 0);
        feed(&store, 100, 8, vec![("t.test.drift", 0.1)], vec![("t.test.repairs", 0)]);
        assert!(dog.check_at(&store, 8, 100).is_empty());
        // Guard re-arms at tick 9; tick 12 is only 3 ticks in.
        feed(&store, 200, 9, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 0)]);
        dog.check_at(&store, 9, 200);
        feed(&store, 300, 12, vec![("t.test.drift", 0.5)], vec![("t.test.repairs", 0)]);
        assert!(dog.check_at(&store, 12, 300).is_empty());
    }

    #[test]
    fn missing_signals_never_fire() {
        let store = SeriesStore::default();
        let mut dog = Watchdog::new(parse_rules("no.such.metric > 0 for 0s").unwrap());
        assert!(dog.check_at(&store, 0, 0).is_empty());
        assert!(dog.check_at(&store, 100, 10_000).is_empty());
    }
}
