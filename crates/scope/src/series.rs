//! One metric's windowed history: a bounded raw sample window, plus
//! the per-second rates derived from it for counters.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Appends `value`, evicting the oldest element once `window` holds
/// `capacity` (at least one). A window created with that capacity
/// never reallocates, so the steady-state append path is
/// allocation-free.
pub(crate) fn push_bounded<T>(window: &mut VecDeque<T>, capacity: usize, value: T) {
    if window.len() >= capacity.max(1) {
        window.pop_front();
    }
    window.push_back(value);
}

/// How a series' values evolve, which decides what derived views make
/// sense (rates only exist for counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SeriesKind {
    /// Last-write-wins level (drift distance, burn rate, `W_i`, …).
    Gauge,
    /// Monotone cumulative count; dips mean the source reset.
    Counter,
}

/// One scraped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Sample {
    /// Serving-loop virtual tick at scrape time (0 before serving).
    pub tick: u64,
    /// Milliseconds since the store was created.
    pub wall_ms: u64,
    /// The metric's value at scrape time.
    pub value: f64,
}

/// One metric's bounded history.
#[derive(Debug, Clone)]
pub struct Series {
    kind: SeriesKind,
    capacity: usize,
    raw: VecDeque<Sample>,
}

impl Series {
    /// An empty series; `raw_capacity` bounds the raw window.
    pub fn new(kind: SeriesKind, raw_capacity: usize) -> Self {
        Series { kind, capacity: raw_capacity, raw: VecDeque::with_capacity(raw_capacity) }
    }

    /// The series' kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// Appends one sample.
    pub fn push(&mut self, s: Sample) {
        push_bounded(&mut self.raw, self.capacity, s);
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<Sample> {
        self.raw.back().copied()
    }

    /// Raw samples oldest → newest.
    pub fn raw(&self) -> Vec<Sample> {
        self.raw.iter().copied().collect()
    }

    /// Counter → per-second rate over the retained raw window. Gauges
    /// return an empty vec. See [`derive_rates`] for semantics.
    pub fn rates(&self) -> Vec<Sample> {
        match self.kind {
            SeriesKind::Gauge => Vec::new(),
            SeriesKind::Counter => derive_rates(&self.raw()),
        }
    }

    /// The newest per-second rate, when derivable.
    pub fn latest_rate(&self) -> Option<f64> {
        self.rates().last().map(|s| s.value)
    }
}

/// Derives per-second rates from consecutive cumulative samples.
///
/// * `rate = Δvalue / Δwall_s`, stamped at the later sample;
/// * pairs with `Δwall_ms == 0` are skipped (no meaningful rate);
/// * a negative delta means the source counter reset — the later
///   sample's absolute value is taken as the delta (everything counted
///   since the reset happened within the interval), so rates are
///   always non-negative.
pub fn derive_rates(raw: &[Sample]) -> Vec<Sample> {
    let mut out = Vec::with_capacity(raw.len().saturating_sub(1));
    for pair in raw.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let dt_ms = b.wall_ms.saturating_sub(a.wall_ms);
        if dt_ms == 0 {
            continue;
        }
        let delta = if b.value >= a.value { b.value - a.value } else { b.value.max(0.0) };
        let rate = delta / (dt_ms as f64 / 1000.0);
        out.push(Sample { tick: b.tick, wall_ms: b.wall_ms, value: rate });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(tick: u64, wall_ms: u64, value: f64) -> Sample {
        Sample { tick, wall_ms, value }
    }

    #[test]
    fn rates_are_per_second_and_reset_tolerant() {
        let raw = vec![
            s(0, 0, 0.0),
            s(1, 1000, 50.0), // 50/s
            s(2, 1500, 75.0), // 25 over 0.5s = 50/s
            s(3, 1500, 80.0), // dt 0 → skipped
            s(4, 2500, 10.0), // reset: 10 counted since, over 1s
            s(5, 3500, 10.0), // idle
        ];
        let rates = derive_rates(&raw);
        let values: Vec<f64> = rates.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![50.0, 50.0, 10.0, 0.0]);
        assert!(rates.iter().all(|r| r.value >= 0.0));
        assert_eq!(rates[0].wall_ms, 1000);
    }

    #[test]
    fn the_raw_window_keeps_the_newest_samples() {
        let mut series = Series::new(SeriesKind::Gauge, 3);
        for i in 0..5u64 {
            series.push(s(i, i, i as f64));
        }
        let ticks: Vec<u64> = series.raw().iter().map(|x| x.tick).collect();
        assert_eq!(ticks, [2, 3, 4]);
        assert_eq!(series.latest().map(|x| x.tick), Some(4));
    }

    #[test]
    fn gauge_series_has_no_rates() {
        let mut series = Series::new(SeriesKind::Gauge, 10);
        series.push(s(0, 0, 1.0));
        series.push(s(1, 100, 2.0));
        assert!(series.rates().is_empty());
        assert_eq!(series.latest_rate(), None);
    }
}
