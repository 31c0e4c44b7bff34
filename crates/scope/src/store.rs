//! The `SeriesStore`: every metric in an obs registry snapshot gets a
//! bounded [`Series`] (counters and gauges) or a bucket-delta history
//! ([`HistSeries`], for windowed quantiles). Appends are cheap — one
//! `BTreeMap` walk under a mutex per scrape, no allocation in steady
//! state — and the memory held is fixed by [`ScopeConfig`] no matter
//! how long the process runs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use dbcast_obs::metrics::HistogramSnapshot;
use dbcast_obs::metrics::{bucket_index, bucket_lower_bound, bucket_upper_bound, BUCKETS};
use dbcast_obs::snapshot::Snapshot;
use serde::{Deserialize, Serialize};

use crate::doc::{HistEntry, SeriesDoc, SeriesEntry};
use crate::series::{push_bounded, Sample, Series, SeriesKind};

/// Capacity and naming knobs for a [`SeriesStore`].
#[derive(Debug, Clone)]
pub struct ScopeConfig {
    /// Raw samples retained per series.
    pub raw_capacity: usize,
    /// Histogram bucket snapshots retained per histogram.
    pub hist_capacity: usize,
    /// Raw samples included per series in the `/series` export (the
    /// ring may hold more; the export trims to the newest).
    pub render_raw: usize,
    /// Counter whose scraped value stamps each sample's virtual tick.
    pub tick_counter: String,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            raw_capacity: 240,
            hist_capacity: 128,
            render_raw: 120,
            tick_counter: "serve.ticks".to_string(),
        }
    }
}

/// Windows (in scrape samples) over which histogram quantiles are
/// computed for the export.
pub const QUANTILE_WINDOWS: [usize; 2] = [16, 64];

/// One histogram scrape: the full (dense) bucket array, so deltas
/// between any two snapshots are a subtraction away.
#[derive(Debug, Clone, Copy)]
pub struct HistSnap {
    /// Virtual tick at scrape time.
    pub tick: u64,
    /// Milliseconds since the store was created.
    pub wall_ms: u64,
    /// Cumulative observation count at scrape time.
    pub count: u64,
    /// Cumulative observation sum at scrape time.
    pub sum: u64,
    /// Dense per-bucket cumulative counts.
    pub buckets: [u64; BUCKETS],
}

impl HistSnap {
    /// Densifies an obs snapshot's sparse `(upper_bound, count)` pairs.
    pub fn from_snapshot(hs: &HistogramSnapshot, tick: u64, wall_ms: u64) -> HistSnap {
        let mut buckets = [0u64; BUCKETS];
        for &(upper, count) in &hs.buckets {
            buckets[bucket_index(upper)] = count;
        }
        HistSnap { tick, wall_ms, count: hs.count, sum: hs.sum, buckets }
    }

    /// Reads a live histogram directly — no intermediate snapshot.
    pub fn from_histogram(
        h: &dbcast_obs::metrics::Histogram,
        tick: u64,
        wall_ms: u64,
    ) -> HistSnap {
        // Buckets before count: a racing record bumps the bucket
        // first, so this order (plus the clamp) keeps the invariant
        // sum(buckets) <= count that the exporters rely on.
        let buckets = h.bucket_counts();
        let total: u64 = buckets.iter().sum();
        HistSnap { tick, wall_ms, count: h.count().max(total), sum: h.sum(), buckets }
    }
}

/// Quantiles over the observations that arrived within a scrape
/// window, estimated from bucket-count deltas (bucket midpoints, like
/// the obs snapshot percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WindowQuantiles {
    /// Requested window length (scrape samples).
    pub window: u64,
    /// Samples actually spanned (shorter when the ring is young).
    pub spanned: u64,
    /// Observations that arrived within the window.
    pub count: u64,
    /// Bucket-midpoint quantile estimates (0 when `count` is 0).
    pub p50: f64,
    /// See `p50`.
    pub p90: f64,
    /// See `p50`.
    pub p99: f64,
}

/// A histogram's retained scrape history.
#[derive(Debug, Clone)]
pub struct HistSeries {
    capacity: usize,
    snaps: VecDeque<HistSnap>,
}

impl HistSeries {
    fn new(capacity: usize) -> Self {
        HistSeries { capacity, snaps: VecDeque::with_capacity(capacity) }
    }

    fn push(&mut self, snap: HistSnap) {
        push_bounded(&mut self.snaps, self.capacity, snap);
    }

    /// The newest scrape.
    pub fn latest(&self) -> Option<HistSnap> {
        self.snaps.back().copied()
    }

    /// Quantiles of the observations recorded during the last
    /// `window` scrapes (clamped to the retained history). `None`
    /// before the first scrape. A cumulative-count dip (source reset)
    /// falls back to the newest snapshot's full contents.
    pub fn window_quantiles(&self, window: usize) -> Option<WindowQuantiles> {
        let newest = self.latest()?;
        let len = self.snaps.len();
        let (delta, spanned) = if window >= len {
            // The window reaches past retained history: the oldest
            // snapshot's cumulative content has no earlier baseline to
            // subtract, so the whole cumulative histogram is in scope.
            (newest.buckets, len.saturating_sub(1))
        } else {
            let base = self.snaps[len - 1 - window];
            if newest.count < base.count {
                (newest.buckets, 0) // Reset: everything in `newest` is fresh.
            } else {
                let mut d = [0u64; BUCKETS];
                for (i, slot) in d.iter_mut().enumerate() {
                    *slot = newest.buckets[i].saturating_sub(base.buckets[i]);
                }
                (d, window)
            }
        };
        let count: u64 = delta.iter().sum();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = ((q / 100.0) * count as f64).ceil().max(1.0) as u64;
            let mut cumulative = 0u64;
            for (i, &c) in delta.iter().enumerate() {
                cumulative += c;
                if cumulative >= target {
                    let lo = bucket_lower_bound(i);
                    let hi = bucket_upper_bound(i);
                    return (lo + (hi - lo) / 2) as f64;
                }
            }
            bucket_upper_bound(BUCKETS - 1) as f64
        };
        Some(WindowQuantiles {
            window: window as u64,
            spanned: spanned as u64,
            count,
            p50: quantile(50.0),
            p90: quantile(90.0),
            p99: quantile(99.0),
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    series: BTreeMap<String, Series>,
    hists: BTreeMap<String, HistSeries>,
}

/// Appends to an existing series by `&str` lookup, allocating the
/// owned key only on first sight of a metric.
fn push_sample(
    map: &mut BTreeMap<String, Series>,
    name: &str,
    kind: SeriesKind,
    raw_cap: usize,
    sample: Sample,
) {
    if let Some(s) = map.get_mut(name) {
        s.push(sample);
    } else {
        let mut s = Series::new(kind, raw_cap);
        s.push(sample);
        map.insert(name.to_string(), s);
    }
}

/// Bounded windowed history over every metric the registry exposes.
#[derive(Debug)]
pub struct SeriesStore {
    config: ScopeConfig,
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(ScopeConfig::default())
    }
}

impl SeriesStore {
    /// An empty store; the wall clock starts now.
    pub fn new(config: ScopeConfig) -> Self {
        SeriesStore { config, start: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    /// The store's configuration.
    pub fn config(&self) -> &ScopeConfig {
        &self.config
    }

    /// Milliseconds since the store was created.
    pub fn wall_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Scrapes the global registry and appends one sample per metric.
    /// Returns the `(tick, wall_ms)` stamp used.
    ///
    /// This is the sampler's hot path: it visits the registry in
    /// place instead of cloning a [`Snapshot`], so a steady-state
    /// scrape performs no name allocations at all.
    pub fn append_global(&self) -> (u64, u64) {
        let r = dbcast_obs::registry();
        let wall_ms = self.wall_ms();
        let tick = r.counter_value(&self.config.tick_counter).unwrap_or(0);
        let raw_cap = self.config.raw_capacity;
        let mut inner = self.inner.lock().expect("series store poisoned");
        r.for_each_counter(|name, value| {
            push_sample(
                &mut inner.series,
                name,
                SeriesKind::Counter,
                raw_cap,
                Sample { tick, wall_ms, value: value as f64 },
            );
        });
        r.for_each_gauge(|name, value| {
            if value.is_finite() {
                push_sample(
                    &mut inner.series,
                    name,
                    SeriesKind::Gauge,
                    raw_cap,
                    Sample { tick, wall_ms, value },
                );
            }
        });
        let hist_cap = self.config.hist_capacity;
        r.for_each_histogram(|name, h| {
            let snap = HistSnap::from_histogram(h, tick, wall_ms);
            if let Some(series) = inner.hists.get_mut(name) {
                series.push(snap);
            } else {
                let mut series = HistSeries::new(hist_cap);
                series.push(snap);
                inner.hists.insert(name.to_string(), series);
            }
        });
        (tick, wall_ms)
    }

    /// Appends one sample per metric in `snap`, stamped `wall_ms`.
    /// The virtual tick is read from the configured tick counter
    /// inside the snapshot itself (0 when absent). Returns the tick.
    pub fn append_snapshot(&self, snap: &Snapshot, wall_ms: u64) -> u64 {
        let tick = snap.counter(&self.config.tick_counter).unwrap_or(0);
        let mut inner = self.inner.lock().expect("series store poisoned");
        for (name, value) in &snap.counters {
            let s = inner.series.entry(name.clone()).or_insert_with(|| {
                Series::new(SeriesKind::Counter, self.config.raw_capacity)
            });
            s.push(Sample { tick, wall_ms, value: *value as f64 });
        }
        for (name, value) in &snap.gauges {
            if !value.is_finite() {
                continue; // A NaN/inf gauge has no JSON number.
            }
            let s = inner.series.entry(name.clone()).or_insert_with(|| {
                Series::new(SeriesKind::Gauge, self.config.raw_capacity)
            });
            s.push(Sample { tick, wall_ms, value: *value });
        }
        for (name, hs) in &snap.histograms {
            let h = inner
                .hists
                .entry(name.clone())
                .or_insert_with(|| HistSeries::new(self.config.hist_capacity));
            h.push(HistSnap::from_snapshot(hs, tick, wall_ms));
        }
        tick
    }

    /// The newest sample of `name`, if any series holds it.
    pub fn latest(&self, name: &str) -> Option<Sample> {
        let inner = self.inner.lock().expect("series store poisoned");
        inner.series.get(name).and_then(|s| s.latest())
    }

    /// The newest per-second rate of counter `name`.
    pub fn latest_rate(&self, name: &str) -> Option<f64> {
        let inner = self.inner.lock().expect("series store poisoned");
        inner.series.get(name).and_then(|s| s.latest_rate())
    }

    /// The newest tick stamp seen across all series (0 when empty).
    pub fn latest_tick(&self) -> u64 {
        let inner = self.inner.lock().expect("series store poisoned");
        inner.series.values().filter_map(|s| s.latest()).map(|s| s.tick).max().unwrap_or(0)
    }

    /// Number of scalar series held.
    pub fn series_count(&self) -> usize {
        self.inner.lock().expect("series store poisoned").series.len()
    }

    /// Freezes the store into the `/series` document (render it with
    /// `dbcast_obs::doc::render`). Raw windows are trimmed to the
    /// newest `render_raw` samples.
    pub fn export(&self) -> SeriesDoc {
        let inner = self.inner.lock().expect("series store poisoned");
        let series = inner
            .series
            .iter()
            .map(|(name, s)| {
                let mut raw = s.raw();
                if raw.len() > self.config.render_raw {
                    raw.drain(..raw.len() - self.config.render_raw);
                }
                SeriesEntry { name: name.clone(), kind: s.kind(), raw, rate: s.rates() }
            })
            .collect();
        let histograms = inner
            .hists
            .iter()
            .filter_map(|(name, h)| {
                let latest = h.latest()?;
                let windows = QUANTILE_WINDOWS
                    .iter()
                    .filter_map(|&w| h.window_quantiles(w))
                    .collect();
                Some(HistEntry {
                    name: name.clone(),
                    count: latest.count,
                    sum: latest.sum,
                    windows,
                })
            })
            .collect();
        let tick = inner
            .series
            .values()
            .filter_map(|s| s.latest())
            .map(|s| s.tick)
            .max()
            .unwrap_or(0);
        SeriesDoc { tick, wall_ms: self.wall_ms(), series, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counters: Vec<(&str, u64)>, gauges: Vec<(&str, f64)>) -> Snapshot {
        Snapshot {
            counters: counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn append_snapshot_builds_series_and_stamps_ticks() {
        let store = SeriesStore::default();
        for i in 0..5u64 {
            let snap = snap_with(
                vec![("serve.ticks", i * 10), ("serve.requests", i * 100)],
                vec![("serve.drift_distance", i as f64 / 10.0)],
            );
            store.append_snapshot(&snap, i * 250);
        }
        assert_eq!(store.series_count(), 3);
        assert_eq!(store.latest_tick(), 40);
        let drift = store.latest("serve.drift_distance").unwrap();
        assert_eq!(drift.tick, 40);
        assert_eq!(drift.value, 0.4);
        // 100 requests per 250 ms = 400/s.
        let rate = store.latest_rate("serve.requests").unwrap();
        assert!((rate - 400.0).abs() < 1e-9, "rate {rate}");
        // Gauges have no rate.
        assert_eq!(store.latest_rate("serve.drift_distance"), None);
    }

    #[test]
    fn non_finite_gauges_are_dropped() {
        let store = SeriesStore::default();
        let snap = snap_with(vec![], vec![("bad", f64::NAN), ("good", 1.0)]);
        store.append_snapshot(&snap, 0);
        assert!(store.latest("bad").is_none());
        assert_eq!(store.latest("good").unwrap().value, 1.0);
    }

    #[test]
    fn window_quantiles_track_bucket_deltas() {
        let mut h = HistSeries::new(16);
        // First scrape: 100 observations in bucket [64, 127].
        let mut b0 = [0u64; BUCKETS];
        b0[bucket_index(100)] = 100;
        h.push(HistSnap { tick: 0, wall_ms: 0, count: 100, sum: 10_000, buckets: b0 });
        // Second scrape: 100 more arrived, all in bucket [1024, 2047].
        let mut b1 = b0;
        b1[bucket_index(2000)] = 100;
        h.push(HistSnap { tick: 1, wall_ms: 250, count: 200, sum: 210_000, buckets: b1 });

        let w = h.window_quantiles(1).unwrap();
        assert_eq!(w.count, 100);
        assert_eq!(w.spanned, 1);
        // Every delta observation sits in [1024, 2047]; the cumulative
        // window (back to the oldest) still sees both buckets.
        assert_eq!(w.p50, (1024 + (2047 - 1024) / 2) as f64);
        let all = h.window_quantiles(64).unwrap();
        assert_eq!(all.count, 200);
        assert_eq!(all.spanned, 1);
        assert!(all.p50 < w.p50);
    }

    #[test]
    fn window_quantiles_survive_counter_reset() {
        let mut h = HistSeries::new(16);
        let mut b0 = [0u64; BUCKETS];
        b0[bucket_index(100)] = 500;
        h.push(HistSnap { tick: 0, wall_ms: 0, count: 500, sum: 0, buckets: b0 });
        // Reset: cumulative count dips.
        let mut b1 = [0u64; BUCKETS];
        b1[bucket_index(10)] = 3;
        h.push(HistSnap { tick: 1, wall_ms: 250, count: 3, sum: 30, buckets: b1 });
        let w = h.window_quantiles(4).unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.p50, (8 + (15 - 8) / 2) as f64);
    }

    #[test]
    fn export_trims_raw_to_render_window() {
        let config = ScopeConfig { render_raw: 5, ..ScopeConfig::default() };
        let store = SeriesStore::new(config);
        for i in 0..20u64 {
            store.append_snapshot(&snap_with(vec![("c", i)], vec![]), i * 100);
        }
        let doc = store.export();
        assert_eq!(doc.series.len(), 1);
        assert_eq!(doc.series[0].raw.len(), 5);
        assert_eq!(doc.series[0].raw.last().unwrap().value, 19.0);
        // Rates still cover the full retained window.
        assert_eq!(doc.series[0].rate.len(), 19);
    }
}
