//! `dbcast-obs`: the telemetry layer for the dbcast workspace —
//! monotonic counters, gauges, log-scale histograms with lock-free
//! recording, RAII span timers, hierarchical span trees with
//! self-time attribution and Chrome trace-event export ([`tree`]),
//! a leveled logger, registry snapshots (the `metrics` document,
//! [`snapshot`]), the seqlock ring ([`ring::SeqRing`]) under the flight
//! recorder and the audit trace ring, and the one envelope every
//! telemetry document is rendered and decoded through ([`doc`]). Its
//! only dependencies are the workspace's serde shims, and every JSON it
//! writes goes through them.
//!
//! Optimizer progress (DRP's splits, CDS's moves, GOPT's best cost per
//! generation) is not recorded here: each optimizer returns it in its
//! outcome, and the registry only counts it.
//!
//! # Enabling
//!
//! Recording is one runtime switch, [`set_enabled`], and it starts
//! **off**: until something turns it on, every `record`/`inc` body is
//! one relaxed load and a not-taken branch, and [`span!`] never reads
//! the clock. The CLI turns it on for the flags that need recorded data
//! (`--metrics-out`, `--trace-out`, `--listen`, `--postmortem-dir`,
//! `--watch`, `--listen-uplink` and `dbcast stats`); nothing else does,
//! so a library user or a benchmark that never calls it measures the
//! code as shipped.
//!
//! # Naming
//!
//! Metric names follow `<crate>.<algo>.<event>`, e.g.
//! `alloc.drp.split_scan` or `sim.engine.requests`. Dots are separators
//! only by convention; names are opaque keys to the registry.
//!
//! # Hot path
//!
//! `counter!` / `gauge!` / `histogram!` resolve their registry entry
//! once per call site through a static [`std::sync::OnceLock`], after
//! which recording is a single atomic RMW — no locking, no allocation.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod doc;
pub mod log;
pub mod metrics;
pub mod openmetrics;
pub mod ring;
pub mod snapshot;
pub mod span;
pub mod tree;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use metrics::{Counter, Gauge, Histogram};

static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is active: the runtime switch, off until
/// [`set_enabled`] turns it on.
#[inline(always)]
pub fn enabled() -> bool {
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime recording switch.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metric registry. Metrics are indexed by name in a
/// `BTreeMap`, so lookup is `O(log n)` instead of a linear scan and
/// snapshots enumerate in sorted-name order (deterministic output for
/// JSON and OpenMetrics exports alike).
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. The reference is `'static`: metrics live for the
    /// whole process so call sites can cache them.
    pub fn counter(&self, name: &str) -> &'static Counter {
        Self::intern(&self.counters, name, Counter::new)
    }

    /// Returns the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        Self::intern(&self.gauges, name, Gauge::new)
    }

    /// Returns the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        Self::intern(&self.histograms, name, Histogram::new)
    }

    fn intern<T: 'static>(
        table: &Mutex<BTreeMap<String, &'static T>>,
        name: &str,
        make: fn() -> T,
    ) -> &'static T {
        let mut table = table.lock().expect("registry poisoned");
        if let Some(&m) = table.get(name) {
            return m;
        }
        let leaked: &'static T = Box::leak(Box::new(make()));
        table.insert(name.to_string(), leaked);
        leaked
    }

    /// Takes a point-in-time copy of every metric.
    pub fn snapshot(&self) -> snapshot::Snapshot {
        snapshot::Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// The current value of the counter registered under `name`,
    /// without interning a new one when absent.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.lock().expect("registry poisoned").get(name).map(|c| c.get())
    }

    /// The current value of the gauge registered under `name`,
    /// without interning a new one when absent.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.lock().expect("registry poisoned").get(name).map(|g| g.get())
    }

    /// Zeroes every metric. Registrations (and the `'static`
    /// references handed out) stay valid.
    pub fn reset(&self) {
        for (_, c) in self.counters.lock().expect("registry poisoned").iter() {
            c.reset();
        }
        for (_, g) in self.gauges.lock().expect("registry poisoned").iter() {
            g.reset();
        }
        for (_, h) in self.histograms.lock().expect("registry poisoned").iter() {
            h.reset();
        }
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolves (once per call site) and returns the named counter.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves (once per call site) and returns the named gauge.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolves (once per call site) and returns the named histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Opens an RAII span timer: elapsed nanoseconds are recorded into the
/// histogram of the same name when the guard drops.
///
/// ```
/// let _g = dbcast_obs::span!("alloc.drp.split_scan");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, $crate::histogram!($name))
    };
}

/// Serializes tests that flip the global runtime switch so parallel
/// test threads cannot observe each other's toggles.
#[cfg(test)]
pub(crate) static TEST_SWITCH_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lookups_never_intern() {
        assert_eq!(registry().counter_value("lib.test.absent_counter"), None);
        assert_eq!(registry().gauge_value("lib.test.absent_gauge"), None);
        let snap = registry().snapshot();
        assert!(snap.counters.iter().all(|(n, _)| n != "lib.test.absent_counter"));
        assert!(snap.gauges.iter().all(|(n, _)| n != "lib.test.absent_gauge"));
        registry().gauge("lib.test.present_gauge").force_set(2.5);
        assert_eq!(registry().gauge_value("lib.test.present_gauge"), Some(2.5));
    }

    #[test]
    fn registry_interns_by_name() {
        let a = registry().counter("lib.test.intern");
        let b = registry().counter("lib.test.intern");
        assert!(std::ptr::eq(a, b));
        let c = registry().counter("lib.test.other");
        assert!(!std::ptr::eq(a, c));
    }

    #[test]
    fn macros_cache_per_call_site() {
        let a = counter!("lib.test.macro");
        let b = counter!("lib.test.macro");
        assert!(std::ptr::eq(a, b));
        let _ = gauge!("lib.test.gauge");
        let _ = histogram!("lib.test.hist");
    }

    #[test]
    fn enabled_tracks_the_switch() {
        let _guard = TEST_SWITCH_LOCK.lock().unwrap();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
