//! `dbcast-scope`: windowed time-series telemetry over the obs
//! registry, and the operator surface built on top of it.
//!
//! The paper's objective is time-varying — Eq. 2's expected wait under
//! a drifting access profile — but counters and gauges only show the
//! *current* point. This crate adds the time axis, in-process and
//! allocation-bounded:
//!
//! * [`store::SeriesStore`] — fixed-capacity per-metric rings of
//!   `(virtual_tick, wall_ms, value)` samples, counter → rate
//!   derivation and windowed histogram quantiles from bucket deltas;
//! * [`sampler::Sampler`] — a background thread scraping the registry
//!   on a fixed cadence;
//! * [`doc`] — the `/series` document ([`SeriesDoc`]), rendered and
//!   strictly decoded through the `dbcast_obs::doc` envelope;
//! * [`watchdog`] — threshold/stall rules with sustained windows
//!   ("burn_rate > 1 for 5s", "drift but no repair within N ticks")
//!   that latch, emit flight events, fire postmortem dumps and drive
//!   non-zero CI exits;
//! * [`console`] — the `dbcast top` sparkline/table renderer.

#![forbid(unsafe_code)]

pub mod console;
pub mod doc;
pub mod sampler;
pub mod series;
pub mod store;
pub mod watchdog;

pub use console::{render_top, sparkline, TopOptions};
pub use doc::{HistEntry, SeriesDoc, SeriesEntry};
pub use sampler::{sample_once, Sampler};
pub use series::{Sample, Series, SeriesKind};
pub use store::{ScopeConfig, SeriesStore, WindowQuantiles};
pub use watchdog::{parse_rule, parse_rules, Firing, Rule, Watchdog};
