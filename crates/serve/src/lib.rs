//! # dbcast-serve — the online broadcast serving runtime
//!
//! The paper's allocators (`dbcast-alloc`) are *offline*: they take the
//! access frequencies `f_j` as given and emit one fixed channel
//! allocation. This crate closes the loop for a *running* broadcast
//! server whose workload is neither known nor stationary:
//!
//! ```text
//!   request stream ──▶ FrequencyEstimator (exact decayed counts + Dirichlet prior)
//!                          │ frequency vector
//!                          ▼
//!                      GapMonitor (Eq. 3 cost vs certified bound)
//!                          │ drift!
//!                          ▼
//!                      re-allocator (full DRP-CDS or budgeted repair,
//!                      run inline at the detecting boundary)
//!                          │ new assignment
//!                          ▼
//!                      EpochCell::publish — hot swap at the next cycle
//!                      boundary; readers never wait on it, in-flight
//!                      requests stay accounted to their generation
//! ```
//!
//! [`ServeRuntime`] drives the loop in virtual time over a request
//! trace (replayed or synthetic Poisson). Every request is charged its
//! Eq. 1 wait in virtual time, so recomputing inline stalls no request
//! and the whole closed loop replays bit for bit from its seed; the one
//! real-time consumer, a broadcast egress, reads the [`EpochCell`] on
//! its own thread.

mod drift;
mod estimator;
mod fleet;
mod runtime;
mod slo;
mod source;
mod swap;

pub use dbcast_audit::{AuditConfig, AuditSummary};
pub use drift::{l1_distance, Drift, DriftDetector, GapMonitor};
pub use estimator::{EstimatorConfig, FrequencyEstimator};
pub use fleet::{
    FleetAggregator, FleetCoverage, FleetDigest, FleetDoc, FleetGeneration, GenerationSlice,
};
pub use runtime::{
    GenerationStats, ProgramGeneration, RepairMode, RepairReport, ServeConfig, ServeError,
    ServeReport, ServeRuntime, WaitStats, WorkerMode,
};
pub use slo::{SloConfig, SloReport, SloTracker, SloVerdict};
pub use source::{poisson_trace, shifted_trace, shifted_workload};
pub use swap::{EpochCell, Versioned};
