//! # dbcast-serve — the online broadcast serving runtime
//!
//! The paper's allocators (`dbcast-alloc`) are *offline*: they take the
//! access frequencies `f_j` as given and emit one fixed channel
//! allocation. This crate closes the loop for a *running* broadcast
//! server whose workload is neither known nor stationary:
//!
//! ```text
//!   request stream ──▶ FrequencyEstimator (count-min + EWMA)
//!                          │ frequency vector
//!                          ▼
//!                      DriftDetector (L1 vs serving profile)
//!                          │ drift!
//!                          ▼
//!                      re-allocator (full DRP-CDS or budgeted repair)
//!                          │ new assignment
//!                          ▼
//!                      EpochCell::publish — hot swap at a cycle
//!                      boundary; readers never block, in-flight
//!                      requests stay accounted to their generation
//! ```
//!
//! [`ServeRuntime`] drives the loop in virtual time over a request
//! trace (replayed or synthetic Poisson); [`WorkerMode::Deterministic`]
//! makes the entire closed loop seed-replayable, while
//! [`WorkerMode::Threaded`] moves re-allocation onto a background
//! thread so serving never stalls.

mod drift;
mod estimator;
mod fleet;
mod runtime;
mod sketch;
mod slo;
mod source;
mod swap;

pub use dbcast_audit::{AuditConfig, AuditSummary};
pub use drift::{l1_distance, Drift, DriftDetector};
pub use estimator::{EstimatorConfig, FrequencyEstimator};
pub use fleet::{FleetAggregator, FleetCoverage, FleetDigest, FleetDoc, FleetGeneration};
pub use runtime::{
    GenerationStats, ProgramGeneration, RepairMode, RepairReport, ServeConfig, ServeError,
    ServeReport, ServeRuntime, WorkerMode,
};
pub use sketch::CountMinSketch;
pub use slo::{expected_wait, SloConfig, SloReport, SloTracker, SloVerdict};
pub use source::{poisson_trace, shifted_trace, shifted_workload};
pub use swap::{EpochCell, Versioned};
