//! `dbcast-perf`: the deterministic performance-baseline harness.
//!
//! The paper's headline empirical claim (Figures 6–7) is a *runtime*
//! claim — DRP+CDS reaches near-GOPT cost at a tiny fraction of
//! GOPT's execution time — so this workspace treats performance as a
//! tested contract, not a hope:
//!
//! 1. [`suite::standard_suite`] pins a set of macro-benchmarks (DRP,
//!    CDS, DRP+CDS, VF^K, small GOPT, the simulation engine, the
//!    conformance generator) to seed-replayable workloads.
//! 2. [`runner::run_suite`] measures wall time (mean/median/p95 over
//!    iterations, after a warmup discard), per-iteration heap
//!    allocation counts via the [`CountingAllocator`], and the peak
//!    span-tree depth from `dbcast_obs::tree`.
//! 3. [`report::BenchReport`] serializes the run as a schema-versioned
//!    `BENCH_<gitsha>.json`; `BENCH_baseline.json` at the repo root is
//!    the committed contract.
//! 4. [`compare::compare`] diffs a fresh run against the baseline with
//!    per-metric tolerances (±20% wall time by default, exact
//!    allocation counts where both runs observed stable counts) —
//!    `dbcast perf --check` exits non-zero on any regression, and CI
//!    runs it with relaxed (±35%) tolerances.
//!
//! Refreshing the baseline is always an explicit act
//! (`dbcast perf --update-baseline`), so a slow commit cannot quietly
//! ratchet the contract.

#![deny(unsafe_code)] // the counting allocator is the one audited exception
#![warn(missing_docs)]

mod alloc_count;
pub mod compare;
pub mod report;
pub mod runner;
pub mod suite;

pub use alloc_count::{
    allocation_counts, counting_active, thread_allocations, CountingAllocator,
};
pub use compare::{compare, Comparison, Finding, FindingKind, Tolerances};
pub use report::{git_short_sha, BenchRecord, BenchReport, SCHEMA_VERSION};
pub use runner::{run_suite, RunOptions};
pub use suite::{standard_suite, Benchmark};
