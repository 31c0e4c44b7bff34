//! Simulator for multi-channel cyclic data broadcasting.
//!
//! The ICDCS 2005 paper evaluates allocations through the analytical
//! model (Eq. 1–2). This crate provides the empirical counterpart:
//! clients arrive by a Poisson process, tune in to the channel carrying
//! their item, wait for the item's next slot in that channel's cyclic
//! schedule and download it. In push-based broadcast a request's wait
//! depends only on its arrival time and the program, never on other
//! requests, so the simulation is one pass over the trace. Empirical
//! waiting times converge to the analytical expectation, which is
//! verified both in tests and by the `sim_validation` paper report.
//!
//! # Example
//!
//! ```
//! use dbcast_alloc::DrpCds;
//! use dbcast_model::{BroadcastProgram, ChannelAllocator};
//! use dbcast_sim::Simulation;
//! use dbcast_workload::{TraceBuilder, WorkloadBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = WorkloadBuilder::new(40).seed(1).build()?;
//! let alloc = DrpCds::new().allocate(&db, 4)?;
//! let program = BroadcastProgram::new(&db, &alloc, 10.0)?;
//! let trace = TraceBuilder::new(&db).requests(2_000).seed(2).build()?;
//! let report = Simulation::new(&program, &trace).run()?;
//! assert_eq!(report.completed(), 2_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod stats;
mod validate;

pub use engine::{ChannelLoad, RequestRecord, SimError, SimReport, Simulation};
pub use stats::SummaryStats;
pub use validate::{validate_against_model, ValidationError, ValidationReport};
