//! **Air indexing** for data broadcasting — the selective-tuning
//! substrate of Imielinski, Viswanathan & Badrinath ("Data on Air",
//! IEEE TKDE 1997; the ICDCS 2005 paper's reference \[11\]).
//!
//! Without an index, a client must listen continuously until its item
//! appears: *tuning time* (radio-active time, the battery cost) equals
//! *access time* (latency). **(1, m) indexing** interleaves `m` copies
//! of a channel index into each broadcast cycle; a client then reads one
//! bucket header, dozes to the next index, reads it, dozes straight to
//! its item, and downloads — tuning time collapses to
//! `header + index + item` while access time grows only by the index
//! overhead.
//!
//! This crate layers indexing *on top of* the allocation work of the
//! main crates: any [`BroadcastProgram`](dbcast_model::BroadcastProgram)
//! (from DRP-CDS or any baseline) can be indexed per channel and
//! measured for expected access time, tuning time, and energy per
//! request.
//!
//! # Example
//!
//! ```
//! use dbcast_index::{EnergyModel, IndexParams, IndexedProgram};
//! use dbcast_alloc::DrpCds;
//! use dbcast_model::{BroadcastProgram, ChannelAllocator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = dbcast_workload::WorkloadBuilder::new(40).seed(1).build()?;
//! let alloc = DrpCds::new().allocate(&db, 4)?;
//! let program = BroadcastProgram::new(&db, &alloc, 10.0)?;
//! let params = IndexParams { index_size: 1.0, header_size: 0.1 };
//! let indexed = IndexedProgram::with_optimal_segments(&program, params)?;
//! let metrics = indexed.expected_metrics(&db)?;
//! // Tuning time is a small fraction of access time.
//! assert!(metrics.tuning < metrics.access / 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod energy;
mod program;

pub use channel::{optimal_segments, IndexParams, IndexedChannel, LayoutEntry};
pub use energy::EnergyModel;
pub use program::{IndexedProgram, ProgramMetrics, EXPECTATION_SAMPLES};
