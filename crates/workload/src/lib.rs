//! Workload generation for diverse data broadcasting.
//!
//! Reproduces the simulation environment of Hung & Chen (ICDCS 2005,
//! §4.1): access frequencies drawn from a Zipf distribution with
//! skewness parameter `θ`, item sizes of `10^φ` size units with `φ`
//! uniform over `[0, Φ]` (`Φ` is the *diversity parameter*), plus a few
//! extra size laws, client request traces, and the paper's own 15-item
//! example profile (Table 2) as a test fixture.
//!
//! All randomness is driven by explicit seeds through ChaCha; the same
//! seed always produces the same workload on every platform.
//!
//! # Example
//!
//! ```
//! use dbcast_workload::{SizeDistribution, WorkloadBuilder};
//!
//! # fn main() -> Result<(), dbcast_workload::WorkloadError> {
//! let db = WorkloadBuilder::new(120)
//!     .skewness(0.8)
//!     .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
//!     .seed(42)
//!     .build()?;
//! assert_eq!(db.len(), 120);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod generator;
mod io;
pub mod paper;
mod sizes;
mod trace;
mod zipf;

pub use error::WorkloadError;
pub use generator::WorkloadBuilder;
pub use io::{
    load_database, load_database_from_reader, load_trace, load_trace_from_reader,
    save_database, save_database_to_writer, save_trace, save_trace_to_writer,
};
pub use sizes::SizeDistribution;
pub use trace::{Request, RequestTrace, TraceBuilder};
pub use zipf::{Categorical, Zipf};
