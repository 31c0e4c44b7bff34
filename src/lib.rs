//! **dbcast** — a reproduction of *"On Exploring Channel Allocation in
//! the Diverse Data Broadcasting Environment"* (Hung & Chen,
//! ICDCS 2005) as a production-quality Rust workspace.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`model`] — data items, databases, allocations, the cost function
//!   (Eq. 3) and the analytical waiting-time model (Eq. 1–2).
//! * [`workload`] — Zipf/diversity workload generation, request traces,
//!   the paper's Table 2 fixture.
//! * [`alloc`] — the paper's contribution: DRP, CDS and DRP-CDS.
//! * [`baselines`] — VF^K, GOPT (genetic), FLAT, GREEDY and exact
//!   references.
//! * [`sim`] — the broadcast simulator: one pass over a request trace.
//! * [`index`] — substrate: (1, m) air indexing for selective tuning
//!   (tuning-time and energy models).
//! * [`cache`] — substrate: client-side caching (LRU vs PIX) over
//!   broadcast programs.
//! * [`serve`] — the online serving runtime: live workload estimation
//!   (exact decayed counts under a Dirichlet prior), drift detection,
//!   inline re-allocation and hot program swap at cycle boundaries.
//! * [`net`] — the framed TCP broadcast transport and simulated client
//!   fleet: real frames on a real wire, with per-request access *and*
//!   tuning time measured against the Eq. 2 expectations.
//!
//! # Quickstart
//!
//! ```
//! use dbcast::alloc::DrpCds;
//! use dbcast::model::{average_waiting_time, ChannelAllocator};
//! use dbcast::workload::{SizeDistribution, WorkloadBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 120 items, Zipf(0.8) popularity, sizes spanning two decades.
//! let db = WorkloadBuilder::new(120)
//!     .skewness(0.8)
//!     .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
//!     .seed(7)
//!     .build()?;
//!
//! // Allocate onto 6 channels with the paper's two-step scheme.
//! let alloc = DrpCds::new().allocate(&db, 6)?;
//!
//! // Expected client waiting time at 10 size-units/second.
//! let w = average_waiting_time(&db, &alloc, 10.0)?;
//! println!("W_b = {:.3}s (probe {:.3}s + download {:.3}s)",
//!          w.total(), w.probe, w.download);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dbcast_alloc as alloc;
pub use dbcast_baselines as baselines;
pub use dbcast_cache as cache;
pub use dbcast_conformance as conformance;
pub use dbcast_index as index;
pub use dbcast_model as model;
pub use dbcast_net as net;
pub use dbcast_serve as serve;
pub use dbcast_sim as sim;
pub use dbcast_workload as workload;

/// The most commonly used items from across the workspace.
pub mod prelude {
    pub use dbcast_alloc::{Cds, Drp, DrpCds};
    pub use dbcast_baselines::{ExactBnB, Flat, Gopt, GoptConfig, Greedy, Vfk};
    pub use dbcast_model::prelude::*;
    pub use dbcast_sim::{validate_against_model, Simulation};
    pub use dbcast_workload::{SizeDistribution, TraceBuilder, WorkloadBuilder};
}
