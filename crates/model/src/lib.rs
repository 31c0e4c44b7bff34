//! Domain model for **diverse data broadcasting**.
//!
//! This crate defines the shared vocabulary of the workspace: data items
//! with *access frequency* and *item size*, broadcast databases, channel
//! allocations (groupings of items onto `K` channels), the allocation
//! cost function of Hung & Chen (ICDCS 2005, Eq. 3), and the analytical
//! waiting-time model (Eq. 1–2).
//!
//! # Model recap
//!
//! A broadcast server owns a database `D` of `N` items. Item `d_j` has an
//! access frequency `f_j` (all frequencies sum to 1) and a size `z_j`.
//! The items are split into `K` disjoint groups, one per broadcast
//! channel; each channel broadcasts its group cyclically at bandwidth
//! `b`. A client that wants item `d_j` on channel `c_i` waits on average
//!
//! ```text
//! W_j^(i) = Z_i / (2 b) + z_j / b          (Eq. 1, Z_i = aggregate size of c_i)
//! ```
//!
//! and the program-level expected waiting time is
//!
//! ```text
//! W_b = (1/2b) Σ_i F_i · Z_i + (1/b) Σ_j f_j z_j     (Eq. 2)
//! ```
//!
//! Only the first term depends on the allocation, so allocation quality
//! is measured by the cost function `cost = Σ_i F_i · Z_i` (Eq. 3).
//!
//! # Example
//!
//! ```
//! use dbcast_model::{Database, Allocation, ItemSpec};
//!
//! # fn main() -> Result<(), dbcast_model::ModelError> {
//! // Three items: (frequency, size).
//! let db = Database::try_from_specs(vec![
//!     ItemSpec::new(0.5, 2.0),
//!     ItemSpec::new(0.3, 4.0),
//!     ItemSpec::new(0.2, 1.0),
//! ])?;
//!
//! // Put the popular item alone on channel 0, the rest on channel 1.
//! let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1])?;
//! assert!(alloc.total_cost() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod allocator;
mod cost;
mod database;
mod error;
mod item;
mod program;
mod waiting;

pub use allocation::{Allocation, ChannelId, ChannelStats, Move};
pub use allocator::{AllocError, ChannelAllocator};
pub use cost::{allocation_cost, channel_cost, cost_lower_bound, CostTracker};
pub use database::{Database, DatabaseStats};
pub use error::ModelError;
pub use item::{BenefitRatio, DataItem, ItemId, ItemSpec};
pub use program::{next_slot_start, BroadcastProgram, ChannelSchedule, ScheduledItem};
pub use waiting::{
    average_waiting_time, channel_waiting_time, item_waiting_time, WaitingTimeBreakdown,
};

/// Convenient glob-import surface: `use dbcast_model::prelude::*;`.
pub mod prelude {
    pub use crate::{
        allocation_cost, average_waiting_time, AllocError, Allocation, BroadcastProgram,
        ChannelAllocator, ChannelId, CostTracker, DataItem, Database, ItemId, ItemSpec,
        ModelError,
    };
}
