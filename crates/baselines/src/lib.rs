//! Baseline channel-allocation algorithms the paper compares against,
//! plus exact references used for ground truth in tests.
//!
//! * [`Flat`] — round-robin allocation; the naive program every
//!   broadcast paper motivates against.
//! * [`Vfk`] — the conventional-environment algorithm VF^K
//!   (Peng & Chen, *Wireless Networks* 2003): an optimal contiguous
//!   partition of the frequency-sorted items **under the equal-size
//!   assumption**, evaluated here in the diverse environment exactly as
//!   the paper does.
//! * [`Gopt`] — the paper's global-optimum proxy: a genetic algorithm
//!   over per-item channel genes, optionally polished by CDS.
//! * [`Greedy`] — benefit-ratio-ordered greedy insertion (an extra
//!   sanity baseline).
//! * [`ExactBnB`] — true global optimum by branch-and-bound, feasible
//!   for small instances; the test-suite ground truth.
//! * [`ContiguousDp`] — optimal partition *among benefit-ratio
//!   contiguous groupings* by dynamic programming; an upper bound on
//!   what any DRP-style splitting can achieve.
//!
//! Every algorithm implements
//! [`ChannelAllocator`](dbcast_model::ChannelAllocator); [`AlgoSpec`] is
//! the registry that names, builds and lists the workspace's allocators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contiguous;
mod exact;
mod flat;
mod gopt;
mod greedy;
mod registry;
mod vfk;

pub use contiguous::ContiguousDp;
pub use exact::ExactBnB;
pub use flat::Flat;
pub use gopt::{Gopt, GoptConfig, GoptReport};
pub use greedy::Greedy;
pub use registry::AlgoSpec;
pub use vfk::Vfk;
