//! `dbcast-perf`: the counting allocator behind the repository's exact
//! allocation tests and its benchmark.
//!
//! Runtime is measured end to end by the repository benchmark
//! (`benchmark/`), which installs [`CountingAllocator`] as its global
//! allocator so its allocation figures are exact counts. This crate's
//! `tests/*_alloc.rs` pin the host-independent half of the performance
//! contract: each installs the same allocator and asserts an exact heap
//! budget for one hot path (the Eq. 1 wait kernel, the serve loop, a CDS
//! move, the audit and flight rings, the wire codec), so a change that
//! adds an allocation there fails on any machine.

#![deny(unsafe_code)] // the counting allocator is the one audited exception
#![warn(missing_docs)]

mod alloc_count;

pub use alloc_count::{allocation_counts, thread_allocations, CountingAllocator};
