//! A counting global allocator: [`System`] plus two relaxed atomic
//! counters, so benchmarks can report exact allocation totals, and a
//! per-thread allocation count for tests that must not see other
//! threads' heap traffic.
//!
//! The counter only ticks when the allocator is actually installed:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dbcast_perf::CountingAllocator = dbcast_perf::CountingAllocator;
//! ```
//!
//! The overhead is two relaxed `fetch_add`s and one thread-local
//! increment per allocation, far below `malloc` itself. When it is
//! *not* installed, the counters stay at zero.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; the wrapper adds only counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without a destructor: touching it never
    // allocates and never registers a TLS destructor, so it is safe to
    // use from inside the allocator.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation (or grow) of `bytes` on both the process-wide
/// and the calling thread's counters.
fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Pass-through [`System`] allocator that counts allocations and
/// bytes. Zero-sized and const-constructible so it can be a
/// `#[global_allocator]` static.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is new work for the allocator; count it like a fresh
        // allocation of the grown size.
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative `(allocations, bytes)` since process start. Both are
/// zero when [`CountingAllocator`] is not installed as the global
/// allocator.
pub fn allocation_counts() -> (u64, u64) {
    (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed))
}

/// Cumulative allocations made by the calling thread since it started
/// (zero when [`CountingAllocator`] is not installed). Unlike
/// [`allocation_counts`], a window measured with it sees no other
/// thread's heap traffic.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}
