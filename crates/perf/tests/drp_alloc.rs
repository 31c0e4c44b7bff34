//! Heap budget of one `Drp::allocate`: the counting allocator is
//! installed for this test binary, so the deltas below are real heap
//! traffic, not estimates.
//!
//! DRP keeps its Table 3 trace as the benefit-ratio order plus `K − 1`
//! split records, so its heap use is a few `O(N)` buffers and nothing
//! proportional to `K·N`: the allocation count stays flat in both `N`
//! and `K`, and the bytes per item stay flat in `K`, whether telemetry
//! recording (its span timers and counters) is on or off.

use dbcast_alloc::Drp;
use dbcast_model::ChannelAllocator;
use dbcast_perf::{allocation_counts, CountingAllocator};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn drp_allocate_heap_use_is_independent_of_channel_count() {
    let cases = [(2_000usize, 16usize), (20_000, 64)];
    for (recording, (items, channels)) in
        [false, true].into_iter().flat_map(|r| cases.map(|c| (r, c)))
    {
        dbcast_obs::set_enabled(recording);
        // The paper's catalogue family: Zipf θ=0.8, size diversity Φ=2.
        let db = WorkloadBuilder::new(items)
            .skewness(0.8)
            .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
            .seed(42)
            .build()
            .unwrap();
        // Fewest over three windows: the harness thread reporting can
        // leak into one window, but DRP's own heap use shows in all.
        let (allocs, bytes) = (0..3)
            .map(|_| {
                let (a0, b0) = allocation_counts();
                let alloc = Drp::new().allocate(&db, channels).unwrap();
                let (a1, b1) = allocation_counts();
                drop(alloc);
                (a1 - a0, b1 - b0)
            })
            .min()
            .expect("three windows");
        let per_item = bytes as f64 / items as f64;
        assert!(
            allocs <= 64,
            "N={items} K={channels} recording {recording}: {allocs} allocations (budget 64)"
        );
        assert!(
            per_item <= 128.0,
            "N={items} K={channels} recording {recording}: {per_item:.1} B/item (budget 128)"
        );
    }
    dbcast_obs::set_enabled(false);
}
