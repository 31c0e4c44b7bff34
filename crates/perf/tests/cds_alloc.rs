//! Heap budget of one CDS move: the counting allocator is installed for
//! this test binary, so the count below is real heap traffic, not an
//! estimate.
//!
//! `BestMoveEngine` sizes every buffer it needs when it is built, so a
//! move — apply, repair the two touched channels' member lists and
//! rescan the items whose best destination changed — never allocates.
//! The count is exact and host independent, unlike the move's wall time.

use dbcast_alloc::{BestMoveEngine, Drp};
use dbcast_model::ChannelAllocator;
use dbcast_perf::{thread_allocations, CountingAllocator};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn cds_moves_from_drp_never_allocate() {
    let (items, channels) = (20_000usize, 64usize);
    // The paper's catalogue family: Zipf θ=0.8, size diversity Φ=2.
    let db = WorkloadBuilder::new(items)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .unwrap();
    let rough = Drp::new().allocate(&db, channels).unwrap();
    let f: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
    let z: Vec<f64> = db.iter().map(|d| d.size()).collect();
    let assign: Vec<u32> = rough.assignment().iter().map(|&c| c as u32).collect();
    let stats = rough.all_channel_stats();
    let freq: Vec<f64> = stats.iter().map(|s| s.frequency).collect();
    let size: Vec<f64> = stats.iter().map(|s| s.size).collect();
    let mut engine = BestMoveEngine::new(channels, 1e-9, f, z, assign, freq, size);

    // The calling thread's count only: the harness's other threads
    // cannot leak into the window.
    let before = thread_allocations();
    let moves = (0..64).filter_map(|_| engine.apply_best()).count();
    let allocs = thread_allocations() - before;
    assert_eq!(moves, 64, "DRP's split leaves at least 64 improving moves");
    assert_eq!(allocs, 0, "{moves} CDS moves made {allocs} allocations");
}
