//! The per-thread allocation counter: the counting allocator is
//! installed for this test binary, and a window measured with
//! `thread_allocations` must see the calling thread's heap traffic and
//! no other thread's.

use dbcast_perf::{thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so parallel test threads
/// would bleed allocations into each other's exact-delta windows.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn thread_allocations_see_only_the_calling_thread() {
    use std::sync::Barrier;
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The two barriers bracket this thread's allocations inside the
    // worker's measured window.
    let (opened, closed) = (Barrier::new(2), Barrier::new(2));
    let worker = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let before = thread_allocations();
            std::hint::black_box(Vec::<u8>::with_capacity(4096));
            opened.wait();
            closed.wait();
            thread_allocations() - before
        });
        opened.wait();
        let before = thread_allocations();
        for _ in 0..100 {
            std::hint::black_box(Vec::<u8>::with_capacity(64));
        }
        assert_eq!(thread_allocations() - before, 100, "this thread's allocations");
        closed.wait();
        worker.join().expect("worker thread panicked")
    });
    assert_eq!(worker, 1, "the worker saw another thread's allocations");
}
