//! End-to-end gate tests: the counting allocator is installed for this
//! test binary, so allocation deltas are real, and a deliberately
//! injected slowdown must make the gate fail.

use dbcast_perf::{
    compare, run_suite, standard_suite, thread_allocations, Benchmark, CountingAllocator,
    RunOptions, Tolerances,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so parallel test threads
/// would bleed allocations into each other's exact-delta windows.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn options(iterations: usize) -> RunOptions {
    RunOptions { iterations, warmup: 1, profile: false }
}

#[test]
fn deliberate_slowdown_trips_the_gate() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let work = || {
        // Deterministic busywork, microseconds per iteration.
        let v: Vec<u64> = (0..512).collect();
        std::hint::black_box(v.iter().sum::<u64>());
    };
    let mut fast = vec![Benchmark::new("injected", work)];
    let baseline = run_suite(&mut fast, &options(5));

    // The same benchmark with a sleep injected inside a benchmarked
    // span — the regression the gate exists to catch.
    let mut slow = vec![Benchmark::new("injected", move || {
        let _span = dbcast_obs::span!("perf.test.injected_sleep");
        std::thread::sleep(std::time::Duration::from_millis(5));
        work();
    })];
    let current = run_suite(&mut slow, &options(5));

    let verdict = compare(&current, &baseline, &Tolerances::default());
    assert!(!verdict.passed(), "gate missed the slowdown:\n{}", verdict.render());
    assert!(verdict.render().contains("REGRESSION"));

    // And without the sleep the same suite passes against itself.
    let mut fast_again = vec![Benchmark::new("injected", work)];
    let rerun = run_suite(&mut fast_again, &options(5));
    // Tiny fixed workloads jitter; the point here is shape, not timing,
    // so give the self-comparison a generous wall tolerance.
    let loose = Tolerances { wall_pct: 500.0, ..Tolerances::default() };
    let verdict = compare(&rerun, &baseline, &loose);
    assert!(verdict.passed(), "self-comparison failed:\n{}", verdict.render());
}

#[test]
fn allocation_deltas_are_counted_and_stable() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut suite = vec![Benchmark::new("fixed_alloc", || {
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
    })];
    let report = run_suite(&mut suite, &options(6));
    let rec = report.benchmark("fixed_alloc").unwrap();
    assert!(rec.allocs_available, "counting allocator is installed in this binary");
    assert!(rec.allocs >= 1, "the Vec allocation was not observed");
    assert!(rec.alloc_stable, "identical iterations must allocate identically");

    // Exactness: one extra allocation per iteration is a regression.
    let mut bigger = vec![Benchmark::new("fixed_alloc", || {
        let v: Vec<u8> = Vec::with_capacity(4096);
        let w: Vec<u8> = Vec::with_capacity(64);
        std::hint::black_box((&v, &w));
    })];
    let current = run_suite(&mut bigger, &options(6));
    let cur = current.benchmark("fixed_alloc").unwrap();
    assert!(cur.alloc_stable && cur.allocs > rec.allocs);
    let loose_wall = Tolerances { wall_pct: 1e6, ..Tolerances::default() };
    let verdict = compare(&current, &report, &loose_wall);
    assert!(
        !verdict.passed(),
        "extra allocation escaped the exact check:\n{}",
        verdict.render()
    );
}

#[test]
fn standard_suite_measures_every_benchmark() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut suite = standard_suite();
    let report =
        run_suite(&mut suite, &RunOptions { iterations: 1, warmup: 0, profile: true });
    assert_eq!(report.benchmarks.len(), 15);
    for rec in &report.benchmarks {
        assert!(rec.median_ns > 0.0, "{} measured zero time", rec.name);
        assert!(rec.allocs_available);
        if rec.name == "audit_sampler" {
            // The audit decision path is contractually allocation-free:
            // sampling hash, residual accounting and ring records are
            // pure atomics into preallocated slots.
            assert_eq!(rec.allocs, 0, "audit_sampler allocated");
        } else {
            assert!(rec.allocs > 0, "{} reported no allocations", rec.name);
        }
    }
    // With the obs feature the profiled spans give every allocator
    // benchmark a non-trivial tree depth (e.g. drp run -> split scan).
    if dbcast_obs::enabled() {
        let drp = report.benchmark("drp").unwrap();
        assert!(drp.peak_span_depth >= 1, "no span tree recorded for drp");
    }
}

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
