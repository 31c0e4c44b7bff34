//! Telemetry robustness under concurrency: snapshots taken while
//! writer threads are mid-flight must be internally consistent and
//! decode as `metrics` documents (which checks their invariants), and
//! `Registry::reset` must leave a clean registry even when racing
//! recorders.
//!
//! Uses `force_add`/`force_record` so the test is meaningful in both
//! feature configurations (the runtime switch is bypassed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dbcast_obs::doc::{decode, render};
use dbcast_obs::snapshot::Snapshot;

/// Renders `snap` as a `metrics` document and decodes it back, which
/// runs the document's invariant check.
fn round_trip(snap: &Snapshot) -> Snapshot {
    let back = decode::<Snapshot>(&render(snap)).expect("snapshot document decodes");
    assert_eq!(&back, snap);
    back
}

#[test]
fn snapshots_under_concurrent_recording_are_consistent_and_parse() {
    let reg = dbcast_obs::registry();
    reg.reset();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let ctr = dbcast_obs::registry().counter("concurrency.test.events");
                let hist = dbcast_obs::registry().histogram("concurrency.test.latency");
                let mut v = 1u64 + t;
                while !stop.load(Ordering::Relaxed) {
                    ctr.force_add(1);
                    hist.force_record(v);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 10_000 + 1;
                }
            })
        })
        .collect();

    // Consecutive snapshots observe a monotone counter, and every one
    // of them round-trips through the document envelope.
    let mut last = 0u64;
    for _ in 0..20 {
        let snap = reg.snapshot();
        let count = snap.counter("concurrency.test.events").unwrap_or(0);
        assert!(count >= last, "counter went backwards: {count} < {last}");
        last = count;
        if let Some(h) = snap.histogram("concurrency.test.latency") {
            assert!(h.count >= 1);
            // The snapshot reads buckets before the total count (and
            // clamps count up to the bucket sum), so racing writers can
            // only make the count run ahead of the bucket sum — never
            // behind. The exporters rely on this: cumulative bucket
            // lines must never exceed the `+Inf`/`_count` value.
            let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
            assert!(h.count >= bucket_total, "count {} < buckets {bucket_total}", h.count);
        }
        round_trip(&snap);
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread exits cleanly");
    }

    // The final quiescent snapshot decodes with the recorded values
    // intact.
    let snap = reg.snapshot();
    let total = snap.counter("concurrency.test.events").expect("counter present");
    assert_eq!(round_trip(&snap).counter("concurrency.test.events"), Some(total));

    // Reset with no writers racing leaves everything zeroed...
    reg.reset();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("concurrency.test.events"), Some(0));
    assert_eq!(snap.histogram("concurrency.test.latency").map(|h| h.count), Some(0));

    // ...and a reset racing live recorders never corrupts a snapshot:
    // whatever interleaving happens, the registry still snapshots and
    // serializes cleanly afterwards.
    let stop = Arc::new(AtomicBool::new(false));
    let racer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ctr = dbcast_obs::registry().counter("concurrency.test.events");
            while !stop.load(Ordering::Relaxed) {
                ctr.force_add(1);
            }
        })
    };
    for _ in 0..10 {
        reg.reset();
        round_trip(&reg.snapshot());
    }
    stop.store(true, Ordering::Relaxed);
    racer.join().expect("racer exits cleanly");
    reg.reset();
}
