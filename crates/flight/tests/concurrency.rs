//! Lock-free ring under contention: writers wrapping the ring many
//! times over while snapshotters read must never surface a torn event
//! (a payload mixing fields from two different writes).
//!
//! Every writer thread encodes a checksum across its event fields, so a
//! reader can verify field-consistency of each snapshotted event
//! independently of scheduling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dbcast_flight::{EventKind, FlightEvent, FlightRing};

/// Event whose fields are all derived from `(writer, i)` so any mix of
/// two writes is detectable.
fn stamped(writer: u64, i: u64) -> FlightEvent {
    let tick = writer * 1_000_000 + i;
    FlightEvent::new(EventKind::RequestServed, tick, writer, i as f64)
        .value((tick * 2) as f64)
        .extra(tick ^ 0x5EED)
}

/// All fields agree on one `(writer, i)` origin.
fn untorn(e: &FlightEvent) -> bool {
    let tick = e.tick;
    let writer = tick / 1_000_000;
    let i = tick % 1_000_000;
    e.generation == writer
        && e.vtime == i as f64
        && e.value == (tick * 2) as f64
        && e.extra == (tick ^ 0x5EED)
}

#[test]
fn concurrent_wraparound_never_tears() {
    // Small ring so 4 writers x 50k events wrap it ~1500 times.
    let ring = Arc::new(FlightRing::new(128));
    let stop = Arc::new(AtomicBool::new(false));
    const PER_WRITER: u64 = 50_000;

    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.record(stamped(w, i));
                }
            })
        })
        .collect();

    // A dedicated reader hammers snapshots the whole time, and takes one
    // more once the writers are done: the flag is read before each
    // snapshot, so the pass that reads it set post-dates every write and
    // the reader sees events even if it was scheduled only after them.
    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            let mut seen = 0u64;
            loop {
                let done = stop.load(Ordering::Acquire);
                let snap = ring.snapshot();
                for e in &snap {
                    assert!(untorn(e), "torn event in snapshot: {e:?}");
                }
                // Sequence numbers within one snapshot are strictly
                // increasing (order is preserved, holes allowed where a
                // slot was mid-write).
                for w in snap.windows(2) {
                    assert!(
                        w[1].seq > w[0].seq,
                        "out of order: {} !> {}",
                        w[1].seq,
                        w[0].seq
                    );
                }
                snapshots += 1;
                seen += snap.len() as u64;
                if done {
                    break;
                }
            }
            (snapshots, seen)
        })
    };

    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Release);
    let (snapshots, seen) = reader.join().expect("reader panicked");
    assert!(snapshots > 0 && seen > 0, "reader never observed anything");

    // Quiescent state: every write counted, and the final snapshot is
    // full, untorn, and ends at the last sequence number.
    assert_eq!(ring.recorded(), 4 * PER_WRITER);
    let snap = ring.snapshot();
    assert_eq!(snap.len(), ring.capacity());
    for e in &snap {
        assert!(untorn(e), "torn event after quiescence: {e:?}");
    }
    assert_eq!(snap.last().unwrap().seq, 4 * PER_WRITER - 1);
}

#[test]
fn quiescent_snapshot_after_concurrent_wrap_is_contiguous() {
    // Holes in a snapshot exist only *while* writers lap the scan; once
    // the writers are done, the window is dense: every one of the last
    // `capacity` sequence numbers is present exactly once.
    let ring = Arc::new(FlightRing::new(64));
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    ring.record(stamped(w, i));
                }
            })
        })
        .collect();
    // Concurrent snapshots must stay well-formed mid-wrap too.
    for _ in 0..200 {
        for e in &ring.snapshot() {
            assert!(untorn(e), "torn event mid-wrap: {e:?}");
        }
    }
    for w in writers {
        w.join().expect("writer panicked");
    }
    let snap = ring.snapshot();
    assert_eq!(snap.len(), ring.capacity());
    let first = snap.first().unwrap().seq;
    assert_eq!(first, 3 * 20_000 - ring.capacity() as u64);
    for (i, e) in snap.iter().enumerate() {
        assert_eq!(e.seq, first + i as u64, "hole in quiescent snapshot");
        assert!(untorn(e), "torn event after quiescence: {e:?}");
    }
}
