//! The seqlock ring: a fixed-capacity, power-of-two buffer of
//! fixed-width `[u64; W]` payloads, written through an atomic cursor
//! and guarded by one sequence stamp per slot. Recording never blocks
//! and never allocates; snapshots skip slots a writer is touching
//! instead of waiting for them. The flight recorder and the audit
//! trace ring are typed views over it.
//!
//! # Protocol
//!
//! A writer claims global index `i` with one `fetch_add` on the cursor
//! and owns slot `i % capacity` for that index. It stamps the slot's
//! sequence *odd* (`2i + 1`), issues a release fence, stores the
//! payload words (relaxed; each word is its own atomic, so a race is
//! staleness, never UB) and stamps the sequence *even and
//! index-carrying* (`2(i + 1)`, release). A reader accepts slot `i`
//! only when the sequence reads `2(i + 1)` (acquire) before the payload
//! loads and again after an acquire fence that follows them.
//!
//! The two fences are Boehm's seqlock fences. The writer's keeps the
//! payload stores from moving above the odd stamp; the reader's keeps
//! the payload loads from moving below the second stamp load. If a
//! reader loads any word of a newer write, the fences synchronize and
//! its second load sees that write's odd stamp, so the slot is dropped
//! rather than surfaced torn. On x86 both fences are compiler barriers
//! only.
//!
//! # Limitation
//!
//! A writer's claim is the `fetch_add`, not a per-slot lock. When a
//! [`SeqRing::record`] is preempted between its odd stamp and its
//! payload stores while other writers lap the ring, the late stores can
//! land over a newer write that has already sealed the same slot, and a
//! reader can then accept that newer index with a mixed payload. This
//! needs two concurrent writers and a full lap during one preemption;
//! closing it needs a per-slot CAS claim.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot: a sequence stamp plus `W` payload words.
#[derive(Debug)]
struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity seqlock ring over `[u64; W]` payloads.
#[derive(Debug)]
pub struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    cursor: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// Creates a ring holding the most recent `capacity` payloads
    /// (rounded up to a power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(64).next_power_of_two();
        SeqRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity (payloads retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total payloads ever recorded (monotone; not clamped to capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    fn slot(&self, idx: u64) -> &Slot<W> {
        &self.slots[(idx as usize) & (self.slots.len() - 1)]
    }

    /// Writes `words` into the slot for index `idx` under the odd/even
    /// stamps.
    #[inline]
    fn write(&self, idx: u64, words: &[u64; W]) {
        let slot = self.slot(idx);
        // The odd stamp can be relaxed: the release fence orders it
        // before every payload store, pairing with the reader's acquire
        // fence after its payload loads.
        slot.seq.store(2 * idx + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, &v) in slot.words.iter().zip(words) {
            word.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (idx + 1), Ordering::Release);
    }

    /// Reads the payload for index `idx`; `None` when the slot is not
    /// sealed for `idx` or a writer touched it during the read.
    #[inline]
    fn read(&self, idx: u64) -> Option<[u64; W]> {
        let slot = self.slot(idx);
        let sealed = 2 * (idx + 1);
        if slot.seq.load(Ordering::Acquire) != sealed {
            return None;
        }
        let words = std::array::from_fn(|k| slot.words[k].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        (slot.seq.load(Ordering::Relaxed) == sealed).then_some(words)
    }

    /// Records one payload. Wait-free for any number of writers: one
    /// `fetch_add` plus `W + 2` stores, no locks, no allocation.
    #[inline]
    pub fn record(&self, words: [u64; W]) {
        let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
        self.write(idx, &words);
    }

    /// Reopens the live, sealed slot of index `idx`, rewrites it with
    /// `words` and re-seals it under the same stamps, so a concurrent
    /// reader sees the old payload, the new one, or skips the slot.
    /// Returns `false` (and writes nothing) when `idx` is no longer
    /// sealed in its slot. **Single writer only:** a concurrent
    /// [`record`](Self::record) could lap the slot between the check
    /// and the write.
    pub fn amend(&self, idx: u64, words: [u64; W]) -> bool {
        if self.slot(idx).seq.load(Ordering::Acquire) != 2 * (idx + 1) {
            return false;
        }
        self.write(idx, &words);
        true
    }

    /// Calls `f(index, payload)` for every untorn live slot, oldest
    /// first. Slots a writer touched mid-read are skipped, so indices
    /// are strictly increasing but may have holes while writers lap
    /// the scan.
    pub fn for_each(&self, mut f: impl FnMut(u64, [u64; W])) {
        let end = self.cursor.load(Ordering::Acquire);
        for idx in end.saturating_sub(self.slots.len() as u64)..end {
            if let Some(words) = self.read(idx) {
                f(idx, words);
            }
        }
    }

    /// Copies every untorn live payload out, oldest first, through
    /// `decode(index, payload)`.
    pub fn snapshot<T>(&self, mut decode: impl FnMut(u64, [u64; W]) -> T) -> Vec<T> {
        let live = self.recorded().min(self.slots.len() as u64) as usize;
        let mut out = Vec::with_capacity(live);
        self.for_each(|idx, words| out.push(decode(idx, words)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u64) -> [u64; 3] {
        [i, i.wrapping_mul(3), i ^ 0xABCD]
    }

    fn snapshot(ring: &SeqRing<3>) -> Vec<(u64, [u64; 3])> {
        ring.snapshot(|idx, words| (idx, words))
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(SeqRing::<3>::new(0).capacity(), 64);
        assert_eq!(SeqRing::<3>::new(100).capacity(), 128);
        assert_eq!(SeqRing::<3>::new(4096).capacity(), 4096);
    }

    #[test]
    fn snapshot_keeps_the_most_recent_capacity_in_order() {
        // Part of one lap, exactly one lap, and several laps.
        for total in [10, 64, 200, 64 * 3 + 17] {
            let ring = SeqRing::new(64);
            for i in 0..total {
                ring.record(payload(i));
            }
            assert_eq!(ring.recorded(), total);
            let snap = snapshot(&ring);
            let first = total.saturating_sub(64);
            assert_eq!(snap.len() as u64, total - first);
            for (k, &(idx, words)) in snap.iter().enumerate() {
                assert_eq!(idx, first + k as u64, "total {total}");
                assert_eq!(words, payload(idx), "total {total}");
            }
        }
    }

    #[test]
    fn amend_rewrites_live_slots_only() {
        let ring = SeqRing::new(64);
        for i in 0..70 {
            ring.record(payload(i));
        }
        // Index 3 was lapped by index 67; index 60 is live.
        assert!(!ring.amend(3, [0; 3]));
        assert!(ring.amend(60, [1, 2, 3]));
        let snap = snapshot(&ring);
        assert_eq!(snap.len(), 64);
        for &(idx, words) in &snap {
            let want = if idx == 60 { [1, 2, 3] } else { payload(idx) };
            assert_eq!(words, want, "index {idx}");
        }
        assert_eq!(ring.recorded(), 70);
    }
}
