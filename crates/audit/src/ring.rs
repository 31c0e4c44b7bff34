//! The trace ring: a fixed-capacity, power-of-two buffer of
//! [`TraceRecord`]s, a typed view over the obs crate's seqlock
//! [`SeqRing`] (twelve words per record, floats as raw bits).
//!
//! The ring is **single-writer**: only the serving loop records and
//! amends slots, while any number of reader threads (the `/exemplars`
//! endpoint, `dbcast trace` scrapes mid-run) snapshot concurrently and
//! skip any slot a write is touching.
//!
//! The single-writer discipline is what permits
//! [`TraceRing::mark_straddles`]: at a swap boundary the serving loop
//! re-opens *live* slots whose request was admitted before the
//! boundary but satisfied after it, stamps the swap-straddle penalty
//! in, and re-seals them through [`SeqRing::amend`]. A concurrent
//! reader either sees the record before the amendment, or after it, or
//! skips it — never a half-written mix.

use dbcast_obs::ring::SeqRing;

/// The record was caught by the deterministic seeded sampling stage.
pub const FLAG_SEEDED: u64 = 1;
/// The record was caught by the tail-biased stage (SLO-slow request).
pub const FLAG_TAIL: u64 = 1 << 1;
/// The request's service straddled an EpochCell program swap.
pub const FLAG_STRADDLED: u64 = 1 << 2;

/// One sampled request lifecycle, as captured by the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Served-request ordinal (0-based position among served requests).
    pub request_id: u64,
    /// Requested item index.
    pub item: u64,
    /// Tick index at arrival.
    pub arrival_tick: u64,
    /// Tick index at (projected) satisfaction, assuming the tick length
    /// at arrival holds until completion.
    pub satisfied_tick: u64,
    /// Generation that admitted the request (waits are accounted here).
    pub generation: u64,
    /// Channel broadcasting the requested item in that generation.
    pub channel: u64,
    /// Items scheduled on the channel strictly before the requested one
    /// relative to the broadcast phase at arrival — the request's
    /// position in the cyclic "queue".
    pub queue_position: u64,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Observed wait (virtual seconds).
    pub wait: f64,
    /// Eq. 2 per-item model prediction: `cycle_c/(2b) + z_i/b`.
    pub predicted: f64,
    /// Wait attributable to crossing a swap boundary mid-service
    /// (`completion − boundary`; 0 for non-straddling requests).
    pub straddle_penalty: f64,
    /// [`FLAG_SEEDED`] | [`FLAG_TAIL`] | [`FLAG_STRADDLED`].
    pub flags: u64,
}

impl TraceRecord {
    /// The scheduling residual: whatever part of the observed wait the
    /// model prediction and the straddle penalty do not explain.
    /// Computed as the exact remainder, so
    /// `predicted + residual() + straddle_penalty == wait` up to one
    /// floating-point rounding of the subtraction itself.
    pub fn residual(&self) -> f64 {
        self.wait - self.predicted - self.straddle_penalty
    }

    /// Virtual time at which the request was satisfied.
    pub fn completion(&self) -> f64 {
        self.arrival + self.wait
    }

    /// Caught by the seeded sampling stage?
    pub fn seeded(&self) -> bool {
        self.flags & FLAG_SEEDED != 0
    }

    /// Caught by the tail-biased (SLO-slow) stage?
    pub fn tail(&self) -> bool {
        self.flags & FLAG_TAIL != 0
    }

    /// Straddled a program swap?
    pub fn straddled(&self) -> bool {
        self.flags & FLAG_STRADDLED != 0
    }

    fn to_words(self) -> [u64; 12] {
        [
            self.request_id,
            self.item,
            self.arrival_tick,
            self.satisfied_tick,
            self.generation,
            self.channel,
            self.queue_position,
            self.arrival.to_bits(),
            self.wait.to_bits(),
            self.predicted.to_bits(),
            self.straddle_penalty.to_bits(),
            self.flags,
        ]
    }

    fn from_words(w: [u64; 12]) -> Self {
        TraceRecord {
            request_id: w[0],
            item: w[1],
            arrival_tick: w[2],
            satisfied_tick: w[3],
            generation: w[4],
            channel: w[5],
            queue_position: w[6],
            arrival: f64::from_bits(w[7]),
            wait: f64::from_bits(w[8]),
            predicted: f64::from_bits(w[9]),
            straddle_penalty: f64::from_bits(w[10]),
            flags: w[11],
        }
    }
}

/// Fixed-capacity ring of sampled request lifecycles.
#[derive(Debug)]
pub struct TraceRing(SeqRing<12>);

impl TraceRing {
    /// Creates a ring holding at least `capacity` records (rounded up
    /// to the next power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        TraceRing(SeqRing::new(capacity))
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Records ever written (not clamped to capacity).
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Appends a record (single writer: the serving loop).
    pub fn record(&self, record: &TraceRecord) {
        self.0.record(record.to_words());
    }

    /// At a swap boundary, stamps the straddle penalty into every live
    /// record whose service spans `boundary` and is not yet marked.
    /// Returns how many records were marked. Single writer only — the
    /// amendment goes through [`SeqRing::amend`], so concurrent
    /// snapshots stay untorn.
    pub fn mark_straddles(&self, boundary: f64) -> u64 {
        let mut marked = 0;
        self.0.for_each(|idx, words| {
            let record = TraceRecord::from_words(words);
            let straddles = record.arrival < boundary && record.completion() > boundary;
            if !straddles || record.straddled() {
                return;
            }
            let amended = TraceRecord {
                straddle_penalty: record.completion() - boundary,
                flags: record.flags | FLAG_STRADDLED,
                ..record
            };
            if self.0.amend(idx, amended.to_words()) {
                marked += 1;
            }
        });
        marked
    }

    /// Counts the untorn live records without copying them out.
    pub fn live(&self) -> u64 {
        let mut live = 0;
        self.0.for_each(|_, _| live += 1);
        live
    }

    /// Copies out every untorn live record, oldest first. Slots being
    /// overwritten or amended concurrently are skipped.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.0.snapshot(|_, words| TraceRecord::from_words(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival: f64, wait: f64) -> TraceRecord {
        TraceRecord {
            request_id: id,
            item: id * 3,
            arrival_tick: id,
            satisfied_tick: id + 1,
            generation: 0,
            channel: id % 4,
            queue_position: id % 7,
            arrival,
            wait,
            predicted: wait * 0.8,
            straddle_penalty: 0.0,
            flags: FLAG_SEEDED,
        }
    }

    #[test]
    fn snapshot_round_trips_floats_exactly() {
        let ring = TraceRing::new(64);
        let r = rec(7, 1.234567891234, 0.98765432101);
        ring.record(&r);
        assert_eq!(ring.snapshot(), vec![r]);
    }

    #[test]
    fn mark_straddles_stamps_spanning_records_once() {
        let ring = TraceRing::new(64);
        ring.record(&rec(0, 0.0, 1.0)); // completes at 1.0 < boundary
        ring.record(&rec(1, 1.5, 2.0)); // spans boundary 2.0
        ring.record(&rec(2, 2.5, 1.0)); // arrives after boundary
        assert_eq!(ring.mark_straddles(2.0), 1);
        // Re-marking the same boundary is a no-op.
        assert_eq!(ring.mark_straddles(2.0), 0);
        let snap = ring.snapshot();
        assert!(!snap[0].straddled() && !snap[2].straddled());
        assert!(snap[1].straddled());
        assert!((snap[1].straddle_penalty - 1.5).abs() < 1e-12);
        let sum = snap[1].predicted + snap[1].residual() + snap[1].straddle_penalty;
        assert!((sum - snap[1].wait).abs() < 1e-9);
    }

    /// The writer-side invariants of `rec`: `predicted == 0.8·wait`,
    /// the wait split sums back, and a record carries a penalty exactly
    /// when it carries the straddle flag. A torn read breaks one.
    fn assert_untorn(r: &TraceRecord) {
        assert!((r.predicted - r.wait * 0.8).abs() < 1e-12, "torn record: {r:?}");
        let sum = r.predicted + r.residual() + r.straddle_penalty;
        assert!((sum - r.wait).abs() < 1e-9, "split does not sum back: {r:?}");
        assert_eq!(r.straddled(), r.straddle_penalty != 0.0, "torn amendment: {r:?}");
    }

    #[test]
    fn concurrent_snapshots_never_see_a_torn_record_or_amendment() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (ring, stop) = (Arc::clone(&ring), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        ring.snapshot().iter().for_each(assert_untorn);
                    }
                })
            })
            .collect();
        // Arrivals 0.1 apart with waits up to 12.5, so every boundary
        // catches live records mid-service.
        let mut marked = 0;
        for i in 0..20_000u64 {
            ring.record(&rec(i, i as f64 * 0.1, (i % 13) as f64 + 0.5));
            if i % 8 == 7 {
                marked += ring.mark_straddles(i as f64 * 0.1 - 0.05);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(marked > 10_000, "only {marked} amendments exercised");
        ring.snapshot().iter().for_each(assert_untorn);
    }
}
