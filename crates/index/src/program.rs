//! Indexing a whole multi-channel broadcast program and measuring it.
//!
//! [`IndexedProgram`] is the one place an indexed program is built and
//! looked up: the network egress, a client's world view and the
//! experiments each hold one, and an item's channel comes from
//! [`BroadcastProgram::locate`], not a scan.

use dbcast_model::{BroadcastProgram, ChannelSchedule, Database, ItemId, ModelError};
use serde::{Deserialize, Serialize};

use crate::channel::{optimal_segments, IndexParams, IndexedChannel};
use crate::energy::EnergyModel;

/// Frequency-weighted expected metrics of an indexed program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramMetrics {
    /// Expected access time (seconds) per request.
    pub access: f64,
    /// Expected tuning time (seconds of radio-active time) per request.
    pub tuning: f64,
    /// Expected access time of the same program *without* indexing.
    pub unindexed_access: f64,
}

impl ProgramMetrics {
    /// The access-latency overhead indexing costs, relative.
    pub fn access_overhead(&self) -> f64 {
        self.access / self.unindexed_access - 1.0
    }

    /// Expected per-request energy (mJ) under `radio`, indexed.
    pub fn energy(&self, radio: &EnergyModel) -> f64 {
        radio.energy(self.access, self.tuning)
    }

    /// Expected per-request energy (mJ) without indexing (radio active
    /// for the whole access window).
    pub fn energy_unindexed(&self, radio: &EnergyModel) -> f64 {
        radio.energy_unindexed(self.unindexed_access)
    }
}

/// Request instants, uniform in an item's indexed cycle, that every
/// per-item expectation integrates over.
pub const EXPECTATION_SAMPLES: usize = 512;

/// A broadcast program with every non-empty channel (1, m)-indexed:
/// the one owner of a program's indexed air layout.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedProgram {
    program: BroadcastProgram,
    /// By channel position; `None` for an empty channel.
    channels: Vec<Option<IndexedChannel>>,
}

impl IndexedProgram {
    /// Indexes every non-empty channel of `program` with an explicit
    /// per-channel segment count (entries for empty channels ignored).
    ///
    /// # Errors
    ///
    /// [`ModelError::AssignmentLength`] when `segments` has the wrong
    /// length; parameter and channel-construction errors propagate.
    pub fn new(
        program: &BroadcastProgram,
        segments: &[usize],
        params: IndexParams,
    ) -> Result<Self, ModelError> {
        if segments.len() != program.channels().len() {
            return Err(ModelError::AssignmentLength {
                expected: program.channels().len(),
                actual: segments.len(),
            });
        }
        IndexedProgram::build(program, params, |schedule| {
            segments[schedule.channel().index()]
        })
    }

    /// Indexes every non-empty channel with its own optimal copy count
    /// `m* =` [`optimal_segments`]`(Z_i, index_size)`, capped at the
    /// channel's slot count.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidSize`] for parameters that fail
    /// [`IndexParams::validate`], checked before any `m*` is chosen;
    /// channel-construction errors propagate.
    pub fn with_optimal_segments(
        program: &BroadcastProgram,
        params: IndexParams,
    ) -> Result<Self, ModelError> {
        IndexedProgram::build(program, params, |s| {
            optimal_segments(s.cycle_size(), params.index_size, s.slots().len())
        })
    }

    fn build(
        program: &BroadcastProgram,
        params: IndexParams,
        segments: impl Fn(&ChannelSchedule) -> usize,
    ) -> Result<Self, ModelError> {
        // Before any argmin: `optimal_segments` asserts on a bad size.
        params.validate()?;
        let channels = (program.channels().iter())
            .map(|s| {
                (!s.is_empty())
                    .then(|| IndexedChannel::new(s, segments(s), params))
                    .transpose()
            })
            .collect::<Result<_, _>>()?;
        Ok(IndexedProgram { program: program.clone(), channels })
    }

    /// The indexed channels by position; `None` for an empty channel.
    pub fn channels(&self) -> &[Option<IndexedChannel>] {
        &self.channels
    }

    /// The shared bandwidth (size units / second).
    pub fn bandwidth(&self) -> f64 {
        self.program.bandwidth()
    }

    /// The indexed channel carrying `item`.
    fn carrier(&self, item: ItemId) -> Option<&IndexedChannel> {
        let (schedule, _) = self.program.locate(item)?;
        self.channels[schedule.channel().index()].as_ref()
    }

    /// Exact `(access, tuning)` of one request (seconds).
    pub fn request_metrics(&self, item: ItemId, now: f64) -> Option<(f64, f64)> {
        self.carrier(item)?.request_metrics(item, now, self.bandwidth())
    }

    /// Upper bound on the tuning time of any request for `item`.
    pub fn tuning_time(&self, item: ItemId) -> Option<f64> {
        self.carrier(item)?.tuning_time(item, self.bandwidth())
    }

    /// Mean `(access, tuning)` of a request for `item` at an instant
    /// uniform in its channel's indexed cycle, over
    /// [`EXPECTATION_SAMPLES`] grid points.
    pub fn expected_item_metrics(&self, item: ItemId) -> Option<(f64, f64)> {
        self.carrier(item)?.expected_metrics(item, self.bandwidth(), EXPECTATION_SAMPLES)
    }

    /// Frequency-weighted expected metrics over `db`, with unindexed
    /// access (Eq. 1 of the base paper) as the latency baseline.
    ///
    /// # Errors
    ///
    /// [`ModelError::ItemOutOfRange`] if the program does not carry
    /// some database item.
    pub fn expected_metrics(&self, db: &Database) -> Result<ProgramMetrics, ModelError> {
        let bandwidth = self.bandwidth();
        let mut access = 0.0;
        let mut tuning = 0.0;
        let mut unindexed = 0.0;
        for d in db.iter() {
            let channel = self.carrier(d.id()).ok_or(ModelError::ItemOutOfRange {
                item: d.id().index(),
                items: db.len(),
            })?;
            let (e_access, e_tuning) = channel
                .expected_metrics(d.id(), bandwidth, EXPECTATION_SAMPLES)
                .expect("the carrier airs the item");
            access += d.frequency() * e_access;
            tuning += d.frequency() * e_tuning;
            // Unindexed: probe half the data-only cycle + download.
            unindexed += d.frequency()
                * self.program.expected_response_time(d.id()).expect("the carrier airs it");
        }
        Ok(ProgramMetrics { access, tuning, unindexed_access: unindexed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_alloc::DrpCds;
    use dbcast_model::ChannelAllocator;
    use dbcast_workload::{TraceBuilder, WorkloadBuilder};

    const PARAMS: IndexParams = IndexParams { index_size: 1.0, header_size: 0.1 };

    fn setup() -> (Database, BroadcastProgram) {
        let db = WorkloadBuilder::new(40).seed(5).build().unwrap();
        let alloc = DrpCds::new().allocate(&db, 4).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        (db, program)
    }

    #[test]
    fn optimal_indexing_has_low_tuning_and_bounded_overhead() {
        let (db, program) = setup();
        let indexed = IndexedProgram::with_optimal_segments(&program, PARAMS).unwrap();
        let m = indexed.expected_metrics(&db).unwrap();
        assert!(m.tuning < m.access, "{m:?}");
        // Indexing cuts tuning to well under a third of the unindexed
        // access time (the exact ratio hovers around 3.4-4.4x across
        // workload instances).
        assert!(m.tuning < m.unindexed_access / 3.0, "{m:?}");
        // Index overhead on latency stays modest at m*.
        assert!(m.access_overhead() < 0.35, "overhead {}", m.access_overhead());
    }

    #[test]
    fn energy_savings_are_dramatic_with_cheap_doze() {
        let (db, program) = setup();
        let indexed = IndexedProgram::with_optimal_segments(&program, PARAMS).unwrap();
        let m = indexed.expected_metrics(&db).unwrap();
        let radio = EnergyModel::typical();
        let saving = 1.0 - m.energy(&radio) / m.energy_unindexed(&radio);
        assert!(saving > 0.5, "expected >50% energy saving, got {saving:.2}");
    }

    #[test]
    fn optimal_m_beats_extreme_choices() {
        let (db, program) = setup();
        let k = program.channels().len();
        let best = IndexedProgram::with_optimal_segments(&program, PARAMS).unwrap();
        let m1 = IndexedProgram::new(&program, &vec![1; k], PARAMS).unwrap();
        let huge = IndexedProgram::new(&program, &vec![64; k], PARAMS).unwrap();
        let wb = best.expected_metrics(&db).unwrap();
        let w1 = m1.expected_metrics(&db).unwrap();
        let whuge = huge.expected_metrics(&db).unwrap();
        assert!(wb.access <= w1.access + 1e-9);
        assert!(wb.access <= whuge.access + 1e-9);
    }

    #[test]
    fn trace_evaluation_matches_expected_metrics() {
        let (db, program) = setup();
        let indexed = IndexedProgram::with_optimal_segments(&program, PARAMS).unwrap();
        let expected = indexed.expected_metrics(&db).unwrap();
        let trace = TraceBuilder::new(&db).requests(30_000).seed(6).build().unwrap();
        let (access, tuning) = trace.iter().fold((0.0, 0.0), |(a, t), r| {
            let (access, tuning) = indexed.request_metrics(r.item, r.time).unwrap();
            (a + access, t + tuning)
        });
        let n = trace.len() as f64;
        let (access, tuning) = (access / n, tuning / n);
        let rel = (access - expected.access).abs() / expected.access;
        assert!(rel < 0.05, "access {access} vs {}", expected.access);
        let rel_t = (tuning - expected.tuning).abs() / expected.tuning;
        assert!(rel_t < 0.05, "tuning {tuning} vs {}", expected.tuning);
    }

    #[test]
    fn wrong_segment_vector_length_errors() {
        let (_, program) = setup();
        assert!(IndexedProgram::new(&program, &[1, 1], PARAMS).is_err());
    }
}
