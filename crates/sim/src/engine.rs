//! The simulation engine: one pass over the request trace.

use std::fmt;

use dbcast_model::{BroadcastProgram, ChannelId, ItemId};
use dbcast_workload::RequestTrace;
use serde::{Deserialize, Serialize};

use crate::stats::SummaryStats;

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A request targets an item that no channel broadcasts.
    ItemNotBroadcast {
        /// The unknown item.
        item: ItemId,
        /// Index of the request in the trace.
        request: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ItemNotBroadcast { item, request } => {
                write!(f, "request {request} asks for {item}, which no channel broadcasts")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The lifecycle of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The requested item.
    pub item: ItemId,
    /// The channel that served it.
    pub channel: ChannelId,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// When the item's slot started broadcasting.
    pub slot_start: f64,
    /// When the download completed.
    pub completion: f64,
}

impl RequestRecord {
    /// Probe time: arrival until the slot starts.
    pub fn probe_time(&self) -> f64 {
        self.slot_start - self.arrival
    }

    /// Download time: slot start until completion.
    pub fn download_time(&self) -> f64 {
        self.completion - self.slot_start
    }

    /// Total waiting time (the quantity of Eq. 1).
    pub fn waiting_time(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// Per-channel load counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChannelLoad {
    /// Requests served by this channel.
    pub requests: u64,
    /// Summed waiting time of those requests.
    pub total_waiting: f64,
}

impl ChannelLoad {
    /// Mean waiting time on this channel (0 when unused).
    pub fn mean_waiting(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_waiting / self.requests as f64
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    records: Vec<RequestRecord>,
    waiting: SummaryStats,
    probe: SummaryStats,
    download: SummaryStats,
    channel_loads: Vec<ChannelLoad>,
}

impl SimReport {
    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Per-request lifecycle records, in trace order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Waiting-time statistics (probe + download, Eq. 1's quantity).
    pub fn waiting(&self) -> &SummaryStats {
        &self.waiting
    }

    /// Probe-time statistics.
    pub fn probe(&self) -> &SummaryStats {
        &self.probe
    }

    /// Download-time statistics.
    pub fn download(&self) -> &SummaryStats {
        &self.download
    }

    /// Per-channel load, indexed by channel id.
    pub fn channel_loads(&self) -> &[ChannelLoad] {
        &self.channel_loads
    }
}

/// A configured simulation: a broadcast program plus a request trace.
///
/// In push-based cyclic broadcast a request's wait depends only on its
/// arrival time and the program, never on other requests, so the run is
/// one pass over the trace: each arrival asks the program for its item's
/// next slot start on its one channel, then downloads for `size / b`.
/// Runs are bit-for-bit deterministic.
#[derive(Debug)]
pub struct Simulation<'a> {
    program: &'a BroadcastProgram,
    trace: &'a RequestTrace,
}

impl<'a> Simulation<'a> {
    /// Binds a program to a trace.
    pub fn new(program: &'a BroadcastProgram, trace: &'a RequestTrace) -> Self {
        Simulation { program, trace }
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::ItemNotBroadcast`] for the first request, in trace
    /// order, whose item the program does not carry.
    pub fn run(&self) -> Result<SimReport, SimError> {
        let _span = dbcast_obs::span!("sim.engine.run");
        let bandwidth = self.program.bandwidth();
        let mut records = Vec::with_capacity(self.trace.len());
        let mut waiting = SummaryStats::new();
        let mut probe = SummaryStats::new();
        let mut download = SummaryStats::new();
        let mut channel_loads = vec![ChannelLoad::default(); self.program.channels().len()];

        for (request, r) in self.trace.iter().enumerate() {
            // The client tunes to the item's one channel, waits for its
            // next slot and downloads it.
            let (channel, slot_start, size) = self
                .program
                .best_start(r.item, r.time)
                .ok_or(SimError::ItemNotBroadcast { item: r.item, request })?;
            let record = RequestRecord {
                item: r.item,
                channel,
                arrival: r.time,
                slot_start,
                completion: slot_start + size / bandwidth,
            };
            waiting.record(record.waiting_time());
            probe.record(record.probe_time());
            download.record(record.download_time());
            let load = &mut channel_loads[channel.index()];
            load.requests += 1;
            load.total_waiting += record.waiting_time();
            records.push(record);
        }

        dbcast_obs::counter!("sim.engine.requests").add(self.trace.len() as u64);
        if dbcast_obs::enabled() {
            // The report's own SummaryStats doubles as the telemetry
            // source — no second accumulation pass.
            dbcast_obs::gauge!("sim.engine.mean_waiting").set(waiting.mean());
            dbcast_obs::gauge!("sim.engine.mean_probe").set(probe.mean());
            dbcast_obs::gauge!("sim.engine.mean_download").set(download.mean());
        }

        Ok(SimReport { records, waiting, probe, download, channel_loads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};
    use dbcast_workload::{TraceBuilder, WorkloadBuilder};

    fn tiny_program() -> (Database, BroadcastProgram) {
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.6, 2.0),
            ItemSpec::new(0.4, 3.0),
        ])
        .unwrap();
        let alloc = Allocation::from_assignment(&db, 1, vec![0, 0]).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        (db, program)
    }

    #[test]
    fn single_request_lifecycle_is_exact() {
        let (_, program) = tiny_program();
        // Cycle: item0 at [0, 0.2), item1 at [0.2, 0.5), repeating.
        // A request for item1 at t = 0.3 waits until 0.7, downloads 0.3s.
        let trace =
            dbcast_workload::RequestTrace::from_requests(vec![dbcast_workload::Request {
                time: 0.3,
                item: ItemId::new(1),
            }]);
        let report = Simulation::new(&program, &trace).run().unwrap();
        assert_eq!(report.completed(), 1);
        let r = &report.records()[0];
        assert!((r.slot_start - 0.7).abs() < 1e-12);
        assert!((r.completion - 1.0).abs() < 1e-12);
        assert!((r.waiting_time() - 0.7).abs() < 1e-12);
        assert!((r.probe_time() - 0.4).abs() < 1e-12);
        assert!((r.download_time() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn waiting_equals_probe_plus_download() {
        let db = WorkloadBuilder::new(20).seed(1).build().unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(
            &db,
            2,
            (0..20).map(|i| i % 2).collect(),
        )
        .unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        let trace = TraceBuilder::new(&db).requests(500).seed(3).build().unwrap();
        let report = Simulation::new(&program, &trace).run().unwrap();
        for r in report.records() {
            assert!((r.waiting_time() - r.probe_time() - r.download_time()).abs() < 1e-9);
            assert!(r.probe_time() >= -1e-12);
        }
    }

    #[test]
    fn every_request_completes_and_loads_add_up() {
        let db = WorkloadBuilder::new(30).seed(2).build().unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(
            &db,
            3,
            (0..30).map(|i| i % 3).collect(),
        )
        .unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        let trace = TraceBuilder::new(&db).requests(1000).seed(4).build().unwrap();
        let report = Simulation::new(&program, &trace).run().unwrap();
        assert_eq!(report.completed(), 1000);
        let served: u64 = report.channel_loads().iter().map(|l| l.requests).sum();
        assert_eq!(served, 1000);
        // The summaries and loads are exactly a fold over the records.
        let (mut waiting, mut probe, mut download) =
            (SummaryStats::new(), SummaryStats::new(), SummaryStats::new());
        let mut loads = vec![ChannelLoad::default(); 3];
        for r in report.records() {
            waiting.record(r.waiting_time());
            probe.record(r.probe_time());
            download.record(r.download_time());
            loads[r.channel.index()].requests += 1;
            loads[r.channel.index()].total_waiting += r.waiting_time();
        }
        assert_eq!(report.waiting(), &waiting);
        assert_eq!(report.probe(), &probe);
        assert_eq!(report.download(), &download);
        assert_eq!(report.channel_loads(), &loads[..]);
    }

    #[test]
    fn deterministic_runs() {
        let db = WorkloadBuilder::new(15).seed(5).build().unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(
            &db,
            2,
            (0..15).map(|i| i % 2).collect(),
        )
        .unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        let trace = TraceBuilder::new(&db).requests(200).seed(6).build().unwrap();
        let a = Simulation::new(&program, &trace).run().unwrap();
        let b = Simulation::new(&program, &trace).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_fine() {
        let (_, program) = tiny_program();
        let trace = dbcast_workload::RequestTrace::default();
        let report = Simulation::new(&program, &trace).run().unwrap();
        assert_eq!(report.completed(), 0);
        assert_eq!(report.waiting().count(), 0);
    }
}
