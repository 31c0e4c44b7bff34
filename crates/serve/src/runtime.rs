//! The serving runtime: the closed control loop
//! `estimator → drift detector → re-allocator → hot swap`.
//!
//! The runtime streams the current broadcast program in *virtual time*:
//! requests are consumed in arrival order and each is served
//! analytically against the program generation active at its arrival
//! (`BroadcastProgram::response_time`, the same O(1) placement-table
//! kernel the simulator and the fleet planner use), so the loop is
//! exact, deterministic and runs millions of requests per second — the
//! serving-side dual of the one-pass trace simulator.
//!
//! Time is chopped into **ticks** of one full cycle of the fastest
//! non-empty channel of the active generation. All control actions
//! happen at tick boundaries, which is what makes the swap
//! safe-by-construction:
//!
//! 1. the re-allocation computed at the previous boundary is
//!    **installed** (published as the next generation through
//!    [`EpochCell`]),
//! 2. the estimator **decays** one EWMA step,
//! 3. the gap monitor charges the active generation its Eq. 3 cost under
//!    the estimated frequency vector, compares it with a certified lower
//!    bound on any allocation's cost, and may **dispatch** a
//!    re-allocation when the gap rises clearly above its own floor. The
//!    dispatch recomputes inline; step 1 of the next boundary installs
//!    the result.
//!
//! The gap rule is the only dispatcher: the SLO tracker judges each
//! generation against its Eq. 2 target and reports, but never swaps.
//!
//! The loop is the [`EpochCell`]'s only publisher, so it holds the
//! serving generation's `Arc` and refreshes it right after each install
//! instead of reading the cell per request. Each request is served and
//! accounted against the generation active at its arrival — nothing is
//! dropped, re-routed or double-counted. Since every wait is charged in
//! virtual time, recomputing inline delays no request, and a run
//! replays bit for bit from its seed.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbcast_alloc::{Cds, DrpCds};
use dbcast_audit::{
    AuditConfig, AuditSummary, AuditTracer, ChannelResidual, TraceRecord, FLAG_SEEDED,
    FLAG_TAIL,
};
use dbcast_flight::{EventKind, FlightEvent};
use dbcast_model::{
    average_waiting_time, AllocError, Allocation, BroadcastProgram, ChannelAllocator,
    ChannelSchedule, Database, ItemSpec, ModelError, ScheduledItem,
};
use dbcast_obs::metrics::{Counter, Gauge, Histogram, HistogramCells};
use dbcast_workload::RequestTrace;
use serde::{Deserialize, Serialize};

use crate::drift::{DriftDetector, GapMonitor};
use crate::estimator::{EstimatorConfig, FrequencyEstimator};
use crate::slo::{SloConfig, SloReport, SloTracker};
use crate::swap::EpochCell;

/// How a drift-triggered re-allocation recomputes the program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepairMode {
    /// Full DRP-CDS from scratch on the estimated workload.
    Full,
    /// Budgeted incremental repair: a [`Cds::refine`] capped at `budget`
    /// steepest-descent moves, started from the serving assignment
    /// re-weighted to the estimated frequencies.
    Budgeted {
        /// Maximum CDS moves per repair.
        budget: usize,
    },
}

impl RepairMode {
    /// Stable name for reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            RepairMode::Full => "full",
            RepairMode::Budgeted { .. } => "budgeted",
        }
    }
}

/// Where the re-allocation work runs. There is one mode; the type and
/// [`ServeConfig::worker`] remain because the repository benchmark
/// names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerMode {
    /// Recompute inline at the detection boundary; the result installs
    /// at the *next* boundary, and the whole closed loop is bit-for-bit
    /// seed-replayable.
    Deterministic,
}

/// Configuration of a [`ServeRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Broadcast channels.
    pub channels: usize,
    /// Channel bandwidth in size units per second.
    pub bandwidth: f64,
    /// Workload estimator parameters (exact decayed per-item counts;
    /// see [`FrequencyEstimator`]).
    pub estimator: EstimatorConfig,
    /// Drift detector parameters.
    pub detector: DriftDetector,
    /// Re-allocation strategy on drift.
    pub repair: RepairMode,
    /// Where re-allocation runs (always inline; see [`WorkerMode`]).
    pub worker: WorkerMode,
    /// Stop serving after this many ticks (`None` = run the whole
    /// trace). Requests past the cap are left unserved, not dropped.
    pub max_ticks: Option<u64>,
    /// Eq. 2–anchored SLO tracking (`None` = off).
    pub slo: Option<SloConfig>,
    /// Wall-clock milliseconds to sleep per virtual tick (0 = run at
    /// full speed). Replays finish in well under a second at full
    /// speed; pacing stretches a run so live endpoints can be scraped
    /// mid-flight.
    pub pace_ms: u64,
    /// Fail point: panic at this tick (after recording a `Fault`
    /// flight event), for postmortem-dump drills. `None` in production.
    pub inject_panic_at_tick: Option<u64>,
    /// Per-request audit tracer (always on; the sampling shift keeps
    /// its steady-state cost to a hash and compare per request). Its
    /// residual ledger is the per-generation wait accounting, and its
    /// tail multiplier defines a slow request for the SLO too.
    pub audit: AuditConfig,
    /// Fail point: multiply observed waits on this channel by
    /// [`ServeConfig::inject_slow_factor`], for residual-attribution
    /// drills. `None` in production.
    pub inject_slow_channel: Option<usize>,
    /// Wait multiplier applied on [`ServeConfig::inject_slow_channel`]
    /// (ignored when that is `None`).
    pub inject_slow_factor: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            channels: 6,
            bandwidth: 10.0,
            estimator: EstimatorConfig::default(),
            detector: DriftDetector::default(),
            repair: RepairMode::Full,
            worker: WorkerMode::Deterministic,
            max_ticks: None,
            slo: None,
            pace_ms: 0,
            inject_panic_at_tick: None,
            audit: AuditConfig::default(),
            inject_slow_channel: None,
            inject_slow_factor: 1.0,
        }
    }
}

/// Errors from the serving runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The initial (or a re-run) allocation failed.
    Alloc(AllocError),
    /// Building a broadcast program failed.
    Model(ModelError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Alloc(e) => write!(f, "allocation failed: {e}"),
            ServeError::Model(e) => write!(f, "program construction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AllocError> for ServeError {
    fn from(e: AllocError) -> Self {
        ServeError::Alloc(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// One published program generation: the schedule plus the frequency
/// profile and assignment it was optimized for.
#[derive(Debug)]
pub struct ProgramGeneration {
    /// The concrete cyclic schedules being broadcast.
    pub program: BroadcastProgram,
    /// The (normalized) frequency profile the allocation was built from.
    pub frequencies: Vec<f64>,
    /// The item → channel assignment.
    pub assignment: Vec<usize>,
    /// Eq. 3 cost of the assignment under `frequencies`.
    pub cost: f64,
    /// Eq. 2 expected wait `W_b` under `frequencies` (seconds) — the
    /// analytical SLO target this generation is held to.
    pub expected_wait: f64,
}

/// What one re-allocation did — for budgeted repair, surfaced from the
/// capped run's [`CdsOutcome`](dbcast_alloc::CdsOutcome).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// `"full"` or `"budgeted"`.
    pub mode: String,
    /// Items whose channel differs from the serving assignment's.
    pub moves: usize,
    /// Whether the budgeted repair ran out of moves with gain left.
    pub budget_exhausted: bool,
    /// Lower bound on the unrealized gain when the budget was exhausted
    /// ([`CdsOutcome::remaining_gain_bound`](dbcast_alloc::CdsOutcome::remaining_gain_bound)).
    pub remaining_gain_bound: f64,
    /// Wall-clock nanoseconds the re-allocation took.
    pub wall_ns: u64,
}

/// Per-generation serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation number (0 = the initial program).
    pub generation: u64,
    /// Virtual time at which the generation went live.
    pub installed_at: f64,
    /// Tick index at which the generation went live.
    pub installed_tick: u64,
    /// The generation's residual-ledger row, one entry per channel,
    /// frozen when a swap replaced the generation (or the run ended):
    /// the requests whose arrival it admitted (accounted here even if
    /// they completed after a later swap) with their observed and
    /// predicted mean waits. Empty while the generation serves.
    pub residuals: Vec<ChannelResidual>,
    /// Eq. 3 cost of the generation under its build profile.
    pub cost: f64,
    /// Drift score (Eq. 3 gap over its floor, minus 1) measured when the
    /// re-allocation producing this generation was dispatched (`None`
    /// for generation 0).
    pub drift_at_dispatch: Option<f64>,
    /// What the re-allocation producing this generation did (`None` for
    /// generation 0).
    pub repair: Option<RepairReport>,
    /// Virtual seconds from drift detection to installation (`None` for
    /// generation 0).
    pub swap_latency: Option<f64>,
    /// SLO outcome of the generation (`None` when tracking is off).
    pub slo: Option<SloReport>,
}

impl GenerationStats {
    /// Requests the generation admitted.
    pub fn requests(&self) -> u64 {
        self.residuals.iter().map(|c| c.requests).sum()
    }

    /// Mean observed wait of those requests (seconds; 0 with none).
    pub fn mean_wait(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            return 0.0;
        }
        let wait_sum: f64 =
            self.residuals.iter().map(|c| c.requests as f64 * c.observed_mean).sum();
        wait_sum / requests as f64
    }
}

/// Waiting-time summary of a serving run in fixed memory: the running
/// mean (Welford's update) and a log2 histogram of the waits in
/// microseconds, which backs the percentiles and is what the runtime
/// publishes as `serve.wait`. Serving more requests never grows it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WaitStats {
    mean: f64,
    micros: HistogramCells,
}

impl WaitStats {
    /// Adds one wait (seconds).
    pub fn record(&mut self, wait: f64) {
        self.micros.record((wait * 1e6) as u64);
        self.mean += (wait - self.mean) / self.micros.count as f64;
    }

    /// Waits recorded.
    pub fn count(&self) -> u64 {
        self.micros.count
    }

    /// Mean wait in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The `p`-th percentile wait in seconds, `p ∈ [0, 100]`: the
    /// midpoint of the log2 bucket holding it, so within half that
    /// bucket's width of the true value (`None` when empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.micros.percentile_midpoint(p).map(|us| us as f64 / 1e6)
    }
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests served (admitted and accounted).
    pub requests: u64,
    /// Requests for items no channel broadcasts (should be 0 — the
    /// catalogue is closed).
    pub dropped: u64,
    /// Requests left unserved because `max_ticks` cut the run short.
    pub unserved: u64,
    /// Drift detections that dispatched a re-allocation.
    pub drift_events: u64,
    /// Hot swaps performed.
    pub swaps: u64,
    /// Ticks the runtime advanced through.
    pub ticks: u64,
    /// Waiting-time statistics across all served requests.
    pub waiting: WaitStats,
    /// Per-generation breakdown, in installation order.
    pub generations: Vec<GenerationStats>,
    /// The assignment being served when the run ended.
    pub final_assignment: Vec<usize>,
    /// The estimator's frequency vector when the run ended.
    pub estimated_frequencies: Vec<f64>,
    /// Audit-tracer totals; `tail` counts the slow requests.
    pub audit: AuditSummary,
}

impl ServeReport {
    /// The stats entry of the generation serving at the end of the run.
    pub fn final_generation(&self) -> &GenerationStats {
        self.generations.last().expect("at least generation 0 exists")
    }
}

/// What the registry has been told of the request path, so each
/// publish adds only what accrued since the last.
struct Published {
    sampled: u64,
    tail: u64,
    /// `ServeReport::waiting`'s histogram as last published; its count
    /// is the requests served.
    waits: HistogramCells,
}

/// A re-allocation computed at one tick boundary, waiting to install
/// at the next.
struct RepairResult {
    /// The estimated workload it optimized for.
    db: Database,
    /// The new item → channel assignment.
    assignment: Vec<usize>,
    repair: RepairReport,
    /// Drift score at dispatch (for the report).
    drift: f64,
    /// Virtual dispatch time (for swap-latency accounting).
    dispatched_at: f64,
}

/// Re-allocates the estimated workload `db` under `mode` (budgeted
/// repair starts from the serving `assignment`), returning the new
/// assignment and what the re-allocation did.
fn recompute(
    mode: RepairMode,
    db: &Database,
    channels: usize,
    assignment: &[usize],
) -> Option<(Vec<usize>, RepairReport)> {
    let _span = dbcast_obs::span!("serve.repair");
    let start = Instant::now();
    let (alloc, exhausted, bound) = match mode {
        RepairMode::Full => (DrpCds::new().allocate(db, channels).ok()?, false, 0.0),
        RepairMode::Budgeted { budget } => {
            let seed =
                Allocation::from_assignment(db, channels, assignment.to_vec()).ok()?;
            let out = Cds::new().max_iterations(budget).refine(db, seed).ok()?;
            (out.allocation, !out.converged, out.remaining_gain_bound)
        }
    };
    let moves = alloc.assignment().iter().zip(assignment).filter(|(a, b)| a != b).count();
    let repair = RepairReport {
        mode: mode.name().to_string(),
        moves,
        budget_exhausted: exhausted,
        remaining_gain_bound: bound,
        wall_ns: start.elapsed().as_nanos() as u64,
    };
    Some((alloc.assignment().to_vec(), repair))
}

/// The request's position in its channel's cyclic "queue" at `now`:
/// how many of the channel's slots start strictly between the current
/// broadcast phase and the requested item's next start. `placement` is
/// the item's one `(schedule, slot)`, as
/// [`BroadcastProgram::locate`] finds it. Deterministic and
/// allocation-free (only the count scans the channel).
fn queue_position(
    (schedule, slot): (&ChannelSchedule, &ScheduledItem),
    now: f64,
    bandwidth: f64,
) -> u64 {
    let cycle = schedule.cycle_size();
    if cycle <= 0.0 {
        return 0;
    }
    let phase = (now * bandwidth).rem_euclid(cycle);
    let target = (slot.offset - phase).rem_euclid(cycle);
    schedule
        .slots()
        .iter()
        .filter(|s| {
            let delta = (s.offset - phase).rem_euclid(cycle);
            delta < target
        })
        .count() as u64
}

/// The long-running serving runtime.
///
/// # Example
///
/// ```
/// use dbcast_serve::{poisson_trace, ServeConfig, ServeRuntime};
/// use dbcast_workload::WorkloadBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = WorkloadBuilder::new(40).skewness(0.8).seed(1).build()?;
/// let trace = poisson_trace(&db, 50.0, 2_000, 2)?;
/// let runtime = ServeRuntime::new(&db, ServeConfig::default())?;
/// let report = runtime.run(&trace)?;
/// assert_eq!(report.requests, 2_000);
/// assert_eq!(report.dropped, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeRuntime {
    config: ServeConfig,
    /// Item sizes (server-side ground truth; frequencies are estimated).
    sizes: Vec<f64>,
    /// The program cell readers share.
    cell: Arc<EpochCell<ProgramGeneration>>,
    /// Registry handles resolved once at construction — the serving
    /// loop records through these without ever touching the registry's
    /// name tables (no lock, no lookup, no allocation per tick).
    metrics: ServeMetrics,
    /// Per-request audit tracer; shared with exposition readers.
    audit: Arc<AuditTracer>,
}

/// The serving runtime's metric handles, interned at construction.
#[derive(Debug)]
struct ServeMetrics {
    requests: &'static Counter,
    dropped: &'static Counter,
    drift_events: &'static Counter,
    swaps: &'static Counter,
    budget_exhausted: &'static Counter,
    ticks: &'static Counter,
    drift_distance: &'static Gauge,
    generation: &'static Gauge,
    generation_cost: &'static Gauge,
    slo_burn_rate: &'static Gauge,
    slo_target_wait: &'static Gauge,
    wait: &'static Histogram,
    audit_sampled: &'static Counter,
    audit_tail: &'static Counter,
    audit_straddled: &'static Counter,
    /// `serve.audit.residual.<i>`, one handle per channel.
    audit_residual: Vec<&'static Gauge>,
}

impl ServeMetrics {
    fn resolve(channels: usize) -> Self {
        let r = dbcast_obs::registry();
        ServeMetrics {
            requests: r.counter("serve.requests"),
            dropped: r.counter("serve.dropped"),
            drift_events: r.counter("serve.drift_events"),
            swaps: r.counter("serve.swaps"),
            budget_exhausted: r.counter("serve.repair_budget_exhausted"),
            ticks: r.counter("serve.ticks"),
            drift_distance: r.gauge("serve.drift_distance"),
            generation: r.gauge("serve.generation"),
            generation_cost: r.gauge("serve.generation_cost"),
            slo_burn_rate: r.gauge("serve.slo.burn_rate"),
            slo_target_wait: r.gauge("serve.slo.target_wait"),
            wait: r.histogram("serve.wait"),
            audit_sampled: r.counter("serve.audit.sampled"),
            audit_tail: r.counter("serve.audit.tail_sampled"),
            audit_straddled: r.counter("serve.audit.straddled"),
            audit_residual: (0..channels)
                .map(|i| r.gauge(&format!("serve.audit.residual.{i}")))
                .collect(),
        }
    }
}

impl ServeRuntime {
    /// Builds the runtime: allocates generation 0 with DRP-CDS on the
    /// *assumed* workload `db` and publishes it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Alloc`] if the initial allocation is infeasible
    /// (`K > N` or `K = 0`), [`ServeError::Model`] for a bad bandwidth.
    pub fn new(db: &Database, config: ServeConfig) -> Result<Self, ServeError> {
        let alloc = DrpCds::new().allocate(db, config.channels)?;
        let program = BroadcastProgram::new(db, &alloc, config.bandwidth)?;
        let expected_wait = average_waiting_time(db, &alloc, config.bandwidth)?.total();
        let generation = ProgramGeneration {
            program,
            frequencies: db.iter().map(|d| d.frequency()).collect(),
            assignment: alloc.assignment().to_vec(),
            cost: alloc.total_cost(),
            expected_wait,
        };
        let runtime = ServeRuntime {
            config,
            sizes: db.iter().map(|d| d.size()).collect(),
            cell: Arc::new(EpochCell::new(generation)),
            metrics: ServeMetrics::resolve(config.channels),
            audit: Arc::new(AuditTracer::new(config.audit, config.channels)),
        };
        runtime.publish_channel_gauges(&runtime.cell.current().value);
        Ok(runtime)
    }

    /// Publishes the per-channel Eq. 2 gauges for the serving
    /// generation: `serve.channel.load.<i>` is channel i's share of the
    /// access probability (F_i over the generation's build profile) and
    /// `serve.channel.expected_wait.<i>` its contribution to the
    /// analytical wait, F_i·Z_i/(2b) seconds.
    fn publish_channel_gauges(&self, gen: &ProgramGeneration) {
        let r = dbcast_obs::registry();
        let mut load = vec![0.0f64; self.config.channels];
        for (item, &ch) in gen.assignment.iter().enumerate() {
            if ch < load.len() {
                load[ch] += gen.frequencies[item];
            }
        }
        let channels = gen.program.channels();
        for (i, &f_i) in load.iter().enumerate() {
            let cycle = channels.get(i).map(|c| c.cycle_size()).unwrap_or(0.0);
            let w_i = f_i * cycle / (2.0 * self.config.bandwidth);
            r.gauge(&format!("serve.channel.load.{i}")).set(f_i);
            r.gauge(&format!("serve.channel.expected_wait.{i}")).set(w_i);
        }
    }

    /// The shared program cell — clone it into reader threads to follow
    /// swaps without blocking.
    pub fn cell(&self) -> Arc<EpochCell<ProgramGeneration>> {
        Arc::clone(&self.cell)
    }

    /// The per-request audit tracer — clone it into exposition readers
    /// (`/exemplars`, the OpenMetrics exemplar provider) to snapshot
    /// traces and residuals without blocking the serving loop.
    pub fn audit(&self) -> Arc<AuditTracer> {
        Arc::clone(&self.audit)
    }

    /// One tick = one full cycle of the *fastest* non-empty channel of
    /// `gen`: the finest cycle boundary the program offers. All control
    /// actions (estimator aging, drift checks, swap installs) land on
    /// these boundaries, so a swap never interrupts the fastest cycle
    /// mid-flight and slower channels only ever change programs at one
    /// of their own item boundaries.
    fn tick_len(&self, gen: &ProgramGeneration) -> f64 {
        let min_cycle = gen
            .program
            .channels()
            .iter()
            .map(|c| c.cycle_size())
            .filter(|&s| s > 0.0)
            .fold(f64::INFINITY, f64::min);
        if min_cycle.is_finite() {
            min_cycle / self.config.bandwidth
        } else {
            // Unreachable for a validated database (some channel holds
            // an item), but keep the loop well-founded regardless.
            1.0
        }
    }

    /// Materializes the estimator's current view as a `Database`
    /// (estimated frequencies × ground-truth sizes).
    fn estimated_db(&self, estimator: &FrequencyEstimator) -> Database {
        let freqs = estimator.frequency_vector();
        Database::try_from_specs(
            freqs
                .iter()
                .zip(&self.sizes)
                .map(|(&f, &z)| ItemSpec::new(f, z))
                .collect::<Vec<_>>(),
        )
        .expect("estimator frequencies are positive and sizes come from a valid db")
    }

    /// Serves `trace` to completion (or `max_ticks`), returning the
    /// full closed-loop report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] if installing a recomputed program fails
    /// (cannot happen for a catalogue-covering assignment).
    pub fn run(&self, trace: &RequestTrace) -> Result<ServeReport, ServeError> {
        let _span = dbcast_obs::span!("serve.runtime.run");
        let mut estimator =
            FrequencyEstimator::new(self.sizes.len(), self.config.estimator);

        let mut report = ServeReport {
            requests: 0,
            dropped: 0,
            unserved: 0,
            drift_events: 0,
            swaps: 0,
            ticks: 0,
            waiting: WaitStats::default(),
            generations: Vec::new(),
            final_assignment: Vec::new(),
            estimated_frequencies: Vec::new(),
            audit: AuditSummary::default(),
        };
        // Refreshed only after `install`, the cell's sole publisher.
        let mut serving = self.cell.current();
        // Each run accounts its generations afresh, even on a reused
        // runtime whose tracer still holds the last run's window.
        self.audit.reset_generation();
        report.generations.push(GenerationStats {
            generation: serving.generation,
            installed_at: 0.0,
            installed_tick: 0,
            residuals: Vec::new(),
            cost: serving.value.cost,
            drift_at_dispatch: None,
            repair: None,
            swap_latency: None,
            slo: None,
        });
        let mut slo_tracker =
            self.config.slo.map(|c| SloTracker::new(c, serving.value.expected_wait));
        if slo_tracker.is_some() {
            self.metrics.slo_target_wait.set(serving.value.expected_wait);
        }

        self.metrics.generation.set(serving.generation as f64);
        self.metrics.generation_cost.set(serving.value.cost);
        let mut published = Published {
            sampled: self.audit.sampled(),
            tail: self.audit.tail(),
            waits: HistogramCells::empty(),
        };

        let mut tick_len = self.tick_len(&serving.value);
        let mut tick_end = tick_len;
        // Owns the per-tick buffers, so the steady-state loop performs
        // no heap allocation.
        let mut monitor = GapMonitor::new(
            self.config.detector,
            self.config.estimator.decay,
            self.sizes.len(),
        );
        let mut pending: Option<RepairResult> = None;
        let mut capped = false;

        let mut requests = trace.iter().peekable();
        // Advance through every tick boundary at or before the next
        // arrival, then serve it; stop when the trace is exhausted.
        while let Some(next_time) = requests.peek().map(|r| r.time) {
            while next_time >= tick_end {
                report.ticks += 1;
                self.metrics.ticks.inc();
                self.publish_requests(&report.waiting, &mut published);
                dbcast_flight::record(
                    FlightEvent::new(
                        EventKind::Tick,
                        report.ticks,
                        self.cell.generation(),
                        tick_end,
                    )
                    .value(tick_len),
                );
                if self.config.inject_panic_at_tick == Some(report.ticks) {
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::Fault,
                            report.ticks,
                            self.cell.generation(),
                            tick_end,
                        )
                        .extra(1),
                    );
                    panic!("injected fault at tick {}", report.ticks);
                }
                if self.config.pace_ms > 0 {
                    std::thread::sleep(Duration::from_millis(self.config.pace_ms));
                }
                if let Some(cap) = self.config.max_ticks {
                    if report.ticks >= cap {
                        capped = true;
                        break;
                    }
                }
                let boundary = tick_end;

                // (0) Judge the serving generation's SLO on its ledger
                // totals; the verdict reports and never dispatches.
                if let Some(tracker) = slo_tracker.as_mut() {
                    let totals = self.audit.totals();
                    let verdict = tracker.evaluate(totals);
                    self.metrics.slo_burn_rate.set(verdict.burn_rate);
                    if verdict.breached {
                        dbcast_flight::record(
                            FlightEvent::new(
                                EventKind::SloBreach,
                                report.ticks,
                                serving.generation,
                                boundary,
                            )
                            .value(verdict.burn_rate)
                            .extra(totals.slow),
                        );
                    }
                }

                // (1) Install the re-allocation the previous boundary
                // computed. Freeze the replaced generation's row before
                // the swap rolls the ledger, and restart SLO tracking
                // against the incoming Eq. 2 target.
                if let Some(result) = pending.take() {
                    self.close_generation(&mut report, slo_tracker.as_ref());
                    self.install(result, boundary, report.ticks, &mut report)?;
                    serving = self.cell.current();
                    monitor.installed();
                    tick_len = self.tick_len(&serving.value);
                    if let Some(config) = self.config.slo {
                        let target = serving.value.expected_wait;
                        slo_tracker = Some(SloTracker::new(config, target));
                        self.metrics.slo_target_wait.set(target);
                    }
                }
                // (2) Age the estimate, and the repair inputs it carries,
                // by the tick's virtual duration.
                estimator.tick(tick_len);
                monitor.tick(tick_len);
                // (3) Check the Eq. 3 gap; on drift, recompute now and
                // install at the next boundary.
                let drift = monitor.check(
                    &estimator,
                    &self.sizes,
                    &serving.value.program,
                    &serving.value.assignment,
                );
                if let Some(drift) = drift {
                    self.metrics.drift_distance.set(drift.distance);
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::DriftScore,
                            report.ticks,
                            serving.generation,
                            boundary,
                        )
                        .value(drift.distance)
                        .extra(drift.drifted as u64),
                    );
                }
                if let Some(drift) = drift.filter(|d| d.drifted) {
                    report.drift_events += 1;
                    self.metrics.drift_events.inc();
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::RepairStart,
                            report.ticks,
                            serving.generation,
                            boundary,
                        )
                        .value(drift.distance)
                        .extra(serving.generation),
                    );
                    monitor.dispatched(estimator.mass());
                    let db = self.estimated_db(&estimator);
                    let (mode, channels) = (self.config.repair, self.config.channels);
                    let repaired =
                        recompute(mode, &db, channels, &serving.value.assignment);
                    if let Some((assignment, repair)) = repaired {
                        dbcast_flight::record(
                            FlightEvent::new(
                                EventKind::RepairOutcome,
                                report.ticks,
                                serving.generation,
                                boundary,
                            )
                            .value(repair.wall_ns as f64 / 1e6)
                            .extra(repair.moves as u64),
                        );
                        if assignment == serving.value.assignment {
                            // Nothing moved: republishing would swap in
                            // the serving program again. Keep it, and
                            // restart the floor so the next dispatch
                            // waits for fresh mass.
                            monitor.installed();
                        } else {
                            pending = Some(RepairResult {
                                db,
                                assignment,
                                repair,
                                drift: drift.distance,
                                dispatched_at: boundary,
                            });
                        }
                    }
                }
                tick_end += tick_len;
            }
            if capped {
                break;
            }

            // Serve the arrival against the generation active *now*.
            let r = *requests.next().expect("peeked above");
            match serving.value.program.response_time(r.item, r.time) {
                Some(base_wait) => {
                    let request_id = report.requests;
                    let channel =
                        serving.value.assignment.get(r.item.index()).copied().unwrap_or(0);
                    // Fail point: a drill can degrade one channel's
                    // observed waits to drive its residual gauge
                    // positive ahead of any SLO reaction.
                    let wait = if self.config.inject_slow_channel == Some(channel) {
                        base_wait * self.config.inject_slow_factor
                    } else {
                        base_wait
                    };
                    report.requests += 1;
                    report.waiting.record(wait);
                    estimator.observe(r.item);
                    monitor.observe();
                    // Audit: the generation's ledger row accounts every
                    // request; a full lifecycle record goes to the
                    // seeded sample plus every slow (tail) request, and
                    // only a slow one takes a flight-ring slot. The
                    // registry hears of requests once per tick.
                    let predicted = serving
                        .value
                        .program
                        .expected_response_time(r.item)
                        .expect("the program carries every item it serves");
                    self.audit.observe_wait(channel, wait, predicted);
                    let seeded = self.audit.should_sample(request_id);
                    let slow = self.audit.tail_slow(wait, predicted);
                    if seeded || slow {
                        if slow {
                            dbcast_flight::record(
                                FlightEvent::new(
                                    EventKind::RequestServed,
                                    report.ticks,
                                    serving.generation,
                                    r.time,
                                )
                                .value(wait)
                                .extra(r.item.index() as u64),
                            );
                        }
                        let completion = r.time + wait;
                        let satisfied_tick = report.ticks
                            + if completion > tick_end {
                                ((completion - tick_end) / tick_len).ceil() as u64
                            } else {
                                0
                            };
                        let position =
                            serving.value.program.locate(r.item).map_or(0, |placement| {
                                queue_position(placement, r.time, self.config.bandwidth)
                            });
                        self.audit.record(&TraceRecord {
                            request_id,
                            item: r.item.index() as u64,
                            arrival_tick: report.ticks,
                            satisfied_tick,
                            generation: serving.generation,
                            channel: channel as u64,
                            queue_position: position,
                            arrival: r.time,
                            wait,
                            predicted,
                            straddle_penalty: 0.0,
                            flags: if seeded { FLAG_SEEDED } else { 0 }
                                | if slow { FLAG_TAIL } else { 0 },
                        });
                    }
                }
                None => {
                    report.dropped += 1;
                    self.metrics.dropped.inc();
                }
            }
        }

        report.unserved = requests.count() as u64;
        self.publish_requests(&report.waiting, &mut published);
        let final_gen = self.cell.current();
        report.final_assignment = final_gen.value.assignment.clone();
        report.estimated_frequencies = estimator.frequency_vector();
        self.close_generation(&mut report, slo_tracker.as_ref());
        report.audit = self.audit.summary();
        Ok(report)
    }

    /// Publishes what the request path accounts without touching the
    /// registry: `serve.requests`, `serve.audit.sampled`,
    /// `serve.audit.tail_sampled` and the `serve.wait` histogram advance
    /// by what accrued since the last publish, and each
    /// `serve.audit.residual.<c>` gauge takes its channel's live
    /// residual once the channel has served a request under the live
    /// generation. Runs at each tick boundary and at run end.
    fn publish_requests(&self, waiting: &WaitStats, published: &mut Published) {
        let fresh = waiting.micros.since(&published.waits);
        let (sampled, tail) = (self.audit.sampled(), self.audit.tail());
        self.metrics.requests.add(fresh.count);
        self.metrics.wait.merge_cells(&fresh);
        self.metrics.audit_sampled.add(sampled - published.sampled);
        self.metrics.audit_tail.add(tail - published.tail);
        *published = Published { sampled, tail, waits: waiting.micros.clone() };
        for (channel, gauge) in self.metrics.audit_residual.iter().enumerate() {
            if let Some(residual) = self.audit.residual(channel) {
                gauge.set(residual);
            }
        }
    }

    /// Freezes the serving generation's stats from the live ledger row
    /// (before a swap rolls it, or at run end).
    fn close_generation(&self, report: &mut ServeReport, slo: Option<&SloTracker>) {
        let stats = report.generations.last_mut().expect("at least generation 0 exists");
        stats.residuals = self.audit.residuals().channels;
        stats.slo = slo.map(|t| t.report(self.audit.totals()));
    }

    /// Publishes a finished re-allocation as the next generation.
    fn install(
        &self,
        result: RepairResult,
        boundary: f64,
        tick: u64,
        report: &mut ServeReport,
    ) -> Result<(), ServeError> {
        let alloc = Allocation::from_assignment(
            &result.db,
            self.config.channels,
            result.assignment.clone(),
        )?;
        let program = BroadcastProgram::new(&result.db, &alloc, self.config.bandwidth)?;
        let cost = alloc.total_cost();
        let expected_wait =
            average_waiting_time(&result.db, &alloc, self.config.bandwidth)?.total();
        let generation = ProgramGeneration {
            program,
            frequencies: result.db.iter().map(|d| d.frequency()).collect(),
            assignment: result.assignment,
            cost,
            expected_wait,
        };
        let gen = self.cell.publish(generation);
        self.publish_channel_gauges(&self.cell.current().value);
        // Live scrapes, `dbcast top` and watchdog firings read these
        // mid-run; the new generation's drift score starts from 0 until
        // its gap floor opens.
        self.metrics.generation.set(gen as f64);
        self.metrics.generation_cost.set(cost);
        self.metrics.drift_distance.set(0.0);
        // Stamp swap-straddle penalties into in-flight sampled records
        // and roll the residual ledger onto the new generation.
        let straddled = self.audit.on_swap(boundary, gen);
        self.metrics.audit_straddled.add(straddled);
        report.swaps += 1;
        self.metrics.swaps.inc();
        dbcast_flight::record(
            FlightEvent::new(EventKind::SwapPublish, tick, gen, boundary)
                .value(cost)
                .extra(gen),
        );
        if result.repair.budget_exhausted {
            self.metrics.budget_exhausted.inc();
            dbcast_flight::record(
                FlightEvent::new(EventKind::BudgetExhausted, tick, gen, boundary)
                    .value(result.repair.remaining_gain_bound)
                    .extra(result.repair.moves as u64),
            );
        }
        report.generations.push(GenerationStats {
            generation: gen,
            installed_at: boundary,
            installed_tick: tick,
            residuals: Vec::new(),
            cost,
            drift_at_dispatch: Some(result.drift),
            repair: Some(result.repair),
            swap_latency: Some(boundary - result.dispatched_at),
            slo: None,
        });
        Ok(())
    }
}
