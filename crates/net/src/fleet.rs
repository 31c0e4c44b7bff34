//! The simulated client fleet: N concurrent subscribers, one report.
//!
//! Every fleet member runs the full client pipeline (subscribe → record
//! the air → measure analytically) on its own thread with its own seed,
//! then folds its outcomes once: one pass makes its [`ClientReport`]
//! and one record per recorded generation, a [`FleetDigest`] carrying
//! the client's [`GenerationSlice`]. The report's per-generation rows
//! are those slices, and with an uplink the client sends the digests as
//! they are. The fleet joins the clients in id order into a
//! [`FleetReport`], the `fleet-run` telemetry document. Because each
//! client's measurement depends only on its seed and the recorded
//! frames — never on thread interleaving — the same seed over the same
//! program yields a bit-identical report and bit-identical uplink bytes.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbcast_model::ItemId;
use dbcast_obs::doc::Document;
use dbcast_serve::FleetDigest;
pub use dbcast_serve::GenerationSlice;
use serde::{Deserialize, Serialize};

use crate::client::{
    generate_requests, measure, AirLog, CacheKind, ClientConfig, RequestOutcome,
    WorkloadPattern,
};
use crate::egress::{run_egress, EgressConfig, EgressReport, ProgramSource};
use crate::server::{BroadcastServer, NetConfig};
use crate::uplink::UplinkClient;
use crate::world::WorldView;

/// Where (and how) a fleet pushes its telemetry digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkConfig {
    /// Uplink server address, e.g. `127.0.0.1:9902`.
    pub addr: String,
    /// Milliseconds client 0 sleeps before sending each generation
    /// acknowledgement — the straggler drill: a paced-slow client whose
    /// acked generation trails the published one must trip the
    /// `fleet.stragglers` gauge.
    pub straggle_ms: u64,
}

/// Report schema version; bump on any incompatible layout change.
pub const FLEET_SCHEMA: u32 = 1;

/// Fleet-level workload knobs; per-client configs are derived from this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Base seed; client `i` runs with `seed + i`.
    pub seed: u64,
    /// Requests per client.
    pub requests: usize,
    /// Mean request rate per client, in requests per virtual second.
    pub rate: f64,
    /// Client cache policy.
    pub cache: CacheKind,
    /// Client cache budget in size units.
    pub cache_budget: f64,
    /// Workload shape.
    pub pattern: WorkloadPattern,
    /// Frequent-pattern pool size.
    pub patterns: usize,
    /// Maximum items per request.
    pub max_size: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 8,
            seed: 1,
            requests: 100,
            rate: 1.0,
            cache: CacheKind::None,
            cache_budget: 0.0,
            pattern: WorkloadPattern::Single,
            patterns: 8,
            max_size: 4,
        }
    }
}

impl FleetConfig {
    /// The derived per-client configuration.
    pub fn client(&self, id: usize) -> ClientConfig {
        ClientConfig {
            id,
            seed: self.seed.wrapping_add(id as u64),
            requests: self.requests,
            rate: self.rate,
            cache: self.cache,
            cache_budget: self.cache_budget,
            pattern: self.pattern,
            patterns: self.patterns,
            max_size: self.max_size,
        }
    }
}

/// Order statistics of one measured series.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StatSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl StatSummary {
    /// Summarises `values` (order-independent; empty series are zero).
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return StatSummary::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len();
        let pick = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        StatSummary {
            count: n as u64,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p50: pick(0.50),
            p95: pick(0.95),
        }
    }

    fn finite(&self) -> bool {
        self.mean.is_finite()
            && self.min.is_finite()
            && self.max.is_finite()
            && self.p50.is_finite()
            && self.p95.is_finite()
    }
}

/// One fleet member's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClientReport {
    /// Client id within the fleet.
    pub id: usize,
    /// The client's RNG seed.
    pub seed: u64,
    /// Requests issued.
    pub requests: u64,
    /// Requests fully answered before the stream horizon.
    pub completed: u64,
    /// Cache hits across all requests.
    pub cache_hits: u64,
    /// Multi-item retrieval conflicts (occurrences missed while busy).
    pub conflicts: u64,
    /// Swap-boundary retunes.
    pub retunes: u64,
    /// Planned downloads the recorded air could not corroborate.
    pub torn_frames: u64,
    /// Wire decode errors while draining the subscription.
    pub decode_errors: u64,
    /// Access times of completed requests (virtual seconds).
    pub access: StatSummary,
    /// Tuning times of completed requests (virtual seconds).
    pub tuning: StatSummary,
    /// Per-generation breakdown, in announcement order.
    pub generations: Vec<GenerationSlice>,
}

/// Fleet-wide sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetTotals {
    /// Requests across all clients.
    pub requests: u64,
    /// Completed requests across all clients.
    pub completed: u64,
    /// Cache hits across all clients.
    pub cache_hits: u64,
    /// Retrieval conflicts across all clients.
    pub conflicts: u64,
    /// Retunes across all clients.
    pub retunes: u64,
    /// Torn frames across all clients.
    pub torn_frames: u64,
    /// Decode errors across all clients.
    pub decode_errors: u64,
    /// Frames dropped by the server's slow-client policy, when the
    /// server ran in-process (absent for `--connect` fleets).
    pub dropped_frames: Option<u64>,
}

impl FleetTotals {
    /// The field-by-field sum of `clients` (saturating, so a tampered
    /// document cannot overflow its check), with `dropped_frames` as
    /// given.
    fn sum(clients: &[ClientReport], dropped_frames: Option<u64>) -> FleetTotals {
        let mut t = FleetTotals { dropped_frames, ..FleetTotals::default() };
        for c in clients {
            t.requests = t.requests.saturating_add(c.requests);
            t.completed = t.completed.saturating_add(c.completed);
            t.cache_hits = t.cache_hits.saturating_add(c.cache_hits);
            t.conflicts = t.conflicts.saturating_add(c.conflicts);
            t.retunes = t.retunes.saturating_add(c.retunes);
            t.torn_frames = t.torn_frames.saturating_add(c.torn_frames);
            t.decode_errors = t.decode_errors.saturating_add(c.decode_errors);
        }
        t
    }
}

/// The fleet run artifact: the `fleet-run` document (schema
/// [`FLEET_SCHEMA`]), whose check is [`FleetReport::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetReport {
    /// Schema version, [`FLEET_SCHEMA`].
    pub schema: u32,
    /// The configuration the fleet ran with.
    pub config: FleetConfig,
    /// Whether the stream carried (1,m) index frames.
    pub indexed: bool,
    /// Per-client results, in client id order.
    pub clients: Vec<ClientReport>,
    /// Fleet-wide sums.
    pub totals: FleetTotals,
}

impl FleetReport {
    /// Structural validation: schema, finite stats, tuning never above
    /// access, no more completions than requests nor clean slice
    /// requests than completions, zero torn frames / decode errors,
    /// generation consistency (every client saw the same generation
    /// sequence), and totals that are the sum of the client rows.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != FLEET_SCHEMA {
            return Err(format!(
                "schema {} does not match supported {FLEET_SCHEMA}",
                self.schema
            ));
        }
        if self.clients.len() != self.config.clients {
            return Err(format!(
                "{} client reports for {} configured clients",
                self.clients.len(),
                self.config.clients
            ));
        }
        // Every client saw the same generations at the same origins.
        let sequence = |c: &ClientReport| -> Vec<(u64, f64)> {
            c.generations.iter().map(|g| (g.generation, g.origin)).collect()
        };
        let reference = self.clients.first().map(sequence).unwrap_or_default();
        for (i, client) in self.clients.iter().enumerate() {
            if client.id != i {
                return Err(format!("client {i} reported id {}", client.id));
            }
            if !client.access.finite() || !client.tuning.finite() {
                return Err(format!("client {i} has non-finite access/tuning stats"));
            }
            if client.tuning.mean > client.access.mean + 1e-9 {
                return Err(format!(
                    "client {i} mean tuning {} exceeds mean access {}",
                    client.tuning.mean, client.access.mean
                ));
            }
            if client.completed > client.requests {
                return Err(format!(
                    "client {i} completed {} of {} requests",
                    client.completed, client.requests
                ));
            }
            let clean =
                client.generations.iter().fold(0u64, |n, g| n.saturating_add(g.requests));
            if clean > client.completed {
                return Err(format!(
                    "client {i} slices count {clean} requests, more than its {} completed",
                    client.completed
                ));
            }
            if client.torn_frames != 0 {
                return Err(format!("client {i} saw {} torn frames", client.torn_frames));
            }
            if client.decode_errors != 0 {
                return Err(format!(
                    "client {i} saw {} decode errors",
                    client.decode_errors
                ));
            }
            if sequence(client) != reference {
                return Err(format!(
                    "client {i} saw generation sequence {:?}, client 0 saw {reference:?}",
                    sequence(client)
                ));
            }
            for g in &client.generations {
                if !g.predicted_access.is_finite()
                    || !g.mean_access.is_finite()
                    || !g.mean_tuning.is_finite()
                {
                    return Err(format!(
                        "client {i} generation {} has non-finite stats",
                        g.generation
                    ));
                }
            }
        }
        if self.totals != FleetTotals::sum(&self.clients, self.totals.dropped_frames) {
            return Err("totals are not the sum of the client rows".into());
        }
        Ok(())
    }
}

impl Document for FleetReport {
    const KIND: &'static str = "fleet-run";
    const SCHEMA: u32 = FLEET_SCHEMA;

    fn check(&self) -> Result<(), String> {
        self.validate()
    }
}

/// The paper's Eq. 2 expectation for the world's program: the
/// frequency-weighted mean of the per-item expectation
/// [`WorldView::expected_access`] (half the item's channel cycle plus
/// its download, or on an indexed stream the exact (1,m) grid
/// expectation of the generation's `IndexedProgram`).
pub fn predicted_access(world: &WorldView) -> f64 {
    let (weighted, mass) = (world.directory.frequencies.iter().enumerate())
        .filter_map(|(idx, &f)| Some((f, world.expected_access(ItemId::new(idx))?)))
        .fold((0.0, 0.0), |(weighted, mass), (f, access)| {
            (weighted + f * access, mass + f)
        });
    if mass > 0.0 {
        weighted / mass
    } else {
        f64::NAN
    }
}

/// One generation's running fold over a client's outcomes.
struct GenerationFold<'a> {
    world: &'a WorldView,
    /// The span `[start, end)` the generation was on the air: requests
    /// that arrived in it count in the digest.
    span: (f64, f64),
    /// Only arrivals by this instant can be clean: a later one could
    /// straddle the generation's end.
    clean_until: f64,
    digest: FleetDigest,
    /// Clean requests, and the sums of their access and tuning times.
    clean: (u64, f64, f64),
    /// Clean requests with an Eq. 2 expectation, and its sum.
    expected: (u64, f64),
}

impl GenerationFold<'_> {
    fn add(&mut self, o: &RequestOutcome) {
        // Same arrival-epsilon as `AirLog::world_at`, so the
        // attribution agrees with the measurement loop.
        let arrival = o.arrival + 1e-12;
        if self.span.0 <= arrival && arrival < self.span.1 {
            let d = &mut self.digest;
            d.requests += 1;
            d.cache_hits += o.cache_hits;
            d.conflicts += o.conflicts;
            d.retunes += o.retunes;
            d.torn += o.torn;
            if !o.incomplete {
                d.completed += 1;
                d.access.record((o.access * 1e6) as u64);
                d.tuning.record((o.tuning * 1e6) as u64);
            }
        }
        if o.generation == Some(self.world.directory.generation)
            && !o.incomplete
            && o.torn == 0
            && o.arrival <= self.clean_until
        {
            self.clean =
                (self.clean.0 + 1, self.clean.1 + o.access, self.clean.2 + o.tuning);
            if let Some(expected) = o.expected_access {
                self.expected = (self.expected.0 + 1, self.expected.1 + expected);
            }
        }
    }

    /// The digest, carrying the finished slice.
    fn finish(self) -> FleetDigest {
        let mean = |n: u64, sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        let (n, access, tuning) = self.clean;
        let slice = GenerationSlice {
            generation: self.world.directory.generation,
            origin: self.world.directory.origin,
            requests: n,
            mean_access: mean(n, access),
            mean_tuning: mean(n, tuning),
            // Conditioned on the realized workload when possible: the
            // sampled request mix differs from the population
            // frequencies, and access is heavy-tailed across items, so
            // the unconditioned mean is a noisy yardstick.
            predicted_access: match self.expected {
                (0, _) => predicted_access(self.world),
                (n, sum) => mean(n, sum),
            },
        };
        FleetDigest { slice: Some(slice), ..self.digest }
    }
}

/// Folds one client's outcomes, in one pass, into its report and one
/// uplink digest per recorded generation. Each digest carries the
/// client's [`GenerationSlice`] of the generation, which is also the
/// report's row for it, plus counters and microsecond log2 histogram
/// cells of the requests that arrived while the generation was on the
/// air (every outcome lands in exactly one generation's counters), and
/// the recorded per-channel frame coverage.
fn summarize(
    config: &ClientConfig,
    log: &AirLog,
    outcomes: &[RequestOutcome],
) -> (ClientReport, Vec<FleetDigest>) {
    let mut coverage: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for key in log
        .frames
        .iter()
        .map(|f| (f.generation, f.channel))
        .chain(log.index_frames.iter().map(|f| (f.generation, f.channel)))
    {
        *coverage.entry(key).or_insert(0) += 1;
    }
    let last_generation =
        log.worlds.last().map(|w| w.directory.generation).unwrap_or_default();
    let mut folds: Vec<GenerationFold> = log
        .worlds
        .iter()
        .enumerate()
        .map(|(i, world)| {
            let generation = world.directory.generation;
            let mut digest = FleetDigest::ack(config.id as u32, 0, last_generation);
            digest.coverage = coverage
                .range((generation, 0)..=(generation, u32::MAX))
                .map(|(&(_, channel), &frames)| (channel, frames))
                .collect();
            let end = log.worlds.get(i + 1).map_or(f64::INFINITY, |w| w.directory.origin);
            GenerationFold {
                world,
                span: (world.directory.origin, end),
                clean_until: world.valid_until.min(log.horizon) - world.worst_case_access(),
                digest,
                clean: (0, 0.0, 0.0),
                expected: (0, 0.0),
            }
        })
        .collect();
    let mut report = ClientReport {
        id: config.id,
        seed: config.seed,
        requests: outcomes.len() as u64,
        completed: 0,
        cache_hits: 0,
        conflicts: 0,
        retunes: 0,
        torn_frames: 0,
        decode_errors: log.decode_errors,
        access: StatSummary::default(),
        tuning: StatSummary::default(),
        generations: Vec::new(),
    };
    let (mut access, mut tuning) = (Vec::new(), Vec::new());
    for o in outcomes {
        report.cache_hits += o.cache_hits;
        report.conflicts += o.conflicts;
        report.retunes += o.retunes;
        report.torn_frames += o.torn;
        if !o.incomplete {
            report.completed += 1;
            access.push(o.access);
            tuning.push(o.tuning);
            dbcast_obs::histogram!("fleet.access").record((o.access * 1e6) as u64);
            dbcast_obs::histogram!("fleet.tuning").record((o.tuning * 1e6) as u64);
        }
        for fold in &mut folds {
            fold.add(o);
        }
    }
    dbcast_obs::counter!("fleet.requests").add(report.requests);
    dbcast_obs::counter!("fleet.cache_hits").add(report.cache_hits);
    dbcast_obs::counter!("fleet.conflicts").add(report.conflicts);
    dbcast_obs::counter!("fleet.retunes").add(report.retunes);
    dbcast_obs::counter!("fleet.torn_frames").add(report.torn_frames);
    report.access = StatSummary::from_values(&access);
    report.tuning = StatSummary::from_values(&tuning);
    let digests: Vec<FleetDigest> = folds.into_iter().map(GenerationFold::finish).collect();
    report.generations = digests.iter().filter_map(|d| d.slice).collect();
    (report, digests)
}

/// Runs one client end to end over an established TCP stream,
/// optionally pushing telemetry over `uplink`: a live acknowledgement
/// per directory while recording, then one measurement slice per
/// generation.
fn run_client_with(
    config: ClientConfig,
    stream: TcpStream,
    uplink: Option<(SocketAddr, Duration)>,
) -> Result<ClientReport, String> {
    let id = config.id as u32;
    let mut up = match uplink {
        Some((addr, straggle)) => {
            let client = UplinkClient::connect(addr)
                .map_err(|e| format!("client {id} uplink connect failed: {e}"))?;
            Some((client, straggle))
        }
        None => None,
    };
    let log = match &mut up {
        Some((client, straggle)) => AirLog::record_with(stream, |dir| {
            if !straggle.is_zero() {
                std::thread::sleep(*straggle);
            }
            let _ = client.send_ack(id, dir.generation);
        })?,
        None => AirLog::record(stream)?,
    };
    let first = &log.worlds[0].directory;
    let requests = generate_requests(&config, first, log.coverage_start());
    let outcomes = measure(&config, &log, &requests)?;
    let (report, digests) = summarize(&config, &log, &outcomes);
    if let Some((client, _)) = &mut up {
        for mut digest in digests {
            client
                .send(&mut digest)
                .map_err(|e| format!("client {id} uplink send failed: {e}"))?;
        }
    }
    Ok(report)
}

/// Resolves the uplink target and the per-client straggle pacing.
fn resolve_uplink(
    uplink: Option<&UplinkConfig>,
    id: usize,
) -> Result<Option<(SocketAddr, Duration)>, String> {
    let Some(config) = uplink else {
        return Ok(None);
    };
    let addr: SocketAddr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("bad uplink address: {e}"))?
        .next()
        .ok_or("uplink address resolved to nothing")?;
    let straggle =
        if id == 0 { Duration::from_millis(config.straggle_ms) } else { Duration::ZERO };
    Ok(Some((addr, straggle)))
}

/// Connects `config.clients` clients to the broadcast server at `addr`
/// and starts each one's pipeline on its own thread.
fn spawn_clients(
    addr: SocketAddr,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<Vec<JoinHandle<Result<ClientReport, String>>>, String> {
    (0..config.clients)
        .map(|id| {
            let client = config.client(id);
            let up = resolve_uplink(uplink, id)?;
            let stream = TcpStream::connect(addr)
                .map_err(|e| format!("client {id} connect failed: {e}"))?;
            std::thread::Builder::new()
                .name(format!("dbcast-fleet-{id}"))
                .spawn(move || run_client_with(client, stream, up))
                .map_err(|e| format!("spawn failed: {e}"))
        })
        .collect()
}

/// Joins the client threads in id order.
fn join_clients(
    handles: Vec<JoinHandle<Result<ClientReport, String>>>,
) -> Result<Vec<ClientReport>, String> {
    handles.into_iter().map(|h| h.join().map_err(|_| "client thread panicked")?).collect()
}

/// Connects a fleet to an already-running broadcast server and runs
/// every client to completion (the server must eventually send the
/// end-of-stream frame, e.g. `dbcast serve --listen-bcast` finishing
/// its request trace). With an `uplink`, every client pushes live
/// generation acks and post-measurement slices to `uplink.addr` (see
/// [`UplinkConfig`]).
///
/// # Errors
///
/// Propagates connection failures and client pipeline errors.
pub fn run_fleet_with(
    addr: impl ToSocketAddrs,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<FleetReport, String> {
    let addr: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    let clients = join_clients(spawn_clients(addr, config, uplink)?)?;
    // A connecting fleet does not see the server's egress config, so
    // infer index frames from tuning strictly below access.
    let indexed =
        clients.iter().any(|c| c.completed > 0 && c.tuning.mean < c.access.mean - 1e-9);
    let totals = FleetTotals::sum(&clients, None);
    Ok(FleetReport { schema: FLEET_SCHEMA, config: *config, indexed, clients, totals })
}

/// Runs a complete in-process scenario: bind a loopback server, connect
/// the fleet, then drive `source` through the egress until
/// `max_windows` windows have aired. Deterministic for scripted
/// sources; used by the e2e test, the repository benchmark's output
/// check, and the CLI's inline mode.
///
/// # Errors
///
/// Propagates bind, egress, and client pipeline errors.
pub fn run_fleet_inline(
    source: &dyn ProgramSource,
    egress: &EgressConfig,
    net: NetConfig,
    config: &FleetConfig,
) -> Result<(FleetReport, EgressReport), String> {
    run_fleet_inline_with(source, egress, net, config, None)
}

/// [`run_fleet_inline`] with an optional telemetry uplink (see
/// [`UplinkConfig`]); an [`crate::uplink::UplinkServer`] must already
/// be listening at `uplink.addr`.
///
/// # Errors
///
/// Propagates bind, egress, and client pipeline errors.
pub fn run_fleet_inline_with(
    source: &dyn ProgramSource,
    egress: &EgressConfig,
    net: NetConfig,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<(FleetReport, EgressReport), String> {
    let server = BroadcastServer::bind("127.0.0.1:0", net)
        .map_err(|e| format!("bind failed: {e}"))?;
    let handles = spawn_clients(server.addr(), config, uplink)?;
    // Every subscriber must be registered before the first frame airs,
    // otherwise late joiners would miss the head of the stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.subscriber_count() < config.clients {
        if Instant::now() > deadline {
            server.shutdown();
            return Err("fleet clients did not all subscribe in time".into());
        }
        std::thread::yield_now();
    }
    let stop = AtomicBool::new(false);
    let egress_report = run_egress(&server, source, egress, &stop)?;
    let clients = join_clients(handles)?;
    let dropped = server.dropped_frames();
    server.shutdown();
    let totals = FleetTotals::sum(&clients, Some(dropped));
    let indexed = egress.index.is_some();
    let report =
        FleetReport { schema: FLEET_SCHEMA, config: *config, indexed, clients, totals };
    Ok((report, egress_report))
}
