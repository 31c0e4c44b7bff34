//! Fleet-wide aggregation of client telemetry digests.
//!
//! Clients on the broadcast downlink measure what the allocator can
//! only promise: end-to-end access and tuning time against Eq. 2. The
//! uplink (crates/net) decodes their telemetry frames straight into
//! [`FleetDigest`]s and feeds them here; the [`FleetAggregator`] folds
//! them into exact per-generation fleet rollups, tracks stragglers
//! whose acked generation trails the published one, and exposes the
//! whole state as the `/fleet` document ([`FleetDoc`], in the
//! `dbcast_obs::doc` envelope) plus live `fleet.*` metrics; the
//! digests' mergeable [`HistogramCells`] go straight into the
//! fleet-wide `fleet.uplink.{access,tuning}` histograms.
//!
//! The aggregation is *exact*, not approximate: a slice digest carries
//! the client's per-generation sample count and means bit-exact, so the
//! fleet mean `Σ nᵢ·x̄ᵢ / Σ nᵢ` reconciles with the post-hoc
//! `FleetReport` computed from the same outcomes to within float
//! round-off, and histogram cells merge like count-min sketch rows —
//! associative, commutative, with the empty digest as identity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use dbcast_obs::doc::Document;
use dbcast_obs::metrics::HistogramCells;

use crate::runtime::ProgramGeneration;
use crate::swap::EpochCell;

/// One client telemetry digest, as the aggregator folds it and as the
/// uplink codec in `crates/net` (which depends on this crate, not the
/// other way around) encodes and decodes it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDigest {
    /// Reporting client id.
    pub client: u32,
    /// Client-local digest sequence number.
    pub seq: u32,
    /// `true` for a per-generation measurement slice, `false` for a
    /// live generation acknowledgement.
    pub slice: bool,
    /// Newest generation the client has seen a directory for.
    pub last_generation: u64,
    /// Generation this slice measures (slices only).
    pub generation: u64,
    /// Virtual origin of that generation.
    pub origin: f64,
    /// Unbiased per-generation samples behind the means.
    pub samples: u64,
    /// Mean measured access time of those samples, virtual seconds.
    pub mean_access: f64,
    /// Mean measured tuning time of those samples, virtual seconds.
    pub mean_tuning: f64,
    /// Mean Eq. 2 expectation conditioned on the client's draws.
    pub predicted_access: f64,
    /// Requests attributed to this generation (by arrival span).
    pub requests: u64,
    /// Completed requests among those.
    pub completed: u64,
    /// Cache hits among those.
    pub cache_hits: u64,
    /// Retrieval conflicts among those.
    pub conflicts: u64,
    /// Swap-boundary retunes among those.
    pub retunes: u64,
    /// Torn frames among those.
    pub torn: u64,
    /// Access-time log2 histogram cells, microseconds.
    pub access: HistogramCells,
    /// Tuning-time log2 histogram cells, microseconds.
    pub tuning: HistogramCells,
    /// Recorded frames per channel for this generation.
    pub coverage: Vec<(u32, u64)>,
}

impl FleetDigest {
    /// A zeroed acknowledgement digest.
    pub fn ack(client: u32, seq: u32, last_generation: u64) -> FleetDigest {
        FleetDigest {
            client,
            seq,
            slice: false,
            last_generation,
            generation: 0,
            origin: 0.0,
            samples: 0,
            mean_access: 0.0,
            mean_tuning: 0.0,
            predicted_access: 0.0,
            requests: 0,
            completed: 0,
            cache_hits: 0,
            conflicts: 0,
            retunes: 0,
            torn: 0,
            access: HistogramCells::empty(),
            tuning: HistogramCells::empty(),
            coverage: Vec::new(),
        }
    }
}

/// Per-channel recorded-frame coverage inside a fleet generation row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetCoverage {
    /// Channel index.
    pub channel: u32,
    /// Frames the fleet recorded on that channel for the generation.
    pub frames: u64,
}

/// One generation's fleet-wide aggregate in the `/fleet` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetGeneration {
    /// Generation counter from the directory.
    pub generation: u64,
    /// Virtual origin of the generation.
    pub origin: f64,
    /// Distinct clients that contributed a slice.
    pub reporters: u64,
    /// Unbiased samples behind the fleet means.
    pub samples: u64,
    /// Sample-weighted fleet mean access time, virtual seconds.
    pub mean_access: f64,
    /// Sample-weighted fleet mean tuning time, virtual seconds.
    pub mean_tuning: f64,
    /// Sample-weighted fleet mean Eq. 2 expectation.
    pub predicted_access: f64,
    /// Relative observed-vs-Eq. 2 gap: `|obs − pred| / pred` (0 when
    /// the generation has no samples or no prediction).
    pub gap: f64,
    /// Requests attributed to the generation across the fleet.
    pub requests: u64,
    /// Completed requests among those.
    pub completed: u64,
    /// Cache hits among those.
    pub cache_hits: u64,
    /// Retrieval conflicts among those.
    pub conflicts: u64,
    /// Swap-boundary retunes among those.
    pub retunes: u64,
    /// Torn frames among those.
    pub torn: u64,
    /// Per-channel recorded-frame coverage, ascending by channel.
    pub coverage: Vec<FleetCoverage>,
}

/// The `/fleet` document body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetDoc {
    /// Generation the server currently publishes.
    pub published: u64,
    /// Distinct clients heard on the uplink.
    pub clients: u64,
    /// Clients whose acked generation trails the published one.
    pub stragglers: u64,
    /// Digests ingested so far.
    pub digests: u64,
    /// Ids of the straggling clients, ascending.
    pub lagging: Vec<u32>,
    /// Per-generation aggregates, ascending by generation.
    pub generations: Vec<FleetGeneration>,
}

impl Document for FleetDoc {
    const KIND: &'static str = "fleet";
    const SCHEMA: u32 = 1;

    /// A straggler count that matches the strictly ascending lagging
    /// list and never exceeds the clients; strictly ascending
    /// generations and coverage channels; finite, non-negative stats;
    /// no more reporters than clients, samples or completions than
    /// requests.
    fn check(&self) -> Result<(), String> {
        let doc = self;
        if doc.stragglers != doc.lagging.len() as u64 {
            return Err(format!(
                "stragglers {} disagrees with lagging list of {}",
                doc.stragglers,
                doc.lagging.len()
            ));
        }
        if !doc.lagging.windows(2).all(|w| w[0] < w[1]) {
            return Err("lagging client ids are not strictly ascending".into());
        }
        if doc.stragglers > doc.clients {
            return Err(format!(
                "{} stragglers among {} clients",
                doc.stragglers, doc.clients
            ));
        }
        if !doc.generations.windows(2).all(|w| w[0].generation < w[1].generation) {
            return Err("generations are not strictly ascending".into());
        }
        for g in &doc.generations {
            if !g.origin.is_finite()
                || !g.mean_access.is_finite()
                || !g.mean_tuning.is_finite()
                || !g.predicted_access.is_finite()
                || !g.gap.is_finite()
            {
                return Err(format!("generation {} has non-finite stats", g.generation));
            }
            if g.mean_access < 0.0 || g.mean_tuning < 0.0 || g.gap < 0.0 {
                return Err(format!("generation {} has negative stats", g.generation));
            }
            if g.reporters > doc.clients {
                return Err(format!(
                    "generation {} reports {} reporters among {} clients",
                    g.generation, g.reporters, doc.clients
                ));
            }
            if g.samples > g.requests {
                return Err(format!(
                    "generation {} has {} samples for {} requests",
                    g.generation, g.samples, g.requests
                ));
            }
            if g.completed > g.requests {
                return Err(format!(
                    "generation {} completed {} of {} requests",
                    g.generation, g.completed, g.requests
                ));
            }
            if !g.coverage.windows(2).all(|w| w[0].channel < w[1].channel) {
                return Err(format!(
                    "generation {} coverage channels are not strictly ascending",
                    g.generation
                ));
            }
        }
        Ok(())
    }
}

/// One client's sample-weighted share of a generation fold.
#[derive(Debug, Default, Clone, Copy)]
struct Contribution {
    samples: u64,
    weighted_access: f64,
    weighted_tuning: f64,
    weighted_predicted: f64,
}

/// One generation's running fold.
///
/// The float parts are kept **per client** and summed in client-id
/// order at read time: uplink reader threads ingest digests in
/// whatever order the sockets drain, and folding `Σ nᵢ·x̄ᵢ` eagerly
/// would make the last few bits of the fleet means depend on that
/// arrival order. Integer counters and coverage are order-independent
/// already.
#[derive(Debug, Default)]
struct GenAgg {
    origin: f64,
    contributions: BTreeMap<u32, Contribution>,
    requests: u64,
    completed: u64,
    cache_hits: u64,
    conflicts: u64,
    retunes: u64,
    torn: u64,
    coverage: BTreeMap<u32, u64>,
}

#[derive(Debug, Default)]
struct AggState {
    /// Newest generation each client has acked.
    acked: BTreeMap<u32, u64>,
    generations: BTreeMap<u64, GenAgg>,
    digests: u64,
}

/// Resolved `fleet.*` aggregation metric handles.
struct AggMetrics {
    digests: &'static dbcast_obs::metrics::Counter,
    clients: &'static dbcast_obs::metrics::Gauge,
    stragglers: &'static dbcast_obs::metrics::Gauge,
    access: &'static dbcast_obs::metrics::Histogram,
    tuning: &'static dbcast_obs::metrics::Histogram,
}

impl AggMetrics {
    fn resolve() -> Self {
        let r = dbcast_obs::registry();
        AggMetrics {
            digests: r.counter("fleet.uplink.digests"),
            clients: r.gauge("fleet.clients"),
            stragglers: r.gauge("fleet.stragglers"),
            access: r.histogram("fleet.uplink.access"),
            tuning: r.histogram("fleet.uplink.tuning"),
        }
    }
}

/// Folds client telemetry digests into live fleet-wide aggregates.
///
/// Thread-safe: the uplink server ingests from per-connection reader
/// threads while the exposition server renders `/fleet` from another.
pub struct FleetAggregator {
    /// The runtime's publication cell, when the aggregator runs next to
    /// a live server; otherwise [`FleetAggregator::set_published`].
    cell: Option<Arc<EpochCell<ProgramGeneration>>>,
    published: AtomicU64,
    state: Mutex<AggState>,
    metrics: AggMetrics,
}

impl std::fmt::Debug for FleetAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetAggregator")
            .field("published", &self.published())
            .finish_non_exhaustive()
    }
}

impl Default for FleetAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetAggregator {
    /// A free-standing aggregator; the published generation is whatever
    /// [`FleetAggregator::set_published`] last set (initially 0).
    pub fn new() -> FleetAggregator {
        FleetAggregator {
            cell: None,
            published: AtomicU64::new(0),
            state: Mutex::new(AggState::default()),
            metrics: AggMetrics::resolve(),
        }
    }

    /// An aggregator that reads the published generation straight from
    /// the serving runtime's [`EpochCell`].
    pub fn following(cell: Arc<EpochCell<ProgramGeneration>>) -> FleetAggregator {
        FleetAggregator {
            cell: Some(cell),
            published: AtomicU64::new(0),
            state: Mutex::new(AggState::default()),
            metrics: AggMetrics::resolve(),
        }
    }

    /// Sets the published generation stragglers are judged against
    /// (ignored when the aggregator follows an [`EpochCell`]).
    pub fn set_published(&self, generation: u64) {
        self.published.store(generation, Ordering::Release);
    }

    /// The generation stragglers are currently judged against.
    pub fn published(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.generation(),
            None => self.published.load(Ordering::Acquire),
        }
    }

    /// Folds one digest into the aggregates and refreshes the live
    /// `fleet.*` metrics.
    pub fn ingest(&self, d: &FleetDigest) {
        let published = self.published();
        let mut state = self.state.lock().expect("fleet aggregator poisoned");
        state.digests += 1;
        let acked = state.acked.entry(d.client).or_insert(0);
        *acked = (*acked).max(d.last_generation);
        if d.slice {
            let agg = state.generations.entry(d.generation).or_default();
            agg.origin = d.origin;
            let share = agg.contributions.entry(d.client).or_default();
            share.samples += d.samples;
            let n = d.samples as f64;
            share.weighted_access += n * d.mean_access;
            share.weighted_tuning += n * d.mean_tuning;
            share.weighted_predicted += n * d.predicted_access;
            agg.requests += d.requests;
            agg.completed += d.completed;
            agg.cache_hits += d.cache_hits;
            agg.conflicts += d.conflicts;
            agg.retunes += d.retunes;
            agg.torn += d.torn;
            for &(channel, frames) in &d.coverage {
                *agg.coverage.entry(channel).or_insert(0) += frames;
            }
        }
        let clients = state.acked.len() as f64;
        let stragglers = state.acked.values().filter(|&&g| g < published).count() as f64;
        drop(state);
        self.metrics.digests.inc();
        self.metrics.clients.set(clients);
        self.metrics.stragglers.set(stragglers);
        if d.slice {
            self.metrics.access.merge_cells(&d.access);
            self.metrics.tuning.merge_cells(&d.tuning);
            self.publish_generation_gauges(d.generation);
        }
    }

    /// Refreshes the indexed `fleet.generation.*.<g>` gauges for `g`.
    fn publish_generation_gauges(&self, generation: u64) {
        let state = self.state.lock().expect("fleet aggregator poisoned");
        let Some(agg) = state.generations.get(&generation) else {
            return;
        };
        let (obs, pred, gap) = gen_means(agg);
        drop(state);
        let r = dbcast_obs::registry();
        r.gauge(&format!("fleet.generation.access.{generation}")).set(obs);
        r.gauge(&format!("fleet.generation.predicted.{generation}")).set(pred);
        r.gauge(&format!("fleet.generation.gap.{generation}")).set(gap);
    }

    /// The current aggregate state as a `/fleet` document.
    pub fn doc(&self) -> FleetDoc {
        let published = self.published();
        let state = self.state.lock().expect("fleet aggregator poisoned");
        let lagging: Vec<u32> =
            state.acked.iter().filter(|(_, &g)| g < published).map(|(&id, _)| id).collect();
        let generations = state
            .generations
            .iter()
            .map(|(&generation, agg)| {
                let fold = fold_contributions(agg);
                let (mean_access, predicted_access, gap) = gen_means(agg);
                let mean_tuning = if fold.samples > 0 {
                    fold.weighted_tuning / fold.samples as f64
                } else {
                    0.0
                };
                FleetGeneration {
                    generation,
                    origin: agg.origin,
                    reporters: agg.contributions.len() as u64,
                    samples: fold.samples,
                    mean_access,
                    mean_tuning,
                    predicted_access,
                    gap,
                    requests: agg.requests,
                    completed: agg.completed,
                    cache_hits: agg.cache_hits,
                    conflicts: agg.conflicts,
                    retunes: agg.retunes,
                    torn: agg.torn,
                    coverage: agg
                        .coverage
                        .iter()
                        .map(|(&channel, &frames)| FleetCoverage { channel, frames })
                        .collect(),
                }
            })
            .collect();
        FleetDoc {
            published,
            clients: state.acked.len() as u64,
            stragglers: lagging.len() as u64,
            digests: state.digests,
            lagging,
            generations,
        }
    }
}

/// Sums the per-client contributions in client-id order — the one
/// float summation order every read of the fold agrees on.
fn fold_contributions(agg: &GenAgg) -> Contribution {
    let mut total = Contribution::default();
    for share in agg.contributions.values() {
        total.samples += share.samples;
        total.weighted_access += share.weighted_access;
        total.weighted_tuning += share.weighted_tuning;
        total.weighted_predicted += share.weighted_predicted;
    }
    total
}

/// Sample-weighted (observed, predicted, relative-gap) for one fold.
fn gen_means(agg: &GenAgg) -> (f64, f64, f64) {
    let fold = fold_contributions(agg);
    if fold.samples == 0 {
        return (0.0, 0.0, 0.0);
    }
    let n = fold.samples as f64;
    let obs = fold.weighted_access / n;
    let pred = fold.weighted_predicted / n;
    let gap = if pred > 0.0 { (obs - pred).abs() / pred } else { 0.0 };
    (obs, pred, gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_obs::doc::{self, DocError};

    fn slice_digest(client: u32, generation: u64, samples: u64, mean: f64) -> FleetDigest {
        let mut d = FleetDigest::ack(client, 0, generation);
        d.slice = true;
        d.generation = generation;
        d.origin = 10.0 * generation as f64;
        d.samples = samples;
        d.mean_access = mean;
        d.mean_tuning = mean / 2.0;
        d.predicted_access = mean * 0.9;
        d.requests = samples + 1;
        d.completed = samples;
        for i in 0..samples {
            d.access.record((mean * 1e6) as u64 + i);
            d.tuning.record((mean * 5e5) as u64 + i);
        }
        d.coverage = vec![(0, 3 * samples), (1, samples)];
        d
    }

    #[test]
    fn slices_fold_into_sample_weighted_generation_means() {
        let agg = FleetAggregator::new();
        agg.set_published(1);
        agg.ingest(&slice_digest(0, 1, 4, 2.0));
        agg.ingest(&slice_digest(1, 1, 12, 4.0));
        let doc = agg.doc();
        assert_eq!(doc.clients, 2);
        assert_eq!(doc.stragglers, 0);
        assert_eq!(doc.digests, 2);
        let g = &doc.generations[0];
        assert_eq!((g.generation, g.reporters, g.samples), (1, 2, 16));
        // Σ nᵢ·x̄ᵢ / Σ nᵢ = (4·2 + 12·4) / 16 = 3.5.
        assert!((g.mean_access - 3.5).abs() < 1e-12);
        assert!((g.predicted_access - 3.5 * 0.9).abs() < 1e-12);
        assert!((g.gap - (3.5 - 3.15) / 3.15).abs() < 1e-12);
        assert_eq!(g.requests, 18);
        assert_eq!(g.completed, 16);
        assert_eq!(
            g.coverage,
            vec![
                FleetCoverage { channel: 0, frames: 48 },
                FleetCoverage { channel: 1, frames: 16 }
            ]
        );
        assert_eq!(doc::decode::<FleetDoc>(&doc::render(&agg.doc())), Ok(agg.doc()));
    }

    #[test]
    fn stragglers_trail_the_published_generation() {
        let agg = FleetAggregator::new();
        agg.set_published(3);
        agg.ingest(&FleetDigest::ack(0, 0, 3));
        agg.ingest(&FleetDigest::ack(1, 0, 1));
        agg.ingest(&FleetDigest::ack(2, 0, 2));
        let doc = agg.doc();
        assert_eq!(doc.stragglers, 2);
        assert_eq!(doc.lagging, vec![1, 2]);
        // Catching up clears the straggler.
        agg.ingest(&FleetDigest::ack(1, 1, 3));
        agg.ingest(&FleetDigest::ack(2, 1, 3));
        let doc = agg.doc();
        assert_eq!(doc.stragglers, 0);
        assert!(doc.lagging.is_empty());
    }

    #[test]
    fn ingest_order_does_not_change_the_document() {
        // Deliberately inexact means: a naive eager `Σ nᵢ·x̄ᵢ` fold
        // would differ in the last ulp between these two orders.
        let digests = [
            slice_digest(0, 1, 4, 0.1),
            slice_digest(1, 1, 12, 1.0 / 3.0),
            slice_digest(3, 1, 7, 0.7),
            slice_digest(2, 2, 5, 1.25),
        ];
        let forward = FleetAggregator::new();
        let backward = FleetAggregator::new();
        for d in &digests {
            forward.ingest(d);
        }
        for d in digests.iter().rev() {
            backward.ingest(d);
        }
        assert_eq!(forward.doc(), backward.doc());
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let agg = FleetAggregator::new();
        agg.ingest(&slice_digest(0, 1, 4, 2.0));
        let good = doc::render(&agg.doc());
        doc::decode::<FleetDoc>(&good).expect("baseline decodes");
        let reject = |text: &str| doc::decode::<FleetDoc>(text).unwrap_err();
        let bad_schema = good.replace("\"schema\": 1", "\"schema\": 9");
        assert!(matches!(reject(&bad_schema), DocError::Schema { .. }));
        // A renamed key is both unknown and leaves `published` missing;
        // an added key is unknown alone. Both fail field decoding.
        let renamed = good.replace("\"published\"", "\"publishedd\"");
        assert!(matches!(reject(&renamed), DocError::Parse(_)));
        let extra = good.replace("\"published\": ", "\"bogus\": 3, \"published\": ");
        assert!(reject(&extra).to_string().contains("unknown field `bogus`"), "{extra}");
        let bad_stragglers = good.replace("\"stragglers\": 0", "\"stragglers\": 7");
        assert!(matches!(reject(&bad_stragglers), DocError::Check { .. }));
        assert!(matches!(reject("{}"), DocError::Parse(_)));
        assert!(matches!(reject("not json"), DocError::Parse(_)));
    }

    type Tamper = fn(&mut FleetDoc);

    #[test]
    fn check_rejects_straggler_and_ordering_violations() {
        let agg = FleetAggregator::new();
        agg.set_published(3);
        agg.ingest(&slice_digest(0, 1, 4, 2.0));
        agg.ingest(&slice_digest(1, 2, 4, 2.0));
        let good = agg.doc();
        assert_eq!(good.check(), Ok(()));
        let cases: [(&str, Tamper); 5] = [
            ("disagrees with lagging", |d| d.stragglers += 1),
            ("lagging client ids", |d| d.lagging.reverse()),
            ("stragglers among", |d| d.clients = 1),
            ("generations are not strictly ascending", |d| d.generations.reverse()),
            ("coverage channels", |d| d.generations[0].coverage.reverse()),
        ];
        for (needle, tamper) in cases {
            let mut bad = good.clone();
            tamper(&mut bad);
            let err = bad.check().expect_err(needle);
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn follows_the_runtime_epoch_cell() {
        let db = dbcast_model::Database::try_from_specs(vec![
            dbcast_model::ItemSpec::new(0.6, 1.0),
            dbcast_model::ItemSpec::new(0.4, 1.0),
        ])
        .unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(&db, 2, vec![0, 1]).unwrap();
        let generation = || ProgramGeneration {
            program: dbcast_model::BroadcastProgram::new(&db, &alloc, 1.0).unwrap(),
            frequencies: vec![0.6, 0.4],
            assignment: vec![0, 1],
            cost: 1.0,
            expected_wait: 1.0,
        };
        let cell = Arc::new(EpochCell::new(generation()));
        let agg = FleetAggregator::following(Arc::clone(&cell));
        agg.ingest(&FleetDigest::ack(0, 0, 0));
        assert_eq!(agg.doc().stragglers, 0);
        cell.publish(generation());
        assert_eq!(agg.published(), 1);
        assert_eq!(agg.doc().stragglers, 1);
    }
}
