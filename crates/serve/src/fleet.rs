//! Fleet-wide aggregation of client telemetry digests.
//!
//! Clients on the broadcast downlink measure what the allocator can
//! only promise: end-to-end access and tuning time against Eq. 2. Each
//! client folds its outcomes once into one [`GenerationSlice`] per
//! generation; the uplink (crates/net) carries each slice inside a
//! [`FleetDigest`] and feeds it here. The [`FleetAggregator`] pools the
//! slices into per-generation fleet rollups, tracks stragglers whose
//! acked generation trails the published one, and exposes the whole
//! state as the `/fleet` document ([`FleetDoc`], in the
//! `dbcast_obs::doc` envelope) plus live `fleet.*` metrics; the
//! digests' mergeable [`HistogramCells`] go straight into the
//! fleet-wide `fleet.uplink.{access,tuning}` histograms.
//!
//! The aggregation is *exact*, not approximate: a digest carries the
//! client's slice bit for bit, and the fleet means are
//! [`GenerationSlice::pool`] over the clients' slices in client-id
//! order, the same function a post-hoc reconciliation of the
//! `fleet-run` report calls, so the two agree to the last bit.
//! Histogram cells merge associatively and commutatively, with the
//! empty cells as identity.
//!
//! Everything the aggregator keeps is keyed by ids a peer sends, so
//! every map is capped ([`MAX_FLEET_CLIENTS`],
//! [`MAX_FLEET_GENERATIONS`], [`MAX_FLEET_CHANNELS`]); a full map
//! keeps its highest ids and drops the lowest. Per-generation gauges
//! are minted only for generations the server has published. A digest
//! no honest client sends is dropped, so `/fleet` always passes its check.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use dbcast_obs::doc::Document;
use dbcast_obs::metrics::HistogramCells;

use crate::runtime::ProgramGeneration;
use crate::swap::EpochCell;

/// Most clients the aggregator tracks (acks, and reporters per
/// generation); past it the lowest client ids are dropped.
const MAX_FLEET_CLIENTS: usize = 1024;

/// Most generations the aggregator keeps; past it the oldest go.
const MAX_FLEET_GENERATIONS: usize = 32;

/// Most coverage channels kept per generation; past it the lowest
/// channel ids are dropped.
const MAX_FLEET_CHANNELS: usize = 1024;

/// One generation as one client measured it, or, pooled, as the fleet
/// did.
///
/// A client's slice counts its *clean* requests of the generation:
/// served entirely by it, with no torn frame, and arrived early enough
/// that no request could straddle the generation's end. Straddlers
/// are retuned, and excluding them any other way would censor the
/// longest waits and bias the mean below the Eq. 2 expectation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GenerationSlice {
    /// Generation counter from the directory.
    pub generation: u64,
    /// Virtual origin of the generation's phase 0.
    pub origin: f64,
    /// Clean requests behind the means.
    pub requests: u64,
    /// Mean measured access time of those requests (0 when none).
    pub mean_access: f64,
    /// Mean measured tuning time of those requests (0 when none).
    pub mean_tuning: f64,
    /// The Eq. 2 expectation for the requests counted in this slice:
    /// the mean per-request expectation conditioned on the items the
    /// client actually drew, so sampling the workload does not show up
    /// as prediction error. Falls back to the population
    /// frequency-weighted expectation when the slice has no
    /// single-item samples.
    pub predicted_access: f64,
}

impl GenerationSlice {
    /// Pools slices of one generation by sample weight: each mean is
    /// `Σ nᵢ·x̄ᵢ / Σ nᵢ`, summed in iteration order, and 0 when no
    /// slice has a sample. Generation and origin are the first
    /// slice's. The aggregator's `/fleet` rows and any post-hoc
    /// reconciliation of client reports both pool through here, so
    /// for the same slices in the same order they agree bit for bit.
    pub fn pool<'a>(slices: impl IntoIterator<Item = &'a GenerationSlice>) -> Self {
        let mut pooled = GenerationSlice::default();
        let (mut access, mut tuning, mut predicted) = (0.0, 0.0, 0.0);
        for (i, s) in slices.into_iter().enumerate() {
            if i == 0 {
                (pooled.generation, pooled.origin) = (s.generation, s.origin);
            }
            let n = s.requests as f64;
            pooled.requests = pooled.requests.saturating_add(s.requests);
            access += n * s.mean_access;
            tuning += n * s.mean_tuning;
            predicted += n * s.predicted_access;
        }
        if pooled.requests > 0 {
            let n = pooled.requests as f64;
            pooled.mean_access = access / n;
            pooled.mean_tuning = tuning / n;
            pooled.predicted_access = predicted / n;
        }
        pooled
    }

    /// The relative observed-vs-Eq. 2 gap `|obs − pred| / pred`, 0 when
    /// there is no prediction.
    pub fn gap(&self) -> f64 {
        if self.predicted_access > 0.0 {
            (self.mean_access - self.predicted_access).abs() / self.predicted_access
        } else {
            0.0
        }
    }
}

/// One client telemetry digest, as the aggregator folds it and as the
/// uplink codec in `crates/net` (which depends on this crate, not the
/// other way around) encodes and decodes it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FleetDigest {
    /// Reporting client id.
    pub client: u32,
    /// Client-local digest sequence number.
    pub seq: u32,
    /// Newest generation the client has seen a directory for.
    pub last_generation: u64,
    /// The client's measurement of one generation; `None` for a live
    /// generation acknowledgement.
    pub slice: Option<GenerationSlice>,
    /// Requests that arrived while the generation was on the air.
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
    /// Access-time log2 histogram cells of the completed ones,
    /// microseconds.
    pub access: HistogramCells,
    /// Tuning-time log2 histogram cells of the completed ones,
    /// microseconds.
    pub tuning: HistogramCells,
    /// Recorded frames per channel for the generation.
    pub coverage: Vec<(u32, u64)>,
}

impl FleetDigest {
    /// A zeroed acknowledgement digest.
    pub fn ack(client: u32, seq: u32, last_generation: u64) -> FleetDigest {
        FleetDigest { client, seq, last_generation, ..FleetDigest::default() }
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
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
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

/// One generation's running fold. Slices are kept per client and
/// pooled in client-id order at read time: uplink reader threads ingest
/// digests in whatever order the sockets drain, and pooling eagerly
/// would make the last bits of the fleet means depend on that order.
/// The counters and coverage are order-independent sums.
#[derive(Debug, Default)]
struct GenAgg {
    /// Each client's latest slice of the generation: a slice is the
    /// client's whole measurement, so a repeat replaces it.
    slices: BTreeMap<u32, GenerationSlice>,
    /// The summed counters; the rest of the row is filled at read time.
    counters: FleetGeneration,
    coverage: BTreeMap<u32, u64>,
}

#[derive(Debug, Default)]
struct AggState {
    /// Newest generation each client has acked.
    acked: BTreeMap<u32, u64>,
    generations: BTreeMap<u64, GenAgg>,
    digests: u64,
}

/// `map[key]`, inserted as the default when absent. A map already
/// holding `cap` keys first drops its lowest key, unless `key` is lower
/// still: then nothing is kept and the result is `None`.
fn capped<K: Ord + Copy, V: Default>(
    map: &mut BTreeMap<K, V>,
    key: K,
    cap: usize,
) -> Option<&mut V> {
    if map.len() >= cap && !map.contains_key(&key) {
        if map.first_key_value().is_some_and(|(&lowest, _)| key < lowest) {
            return None;
        }
        map.pop_first();
    }
    Some(map.entry(key).or_default())
}

/// Whether a digest keeps `/fleet`'s invariants, as every honest one does
/// (a clean request arrived and completed while its generation aired).
/// Each `requests × mean` is at most `f64::MAX / MAX_FLEET_CLIENTS`, so
/// [`GenerationSlice::pool`]'s sums over the kept slices stay finite.
fn admissible(d: &FleetDigest) -> bool {
    d.slice.is_none_or(|s| {
        let weight = s.requests as f64;
        let mean = |v: f64| {
            v.is_finite() && v >= 0.0 && weight * v <= f64::MAX / MAX_FLEET_CLIENTS as f64
        };
        s.requests <= d.completed
            && d.completed <= d.requests
            && s.origin.is_finite()
            && mean(s.mean_access)
            && mean(s.mean_tuning)
            && mean(s.predicted_access)
    })
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
        // Registered up front, so a scrape shows the fleet before its
        // first digest.
        let r = dbcast_obs::registry();
        r.counter("fleet.uplink.digests");
        r.counter("fleet.uplink.rejected");
        r.gauge("fleet.clients");
        r.gauge("fleet.stragglers");
        r.histogram("fleet.uplink.access");
        r.histogram("fleet.uplink.tuning");
        FleetAggregator {
            cell: None,
            published: AtomicU64::new(0),
            state: Mutex::new(AggState::default()),
        }
    }

    /// An aggregator that reads the published generation straight from
    /// the serving runtime's [`EpochCell`].
    pub fn following(cell: Arc<EpochCell<ProgramGeneration>>) -> FleetAggregator {
        FleetAggregator { cell: Some(cell), ..FleetAggregator::new() }
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
    /// `fleet.*` metrics. What the caps leave no room for is dropped; a
    /// digest that breaks `/fleet`'s invariants, whole, on
    /// `fleet.uplink.rejected`.
    pub fn ingest(&self, d: &FleetDigest) {
        if !admissible(d) {
            dbcast_obs::counter!("fleet.uplink.rejected").inc();
            return;
        }
        let published = self.published();
        let mut state = self.state.lock().expect("fleet aggregator poisoned");
        state.digests += 1;
        if let Some(acked) = capped(&mut state.acked, d.client, MAX_FLEET_CLIENTS) {
            *acked = (*acked).max(d.last_generation);
        }
        // Saturating sums: a peer's counters must not overflow them.
        let pooled = d.slice.and_then(|slice| {
            let agg =
                capped(&mut state.generations, slice.generation, MAX_FLEET_GENERATIONS)?;
            if let Some(kept) = capped(&mut agg.slices, d.client, MAX_FLEET_CLIENTS) {
                *kept = slice;
            }
            let row = &mut agg.counters;
            for (sum, add) in [
                (&mut row.requests, d.requests),
                (&mut row.completed, d.completed),
                (&mut row.cache_hits, d.cache_hits),
                (&mut row.conflicts, d.conflicts),
                (&mut row.retunes, d.retunes),
                (&mut row.torn, d.torn),
            ] {
                *sum = sum.saturating_add(add);
            }
            for &(channel, frames) in &d.coverage {
                if let Some(sum) = capped(&mut agg.coverage, channel, MAX_FLEET_CHANNELS) {
                    *sum = sum.saturating_add(frames);
                }
            }
            Some(GenerationSlice::pool(agg.slices.values()))
        });
        let clients = state.acked.len() as f64;
        let stragglers = state.acked.values().filter(|&&g| g < published).count() as f64;
        drop(state);
        dbcast_obs::counter!("fleet.uplink.digests").inc();
        dbcast_obs::gauge!("fleet.clients").set(clients);
        dbcast_obs::gauge!("fleet.stragglers").set(stragglers);
        if d.slice.is_some() {
            dbcast_obs::histogram!("fleet.uplink.access").merge_cells(&d.access);
            dbcast_obs::histogram!("fleet.uplink.tuning").merge_cells(&d.tuning);
        }
        // Gauges are interned for the life of the process, so only a
        // generation the server has published may mint them.
        if let Some(fleet) = pooled.filter(|p| p.generation <= published) {
            let r = dbcast_obs::registry();
            let g = fleet.generation;
            r.gauge(&format!("fleet.generation.access.{g}")).set(fleet.mean_access);
            r.gauge(&format!("fleet.generation.predicted.{g}")).set(fleet.predicted_access);
            r.gauge(&format!("fleet.generation.gap.{g}")).set(fleet.gap());
        }
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
                let fleet = GenerationSlice::pool(agg.slices.values());
                FleetGeneration {
                    generation,
                    origin: fleet.origin,
                    reporters: agg.slices.len() as u64,
                    samples: fleet.requests,
                    mean_access: fleet.mean_access,
                    mean_tuning: fleet.mean_tuning,
                    predicted_access: fleet.predicted_access,
                    gap: fleet.gap(),
                    coverage: agg
                        .coverage
                        .iter()
                        .map(|(&channel, &frames)| FleetCoverage { channel, frames })
                        .collect(),
                    ..agg.counters.clone()
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

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_obs::doc::{self, DocError};

    /// Serializes the tests that count `fleet.uplink.rejected`.
    static REJECTED: Mutex<()> = Mutex::new(());

    fn slice_digest(client: u32, generation: u64, samples: u64, mean: f64) -> FleetDigest {
        let mut d = FleetDigest::ack(client, 0, generation);
        d.slice = Some(GenerationSlice {
            generation,
            origin: 10.0 * generation as f64,
            requests: samples,
            mean_access: mean,
            mean_tuning: mean / 2.0,
            predicted_access: mean * 0.9,
        });
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
        // A slice is a client's whole measurement, so a repeat replaces
        // the client's earlier one; the counters are deltas and add up.
        agg.ingest(&slice_digest(0, 1, 4, 6.0));
        let g = &agg.doc().generations[0];
        assert_eq!((g.reporters, g.samples, g.mean_access), (2, 16, 4.5));
        assert_eq!((g.requests, g.completed), (23, 20));
    }

    #[test]
    fn a_digest_breaking_the_document_invariants_is_rejected_and_counted() {
        let _serial = REJECTED.lock().unwrap_or_else(|e| e.into_inner());
        dbcast_obs::set_enabled(true);
        let rejected = || dbcast_obs::registry().counter("fleet.uplink.rejected").get();
        let agg = FleetAggregator::new();
        agg.ingest(&slice_digest(0, 1, 4, 2.0));
        let mut spoofed = FleetDigest::ack(1, 0, 1);
        spoofed.slice =
            Some(GenerationSlice { generation: 1, requests: 5, ..Default::default() });
        let before = rejected();
        agg.ingest(&spoofed);
        assert_eq!(agg.doc().check(), Ok(()));
        assert_eq!(rejected(), before + 1);
        // Dropped whole: no ack, no counters, no slice.
        let doc = agg.doc();
        assert_eq!((doc.clients, doc.digests, doc.generations[0].samples), (1, 1, 4));
        // Every other invariant the slice must keep.
        let tampered: [fn(&mut FleetDigest); 6] = [
            |d| d.completed = d.requests + 1,
            |d| d.slice.as_mut().unwrap().requests = d.completed + 1,
            |d| d.slice.as_mut().unwrap().origin = f64::NAN,
            |d| d.slice.as_mut().unwrap().mean_access = -1.0,
            |d| d.slice.as_mut().unwrap().mean_tuning = f64::NAN,
            |d| d.slice.as_mut().unwrap().predicted_access = f64::INFINITY,
        ];
        for tamper in tampered {
            let mut d = slice_digest(2, 1, 3, 1.0);
            tamper(&mut d);
            let before = rejected();
            agg.ingest(&d);
            assert_eq!(rejected(), before + 1, "{d:?}");
        }
        assert_eq!(agg.doc(), doc);
    }

    #[test]
    fn slices_whose_pooled_sums_could_overflow_are_rejected() {
        let _serial = REJECTED.lock().unwrap_or_else(|e| e.into_inner());
        dbcast_obs::set_enabled(true);
        let rejected = || dbcast_obs::registry().counter("fleet.uplink.rejected").get();
        let large = |client: u32, samples: u64, mean: f64| {
            let mut d = FleetDigest::ack(client, 0, 1);
            d.slice = Some(GenerationSlice {
                generation: 1,
                requests: samples,
                mean_access: mean,
                mean_tuning: mean,
                predicted_access: mean,
                ..Default::default()
            });
            (d.requests, d.completed) = (samples, samples);
            d
        };
        // 4 × 1e308 overflows `pool`'s Σ nᵢ·x̄ᵢ on its own.
        let agg = FleetAggregator::new();
        let before = rejected();
        agg.ingest(&large(0, 4, 1e308));
        assert_eq!(agg.doc().check(), Ok(()));
        assert_eq!(rejected(), before + 1);
        // Two slices of 1e308 from different clients are each finite,
        // but their pooled sum is not.
        let agg = FleetAggregator::new();
        let before = rejected();
        agg.ingest(&large(0, 1, 1e308));
        agg.ingest(&large(1, 1, 1e308));
        assert_eq!(agg.doc().check(), Ok(()));
        assert_eq!(rejected(), before + 2);
        // At the bound a full fleet still pools to a finite mean.
        let bound = f64::MAX / MAX_FLEET_CLIENTS as f64;
        let agg = FleetAggregator::new();
        let before = rejected();
        for client in 0..MAX_FLEET_CLIENTS as u32 {
            agg.ingest(&large(client, 1, bound));
        }
        assert_eq!(rejected(), before);
        assert_eq!(agg.doc().check(), Ok(()));
        assert_eq!(agg.doc().generations[0].mean_access, bound);
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
    fn spoofed_ids_stay_within_the_caps() {
        // Half the digests pile spoofed clients and channels onto one
        // far-future generation, a quarter spread over thousands of
        // generations, and a quarter cycle through generations 0-7,
        // around the published one. Every counter is at its maximum,
        // so the sums must saturate rather than overflow.
        let published = 5;
        let heavy = 1 << 40;
        let agg = FleetAggregator::new();
        agg.set_published(published);
        for i in 0..10_000u32 {
            let generation = match i % 4 {
                1 => u64::from(i * 31 % 100_000),
                3 => u64::from(i / 4 % 8),
                _ => heavy,
            };
            let mut d = slice_digest(i.wrapping_mul(2_654_435_761), generation, 1, 2.0);
            d.coverage = vec![(i * 13 % 100_000, u64::MAX)];
            (d.requests, d.completed) = (u64::MAX, u64::MAX);
            agg.ingest(&d);
        }
        let doc = agg.doc();
        assert_eq!(doc.digests, 10_000);
        assert_eq!(doc.clients, MAX_FLEET_CLIENTS as u64);
        assert_eq!(doc.generations.len(), MAX_FLEET_GENERATIONS);
        let top = doc.generations.last().expect("kept generations");
        assert_eq!(top.generation, heavy, "the newest generation is kept");
        assert_eq!(top.reporters, MAX_FLEET_CLIENTS as u64);
        assert_eq!(top.coverage.len(), MAX_FLEET_CHANNELS);
        assert_eq!(doc.check(), Ok(()));
        let minted: Vec<u64> = dbcast_obs::registry()
            .snapshot()
            .gauges
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("fleet.generation."))
            .filter_map(|rest| rest.rsplit_once('.')?.1.parse().ok())
            .collect();
        assert!(minted.contains(&published), "a published generation mints its gauges");
        let past: Vec<u64> = minted.into_iter().filter(|&g| g > published).collect();
        assert!(
            past.is_empty(),
            "{} gauges minted past published generation {published}, e.g. {:?}",
            past.len(),
            &past[..past.len().min(4)]
        );
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
