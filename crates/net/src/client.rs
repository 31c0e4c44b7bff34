//! The simulated broadcast client: record the air, then measure.
//!
//! A client drains its TCP subscription into an [`AirLog`] — every
//! directory and frame the server put on the wire, in air order — and
//! only then evaluates its request workload *analytically* against the
//! recorded generations. Each request is planned with the exact model
//! crates the server schedules with (`index` for selective tuning,
//! `cache` for broadcast-aware eviction, a greedy nearest-completion
//! order for multi-item requests, the earliest occurrence across every
//! carrying channel), and every planned download is then *verified* against a
//! frame that actually aired: a plan the air log cannot corroborate is
//! counted as a torn frame. Because requests are timestamped in virtual
//! broadcast time, results are bit-reproducible and directly comparable
//! to the paper's Eq. 2 expectations.

use std::io::Read;

use dbcast_cache::{CachePolicy, LruCache, PixCache};
use dbcast_model::{Database, ItemId, ItemSpec};
use dbcast_workload::Categorical;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::frame::{DataFrame, Frame, FrameDecoder, IndexFrame};
use crate::world::{airs_by, Directory, WorldView};

/// Which cache policy a client runs in front of the broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CacheKind {
    /// No client cache.
    None,
    /// Least-recently-used.
    Lru,
    /// PIX: broadcast-aware frequency/airtime density eviction.
    Pix,
}

/// How request item-sets are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadPattern {
    /// One item per request, drawn from the broadcast frequencies.
    Single,
    /// Correlated item-set requests: a fixed pool of frequent patterns
    /// is drawn up-front and requests sample from the pool, so the same
    /// item groups recur — the conflict-provoking workload of
    /// frequent-pattern broadcast scheduling.
    Frequent,
}

/// Per-client workload and policy knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Client id within the fleet (also offsets the seed).
    pub id: usize,
    /// RNG seed for arrivals and item draws.
    pub seed: u64,
    /// Number of requests to issue.
    pub requests: usize,
    /// Mean request rate in requests per virtual second.
    pub rate: f64,
    /// Cache policy in front of the broadcast.
    pub cache: CacheKind,
    /// Cache budget in size units.
    pub cache_budget: f64,
    /// Workload shape.
    pub pattern: WorkloadPattern,
    /// Size of the frequent-pattern pool (ignored for `Single`).
    pub patterns: usize,
    /// Maximum items per request (ignored for `Single`).
    pub max_size: usize,
}

/// Everything one subscription put on the air, in virtual-time order.
#[derive(Debug, Default)]
pub struct AirLog {
    /// Generations in announcement order, each with its validity end.
    pub worlds: Vec<WorldView>,
    /// All data frames, sorted by `(start, channel)`.
    pub frames: Vec<DataFrame>,
    /// All index frames, sorted by `(start, channel)`.
    pub index_frames: Vec<IndexFrame>,
    /// Virtual horizon from the end-of-stream frame (or the last frame
    /// end when the stream was cut short).
    pub horizon: f64,
    /// Decode errors encountered while draining the stream.
    pub decode_errors: u64,
    /// Bytes left in the decoder when the stream closed mid-frame.
    pub truncated_bytes: u64,
}

impl AirLog {
    /// Drains `stream` until the end-of-stream frame (or EOF).
    ///
    /// # Errors
    ///
    /// Returns a message when a directory payload does not parse or no
    /// directory ever arrived.
    pub fn record(stream: impl Read) -> Result<AirLog, String> {
        Self::record_with(stream, |_| {})
    }

    /// Like [`AirLog::record`], invoking `on_directory` with every
    /// directory the moment it is parsed off the wire — the hook the
    /// telemetry uplink uses to push live generation acknowledgements
    /// while the downlink is still streaming.
    ///
    /// # Errors
    ///
    /// Returns a message when a directory payload does not parse or no
    /// directory ever arrived.
    pub fn record_with(
        mut stream: impl Read,
        mut on_directory: impl FnMut(&Directory),
    ) -> Result<AirLog, String> {
        let decode_errors_metric = dbcast_obs::registry().counter("net.decode_errors");
        let mut log = AirLog::default();
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        let mut done = false;
        'outer: loop {
            let n = match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read failed: {e}")),
            };
            decoder.push(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(Some(Frame::Directory(json))) => {
                        let dir: Directory = serde_json::from_slice(&json)
                            .map_err(|e| format!("bad directory payload: {e}"))?;
                        on_directory(&dir);
                        let origin = dir.origin;
                        if let Some(prev) = log.worlds.last_mut() {
                            prev.valid_until = origin;
                        }
                        log.worlds.push(WorldView::from_directory(dir)?);
                    }
                    Ok(Some(Frame::Data(d))) => log.frames.push(d),
                    Ok(Some(Frame::Index(ix))) => log.index_frames.push(ix),
                    // Telemetry travels the uplink; a downlink subscriber
                    // that sees one simply ignores it.
                    Ok(Some(Frame::Telemetry(_))) => {}
                    Ok(Some(Frame::End { horizon })) => {
                        log.horizon = horizon;
                        done = true;
                        break 'outer;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        log.decode_errors += 1;
                        decode_errors_metric.inc();
                    }
                }
            }
        }
        if !done {
            log.truncated_bytes = decoder.pending() as u64;
            log.horizon =
                log.frames.iter().map(|f| f.start + f.duration).fold(0.0, f64::max);
        }
        if log.worlds.is_empty() {
            return Err("stream carried no directory".into());
        }
        // The decoder admits only finite starts, on which `total_cmp` is
        // the numeric order; it cannot panic on whatever the wire holds.
        log.frames
            .sort_by(|a, b| a.start.total_cmp(&b.start).then(a.channel.cmp(&b.channel)));
        log.index_frames
            .sort_by(|a, b| a.start.total_cmp(&b.start).then(a.channel.cmp(&b.channel)));
        Ok(log)
    }

    /// The virtual instant the recorded coverage spans *every* channel
    /// of the first recorded generation: the max over that generation's
    /// non-empty channels of each channel's earliest recorded frame
    /// start. A client that joined a live stream mid-generation must
    /// base its arrivals here — a channel whose recording starts later
    /// than the others has an unrecorded gap, and requests planned into
    /// that gap would target downloads the log cannot corroborate.
    /// Later generations need no such guard: their directory precedes
    /// their frames, so a subscriber already on the stream records them
    /// from their origin. Falls back to the next directory's origin
    /// when a first-generation channel was never seen at all, and to
    /// the first origin for a log with no frames.
    pub fn coverage_start(&self) -> f64 {
        let Some(first) = self.worlds.first() else {
            return 0.0;
        };
        let g0 = first.directory.generation;
        let mut earliest: std::collections::BTreeMap<u32, f64> =
            std::collections::BTreeMap::new();
        for (generation, channel, start) in self
            .frames
            .iter()
            .map(|f| (f.generation, f.channel, f.start))
            .chain(self.index_frames.iter().map(|f| (f.generation, f.channel, f.start)))
        {
            if generation != g0 {
                continue;
            }
            let slot = earliest.entry(channel).or_insert(f64::INFINITY);
            *slot = slot.min(start);
        }
        let mut start = first.directory.origin;
        for (idx, schedule) in first.directory.program.channels().iter().enumerate() {
            if schedule.is_empty() {
                continue;
            }
            match earliest.get(&(idx as u32)) {
                Some(&s) => start = start.max(s),
                None => {
                    // The whole first generation is suspect: coverage
                    // only truly begins with the next directory.
                    return self
                        .worlds
                        .get(1)
                        .map(|w| w.directory.origin)
                        .unwrap_or(first.directory.origin);
                }
            }
        }
        start
    }

    /// The world view on the air at virtual instant `t`.
    pub fn world_at(&self, t: f64) -> Option<&WorldView> {
        self.worlds.iter().rev().find(|w| w.directory.origin <= t + 1e-12)
    }

    /// Looks for an aired data frame matching a planned download:
    /// same channel, same item, start within tolerance, and stamped
    /// with the expected generation.
    pub fn find_data(&self, channel: u32, item: u32, start: f64, generation: u64) -> bool {
        let lo = self.frames.partition_point(|f| f.start < start - 1e-6);
        self.frames[lo..]
            .iter()
            .take_while(|f| f.start <= start + 1e-6)
            .any(|f| f.channel == channel && f.item == item && f.generation == generation)
    }
}

/// One measured request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Virtual arrival instant.
    pub arrival: f64,
    /// Items requested (after dedup).
    pub items: usize,
    /// Items answered by the cache.
    pub cache_hits: u64,
    /// Access time: last download completion minus arrival. Zero when
    /// the cache answered everything.
    pub access: f64,
    /// Virtual seconds of radio-active listening.
    pub tuning: f64,
    /// Wanted-item occurrences that fully aired while the single tuner
    /// was busy downloading another item of the same request.
    pub conflicts: u64,
    /// Swap-boundary retunes this request suffered.
    pub retunes: u64,
    /// Planned downloads the air log could not corroborate.
    pub torn: u64,
    /// Generation that served the request, when a single generation did.
    pub generation: Option<u64>,
    /// The request could not finish before the recorded horizon.
    pub incomplete: bool,
    /// The Eq. 2 expectation for this exact request, when it is a
    /// single-item cache miss (the only shape Eq. 2 directly models):
    /// lets reports compare measured means against the expectation
    /// conditioned on the items actually drawn rather than the whole
    /// population.
    pub expected_access: Option<f64>,
}

/// Client-side cache behind one enum, so the measurement loop is
/// policy-agnostic.
enum ClientCache {
    Off,
    On(Box<dyn CachePolicy>),
}

impl ClientCache {
    fn probe(&mut self, item: ItemId) -> bool {
        match self {
            ClientCache::Off => false,
            ClientCache::On(c) => c.probe(item),
        }
    }

    fn admit(&mut self, item: ItemId, size: f64) {
        if let ClientCache::On(c) = self {
            c.admit(item, size);
        }
    }
}

fn build_cache(config: &ClientConfig, world: &WorldView) -> Result<ClientCache, String> {
    match config.cache {
        CacheKind::None => Ok(ClientCache::Off),
        CacheKind::Lru => Ok(ClientCache::On(Box::new(LruCache::new(config.cache_budget)))),
        CacheKind::Pix => {
            let db = directory_database(&world.directory)?;
            Ok(ClientCache::On(Box::new(PixCache::new(
                config.cache_budget,
                &db,
                &world.directory.program,
            ))))
        }
    }
}

/// Rebuilds a [`Database`] from the directory's frequency/size vectors.
pub fn directory_database(directory: &Directory) -> Result<Database, String> {
    let specs: Vec<ItemSpec> = directory
        .frequencies
        .iter()
        .zip(&directory.sizes)
        .map(|(&f, &z)| ItemSpec::new(f, z))
        .collect();
    Database::try_from_specs(specs).map_err(|e| format!("directory database invalid: {e}"))
}

/// A generated request: arrival instant plus wanted item set.
#[derive(Debug, Clone)]
pub struct GeneratedRequest {
    /// Virtual arrival instant.
    pub arrival: f64,
    /// Requested items, deduplicated and sorted.
    pub items: Vec<ItemId>,
}

/// Draws the whole request schedule up-front from the first directory.
///
/// Arrivals are an exponential process at `config.rate` starting at
/// `start` — the instant the client's recorded coverage begins (a
/// client joining a live stream mid-generation must not issue requests
/// into virtual time it never recorded). Items are drawn from the
/// broadcast frequencies (a [`Categorical`] CDF). In
/// [`WorkloadPattern::Frequent`] mode a pool of `config.patterns`
/// item-sets is drawn once and each request samples a pattern with a
/// harmonically decaying weight, so the same correlated groups recur.
pub fn generate_requests(
    config: &ClientConfig,
    directory: &Directory,
    start: f64,
) -> Vec<GeneratedRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let item_cdf = Categorical::from_weights(&directory.frequencies);
    // Frequent-pattern pool, drawn before arrivals so Single/Frequent
    // share the arrival sequence for the same seed.
    let pool: Vec<Vec<ItemId>> = if config.pattern == WorkloadPattern::Frequent {
        (0..config.patterns.max(1))
            .map(|_| {
                let len = 1 + (rng.gen::<f64>() * config.max_size.max(1) as f64) as usize;
                let mut items: Vec<ItemId> =
                    (0..len).map(|_| ItemId::new(item_cdf.sample(&mut rng))).collect();
                items.sort();
                items.dedup();
                items
            })
            .collect()
    } else {
        Vec::new()
    };
    // Harmonic pattern weights: pattern k has weight 1/(k+1).
    let weights: Vec<f64> = (0..pool.len()).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let pool_cdf = Categorical::from_weights(&weights);
    let mut requests = Vec::with_capacity(config.requests);
    let mut t = start;
    for _ in 0..config.requests {
        // Exponential inter-arrival via inverse CDF.
        let u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / config.rate;
        let items = match config.pattern {
            WorkloadPattern::Single => {
                vec![ItemId::new(item_cdf.sample(&mut rng))]
            }
            WorkloadPattern::Frequent => pool[pool_cdf.sample(&mut rng)].clone(),
        };
        requests.push(GeneratedRequest { arrival: t, items });
    }
    requests
}

/// Measures every generated request against the recorded air.
///
/// # Errors
///
/// Returns a message when the log is unusable (no directory) or the
/// cache cannot be built from it.
pub fn measure(
    config: &ClientConfig,
    log: &AirLog,
    requests: &[GeneratedRequest],
) -> Result<Vec<RequestOutcome>, String> {
    let first = log.worlds.first().ok_or("empty air log")?;
    let mut cache = build_cache(config, first)?;
    let mut outcomes = Vec::with_capacity(requests.len());
    for request in requests {
        outcomes.push(measure_one(request, log, &mut cache));
    }
    Ok(outcomes)
}

fn measure_one(
    request: &GeneratedRequest,
    log: &AirLog,
    cache: &mut ClientCache,
) -> RequestOutcome {
    let arrival = request.arrival;
    let mut outcome = RequestOutcome {
        arrival,
        items: request.items.len(),
        cache_hits: 0,
        access: 0.0,
        tuning: 0.0,
        conflicts: 0,
        retunes: 0,
        torn: 0,
        generation: None,
        incomplete: false,
        expected_access: None,
    };
    let mut outstanding: Vec<ItemId> = Vec::with_capacity(request.items.len());
    for &item in &request.items {
        if cache.probe(item) {
            outcome.cache_hits += 1;
        } else {
            outstanding.push(item);
        }
    }
    let mut now = arrival;
    let mut generations_used: Vec<u64> = Vec::new();
    while !outstanding.is_empty() {
        if now > log.horizon + 1e-9 {
            outcome.incomplete = true;
            break;
        }
        let Some(world) = log.world_at(now) else {
            outcome.incomplete = true;
            break;
        };
        // Greedy nearest-completion-first over the outstanding set,
        // each item planned at its earliest occurrence on any carrier.
        let mut chosen: Option<(usize, crate::world::FetchPlan)> = None;
        for (pos, &item) in outstanding.iter().enumerate() {
            let Some(plan) = world.plan_fetch(item, now) else {
                continue;
            };
            let better = match &chosen {
                None => true,
                Some((_, best)) => plan.completion < best.completion - 1e-12,
            };
            if better {
                chosen = Some((pos, plan));
            }
        }
        let Some((pos, plan)) = chosen else {
            // No plan for any outstanding item: program lost the items.
            outcome.incomplete = true;
            break;
        };
        let boundary = world.valid_until;
        if !airs_by(plan.completion, boundary) {
            // The planned download would cross a hot swap: whatever was
            // on the air gets truncated at the boundary, so the client
            // burns its listening up to the boundary and retunes under
            // the next generation.
            outcome.tuning += plan.tuning.min(boundary - now).max(0.0);
            outcome.retunes += 1;
            now = boundary;
            continue;
        }
        if now > log.horizon + 1e-9 || plan.completion > log.horizon + 1e-9 {
            outcome.incomplete = true;
            break;
        }
        let item = outstanding.remove(pos);
        if request.items.len() == 1 && outcome.cache_hits == 0 {
            outcome.expected_access = world.expected_access(item);
        }
        // Verify the plan against the air: a download only counts if a
        // matching frame (channel, item, start, generation) aired.
        if !log.find_data(
            plan.channel.index() as u32,
            item.index() as u32,
            plan.start,
            world.directory.generation,
        ) {
            outcome.torn += 1;
        }
        // Conflicts: another wanted item's next occurrence starts on
        // the air while the single tuner is busy with the chosen
        // download — the opportunity is missed and costs an extra
        // cycle, exactly the retrieval conflict frequent-pattern
        // scheduling tries to co-allocate away.
        for &other in &outstanding {
            if let Some(other_plan) = world.plan_fetch(other, now) {
                if other_plan.start < plan.completion - 1e-12 {
                    outcome.conflicts += 1;
                }
            }
        }
        outcome.tuning += plan.tuning;
        now = plan.completion;
        if !generations_used.contains(&world.directory.generation) {
            generations_used.push(world.directory.generation);
        }
        if let Some(size) = world.item_size(item) {
            cache.admit(item, size);
        }
    }
    outcome.access = now - arrival;
    if generations_used.len() == 1 && outcome.retunes == 0 {
        outcome.generation = Some(generations_used[0]);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_generation_is_deterministic() {
        let dir_freqs = vec![0.5, 0.3, 0.2];
        let directory = Directory {
            generation: 0,
            origin: 0.0,
            bandwidth: 1.0,
            frequencies: dir_freqs,
            sizes: vec![1.0, 2.0, 1.0],
            index: None,
            program: demo_program(),
        };
        let config = ClientConfig {
            id: 0,
            seed: 42,
            requests: 50,
            rate: 2.0,
            cache: CacheKind::None,
            cache_budget: 0.0,
            pattern: WorkloadPattern::Frequent,
            patterns: 4,
            max_size: 3,
        };
        let a = generate_requests(&config, &directory, directory.origin);
        let b = generate_requests(&config, &directory, directory.origin);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.items, y.items);
        }
        // Frequent mode recycles patterns: far fewer distinct item sets
        // than requests.
        let mut sets: Vec<Vec<ItemId>> = a.iter().map(|r| r.items.clone()).collect();
        sets.sort();
        sets.dedup();
        assert!(sets.len() <= 4);
    }

    fn demo_program() -> dbcast_model::BroadcastProgram {
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.5, 1.0),
            ItemSpec::new(0.3, 2.0),
            ItemSpec::new(0.2, 1.0),
        ])
        .unwrap();
        let alloc =
            dbcast_model::Allocation::from_assignment(&db, 2, vec![0, 1, 1]).unwrap();
        dbcast_model::BroadcastProgram::new(&db, &alloc, 1.0).unwrap()
    }
}
