//! The scripted fleet scenario the transport and uplink end-to-end
//! tests share: a seeded 24-item catalogue aired in two generations
//! whose swap changes the channel count, measured by 8 clients.

use std::time::Duration;

use dbcast::alloc::DrpCds;
use dbcast::model::{BroadcastProgram, ChannelAllocator, Database};
use dbcast::net::{
    CacheKind, FleetConfig, NetConfig, OverflowPolicy, SourceGeneration, WorkloadPattern,
};
use dbcast::workload::{SizeDistribution, WorkloadBuilder};

const BANDWIDTH: f64 = 1.0;

/// Clients in the default fleet.
pub const CLIENTS: usize = 8;

pub fn seeded_db() -> Database {
    WorkloadBuilder::new(24)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 1.0 })
        .seed(11)
        .build()
        .expect("workload builds")
}

/// Two generations over the same database: the swap changes the channel
/// count (3 → 4), so every channel's cycle — and Eq. 2 — changes.
pub fn scripted_stages(db: &Database, swap_at_window: u64) -> Vec<(u64, SourceGeneration)> {
    let frequencies: Vec<f64> = db.iter().map(|d| d.frequency()).collect();
    let mut stages = Vec::new();
    for (generation, channels) in [(0u64, 3usize), (1, 4)] {
        let alloc = DrpCds::new().allocate(db, channels).expect("allocates");
        let program = BroadcastProgram::new(db, &alloc, BANDWIDTH).expect("program builds");
        stages.push((
            if generation == 0 { 0 } else { swap_at_window },
            SourceGeneration { generation, program, frequencies: frequencies.clone() },
        ));
    }
    stages
}

pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        clients: CLIENTS,
        seed: 2024,
        requests: 220,
        rate: 1.0,
        cache: CacheKind::None,
        cache_budget: 0.0,
        pattern: WorkloadPattern::Single,
        patterns: 8,
        max_size: 4,
    }
}

/// Swap mid-arrival-span (so both generations serve plenty of
/// requests) and budget enough windows that the last request plus a
/// full slow cycle always fits before the horizon. The egress window
/// is one cycle of the fastest non-empty channel.
pub fn swap_and_windows(db: &Database, config: &FleetConfig) -> (u64, u64) {
    let stages = scripted_stages(db, 1);
    let mut gen0_window = f64::INFINITY;
    let mut min_window = f64::INFINITY;
    let mut max_cycle = 0.0f64;
    for (i, (_, stage)) in stages.iter().enumerate() {
        for schedule in stage.program.channels() {
            if schedule.is_empty() {
                continue;
            }
            let cycle = schedule.cycle_size() / BANDWIDTH;
            if i == 0 {
                gen0_window = gen0_window.min(cycle);
            }
            min_window = min_window.min(cycle);
            max_cycle = max_cycle.max(cycle);
        }
    }
    let arrival_span = config.requests as f64 / config.rate;
    let swap_at = ((arrival_span * 0.45) / gen0_window).ceil().max(1.0) as u64;
    let horizon_needed = arrival_span * 1.6 + 4.0 * max_cycle;
    let max_windows = swap_at + (horizon_needed / min_window).ceil() as u64 + 4;
    (swap_at, max_windows)
}

pub fn net_config() -> NetConfig {
    NetConfig {
        queue_capacity: 1 << 15,
        // The e2e contract is *zero* dropped frames: block rather than
        // shed if a client thread is briefly scheduled out.
        overflow: OverflowPolicy::Block,
        write_timeout: Some(Duration::from_secs(30)),
    }
}

/// FNV-1a/64 of `bytes`: a short fingerprint for a pinned byte stream.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
