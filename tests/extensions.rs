//! Integration tests for the extension crates (heterogeneous
//! bandwidths, replication) working together with the core pipeline and
//! the simulator. Online maintenance of a serving assignment is budgeted
//! repair, a capped `Cds::refine`; the serving runtime's tests cover it
//! (`crates/serve/tests/e2e_shift.rs`, `budget_exhausted.rs`).

use dbcast::alloc::DrpCds;
use dbcast::hetero::{hetero_waiting_time, Bandwidths, HeteroDrpCds};
use dbcast::model::{Allocation, BroadcastProgram, ChannelAllocator};
use dbcast::replication::{approx_waiting_time, GreedyReplicator, ReplicatedAllocation};
use dbcast::sim::Simulation;
use dbcast::workload::{SizeDistribution, TraceBuilder, WorkloadBuilder};

#[test]
fn hetero_pipeline_dominates_oblivious_as_spread_grows() {
    let db = WorkloadBuilder::new(80).seed(41).build().unwrap();
    let mut last_improvement = -1.0;
    for spread in [1.0f64, 4.0, 16.0] {
        let k = 4;
        let ratio = spread.powf(1.0 / 3.0);
        let mut raw: Vec<f64> = (0..k).map(|i| ratio.powi(i as i32)).collect();
        let mean: f64 = raw.iter().sum::<f64>() / k as f64;
        for b in &mut raw {
            *b *= 10.0 / mean;
        }
        let bw = Bandwidths::try_new(raw).unwrap();
        let oblivious = DrpCds::new().allocate(&db, k).unwrap();
        let w_obl = hetero_waiting_time(&db, &oblivious, &bw).unwrap();
        let aware = HeteroDrpCds::new(bw.clone()).allocate(&db).unwrap();
        let w_aware = hetero_waiting_time(&db, &aware, &bw).unwrap();
        assert!(w_aware <= w_obl + 1e-9, "spread {spread}");
        let improvement = (w_obl - w_aware) / w_obl;
        assert!(
            improvement >= last_improvement - 0.02,
            "improvement should grow with spread: {improvement} after {last_improvement}"
        );
        last_improvement = improvement;
    }
}

#[test]
fn hetero_waiting_time_matches_simulation_via_scaled_programs() {
    // The simulator assumes one shared bandwidth, so validate the
    // heterogeneous analytical model channel by channel: each channel
    // of the heterogeneous system behaves exactly like a single-channel
    // homogeneous system at its own bandwidth.
    let db = WorkloadBuilder::new(30).seed(42).build().unwrap();
    let bw = Bandwidths::try_new(vec![25.0, 10.0, 5.0]).unwrap();
    let alloc = HeteroDrpCds::new(bw.clone()).allocate(&db).unwrap();
    let w_model = hetero_waiting_time(&db, &alloc, &bw).unwrap();

    // Reconstruct W_b from per-channel homogeneous models.
    let mut reconstructed = 0.0;
    for (ch, stats) in alloc.all_channel_stats().iter().enumerate() {
        if stats.items == 0 {
            continue;
        }
        let b = bw.get(ch);
        let mut weighted_download = 0.0;
        for (item, &c) in alloc.assignment().iter().enumerate() {
            if c == ch {
                let d = &db.items()[item];
                weighted_download += d.frequency() * d.size();
            }
        }
        reconstructed += stats.frequency * stats.size / (2.0 * b) + weighted_download / b;
    }
    assert!((w_model - reconstructed).abs() < 1e-9);
}

#[test]
fn replication_recovers_much_of_the_reallocation_gain() {
    let db = WorkloadBuilder::new(60)
        .skewness(1.2)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(43)
        .build()
        .unwrap();
    let trace = TraceBuilder::new(&db).requests(25_000).seed(44).build().unwrap();
    let k = 5;
    let legacy =
        Allocation::from_assignment(&db, k, (0..60).map(|i| i % k).collect()).unwrap();
    let ideal = DrpCds::new().allocate(&db, k).unwrap();
    let replicated = GreedyReplicator::new().replicate(&db, legacy.clone(), 10.0).unwrap();

    let sim =
        |p: &BroadcastProgram| Simulation::new(p, &trace).run().unwrap().waiting().mean();
    let w_legacy = sim(&BroadcastProgram::new(&db, &legacy, 10.0).unwrap());
    let w_ideal = sim(&BroadcastProgram::new(&db, &ideal, 10.0).unwrap());
    let w_repl = sim(&replicated.allocation.to_program(&db, 10.0).unwrap());

    assert!(w_ideal < w_repl && w_repl < w_legacy);
    let recovered = (w_legacy - w_repl) / (w_legacy - w_ideal);
    assert!(
        recovered > 0.3,
        "replication should recover a sizable fraction: {recovered:.2}"
    );
}

#[test]
fn replication_approximation_is_exact_without_replicas_everywhere() {
    for seed in [45u64, 46, 47] {
        let db = WorkloadBuilder::new(40).seed(seed).build().unwrap();
        let alloc = DrpCds::new().allocate(&db, 4).unwrap();
        let plain = ReplicatedAllocation::new(alloc.clone());
        let approx = approx_waiting_time(&db, &plain, 10.0).unwrap();
        let exact = dbcast::model::average_waiting_time(&db, &alloc, 10.0).unwrap().total();
        assert!((approx - exact).abs() < 1e-6);
    }
}

#[test]
fn replicated_programs_simulate_with_all_engine_invariants() {
    // Cross-cutting: the event engine handles overlapping programs
    // (3 events per request, monotone clock, all requests complete).
    let db = WorkloadBuilder::new(30).skewness(1.0).seed(49).build().unwrap();
    let base =
        Allocation::from_assignment(&db, 3, (0..30).map(|i| i % 3).collect()).unwrap();
    let out = GreedyReplicator::new().replicate(&db, base, 10.0).unwrap();
    let program = out.allocation.to_program(&db, 10.0).unwrap();
    let trace = TraceBuilder::new(&db).requests(5_000).seed(50).build().unwrap();
    let report = Simulation::new(&program, &trace).run().unwrap();
    assert_eq!(report.completed(), 5_000);
    assert_eq!(report.events_processed(), 15_000);
    for r in report.records() {
        assert!(r.probe_time() >= -1e-12);
        assert!(r.download_time() > 0.0);
    }
}
