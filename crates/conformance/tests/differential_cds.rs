//! The differential CDS battery: the incremental engine behind
//! [`Cds`] must reproduce the paper-literal [`ReferenceCds`] scan
//! **bit-for-bit** on everything this repository can throw at it —
//! the seeded generator corpus, every committed regression entry, and
//! workload-builder instances beyond the generator's size envelope.
//!
//! The per-instance comparison itself lives in the invariant suite
//! (`cds-differential` in `crates/conformance/src/invariants.rs`), so
//! a divergence found here is shrinkable with the same ddmin machinery
//! as every other violation; these tests drive that check across the
//! full corpus and fail on the first diverging instance.

use dbcast_alloc::{Cds, Drp, ReferenceCds};
use dbcast_conformance::{
    corpus, GeneratorConfig, Harness, HarnessConfig, Instance, InstanceGenerator,
};
use dbcast_model::{Allocation, ChannelAllocator, Database};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bit-compares a full refinement from `start` under both engines.
fn assert_bit_identical(db: &Database, start: Allocation, context: &str) {
    let oracle = ReferenceCds::new().refine(db, start.clone()).unwrap();
    let fast = Cds::new().refine(db, start).unwrap();
    assert_eq!(oracle.steps.len(), fast.steps.len(), "{context}: step counts diverged");
    for (i, (a, b)) in oracle.steps.iter().zip(&fast.steps).enumerate() {
        assert_eq!(a.mv, b.mv, "{context}: step {i} move");
        assert_eq!(
            a.reduction.to_bits(),
            b.reduction.to_bits(),
            "{context}: step {i} reduction ({} vs {})",
            a.reduction,
            b.reduction
        );
        assert_eq!(
            a.cost_after.to_bits(),
            b.cost_after.to_bits(),
            "{context}: step {i} cost_after"
        );
    }
    assert_eq!(oracle.converged, fast.converged, "{context}: convergence flag");
    assert_eq!(
        oracle.allocation.assignment(),
        fast.allocation.assignment(),
        "{context}: final assignment"
    );
    assert_eq!(
        oracle.allocation.total_cost().to_bits(),
        fast.allocation.total_cost().to_bits(),
        "{context}: final Eq. 3 cost"
    );
}

/// Both engines, on every start the invariant suite uses: a seeded
/// random assignment and (when feasible) the DRP rough allocation.
fn check_instance_differential(instance: &Instance, context: &str) {
    let db = match instance.database() {
        Ok(db) => db,
        Err(_) => return, // corpus may hold deliberately invalid features
    };
    let k = instance.channels;
    let mut rng = ChaCha8Rng::seed_from_u64(instance.seed ^ instance.case);
    let random: Vec<usize> = (0..db.len()).map(|_| rng.gen_range(0..k)).collect();
    let start = Allocation::from_assignment(&db, k, random).unwrap();
    assert_bit_identical(&db, start, &format!("{context} (random start)"));
    if k <= db.len() {
        if let Ok(rough) = Drp::new().allocate(&db, k) {
            assert_bit_identical(&db, rough, &format!("{context} (drp start)"));
        }
    }
}

/// Replays the seeded generator corpus through both engines. The same
/// generator configuration as the standard harness, so the instance
/// population matches what `dbcast conformance` fuzzes.
#[test]
fn generator_corpus_is_bit_identical_across_engines() {
    let cfg = HarnessConfig::default();
    let generator = InstanceGenerator::new(GeneratorConfig {
        seed: cfg.seed,
        max_items: cfg.max_items,
        max_channels: cfg.max_channels,
    });
    for case in 0..cfg.cases {
        let instance = generator.instance(case);
        check_instance_differential(&instance, &format!("generated case {case}"));
    }
}

/// Replays every committed regression entry — including `ignore`d ones,
/// whose waiver covers their own invariant, not this one — through both
/// engines.
#[test]
fn committed_corpus_is_bit_identical_across_engines() {
    let entries = corpus::load_dir(&corpus::default_dir()).expect("corpus loads");
    assert!(!entries.is_empty(), "committed corpus is missing");
    for named in &entries {
        check_instance_differential(
            &named.entry.instance,
            &format!("corpus entry {}", named.name),
        );
    }
}

/// The full harness (all invariants, shrinking enabled) stays clean
/// with the differential check in the suite — the gate CI runs.
#[test]
fn standard_harness_run_is_clean_with_differential_check() {
    let report = Harness::new(HarnessConfig {
        cases: 60,
        sim_stride: 0, // the sim check is covered by the harness suite
        ..HarnessConfig::default()
    })
    .run();
    assert!(report.is_clean(), "{}", report.render());
}

/// Instances beyond the generator's `N ≤ 40` envelope: skewed diverse
/// workloads at a few hundred items, where the incremental engine's
/// stale pairs actually reach the pick (hot channels, emptied sources,
/// re-scored upper bounds).
#[test]
fn midsize_workloads_are_bit_identical_across_engines() {
    use dbcast_workload::{SizeDistribution, WorkloadBuilder};
    for (n, k, seed) in [(200usize, 12usize, 7u64), (350, 24, 31), (500, 16, 5)] {
        let db = WorkloadBuilder::new(n)
            .skewness(0.8)
            .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
            .seed(seed)
            .build()
            .unwrap();
        let rough = Drp::new().allocate(&db, k).unwrap();
        assert_bit_identical(&db, rough, &format!("workload n={n} k={k} seed={seed}"));
    }
}

/// The shapes the `serve_drift` benchmark repairs: N=2000, K=16 over
/// the Zipf θ=0.8, Φ=2 catalogue (seed 42) with its hot set rotated by
/// `p·N/5` for `p = 0..4` (phase 0 is the catalogue itself, as in the
/// benchmark), plus K ∈ {2, 40} on the unrotated catalogue — hundreds
/// of moves per descent from the DRP start.
#[test]
fn serve_drift_scale_is_bit_identical_across_engines() {
    use dbcast_serve::shifted_workload;
    use dbcast_workload::{SizeDistribution, WorkloadBuilder};
    const N: usize = 2_000;
    let db = WorkloadBuilder::new(N)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .unwrap();
    let mut cases = vec![(db.clone(), 0, 2), (db.clone(), 0, 40), (db.clone(), 0, 16)];
    for p in 1..5 {
        let rotation = p * N / 5;
        cases.push((shifted_workload(&db, 0.8, rotation).unwrap(), rotation, 16));
    }
    for (phase, rotation, k) in cases {
        let rough = Drp::new().allocate(&phase, k).unwrap();
        assert_bit_identical(&phase, rough, &format!("n={N} k={k} rotation={rotation}"));
    }
}
