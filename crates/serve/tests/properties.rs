//! Property-based tests of the serving runtime's estimation layer and
//! of the full closed loop's seed-replay determinism.

use dbcast_model::ItemId;
use dbcast_serve::{
    poisson_trace, shifted_trace, shifted_workload, DriftDetector, EstimatorConfig,
    FrequencyEstimator, RepairMode, ServeConfig, ServeRuntime, WorkerMode,
};
use dbcast_workload::WorkloadBuilder;
use proptest::prelude::*;

/// The estimator's documented Dirichlet prior, in pseudo-requests per
/// item.
const PRIOR: f64 = 0.2;
const ITEMS: usize = 16;

/// A request stream over a small catalogue: each request's item, and
/// the virtual seconds the estimator ages after it (0 = no tick).
fn stream_strategy() -> impl Strategy<Value = Vec<(usize, f64)>> {
    let request = (0usize..ITEMS, 0u8..3, 0.0f64..2.0)
        .prop_map(|(item, tick, dt)| (item, if tick == 0 { dt } else { 0.0 }));
    prop::collection::vec(request, 0..400)
}

fn feed(decay: f64, stream: &[(usize, f64)]) -> FrequencyEstimator {
    let mut est = FrequencyEstimator::new(ITEMS, EstimatorConfig { decay });
    for &(item, dt) in stream {
        est.observe(ItemId::new(item));
        if dt > 0.0 {
            est.tick(dt);
        }
    }
    est
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The counts are exact: each equals the sum over the item's
    /// requests of `decay` raised to the virtual time since that
    /// request, and the mass is their sum.
    #[test]
    fn counts_match_a_naive_recomputation(
        stream in stream_strategy(),
        decay in 0.8f64..=1.0,
    ) {
        let est = feed(decay, &stream);
        let mut arrivals = Vec::with_capacity(stream.len());
        let mut now = 0.0;
        for &(item, dt) in &stream {
            arrivals.push((item, now));
            now += dt;
        }
        let mut naive = [0.0f64; ITEMS];
        for &(item, at) in &arrivals {
            naive[item] += decay.powf(now - at);
        }
        for (j, (&c, &n)) in est.counts().iter().zip(&naive).enumerate() {
            prop_assert!(close(c, n), "item {}: count {} vs naive {}", j, c, n);
        }
        prop_assert!(close(est.mass(), naive.iter().sum()), "mass {}", est.mass());
    }

    /// Ageing composes: ticking `a` then `b` seconds equals one tick of
    /// `a + b`.
    #[test]
    fn ticks_compose(
        stream in stream_strategy(),
        decay in 0.8f64..=1.0,
        a in 0.0f64..5.0,
        b in 0.0f64..5.0,
    ) {
        let mut once = feed(decay, &stream);
        let mut twice = once.clone();
        once.tick(a + b);
        twice.tick(a);
        twice.tick(b);
        for (&x, &y) in once.counts().iter().zip(twice.counts()) {
            prop_assert!(close(x, y), "{} vs {}", x, y);
        }
        prop_assert!(close(once.mass(), twice.mass()));
    }

    /// The frequency vector is the posterior mean, so always a valid
    /// profile: it sums to 1, and no entry falls below an unseen item's
    /// prior share `α / (m + N·α)`.
    #[test]
    fn estimator_vector_is_always_a_distribution(
        stream in stream_strategy(),
        decay in 0.8f64..=1.0,
    ) {
        let est = feed(decay, &stream);
        let v = est.frequency_vector();
        prop_assert_eq!(v.len(), ITEMS);
        let floor = PRIOR / (est.mass() + ITEMS as f64 * PRIOR);
        prop_assert!(v.iter().all(|&f| f >= floor), "{:?} below {}", v, floor);
        prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

proptest! {
    // The full serve loop is heavier than an estimator update; fewer cases
    // keep the suite fast while still sweeping seeds and shapes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seed-replay determinism of the FULL closed loop: workload
    /// generation, trace synthesis, estimation, drift detection,
    /// re-allocation and swap all key off explicit seeds, so two runs
    /// of the deterministic worker mode agree on every field of the
    /// report — including per-generation waiting-time statistics.
    #[test]
    fn deterministic_serve_loop_replays_bit_exactly(
        seed in 0u64..u64::MAX,
        items in 10usize..40,
        budgeted in 0u8..2,
    ) {
        let db = WorkloadBuilder::new(items).skewness(0.9).seed(seed).build().unwrap();
        let post = shifted_workload(&db, 1.3, items / 2).unwrap();
        let trace = shifted_trace(&db, &post, 600, 600, 40.0, seed).unwrap();
        let config = ServeConfig {
            channels: 4,
            bandwidth: 10.0,
            estimator: EstimatorConfig { decay: 0.9 },
            detector: DriftDetector { threshold: 0.2, min_observations: 100 },
            repair: if budgeted == 1 {
                RepairMode::Budgeted { budget: 8 }
            } else {
                RepairMode::Full
            },
            worker: WorkerMode::Deterministic,
            max_ticks: None,
            slo: None,
            pace_ms: 0,
            inject_panic_at_tick: None,
            audit: Default::default(),
            inject_slow_channel: None,
            inject_slow_factor: 1.0,
        };
        let run = |_| {
            let runtime = ServeRuntime::new(&db, config).unwrap();
            runtime.run(&trace).unwrap()
        };
        let (first, second) = (run(()), run(()));
        // Wall-clock repair timings legitimately differ between runs;
        // everything else must match bit-for-bit.
        prop_assert_eq!(scrub(first), scrub(second));
    }
}

/// Zeroes the only nondeterministic field (wall-clock repair time).
fn scrub(mut report: dbcast_serve::ServeReport) -> dbcast_serve::ServeReport {
    for g in &mut report.generations {
        if let Some(r) = &mut g.repair {
            r.wall_ns = 0;
        }
    }
    report
}

/// The serialized report round-trips, so archived serve runs can be
/// diffed against replays.
#[test]
fn serve_report_roundtrips_through_json() {
    let db = WorkloadBuilder::new(20).skewness(0.8).seed(3).build().unwrap();
    let trace = poisson_trace(&db, 30.0, 1_000, 3).unwrap();
    let runtime = ServeRuntime::new(&db, ServeConfig::default()).unwrap();
    let report = runtime.run(&trace).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: dbcast_serve::ServeReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}
