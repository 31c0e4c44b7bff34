//! A stationary stream must not re-allocate: the workload the server
//! was built for never changes, so no repair can pay. At N=2000 the
//! estimate's sampling noise alone moves the L1 distance to the serving
//! profile past any useful threshold; the Eq. 3 gap rule has to see
//! through that noise and leave the program alone.

use dbcast_model::Allocation;
use dbcast_serve::{poisson_trace, DriftDetector, ServeConfig, ServeRuntime, SloConfig};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[test]
fn a_stationary_stream_at_n2000_does_not_thrash() {
    // The paper's catalogue family at the serving runtime's sizing.
    let db = WorkloadBuilder::new(2_000)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .unwrap();
    let config = ServeConfig { channels: 16, ..ServeConfig::default() };
    for seed in 1..=3 {
        let trace = poisson_trace(&db, 50.0, 100_000, seed).unwrap();
        let report = ServeRuntime::new(&db, config).unwrap().run(&trace).unwrap();
        assert_eq!(report.requests, trace.len() as u64);
        assert!(
            report.swaps <= 1,
            "seed {seed}: {} swaps in {} ticks on a stationary stream",
            report.swaps,
            report.ticks
        );
    }
}

#[test]
fn a_skewed_stationary_stream_keeps_its_program() {
    // At θ=1.6 most of the 2,000 items see no request inside the
    // estimator's window. A repair fitted to those zeros piles the tail
    // onto one channel, and any later estimate "improves" on it again.
    let channels = 16;
    for seed in 1..=3 {
        let db = WorkloadBuilder::new(2_000)
            .skewness(1.6)
            .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
            .seed(seed)
            .build()
            .unwrap();
        let trace = poisson_trace(&db, 50.0, 100_000, seed).unwrap();
        let config = ServeConfig { channels, ..ServeConfig::default() };
        let runtime = ServeRuntime::new(&db, config).unwrap();
        let generation0 = runtime.cell().current().value.assignment.clone();
        let report = runtime.run(&trace).unwrap();
        let frozen = ServeConfig {
            detector: DriftDetector { min_observations: u64::MAX, ..config.detector },
            ..config
        };
        let drift_off = ServeRuntime::new(&db, frozen).unwrap().run(&trace).unwrap();
        assert_eq!(report.requests, trace.len() as u64);
        assert!(
            report.swaps <= 1,
            "seed {seed}: {} swaps on a stationary stream",
            report.swaps
        );
        let (mean, reference) = (report.waiting.mean(), drift_off.waiting.mean());
        assert!(
            (mean - reference).abs() <= 0.02 * reference,
            "seed {seed}: mean wait {mean:.4} s, {reference:.4} s with drift off"
        );
        // The oracle: under the true catalogue, what the run ends on
        // costs no more than what it started with.
        let cost = |assignment: &[usize]| {
            Allocation::from_assignment(&db, channels, assignment.to_vec())
                .unwrap()
                .total_cost()
        };
        let (last, first) = (cost(&report.final_assignment), cost(&generation0));
        assert!(
            last <= first,
            "seed {seed}: Eq. 3 cost {last:.4} > generation 0's {first:.4}"
        );
    }
}

#[test]
fn a_stationary_stream_flags_no_slow_request() {
    // A wait charged on the arrival generation is at most one cycle
    // plus the item's download, under twice the request's own Eq. 2
    // prediction: a healthy run has nothing for the tail stage to
    // catch, and its error budget never burns.
    let db = WorkloadBuilder::new(120)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(42)
        .build()
        .unwrap();
    let config = ServeConfig {
        channels: 6,
        slo: Some(SloConfig::default()),
        ..ServeConfig::default()
    };
    let trace = poisson_trace(&db, 50.0, 20_000, 1).unwrap();
    let report = ServeRuntime::new(&db, config).unwrap().run(&trace).unwrap();
    assert_eq!(report.requests, trace.len() as u64);
    assert_eq!(report.audit.tail, 0, "slow requests flagged on a healthy run");
    for generation in &report.generations {
        let slo = generation.slo.as_ref().expect("SLO tracking is on");
        assert_eq!((slo.slow, slo.burn_rate), (0, 0.0), "generation {generation:?}");
    }
}
