//! A stationary stream must not re-allocate: the workload the server
//! was built for never changes, so no repair can pay. At N=2000 the
//! estimate's sampling noise alone moves the L1 distance to the serving
//! profile past any useful threshold; the Eq. 3 gap rule has to see
//! through that noise and leave the program alone.

use dbcast_serve::{poisson_trace, ServeConfig, ServeRuntime};
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
