//! Property-based tests of the simulator's conservation laws and the
//! statistics machinery.

use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};
use dbcast_sim::{Simulation, SummaryStats};
use dbcast_workload::TraceBuilder;
use proptest::prelude::*;

fn db_and_program() -> impl Strategy<Value = (Database, BroadcastProgram)> {
    (prop::collection::vec((0.01f64..10.0, 0.1f64..50.0), 1..25), 1usize..4, 1.0f64..50.0)
        .prop_map(|(pairs, k, bandwidth)| {
            let db = Database::try_from_specs(
                pairs.into_iter().map(|(f, z)| ItemSpec::new(f, z)),
            )
            .unwrap();
            let n = db.len();
            let alloc =
                Allocation::from_assignment(&db, k, (0..n).map(|i| i % k).collect())
                    .unwrap();
            let program = BroadcastProgram::new(&db, &alloc, bandwidth).unwrap();
            (db, program)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_conserves_requests_and_time(
        (db, program) in db_and_program(),
        requests in 0usize..300,
        seed in 0u64..100,
    ) {
        let trace = TraceBuilder::new(&db).requests(requests).seed(seed).build().unwrap();
        let report = Simulation::new(&program, &trace).run().unwrap();
        prop_assert_eq!(report.completed(), requests);
        let served: u64 = report.channel_loads().iter().map(|l| l.requests).sum();
        prop_assert_eq!(served, requests as u64);
        for (r, req) in report.records().iter().zip(trace.iter()) {
            // Each record is the program's next slot start for its
            // arrival plus the download, bit for bit.
            let (channel, start, size) = program.best_start(req.item, req.time).unwrap();
            prop_assert_eq!((r.item, r.channel), (req.item, channel));
            prop_assert_eq!(r.arrival.to_bits(), req.time.to_bits());
            prop_assert_eq!(r.slot_start.to_bits(), start.to_bits());
            prop_assert_eq!(
                r.completion.to_bits(),
                (start + size / program.bandwidth()).to_bits()
            );
            prop_assert!(r.slot_start >= r.arrival - 1e-9);
            prop_assert!(r.completion > r.slot_start);
            // Download time equals item size / bandwidth exactly.
            let z = db.items()[r.item.index()].size();
            prop_assert!((r.download_time() - z / program.bandwidth()).abs() < 1e-9);
            // Probe never exceeds one cycle of the serving channel.
            let cycle = program.channels()[r.channel.index()].cycle_size()
                / program.bandwidth();
            prop_assert!(r.probe_time() <= cycle + 1e-9);
        }
    }

    #[test]
    fn summary_stats_match_naive_computation(samples in prop::collection::vec(0.0f64..1e4, 2..200)) {
        let mut s = SummaryStats::new();
        for &x in &samples {
            s.record(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        prop_assert!((s.variance().unwrap() - var).abs() < 1e-6 * var.max(1.0));
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min().unwrap(), min);
        prop_assert_eq!(s.max().unwrap(), max);
        // Percentiles are monotone and bounded.
        let p10 = s.percentile(10.0).unwrap();
        let p50 = s.percentile(50.0).unwrap();
        let p90 = s.percentile(90.0).unwrap();
        prop_assert!(min <= p10 && p10 <= p50 && p50 <= p90 && p90 <= max);
    }
}
