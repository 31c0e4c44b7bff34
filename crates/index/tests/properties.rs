//! Property-based tests of air indexing invariants.

use dbcast_index::{
    optimal_segments, IndexParams, IndexedChannel, IndexedProgram, LayoutEntry,
    EXPECTATION_SAMPLES,
};
use dbcast_model::{Allocation, BroadcastProgram, Database, ItemSpec};
use proptest::prelude::*;

fn params(index_size: f64, header_size: f64) -> IndexParams {
    IndexParams { index_size, header_size }
}

fn single_channel() -> impl Strategy<Value = (Database, BroadcastProgram)> {
    prop::collection::vec((0.01f64..10.0, 0.1f64..50.0), 1..25).prop_map(|pairs| {
        let db =
            Database::try_from_specs(pairs.into_iter().map(|(f, z)| ItemSpec::new(f, z)))
                .unwrap();
        let n = db.len();
        let alloc = Allocation::from_assignment(&db, 1, vec![0; n]).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        (db, program)
    })
}

/// A random partition of a random catalogue over up to six channels,
/// some of which may stay empty.
fn partition() -> impl Strategy<Value = (Database, BroadcastProgram)> {
    (1usize..7)
        .prop_flat_map(|k| {
            let item = (0.01f64..10.0, 0.1f64..50.0, 0..k);
            (Just(k), prop::collection::vec(item, 1..30))
        })
        .prop_map(|(k, items)| {
            let specs = items.iter().map(|&(f, z, _)| ItemSpec::new(f, z));
            let db = Database::try_from_specs(specs).unwrap();
            let assignment = items.iter().map(|&(_, _, c)| c).collect();
            let alloc = Allocation::from_assignment(&db, k, assignment).unwrap();
            let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
            (db, program)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_carries_every_item_and_m_indexes(
        (db, program) in single_channel(),
        m in 1usize..10,
        index_size in 0.1f64..5.0,
    ) {
        let ch = IndexedChannel::new(&program.channels()[0], m, params(index_size, 0.05)).unwrap();
        let effective_m = m.min(db.len());
        prop_assert_eq!(ch.segments(), effective_m);
        let mut item_count = 0usize;
        let mut index_count = 0usize;
        let mut last_end = 0.0f64;
        for (entry, offset, size) in ch.layout() {
            prop_assert!((offset - last_end).abs() < 1e-9, "layout must be gapless");
            last_end = offset + size;
            match entry {
                LayoutEntry::Index { .. } => index_count += 1,
                LayoutEntry::Item { .. } => item_count += 1,
            }
        }
        prop_assert_eq!(item_count, db.len());
        prop_assert_eq!(index_count, effective_m);
        // Cycle = data + m * index.
        let data: f64 = db.iter().map(|d| d.size()).sum();
        let expected = data + effective_m as f64 * index_size;
        prop_assert!((ch.cycle_size() - expected).abs() < 1e-9);
        prop_assert!((last_end - ch.cycle_size()).abs() < 1e-9);
    }

    #[test]
    fn tuning_never_exceeds_access(
        (db, program) in single_channel(),
        m in 1usize..8,
        t in 0.0f64..100.0,
    ) {
        let ch = IndexedChannel::new(&program.channels()[0], m, params(0.5, 0.05)).unwrap();
        for d in db.iter().take(5) {
            let (access, tuning) = ch.request_metrics(d.id(), t, 10.0).unwrap();
            prop_assert!(tuning <= access + 1e-9, "tuning {tuning} > access {access}");
            // The constant tuning bound dominates the exact value.
            let bound = ch.tuning_time(d.id(), 10.0).unwrap();
            prop_assert!(tuning <= bound + 1e-9);
            // Access is bounded by two indexed cycles.
            prop_assert!(access <= 2.0 * ch.cycle_size() / 10.0 + 1e-9);
        }
    }

    #[test]
    fn next_index_is_within_a_fraction_of_the_cycle(
        (_db, program) in single_channel(),
        m in 1usize..8,
        t in 0.0f64..50.0,
    ) {
        let ch = IndexedChannel::new(&program.channels()[0], m, params(0.5, 0.0)).unwrap();
        let cycle_time = ch.cycle_size() / 10.0;
        let next = ch.next_index_start(t, 10.0);
        prop_assert!(next >= t - 1e-9);
        // With m copies, an index arrives within one cycle (and on
        // average within cycle/m; the hard bound is one cycle).
        prop_assert!(next - t <= cycle_time + 1e-9);
    }

    #[test]
    fn optimal_segments_is_the_argmin_over_neighbors(
        z_total in 1.0f64..1e4,
        index_size in 0.05f64..10.0,
    ) {
        // m* = round(sqrt(Z/I)) minimizes f(m) = Z/(2m) + m*I/2 over
        // the integers (the standard overhead tradeoff).
        let f = |m: usize| z_total / (2.0 * m as f64) + m as f64 * index_size / 2.0;
        let m = optimal_segments(z_total, index_size, usize::MAX);
        prop_assert!(f(m) <= f(m + 1) + 1e-9);
        if m > 1 {
            prop_assert!(f(m) <= f(m - 1) + 1e-9);
        }
    }

    #[test]
    fn program_lookups_are_the_located_channels_answers(
        (db, program) in partition(),
        index_size in 0.1f64..5.0,
        instants in prop::collection::vec(0.0f64..200.0, 4),
    ) {
        let indexed =
            IndexedProgram::with_optimal_segments(&program, params(index_size, 0.05)).unwrap();
        let bandwidth = program.bandwidth();
        for (schedule, channel) in program.channels().iter().zip(indexed.channels()) {
            prop_assert_eq!(schedule.is_empty(), channel.is_none());
        }
        let (mut access, mut tuning) = (0.0, 0.0);
        for d in db.iter() {
            let item = d.id();
            let (schedule, _) = program.locate(item).unwrap();
            let channel = indexed.channels()[schedule.channel().index()].as_ref().unwrap();
            for &now in &instants {
                let got = indexed.request_metrics(item, now).unwrap();
                let want = channel.request_metrics(item, now, bandwidth).unwrap();
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
            let got = indexed.tuning_time(item).unwrap();
            let want = channel.tuning_time(item, bandwidth).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits());
            let want =
                channel.expected_metrics(item, bandwidth, EXPECTATION_SAMPLES).unwrap();
            let got = indexed.expected_item_metrics(item).unwrap();
            prop_assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
            access += d.frequency() * want.0;
            tuning += d.frequency() * want.1;
        }
        let metrics = indexed.expected_metrics(&db).unwrap();
        prop_assert_eq!(metrics.access.to_bits(), access.to_bits());
        prop_assert_eq!(metrics.tuning.to_bits(), tuning.to_bits());
    }
}
