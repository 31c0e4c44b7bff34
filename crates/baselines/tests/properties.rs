//! Property-based tests of the baseline allocators; the properties every
//! allocator shares run over the registry.

use dbcast_baselines::{AlgoSpec, ContiguousDp, ExactBnB, Vfk};
use dbcast_model::{ChannelAllocator, Database, ItemSpec};
use proptest::prelude::*;

/// Every registered allocator but GOPT, whose GA budget is too slow to
/// run per case.
fn fast_allocators() -> Vec<Box<dyn ChannelAllocator>> {
    AlgoSpec::registry()
        .into_iter()
        .filter(|s| !matches!(s, AlgoSpec::Gopt(_)))
        .map(|s| s.build(0))
        .collect()
}

fn db_and_k() -> impl Strategy<Value = (Database, usize)> {
    prop::collection::vec((0.01f64..10.0, 0.1f64..100.0), 1..30).prop_flat_map(|pairs| {
        let db =
            Database::try_from_specs(pairs.into_iter().map(|(f, z)| ItemSpec::new(f, z)))
                .unwrap();
        let n = db.len();
        (Just(db), 1..=n.min(6))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_baseline_produces_a_valid_partition((db, k) in db_and_k()) {
        for algo in fast_allocators() {
            let alloc = algo.allocate(&db, k).unwrap();
            alloc.validate(&db).unwrap();
            prop_assert_eq!(alloc.channels(), k);
        }
    }

    #[test]
    fn vfk_and_dp_fill_every_channel((db, k) in db_and_k()) {
        for algo in [&Vfk::new() as &dyn ChannelAllocator, &ContiguousDp::new()] {
            let alloc = algo.allocate(&db, k).unwrap();
            prop_assert_eq!(alloc.empty_channels(), 0, "{} left a channel empty", algo.name());
        }
    }

    #[test]
    fn contiguous_dp_is_at_least_as_good_as_any_contiguous_split((db, k) in db_and_k()) {
        // Compare against an arbitrary contiguous split: equal item
        // counts along the benefit-ratio order.
        let dp_cost = ContiguousDp::new().allocate(&db, k).unwrap().total_cost();
        let order = db.ids_by_benefit_ratio_desc();
        let n = db.len();
        let mut assignment = vec![0usize; n];
        for (pos, id) in order.iter().enumerate() {
            assignment[id.index()] = (pos * k / n).min(k - 1);
        }
        let naive = dbcast_model::Allocation::from_assignment(&db, k, assignment)
            .unwrap()
            .total_cost();
        prop_assert!(dp_cost <= naive + 1e-9);
    }

    #[test]
    fn exact_lower_bounds_everything_small(
        pairs in prop::collection::vec((0.01f64..10.0, 0.1f64..100.0), 2..9),
        k in 1usize..4,
    ) {
        let db = Database::try_from_specs(
            pairs.into_iter().map(|(f, z)| ItemSpec::new(f, z)),
        )
        .unwrap();
        let k = k.min(db.len());
        let optimum = ExactBnB::new().allocate(&db, k).unwrap().total_cost();
        for algo in fast_allocators() {
            let cost = algo.allocate(&db, k).unwrap().total_cost();
            prop_assert!(
                cost >= optimum - 1e-9,
                "{} beat the optimum: {cost} < {optimum}",
                algo.name()
            );
        }
    }

    #[test]
    fn every_partition_beats_the_single_channel((db, k) in db_and_k()) {
        // Superadditivity of F·Z: any partition's cost is at most the
        // whole-database cost (Σ_i F_i Z_i <= (ΣF)(ΣZ)), so every
        // allocator is bounded by the one-channel program.
        let stats = db.stats();
        let one_channel = stats.total_frequency * stats.total_size;
        for algo in fast_allocators() {
            let cost = algo.allocate(&db, k).unwrap().total_cost();
            prop_assert!(
                cost <= one_channel + 1e-9,
                "{} exceeded the single-channel bound",
                algo.name()
            );
        }
    }
}
