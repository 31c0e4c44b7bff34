//! Property-based tests of the model crate's core invariants.

use dbcast_model::{
    allocation_cost, average_waiting_time, cost_lower_bound, Allocation, BroadcastProgram,
    ChannelId, CostTracker, Database, ItemId, ItemSpec, Move,
};
use proptest::prelude::*;

fn specs_strategy() -> impl Strategy<Value = Vec<ItemSpec>> {
    prop::collection::vec((0.001f64..100.0, 0.01f64..1e4), 1..50)
        .prop_map(|v| v.into_iter().map(|(f, z)| ItemSpec::new(f, z)).collect())
}

fn db_k_assignment() -> impl Strategy<Value = (Database, usize, Vec<usize>)> {
    specs_strategy().prop_flat_map(|specs| {
        let db = Database::try_from_specs(specs).expect("valid specs");
        let n = db.len();
        (1usize..6).prop_flat_map(move |k| {
            let db = db.clone();
            prop::collection::vec(0..k, n)
                .prop_map(move |assignment| (db.clone(), k, assignment))
        })
    })
}

/// The exact Eq. 3 optimum by enumerating all `K^N` assignments (empty
/// channels allowed, so this is the minimum over every grouping).
fn exhaustive_optimum(f: &[f64], z: &[f64], k: usize) -> f64 {
    let n = f.len();
    let mut best = f64::INFINITY;
    let mut assignment = vec![0usize; n];
    loop {
        let (mut fs, mut zs) = (vec![0.0; k], vec![0.0; k]);
        for (j, &ch) in assignment.iter().enumerate() {
            fs[ch] += f[j];
            zs[ch] += z[j];
        }
        best = best.min(fs.iter().zip(&zs).map(|(a, b)| a * b).sum());
        // Odometer increment over base-k digits.
        let mut digit = 0;
        while digit < n && assignment[digit] + 1 == k {
            assignment[digit] = 0;
            digit += 1;
        }
        if digit == n {
            return best;
        }
        assignment[digit] += 1;
    }
}

proptest! {
    #[test]
    fn cost_lower_bound_never_exceeds_the_exhaustive_optimum(
        items in prop::collection::vec((0.001f64..1.0, 0.01f64..100.0), 1..=8),
        k in 1usize..=4,
    ) {
        let (f, z): (Vec<f64>, Vec<f64>) = items.into_iter().unzip();
        let bound = cost_lower_bound(&f, &z, k, &mut Vec::new());
        let optimum = exhaustive_optimum(&f, &z, k);
        prop_assert!(bound > 0.0);
        prop_assert!(bound <= optimum * (1.0 + 1e-12), "bound {bound} > optimum {optimum}");
    }

    #[test]
    fn cost_lower_bound_is_exact_with_a_channel_per_item(
        items in prop::collection::vec((0.001f64..1.0, 0.01f64..100.0), 1..40),
        spare in 0usize..4,
    ) {
        let (f, z): (Vec<f64>, Vec<f64>) = items.into_iter().unzip();
        let mut scratch = Vec::new();
        let bound = cost_lower_bound(&f, &z, f.len() + spare, &mut scratch);
        let alone: f64 = f.iter().zip(&z).map(|(a, b)| a * b).sum();
        prop_assert!((bound - alone).abs() <= 1e-12 * alone, "{bound} vs {alone}");
    }

    #[test]
    fn database_normalizes_any_positive_profile(specs in specs_strategy()) {
        let db = Database::try_from_specs(specs).unwrap();
        let sum: f64 = db.iter().map(|d| d.frequency()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for d in db.iter() {
            prop_assert!(d.frequency() > 0.0 && d.size() > 0.0);
            prop_assert!(d.benefit_ratio().value() > 0.0);
        }
    }

    #[test]
    fn benefit_ratio_order_is_a_permutation_and_sorted(specs in specs_strategy()) {
        let db = Database::try_from_specs(specs).unwrap();
        let order = db.ids_by_benefit_ratio_desc();
        prop_assert_eq!(order.len(), db.len());
        let mut seen = vec![false; db.len()];
        for id in &order {
            prop_assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
        for w in order.windows(2) {
            let a = db.items()[w[0].index()].benefit_ratio();
            let b = db.items()[w[1].index()].benefit_ratio();
            prop_assert!(a >= b);
        }
    }

    #[test]
    fn allocation_aggregates_match_reference((db, k, assignment) in db_k_assignment()) {
        let alloc = Allocation::from_assignment(&db, k, assignment.clone()).unwrap();
        let reference = allocation_cost(&db, k, &assignment).unwrap();
        prop_assert!((alloc.total_cost() - reference).abs() < 1e-6);
        alloc.validate(&db).unwrap();
        // Per-channel item counts sum to N.
        let total: usize = alloc.all_channel_stats().iter().map(|s| s.items).sum();
        prop_assert_eq!(total, db.len());
    }

    #[test]
    fn cost_tracker_survives_arbitrary_move_sequences(
        (db, k, assignment) in db_k_assignment(),
        moves in prop::collection::vec((0usize..50, 0usize..6), 0..60),
    ) {
        let mut alloc = Allocation::from_assignment(&db, k, assignment.clone()).unwrap();
        let mut tracker = CostTracker::from_assignment(&db, k, &assignment).unwrap();
        for (raw_item, raw_to) in moves {
            let item = raw_item % db.len();
            let to = raw_to % k;
            let from = alloc.channel_of(ItemId::new(item)).unwrap();
            let d = &db.items()[item];
            let predicted = tracker.move_reduction(from.index(), to, d.frequency(), d.size());
            let mv = Move { item: ItemId::new(item), from, to: ChannelId::new(to) };
            let realized = alloc.apply_move(mv).unwrap();
            tracker.relocate(from.index(), to, d.frequency(), d.size());
            prop_assert!((predicted - realized).abs() < 1e-6);
            prop_assert!((tracker.total_cost() - alloc.total_cost()).abs() < 1e-6);
        }
    }

    #[test]
    fn waiting_time_scales_inversely_with_bandwidth(
        (db, k, assignment) in db_k_assignment(),
        b in 0.1f64..1e3,
    ) {
        let alloc = Allocation::from_assignment(&db, k, assignment).unwrap();
        let w1 = average_waiting_time(&db, &alloc, b).unwrap().total();
        let w2 = average_waiting_time(&db, &alloc, 2.0 * b).unwrap().total();
        prop_assert!((w1 / w2 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn program_covers_every_item_once((db, k, assignment) in db_k_assignment()) {
        let alloc = Allocation::from_assignment(&db, k, assignment).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        let slot_count: usize = program.channels().iter().map(|c| c.slots().len()).sum();
        prop_assert_eq!(slot_count, db.len());
        for d in db.iter() {
            prop_assert_eq!(program.locate_all(d.id()).len(), 1);
            let response = program.response_time(d.id(), 0.123).unwrap();
            prop_assert!(response >= d.size() / 10.0 - 1e-9);
        }
    }

    #[test]
    fn serde_roundtrips_preserve_everything((db, k, assignment) in db_k_assignment()) {
        let alloc = Allocation::from_assignment(&db, k, assignment).unwrap();
        let db2: Database =
            serde_json::from_str(&serde_json::to_string(&db).unwrap()).unwrap();
        let alloc2: Allocation =
            serde_json::from_str(&serde_json::to_string(&alloc).unwrap()).unwrap();
        prop_assert_eq!(db, db2);
        prop_assert_eq!(alloc, alloc2);
    }
}
