//! Property-based tests over the core data structures and algorithms.

use dbcast::alloc::{best_split, Cds, Drp, DrpCds};
use dbcast::baselines::{AlgoSpec, Flat, Greedy};
use dbcast::model::{
    allocation_cost, Allocation, ChannelAllocator, ChannelId, Database, ItemId, ItemSpec,
    Move,
};
use proptest::prelude::*;

/// Strategy: a database of 1..=40 items with positive finite features.
fn db_strategy() -> impl Strategy<Value = Database> {
    prop::collection::vec((0.01f64..10.0, 0.1f64..1000.0), 1..40).prop_map(|pairs| {
        Database::try_from_specs(pairs.into_iter().map(|(f, z)| ItemSpec::new(f, z)))
            .expect("strategy produces valid specs")
    })
}

/// Strategy: database plus a feasible channel count `1..=N`.
fn db_and_channels() -> impl Strategy<Value = (Database, usize)> {
    db_strategy().prop_flat_map(|db| {
        let n = db.len();
        (Just(db), 1..=n)
    })
}

proptest! {
    #[test]
    fn frequencies_always_normalized(db in db_strategy()) {
        let sum: f64 = db.iter().map(|d| d.frequency()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_allocator_produces_a_valid_partition((db, k) in db_and_channels()) {
        // Every registered allocator but GOPT, whose GA budget is too
        // slow to run per case.
        let specs = AlgoSpec::registry().into_iter().filter(|s| !matches!(s, AlgoSpec::Gopt(_)));
        for spec in specs {
            let alloc = spec.build(0).allocate(&db, k).unwrap();
            prop_assert_eq!(alloc.channels(), k);
            prop_assert_eq!(alloc.items(), db.len());
            alloc.validate(&db).unwrap();
        }
    }

    #[test]
    fn incremental_cost_matches_reference((db, k) in db_and_channels()) {
        let alloc = Drp::new().allocate(&db, k).unwrap();
        let reference = allocation_cost(&db, k, alloc.assignment()).unwrap();
        prop_assert!((alloc.total_cost() - reference).abs() < 1e-9);
    }

    #[test]
    fn eq4_delta_matches_recomputed_cost(
        (db, k) in db_and_channels(),
        item_sel in 0usize..1000,
        to_sel in 0usize..1000,
    ) {
        prop_assume!(k >= 2);
        let mut alloc = Flat::new().allocate(&db, k).unwrap();
        let item = ItemId::new(item_sel % db.len());
        let from = alloc.channel_of(item).unwrap();
        let to = ChannelId::new(to_sel % k);
        prop_assume!(from != to);
        let mv = Move { item, from, to };
        let predicted = alloc.move_reduction(mv).unwrap();
        let before = alloc.total_cost();
        alloc.apply_move(mv).unwrap();
        let realized = before - alloc.total_cost();
        prop_assert!((predicted - realized).abs() < 1e-9);
        alloc.validate(&db).unwrap();
    }

    #[test]
    fn cds_never_increases_cost_and_reaches_local_optimum((db, k) in db_and_channels()) {
        let rough = Drp::new().allocate(&db, k).unwrap();
        let before = rough.total_cost();
        let outcome = Cds::new().refine(&db, rough).unwrap();
        prop_assert!(outcome.final_cost() <= before + 1e-9);
        prop_assert!(outcome.converged);
        // Local optimum: every possible single move is non-improving.
        let alloc = &outcome.allocation;
        for item in 0..db.len() {
            let id = ItemId::new(item);
            let from = alloc.channel_of(id).unwrap();
            for ch in 0..k {
                let to = ChannelId::new(ch);
                if to == from { continue; }
                let delta = alloc.move_reduction(Move { item: id, from, to }).unwrap();
                prop_assert!(delta <= 1e-9, "improving move left: {delta}");
            }
        }
    }

    #[test]
    fn best_split_beats_every_other_split(
        pairs in prop::collection::vec((0.01f64..5.0, 0.1f64..100.0), 2..30)
    ) {
        let n = pairs.len();
        let mut pf = vec![0.0]; let mut pz = vec![0.0];
        for &(f, z) in &pairs {
            pf.push(pf.last().unwrap() + f);
            pz.push(pz.last().unwrap() + z);
        }
        let split = best_split(&pf, &pz, 0..n).unwrap();
        for p in 1..n {
            let left = (pf[p] - pf[0]) * (pz[p] - pz[0]);
            let right = (pf[n] - pf[p]) * (pz[n] - pz[p]);
            prop_assert!(split.total_cost() <= left + right + 1e-9);
        }
    }

    #[test]
    fn splitting_never_increases_cost((db, k) in db_and_channels()) {
        // Superadditivity of F·Z: DRP's cost trace is non-increasing,
        // so the K-channel cost is at most the 1-channel cost.
        let one = Drp::new().allocate(&db, 1).unwrap().total_cost();
        let many = Drp::new().allocate(&db, k).unwrap().total_cost();
        prop_assert!(many <= one + 1e-9);
    }

    #[test]
    fn waiting_time_decomposition_is_exact((db, k) in db_and_channels()) {
        let alloc = DrpCds::new().allocate(&db, k).unwrap();
        let w = dbcast::model::average_waiting_time(&db, &alloc, 10.0).unwrap();
        prop_assert!((w.probe - alloc.total_cost() / 20.0).abs() < 1e-9);
        let download: f64 = db.iter().map(|d| d.frequency() * d.size()).sum::<f64>() / 10.0;
        prop_assert!((w.download - download).abs() < 1e-9);
        prop_assert!((w.total() - w.probe - w.download).abs() < 1e-12);
    }

    #[test]
    fn groups_roundtrip_through_allocation((db, k) in db_and_channels()) {
        let alloc = Greedy::new().allocate(&db, k).unwrap();
        let rebuilt = Allocation::from_groups(&db, &alloc.groups()).unwrap();
        prop_assert_eq!(alloc.assignment(), rebuilt.assignment());
    }

    #[test]
    fn program_response_times_respect_eq1_bounds((db, k) in db_and_channels()) {
        // For any request time, response <= cycle + size/b and >= size/b.
        let alloc = Drp::new().allocate(&db, k).unwrap();
        let program = dbcast::model::BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        for item in db.iter().take(5) {
            let (schedule, slot) = program.locate(item.id()).unwrap();
            for t in [0.0, 0.37, 1.91, 12.3] {
                let r = program.response_time(item.id(), t).unwrap();
                let download = slot.size / 10.0;
                let cycle = schedule.cycle_size() / 10.0;
                prop_assert!(r >= download - 1e-9);
                prop_assert!(r <= cycle + download + 1e-9);
            }
        }
    }
}
