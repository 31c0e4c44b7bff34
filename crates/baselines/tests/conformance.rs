//! This crate's baselines (FLAT, VF^K, GREEDY, contiguous DP, GOPT,
//! and the exact solver used as oracle) under the shared harness.

use dbcast_baselines::{AlgoSpec, ExactBnB};
use dbcast_conformance::{subjects_where, Harness, HarnessConfig};
use dbcast_model::ChannelAllocator;

#[test]
fn baselines_conform() {
    let report = Harness::with_subjects(
        HarnessConfig { seed: 0xBA5E, cases: 120, sim_stride: 0, ..Default::default() },
        subjects_where(0xBA5E, |spec| !matches!(spec, AlgoSpec::Drp | AlgoSpec::DrpCds)),
    )
    .run();
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn exact_oracle_routing_respects_its_ceiling() {
    // The conformance harness relies on the typed TooLarge rejection to
    // route large instances to invariant-only checking; pin that here.
    let db = dbcast_workload::WorkloadBuilder::new(ExactBnB::DEFAULT_MAX_ITEMS + 1)
        .seed(7)
        .build()
        .unwrap();
    match ExactBnB::new().allocate(&db, 3) {
        Err(dbcast_model::AllocError::TooLarge { items, limit }) => {
            assert_eq!(items, ExactBnB::DEFAULT_MAX_ITEMS + 1);
            assert_eq!(limit, ExactBnB::DEFAULT_MAX_ITEMS);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}
