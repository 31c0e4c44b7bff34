//! The two contract gaps discovered by the first conformance sweep,
//! pinned as explicit unit tests.
//!
//! The PR-2 fuzzing campaign found that two "obvious" invariants do NOT
//! hold, and the registry contracts were weakened accordingly
//! (`crates/conformance/src/registry.rs`). A corpus entry replays each
//! minimized witness on every run, but a corpus entry only asserts that
//! the *corrected* contract is violation-free — it cannot assert that
//! the gap is still *there*. These tests pin the gaps themselves: if an
//! algorithm change ever makes DRP-CDS permutation-invariant or VF^K
//! K-monotone, the corresponding test fails and the contract in the
//! registry (plus the corpus note) should be re-strengthened in the
//! same commit.

use dbcast_alloc::{Cds, DrpCds, ReferenceCds};
use dbcast_baselines::Vfk;
use dbcast_model::{Allocation, ChannelAllocator, Database, ItemSpec};

/// The minimized DRP-CDS witness from
/// `corpus/drp-cds-permutation.json`: 20 equal-size items, K = 5.
fn permutation_witness() -> Vec<ItemSpec> {
    [
        1.0,
        0.4,
        0.1,
        0.08,
        0.06,
        0.05,
        0.05,
        0.04,
        0.03,
        0.03,
        0.03,
        0.02,
        0.013762995784803767,
        0.01,
        0.01,
        0.01,
        0.01,
        0.01,
        0.01,
        0.009000000000000001,
    ]
    .iter()
    .map(|&f| ItemSpec::new(f, 1.0))
    .collect()
}

/// DRP-CDS is *not* permutation-invariant: CDS breaks ties between
/// equal-reduction moves by item id, so relabeling items can steer the
/// steepest descent into a different local optimum of Eq. 3.
///
/// On the pinned witness, swapping the two adjacent items with
/// frequencies 0.06 and 0.05 (ids 4 and 5) moves the refined cost from
/// ≈ 2.2511 to ≈ 2.2328 — the *relabeled* input converges to the better
/// optimum. Neither order dominates in general; the point is that the
/// outputs differ at all, which is why the registry contract for
/// DRP-CDS deliberately omits `permutation-invariance`.
#[test]
fn drp_cds_is_sensitive_to_item_relabeling() {
    let specs = permutation_witness();
    let mut relabeled = specs.clone();
    relabeled.swap(4, 5);

    let original = Database::try_from_specs(specs).unwrap();
    let relabeled = Database::try_from_specs(relabeled).unwrap();

    let cost_original = DrpCds::new().allocate(&original, 5).unwrap().total_cost();
    let cost_relabeled = DrpCds::new().allocate(&relabeled, 5).unwrap().total_cost();

    // Items 4 and 5 have equal sizes, and after the swap the database
    // holds the same multiset of (frequency, size) pairs, so a
    // permutation-invariant allocator would report identical costs.
    assert!(
        (cost_original - cost_relabeled).abs() > 1e-6,
        "DRP-CDS became permutation-invariant (cost {cost_original} both ways); \
         re-strengthen its contract in conformance/src/registry.rs and update \
         corpus/drp-cds-permutation.json"
    );

    // Pin the witness magnitudes so silent algorithm drift shows up too.
    assert!((cost_original - 2.251_063_603_896).abs() < 1e-9, "got {cost_original}");
    assert!((cost_relabeled - 2.232_841_436_845).abs() < 1e-9, "got {cost_relabeled}");
}

/// VF^K is *not* K-monotone: one more channel can make its Eq. 3 cost
/// worse. VF^K partitions the frequency-sorted order while ignoring
/// sizes, so the re-partition at K+1 can co-locate a large item with
/// hot small ones that K kept apart. The paper's own Figure 5 shows the
/// same non-monotone behavior for VF^K under size diversity.
///
/// The pinned witness from `corpus/vfk-k-monotonicity.json`: 9 items,
/// one of size 90 among size-1 items; the cost at K = 5 (≈ 16.24) is
/// ~45% *worse* than at K = 4 (≈ 11.24).
#[test]
fn vfk_cost_increases_with_an_extra_channel() {
    let specs = vec![
        ItemSpec::new(1.0, 1.0),
        ItemSpec::new(0.4, 1.0),
        ItemSpec::new(0.2, 1.0),
        ItemSpec::new(0.135_063_339_372_222_4, 90.0),
        ItemSpec::new(0.08, 1.0),
        ItemSpec::new(0.06, 1.0),
        ItemSpec::new(0.05, 1.0),
        ItemSpec::new(0.04, 1.0),
        ItemSpec::new(0.04, 1.0),
    ];
    let db = Database::try_from_specs(specs).unwrap();

    let cost_k4 = Vfk::new().allocate(&db, 4).unwrap().total_cost();
    let cost_k5 = Vfk::new().allocate(&db, 5).unwrap().total_cost();

    assert!(
        cost_k5 > cost_k4,
        "VF^K became K-monotone on the pinned witness (K=4: {cost_k4}, K=5: \
         {cost_k5}); re-strengthen its contract in conformance/src/registry.rs and \
         update corpus/vfk-k-monotonicity.json"
    );

    assert!((cost_k4 - 11.236_933_736_929).abs() < 1e-9, "got {cost_k4}");
    assert!((cost_k5 - 16.239_269_475_181).abs() < 1e-9, "got {cost_k5}");
}

/// The item-id tie-break is not an artifact of small instances — it is
/// load-bearing at production scale, and the incremental engine must
/// preserve it exactly.
///
/// The witness: 512 items in 64 blocks of 8 *identical* items
/// (identical frequency and size), every block starting co-located on
/// one channel. Moving any item of a block to a given destination
/// produces a bit-identical Eq. 4 reduction, so the steepest-descent
/// scan faces genuine ties at (almost) every step and resolves them by
/// lowest item id, then lowest destination channel. If the incremental
/// engine's pair table ever surfaced a *stale sibling*
/// (higher id, equal reduction) the step sequences would diverge here
/// long before any cost difference appeared.
#[test]
fn incremental_engine_preserves_item_id_tie_break_at_scale() {
    const BLOCKS: usize = 64;
    const BLOCK_SIZE: usize = 8;
    const K: usize = 8;

    // Zipf-ish block frequencies with mildly diverse sizes; items
    // within a block are exact clones.
    let specs: Vec<ItemSpec> = (0..BLOCKS)
        .flat_map(|b| {
            let f = 1.0 / (b + 1) as f64;
            let z = 1.0 + (b % 4) as f64 * 0.5;
            std::iter::repeat_n(ItemSpec::new(f, z), BLOCK_SIZE)
        })
        .collect();
    let db = Database::try_from_specs(specs).unwrap();

    // Block b starts whole on channel b % K, keeping the clones
    // co-located so their candidate moves tie bit-for-bit.
    let assignment: Vec<usize> =
        (0..BLOCKS).flat_map(|b| std::iter::repeat_n(b % K, BLOCK_SIZE)).collect();
    let start = Allocation::from_assignment(&db, K, assignment.clone()).unwrap();

    let oracle = ReferenceCds::new().refine(&db, start.clone()).unwrap();
    let fast = Cds::new().refine(&db, start).unwrap();

    // Bit-for-bit step identity between the exhaustive oracle and the
    // incremental engine, across the whole descent.
    assert_eq!(oracle.steps.len(), fast.steps.len(), "step counts diverged");
    for (i, (a, b)) in oracle.steps.iter().zip(&fast.steps).enumerate() {
        assert_eq!(a.mv, b.mv, "step {i} move");
        assert_eq!(a.reduction.to_bits(), b.reduction.to_bits(), "step {i} reduction");
        assert_eq!(a.cost_after.to_bits(), b.cost_after.to_bits(), "step {i} cost");
    }
    assert_eq!(oracle.allocation.assignment(), fast.allocation.assignment());
    assert_eq!(
        oracle.allocation.total_cost().to_bits(),
        fast.allocation.total_cost().to_bits()
    );

    // The ties are real and resolved by id: replay the descent and
    // check every moved item is the lowest-id clone among its
    // co-located siblings at the moment of its move.
    let mut live = assignment;
    let mut tied_steps = 0usize;
    for (i, step) in oracle.steps.iter().enumerate() {
        let x = step.mv.item.index();
        let from = usize::from(step.mv.from);
        assert_eq!(live[x], from, "step {i} moved an item from the wrong channel");
        let block = x / BLOCK_SIZE;
        let siblings = (block * BLOCK_SIZE..(block + 1) * BLOCK_SIZE)
            .filter(|&y| live[y] == from)
            .collect::<Vec<_>>();
        if siblings.len() > 1 {
            tied_steps += 1;
        }
        assert_eq!(
            siblings.first().copied(),
            Some(x),
            "step {i}: item {x} moved while a lower-id identical sibling \
             {siblings:?} shared its channel — the id tie-break broke"
        );
        live[x] = usize::from(step.mv.to);
    }
    assert!(
        tied_steps > 10,
        "only {tied_steps} tied steps — the witness lost its ties; rebuild it"
    );
    assert!(oracle.converged, "the witness descent should converge");
}
