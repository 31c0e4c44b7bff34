//! Integration test: replay the paper's complete worked example
//! (Tables 2–4) through the public API, end to end.

use dbcast::alloc::{Cds, Drp, DrpCds};
use dbcast::model::ChannelAllocator;
use dbcast::workload::paper;

#[test]
fn table2_profile_loads_with_published_values() {
    let db = paper::table2_profile();
    assert_eq!(db.len(), 15);
    let stats = db.stats();
    assert!((stats.total_frequency - 1.0).abs() < 1e-6);
    assert!((stats.total_size - 135.60).abs() < 0.01);
    // Spot-check two published entries.
    assert_eq!(db.items()[0].frequency(), 0.2374); // d1
    assert_eq!(db.items()[10].size(), 30.62); // d11
}

#[test]
fn table3_full_drp_trace() {
    let db = paper::table2_profile();
    let outcome = Drp::new().allocate_traced(&db, 5).unwrap();

    // Table 3(a): the single initial group, cost 135.60.
    let it0 = &outcome.iterations()[0];
    assert_eq!(it0.groups.len(), 1);
    assert!((it0.groups[0].cost - 135.60).abs() < 0.01);
    let order: Vec<usize> = it0.groups[0].members.iter().map(|m| m.index() + 1).collect();
    assert_eq!(order, vec![9, 2, 3, 6, 5, 15, 1, 12, 10, 13, 4, 8, 14, 7, 11]);

    // Table 3(b): first split -> 29.04 / 28.62.
    let it1 = &outcome.iterations()[1];
    let costs: Vec<f64> = it1.groups.iter().map(|g| g.cost).collect();
    assert!((costs[0] - 29.04).abs() < 0.01);
    assert!((costs[1] - 28.62).abs() < 0.01);

    // Table 3(c): second split -> 7.02 / 6.82 / 28.62.
    let it2 = &outcome.iterations()[2];
    let costs: Vec<f64> = it2.groups.iter().map(|g| g.cost).collect();
    assert!((costs[0] - 7.02).abs() < 0.01);
    assert!((costs[1] - 6.82).abs() < 0.01);
    assert!((costs[2] - 28.62).abs() < 0.01);

    // Table 3(d): final grouping, published member lists and costs.
    let it4 = &outcome.iterations()[4];
    let expected: [(&[usize], f64); 5] = [
        (&[9, 2, 3], 2.59),
        (&[6, 5, 15], 1.07),
        (&[1, 12], 6.82),
        (&[10, 13, 4, 8], 7.26),
        (&[14, 7, 11], 6.35),
    ];
    assert_eq!(it4.groups.len(), 5);
    for (group, (members, cost)) in it4.groups.iter().zip(expected) {
        let labels: Vec<usize> = group.members.iter().map(|m| m.index() + 1).collect();
        assert_eq!(labels, members.to_vec());
        assert!((group.cost - cost).abs() < 0.01, "{} vs {cost}", group.cost);
    }
}

#[test]
fn table4_full_cds_trace() {
    let db = paper::table2_profile();
    let rough = Drp::new().allocate(&db, 5).unwrap();
    let outcome = Cds::new().refine(&db, rough).unwrap();

    // Initial cost: paper prints 24.09 (sum of rounded group costs);
    // the exact value is ~24.082.
    assert!((outcome.initial_cost - 24.08).abs() < 0.01);

    // Table 4(b): move d10 from group 4 to group 2, Δc = 0.95.
    let s0 = &outcome.steps[0];
    assert_eq!(s0.mv.item.index() + 1, 10);
    assert_eq!(s0.mv.from.index() + 1, 4);
    assert_eq!(s0.mv.to.index() + 1, 2);
    assert!((s0.reduction - 0.95).abs() < 0.01);

    // Table 4(c): move d12 from group 3 to group 2, Δc = 0.45.
    let s1 = &outcome.steps[1];
    assert_eq!(s1.mv.item.index() + 1, 12);
    assert_eq!(s1.mv.from.index() + 1, 3);
    assert_eq!(s1.mv.to.index() + 1, 2);
    assert!((s1.reduction - 0.45).abs() < 0.01);

    // Table 4(d): local optimum at cost 22.29.
    assert!(outcome.converged);
    assert!((outcome.final_cost() - 22.29).abs() < 0.01);
}

#[test]
fn table4_final_grouping_matches_paper() {
    // Table 4(d): {d9 d2 d3 d6} {d5 d15 d10 d12 d14} {d1} {d13 d4 d8}
    // {d7 d11}.
    let db = paper::table2_profile();
    let outcome = DrpCds::new().allocate_traced(&db, 5).unwrap();
    let final_alloc = outcome.allocation();
    let groups = final_alloc.groups();
    let as_labels = |g: &[dbcast::model::ItemId]| {
        let mut v: Vec<usize> = g.iter().map(|i| i.index() + 1).collect();
        v.sort_unstable();
        v
    };
    let expected: [&[usize]; 5] =
        [&[2, 3, 6, 9], &[5, 10, 12, 14, 15], &[1], &[4, 8, 13], &[7, 11]];
    for (group, want) in groups.iter().zip(expected) {
        assert_eq!(as_labels(group), want.to_vec());
    }
}

#[test]
fn worked_example_waiting_time_is_consistent() {
    // With b = 10, W_b = cost/(2b) + Σfz/b; cross-check the pipeline's
    // cost against the analytical waiting time.
    let db = paper::table2_profile();
    let alloc = DrpCds::new().allocate(&db, 5).unwrap();
    let w = dbcast::model::average_waiting_time(&db, &alloc, 10.0).unwrap();
    let download: f64 = db.iter().map(|d| d.frequency() * d.size()).sum::<f64>() / 10.0;
    assert!((w.probe - 22.29 / 20.0).abs() < 0.001);
    assert!((w.download - download).abs() < 1e-12);
}
