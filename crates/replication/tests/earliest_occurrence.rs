//! Earliest-occurrence tuning over replicated programs.
//!
//! The network client fleet plans every fetch as "earliest completion
//! across all carrying channels". These tests certify the two pieces
//! that plan rests on: `best_start` really is the per-channel brute
//! force minimum, and `expected_min_probe` really is the mean of the
//! independent-uniform-phase minimum it claims to approximate.

use dbcast_model::{BroadcastProgram, ChannelId, Database, ItemId, ItemSpec};
use dbcast_replication::{expected_min_probe, ReplicatedAllocation};

const BANDWIDTH: f64 = 10.0;

fn replicated_program() -> (Database, BroadcastProgram) {
    let db = Database::try_from_specs(vec![
        ItemSpec::new(0.35, 2.0),
        ItemSpec::new(0.25, 3.0),
        ItemSpec::new(0.20, 4.0),
        ItemSpec::new(0.12, 1.0),
        ItemSpec::new(0.08, 5.0),
    ])
    .expect("database builds");
    let base = dbcast_model::Allocation::from_assignment(&db, 3, vec![0, 0, 1, 1, 2])
        .expect("assignment valid");
    let mut repl = ReplicatedAllocation::new(base);
    // The hot item rides on two extra channels; a mid item on one.
    repl.add_replica(&db, ItemId::new(0), ChannelId::new(1)).expect("replica fits");
    repl.add_replica(&db, ItemId::new(0), ChannelId::new(2)).expect("replica fits");
    repl.add_replica(&db, ItemId::new(2), ChannelId::new(2)).expect("replica fits");
    let program = repl.to_program(&db, BANDWIDTH).expect("program builds");
    (db, program)
}

#[test]
fn best_start_is_the_brute_force_minimum_over_carriers() {
    let (db, program) = replicated_program();
    for idx in 0..db.len() {
        let item = ItemId::new(idx);
        let carriers: Vec<_> = program.locate_all(item).collect();
        assert!(!carriers.is_empty(), "every item is broadcast");
        for step in 0..200 {
            let now = step as f64 * 0.0973;
            let (channel, start, size) =
                program.best_start(item, now).expect("item broadcast");
            // Brute force: ask every carrying channel independently and
            // keep the earliest completion.
            let mut best: Option<(ChannelId, f64)> = None;
            for (schedule, slot) in &carriers {
                let s = schedule
                    .next_start(item, now, BANDWIDTH)
                    .expect("carrier has the item");
                let completion = s + slot.size / BANDWIDTH;
                if best.is_none() || completion < best.expect("set").1 {
                    best = Some((schedule.channel(), completion));
                }
            }
            let (_bf_channel, bf_completion) = best.expect("carriers non-empty");
            let completion = start + size / BANDWIDTH;
            assert!(
                (completion - bf_completion).abs() < 1e-9,
                "item {idx} at t={now:.4}: best_start completion \
                 {completion:.6} vs brute force {bf_completion:.6}"
            );
            assert!(start >= now - 1e-9, "a broadcast cannot be caught before it starts");
            // The winning channel must actually carry the item.
            assert!(carriers.iter().any(|(s, _)| s.channel() == channel));
        }
    }
}

#[test]
fn replicas_never_hurt_response_time() {
    // Adding carriers can only add candidate occurrences, so for every
    // arrival instant the replicated program must respond at least as
    // fast as the base program for the replicated item.
    let db = Database::try_from_specs(vec![
        ItemSpec::new(0.5, 2.0),
        ItemSpec::new(0.3, 3.0),
        ItemSpec::new(0.2, 4.0),
    ])
    .expect("database builds");
    let base = dbcast_model::Allocation::from_assignment(&db, 2, vec![0, 0, 1])
        .expect("assignment valid");
    let plain = ReplicatedAllocation::new(base.clone())
        .to_program(&db, BANDWIDTH)
        .expect("plain builds");
    let mut repl = ReplicatedAllocation::new(base);
    repl.add_replica(&db, ItemId::new(0), ChannelId::new(1)).expect("replica fits");
    let replicated = repl.to_program(&db, BANDWIDTH).expect("replicated builds");
    // Channel 0 is identical in both programs, so compare item 0 on a
    // phase grid of channel 0's cycle.
    let cycle = plain.channels()[0].cycle_size() / BANDWIDTH;
    for step in 0..500 {
        let now = step as f64 * (cycle / 499.0) * 3.0;
        let with = replicated.response_time(ItemId::new(0), now).expect("carried");
        let without = plain.response_time(ItemId::new(0), now).expect("carried");
        assert!(
            with <= without + 1e-9,
            "replica made item 0 slower at t={now:.4}: {with:.6} > {without:.6}"
        );
    }
}

#[test]
fn expected_min_probe_matches_grid_integration() {
    // E[min_i U_i] with U_i ~ U(0, T_i) independent, evaluated by a
    // deterministic midpoint grid over the unit cube — an entirely
    // different computation from the closed forms / Simpson's rule
    // inside `expected_min_probe`.
    let cases: [&[f64]; 4] = [&[8.0], &[4.0, 10.0], &[3.0, 5.0, 7.0], &[2.0, 2.0, 9.0]];
    for cycles in cases {
        let n = match cycles.len() {
            1 => 4096,
            2 => 512,
            _ => 96,
        };
        let mut sum = 0.0;
        let mut count = 0u64;
        let mut grid = vec![0usize; cycles.len()];
        loop {
            let min = grid
                .iter()
                .zip(cycles)
                .map(|(&g, &t)| (g as f64 + 0.5) / n as f64 * t)
                .fold(f64::INFINITY, f64::min);
            sum += min;
            count += 1;
            let mut dim = 0;
            loop {
                if dim == cycles.len() {
                    break;
                }
                grid[dim] += 1;
                if grid[dim] < n {
                    break;
                }
                grid[dim] = 0;
                dim += 1;
            }
            if dim == cycles.len() {
                break;
            }
        }
        let empirical = sum / count as f64;
        let analytic = expected_min_probe(cycles);
        let tol = 2.0 / n as f64 * cycles.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            (empirical - analytic).abs() <= tol,
            "cycles {cycles:?}: grid {empirical:.6} vs analytic {analytic:.6} \
             (tol {tol:.6})"
        );
    }
}
