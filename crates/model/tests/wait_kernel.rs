//! The Eq. 1 wait kernel against a brute-force oracle, and the
//! program's wire form.
//!
//! `BroadcastProgram` answers "when does item j next air?" from a
//! per-item placement table. The oracle below is the paper-literal
//! alternative: scan every channel for the item's first slot, apply the
//! next-start formula, keep the earliest (lowest channel on ties). The
//! two must agree **bit for bit**, not within a tolerance.

use dbcast_model::{
    Allocation, BroadcastProgram, ChannelId, Database, ItemId, ItemSpec, ModelError,
};
use proptest::prelude::*;

/// Brute-force `best_start`: a scan over every channel's slots.
fn oracle_best_start(
    program: &BroadcastProgram,
    item: ItemId,
    now: f64,
) -> Option<(ChannelId, f64, f64)> {
    let b = program.bandwidth();
    program
        .channels()
        .iter()
        .filter_map(|c| {
            let slot = c.slots().iter().find(|s| s.item == item)?;
            let cycle_time = c.cycle_size() / b;
            let offset_time = slot.offset / b;
            let k = ((now - offset_time) / cycle_time).ceil().max(0.0);
            let mut t = offset_time + k * cycle_time;
            if t < now {
                t += cycle_time;
            }
            Some((c.channel(), t, slot.size))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

fn oracle_response_time(program: &BroadcastProgram, item: ItemId, now: f64) -> Option<f64> {
    let (_, start, size) = oracle_best_start(program, item, now)?;
    Some(start - now + size / program.bandwidth())
}

fn bits(x: Option<(ChannelId, f64, f64)>) -> Option<(ChannelId, u64, u64)> {
    x.map(|(c, t, z)| (c, t.to_bits(), z.to_bits()))
}

/// Asserts kernel == oracle by bits for every item at every instant,
/// and that no broadcast is caught before it starts.
fn assert_agrees(program: &BroadcastProgram, items: usize, arrivals: &[f64]) {
    for item in (0..items).map(ItemId::new) {
        for &now in arrivals {
            if let Some((_, start, _)) = program.best_start(item, now) {
                assert!(start >= now, "best_start({item}, {now}) airs before the request");
            }
            assert_eq!(
                bits(program.best_start(item, now)),
                bits(oracle_best_start(program, item, now)),
                "best_start({item}, {now})"
            );
            assert_eq!(
                program.response_time(item, now).map(f64::to_bits),
                oracle_response_time(program, item, now).map(f64::to_bits),
                "response_time({item}, {now})"
            );
        }
    }
}

/// Exact slot starts and cycle multiples over three cycles, plus `extra`.
fn probe_instants(program: &BroadcastProgram, extra: &[f64]) -> Vec<f64> {
    let b = program.bandwidth();
    let mut arrivals = extra.to_vec();
    for c in program.channels() {
        for cycles in 0..3 {
            let base = f64::from(cycles) * c.cycle_size() / b;
            arrivals.push(base);
            arrivals.extend(c.slots().iter().map(|s| base + s.offset / b));
        }
    }
    arrivals
}

/// Random programs: each item on a home channel, with up to two extra
/// placements that may land on another channel (a replica) or on the
/// same one (an in-channel duplicate), in a random order per channel.
fn program_strategy() -> impl Strategy<Value = (usize, BroadcastProgram, f64)> {
    let item =
        (0.01f64..100.0, 0usize..5, prop::collection::vec((0usize..5, 0u32..1000), 0..3));
    (prop::collection::vec(item, 1..30), 1usize..5, 0.5f64..50.0, 0u32..=u32::MAX).prop_map(
        |(items, k, bandwidth, order_seed)| {
            let n = items.len();
            let db = Database::try_from_specs(
                items
                    .iter()
                    .map(|&(size, _, _)| ItemSpec::new(1.0, size))
                    .collect::<Vec<_>>(),
            )
            .expect("valid specs");
            let mut placed: Vec<(usize, u32, ItemId)> = Vec::new();
            for (j, (_, home, extra)) in items.iter().enumerate() {
                placed.push((home % k, j as u32 ^ order_seed, ItemId::new(j)));
                for &(c, key) in extra {
                    placed.push((c % k, key ^ order_seed, ItemId::new(j)));
                }
            }
            placed.sort_by_key(|&(c, key, _)| (c, key));
            let mut groups = vec![Vec::new(); k];
            for (c, _, item) in placed {
                groups[c].push(item);
            }
            let program =
                BroadcastProgram::from_overlapping_groups(&db, &groups, bandwidth)
                    .expect("every item is placed");
            let longest =
                program.channels().iter().map(|c| c.cycle_size()).fold(0.0, f64::max);
            (n, program, longest / bandwidth)
        },
    )
}

proptest! {
    #[test]
    fn table_kernel_equals_the_channel_scan_bit_for_bit(
        (n, program, scale) in program_strategy(),
        fractions in prop::collection::vec(0.0f64..4.0, 1..24),
    ) {
        let random: Vec<f64> = fractions.iter().map(|f| f * scale).collect();
        assert_agrees(&program, n + 2, &probe_instants(&program, &random));
    }

    #[test]
    fn partitions_agree_and_locate_every_item_once(
        sizes in prop::collection::vec(0.01f64..1e4, 1..40),
        k in 1usize..8,
        seed in 0u64..=u64::MAX,
        instants in prop::collection::vec(0.0f64..1e4, 1..16),
    ) {
        let db = Database::try_from_specs(
            sizes.iter().map(|&z| ItemSpec::new(1.0, z)).collect::<Vec<_>>(),
        ).unwrap();
        let assignment: Vec<usize> =
            (0..db.len()).map(|i| (seed.rotate_left(i as u32 % 64) as usize ^ i) % k).collect();
        let alloc = Allocation::from_assignment(&db, k, assignment.clone()).unwrap();
        let program = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
        for (j, &c) in assignment.iter().enumerate() {
            let carriers: Vec<_> = program.locate_all(ItemId::new(j)).collect();
            prop_assert_eq!(carriers.len(), 1);
            prop_assert_eq!(carriers[0].0.channel().index(), c);
            prop_assert_eq!(carriers[0].1.item, ItemId::new(j));
        }
        assert_agrees(&program, db.len() + 1, &probe_instants(&program, &instants));
    }
}

fn db4() -> Database {
    Database::try_from_specs(vec![
        ItemSpec::new(0.4, 2.0),
        ItemSpec::new(0.3, 3.0),
        ItemSpec::new(0.2, 5.0),
        ItemSpec::new(0.1, 1.5),
    ])
    .unwrap()
}

#[test]
fn replica_ties_go_to_the_lowest_channel() {
    let db = db4();
    // Channels 0 and 1 air the same 5-unit cycle, so every start of
    // items 0 and 1 is a tie; channel 2 repeats item 3.
    let groups = vec![
        vec![ItemId::new(0), ItemId::new(1)],
        vec![ItemId::new(0), ItemId::new(1)],
        vec![ItemId::new(3), ItemId::new(3), ItemId::new(2)],
    ];
    let p = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();
    for now in [0.0, 0.25, 0.5, 1.0, 1.2] {
        for item in [0, 1] {
            let (channel, _, _) = p.best_start(ItemId::new(item), now).unwrap();
            assert_eq!(channel.index(), 0, "tie for item {item} at {now}");
        }
    }
    assert_eq!(p.best_start(ItemId::new(0), 0.25).unwrap().1, 0.5);
    // Only an item's first slot in a channel counts.
    let offsets: Vec<f64> = p.locate_all(ItemId::new(3)).map(|(_, s)| s.offset).collect();
    assert_eq!(offsets, vec![0.0]);
    assert_agrees(&p, 5, &probe_instants(&p, &[0.01, 0.77, 1.3]));
}

#[test]
fn locate_all_lists_carriers_lowest_channel_first() {
    let db = db4();
    let groups = vec![
        vec![ItemId::new(1), ItemId::new(0)],
        vec![ItemId::new(0), ItemId::new(2), ItemId::new(3)],
    ];
    let p = BroadcastProgram::from_overlapping_groups(&db, &groups, 10.0).unwrap();
    let carriers = p.locate_all(ItemId::new(0));
    assert_eq!(carriers.len(), 2);
    let channels: Vec<usize> = carriers.map(|(c, _)| c.channel().index()).collect();
    assert_eq!(channels, vec![0, 1]);
    assert_eq!(p.locate_all(ItemId::new(9)).len(), 0);
    assert!(p.locate(ItemId::new(9)).is_none());
    assert!(p.best_start(ItemId::new(9), 0.0).is_none());
}

/// The directory frames carry programs as this JSON; the table must not
/// move a byte of it.
const GOLDEN_PARTITION: &str = r#"{"channels":[{"channel":0,"slots":[{"item":0,"offset":0,"size":2},{"item":3,"offset":2,"size":1.5}],"cycle_size":3.5},{"channel":1,"slots":[{"item":1,"offset":0,"size":3},{"item":2,"offset":3,"size":5}],"cycle_size":8}],"bandwidth":10}"#;
const GOLDEN_REPLICATED: &str = r#"{"channels":[{"channel":0,"slots":[{"item":0,"offset":0,"size":2},{"item":1,"offset":2,"size":3}],"cycle_size":5},{"channel":1,"slots":[{"item":2,"offset":0,"size":5},{"item":0,"offset":5,"size":2},{"item":3,"offset":7,"size":1.5}],"cycle_size":8.5}],"bandwidth":2.5}"#;

fn golden_programs() -> [(BroadcastProgram, &'static str); 2] {
    let db = db4();
    let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1, 0]).unwrap();
    let groups = vec![
        vec![ItemId::new(0), ItemId::new(1)],
        vec![ItemId::new(2), ItemId::new(0), ItemId::new(3)],
    ];
    [
        (BroadcastProgram::new(&db, &alloc, 10.0).unwrap(), GOLDEN_PARTITION),
        (
            BroadcastProgram::from_overlapping_groups(&db, &groups, 2.5).unwrap(),
            GOLDEN_REPLICATED,
        ),
    ]
}

#[test]
fn serialization_matches_the_golden_wire_form() {
    for (program, golden) in golden_programs() {
        assert_eq!(serde_json::to_string(&program).unwrap(), golden);
    }
}

#[test]
fn deserialization_rebuilds_the_table() {
    for (program, golden) in golden_programs() {
        let back: BroadcastProgram = serde_json::from_str(golden).unwrap();
        assert_eq!(back, program);
        let arrivals = probe_instants(&back, &[0.3, 1.7, 2.9]);
        for item in (0..4).map(ItemId::new) {
            for &now in &arrivals {
                assert_eq!(
                    bits(back.best_start(item, now)),
                    bits(program.best_start(item, now))
                );
            }
        }
        assert_agrees(&back, 5, &arrivals);
    }
}

#[test]
fn hostile_programs_are_rejected_with_typed_errors() {
    let bad_bandwidth = [
        GOLDEN_PARTITION.replace(r#""bandwidth":10"#, r#""bandwidth":0"#),
        GOLDEN_PARTITION.replace(r#""bandwidth":10"#, r#""bandwidth":-2.5"#),
        GOLDEN_PARTITION.replace(r#""bandwidth":10"#, r#""bandwidth":1e999"#),
    ];
    for json in &bad_bandwidth {
        assert!(serde_json::from_str::<BroadcastProgram>(json).is_err(), "{json}");
    }
    // Four slots, so any id >= 4 is out of range, however large.
    for id in ["4", "1099511627776", "18446744073709551615"] {
        let json = GOLDEN_PARTITION.replace(r#"{"item":2,"#, &format!(r#"{{"item":{id},"#));
        let err = serde_json::from_str::<BroadcastProgram>(&json).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{id}: {err}");
    }
    // Every cycle must be positive, every slot positive and inside it.
    let bad_geometry = [
        (r#""cycle_size":8}"#, r#""cycle_size":0}"#),
        (r#""cycle_size":8}"#, r#""cycle_size":-8}"#),
        (r#"{"item":2,"offset":3,"#, r#"{"item":2,"offset":8,"#),
        (r#"{"item":2,"offset":3,"#, r#"{"item":2,"offset":-1,"#),
        (r#""offset":3,"size":5}"#, r#""offset":3,"size":0}"#),
    ];
    for (honest, hostile) in bad_geometry {
        assert!(GOLDEN_PARTITION.contains(honest), "{honest}");
        let json = GOLDEN_PARTITION.replace(honest, hostile);
        let err = serde_json::from_str::<BroadcastProgram>(&json).unwrap_err();
        assert!(err.to_string().contains("channel 1"), "{hostile}: {err}");
    }
    // The builders report the same typed errors.
    let db = db4();
    let alloc = Allocation::from_assignment(&db, 1, vec![0; 4]).unwrap();
    assert!(matches!(
        BroadcastProgram::new(&db, &alloc, f64::INFINITY),
        Err(ModelError::InvalidBandwidth { .. })
    ));
}
