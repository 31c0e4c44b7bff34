//! The Eq. 1 wait kernel against a brute-force oracle, and the
//! program's wire form.
//!
//! `BroadcastProgram` answers "when does item j next air?" from a
//! per-item placement table. The oracle below is the paper-literal
//! alternative: scan every channel for the item's slot, apply the
//! next-start formula, keep the earliest. The two must agree **bit for
//! bit**, not within a tolerance.

use dbcast_model::{
    item_waiting_time, Allocation, BroadcastProgram, ChannelId, Database, ItemId, ItemSpec,
    ModelError, ScheduledItem,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

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

/// Random partitions: each item on one channel, in a random order per
/// channel, decoded from their `{channels, bandwidth}` wire value so the
/// decoder's checks run too.
fn program_strategy() -> impl Strategy<Value = (usize, BroadcastProgram, f64)> {
    let item = (0.01f64..100.0, 0usize..5);
    (prop::collection::vec(item, 1..30), 1usize..5, 0.5f64..50.0, 0u32..=u32::MAX).prop_map(
        |(items, k, bandwidth, order_seed)| {
            let n = items.len();
            let mut placed: Vec<(usize, u32, usize)> = items
                .iter()
                .enumerate()
                .map(|(j, &(_, home))| (home % k, j as u32 ^ order_seed, j))
                .collect();
            placed.sort_unstable();
            let mut channels = Vec::with_capacity(k);
            let mut placed = placed.into_iter().peekable();
            for c in 0..k {
                let mut slots = Vec::new();
                let mut offset = 0.0;
                while let Some((_, _, j)) = placed.next_if(|&(home, _, _)| home == c) {
                    let size = items[j].0;
                    slots.push(
                        ScheduledItem { item: ItemId::new(j), offset, size }.to_value(),
                    );
                    offset += size;
                }
                channels.push(Value::Map(vec![
                    ("channel".to_string(), Value::U64(c as u64)),
                    ("slots".to_string(), Value::Seq(slots)),
                    ("cycle_size".to_string(), Value::F64(offset)),
                ]));
            }
            let wire = Value::Map(vec![
                ("channels".to_string(), Value::Seq(channels)),
                ("bandwidth".to_string(), Value::F64(bandwidth)),
            ]);
            let program = BroadcastProgram::from_value(&wire).expect("a valid partition");
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
            let (schedule, slot) = program.locate(ItemId::new(j)).unwrap();
            prop_assert_eq!(schedule.channel().index(), c);
            prop_assert_eq!(slot.item, ItemId::new(j));
            let eq1 = item_waiting_time(&db, &alloc, ItemId::new(j), 10.0).unwrap();
            prop_assert_eq!(
                program.expected_response_time(ItemId::new(j)).map(f64::to_bits),
                Some(eq1.to_bits())
            );
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
fn an_item_no_channel_carries_is_not_located() {
    let db = db4();
    let alloc = Allocation::from_assignment(&db, 2, vec![0, 1, 1, 0]).unwrap();
    let p = BroadcastProgram::new(&db, &alloc, 10.0).unwrap();
    assert!(p.locate(ItemId::new(9)).is_none());
    assert!(p.best_start(ItemId::new(9), 0.0).is_none());
    assert!(p.response_time(ItemId::new(9), 0.0).is_none());
}

/// The directory frames carry programs as this JSON; the table must not
/// move a byte of it.
const GOLDEN_PARTITION: &str = r#"{"channels":[{"channel":0,"slots":[{"item":0,"offset":0,"size":2},{"item":3,"offset":2,"size":1.5}],"cycle_size":3.5},{"channel":1,"slots":[{"item":1,"offset":0,"size":3},{"item":2,"offset":3,"size":5}],"cycle_size":8}],"bandwidth":10}"#;

fn golden_program() -> BroadcastProgram {
    let alloc = Allocation::from_assignment(&db4(), 2, vec![0, 1, 1, 0]).unwrap();
    BroadcastProgram::new(&db4(), &alloc, 10.0).unwrap()
}

#[test]
fn serialization_matches_the_golden_wire_form() {
    assert_eq!(serde_json::to_string(&golden_program()).unwrap(), GOLDEN_PARTITION);
}

#[test]
fn deserialization_rebuilds_the_table() {
    let program = golden_program();
    let back: BroadcastProgram = serde_json::from_str(GOLDEN_PARTITION).unwrap();
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
    // A program is a partition: item 0 airs on channel 0, so placing it
    // on channel 1 too, or twice on channel 0, is rejected.
    for (honest, hostile) in
        [(r#"{"item":2,"#, r#"{"item":0,"#), (r#"{"item":3,"#, r#"{"item":0,"#)]
    {
        assert!(GOLDEN_PARTITION.contains(honest), "{honest}");
        let json = GOLDEN_PARTITION.replace(honest, hostile);
        let err = serde_json::from_str::<BroadcastProgram>(&json).unwrap_err();
        let placed_twice = ModelError::ItemPlacedTwice { item: 0 }.to_string();
        assert!(err.to_string().contains(&placed_twice), "{honest}: {err}");
    }
    // Schedule i must be channel i: an id past the program would index
    // out of bounds, and a swapped one would name another schedule.
    let out_of_place = [
        (
            r#"{"channels":[{"channel":7,"slots":[{"item":0,"offset":0,"size":1},{"item":1,"offset":1,"size":1}],"cycle_size":2}],"bandwidth":1}"#.to_string(),
            ModelError::ChannelOutOfPlace { position: 0, channel: 7 },
        ),
        (
            GOLDEN_PARTITION.replace(r#"{"channel":1,"#, r#"{"channel":0,"#),
            ModelError::ChannelOutOfPlace { position: 1, channel: 0 },
        ),
    ];
    for (json, expected) in &out_of_place {
        let err = serde_json::from_str::<BroadcastProgram>(json).unwrap_err();
        assert!(err.to_string().contains(&expected.to_string()), "{json}: {err}");
    }
    // The builders report the same typed errors.
    let db = db4();
    let alloc = Allocation::from_assignment(&db, 1, vec![0; 4]).unwrap();
    assert!(matches!(
        BroadcastProgram::new(&db, &alloc, f64::INFINITY),
        Err(ModelError::InvalidBandwidth { .. })
    ));
}
