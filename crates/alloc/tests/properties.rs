//! Property-based tests pinning the incremental CDS engine's three
//! load-bearing invariants on arbitrary instances:
//!
//! 1. **No staleness** — after any prefix of applied moves, the cached
//!    global best equals an exhaustive from-scratch scan, bit-for-bit.
//!    (A stale-bound bug shows up here as a skipped re-score or a
//!    surfaced stale pair.)
//! 2. **Aggregate integrity** — the maintained per-channel `(F, Z)`
//!    columns match a from-scratch recomputation after the full
//!    descent.
//! 3. **Engine/reference identity** — `Cds` (engine-backed) reproduces
//!    `ReferenceCds` (exhaustive scan) step-for-step on any database
//!    and any start, down to the reduction bits.

use dbcast_alloc::{BestMoveEngine, Cds, ReferenceCds};
use dbcast_model::{Allocation, Database, ItemSpec};
use proptest::prelude::*;

/// Raw engine columns: positive features and a valid dense assignment.
fn columns() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>, Vec<u32>)> {
    (1usize..7).prop_flat_map(|k| {
        prop::collection::vec((0.001f64..10.0, 0.01f64..100.0, 0..k as u32), 1..48)
            .prop_map(move |rows| {
                let f = rows.iter().map(|r| r.0).collect();
                let z = rows.iter().map(|r| r.1).collect();
                let assign = rows.iter().map(|r| r.2).collect();
                (k, f, z, assign)
            })
    })
}

fn aggregates(k: usize, f: &[f64], z: &[f64], assign: &[u32]) -> (Vec<f64>, Vec<f64>) {
    let mut freq = vec![0.0; k];
    let mut size = vec![0.0; k];
    for (x, &c) in assign.iter().enumerate() {
        freq[c as usize] += f[x];
        size[c as usize] += z[x];
    }
    (freq, size)
}

/// The paper-literal scan: items ascending, destinations ascending,
/// strict `>` seeded at the threshold.
fn exhaustive_best(
    k: usize,
    threshold: f64,
    f: &[f64],
    z: &[f64],
    assign: &[u32],
    freq: &[f64],
    size: &[f64],
) -> Option<(usize, usize, f64)> {
    let mut best = None;
    let mut best_r = threshold;
    for (x, &p) in assign.iter().enumerate() {
        let p = p as usize;
        for q in 0..k {
            if q == p {
                continue;
            }
            let r =
                f[x] * (size[p] - size[q]) + z[x] * (freq[p] - freq[q]) - 2.0 * f[x] * z[x];
            if r > best_r {
                best_r = r;
                best = Some((x, q, r));
            }
        }
    }
    best
}

fn engine_from(k: usize, f: &[f64], z: &[f64], assign: &[u32]) -> BestMoveEngine {
    let (freq, size) = aggregates(k, f, z, assign);
    BestMoveEngine::new(k, 1e-9, f.to_vec(), z.to_vec(), assign.to_vec(), freq, size)
}

proptest! {
    #[test]
    fn engine_best_is_never_stale((k, f, z, assign) in columns()) {
        let mut engine = engine_from(k, &f, &z, &assign);
        // Strictly decreasing cost with a strict 1e-9 threshold bounds
        // the descent; the cap only guards against a livelock bug.
        for _ in 0..20_000usize {
            let brute = exhaustive_best(
                k,
                1e-9,
                &f,
                &z,
                engine.assignment(),
                engine.channel_freq(),
                engine.channel_size(),
            );
            let got = engine.best().map(|m| (m.item, m.to, m.reduction.to_bits()));
            prop_assert_eq!(got, brute.map(|(x, q, r)| (x, q, r.to_bits())));
            if engine.apply_best().is_none() {
                break;
            }
        }
        prop_assert!(engine.best().is_none(), "descent failed to terminate");
    }

    #[test]
    fn engine_aggregates_survive_full_descent((k, f, z, assign) in columns()) {
        let mut engine = engine_from(k, &f, &z, &assign);
        let mut moves = 0usize;
        while engine.apply_best().is_some() {
            moves += 1;
            prop_assert!(moves < 20_000, "descent failed to terminate");
        }
        let (freq, size) = aggregates(k, &f, &z, engine.assignment());
        for c in 0..k {
            prop_assert!(
                (engine.channel_freq()[c] - freq[c]).abs() < 1e-9,
                "channel {} frequency drifted: {} vs {}",
                c, engine.channel_freq()[c], freq[c]
            );
            prop_assert!(
                (engine.channel_size()[c] - size[c]).abs() < 1e-9,
                "channel {} size drifted: {} vs {}",
                c, engine.channel_size()[c], size[c]
            );
        }
    }

    #[test]
    fn engine_respects_an_arbitrary_threshold(
        (k, f, z, assign) in columns(),
        threshold in 0.0f64..0.5,
    ) {
        let (freq, size) = aggregates(k, &f, &z, &assign);
        let engine = BestMoveEngine::new(
            k, threshold, f.clone(), z.clone(), assign.clone(), freq, size,
        );
        if let Some(m) = engine.best() {
            prop_assert!(m.reduction > threshold);
            prop_assert_ne!(m.from, m.to);
        }
    }

    #[test]
    fn cds_matches_reference_bit_for_bit((k, f, z, assign) in columns()) {
        let specs: Vec<ItemSpec> =
            f.iter().zip(&z).map(|(&fx, &zx)| ItemSpec::new(fx, zx)).collect();
        let db = Database::try_from_specs(specs).unwrap();
        let start = Allocation::from_assignment(
            &db, k, assign.iter().map(|&c| c as usize).collect(),
        )
        .unwrap();
        let oracle = ReferenceCds::new().refine(&db, start.clone()).unwrap();
        let fast = Cds::new().refine(&db, start).unwrap();
        prop_assert_eq!(oracle.steps.len(), fast.steps.len());
        for (a, b) in oracle.steps.iter().zip(&fast.steps) {
            prop_assert_eq!(a.mv, b.mv);
            prop_assert_eq!(a.reduction.to_bits(), b.reduction.to_bits());
            prop_assert_eq!(a.cost_after.to_bits(), b.cost_after.to_bits());
        }
        prop_assert_eq!(oracle.converged, fast.converged);
        prop_assert_eq!(
            oracle.allocation.assignment(),
            fast.allocation.assignment()
        );
        prop_assert_eq!(
            oracle.allocation.total_cost().to_bits(),
            fast.allocation.total_cost().to_bits()
        );
    }
}
