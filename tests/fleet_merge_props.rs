//! Property battery for the mergeable observability primitives behind
//! fleet aggregation: `HistogramCells` merge forms a commutative
//! monoid (associative, commutative, `empty()` as identity), and a
//! histogram assembled by merging per-client digests is
//! indistinguishable — counts, sum, min/max, mean and every percentile
//! estimate — from one that pooled all the observations directly.

use dbcast_obs::metrics::{Histogram, HistogramCells};
use proptest::prelude::*;

fn cells_from(values: &[u64]) -> HistogramCells {
    let mut cells = HistogramCells::empty();
    for &v in values {
        cells.record(v);
    }
    cells
}

fn merged(a: &HistogramCells, b: &HistogramCells) -> HistogramCells {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
        c in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let (a, b, c) = (cells_from(&a), cells_from(&b), cells_from(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let (a, b) = (cells_from(&a), cells_from(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn empty_is_the_merge_identity(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let a = cells_from(&a);
        prop_assert_eq!(merged(&a, &HistogramCells::empty()), a.clone());
        prop_assert_eq!(merged(&HistogramCells::empty(), &a), a);
    }

    /// Splitting a sample population across per-client digests and
    /// merging them back is exact: the merged histogram reports the
    /// same count/sum/min/max/mean and the same percentile estimates
    /// (point, bounds and midpoint at every quantile) as a single
    /// histogram that recorded the pooled values directly.
    #[test]
    fn merged_digests_match_pooled_recording(
        shards in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 0..48),
            1..8,
        ),
        quantiles in prop::collection::vec(0.0f64..100.0, 1..8),
    ) {
        let pooled = Histogram::detached();
        let rebuilt = Histogram::detached();
        for shard in &shards {
            let mut digest = HistogramCells::empty();
            for &v in shard {
                digest.record(v);
                pooled.force_record(v);
            }
            rebuilt.force_merge_cells(&digest);
        }
        let (rebuilt, pooled) = (rebuilt.cells(), pooled.cells());
        prop_assert_eq!(&rebuilt, &pooled);
        prop_assert_eq!(rebuilt.mean(), pooled.mean());
        for q in quantiles.into_iter().chain([50.0, 90.0, 95.0, 99.0, 100.0]) {
            prop_assert_eq!(rebuilt.percentile_bounds(q), pooled.percentile_bounds(q));
            prop_assert_eq!(rebuilt.percentile_midpoint(q), pooled.percentile_midpoint(q));
        }
        prop_assert_eq!(rebuilt.snapshot(), pooled.snapshot());
        // And the percentile estimate brackets the true order statistic
        // of the pooled values whenever there are observations.
        let mut sorted: Vec<u64> = shards.into_iter().flatten().collect();
        sorted.sort_unstable();
        if !sorted.is_empty() {
            let idx = ((0.90 * sorted.len() as f64).ceil() as usize)
                .saturating_sub(1)
                .min(sorted.len() - 1);
            let exact = sorted[idx];
            let (lo, hi) = rebuilt.percentile_bounds(90.0).expect("non-empty");
            prop_assert!(
                lo <= exact && exact <= hi,
                "p90 bounds [{lo}, {hi}] miss exact order statistic {exact}"
            );
        }
    }
}
