//! Property tests for the scope time-series layer:
//!
//! * derived counter rates are always non-negative and finite, even
//!   across counter resets,
//! * any store built from randomized snapshots renders a document that
//!   round-trips the strict `/series` decoder.

use proptest::prelude::*;

use dbcast_obs::doc;
use dbcast_scope::{Sample, ScopeConfig, Series, SeriesDoc, SeriesKind, SeriesStore};

proptest! {
    #[test]
    fn counter_rates_are_non_negative_even_across_resets(
        steps in prop::collection::vec((0u64..500, 0u8..10), 2..100)
    ) {
        // A counter that mostly increments but occasionally (flag 0,
        // ~10% of samples) resets to a small value (process restart),
        // sampled every 100 ms.
        let mut series = Series::new(SeriesKind::Counter, 4096);
        let mut total = 0u64;
        for (i, &(delta, flag)) in steps.iter().enumerate() {
            total = if flag == 0 { delta } else { total.saturating_add(delta) };
            series.push(Sample {
                tick: i as u64,
                wall_ms: i as u64 * 100,
                value: total as f64,
            });
        }
        let rates = series.rates();
        prop_assert_eq!(rates.len(), steps.len().saturating_sub(1));
        for r in &rates {
            prop_assert!(r.value.is_finite() && r.value >= 0.0,
                "derived rate {} at tick {} is invalid", r.value, r.tick);
        }
    }

    #[test]
    fn randomized_stores_export_valid_documents(
        scrapes in prop::collection::vec(
            (0u64..10_000, -1.0e6f64..1.0e6, 0u64..100_000), 1..60)
    ) {
        let store = SeriesStore::new(ScopeConfig {
            raw_capacity: 16,
            hist_capacity: 8,
            render_raw: 12,
            ..ScopeConfig::default()
        });
        let mut counter = 0u64;
        let mut wall = 0u64;
        // A cumulative histogram built by hand (the scrape path only
        // reads count/sum/buckets from a snapshot).
        let mut bucket_counts = std::collections::BTreeMap::new();
        let (mut hcount, mut hsum) = (0u64, 0u64);
        for (i, &(delta, gauge, obs)) in scrapes.iter().enumerate() {
            counter += delta;
            wall += 100 + delta % 50;
            hcount += 1;
            hsum += obs;
            *bucket_counts.entry(dbcast_obs::metrics::bucket_index(obs)).or_insert(0u64) +=
                1;
            let hist = dbcast_obs::metrics::HistogramSnapshot {
                count: hcount,
                sum: hsum,
                mean: hsum as f64 / hcount as f64,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p95: 0,
                p99: 0,
                buckets: bucket_counts
                    .iter()
                    .map(|(&b, &c)| (dbcast_obs::metrics::bucket_upper_bound(b), c))
                    .collect(),
            };
            let snap = dbcast_obs::snapshot::Snapshot {
                counters: vec![
                    ("serve.ticks".to_string(), i as u64),
                    ("prop.count".to_string(), counter),
                ],
                gauges: vec![("prop.level".to_string(), gauge)],
                histograms: vec![("prop.dist".to_string(), hist)],
            };
            store.append_snapshot(&snap, wall);
        }
        let text = doc::render(&store.export());
        let doc: SeriesDoc = doc::decode(&text).expect("randomized export decodes");
        prop_assert_eq!(doc.tick, scrapes.len() as u64 - 1);
        prop_assert!(doc.series("prop.count").is_some());
    }
}
