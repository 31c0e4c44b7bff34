//! Property test for counter rates — the one reset rule shared by the
//! watchdog's `rate(..)` signal and `dbcast top`'s window rates: every
//! derived rate is finite and non-negative, even across counter resets.

use proptest::prelude::*;

use dbcast_flight::watchdog::{counter_rate, parse_rules};
use dbcast_flight::Watchdog;

proptest! {
    #[test]
    fn counter_rates_are_non_negative_even_across_resets(
        steps in prop::collection::vec((0u64..500, 0u8..10), 2..100)
    ) {
        // A counter that mostly increments but occasionally (flag 0,
        // ~10% of samples) resets to a small value (process restart),
        // read every 100 ms. It is a gauge here because registry
        // counters cannot go down.
        let name = "scope.test.prop_counter";
        let mut dog = Watchdog::new(
            parse_rules(&format!("rate({name}) < 0 for 0ms; rate({name}) > -1 for 0ms"))
                .unwrap(),
        );
        let gauge = dbcast_obs::registry().gauge(name);
        let mut total = 0u64;
        let mut reads: Vec<f64> = Vec::new();
        for (i, &(delta, flag)) in steps.iter().enumerate() {
            total = if flag == 0 { delta } else { total.saturating_add(delta) };
            gauge.force_set(total as f64);
            reads.push(total as f64);
            for firing in dog.check_at(i as u64, i as u64 * 100) {
                // Only the `> -1` rule may fire, on the first rate.
                prop_assert_eq!(firing.tick, 1, "{:?}", firing);
                prop_assert!(firing.observed >= 0.0, "{:?}", firing);
            }
        }
        prop_assert_eq!(dog.firings().len(), 1, "a negative rate fired");

        let rates: Vec<f64> =
            reads.windows(2).filter_map(|p| counter_rate(p[0], p[1], 100)).collect();
        prop_assert_eq!(rates.len(), steps.len() - 1);
        for (i, r) in rates.iter().enumerate() {
            prop_assert!(r.is_finite() && *r >= 0.0,
                "derived rate {} at read {} is invalid", r, i + 1);
        }
    }
}
