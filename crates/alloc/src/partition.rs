//! The `Partition(D_x)` procedure of DRP: the optimal two-way split of a
//! contiguous, benefit-ratio-sorted item sequence.
//!
//! Given prefix sums of frequency and size, every candidate split point
//! is evaluated in O(1), so the whole scan is O(n) — this is what makes
//! DRP's "dimension reduction" cheap.

use serde::{Deserialize, Serialize};

/// The result of an optimal two-way split of `range` (a half-open index
/// range into the benefit-ratio-sorted order).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitPoint {
    /// The split index `p`: left part is `range.start..p`, right part is
    /// `p..range.end`. Always strictly inside the range.
    pub at: usize,
    /// Cost `(Σf)(Σz)` of the left part.
    pub left_cost: f64,
    /// Cost `(Σf)(Σz)` of the right part.
    pub right_cost: f64,
}

impl SplitPoint {
    /// Combined cost of the two parts.
    pub fn total_cost(&self) -> f64 {
        self.left_cost + self.right_cost
    }
}

/// Finds the split index `p ∈ (start, end)` minimizing
/// `cost(start..p) + cost(p..end)` over prefix sums.
///
/// `prefix_f[i]` / `prefix_z[i]` must hold the sums of the first `i`
/// items in the sorted order (so `prefix_f.len() == n + 1`).
///
/// Returns `None` when the range has fewer than two items (nothing to
/// split). Ties prefer the smallest `p`, which keeps the algorithm
/// deterministic.
///
/// # Panics
///
/// Panics if the range is out of bounds for the prefix arrays or the
/// two arrays have different lengths.
///
/// # Example
///
/// ```
/// use dbcast_alloc::best_split;
/// // Two items: (f=0.9, z=1) and (f=0.1, z=9).
/// let prefix_f = [0.0, 0.9, 1.0];
/// let prefix_z = [0.0, 1.0, 10.0];
/// let split = best_split(&prefix_f, &prefix_z, 0..2).unwrap();
/// assert_eq!(split.at, 1);
/// assert!((split.total_cost() - (0.9 * 1.0 + 0.1 * 9.0)).abs() < 1e-12);
/// ```
pub fn best_split(
    prefix_f: &[f64],
    prefix_z: &[f64],
    range: std::ops::Range<usize>,
) -> Option<SplitPoint> {
    assert_eq!(prefix_f.len(), prefix_z.len(), "prefix arrays must match");
    assert!(range.end < prefix_f.len(), "range out of bounds");
    let (start, end) = (range.start, range.end);
    if end.saturating_sub(start) < 2 {
        return None;
    }
    let f_total = prefix_f[end] - prefix_f[start];
    let z_total = prefix_z[end] - prefix_z[start];
    let mut best: Option<SplitPoint> = None;
    for p in start + 1..end {
        let f_left = prefix_f[p] - prefix_f[start];
        let z_left = prefix_z[p] - prefix_z[start];
        let left_cost = f_left * z_left;
        let right_cost = (f_total - f_left) * (z_total - z_left);
        let total = left_cost + right_cost;
        if best.is_none_or(|b| total < b.total_cost()) {
            best = Some(SplitPoint { at: p, left_cost, right_cost });
        }
    }
    best
}

/// Builds prefix-sum arrays for `(f, z)` pairs in a given order.
///
/// Returned vectors have length `items.len() + 1` with index 0 = 0.0.
pub(crate) fn prefix_sums(items: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let mut pf = Vec::with_capacity(items.len() + 1);
    let mut pz = Vec::with_capacity(items.len() + 1);
    pf.push(0.0);
    pz.push(0.0);
    let (mut af, mut az) = (0.0, 0.0);
    for &(f, z) in items {
        af += f;
        az += z;
        pf.push(af);
        pz.push(az);
    }
    (pf, pz)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: try every split, recomputing sums.
    fn brute_force(
        items: &[(f64, f64)],
        range: std::ops::Range<usize>,
    ) -> Option<SplitPoint> {
        if range.len() < 2 {
            return None;
        }
        let cost = |r: std::ops::Range<usize>| {
            let f: f64 = items[r.clone()].iter().map(|i| i.0).sum();
            let z: f64 = items[r].iter().map(|i| i.1).sum();
            f * z
        };
        (range.start + 1..range.end)
            .map(|p| SplitPoint {
                at: p,
                left_cost: cost(range.start..p),
                right_cost: cost(p..range.end),
            })
            .min_by(|a, b| a.total_cost().total_cmp(&b.total_cost()))
    }

    #[test]
    fn singleton_and_empty_ranges_are_unsplittable() {
        let (pf, pz) = prefix_sums(&[(0.5, 1.0), (0.5, 2.0)]);
        assert!(best_split(&pf, &pz, 0..0).is_none());
        assert!(best_split(&pf, &pz, 0..1).is_none());
        assert!(best_split(&pf, &pz, 1..2).is_none());
    }

    #[test]
    fn two_items_split_between_them() {
        let (pf, pz) = prefix_sums(&[(0.7, 3.0), (0.3, 5.0)]);
        let s = best_split(&pf, &pz, 0..2).unwrap();
        assert_eq!(s.at, 1);
        assert!((s.left_cost - 2.1).abs() < 1e-12);
        assert!((s.right_cost - 1.5).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_many_instances() {
        // Deterministic LCG over a batch of random instances.
        let mut state = 42u64;
        let mut next = move || {
            state =
                state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) + 0.01
        };
        for n in [2usize, 3, 5, 8, 13, 21, 40] {
            let items: Vec<(f64, f64)> = (0..n).map(|_| (next(), next() * 10.0)).collect();
            let (pf, pz) = prefix_sums(&items);
            let fast = best_split(&pf, &pz, 0..n).unwrap();
            let slow = brute_force(&items, 0..n).unwrap();
            assert_eq!(fast.at, slow.at, "n = {n}");
            assert!((fast.total_cost() - slow.total_cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn subrange_splits_use_only_their_items() {
        let items = [(0.2, 1.0), (0.3, 2.0), (0.4, 8.0), (0.1, 1.0)];
        let (pf, pz) = prefix_sums(&items);
        let s = best_split(&pf, &pz, 1..4).unwrap();
        let reference = brute_force(&items, 1..4).unwrap();
        assert_eq!(s.at, reference.at);
        assert!((s.total_cost() - reference.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn split_always_improves_or_equals_group_cost() {
        // Splitting can never increase total cost:
        // (F1+F2)(Z1+Z2) >= F1 Z1 + F2 Z2 for non-negative parts.
        let items = [(0.4, 10.0), (0.3, 1.0), (0.2, 5.0), (0.1, 0.5)];
        let (pf, pz) = prefix_sums(&items);
        let whole = (pf[4] - pf[0]) * (pz[4] - pz[0]);
        let s = best_split(&pf, &pz, 0..4).unwrap();
        assert!(s.total_cost() <= whole + 1e-12);
    }

    #[test]
    fn ties_prefer_smallest_index() {
        // Dyadic inputs, so the arithmetic is exact: the split at 1
        // costs 2·1 + 3·2 = 8 and the split at 2 costs 3·2 + 2·1 = 8.
        let (pf, pz) = prefix_sums(&[(2.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        let s = best_split(&pf, &pz, 0..3).unwrap();
        assert_eq!((s.at, s.left_cost, s.right_cost), (1, 2.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn out_of_bounds_panics() {
        let (pf, pz) = prefix_sums(&[(0.5, 1.0)]);
        let _ = best_split(&pf, &pz, 0..5);
    }

    #[test]
    fn prefix_sums_shape() {
        let (pf, pz) = prefix_sums(&[(0.25, 2.0), (0.75, 6.0)]);
        assert_eq!(pf, vec![0.0, 0.25, 1.0]);
        assert_eq!(pz, vec![0.0, 2.0, 8.0]);
    }
}
