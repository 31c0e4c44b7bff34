//! The allocation cost function (paper Eq. 3) and an incremental
//! aggregate tracker for search algorithms.

use serde::{Deserialize, Serialize};

use crate::database::Database;
use crate::error::ModelError;

/// Cost of a single group of items, `cost(G) = (Σ f)(Σ z)` (Definition 1).
///
/// The iterator yields `(frequency, size)` pairs; an empty group costs 0.
///
/// # Example
///
/// ```
/// use dbcast_model::channel_cost;
/// let cost = channel_cost([(0.5, 2.0), (0.25, 6.0)]);
/// assert!((cost - 0.75 * 8.0).abs() < 1e-12);
/// ```
pub fn channel_cost<I>(items: I) -> f64
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let (f, z) = items.into_iter().fold((0.0, 0.0), |(f, z), (fi, zi)| (f + fi, z + zi));
    f * z
}

/// Total cost `Σ_i F_i Z_i` of an `item -> channel` assignment over `db`
/// (Eq. 3), computed from scratch in O(N + K).
///
/// This is the reference implementation that incremental bookkeeping
/// (e.g. [`Allocation::total_cost`](crate::Allocation::total_cost),
/// [`CostTracker`]) is tested against.
///
/// # Errors
///
/// * [`ModelError::ZeroChannels`] if `channels == 0`.
/// * [`ModelError::AssignmentLength`] on a length mismatch.
/// * [`ModelError::ChannelOutOfRange`] if an entry exceeds `channels`.
pub fn allocation_cost(
    db: &Database,
    channels: usize,
    assignment: &[usize],
) -> Result<f64, ModelError> {
    if channels == 0 {
        return Err(ModelError::ZeroChannels);
    }
    if assignment.len() != db.len() {
        return Err(ModelError::AssignmentLength {
            expected: db.len(),
            actual: assignment.len(),
        });
    }
    let mut freq = vec![0.0f64; channels];
    let mut size = vec![0.0f64; channels];
    for (item, &ch) in assignment.iter().enumerate() {
        if ch >= channels {
            return Err(ModelError::ChannelOutOfRange { channel: ch, channels });
        }
        let d = &db.items()[item];
        freq[ch] += d.frequency();
        size[ch] += d.size();
    }
    Ok(freq.iter().zip(&size).map(|(f, z)| f * z).sum())
}

/// A certified lower bound on the Eq. 3 cost `Σ_i F_i Z_i` that *any*
/// assignment of the items onto `channels` channels can reach, in O(N).
///
/// With `a_j = √(f_j z_j)`, Cauchy–Schwarz gives `F_i Z_i ≥ (Σ_{j∈i}
/// a_j)²` per channel, so the cost is at least `Σ_i A_i²` over the
/// channel sums `A_i` of `a`. That sum is smallest when the mass is
/// spread evenly, `(Σ_j a_j)² / K`, except that an item cannot be
/// split: water-filling takes the largest remaining `a_j` alone while
/// it exceeds an even share of what remains, and spreads the rest
/// evenly over the channels left. Only the `K` largest `a_j` can sit
/// alone, so they are selected (not sorted) out of `scratch`, a
/// caller-owned buffer that stops reallocating after the first call.
/// When `K ≥ N` every item sits alone and the bound is `Σ_j f_j z_j`,
/// the cost of exactly that allocation.
///
/// # Example
///
/// ```
/// use dbcast_model::cost_lower_bound;
/// let (f, z) = ([0.5, 0.3, 0.2], [2.0, 4.0, 1.0]);
/// let mut scratch = Vec::new();
/// // Items 1 and 2 share a channel: (0.5·2) + (0.5·5) = 3.5.
/// let lb = cost_lower_bound(&f, &z, 2, &mut scratch);
/// assert!(lb > 0.0 && lb <= 3.5);
/// ```
///
/// # Panics
///
/// Panics if `channels == 0` or the slices differ in length.
pub fn cost_lower_bound(
    frequencies: &[f64],
    sizes: &[f64],
    channels: usize,
    scratch: &mut Vec<f64>,
) -> f64 {
    assert!(channels > 0, "the cost bound requires at least one channel");
    assert_eq!(frequencies.len(), sizes.len(), "one size per frequency");
    scratch.clear();
    scratch.extend(frequencies.iter().zip(sizes).map(|(f, z)| (f * z).sqrt()));
    let mut remaining: f64 = scratch.iter().sum();
    let k = channels.min(scratch.len());
    let descending = |x: &f64, y: &f64| y.total_cmp(x);
    if k < scratch.len() {
        scratch.select_nth_unstable_by(k, descending);
    }
    let top = &mut scratch[..k];
    top.sort_unstable_by(descending);
    let mut bound = 0.0;
    for (taken, &a) in top.iter().enumerate() {
        let left = (channels - taken) as f64;
        if a <= remaining / left {
            return bound + remaining * remaining / left;
        }
        bound += a * a;
        remaining -= a;
    }
    // Only reached with `K ≥ N` (the last channel always takes the even
    // share of what remains): every item sat alone.
    bound
}

/// Incremental `(F_i, Z_i)` bookkeeping over a mutable assignment.
///
/// Search algorithms (CDS, GOPT mutation repair, greedy) need to evaluate
/// and apply thousands of single-item relocations; `CostTracker` makes
/// each evaluation O(1) without materializing an
/// [`Allocation`](crate::Allocation). It deliberately does **not** hold a
/// reference to the database: callers pass the moved item's `(f, z)`.
///
/// # Example
///
/// ```
/// use dbcast_model::CostTracker;
/// let mut t = CostTracker::new(2);
/// t.add(0, 0.7, 3.0);
/// t.add(1, 0.3, 9.0);
/// let before = t.total_cost();
/// let delta = t.move_reduction(0, 1, 0.7, 3.0);
/// t.relocate(0, 1, 0.7, 3.0);
/// assert!((before - t.total_cost() - delta).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostTracker {
    freq: Vec<f64>,
    size: Vec<f64>,
    items: Vec<usize>,
}

impl CostTracker {
    /// Creates a tracker with `channels` empty channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "CostTracker requires at least one channel");
        CostTracker {
            freq: vec![0.0; channels],
            size: vec![0.0; channels],
            items: vec![0; channels],
        }
    }

    /// Builds a tracker pre-populated from an assignment over `db`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`allocation_cost`].
    pub fn from_assignment(
        db: &Database,
        channels: usize,
        assignment: &[usize],
    ) -> Result<Self, ModelError> {
        // Validate once via the reference path, then fill.
        allocation_cost(db, channels, assignment)?;
        let mut t = CostTracker::new(channels);
        for (item, &ch) in assignment.iter().enumerate() {
            let d = &db.items()[item];
            t.add(ch, d.frequency(), d.size());
        }
        Ok(t)
    }

    /// Number of channels tracked.
    pub fn channels(&self) -> usize {
        self.freq.len()
    }

    /// Adds an item with features `(f, z)` to `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn add(&mut self, channel: usize, f: f64, z: f64) {
        self.freq[channel] += f;
        self.size[channel] += z;
        self.items[channel] += 1;
    }

    /// Removes an item with features `(f, z)` from `channel`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the channel has no items.
    pub fn remove(&mut self, channel: usize, f: f64, z: f64) {
        debug_assert!(self.items[channel] > 0, "removing from empty channel");
        self.freq[channel] -= f;
        self.size[channel] -= z;
        self.items[channel] -= 1;
    }

    /// Moves an item with features `(f, z)` from `from` to `to`.
    pub fn relocate(&mut self, from: usize, to: usize, f: f64, z: f64) {
        if from == to {
            return;
        }
        self.remove(from, f, z);
        self.add(to, f, z);
    }

    /// Eq. 4 cost reduction of moving an item with features `(f, z)` from
    /// `from` to `to`: `Δc = f (Z_p − Z_q) + z (F_p − F_q) − 2 f z`.
    ///
    /// Positive values mean the move lowers total cost.
    pub fn move_reduction(&self, from: usize, to: usize, f: f64, z: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        f * (self.size[from] - self.size[to]) + z * (self.freq[from] - self.freq[to])
            - 2.0 * f * z
    }

    /// Aggregate frequency `F_i` of a channel.
    pub fn frequency(&self, channel: usize) -> f64 {
        self.freq[channel]
    }

    /// Aggregate size `Z_i` of a channel.
    pub fn size(&self, channel: usize) -> f64 {
        self.size[channel]
    }

    /// Item count `N_i` of a channel.
    pub fn item_count(&self, channel: usize) -> usize {
        self.items[channel]
    }

    /// Cost `F_i · Z_i` of a channel.
    pub fn channel_cost(&self, channel: usize) -> f64 {
        self.freq[channel] * self.size[channel]
    }

    /// Total cost `Σ_i F_i Z_i`.
    pub fn total_cost(&self) -> f64 {
        self.freq.iter().zip(&self.size).map(|(f, z)| f * z).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemSpec;

    fn db() -> Database {
        Database::try_from_specs(vec![
            ItemSpec::new(0.4, 2.0),
            ItemSpec::new(0.3, 3.0),
            ItemSpec::new(0.2, 5.0),
            ItemSpec::new(0.1, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn channel_cost_empty_is_zero() {
        assert_eq!(channel_cost(std::iter::empty()), 0.0);
    }

    #[test]
    fn channel_cost_matches_manual() {
        let c = channel_cost([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)]);
        assert!((c - 0.6 * 6.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_cost_matches_allocation_type() {
        let db = db();
        let assignment = vec![0, 1, 0, 1];
        let via_fn = allocation_cost(&db, 2, &assignment).unwrap();
        let via_alloc =
            crate::Allocation::from_assignment(&db, 2, assignment).unwrap().total_cost();
        assert!((via_fn - via_alloc).abs() < 1e-12);
    }

    #[test]
    fn allocation_cost_validates() {
        let db = db();
        assert!(allocation_cost(&db, 0, &[0, 0, 0, 0]).is_err());
        assert!(allocation_cost(&db, 2, &[0, 0]).is_err());
        assert!(allocation_cost(&db, 2, &[0, 0, 0, 5]).is_err());
    }

    #[test]
    fn tracker_matches_reference_after_random_walk() {
        let db = db();
        let mut assignment = vec![0usize, 0, 1, 2];
        let mut t = CostTracker::from_assignment(&db, 3, &assignment).unwrap();
        // Deterministic pseudo-random walk over moves.
        let mut state = 12345u64;
        for _ in 0..200 {
            state =
                state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let item = (state >> 33) as usize % 4;
            let to = (state >> 17) as usize % 3;
            let from = assignment[item];
            let d = &db.items()[item];
            let predicted = t.move_reduction(from, to, d.frequency(), d.size());
            let before = t.total_cost();
            t.relocate(from, to, d.frequency(), d.size());
            assignment[item] = to;
            let expected = allocation_cost(&db, 3, &assignment).unwrap();
            assert!((t.total_cost() - expected).abs() < 1e-9);
            assert!((before - t.total_cost() - predicted).abs() < 1e-9);
        }
    }

    #[test]
    fn tracker_same_channel_move_is_zero() {
        let t = {
            let mut t = CostTracker::new(2);
            t.add(0, 0.5, 2.0);
            t
        };
        assert_eq!(t.move_reduction(0, 0, 0.5, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn tracker_zero_channels_panics() {
        let _ = CostTracker::new(0);
    }
}
