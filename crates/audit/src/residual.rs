//! Eq. 2 residual attribution: per-(channel, generation) accounting of
//! observed mean wait against the analytical per-item prediction
//! `cycle_c/(2b) + z_i/b`.
//!
//! The ledger is written by the serving loop only (load-add-store on
//! per-channel atomics — safe under the runtime's single-writer
//! discipline) and read concurrently by the exposition endpoint. At a
//! program swap the generation's totals are frozen into a history
//! entry and the live accumulators reset against the incoming
//! generation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Frozen residual summary for one channel of one generation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChannelResidual {
    /// Channel index.
    pub channel: usize,
    /// Requests the channel served in the generation.
    pub requests: u64,
    /// Mean observed wait (seconds; 0 with no requests).
    pub observed_mean: f64,
    /// Mean Eq. 2 per-item prediction (seconds; 0 with no requests).
    pub predicted_mean: f64,
    /// `observed_mean − predicted_mean`: positive when the channel runs
    /// slower than the model that justified the allocation.
    pub residual: f64,
}

/// The residual summary of one (finished or live) generation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GenerationResiduals {
    /// Generation the means were accumulated under.
    pub generation: u64,
    /// One entry per channel, in channel order.
    pub channels: Vec<ChannelResidual>,
}

/// Per-channel accumulator cell (floats stored as raw bits).
#[derive(Debug)]
struct Cell {
    requests: AtomicU64,
    wait_sum: AtomicU64,
    predicted_sum: AtomicU64,
}

impl Cell {
    fn zero() -> Self {
        Cell {
            requests: AtomicU64::new(0),
            wait_sum: AtomicU64::new(0.0f64.to_bits()),
            predicted_sum: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    fn frozen(&self, channel: usize) -> ChannelResidual {
        let requests = self.requests.load(Ordering::Relaxed);
        let wait_sum = f64::from_bits(self.wait_sum.load(Ordering::Relaxed));
        let predicted_sum = f64::from_bits(self.predicted_sum.load(Ordering::Relaxed));
        let (observed_mean, predicted_mean) = if requests > 0 {
            (wait_sum / requests as f64, predicted_sum / requests as f64)
        } else {
            (0.0, 0.0)
        };
        ChannelResidual {
            channel,
            requests,
            observed_mean,
            predicted_mean,
            residual: observed_mean - predicted_mean,
        }
    }
}

/// Live residual accounting for the serving generation, plus a bounded
/// history of frozen generations.
#[derive(Debug)]
pub struct ResidualLedger {
    cells: Vec<Cell>,
    generation: AtomicU64,
    history: Mutex<Vec<GenerationResiduals>>,
    history_cap: usize,
}

impl ResidualLedger {
    /// Frozen generations retained (oldest evicted first).
    pub const HISTORY_CAP: usize = 32;

    /// Creates a ledger for `channels` channels, starting at
    /// generation 0.
    pub fn new(channels: usize) -> Self {
        ResidualLedger {
            cells: (0..channels).map(|_| Cell::zero()).collect(),
            generation: AtomicU64::new(0),
            history: Mutex::new(Vec::new()),
            history_cap: Self::HISTORY_CAP,
        }
    }

    /// Generation the live accumulators belong to.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Accounts one served request (serving loop only).
    /// Allocation-free: three load-add-stores on pre-sized atomics.
    #[inline]
    pub fn observe(&self, channel: usize, wait: f64, predicted: f64) {
        let Some(cell) = self.cells.get(channel) else { return };
        let n = cell.requests.load(Ordering::Relaxed) + 1;
        cell.requests.store(n, Ordering::Relaxed);
        let wait_sum = f64::from_bits(cell.wait_sum.load(Ordering::Relaxed)) + wait;
        cell.wait_sum.store(wait_sum.to_bits(), Ordering::Relaxed);
        let predicted_sum =
            f64::from_bits(cell.predicted_sum.load(Ordering::Relaxed)) + predicted;
        cell.predicted_sum.store(predicted_sum.to_bits(), Ordering::Relaxed);
    }

    /// The channel's live residual `(wait_sum − predicted_sum) / n`, or
    /// `None` before it has served a request in the live generation.
    pub fn residual(&self, channel: usize) -> Option<f64> {
        let cell = self.cells.get(channel)?;
        let n = cell.requests.load(Ordering::Relaxed);
        let wait_sum = f64::from_bits(cell.wait_sum.load(Ordering::Relaxed));
        let predicted_sum = f64::from_bits(cell.predicted_sum.load(Ordering::Relaxed));
        (n > 0).then(|| (wait_sum - predicted_sum) / n as f64)
    }

    /// The live generation's `(requests, wait_sum)` over all channels,
    /// summed in channel order without allocating.
    pub fn totals(&self) -> (u64, f64) {
        self.cells.iter().fold((0, 0.0), |(requests, wait_sum), cell| {
            (
                requests + cell.requests.load(Ordering::Relaxed),
                wait_sum + f64::from_bits(cell.wait_sum.load(Ordering::Relaxed)),
            )
        })
    }

    /// Snapshot of the live generation's residuals.
    pub fn current(&self) -> GenerationResiduals {
        GenerationResiduals {
            generation: self.generation(),
            channels: self
                .cells
                .iter()
                .enumerate()
                .map(|(i, cell)| cell.frozen(i))
                .collect(),
        }
    }

    /// At a swap: freezes the finished generation into the history and
    /// resets the live accumulators against `new_generation`.
    pub fn roll(&self, new_generation: u64) {
        let frozen = self.current();
        let mut history = self.history.lock().unwrap_or_else(|e| e.into_inner());
        if history.len() == self.history_cap {
            history.remove(0);
        }
        history.push(frozen);
        drop(history);
        self.reset();
        self.generation.store(new_generation, Ordering::Relaxed);
    }

    /// Zeroes the live accumulators without freezing them into the
    /// history (the generation number is kept).
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.requests.store(0, Ordering::Relaxed);
            cell.wait_sum.store(0.0f64.to_bits(), Ordering::Relaxed);
            cell.predicted_sum.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
    }

    /// Frozen generations, oldest first.
    pub fn history(&self) -> Vec<GenerationResiduals> {
        self.history.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_accumulates_running_residual() {
        let ledger = ResidualLedger::new(2);
        assert_eq!(ledger.residual(0), None);
        ledger.observe(0, 2.0, 1.5);
        assert_eq!(ledger.residual(0), Some(0.5));
        ledger.observe(0, 4.0, 1.5);
        let r = ledger.residual(0).unwrap();
        assert!((r - 1.5).abs() < 1e-12, "running residual {r}");
        assert_eq!(ledger.residual(1), None);
        assert_eq!(ledger.residual(2), None);
        // Channel 1 untouched.
        let current = ledger.current();
        assert_eq!(current.channels[1].requests, 0);
        assert_eq!(current.channels[0].requests, 2);
        assert!((current.channels[0].observed_mean - 3.0).abs() < 1e-12);
        assert!((current.channels[0].residual - 1.5).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_every_channel_and_reset_clears_them() {
        let ledger = ResidualLedger::new(3);
        ledger.observe(0, 2.0, 1.0);
        ledger.observe(2, 0.5, 1.0);
        ledger.observe(2, 1.0, 1.0);
        assert_eq!(ledger.totals(), (3, 3.5));
        ledger.reset();
        assert_eq!(ledger.totals(), (0, 0.0));
        assert_eq!(ledger.generation(), 0);
        assert!(ledger.history().is_empty(), "reset freezes nothing");
    }

    #[test]
    fn out_of_range_channel_is_ignored() {
        let ledger = ResidualLedger::new(1);
        ledger.observe(9, 1.0, 1.0);
        assert_eq!(ledger.residual(9), None);
        assert_eq!(ledger.current().channels.len(), 1);
        assert_eq!(ledger.totals(), (0, 0.0));
    }

    #[test]
    fn roll_freezes_history_and_resets() {
        let ledger = ResidualLedger::new(1);
        ledger.observe(0, 3.0, 1.0);
        ledger.roll(1);
        assert_eq!(ledger.generation(), 1);
        assert_eq!(ledger.current().channels[0].requests, 0);
        let history = ledger.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].generation, 0);
        assert!((history[0].channels[0].residual - 2.0).abs() < 1e-12);
    }

    #[test]
    fn history_is_bounded() {
        let ledger = ResidualLedger::new(1);
        for generation in 1..=(ResidualLedger::HISTORY_CAP as u64 + 8) {
            ledger.observe(0, generation as f64, 0.0);
            ledger.roll(generation);
        }
        let history = ledger.history();
        assert_eq!(history.len(), ResidualLedger::HISTORY_CAP);
        assert_eq!(history[0].generation, 8);
    }
}
