//! The `/exemplars` document: an [`AuditSnapshot`] rendered and
//! decoded through the `dbcast_obs::doc` envelope (kind `exemplars`,
//! schema 1).
//!
//! ```text
//! { "capacity": C, "recorded": R, "sampled": S, "tail": T,
//!   "straddled": X,
//!   "residuals": { "generation", "channels": [ { "channel", "requests",
//!                  "observed_mean", "predicted_mean", "residual" }, … ] },
//!   "history":   [ { "generation", "channels": [same shape] }, … ],
//!   "records":   [ { "request_id", "item", "arrival_tick",
//!                    "satisfied_tick", "generation", "channel",
//!                    "queue_position", "arrival", "wait", "predicted",
//!                    "straddle_penalty", "residual",
//!                    "seeded", "tail", "straddled" }, … ] }
//! ```
//!
//! [`Document::check`] holds the audit layer's core contract: every
//! record's decomposition `predicted + residual + straddle_penalty`
//! sums back to the observed wait within [`DECOMPOSITION_TOLERANCE`],
//! and every residual table's `residual = observed − predicted`.

use dbcast_obs::doc::Document;
use serde::{Deserialize, Serialize};

use crate::residual::ChannelResidual;
use crate::ring::TraceRecord;
use crate::AuditSnapshot;

/// Decomposition components must reassemble the observed wait within
/// this absolute-relative tolerance.
pub const DECOMPOSITION_TOLERANCE: f64 = 1e-9;

/// One sampled request as the `/exemplars` document carries it: the
/// [`TraceRecord`] with its residual and stage flags spelled out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExemplarRecord {
    /// Served-request ordinal.
    pub request_id: u64,
    /// Requested item index.
    pub item: u64,
    /// Tick index at arrival.
    pub arrival_tick: u64,
    /// Tick index at (projected) satisfaction.
    pub satisfied_tick: u64,
    /// Generation that admitted the request.
    pub generation: u64,
    /// Channel broadcasting the requested item.
    pub channel: u64,
    /// The request's position in the channel's cyclic queue.
    pub queue_position: u64,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Observed wait (virtual seconds).
    pub wait: f64,
    /// Eq. 2 per-item model prediction.
    pub predicted: f64,
    /// Wait past a program-swap boundary (0 when none was crossed).
    pub straddle_penalty: f64,
    /// `wait − predicted − straddle_penalty`.
    pub residual: f64,
    /// Caught by the seeded sampling stage.
    pub seeded: bool,
    /// Caught by the tail-biased (SLO-slow) stage.
    pub tail: bool,
    /// Straddled a program swap.
    pub straddled: bool,
}

impl ExemplarRecord {
    /// Virtual time at which the request was satisfied.
    pub fn completion(&self) -> f64 {
        self.arrival + self.wait
    }
}

impl From<TraceRecord> for ExemplarRecord {
    fn from(r: TraceRecord) -> Self {
        ExemplarRecord {
            request_id: r.request_id,
            item: r.item,
            arrival_tick: r.arrival_tick,
            satisfied_tick: r.satisfied_tick,
            generation: r.generation,
            channel: r.channel,
            queue_position: r.queue_position,
            arrival: r.arrival,
            wait: r.wait,
            predicted: r.predicted,
            straddle_penalty: r.straddle_penalty,
            residual: r.residual(),
            seeded: r.seeded(),
            tail: r.tail(),
            straddled: r.straddled(),
        }
    }
}

fn check_finite(what: &str, values: &[f64]) -> Result<(), String> {
    if values.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(format!("{what} has a non-finite number"))
    }
}

fn check_channels(channels: &[ChannelResidual], what: &str) -> Result<(), String> {
    for (i, c) in channels.iter().enumerate() {
        let what = format!("{what}[{i}]");
        if c.channel != i {
            return Err(format!("{what} is channel {}, expected {i}", c.channel));
        }
        check_finite(&what, &[c.observed_mean, c.predicted_mean, c.residual])?;
        let tol = DECOMPOSITION_TOLERANCE * c.observed_mean.abs().max(1.0);
        if (c.residual - (c.observed_mean - c.predicted_mean)).abs() > tol {
            return Err(format!(
                "{what} residual {} != observed {} - predicted {}",
                c.residual, c.observed_mean, c.predicted_mean
            ));
        }
        if c.requests == 0 && (c.observed_mean != 0.0 || c.predicted_mean != 0.0) {
            return Err(format!("{what} has means but zero requests"));
        }
    }
    Ok(())
}

fn check_record(r: &ExemplarRecord, what: &str) -> Result<(), String> {
    check_finite(what, &[r.arrival, r.wait, r.predicted, r.straddle_penalty, r.residual])?;
    if r.wait < 0.0 || r.predicted < 0.0 || r.straddle_penalty < 0.0 {
        return Err(format!("{what} has a negative wait component"));
    }
    let tol = DECOMPOSITION_TOLERANCE * r.wait.abs().max(1.0);
    if (r.predicted + r.residual + r.straddle_penalty - r.wait).abs() > tol {
        return Err(format!(
            "{what} decomposition {} + {} + {} does not sum to wait {}",
            r.predicted, r.residual, r.straddle_penalty, r.wait
        ));
    }
    if !r.seeded && !r.tail {
        return Err(format!("{what} was caught by neither sampling stage"));
    }
    if r.straddled != (r.straddle_penalty > 0.0) {
        return Err(format!(
            "{what} straddled={} but penalty={}",
            r.straddled, r.straddle_penalty
        ));
    }
    Ok(())
}

impl Document for AuditSnapshot {
    const KIND: &'static str = "exemplars";
    const SCHEMA: u32 = 1;

    /// A power-of-two capacity holding every record; residual tables
    /// in channel order with `residual = observed − predicted`;
    /// strictly increasing history generations and record ids; and
    /// per record, non-negative components that reassemble the wait, a
    /// sampling stage, and a straddle flag set exactly when a penalty
    /// was charged.
    fn check(&self) -> Result<(), String> {
        if !self.capacity.is_power_of_two() {
            return Err(format!("capacity {} is not a power of two", self.capacity));
        }
        check_channels(&self.residuals.channels, "residuals")?;
        if !self.history.windows(2).all(|w| w[0].generation < w[1].generation) {
            return Err("history generations not strictly increasing".into());
        }
        for (i, h) in self.history.iter().enumerate() {
            check_channels(&h.channels, &format!("history[{i}].channels"))?;
        }
        if self.records.len() > self.capacity {
            return Err(format!(
                "{} records exceed the declared capacity {}",
                self.records.len(),
                self.capacity
            ));
        }
        if !self.records.windows(2).all(|w| w[0].request_id < w[1].request_id) {
            return Err("record request_ids not strictly increasing".into());
        }
        for (i, r) in self.records.iter().enumerate() {
            check_record(r, &format!("records[{i}]"))?;
        }
        Ok(())
    }
}
