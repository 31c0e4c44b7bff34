//! The structured events the flight recorder retains.
//!
//! Events are fixed-size so the ring can store them as six 64-bit
//! words with no allocation: a kind tag, the serving runtime's
//! tick/generation coordinates, a virtual timestamp, one `f64` payload
//! (`value`) and one `u64` payload (`extra`) whose meanings are
//! per-kind (documented on [`EventKind`]). The seventh field, `seq`, is
//! the ring index the event was recorded under.

use serde::{Deserialize, Serialize};

/// What happened. The `value`/`extra` payload meaning per kind:
///
/// | kind | `value` | `extra` |
/// |---|---|---|
/// | `Tick` | tick length (virtual s) | — |
/// | `RequestServed` | waiting time (virtual s) of a tail-slow request | item id |
/// | `DriftScore` | Eq. 3 gap over its floor, minus 1 | 1 if drift declared |
/// | `RepairStart` | drift score at dispatch | base generation |
/// | `RepairOutcome` | repair wall time (ms) | CDS moves applied |
/// | `SwapPublish` | Eq. 3 cost of the new generation | new generation |
/// | `BudgetExhausted` | remaining-gain lower bound | CDS moves applied |
/// | `SloBreach` | budget burn rate | slow requests so far |
/// | `Fault` | — | fault code (free-form) |
/// | `Watchdog` | observed signal value | rule index |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
#[repr(u8)]
pub enum EventKind {
    /// A virtual-time tick boundary was crossed.
    Tick = 0,
    /// A tail-slow request was served (its wait passed the audit
    /// tracer's slow threshold, a multiple of its own Eq. 2
    /// prediction); other requests are counted by the audit ledger, not
    /// recorded one by one.
    RequestServed = 1,
    /// A drift check ran (every tick once the gap floor is open).
    DriftScore = 2,
    /// The Eq. 3 gap rule dispatched a re-allocation.
    RepairStart = 3,
    /// A re-allocation finished computing.
    RepairOutcome = 4,
    /// A new generation was published through the EpochCell.
    SwapPublish = 5,
    /// A budgeted repair stopped with gain still available.
    BudgetExhausted = 6,
    /// The SLO error budget crossed burn rate 1.0.
    SloBreach = 7,
    /// A fault marker (injected panic, incident trigger, …).
    Fault = 8,
    /// A watchdog rule fired (sustained threshold or stall).
    Watchdog = 9,
}

impl EventKind {
    /// All kinds in tag order (`ALL[k as usize] == k`), for iteration
    /// in inspectors and for decoding tags.
    pub const ALL: [EventKind; 10] = [
        EventKind::Tick,
        EventKind::RequestServed,
        EventKind::DriftScore,
        EventKind::RepairStart,
        EventKind::RepairOutcome,
        EventKind::SwapPublish,
        EventKind::BudgetExhausted,
        EventKind::SloBreach,
        EventKind::Fault,
        EventKind::Watchdog,
    ];

    /// Stable lowercase name, as in the `/flight` document.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Tick => "tick",
            EventKind::RequestServed => "request_served",
            EventKind::DriftScore => "drift_score",
            EventKind::RepairStart => "repair_start",
            EventKind::RepairOutcome => "repair_outcome",
            EventKind::SwapPublish => "swap_publish",
            EventKind::BudgetExhausted => "budget_exhausted",
            EventKind::SloBreach => "slo_breach",
            EventKind::Fault => "fault",
            EventKind::Watchdog => "watchdog",
        }
    }

    /// Decodes a stored tag; unknown tags decode as [`EventKind::Fault`]
    /// (a snapshot must never panic on a torn or future-version slot).
    pub fn from_u64(v: u64) -> EventKind {
        usize::try_from(v)
            .ok()
            .and_then(|i| EventKind::ALL.get(i))
            .copied()
            .unwrap_or(EventKind::Fault)
    }
}

/// One recorded event (plain data; `seq` is assigned by the ring).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FlightEvent {
    /// Global sequence index (0 = first event ever recorded).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Serving tick at which it happened.
    pub tick: u64,
    /// Program generation serving at the time.
    pub generation: u64,
    /// Virtual timestamp (seconds).
    pub vtime: f64,
    /// Per-kind `f64` payload (see [`EventKind`]).
    pub value: f64,
    /// Per-kind `u64` payload (see [`EventKind`]).
    pub extra: u64,
}

impl FlightEvent {
    /// Builds an event with the payload fields zeroed; callers set
    /// what their kind uses.
    pub fn new(kind: EventKind, tick: u64, generation: u64, vtime: f64) -> Self {
        FlightEvent { seq: 0, kind, tick, generation, vtime, value: 0.0, extra: 0 }
    }

    /// Sets the `f64` payload.
    pub fn value(mut self, value: f64) -> Self {
        self.value = value;
        self
    }

    /// Sets the `u64` payload.
    pub fn extra(mut self, extra: u64) -> Self {
        self.extra = extra;
        self
    }

    /// The ring payload: every field but `seq`, floats as raw bits.
    pub(crate) fn to_words(self) -> [u64; 6] {
        [
            self.kind as u64,
            self.tick,
            self.generation,
            self.vtime.to_bits(),
            self.value.to_bits(),
            self.extra,
        ]
    }

    /// Rebuilds the event recorded under ring index `seq`.
    pub(crate) fn from_words(seq: u64, w: [u64; 6]) -> Self {
        FlightEvent {
            seq,
            kind: EventKind::from_u64(w[0]),
            tick: w[1],
            generation: w[2],
            vtime: f64::from_bits(w[3]),
            value: f64::from_bits(w[4]),
            extra: w[5],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_u64() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u64(kind as u64), kind);
        }
        assert_eq!(EventKind::from_u64(250), EventKind::Fault);
    }

    #[test]
    fn wire_names_are_the_stable_names() {
        for kind in EventKind::ALL {
            let wire = serde_json::to_string(&kind).unwrap();
            assert_eq!(wire, format!("\"{}\"", kind.name()));
        }
    }

    #[test]
    fn builder_sets_payloads() {
        let e = FlightEvent::new(EventKind::DriftScore, 7, 2, 3.5).value(0.4).extra(1);
        assert_eq!(e.tick, 7);
        assert_eq!(e.generation, 2);
        assert_eq!(e.value, 0.4);
        assert_eq!(e.extra, 1);
    }
}
