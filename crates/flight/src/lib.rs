//! dbcast-flight: the always-on flight recorder for the serving
//! runtime, plus the machinery that gets its contents out of the
//! process — live HTTP exposition and postmortem dumps.
//!
//! Five pieces:
//!
//! * [`FlightRing`] — a fixed-capacity, lock-free ring of structured
//!   [`event::FlightEvent`]s, a typed view over the obs crate's
//!   [`SeqRing`]. Recording is wait-free (one `fetch_add` plus atomic
//!   stores) and allocation-free, so it is
//!   *always on*: the serving loop records ticks, served requests,
//!   drift scores, repair dispatch/outcomes, swap publishes and budget
//!   exhaustions unconditionally, independent of the `obs` feature.
//! * [`postmortem`] — triggers (a process panic via the installed
//!   hook, or an explicit incident such as a drift alarm) dump the
//!   last events plus a full metrics snapshot to a timestamped JSON
//!   file under the armed `--postmortem-dir`.
//! * [`http::ExpositionServer`] — a blocking HTTP responder serving
//!   `/metrics` (OpenMetrics text), `/flight` (the ring as a
//!   [`FlightDoc`]) and `/status` (a [`StatusDoc`]), all built from
//!   snapshot reads.
//! * [`Listener`] — the one capped accept loop under every TCP server
//!   in the workspace, this endpoint included.
//! * [`watchdog`] — sustained threshold and stall rules over the live
//!   registry that fire flight events and postmortem dumps.
//!
//! Every JSON document here travels in the `dbcast_obs::doc` envelope.
//!
//! The crate-level [`recorder()`] is the process-global ring everything
//! writes to; it exists so the panic hook and the exposition endpoint
//! see the same events the serving loop records, with no plumbing.

pub mod event;
pub mod http;
pub mod listener;
pub mod postmortem;
pub mod watchdog;

pub use event::{EventKind, FlightEvent};
pub use http::{ExpositionServer, Route, StatusDoc};
pub use listener::{Listener, StopToken};
pub use postmortem::Postmortem;
pub use watchdog::{Firing, Watchdog, WatchdogThread};

use std::sync::OnceLock;

use dbcast_obs::doc::Document;
use dbcast_obs::ring::SeqRing;
use serde::{Deserialize, Serialize};

/// A fixed-capacity, wait-free-write ring of [`FlightEvent`]s; each
/// event is stored as six words of a [`SeqRing`].
#[derive(Debug)]
pub struct FlightRing(SeqRing<6>);

impl FlightRing {
    /// Creates a ring holding the most recent `capacity` events
    /// (rounded up to a power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        FlightRing(SeqRing::new(capacity))
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Total events ever recorded (monotone; `recorded - capacity`
    /// of them have been overwritten when it exceeds the capacity).
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Records one event (its `seq` is ignored; the ring assigns it).
    /// Wait-free and allocation-free for any number of writers.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        self.0.record(event.to_words());
    }

    /// Copies the most recent events, oldest first, tagged with their
    /// global sequence index. Slots a concurrent writer touched
    /// mid-read are skipped, so the sequence indices are strictly
    /// increasing.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.0.snapshot(FlightEvent::from_words)
    }

    /// The ring as a `/flight` document.
    pub fn doc(&self) -> FlightDoc {
        let events = self.snapshot();
        FlightDoc { capacity: self.capacity(), recorded: self.recorded(), events }
    }
}

/// The `/flight` document: ring statistics plus the retained events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FlightDoc {
    /// Ring capacity (events retained).
    pub capacity: usize,
    /// Events ever recorded.
    pub recorded: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl Document for FlightDoc {
    const KIND: &'static str = "flight";
    const SCHEMA: u32 = 1;

    fn check(&self) -> Result<(), String> {
        if self.events.len() > self.capacity {
            return Err(format!(
                "{} events exceed the capacity {}",
                self.events.len(),
                self.capacity
            ));
        }
        if !self.events.windows(2).all(|w| w[0].seq < w[1].seq) {
            return Err("event sequence numbers are not strictly increasing".into());
        }
        Ok(())
    }
}

/// Default capacity of the global recorder (events retained).
pub const DEFAULT_CAPACITY: usize = 4096;

/// The process-global flight ring. Created on first use with
/// [`DEFAULT_CAPACITY`]; all production recording goes through this.
pub fn recorder() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| FlightRing::new(DEFAULT_CAPACITY))
}

/// Records one event on the global recorder. Wait-free and
/// allocation-free; safe to call from the hot serving loop.
#[inline]
pub fn record(event: FlightEvent) {
    recorder().record(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_is_shared_and_records() {
        let before = recorder().recorded();
        record(FlightEvent::new(EventKind::Tick, 1, 0, 0.5).value(0.5));
        assert_eq!(recorder().recorded(), before + 1);
        assert_eq!(recorder().capacity(), DEFAULT_CAPACITY);
    }
}
