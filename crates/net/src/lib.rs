//! Framed TCP broadcast transport and simulated client fleet.
//!
//! The paper's cost model (Eq. 2/3) predicts *expected* access time;
//! this crate closes the loop by putting the live cyclic program on a
//! real wire and measuring what clients actually experience:
//!
//! * [`frame`] — the versioned, checksummed wire format. Frames carry
//!   **virtual broadcast time**, so the TCP stream runs at pipe speed
//!   while timing stays deterministic and Eq. 2-comparable.
//! * [`server`] — [`BroadcastServer`]: a fan-out server with a bounded
//!   per-subscriber queue and a drop-and-count slow-client policy, so
//!   one stalled client never back-pressures the serve loop. It and the
//!   uplink accept through one capped [`dbcast_flight::Listener`].
//! * [`egress`] — turns program generations (live from a serve
//!   runtime's epoch cell, or scripted for determinism) into data,
//!   index, and directory frames; hot swaps truncate straddling frames
//!   at the boundary and are announced by a fresh directory.
//! * [`world`] — the client's analytic picture: a [`Directory`] plus
//!   derived (1,m) index models, planning fetches exactly the way the
//!   `model` and `index` crates schedule them.
//! * [`client`] — record-then-measure clients composing the `index` and
//!   `cache` crates over the recorded air.
//! * [`fleet`] — N concurrent clients folded into a bit-reproducible
//!   [`FleetReport`], the `fleet-run` telemetry document.
//! * [`uplink`] — the reverse path: clients push generation-stamped
//!   telemetry digests over a second TCP connection, decoded with the
//!   same envelope discipline and folded into the serve-side
//!   [`FleetAggregator`](dbcast_serve::FleetAggregator) for live
//!   fleet-wide Eq. 2 tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod egress;
pub mod fleet;
pub mod frame;
pub mod server;
pub mod uplink;
pub mod world;

pub use client::{
    directory_database, generate_requests, measure, AirLog, CacheKind, ClientConfig,
    GeneratedRequest, RequestOutcome, WorkloadPattern,
};
pub use dbcast_index::IndexParams;
pub use egress::{
    run_egress, EgressConfig, EgressReport, EpochSource, ProgramSource, ScriptedSource,
    SourceGeneration,
};
pub use fleet::{
    predicted_access, run_fleet_inline, run_fleet_inline_with, run_fleet_with,
    ClientReport, FleetConfig, FleetReport, FleetTotals, GenerationSlice, StatSummary,
    UplinkConfig, FLEET_SCHEMA,
};
pub use frame::{
    decode_telemetry_payload, encode_data_frame_into, encode_frame, encode_frame_into,
    encode_telemetry_frame_into, DataFrame, DecodeError, Frame, FrameDecoder, IndexEntry,
    IndexFrame, HEADER_LEN, MAGIC, MAX_PAYLOAD, TRAILER_LEN, VERSION,
};
pub use server::{BroadcastServer, NetConfig, OverflowPolicy, MAX_SUBSCRIBERS};
pub use uplink::{DigestSink, UplinkClient, UplinkServer, MAX_UPLINKS};
pub use world::{Directory, FetchPlan, WorldView};
