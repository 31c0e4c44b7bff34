//! Wire format for the broadcast transport.
//!
//! Every frame on the wire has the same envelope:
//!
//! ```text
//! +-------+---------+------+-----------+---------+-------------+
//! | magic | version | type | len (LE)  | payload | fnv32 (LE)  |
//! | 4 B   | 1 B     | 1 B  | 4 B       | len B   | 4 B         |
//! +-------+---------+------+-----------+---------+-------------+
//! ```
//!
//! The checksum is FNV-1a/32 over the type byte followed by the payload,
//! so a frame whose body was corrupted *or* whose type byte was flipped
//! both fail verification. All multi-byte integers are little-endian;
//! floating-point fields travel as the IEEE-754 bit pattern of an `f64`.
//!
//! Times on the wire are **virtual broadcast seconds**, not wall-clock:
//! a data frame says "item `i` occupies `[start, start + duration)` of
//! channel `c` in generation `g`". The TCP stream itself runs as fast as
//! the pipe allows; clients reconstruct timing analytically, which keeps
//! fleet measurements deterministic and directly comparable to Eq. 2.

use std::fmt;

use dbcast_obs::metrics::{HistogramCells, BUCKETS};
use dbcast_serve::FleetDigest;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DBN1";

/// Current protocol version, byte 5 of the envelope.
pub const VERSION: u8 = 1;

/// Envelope bytes before the payload: magic + version + type + length.
pub const HEADER_LEN: usize = 10;

/// Envelope bytes after the payload: the FNV-1a/32 checksum.
pub const TRAILER_LEN: usize = 4;

/// Hard cap on payload size; anything larger is a framing error. Big
/// enough for a directory of any realistic program, small enough that a
/// corrupted length field cannot make the decoder buffer gigabytes.
pub const MAX_PAYLOAD: usize = 16 << 20;

const TYPE_DATA: u8 = 1;
const TYPE_INDEX: u8 = 2;
const TYPE_DIRECTORY: u8 = 3;
const TYPE_END: u8 = 4;
const TYPE_TELEMETRY: u8 = 5;

/// Fixed payload size of a data frame.
const DATA_PAYLOAD_LEN: usize = 32;

/// Telemetry flags bit for [`FleetDigest::slice`]: the digest carries
/// a finished per-generation measurement slice (means, Eq. 2
/// prediction, histogram deltas). Unset means a lightweight live
/// **ack**. No other flag bit is defined; the decoder rejects them.
const TELEMETRY_FLAG_SLICE: u32 = 1;

/// One item occurrence on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFrame {
    /// Broadcast channel the slot belongs to.
    pub channel: u32,
    /// Database index of the item airing in the slot.
    pub item: u32,
    /// Program generation the slot was scheduled under.
    pub generation: u64,
    /// Virtual time the slot starts airing (seconds).
    pub start: f64,
    /// Virtual airtime of the slot (seconds).
    pub duration: f64,
}

/// One entry of a (1,m) index frame: an upcoming item and when it airs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// Database index of the item.
    pub item: u32,
    /// Virtual start time of the item's next occurrence.
    pub next_start: f64,
}

/// A (1,m) air-index broadcast: lets clients doze until their item.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexFrame {
    /// Channel the index describes.
    pub channel: u32,
    /// Which of the m interleaved copies this is (0-based).
    pub copy: u32,
    /// Program generation the index was computed for.
    pub generation: u64,
    /// Virtual time the index itself starts airing.
    pub start: f64,
    /// Virtual airtime of the index frame.
    pub duration: f64,
    /// Upcoming item occurrences, one per item carried by the channel.
    pub entries: Vec<IndexEntry>,
}

/// A complete frame as seen on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One item occurrence.
    Data(DataFrame),
    /// One (1,m) index broadcast.
    Index(IndexFrame),
    /// Opaque directory payload (JSON); describes the serving program.
    Directory(Vec<u8>),
    /// End of stream; `horizon` is the last virtual instant covered.
    End {
        /// Virtual time up to which the stream is complete.
        horizon: f64,
    },
    /// One client telemetry digest (uplink direction). Boxed: the
    /// inline histogram cells would otherwise quintuple the size of
    /// every `Frame` moved through the broadcast egress path.
    /// On the wire, flag bit 1 is [`FleetDigest::slice`], and histogram
    /// cells travel as sparse `(bucket, count)` pairs in strictly
    /// ascending bucket order (the canonical encoding).
    Telemetry(Box<FleetDigest>),
}

/// Typed decoding failures. All are recoverable: after an error the
/// decoder resynchronises by scanning forward for the next magic.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The next four bytes were not [`MAGIC`].
    BadMagic,
    /// Unknown protocol version byte.
    Version(u8),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Checksum mismatch between wire and recomputation.
    Checksum {
        /// Checksum carried on the wire.
        expected: u32,
        /// Checksum recomputed from the received bytes.
        found: u32,
    },
    /// The payload did not parse as the declared frame type.
    Payload(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::Version(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::Oversize(n) => write!(f, "payload length {n} exceeds cap"),
            DecodeError::Checksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: wire {expected:#010x}, computed {found:#010x}"
                )
            }
            DecodeError::Payload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a/32 over a byte slice.
fn fnv1a32(type_byte: u8, payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    h ^= u32::from(type_byte);
    h = h.wrapping_mul(0x0100_0193);
    for &b in payload {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Writes the envelope around a payload already appended to `out`.
///
/// Call sequence: `begin_frame` reserves the header, the caller appends
/// the payload, `finish_frame` fills in length + checksum. Kept private;
/// the typed `encode_*` functions below are the public surface.
fn encode_envelope(out: &mut Vec<u8>, frame_type: u8, build: impl FnOnce(&mut Vec<u8>)) {
    let base = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type);
    out.extend_from_slice(&[0u8; 4]);
    let payload_at = out.len();
    build(out);
    let len = (out.len() - payload_at) as u32;
    out[base + 6..base + 10].copy_from_slice(&len.to_le_bytes());
    let sum = fnv1a32(frame_type, &out[payload_at..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Appends the wire encoding of a data frame to `out` without clearing
/// it. This is the steady-state egress path; with a warm (pre-sized)
/// buffer it performs **zero heap allocations** — pinned by a perf test.
pub fn encode_data_frame_into(out: &mut Vec<u8>, frame: &DataFrame) {
    encode_envelope(out, TYPE_DATA, |buf| {
        buf.extend_from_slice(&frame.channel.to_le_bytes());
        buf.extend_from_slice(&frame.item.to_le_bytes());
        buf.extend_from_slice(&frame.generation.to_le_bytes());
        push_f64(buf, frame.start);
        push_f64(buf, frame.duration);
    });
}

fn push_cells(buf: &mut Vec<u8>, cells: &HistogramCells) {
    buf.extend_from_slice(&cells.sum.to_le_bytes());
    buf.extend_from_slice(&cells.min.to_le_bytes());
    buf.extend_from_slice(&cells.max.to_le_bytes());
    let n = cells.buckets.iter().filter(|&&c| c > 0).count() as u32;
    buf.extend_from_slice(&n.to_le_bytes());
    for (i, &c) in cells.buckets.iter().enumerate() {
        if c > 0 {
            buf.push(i as u8);
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
}

/// Appends the wire encoding of a telemetry digest to `out` without
/// clearing it. This is the steady-state uplink path; with a warm
/// (pre-sized) buffer it performs **zero heap allocations** — pinned
/// by a perf test, like the data-frame egress path.
pub fn encode_telemetry_frame_into(out: &mut Vec<u8>, t: &FleetDigest) {
    encode_envelope(out, TYPE_TELEMETRY, |buf| {
        let flags = if t.slice { TELEMETRY_FLAG_SLICE } else { 0 };
        buf.extend_from_slice(&t.client.to_le_bytes());
        buf.extend_from_slice(&t.seq.to_le_bytes());
        buf.extend_from_slice(&flags.to_le_bytes());
        buf.extend_from_slice(&t.last_generation.to_le_bytes());
        buf.extend_from_slice(&t.generation.to_le_bytes());
        push_f64(buf, t.origin);
        buf.extend_from_slice(&t.samples.to_le_bytes());
        push_f64(buf, t.mean_access);
        push_f64(buf, t.mean_tuning);
        push_f64(buf, t.predicted_access);
        for v in [t.requests, t.completed, t.cache_hits, t.conflicts, t.retunes, t.torn] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        push_cells(buf, &t.access);
        push_cells(buf, &t.tuning);
        buf.extend_from_slice(&(t.coverage.len() as u32).to_le_bytes());
        for &(channel, frames) in &t.coverage {
            buf.extend_from_slice(&channel.to_le_bytes());
            buf.extend_from_slice(&frames.to_le_bytes());
        }
    });
}

/// Appends the wire encoding of any frame to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Data(d) => encode_data_frame_into(out, d),
        Frame::Index(ix) => encode_envelope(out, TYPE_INDEX, |buf| {
            buf.extend_from_slice(&ix.channel.to_le_bytes());
            buf.extend_from_slice(&ix.copy.to_le_bytes());
            buf.extend_from_slice(&ix.generation.to_le_bytes());
            push_f64(buf, ix.start);
            push_f64(buf, ix.duration);
            buf.extend_from_slice(&(ix.entries.len() as u32).to_le_bytes());
            for e in &ix.entries {
                buf.extend_from_slice(&e.item.to_le_bytes());
                push_f64(buf, e.next_start);
            }
        }),
        Frame::Directory(json) => encode_envelope(out, TYPE_DIRECTORY, |buf| {
            buf.extend_from_slice(json);
        }),
        Frame::End { horizon } => encode_envelope(out, TYPE_END, |buf| {
            push_f64(buf, *horizon);
        }),
        Frame::Telemetry(t) => encode_telemetry_frame_into(out, t),
    }
}

/// Convenience: the wire encoding of a frame as a fresh vector.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + TRAILER_LEN + 64);
    encode_frame_into(&mut out, frame);
    out
}

/// Little cursor over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Payload("payload shorter than declared fields"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finite_f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(DecodeError::Payload(what))
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Parses one sparse histogram-cells block into `cells`, reusing its
/// (inline, heap-free) storage.
fn parse_cells_into(
    c: &mut Cursor<'_>,
    cells: &mut HistogramCells,
) -> Result<(), DecodeError> {
    *cells = HistogramCells::empty();
    let sum = c.u64()?;
    let min = c.u64()?;
    let max = c.u64()?;
    let n = c.u32()? as usize;
    if n > BUCKETS {
        return Err(DecodeError::Payload("telemetry bucket count exceeds bucket space"));
    }
    if c.remaining() < n * 9 {
        return Err(DecodeError::Payload("telemetry bucket count disagrees with length"));
    }
    let mut prev: i32 = -1;
    for _ in 0..n {
        let idx = c.take(1)?[0];
        if usize::from(idx) >= BUCKETS || i32::from(idx) <= prev {
            return Err(DecodeError::Payload("telemetry buckets out of order"));
        }
        let count = c.u64()?;
        if count == 0 {
            return Err(DecodeError::Payload("empty telemetry bucket on the wire"));
        }
        cells.buckets[usize::from(idx)] = count;
        cells.count = cells.count.wrapping_add(count);
        prev = i32::from(idx);
    }
    if cells.count == 0 {
        if sum != 0 || min != u64::MAX || max != 0 {
            return Err(DecodeError::Payload("non-canonical empty telemetry cells"));
        }
    } else if min > max {
        return Err(DecodeError::Payload("telemetry cells min exceeds max"));
    }
    cells.sum = sum;
    cells.min = min;
    cells.max = max;
    Ok(())
}

fn parse_telemetry_into(
    c: &mut Cursor<'_>,
    t: &mut FleetDigest,
) -> Result<(), DecodeError> {
    t.client = c.u32()?;
    t.seq = c.u32()?;
    let flags = c.u32()?;
    if flags & !TELEMETRY_FLAG_SLICE != 0 {
        return Err(DecodeError::Payload("unknown telemetry flag bits"));
    }
    t.slice = flags != 0;
    t.last_generation = c.u64()?;
    t.generation = c.u64()?;
    t.origin = c.finite_f64("non-finite telemetry origin")?;
    t.samples = c.u64()?;
    t.mean_access = c.finite_f64("non-finite telemetry mean access")?;
    t.mean_tuning = c.finite_f64("non-finite telemetry mean tuning")?;
    t.predicted_access = c.finite_f64("non-finite telemetry predicted access")?;
    t.requests = c.u64()?;
    t.completed = c.u64()?;
    t.cache_hits = c.u64()?;
    t.conflicts = c.u64()?;
    t.retunes = c.u64()?;
    t.torn = c.u64()?;
    parse_cells_into(c, &mut t.access)?;
    parse_cells_into(c, &mut t.tuning)?;
    let n = c.u32()? as usize;
    if c.remaining() != n * 12 {
        return Err(DecodeError::Payload("telemetry coverage count disagrees with length"));
    }
    t.coverage.clear();
    let mut prev: i64 = -1;
    for _ in 0..n {
        let channel = c.u32()?;
        if i64::from(channel) <= prev {
            return Err(DecodeError::Payload("telemetry coverage out of order"));
        }
        prev = i64::from(channel);
        t.coverage.push((channel, c.u64()?));
    }
    Ok(())
}

/// Parses a telemetry payload into a caller-owned digest, reusing its
/// coverage buffer. With warm capacity this is the **zero-allocation**
/// steady-state uplink decode path (pinned by a perf test); the
/// general [`FrameDecoder`] route allocates a fresh frame instead.
///
/// # Errors
///
/// Returns the same typed [`DecodeError::Payload`] failures the frame
/// decoder reports for a malformed telemetry body.
pub fn decode_telemetry_payload(
    payload: &[u8],
    t: &mut FleetDigest,
) -> Result<(), DecodeError> {
    let mut c = Cursor::new(payload);
    parse_telemetry_into(&mut c, t)?;
    if c.done() {
        Ok(())
    } else {
        Err(DecodeError::Payload("trailing bytes after payload fields"))
    }
}

fn parse_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Cursor::new(payload);
    let frame = match frame_type {
        TYPE_DATA => {
            if payload.len() != DATA_PAYLOAD_LEN {
                return Err(DecodeError::Payload("data frame payload must be 32 bytes"));
            }
            Frame::Data(DataFrame {
                channel: c.u32()?,
                item: c.u32()?,
                generation: c.u64()?,
                start: c.finite_f64("non-finite data start")?,
                duration: c.finite_f64("non-finite data duration")?,
            })
        }
        TYPE_INDEX => {
            let channel = c.u32()?;
            let copy = c.u32()?;
            let generation = c.u64()?;
            let start = c.finite_f64("non-finite index start")?;
            let duration = c.finite_f64("non-finite index duration")?;
            let count = c.u32()? as usize;
            if payload.len() != 32 + 4 + count * 12 {
                return Err(DecodeError::Payload(
                    "index entry count disagrees with length",
                ));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(IndexEntry {
                    item: c.u32()?,
                    next_start: c.finite_f64("non-finite index entry start")?,
                });
            }
            Frame::Index(IndexFrame { channel, copy, generation, start, duration, entries })
        }
        TYPE_DIRECTORY => Frame::Directory(payload.to_vec()),
        TYPE_END => {
            if payload.len() != 8 {
                return Err(DecodeError::Payload("end frame payload must be 8 bytes"));
            }
            Frame::End { horizon: c.finite_f64("non-finite stream horizon")? }
        }
        TYPE_TELEMETRY => {
            let mut t = Box::new(FleetDigest::ack(0, 0, 0));
            parse_telemetry_into(&mut c, &mut t)?;
            Frame::Telemetry(t)
        }
        other => return Err(DecodeError::UnknownType(other)),
    };
    if matches!(frame, Frame::Directory(_)) || c.done() {
        Ok(frame)
    } else {
        Err(DecodeError::Payload("trailing bytes after payload fields"))
    }
}

/// Incremental, split-tolerant frame decoder.
///
/// Feed arbitrary byte chunks with [`push`](FrameDecoder::push) and pull
/// complete frames with [`next_frame`](FrameDecoder::next_frame). On any
/// decode error the stream position advances past the bad byte and the
/// decoder scans forward for the next magic, so a single corrupted frame
/// costs exactly one error, never a wedged connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by (one frame + one read chunk).
        if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes. Non-zero after the
    /// producer closed means the stream ended mid-frame (truncation).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Skips one byte, then aligns to the next candidate magic byte.
    fn resync(&mut self) {
        self.pos += 1;
        while self.pos < self.buf.len() && self.buf[self.pos] != MAGIC[0] {
            self.pos += 1;
        }
    }

    /// Tries to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(frame))`
    /// on success, and `Err` on a malformed region (after which calling
    /// again resumes at the next plausible frame boundary).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let head = &self.buf[self.pos..];
        if head[..4] != MAGIC {
            self.resync();
            return Err(DecodeError::BadMagic);
        }
        if head[4] != VERSION {
            let v = head[4];
            self.resync();
            return Err(DecodeError::Version(v));
        }
        let frame_type = head[5];
        if !(TYPE_DATA..=TYPE_TELEMETRY).contains(&frame_type) {
            self.resync();
            return Err(DecodeError::UnknownType(frame_type));
        }
        let len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]);
        if len as usize > MAX_PAYLOAD {
            self.resync();
            return Err(DecodeError::Oversize(len));
        }
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        if avail < total {
            return Ok(None);
        }
        let payload =
            &self.buf[self.pos + HEADER_LEN..self.pos + HEADER_LEN + len as usize];
        let wire_sum = {
            let t = &self.buf[self.pos + HEADER_LEN + len as usize..self.pos + total];
            u32::from_le_bytes([t[0], t[1], t[2], t[3]])
        };
        let computed = fnv1a32(frame_type, payload);
        if wire_sum != computed {
            self.resync();
            return Err(DecodeError::Checksum { expected: wire_sum, found: computed });
        }
        // Well-framed either way: consume the whole frame even when
        // the payload is semantically bad — the envelope boundaries
        // are trustworthy.
        let parsed = parse_payload(frame_type, payload);
        self.pos += total;
        parsed.map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> FleetDigest {
        let mut access = HistogramCells::empty();
        let mut tuning = HistogramCells::empty();
        for v in [1_500_000u64, 2_250_000, 40] {
            access.record(v);
            tuning.record(v / 3);
        }
        FleetDigest {
            client: 4,
            seq: 9,
            slice: true,
            last_generation: 3,
            generation: 2,
            origin: 17.25,
            samples: 3,
            mean_access: 1.25,
            mean_tuning: 0.41,
            predicted_access: 1.19,
            requests: 5,
            completed: 5,
            cache_hits: 1,
            conflicts: 2,
            retunes: 0,
            torn: 0,
            access,
            tuning,
            coverage: vec![(0, 120), (2, 87)],
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Directory(br#"{"generation":0}"#.to_vec()),
            Frame::Telemetry(Box::new(sample_telemetry())),
            Frame::Data(DataFrame {
                channel: 2,
                item: 17,
                generation: 3,
                start: 1.5,
                duration: 0.25,
            }),
            Frame::Index(IndexFrame {
                channel: 1,
                copy: 0,
                generation: 3,
                start: 2.0,
                duration: 0.125,
                entries: vec![
                    IndexEntry { item: 4, next_start: 2.5 },
                    IndexEntry { item: 9, next_start: 3.75 },
                ],
            }),
            Frame::End { horizon: 12.0 },
        ]
    }

    #[test]
    fn round_trips_every_frame_type() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(&mut wire, f);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().expect("clean stream decodes") {
            got.push(f);
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn detects_corruption_and_resyncs() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(&mut wire, f);
        }
        // Flip one payload byte of the second frame.
        let first_len = encode_frame(&frames[0]).len();
        wire[first_len + HEADER_LEN + 3] ^= 0xff;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut ok = 0;
        let mut errs = 0;
        loop {
            match dec.next_frame() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => break,
                Err(_) => errs += 1,
            }
        }
        // The corrupted frame is lost; everything after is recovered.
        assert!(errs >= 1);
        assert!(ok >= frames.len() - 1, "recovered {ok} of {}", frames.len());
    }

    #[test]
    fn telemetry_decode_into_reuses_buffers_and_matches_decoder() {
        let t = sample_telemetry();
        let mut wire = Vec::new();
        encode_telemetry_frame_into(&mut wire, &t);
        let payload = &wire[HEADER_LEN..wire.len() - TRAILER_LEN];
        let mut reused = FleetDigest::ack(0, 0, 0);
        reused.coverage.reserve(8);
        decode_telemetry_payload(payload, &mut reused).expect("clean payload decodes");
        assert_eq!(reused, t);
        // An ack (empty cells, no coverage) round-trips too.
        let ack = FleetDigest::ack(7, 0, 5);
        let mut wire = Vec::new();
        encode_telemetry_frame_into(&mut wire, &ack);
        let payload = &wire[HEADER_LEN..wire.len() - TRAILER_LEN];
        decode_telemetry_payload(payload, &mut reused).expect("ack decodes");
        assert_eq!(reused, ack);
    }

    #[test]
    fn telemetry_rejects_malformed_cells() {
        let t = sample_telemetry();
        let mut wire = Vec::new();
        encode_telemetry_frame_into(&mut wire, &t);
        let payload = wire[HEADER_LEN..wire.len() - TRAILER_LEN].to_vec();
        let mut out = FleetDigest::ack(0, 0, 0);
        // Truncation anywhere inside the payload is a typed error.
        for cut in 0..payload.len() {
            assert!(
                decode_telemetry_payload(&payload[..cut], &mut out).is_err(),
                "truncated payload of {cut} bytes decoded"
            );
        }
        // A non-canonical empty-cells block (sum without buckets) is
        // rejected: 176-byte fixed head, then sum at the access block.
        let mut ack = FleetDigest::ack(0, 0, 0);
        ack.access.sum = 9;
        let mut wire = Vec::new();
        encode_telemetry_frame_into(&mut wire, &ack);
        let payload = &wire[HEADER_LEN..wire.len() - TRAILER_LEN];
        assert!(decode_telemetry_payload(payload, &mut out).is_err());
    }

    #[test]
    fn telemetry_flags_keep_their_bytes_and_reject_unknown_bits() {
        let mut wire = Vec::new();
        encode_telemetry_frame_into(&mut wire, &sample_telemetry());
        let mut payload = wire[HEADER_LEN..wire.len() - TRAILER_LEN].to_vec();
        // Flags follow client and seq: a slice is exactly bit 1.
        assert_eq!(payload[8..12], 1u32.to_le_bytes());
        let mut out = FleetDigest::ack(0, 0, 0);
        for flags in [2u32, 3, 1 << 31] {
            payload[8..12].copy_from_slice(&flags.to_le_bytes());
            assert_eq!(
                decode_telemetry_payload(&payload, &mut out),
                Err(DecodeError::Payload("unknown telemetry flag bits")),
                "flags {flags:#x} decoded"
            );
        }
    }

    #[test]
    fn data_encode_is_stable() {
        let d = DataFrame { channel: 0, item: 0, generation: 0, start: 0.0, duration: 1.0 };
        let mut a = Vec::new();
        encode_data_frame_into(&mut a, &d);
        assert_eq!(a.len(), HEADER_LEN + DATA_PAYLOAD_LEN + TRAILER_LEN);
        assert_eq!(&a[..4], &MAGIC);
        assert_eq!(a[4], VERSION);
    }
}
