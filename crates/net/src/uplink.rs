//! The telemetry uplink: the reverse path of the broadcast.
//!
//! Downlink subscribers are mute — the server fans frames out and never
//! hears back. The uplink closes the loop: each client opens a second
//! TCP connection and pushes compact [`FleetDigest`]s (live generation
//! acknowledgements while recording, per-generation measurement slices
//! after), framed with the same DBN1 envelope, checksum and resync
//! discipline as the downlink. The [`UplinkServer`] decodes them on
//! per-connection reader threads, at most [`MAX_UPLINKS`] at once
//! (further connections are refused and counted on
//! `net.uplink.refused`), and hands every digest to a [`DigestSink`] —
//! in production the serve process's [`FleetAggregator`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbcast_flight::{Listener, StopToken};
use dbcast_obs::metrics::{Counter, Gauge};
use dbcast_serve::{FleetAggregator, FleetDigest};

use crate::frame::{encode_telemetry_frame_into, Frame, FrameDecoder};

/// Most uplink connections read at once; further ones are refused.
pub const MAX_UPLINKS: usize = 256;

/// Bytes read off the socket per call.
const READ_CHUNK: usize = 8192;

/// Most bytes a connection may leave buffered short of a complete
/// frame. The largest legitimate digest is two sparse histograms plus
/// 12 B per coverage channel, far under 64 KiB; a peer past this plus
/// one read chunk is sending something else, and is dropped.
const MAX_PENDING: usize = 64 * 1024 + READ_CHUNK;

/// Receives every decoded telemetry digest, in per-client arrival
/// order. Implementations must tolerate concurrent calls from
/// different connection reader threads.
pub trait DigestSink: Send + Sync {
    /// One digest, freshly decoded off an uplink connection.
    fn on_digest(&self, digest: &FleetDigest);
}

/// The production sink: fold digests straight into the serve-side
/// fleet aggregates.
impl DigestSink for FleetAggregator {
    fn on_digest(&self, digest: &FleetDigest) {
        self.ingest(digest);
    }
}

/// Resolved `net.uplink.*` metric handles.
#[derive(Debug)]
struct UplinkMetrics {
    frames: &'static Counter,
    bytes: &'static Counter,
    decode_errors: &'static Counter,
    clients: &'static Gauge,
}

impl UplinkMetrics {
    fn resolve() -> Self {
        let r = dbcast_obs::registry();
        UplinkMetrics {
            frames: r.counter("net.uplink.frames"),
            bytes: r.counter("net.uplink.bytes"),
            decode_errors: r.counter("net.uplink.decode_errors"),
            clients: r.gauge("net.uplink.clients"),
        }
    }
}

struct UplinkShared {
    sink: Arc<dyn DigestSink>,
    metrics: UplinkMetrics,
    // Local mirrors so behaviour is assertable with recording off.
    frames: AtomicU64,
    bytes: AtomicU64,
    decode_errors: AtomicU64,
    clients: AtomicU64,
}

impl UplinkShared {
    fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::SeqCst);
        self.metrics.decode_errors.inc();
    }
}

/// A telemetry ingest server on a TCP listener.
///
/// Dropping the server shuts it down: the accept loop stops and every
/// connection reader thread is joined.
pub struct UplinkServer {
    shared: Arc<UplinkShared>,
    listener: Listener,
}

impl std::fmt::Debug for UplinkServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UplinkServer").field("addr", &self.addr()).finish_non_exhaustive()
    }
}

/// Reader-side poll interval: blocking reads time out this often so a
/// reader can notice shutdown even on an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

impl UplinkServer {
    /// Binds `addr` and starts accepting uplink connections, handing
    /// every decoded digest to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        sink: Arc<dyn DigestSink>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(UplinkShared {
            sink,
            metrics: UplinkMetrics::resolve(),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            clients: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let listener = Listener::bind(addr, "net.uplink", MAX_UPLINKS, move |stream| {
            let shared = Arc::clone(&accept_shared);
            Some(move |stop: &StopToken| reader_loop(stream, &shared, stop))
        })?;
        Ok(UplinkServer { shared, listener })
    }

    /// The bound socket address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Telemetry frames decoded since startup.
    pub fn frames(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// Uplink bytes read since startup.
    pub fn bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::SeqCst)
    }

    /// Envelope/payload decode errors since startup, plus connections
    /// dropped for buffering more than a digest's worth of bytes.
    pub fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.load(Ordering::SeqCst)
    }

    /// Connections refused over [`MAX_UPLINKS`] since startup.
    pub fn refused(&self) -> u64 {
        self.listener.refused()
    }

    /// Stops accepting, interrupts every reader at its next poll, and
    /// joins all threads. Idempotent.
    pub fn shutdown(&self) {
        self.listener.shutdown();
        self.shared.metrics.clients.set(0.0);
    }
}

fn reader_loop(mut stream: TcpStream, shared: &UplinkShared, stop: &StopToken) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let clients = shared.clients.fetch_add(1, Ordering::SeqCst) + 1;
    shared.metrics.clients.set(clients as f64);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; READ_CHUNK];
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if stop.is_stopped() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        shared.bytes.fetch_add(n as u64, Ordering::SeqCst);
        shared.metrics.bytes.add(n as u64);
        decoder.push(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(Frame::Telemetry(t))) => {
                    shared.frames.fetch_add(1, Ordering::SeqCst);
                    shared.metrics.frames.inc();
                    shared.sink.on_digest(&t);
                }
                // The uplink carries telemetry only; anything else that
                // frames correctly is counted and skipped.
                Ok(Some(_)) | Err(_) => shared.decode_error(),
                Ok(None) => break,
            }
            if stop.is_stopped() {
                break 'conn;
            }
        }
        if decoder.pending() > MAX_PENDING {
            shared.decode_error();
            break;
        }
    }
    let clients = shared.clients.fetch_sub(1, Ordering::SeqCst) - 1;
    shared.metrics.clients.set(clients as f64);
}

/// The client half: a connected uplink that assigns sequence numbers
/// and encodes digests with a reused buffer (allocation-free in the
/// steady state).
#[derive(Debug)]
pub struct UplinkClient {
    stream: TcpStream,
    scratch: Vec<u8>,
    seq: u32,
}

impl UplinkClient {
    /// Connects to an uplink server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<UplinkClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(UplinkClient { stream, scratch: Vec::with_capacity(1024), seq: 0 })
    }

    /// Stamps `digest` with the next sequence number, encodes and sends
    /// it. The sent wire bytes are a pure function of the digests
    /// pushed, so same-seed runs produce bit-identical uplink streams.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, digest: &mut FleetDigest) -> std::io::Result<()> {
        digest.seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.scratch.clear();
        encode_telemetry_frame_into(&mut self.scratch, digest);
        self.stream.write_all(&self.scratch)?;
        self.stream.flush()
    }

    /// Sends a live acknowledgement that this client has seen the
    /// directory for `generation`.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_ack(&mut self, client: u32, generation: u64) -> std::io::Result<()> {
        self.send(&mut FleetDigest::ack(client, 0, generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while !done() {
            assert!(Instant::now() < deadline, "uplink wait timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn slice_frame(client: u32, generation: u64) -> FleetDigest {
        let mut t = FleetDigest::ack(client, 0, generation);
        t.slice = true;
        t.generation = generation;
        t.origin = 3.0 * generation as f64;
        t.samples = 2;
        t.mean_access = 1.5;
        t.mean_tuning = 0.5;
        t.predicted_access = 1.4;
        t.requests = 2;
        t.completed = 2;
        t.access.record(1_400_000);
        t.access.record(1_600_000);
        t.tuning.record(500_000);
        t.tuning.record(500_000);
        t.coverage = vec![(0, 10), (1, 4)];
        t
    }

    #[test]
    fn digests_flow_from_client_to_aggregator() {
        let agg = Arc::new(FleetAggregator::new());
        agg.set_published(1);
        let server =
            UplinkServer::bind("127.0.0.1:0", Arc::clone(&agg) as _).expect("bind uplink");
        let mut a = UplinkClient::connect(server.addr()).expect("connect a");
        let mut b = UplinkClient::connect(server.addr()).expect("connect b");
        a.send_ack(0, 1).expect("ack");
        b.send_ack(1, 0).expect("ack");
        a.send(&mut slice_frame(0, 1)).expect("slice");
        wait_until(5000, || server.frames() == 3);
        let doc = agg.doc();
        assert_eq!(doc.clients, 2);
        assert_eq!(doc.lagging, vec![1]);
        assert_eq!(doc.generations.len(), 1);
        let g = &doc.generations[0];
        assert_eq!((g.generation, g.samples, g.requests), (1, 2, 2));
        assert!((g.mean_access - 1.5).abs() < 1e-12);
        server.shutdown();
        assert_eq!(server.decode_errors(), 0);
        assert!(server.bytes() > 0);
    }

    #[test]
    fn garbage_on_the_uplink_is_counted_and_resynced_past() {
        let agg = Arc::new(FleetAggregator::new());
        let server =
            UplinkServer::bind("127.0.0.1:0", Arc::clone(&agg) as _).expect("bind uplink");
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(b"this is not a DBN1 frame at all").expect("garbage");
        let mut good = Vec::new();
        encode_telemetry_frame_into(&mut good, &slice_frame(3, 2));
        raw.write_all(&good).expect("good frame");
        raw.flush().expect("flush");
        wait_until(5000, || server.frames() == 1);
        assert!(server.decode_errors() > 0, "garbage must be counted");
        assert_eq!(agg.doc().clients, 1);
        server.shutdown();
    }

    #[test]
    fn a_peer_buffering_past_one_digest_is_dropped() {
        let agg = Arc::new(FleetAggregator::new());
        let server =
            UplinkServer::bind("127.0.0.1:0", Arc::clone(&agg) as _).expect("bind uplink");
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        // A well-formed header announcing a 16 MiB telemetry payload,
        // then 1 MiB of it: the decoder would wait for all 16 MiB.
        let mut header = Vec::from(crate::frame::MAGIC);
        header.extend_from_slice(&[crate::frame::VERSION, 5]);
        header.extend_from_slice(&(crate::frame::MAX_PAYLOAD as u32).to_le_bytes());
        raw.write_all(&header).expect("header");
        let chunk = vec![0u8; 64 * 1024];
        for _ in 0..16 {
            // The server hangs up mid-body; later writes may fail.
            if raw.write_all(&chunk).is_err() {
                break;
            }
        }
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut byte = [0u8; 1];
        match raw.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("connection still open after 1 MiB of one frame: {other:?}"),
        }
        assert!(server.decode_errors() > 0, "the drop must count as a decode error");
        assert!(server.bytes() <= (MAX_PENDING + READ_CHUNK) as u64 + 4096);
        server.shutdown();
    }
}
