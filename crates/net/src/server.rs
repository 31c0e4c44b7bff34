//! Framed TCP broadcast server.
//!
//! Connections arrive through a [`Listener`] capped at
//! [`MAX_SUBSCRIBERS`] (`net.broadcast.refused` counts the rest). Its
//! accept thread registers each one as a subscriber with the current
//! directory already queued, then the subscriber's writer drains its
//! bounded frame queue on a thread of its own. The egress hands over a
//! window of frames at a time, queued under one lock per subscriber, and
//! each writer wake-up sends everything queued with one socket write.
//! The serve loop only ever *enqueues* — a stalled client fills its own queue and (under
//! [`OverflowPolicy::DropNewest`]) loses frames, counted on
//! `net.dropped_frames`, while every other subscriber and the broadcast
//! tick itself stay unaffected. A write timeout or hang-up ends the
//! writer, and the next broadcast prunes its subscriber.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dbcast_flight::{Listener, StopToken};
use dbcast_obs::metrics::{Counter, Gauge};

/// Most subscribers served at once; further connections are refused.
pub const MAX_SUBSCRIBERS: usize = 256;

/// What to do when a subscriber's frame queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Drop the newest frame for that subscriber and count it. The
    /// default: one slow client never back-pressures the serve loop.
    DropNewest,
    /// Block the broadcaster until space frees up. Only sensible in
    /// tests and in-process fleets where every client is guaranteed to
    /// drain; a production serve loop should never block on a client.
    Block,
}

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Frames buffered per subscriber before the overflow policy kicks in.
    pub queue_capacity: usize,
    /// Overflow behaviour for a full subscriber queue.
    pub overflow: OverflowPolicy,
    /// TCP write timeout; a write blocked longer evicts the connection.
    pub write_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            queue_capacity: 1024,
            overflow: OverflowPolicy::DropNewest,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Resolved `net.*` metric handles (no-ops unless obs is enabled).
#[derive(Debug)]
struct NetMetrics {
    frames_sent: &'static Counter,
    bytes_sent: &'static Counter,
    socket_writes: &'static Counter,
    dropped_frames: &'static Counter,
    subscribers: &'static Gauge,
    queue_depth: &'static Gauge,
    queue_peak: &'static Gauge,
}

impl NetMetrics {
    fn resolve() -> Self {
        let r = dbcast_obs::registry();
        NetMetrics {
            frames_sent: r.counter("net.frames_sent"),
            bytes_sent: r.counter("net.bytes_sent"),
            socket_writes: r.counter("net.socket_writes"),
            dropped_frames: r.counter("net.dropped_frames"),
            subscribers: r.gauge("net.subscribers"),
            queue_depth: r.gauge("net.subscriber.queue_depth"),
            queue_peak: r.gauge("net.subscriber.queue_peak"),
        }
    }
}

/// Bounded MPSC byte-blob queue with close semantics.
///
/// Hand-rolled because the vendored crossbeam shim only offers an
/// unbounded channel, and the slow-client policy needs a hard bound.
/// The bound counts frames, those queued plus those the writer has taken
/// but not yet written, so a subscriber never holds more than
/// `capacity`. A whole window is pushed under one lock, and the writer
/// drains everything queued under one lock.
#[derive(Debug)]
struct BoundedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<Arc<Vec<u8>>>,
    /// Frames of the writer's current batch, still being written.
    in_flight: usize,
    closed: bool,
}

impl QueueState {
    /// Frames counted against the capacity.
    fn held(&self) -> usize {
        self.items.len() + self.in_flight
    }
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                in_flight: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `frames` in order. Frames that find the queue full are
    /// dropped (`block == false`) or wait for the writer to make room
    /// (`block == true`); on a closed queue the rest are undelivered.
    /// Returns the undelivered frame count and the frames then held.
    fn push(&self, frames: &[Arc<Vec<u8>>], block: bool) -> (usize, usize) {
        let mut st = self.state.lock().expect("queue poisoned");
        let mut rest = frames;
        loop {
            if st.closed {
                return (rest.len(), st.held());
            }
            let was_empty = st.items.is_empty();
            let room = self.capacity.saturating_sub(st.held()).min(rest.len());
            st.items.extend(rest[..room].iter().cloned());
            rest = &rest[room..];
            // The writer only ever waits on an empty queue, so only the
            // first frames into one need to wake it — and they must wake
            // it before a blocking push waits, or a window larger than
            // the queue would deadlock.
            if was_empty && room > 0 {
                self.not_empty.notify_one();
            }
            if rest.is_empty() || !block {
                return (rest.len(), st.held());
            }
            st = self.not_full.wait(st).expect("queue poisoned");
        }
    }

    /// Releases the writer's previous batch, which it has finished
    /// writing, then moves every queued frame into `batch`, blocking
    /// until there is one. Returns `false` once the queue is closed and
    /// fully drained.
    fn drain_into(&self, batch: &mut Vec<Arc<Vec<u8>>>) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        if st.in_flight > 0 {
            st.in_flight = 0;
            self.not_full.notify_one();
        }
        loop {
            if !st.items.is_empty() {
                st.in_flight = st.items.len();
                batch.extend(st.items.drain(..));
                return true;
            }
            if st.closed {
                return false;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One connected client: its queue and whether its writer has exited.
#[derive(Debug)]
struct Subscriber {
    queue: Arc<BoundedQueue>,
    /// Set when the writer exits; the next broadcast prunes the entry.
    dead: Arc<AtomicBool>,
}

#[derive(Debug)]
struct Roster {
    subscribers: Vec<Subscriber>,
    /// Latest directory blob; handed to every new subscriber first so a
    /// late joiner can interpret the frames that follow.
    directory: Option<Arc<Vec<u8>>>,
}

#[derive(Debug)]
struct Shared {
    roster: Mutex<Roster>,
    config: NetConfig,
    metrics: NetMetrics,
    // Local mirrors of the obs counters so behaviour is assertable even
    // with recording off.
    dropped: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    socket_writes: AtomicU64,
    queue_peak: AtomicU64,
}

/// A broadcast fan-out server on a TCP listener.
///
/// Dropping the server shuts it down: the accept loop stops, every
/// subscriber queue closes, and writer threads are joined.
#[derive(Debug)]
pub struct BroadcastServer {
    shared: Arc<Shared>,
    listener: Listener,
}

impl BroadcastServer {
    /// Binds `addr` and starts accepting subscribers.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            roster: Mutex::new(Roster { subscribers: Vec::new(), directory: None }),
            config,
            metrics: NetMetrics::resolve(),
            dropped: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            socket_writes: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let listener =
            Listener::bind(addr, "net.broadcast", MAX_SUBSCRIBERS, move |stream| {
                let writer = subscribe(&accept_shared, stream);
                Some(move |_: &StopToken| writer.run())
            })?;
        Ok(BroadcastServer { shared, listener })
    }

    /// The bound socket address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Publishes the directory handed to every future subscriber, and
    /// broadcasts it to everyone currently connected.
    pub fn set_directory(&self, blob: Arc<Vec<u8>>) {
        let mut roster = self.shared.roster.lock().expect("roster poisoned");
        broadcast_locked(&self.shared, &mut roster, std::slice::from_ref(&blob));
        roster.directory = Some(blob);
    }

    /// Enqueues a window of pre-encoded frames, in order, for every live
    /// subscriber: one roster lock, and one queue lock and at most one
    /// wake-up per subscriber, however many frames the window holds.
    ///
    /// Under [`OverflowPolicy::DropNewest`] the frames that find a
    /// subscriber's queue full are dropped *for that subscriber only*,
    /// each counted on `net.dropped_frames`; under
    /// [`OverflowPolicy::Block`] the call waits for room frame by frame.
    pub fn broadcast(&self, frames: &[Arc<Vec<u8>>]) {
        let mut roster = self.shared.roster.lock().expect("roster poisoned");
        broadcast_locked(&self.shared, &mut roster, frames);
    }

    /// Number of currently live subscribers.
    pub fn subscriber_count(&self) -> usize {
        let roster = self.shared.roster.lock().expect("roster poisoned");
        roster.subscribers.iter().filter(|s| !s.dead.load(Ordering::SeqCst)).count()
    }

    /// Frames dropped to the slow-client policy since startup.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped.load(Ordering::SeqCst)
    }

    /// Frames successfully written to sockets since startup.
    pub fn frames_sent(&self) -> u64 {
        self.shared.frames_sent.load(Ordering::SeqCst)
    }

    /// Bytes successfully written to sockets since startup.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes_sent.load(Ordering::SeqCst)
    }

    /// Writer drains since startup: each wrote everything its
    /// subscriber had queued with one `write_all`.
    pub fn socket_writes(&self) -> u64 {
        self.shared.socket_writes.load(Ordering::SeqCst)
    }

    /// High-watermark of any subscriber's queue depth since startup —
    /// how close the slow-client policy has come to engaging.
    pub fn queue_peak(&self) -> u64 {
        self.shared.queue_peak.load(Ordering::SeqCst)
    }

    /// Connections refused over [`MAX_SUBSCRIBERS`] since startup.
    pub fn refused(&self) -> u64 {
        self.listener.refused()
    }

    /// Stops accepting, closes every subscriber queue (letting queued
    /// frames drain), and joins all threads. Idempotent.
    pub fn shutdown(&self) {
        // Registration runs on the accept thread, so once `stop`
        // returns no subscriber can join behind the closes below.
        self.listener.stop();
        let subs = std::mem::take(
            &mut self.shared.roster.lock().expect("roster poisoned").subscribers,
        );
        for sub in &subs {
            sub.queue.close();
        }
        self.listener.shutdown();
        self.shared.metrics.subscribers.set(0.0);
    }
}

impl Drop for BroadcastServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Registers `stream` as a subscriber (directory first) and returns
/// its writer, to run on the connection's own thread.
fn subscribe(shared: &Arc<Shared>, stream: TcpStream) -> Writer {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let queue = Arc::new(BoundedQueue::new(shared.config.queue_capacity));
    let dead = Arc::new(AtomicBool::new(false));
    let mut roster = shared.roster.lock().expect("roster poisoned");
    if let Some(dir) = &roster.directory {
        // The directory must be the first thing a subscriber sees; the
        // queue is empty here so this cannot fail short of a close.
        queue.push(std::slice::from_ref(dir), false);
    }
    roster
        .subscribers
        .push(Subscriber { queue: Arc::clone(&queue), dead: Arc::clone(&dead) });
    let live = roster.subscribers.iter().filter(|s| !s.dead.load(Ordering::SeqCst)).count();
    shared.metrics.subscribers.set(live as f64);
    Writer { stream, queue, dead, shared: Arc::clone(shared) }
}

/// One subscriber's writer: drains its queue onto the socket.
struct Writer {
    stream: TcpStream,
    queue: Arc<BoundedQueue>,
    dead: Arc<AtomicBool>,
    shared: Arc<Shared>,
}

impl Writer {
    /// Each wake-up drains everything queued and writes it as one
    /// contiguous buffer, so a window costs one `write_all`, not one
    /// write per frame.
    fn run(mut self) {
        let mut batch = Vec::new();
        let mut wire = Vec::new();
        while self.queue.drain_into(&mut batch) {
            let frames = batch.len() as u64;
            wire.clear();
            for blob in batch.drain(..) {
                wire.extend_from_slice(&blob);
            }
            if self.stream.write_all(&wire).is_err() {
                // Timeout or hangup: evict this client (see `Drop`).
                return;
            }
            let shared = &self.shared;
            let bytes = wire.len() as u64;
            shared.frames_sent.fetch_add(frames, Ordering::SeqCst);
            shared.bytes_sent.fetch_add(bytes, Ordering::SeqCst);
            shared.socket_writes.fetch_add(1, Ordering::SeqCst);
            shared.metrics.frames_sent.add(frames);
            shared.metrics.bytes_sent.add(bytes);
            shared.metrics.socket_writes.inc();
        }
    }
}

impl Drop for Writer {
    /// However the writer ends — evicted, shut down, or dropped unrun
    /// because its thread failed to spawn — its queue closes and the
    /// next broadcast prunes the subscriber.
    fn drop(&mut self) {
        self.dead.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

fn broadcast_locked(shared: &Shared, roster: &mut Roster, frames: &[Arc<Vec<u8>>]) {
    let block = shared.config.overflow == OverflowPolicy::Block;
    let mut pruned = false;
    let mut depth = 0;
    for sub in &roster.subscribers {
        if sub.dead.load(Ordering::SeqCst) {
            pruned = true;
            continue;
        }
        let (undelivered, queued) = sub.queue.push(frames, block);
        if undelivered > 0 {
            shared.dropped.fetch_add(undelivered as u64, Ordering::SeqCst);
            shared.metrics.dropped_frames.add(undelivered as u64);
        }
        depth = depth.max(queued as u64);
    }
    // Back-pressure gauges: the fullest live queue after this window,
    // and its high-watermark — visible *before* the drop counter starts
    // moving.
    let peak = shared.queue_peak.fetch_max(depth, Ordering::SeqCst).max(depth);
    shared.metrics.queue_depth.set(depth as f64);
    shared.metrics.queue_peak.set(peak as f64);
    if pruned {
        // A dead writer already closed its queue and its thread is the
        // listener's to reap; only the roster entry is left.
        roster.subscribers.retain(|sub| !sub.dead.load(Ordering::SeqCst));
        let live = roster.subscribers.len();
        shared.metrics.subscribers.set(live as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    fn frame_blob(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 64])
    }

    fn wait_for_subscribers(server: &BroadcastServer, n: usize) {
        while server.subscriber_count() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fans_out_to_multiple_subscribers() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        let addr = server.addr();
        let mut clients: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        wait_for_subscribers(&server, 3);
        server.broadcast(&[frame_blob(7)]);
        for c in &mut clients {
            let mut buf = [0u8; 64];
            c.read_exact(&mut buf).expect("read fan-out");
            assert!(buf.iter().all(|&b| b == 7));
        }
        server.shutdown();
    }

    #[test]
    fn slow_client_drops_do_not_block_the_broadcaster() {
        let config = NetConfig {
            queue_capacity: 4,
            overflow: OverflowPolicy::DropNewest,
            ..NetConfig::default()
        };
        let server = BroadcastServer::bind("127.0.0.1:0", config).expect("bind");
        // A subscriber that never reads while the broadcast runs: its
        // socket buffer and queue fill up, after which frames must be
        // dropped, not block. Every 8-frame window overflows the 4-slot
        // queue, so drops are certain.
        let stalled = TcpStream::connect(server.addr()).expect("connect");
        wait_for_subscribers(&server, 1);
        let windows = 2_500;
        let start = Instant::now();
        for w in 0..windows {
            let window: Vec<_> =
                (0..8).map(|i| frame_blob(((w * 8 + i) % 251) as u8)).collect();
            server.broadcast(&window);
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "broadcast loop was back-pressured by a stalled client"
        );
        assert!(server.dropped_frames() > 0, "overflowing a 4-slot queue must count drops");
        assert_eq!(
            server.queue_peak(),
            4,
            "the queue-depth high-watermark must reach, and never pass, the 4-slot capacity"
        );
        // Drops are counted frame by frame: whatever was not dropped
        // reaches the client once it finally reads to the EOF that
        // shutdown leaves behind.
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            (&stalled).read_to_end(&mut bytes).expect("drain");
            bytes.len() as u64
        });
        server.shutdown();
        let received = reader.join().expect("reader") / 64;
        assert_eq!(server.dropped_frames() + received, windows as u64 * 8);
    }

    #[test]
    fn blocking_window_larger_than_the_queue_arrives_whole_and_in_order() {
        let config = NetConfig {
            queue_capacity: 4,
            overflow: OverflowPolicy::Block,
            ..NetConfig::default()
        };
        let server = Arc::new(BroadcastServer::bind("127.0.0.1:0", config).expect("bind"));
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        wait_for_subscribers(&server, 1);
        let window: Vec<_> = (0..100).map(frame_blob).collect();
        let broadcaster = Arc::clone(&server);
        let sender = std::thread::spawn(move || broadcaster.broadcast(&window));
        // A deadlocked broadcaster sends nothing more: fail, not hang.
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut buf = vec![0u8; 100 * 64];
        client.read_exact(&mut buf).expect("whole window, without a deadlock");
        for (tag, frame) in buf.chunks(64).enumerate() {
            assert!(frame.iter().all(|&b| b == tag as u8), "frame {tag} out of order");
        }
        sender.join().expect("broadcaster thread");
        assert_eq!(server.dropped_frames(), 0);
        server.shutdown();
    }

    #[test]
    fn writer_coalesces_a_window_into_one_socket_write() {
        const WINDOWS: usize = 40;
        const FRAMES: usize = 25;
        // Directory plus every window fits the default 1024-frame queue,
        // so each window is one push and nothing can be dropped.
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        server.set_directory(Arc::new(vec![9u8; 16]));
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        wait_for_subscribers(&server, 1);
        for w in 0..WINDOWS {
            let window: Vec<_> = (0..FRAMES).map(|i| frame_blob((w + i) as u8)).collect();
            server.broadcast(&window);
        }
        let mut buf = vec![0u8; 16 + WINDOWS * FRAMES * 64];
        client.read_exact(&mut buf).expect("every frame");
        let expected = (WINDOWS * FRAMES + 1) as u64;
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.frames_sent() < expected && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.frames_sent(), expected);
        assert_eq!(server.dropped_frames(), 0);
        assert!(
            server.socket_writes() <= WINDOWS as u64 + 1,
            "{} socket writes for {WINDOWS} windows and a directory",
            server.socket_writes()
        );
        server.shutdown();
    }

    #[test]
    fn new_subscriber_receives_directory_first() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        server.set_directory(Arc::new(vec![9u8; 16]));
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        wait_for_subscribers(&server, 1);
        server.broadcast(&[frame_blob(1)]);
        let mut dir = [0u8; 16];
        client.read_exact(&mut dir).expect("directory first");
        assert!(dir.iter().all(|&b| b == 9));
        server.shutdown();
    }
}
