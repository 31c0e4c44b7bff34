//! Framed TCP broadcast server.
//!
//! Connections arrive through a [`Listener`] capped at
//! [`MAX_SUBSCRIBERS`] (`net.broadcast.refused` counts the rest). Its
//! accept thread registers each one as a subscriber with the current
//! directory already queued, then the subscriber's writer drains its
//! bounded frame queue on a thread of its own. The serve loop only ever
//! *enqueues* — a stalled client fills its own queue and (under
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
    closed: bool,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Tries to enqueue without blocking. Returns `false` when the
    /// queue is full (caller counts a drop) or already closed.
    fn try_push(&self, msg: Arc<Vec<u8>>) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        if st.closed || st.items.len() >= self.capacity {
            return false;
        }
        st.items.push_back(msg);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Enqueues, waiting for space. Returns `false` only if closed.
    fn push_blocking(&self, msg: Arc<Vec<u8>>) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        while !st.closed && st.items.len() >= self.capacity {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(msg);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues, blocking until a message or close. `None` means the
    /// queue was closed and fully drained.
    fn pop(&self) -> Option<Arc<Vec<u8>>> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(msg) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(msg);
            }
            if st.closed {
                return None;
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

    /// Frames currently buffered (a back-pressure signal, not a sync
    /// point: the writer may be draining concurrently).
    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
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
    // with the obs feature compiled out.
    dropped: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
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
        roster.directory = Some(Arc::clone(&blob));
        broadcast_locked(&self.shared, &mut roster, blob);
    }

    /// Enqueues a pre-encoded frame for every live subscriber.
    ///
    /// Under [`OverflowPolicy::DropNewest`] a full subscriber queue
    /// drops this frame *for that subscriber only* and increments
    /// `net.dropped_frames`.
    pub fn broadcast(&self, blob: Arc<Vec<u8>>) {
        let mut roster = self.shared.roster.lock().expect("roster poisoned");
        broadcast_locked(&self.shared, &mut roster, blob);
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
        let _ = queue.try_push(Arc::clone(dir));
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
    fn run(mut self) {
        while let Some(blob) = self.queue.pop() {
            if self.stream.write_all(&blob).and_then(|()| self.stream.flush()).is_err() {
                // Timeout or hangup: evict this client (see `Drop`).
                return;
            }
            let shared = &self.shared;
            shared.frames_sent.fetch_add(1, Ordering::SeqCst);
            shared.bytes_sent.fetch_add(blob.len() as u64, Ordering::SeqCst);
            shared.metrics.frames_sent.inc();
            shared.metrics.bytes_sent.add(blob.len() as u64);
        }
        let _ = self.stream.flush();
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

fn broadcast_locked(shared: &Shared, roster: &mut Roster, blob: Arc<Vec<u8>>) {
    let mut pruned = false;
    for sub in &roster.subscribers {
        if sub.dead.load(Ordering::SeqCst) {
            pruned = true;
            continue;
        }
        let delivered = match shared.config.overflow {
            OverflowPolicy::DropNewest => sub.queue.try_push(Arc::clone(&blob)),
            OverflowPolicy::Block => sub.queue.push_blocking(Arc::clone(&blob)),
        };
        if !delivered {
            shared.dropped.fetch_add(1, Ordering::SeqCst);
            shared.metrics.dropped_frames.inc();
        }
    }
    // Back-pressure gauges: the deepest live queue right now, and its
    // high-watermark — visible *before* the drop counter starts moving.
    let depth = roster
        .subscribers
        .iter()
        .filter(|s| !s.dead.load(Ordering::SeqCst))
        .map(|s| s.queue.len())
        .max()
        .unwrap_or(0) as u64;
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

    fn frame_blob(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 64])
    }

    #[test]
    fn fans_out_to_multiple_subscribers() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        let addr = server.addr();
        let mut clients: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        while server.subscriber_count() < 3 {
            std::thread::yield_now();
        }
        server.broadcast(frame_blob(7));
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
            write_timeout: Some(Duration::from_millis(200)),
        };
        let server = BroadcastServer::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.addr();
        // A subscriber that never reads: its socket buffer and queue
        // fill up, after which frames must be dropped, not block.
        let stalled = TcpStream::connect(addr).expect("connect");
        while server.subscriber_count() < 1 {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        for i in 0..20_000 {
            server.broadcast(frame_blob((i % 251) as u8));
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "broadcast loop was back-pressured by a stalled client"
        );
        assert!(server.dropped_frames() > 0, "overflowing a 4-slot queue must count drops");
        assert!(
            server.queue_peak() >= 4,
            "the queue-depth high-watermark must reach the 4-slot capacity, saw {}",
            server.queue_peak()
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn new_subscriber_receives_directory_first() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        server.set_directory(Arc::new(vec![9u8; 16]));
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        while server.subscriber_count() < 1 {
            std::thread::yield_now();
        }
        server.broadcast(frame_blob(1));
        let mut dir = [0u8; 16];
        client.read_exact(&mut dir).expect("directory first");
        assert!(dir.iter().all(|&b| b == 9));
        server.shutdown();
    }
}
