//! The connection budget of every socket the server opens: the
//! broadcast downlink, the telemetry uplink and the exposition
//! endpoint all accept through one capped `Listener`.
//!
//! One `#[test]` in its own binary, so the `Threads:` line of
//! `/proc/self/status` counts this test's threads and nothing else's.
//! It drives, in order:
//! * a mid-frame disconnect on the uplink, then a good client;
//! * a slowloris on the exposition port (silent connections must not
//!   delay a scrape);
//! * a flood of idle connections past the cap on broadcast and uplink;
//! * shutdown of all three servers with the flood still connected.

#![cfg(target_os = "linux")]

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbcast::net::{
    encode_telemetry_frame_into, BroadcastServer, NetConfig, UplinkClient, UplinkServer,
    MAX_SUBSCRIBERS, MAX_UPLINKS,
};
use dbcast::serve::{FleetAggregator, FleetDigest};
use dbcast_flight::ExpositionServer;

/// Connections past the cap in each flood.
const EXTRA: usize = 32;

/// Threads in this process, from `/proc/self/status`.
fn threads() -> usize {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn flood(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n).map(|_| TcpStream::connect(addr).expect("flood connect")).collect()
}

/// Streams the server has closed: a non-blocking read sees EOF (or a
/// reset) rather than `WouldBlock`.
fn closed(streams: &[TcpStream]) -> usize {
    let mut byte = [0u8; 1];
    streams
        .iter()
        .filter(|s| {
            let mut s: &TcpStream = s;
            s.set_nonblocking(true).expect("nonblocking");
            match s.read(&mut byte) {
                Ok(0) => true,
                Err(e) => e.kind() == ErrorKind::ConnectionReset,
                Ok(_) => false,
            }
        })
        .count()
}

fn slice(client: u32) -> FleetDigest {
    let mut d = FleetDigest::ack(client, 0, 1);
    d.slice = true;
    d.generation = 1;
    d.samples = 1;
    d.mean_access = 0.5;
    d.predicted_access = 0.5;
    d.requests = 1;
    d.completed = 1;
    d.access.record(500_000);
    d
}

#[test]
fn every_server_holds_its_connection_budget() {
    let baseline = threads();
    let bcast = BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let aggregator = Arc::new(FleetAggregator::new());
    let uplink = UplinkServer::bind("127.0.0.1:0", Arc::clone(&aggregator) as _)
        .expect("bind uplink");
    let exposition =
        ExpositionServer::bind("127.0.0.1:0", Box::new(|| "{}".to_string())).expect("bind");

    // Mid-frame disconnect: half a digest, then a hang-up. The next
    // client's digest must still land.
    let mut wire = Vec::new();
    encode_telemetry_frame_into(&mut wire, &slice(1));
    let mut half = TcpStream::connect(uplink.addr()).expect("connect");
    half.write_all(&wire[..wire.len() / 2]).expect("half a frame");
    drop(half);
    let mut good = UplinkClient::connect(uplink.addr()).expect("connect");
    good.send(&mut slice(2)).expect("good digest");
    wait_until("the good digest", Duration::from_secs(5), || uplink.frames() == 1);
    let doc = aggregator.doc();
    assert_eq!((doc.clients, doc.digests), (1, 1), "only the good client is heard");
    drop(good);

    // Slowloris: silent connections hold their own threads, not the
    // scrape behind them.
    // The listen queue is FIFO: these are accepted before the scrape.
    let silent = flood(exposition.addr(), 3);
    let started = Instant::now();
    let body = common::http_get(exposition.addr(), "/status");
    let scrape = started.elapsed();
    assert_eq!(body, "{}");
    assert!(scrape < Duration::from_millis(500), "/status took {scrape:?}");

    // Flood: every connection past the cap is closed at once and
    // counted, and the thread count stays within the cap.
    let before = threads();
    let bcast_flood = flood(bcast.addr(), MAX_SUBSCRIBERS + EXTRA);
    wait_until("broadcast refusals", Duration::from_secs(10), || {
        bcast.refused() == EXTRA as u64
    });
    wait_until("refused broadcast EOFs", Duration::from_secs(2), || {
        closed(&bcast_flood) == EXTRA
    });
    assert_eq!(bcast.subscriber_count(), MAX_SUBSCRIBERS);
    let grown = threads() - before;
    assert!(grown <= MAX_SUBSCRIBERS + 4, "broadcast flood added {grown} threads");

    let before = threads();
    let uplink_flood = flood(uplink.addr(), MAX_UPLINKS + EXTRA);
    wait_until("uplink refusals", Duration::from_secs(10), || {
        uplink.refused() == EXTRA as u64
    });
    wait_until("refused uplink EOFs", Duration::from_secs(2), || {
        closed(&uplink_flood) == EXTRA
    });
    let grown = threads() - before;
    assert!(grown <= MAX_UPLINKS + 4, "uplink flood added {grown} threads");
    assert_eq!(exposition.refused(), 0);

    // Shutdown with the flood still connected joins every thread.
    bcast.shutdown();
    uplink.shutdown();
    exposition.shutdown();
    assert_eq!(threads(), baseline, "threads left after shutdown");
    drop((bcast_flood, uplink_flood, silent));
}
