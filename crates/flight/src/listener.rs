//! One accept loop for every TCP server in the workspace.
//!
//! The broadcast downlink, the telemetry uplink and the exposition
//! endpoint all serve thread-per-connection through a [`Listener`]. It
//! owns the bind, the `incoming()` loop, a [`StopToken`] that bodies
//! poll, the connection threads (finished ones are reaped on every
//! accept) and an idempotent [`shutdown`](Listener::shutdown).
//!
//! A server hands over one closure. It runs on the accept thread, does
//! the O(1) setup (registering a subscriber, say) and returns the
//! connection body, which runs on a thread of its own; setup never
//! waits for a thread to be scheduled. A connection accepted while
//! `cap` bodies run is closed at once and counted on the catalogued
//! `<server>.refused` counter and on [`refused`](Listener::refused),
//! which works with recording off.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
    refused: AtomicU64,
}

/// A view of a listener's stop flag, handed to every connection body
/// so a blocking loop can notice shutdown at its next poll.
#[derive(Debug)]
pub struct StopToken(Arc<Shared>);

impl StopToken {
    /// Whether the listener is shutting down.
    pub fn is_stopped(&self) -> bool {
        self.0.stop.load(Ordering::SeqCst)
    }
}

/// A bound TCP listener with one accept thread, capped
/// thread-per-connection bodies and an idempotent shutdown.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Listener {
    /// Binds `addr` and starts accepting for `server` (a metric prefix
    /// such as `net.uplink`, also naming the threads). For every
    /// connection under `cap`, `on_accept` runs on the accept thread;
    /// the body it returns runs on its own thread.
    ///
    /// # Errors
    ///
    /// Propagates bind and spawn failures.
    pub fn bind<F, B>(
        addr: impl ToSocketAddrs,
        server: &'static str,
        cap: usize,
        mut on_accept: F,
    ) -> io::Result<Listener>
    where
        F: FnMut(TcpStream) -> Option<B> + Send + 'static,
        B: FnOnce(&StopToken) + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            refused: AtomicU64::new(0),
        });
        let refused_metric = dbcast_obs::registry().counter(&format!("{server}.refused"));
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new().name(format!("{server}.accept")).spawn(
            move || {
                for stream in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if reap(&accept_shared) >= cap {
                        // Counted before `continue` drops (closes) the
                        // stream, so a peer that reads EOF sees the count.
                        accept_shared.refused.fetch_add(1, Ordering::SeqCst);
                        refused_metric.inc();
                        continue;
                    }
                    let Some(body) = on_accept(stream) else { continue };
                    let token = StopToken(Arc::clone(&accept_shared));
                    let conn = std::thread::Builder::new()
                        .name(format!("{server}.conn"))
                        .spawn(move || body(&token));
                    if let Ok(handle) = conn {
                        lock(&accept_shared.conns).push(handle);
                    }
                }
            },
        )?;
        Ok(Listener { addr, shared, accept: Mutex::new(Some(accept)) })
    }

    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections closed unserved because the cap was reached.
    pub fn refused(&self) -> u64 {
        self.shared.refused.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread, leaving connection
    /// bodies running. Once this returns no further `on_accept` call
    /// can happen, so a server can close what its bodies block on
    /// before [`shutdown`](Self::shutdown) joins them. Idempotent.
    pub fn stop(&self) {
        if !self.shared.stop.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = lock(&self.accept).take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting and joins every thread the listener started.
    /// Bodies must return once [`StopToken::is_stopped`] is set or
    /// their stream closes. Idempotent.
    pub fn shutdown(&self) {
        self.stop();
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for handle in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins the finished connection threads and returns how many are
/// still running. A body that panicked was already reported by the
/// panic hook, so its join result carries nothing more.
fn reap(shared: &Shared) -> usize {
    let mut conns = lock(&shared.conns);
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    conns.len()
}

/// Locks `m`; a handle list stays valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    const SERVER: &str = "flight.test.listener";

    #[test]
    fn runs_bodies_and_refuses_over_the_cap() {
        let listener = Listener::bind("127.0.0.1:0", SERVER, 2, |mut stream: TcpStream| {
            Some(move |stop: &StopToken| {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
                let mut byte = [0u8; 1];
                while !stop.is_stopped() {
                    if let Ok(1) = stream.read(&mut byte) {
                        let _ = stream.write_all(&byte);
                    }
                }
            })
        })
        .expect("bind");
        let mut held: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(listener.addr()).expect("connect")).collect();
        for (i, s) in held.iter_mut().enumerate() {
            s.write_all(&[i as u8]).expect("write");
            let mut echo = [0u8; 1];
            s.read_exact(&mut echo).expect("echo");
            assert_eq!(echo[0], i as u8);
        }
        let mut extra = TcpStream::connect(listener.addr()).expect("connect");
        let mut buf = [0u8; 1];
        assert_eq!(extra.read(&mut buf).expect("refused read"), 0, "over-cap gets EOF");
        assert_eq!(listener.refused(), 1);
        let started = Instant::now();
        listener.shutdown();
        listener.shutdown();
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn finished_bodies_free_their_slot() {
        let listener = Listener::bind("127.0.0.1:0", SERVER, 1, |mut stream: TcpStream| {
            Some(move |_: &StopToken| {
                let _ = stream.write_all(b"x");
            })
        })
        .expect("bind");
        // With a cap of one, every session after the first is served
        // only once the accept loop has reaped its predecessor. A
        // connection that races the predecessor's exit is refused
        // (EOF, no byte) and retried.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut served = 0;
        while served < 5 {
            assert!(Instant::now() < deadline, "finished bodies never freed the slot");
            let mut s = TcpStream::connect(listener.addr()).expect("connect");
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).expect("read");
            served += usize::from(buf == b"x");
        }
    }
}
