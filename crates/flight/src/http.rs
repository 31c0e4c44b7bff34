//! The live exposition endpoint: a tiny blocking HTTP/1.1 responder
//! serving
//!
//! * `GET /metrics` — the obs registry in OpenMetrics text format,
//! * `GET /flight`  — the flight ring as a [`crate::FlightDoc`],
//! * `GET /status`  — a caller-provided [`StatusDoc`],
//! * plus any caller-registered [`Route`]s (e.g. the scope crate's
//!   `/series` history endpoint).
//!
//! Every response is built from snapshot reads (registry snapshot,
//! ring snapshot, handler closures), so a scrape never blocks the
//! serving loop — the exposition threads and the runtime share only
//! lock-free structures and the registry's short-lived snapshot locks.
//!
//! Connections come through a [`Listener`] capped at
//! [`MAX_CONNECTIONS`]: each one is answered on its own thread, so a
//! client that connects and never writes holds only its own thread,
//! for at most [`READ_TIMEOUT`], and never delays another scrape. A
//! request whose header section exceeds the buffer is answered `431`
//! instead of being read without bound.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use dbcast_obs::doc::{self, Document};
use serde::{Deserialize, Serialize};

use crate::listener::Listener;
use crate::recorder;

/// Produces the `/status` JSON body on demand (normally a rendered
/// [`StatusDoc`]).
pub type StatusFn = Box<dyn Fn() -> String + Send + Sync>;

/// The `/status` document of a serving process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StatusDoc {
    /// The command serving, e.g. `serve`.
    pub command: String,
    /// Items in the broadcast database.
    pub items: u64,
    /// Requests in the stream being served.
    pub trace_requests: u64,
    /// Events the flight recorder has recorded so far.
    pub flight_recorded: u64,
    /// The command's configuration.
    pub config: serde_json::Value,
}

impl Document for StatusDoc {
    const KIND: &'static str = "status";
    const SCHEMA: u32 = 1;
}

/// How long a connected client may sit silent before its stream is
/// dropped.
pub const READ_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a response write may block on an unread socket.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Largest request header section accepted (everything up to the
/// `\r\n\r\n` terminator); longer requests are answered `431`.
pub const MAX_REQUEST_BYTES: usize = 4096;

/// Most connections answered at once; further ones are refused and
/// counted on `flight.exposition.refused`.
pub const MAX_CONNECTIONS: usize = 16;

/// A caller-registered endpoint served alongside the built-in three.
pub struct Route {
    /// Absolute path, e.g. `/series`.
    pub path: String,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Builds the response body per request.
    pub handler: Box<dyn Fn() -> String + Send + Sync>,
}

impl Route {
    /// A JSON route (the common case for telemetry documents).
    pub fn json(
        path: impl Into<String>,
        handler: impl Fn() -> String + Send + Sync + 'static,
    ) -> Route {
        Route {
            path: path.into(),
            content_type: "application/json; charset=utf-8",
            handler: Box::new(handler),
        }
    }
}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Route").field("path", &self.path).finish()
    }
}

/// A running exposition endpoint. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops it.
pub struct ExpositionServer {
    listener: Listener,
}

impl std::fmt::Debug for ExpositionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpositionServer").field("addr", &self.addr()).finish()
    }
}

impl ExpositionServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`; port 0 picks a free port)
    /// and starts answering on background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission denied).
    pub fn bind(addr: impl ToSocketAddrs, status: StatusFn) -> io::Result<Self> {
        Self::bind_with_routes(addr, status, Vec::new())
    }

    /// [`bind`](Self::bind) plus extra [`Route`]s. A route whose path
    /// collides with a built-in endpoint is shadowed by the built-in.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission denied).
    pub fn bind_with_routes(
        addr: impl ToSocketAddrs,
        status: StatusFn,
        routes: Vec<Route>,
    ) -> io::Result<Self> {
        let handlers = Arc::new((status, routes));
        let listener =
            Listener::bind(addr, "flight.exposition", MAX_CONNECTIONS, move |stream| {
                let handlers = Arc::clone(&handlers);
                Some(move |_: &_| {
                    let _ = handle_connection(stream, &handlers.0, &handlers.1);
                })
            })?;
        Ok(ExpositionServer { listener })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Connections refused over [`MAX_CONNECTIONS`] since startup.
    pub fn refused(&self) -> u64 {
        self.listener.refused()
    }

    /// Stops accepting and waits for every in-flight answer. Idempotent.
    pub fn shutdown(&self) {
        self.listener.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    status: &StatusFn,
    routes: &[Route],
) -> io::Result<()> {
    // A silent or trickling client holds its thread for at most
    // READ_TIMEOUT; an unread response write gives up after
    // WRITE_TIMEOUT.
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Read until the header terminator (requests can arrive split
    // across TCP segments); scrapes carry no body worth waiting for.
    let mut buf = [0u8; MAX_REQUEST_BYTES];
    let mut filled = 0;
    let mut terminated = false;
    while filled < buf.len() {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
            terminated = true;
            break;
        }
    }
    let oversized = filled == buf.len() && !terminated;
    let (code, reason, content_type, body) = if oversized {
        (
            "431",
            "Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!("request headers exceed {MAX_REQUEST_BYTES} bytes\n"),
        )
    } else {
        let request = String::from_utf8_lossy(&buf[..filled]);
        let mut parts = request.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        if method != "GET" {
            (
                "405",
                "Method Not Allowed",
                "text/plain; charset=utf-8",
                "GET only\n".to_string(),
            )
        } else {
            match path {
                "/metrics" => (
                    "200",
                    "OK",
                    "application/openmetrics-text; version=1.0.0; charset=utf-8",
                    dbcast_obs::openmetrics::render_global(),
                ),
                "/flight" => (
                    "200",
                    "OK",
                    "application/json; charset=utf-8",
                    doc::render(&recorder().doc()),
                ),
                "/status" => ("200", "OK", "application/json; charset=utf-8", status()),
                other => match routes.iter().find(|r| r.path == other) {
                    Some(route) => ("200", "OK", route.content_type, (route.handler)()),
                    None => (
                        "404",
                        "Not Found",
                        "text/plain; charset=utf-8",
                        not_found_body(routes),
                    ),
                },
            }
        }
    };
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    if oversized {
        // Drain (a bounded amount of) the rest of the request so the
        // close is a graceful FIN, not an RST that races the client
        // out of reading the 431. The read timeout still bounds this.
        let mut budget = 64 * 1024;
        while budget > 0 {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => budget -= n.min(budget),
            }
        }
    }
    Ok(())
}

fn not_found_body(routes: &[Route]) -> String {
    let mut body = String::from("endpoints: /metrics /flight /status");
    for r in routes {
        body.push(' ');
        body.push_str(&r.path);
    }
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlightDoc;
    use std::io::BufRead as _;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        read_response(stream)
    }

    fn read_response(stream: TcpStream) -> (String, String) {
        let mut reader = std::io::BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let mut body = String::new();
        let mut headers_done = false;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            if headers_done {
                body.push_str(&line);
            } else if line.trim().is_empty() {
                headers_done = true;
            }
            line.clear();
        }
        (status_line, body)
    }

    #[test]
    fn serves_metrics_flight_and_status() {
        let server = ExpositionServer::bind(
            "127.0.0.1:0",
            Box::new(|| "{\"state\": \"testing\"}".to_string()),
        )
        .unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.ends_with("# EOF\n"), "metrics body not OpenMetrics:\n{body}");
        dbcast_obs::openmetrics::parse(&body).expect("scrape parses");

        let (status, body) = get(addr, "/flight");
        assert!(status.contains("200"), "{status}");
        let flight: FlightDoc = doc::decode(&body).expect("/flight decodes");
        assert_eq!(flight.capacity, recorder().capacity());

        let (status, body) = get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"state\": \"testing\""), "{body}");

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        server.shutdown();
        // A second shutdown is a no-op.
        server.shutdown();
    }

    #[test]
    fn custom_routes_are_served_and_advertised() {
        let server = ExpositionServer::bind_with_routes(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
            vec![Route::json("/series", || "{\"schema\": 1}".to_string())],
        )
        .unwrap();
        let (status, body) = get(server.addr(), "/series");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"schema\": 1}");
        let (status, body) = get(server.addr(), "/missing");
        assert!(status.contains("404"), "{status}");
        assert!(body.contains("/series"), "404 should advertise routes: {body}");
    }

    #[test]
    fn stalled_client_cannot_block_later_scrapes() {
        let server =
            ExpositionServer::bind("127.0.0.1:0", Box::new(|| "{}".to_string())).unwrap();
        let addr = server.addr();
        // Connects and never writes: without per-stream timeouts this
        // held the inline accept loop hostage indefinitely.
        let stalled = TcpStream::connect(addr).unwrap();
        let started = std::time::Instant::now();
        let (status, _) = get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        // The scrape waited out at most one read timeout (plus margin).
        assert!(
            started.elapsed() < READ_TIMEOUT + Duration::from_secs(4),
            "scrape took {:?}",
            started.elapsed()
        );
        drop(stalled);
    }

    #[test]
    fn oversized_request_headers_get_431() {
        let server =
            ExpositionServer::bind("127.0.0.1:0", Box::new(|| "{}".to_string())).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "x".repeat(2 * MAX_REQUEST_BYTES)
        );
        stream.write_all(huge.as_bytes()).unwrap();
        let (status, _) = read_response(stream);
        assert!(status.contains("431"), "{status}");
    }
}
