//! Helpers shared by the end-to-end tests.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

/// Minimal HTTP GET against the exposition server: one `write_all`,
/// read to EOF, return the body after the header terminator.
pub fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to exposition server");
    let request =
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "non-200 for {path}: {head}");
    body.to_string()
}
