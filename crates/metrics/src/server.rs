//! A tiny blocking-TCP metrics endpoint (std-only).
//!
//! [`MetricsServer::bind`] spawns one background thread running a
//! nonblocking `accept` loop; each connection gets a minimal HTTP/1.0
//! response rendered from the shared registry:
//!
//! * `GET /metrics` — Prometheus text exposition format;
//! * `GET /` (or `/text`) — the human snapshot;
//! * any other path — 404;
//! * a head whose first line is not `METHOD PATH`, or that fills 4 KiB
//!   without its blank line — 400;
//! * a connection that sends nothing, or not its whole head within
//!   `HEAD_DEADLINE` (250 ms) — closed unanswered.
//!
//! Connections are served one at a time, so the deadline is what keeps a
//! silent or slow client from stalling the scrapes queued behind it.
//!
//! There is deliberately no connection pooling, keep-alive, or TLS: the
//! endpoint exists so a scrape loop (or a human with `curl`) can watch a
//! long `scenario serve` run, and one short-lived connection per scrape
//! is exactly the Prometheus model. [`scrape`] is the matching client,
//! used by the CI smoke and the integration tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::registry::Registry;

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection write timeout, and every timeout of [`scrape`].
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a connection has to send its request head: well under the
/// client's [`IO_TIMEOUT`], so a scrape queued behind a silent client is
/// still answered in time.
const HEAD_DEADLINE: Duration = Duration::from_millis(250);
/// The longest request head read.
const MAX_HEAD: usize = 4096;

/// The background exporter endpoint; shuts down (and joins its thread)
/// on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks an ephemeral
    /// port — read it back with [`MetricsServer::local_addr`]) and starts
    /// serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(registry: Arc<Registry>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("avmem-metrics".into())
            .spawn(move || loop {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => serve_conn(stream, &registry),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => thread::sleep(ACCEPT_POLL),
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread; idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_conn(mut stream: TcpStream, registry: &Registry) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = [0u8; MAX_HEAD];
    let Some(len) = read_head(&mut stream, &mut buf) else {
        return;
    };
    let head = &buf[..len];
    let oversized = len == MAX_HEAD && !ends_head(head);
    let path = if oversized { None } else { request_path(head) };
    let (status, body) = match path {
        Some("/metrics") => ("200 OK", registry.render_prometheus()),
        Some("/" | "/text") => ("200 OK", registry.render_text()),
        Some(_) => ("404 Not Found", String::from("not found\n")),
        None => ("400 Bad Request", String::from("bad request\n")),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Whether `head` holds the blank line that ends a request head.
fn ends_head(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Reads into `buf` until the head's blank line, the end of the stream
/// or a full buffer, within [`HEAD_DEADLINE`] of the call. The bytes
/// read; `None` when nothing arrived, the deadline passed or the read
/// failed.
fn read_head(stream: &mut TcpStream, buf: &mut [u8]) -> Option<usize> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut len = 0;
    while len < buf.len() && !ends_head(&buf[..len]) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(_) => return None,
        }
    }
    (len > 0).then_some(len)
}

/// The path of the head's `METHOD PATH …` line — a method of ASCII
/// capitals and a path from `/`; `None` for any other first line.
fn request_path(head: &[u8]) -> Option<&str> {
    let line = head.split(|&b| b == b'\n').next()?;
    let mut words = std::str::from_utf8(line).ok()?.split_whitespace();
    let (method, path) = (words.next()?, words.next()?);
    let method_ok = method.bytes().all(|b| b.is_ascii_uppercase());
    (method_ok && path.starts_with('/')).then_some(path)
}

/// Fetches `path` from a [`MetricsServer`] and returns the response body
/// (the client half of the endpoint, used by tests and the CI smoke).
///
/// # Errors
///
/// Propagates connect/read errors; a non-200 status is surfaced as
/// [`std::io::ErrorKind::InvalidData`].
pub fn scrape<A: ToSocketAddrs>(addr: A, path: &str) -> std::io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.0\r\nHost: avmem\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
    })?;
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("").to_string();
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, status));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_both_exporters_and_404() {
        let registry = Arc::new(Registry::new());
        registry.counter("avmem_test_total", "Test.", &[]).add(7);
        let server = MetricsServer::bind(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let prom = scrape(addr, "/metrics").unwrap();
        assert!(prom.contains("# TYPE avmem_test_total counter"));
        assert!(prom.contains("avmem_test_total 7"));
        let text = scrape(addr, "/").unwrap();
        assert!(text.starts_with("# avmem metrics snapshot"));
        assert!(scrape(addr, "/nope").is_err());
    }

    /// Sends `request` on a fresh connection (then half-closes it when
    /// `close` says so) and returns the whole response, lossily decoded.
    fn exchange(addr: SocketAddr, request: &[u8], close: bool) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        stream.write_all(request).unwrap();
        if close {
            stream.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        String::from_utf8_lossy(&response).into_owned()
    }

    fn server() -> MetricsServer {
        let registry = Arc::new(Registry::new());
        registry.counter("avmem_test_total", "Test.", &[]).add(7);
        MetricsServer::bind(registry, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn a_silent_client_does_not_stall_the_next_scrape() {
        let server = server();
        let addr = server.local_addr();
        // Queued ahead of the scrape, sends nothing, and stays open.
        let silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let prom = scrape(addr, "/metrics").unwrap();
        assert!(prom.contains("avmem_test_total 7"));
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(1), "the scrape waited {waited:?}");
        drop(silent);
    }

    #[test]
    fn a_head_without_a_request_line_gets_400() {
        let server = server();
        let response = exchange(server.local_addr(), &[0xff; 1000], true);
        assert!(response.starts_with("HTTP/1.0 400 Bad Request"), "{response}");
        let response = exchange(server.local_addr(), b"/metrics GET\r\n\r\n", false);
        assert!(response.starts_with("HTTP/1.0 400 Bad Request"), "{response}");
    }

    #[test]
    fn a_head_that_fills_the_buffer_without_ending_gets_400() {
        let server = server();
        let mut request = b"GET /metrics HTTP/1.0\r\nX: ".to_vec();
        request.resize(MAX_HEAD, b'a');
        let response = exchange(server.local_addr(), &request, false);
        assert!(response.starts_with("HTTP/1.0 400 Bad Request"), "{response}");
    }

    #[test]
    fn an_empty_connection_leaves_the_next_scrape_working() {
        let server = server();
        let addr = server.local_addr();
        drop(TcpStream::connect(addr).unwrap());
        assert!(exchange(addr, b"", true).is_empty(), "an empty head is not answered");
        assert!(scrape(addr, "/metrics").unwrap().contains("avmem_test_total 7"));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let registry = Arc::new(Registry::new());
        let mut server = MetricsServer::bind(registry, "127.0.0.1:0").unwrap();
        server.shutdown();
        server.shutdown();
    }
}
