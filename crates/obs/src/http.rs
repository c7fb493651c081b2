//! The workspace's one HTTP/1.1 server, hand-rolled on `std::net` (the
//! build is offline). The query daemon (`spammass-serve`) and the metrics
//! exporter are two [`Routes`] tables [`start`]ed on it: one accept
//! thread hands each connection to a thread of its own, which serves it
//! keep-alive, so an idle client holds up no other client and no
//! shutdown.
//!
//! Deliberately *not* implemented: request bodies, chunked transfer,
//! percent-decoding, multi-line headers. Every endpoint in this
//! workspace is a GET with a short query string; anything outside that
//! envelope is rejected with a typed error the server maps onto a
//! `400`/`414`/`431` response.

use crate::json::Json;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line, in bytes. Longer lines are rejected
/// as [`RequestError::UriTooLong`] (HTTP 414).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Cap on the total header section, in bytes. Past it the request is
/// rejected as [`RequestError::TooLarge`] (HTTP 431).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed request: method, split target, and connection semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path with any query string removed (`/score`).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order. A key
    /// with no `=` is kept with an empty value.
    pub query: Vec<(String, String)>,
    /// Whether the connection should be kept open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and a
    /// `Connection:` header overrides either way.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection before sending a request line —
    /// the clean end of a keep-alive session, not a protocol error.
    Closed,
    /// The request violates the expected `METHOD PATH HTTP/x.y` shape.
    Malformed(String),
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    UriTooLong(String),
    /// The header section exceeded [`MAX_HEADER_BYTES`].
    TooLarge(String),
    /// Transport failure (including read timeouts).
    Io(io::Error),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed before a request"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::UriTooLong(m) | RequestError::TooLarge(m) => {
                write!(f, "request too large: {m}")
            }
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl RequestError {
    /// The `(status, message)` an HTTP server should answer with, or
    /// `None` when no response belongs on the wire (clean close, broken
    /// transport).
    pub fn response(&self) -> Option<(&'static str, String)> {
        match self {
            RequestError::Closed | RequestError::Io(_) => None,
            RequestError::Malformed(m) => Some(("400 Bad Request", format!("{m}\n"))),
            RequestError::UriTooLong(m) => Some(("414 URI Too Long", format!("{m}\n"))),
            RequestError::TooLarge(m) => {
                Some(("431 Request Header Fields Too Large", format!("{m}\n")))
            }
        }
    }
}

/// Reads one `\n`-terminated line, refusing to buffer more than `max`
/// bytes. `Ok(None)` is a clean EOF before any byte arrived.
fn read_line_limited(
    reader: &mut impl BufRead,
    max: usize,
    what: &str,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(RequestError::TooLarge(format!("{what} exceeds {max} bytes")));
                }
            }
            Err(e) => return Err(RequestError::Io(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Malformed(format!("{what} is not utf-8")))
}

/// Parses the query-string tail of a request target.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Reads and parses one request (line + headers) off `reader`.
///
/// Headers are drained but not retained except for `Connection:`, which
/// decides [`Request::keep_alive`]. The body, if any, is **not** read —
/// callers that accept only GET can treat any body as the next (broken)
/// request and close.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let request_line = match read_line_limited(reader, MAX_REQUEST_LINE, "request line") {
        Ok(Some(line)) => line,
        Ok(None) => return Err(RequestError::Closed),
        Err(RequestError::TooLarge(m)) => return Err(RequestError::UriTooLong(m)),
        Err(e) => return Err(e),
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "request line {request_line:?} is not `METHOD PATH HTTP/x.y`"
            )))
        }
    };
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!("bad method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(RequestError::Malformed(format!("bad request target {target:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(RequestError::Malformed(format!("bad http version {other:?}"))),
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    // Drain headers up to the blank line; only Connection: matters.
    let mut keep_alive = http11;
    let mut header_bytes = 0usize;
    loop {
        let line = match read_line_limited(reader, MAX_HEADER_BYTES, "header line")? {
            // EOF inside the header section: the request never finished.
            None => return Err(RequestError::Malformed("eof inside headers".into())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len() + 2;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge(format!(
                "header section exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("header line {line:?} has no colon")));
        };
        if name.trim().eq_ignore_ascii_case("connection") {
            match value.trim().to_ascii_lowercase().as_str() {
                "close" => keep_alive = false,
                "keep-alive" => keep_alive = true,
                _ => {}
            }
        }
    }

    Ok(Request { method: method.to_string(), path, query, keep_alive })
}

/// Writes a complete `HTTP/1.1` response with `Content-Length` framing
/// and the matching `Connection:` header, then flushes. A `503` says when
/// to retry.
fn write_response(
    writer: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = if status.starts_with("503") { "Retry-After: 1\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n",
        body.len(),
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Connections one server holds open at once, each on its own thread
/// for as long as its client keeps it, busy or idle. The daemon's and
/// the exporter's clients open one to a handful; 64 leaves them room
/// while a flood of idle clients costs 64 threads, not the host. Past
/// it a new connection is answered `503` unread, not queued.
pub const MAX_CONNECTIONS: usize = 64;

/// Read and write timeout of every connection.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Content type of every plain-text answer.
pub const TEXT: &str = "text/plain; charset=utf-8";

/// One answer: status line (`200 OK`), content type, body.
pub type Response = (&'static str, &'static str, String);

/// A `200 OK` carrying `doc` as one line of JSON.
pub fn json(doc: &Json) -> Response {
    let mut body = doc.render();
    body.push('\n');
    ("200 OK", "application/json", body)
}

/// A server's route table.
pub trait Routes: Send + Sync + 'static {
    /// The answer to one parsed request.
    fn route(&self, request: &Request) -> Response;

    /// Called for each request answered unrouted: malformed or oversized.
    fn refused(&self) {}
}

/// A running server. Dropping it shuts every open connection down (a
/// request in flight loses its answer) and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Binds `addr` (`127.0.0.1:0` for an ephemeral port) and serves
/// `routes` until the returned [`Server`] is dropped.
pub fn start<R: Routes>(addr: &str, routes: Arc<R>) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stopping = stop.clone();
    let accept = std::thread::Builder::new()
        .name("spammass-http".to_string())
        .spawn(move || accept_loop(&listener, &stopping, &routes))?;
    Ok(Server { addr, stop, accept: Some(accept) })
}

impl Server {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept() so its thread sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop<R: Routes>(listener: &TcpListener, stop: &AtomicBool, routes: &Arc<R>) {
    // Each connection thread not yet seen to finish, with a second handle
    // on its socket so that a stopping server can end it.
    let mut open: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        for (thread, _) in open.extract_if(.., |(thread, _)| thread.is_finished()) {
            // A panic has already been reported by the panic hook.
            let _ = thread.join();
        }
        if open.len() >= MAX_CONNECTIONS {
            crate::counter(crate::names::SERVE_SHED, 1.0);
            let busy = "too many open connections\n";
            let _ = write_response(&mut &stream, "503 Service Unavailable", TEXT, busy, false);
            continue;
        }
        let Ok(handle) = stream.try_clone() else { continue };
        let routes = routes.clone();
        let spawned =
            std::thread::Builder::new().name("spammass-http-conn".into()).spawn(move || {
                let _ = serve_connection(&*routes, &stream);
                // The accept loop's handle keeps the socket open: end it.
                let _ = stream.shutdown(Shutdown::Both);
            });
        if let Ok(thread) = spawned {
            open.push((thread, handle));
        }
    }
    for (_, stream) in &open {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (thread, _) in open {
        let _ = thread.join();
    }
}

fn serve_connection(routes: &impl Routes, stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(IDLE_TIMEOUT))?;
    // Small request/response pairs on a keep-alive connection are the
    // worst case for Nagle + delayed ACK; latency is the product here.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(e) => {
                // Malformed/oversized requests get a typed error; clean
                // closes and transport failures end the connection.
                if let Some((status, message)) = e.response() {
                    routes.refused();
                    write_response(reader.get_mut(), status, TEXT, &message, false)?;
                }
                return Ok(());
            }
        };
        let (status, content_type, body) = routes.route(&request);
        write_response(reader.get_mut(), status, content_type, &body, request.keep_alive)?;
        if !request.keep_alive {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.query.is_empty());
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_query_strings() {
        let r = parse("GET /score?node=42&k=10&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/score");
        assert_eq!(r.query_param("node"), Some("42"));
        assert_eq!(r.query_param("k"), Some("10"));
        assert_eq!(r.query_param("flag"), Some(""));
        assert_eq!(r.query_param("absent"), None);
    }

    #[test]
    fn malformed_request_lines_are_typed() {
        for raw in [
            "GARBAGE\r\n\r\n",                          // one token
            "GET /x\r\n\r\n",                           // missing version
            "GET /x HTTP/1.1 extra\r\n\r\n",            // trailing token
            "GET /x FTP/1.0\r\n\r\n",                   // not http
            "GET /x HTTP/2.0\r\n\r\n",                  // unsupported version
            "get /x HTTP/1.1\r\n\r\n",                  // lowercase method
            "GET noslash HTTP/1.1\r\n\r\n",             // target without /
            "GET /x HTTP/1.1\r\nno colon here\r\n\r\n", // broken header
            "GET /x HTTP/1.1\r\nHost: x\r\n",           // eof inside headers
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, RequestError::Malformed(_)), "{raw:?} -> {err}");
            let (status, _) = err.response().expect("malformed requests get a response");
            assert!(status.starts_with("400"), "{raw:?} -> {status}");
        }
    }

    #[test]
    fn oversized_request_line_and_headers_are_rejected() {
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse(&long_path).unwrap_err();
        assert!(matches!(err, RequestError::UriTooLong(_)), "{err}");
        let (status, _) = err.response().unwrap();
        assert_eq!(status, "414 URI Too Long");

        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..2048 {
            many_headers.push_str(&format!("X-Padding-{i}: {}\r\n", "b".repeat(64)));
        }
        many_headers.push_str("\r\n");
        let err = parse(&many_headers).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "{err}");
        let (status, _) = err.response().unwrap();
        assert!(status.starts_with("431"), "{status}");

        // One single header line longer than the whole budget.
        let giant = format!("GET /x HTTP/1.1\r\nX-Giant: {}\r\n\r\n", "c".repeat(MAX_HEADER_BYTES));
        assert!(matches!(parse(&giant).unwrap_err(), RequestError::TooLarge(_)));
    }

    #[test]
    fn keep_alive_vs_close_semantics() {
        // HTTP/1.1: keep-alive unless told to close.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap().keep_alive);
        // HTTP/1.0: close unless told to keep alive.
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().keep_alive);
        // Unknown Connection values leave the version default in place.
        assert!(parse("GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n").unwrap().keep_alive);
    }

    #[test]
    fn clean_eof_is_closed_not_an_error_response() {
        let err = parse("").unwrap_err();
        assert!(matches!(err, RequestError::Closed));
        assert!(err.response().is_none());
    }

    #[test]
    fn sequential_requests_on_one_reader() {
        let raw =
            "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b?n=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request(&mut reader).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.query_param("n"), Some("1"));
        assert!(!second.keep_alive);
        assert!(matches!(read_request(&mut reader).unwrap_err(), RequestError::Closed));
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let r = parse("GET /x HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(r.path, "/x");
    }

    #[test]
    fn write_response_frames_and_labels() {
        let mut out = Vec::new();
        write_response(&mut out, "200 OK", "application/json", "{\"a\":1}\n", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 8\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"a\":1}\n"), "{text}");
        assert!(!text.contains("Retry-After"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, "404 Not Found", "text/plain", "nope\n", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, "503 Service Unavailable", "text/plain", "busy\n", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\nConnection: close\r\n"), "{text}");
    }
}
