//! A minimal, dependency-free HTTP/1.1 endpoint for exposing metrics
//! and report tables from a long-running `certchain serve` process.
//!
//! Scope is deliberately tiny: GET only, path-based routing, one
//! request per connection (`Connection: close`), bounded header
//! reading. That is enough for `curl`/scrapers and keeps the whole
//! server auditable — the workspace is hermetic (std-only), so this is
//! hand-rolled on [`std::net::TcpListener`] rather than pulled in as a
//! framework.
//!
//! Handlers receive an [`HttpRequest`] carrying the path, the raw query
//! string, and the `Accept` header, which is what the serve endpoints
//! use for content negotiation (`/report?format=json`,
//! `/metrics?format=prometheus`, `Accept: application/json`, ...).
//!
//! Per-request accounting ([`HttpStats`]) tallies requests by path,
//! responses by status, and a latency histogram. Request arrival is
//! workload-driven wall-clock data, so the stats surface only in the
//! non-deterministic `timing` section of a snapshot — never in the
//! deterministic section.
//!
//! Concurrency model: one acceptor thread hands every accepted
//! connection to a thread of its own, so a slow or idle client holds
//! only its own connection, never the endpoint. At most
//! `MAX_CONNECTIONS` are served at once; the acceptor answers one more
//! with an immediate `503` (as it does when a thread cannot be
//! spawned). Each connection has one *total* deadline for its request
//! head (`HEAD_DEADLINE`, checked before every read, so trickling bytes
//! cannot extend it) and misses it with a best-effort `408`; writing the
//! response has its own total deadline. The handler runs behind an
//! `Arc` and may run on several connections at once, so it captures
//! shared state behind locks (e.g. a mutex over the latest analysis
//! snapshot). Shutdown is cooperative: [`HttpServer::shutdown`] flips a
//! flag and self-connects to unblock `accept`, then joins the acceptor,
//! which joins the connections in flight; the deadlines bound that
//! wait. The only clock reads are stopwatches from the sanctioned
//! [`crate::clock`].

use crate::clock::Stopwatch;
use crate::metrics::Histogram;
use crate::snapshot::HttpSnapshot;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::Duration;

/// Maximum bytes of request head (request line + headers) read before
/// the connection is rejected with `431`.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Connections served at once; the acceptor answers the next one with
/// `503` until a slot frees up.
const MAX_CONNECTIONS: usize = 64;

/// Total time a client has, from accept, to deliver its request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// Total time a client has to take one whole response.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Maximum distinct request paths tracked by [`HttpStats`] before new
/// paths collapse into the `<other>` bucket (scrapers probing random
/// URLs must not grow the map without bound).
const MAX_TRACKED_PATHS: usize = 32;

/// A parsed GET request as seen by a [`Handler`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request path with the query string stripped, e.g. `/metrics`.
    pub path: String,
    /// Raw query string without the leading `?` (empty if none).
    pub query: String,
    /// The `Accept` header value, if the client sent one.
    pub accept: Option<String>,
}

impl HttpRequest {
    /// A request for `path` with no query and no `Accept` header
    /// (convenience for tests and internal callers).
    pub fn for_path(path: &str) -> HttpRequest {
        HttpRequest {
            path: path.to_string(),
            ..HttpRequest::default()
        }
    }

    /// Value of the first `key=value` pair in the query string, if any.
    /// No percent-decoding — endpoint formats are plain tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Whether the `Accept` header lists `mime` (exact media-type match
    /// on each comma-separated entry, parameters after `;` ignored).
    pub fn accepts(&self, mime: &str) -> bool {
        self.accept.as_deref().is_some_and(|accept| {
            accept
                .split(',')
                .map(|entry| entry.split(';').next().unwrap_or(entry).trim())
                .any(|media| media.eq_ignore_ascii_case(mime))
        })
    }
}

/// A response produced by a request handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` response with the given content type.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// A plain-text `404 Not Found`.
    pub fn not_found() -> HttpResponse {
        HttpResponse {
            status: 404,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: b"not found\n".to_vec(),
        }
    }

    /// A plain-text `406 Not Acceptable` carrying a hint about which
    /// formats the endpoint does support.
    pub fn not_acceptable(hint: &str) -> HttpResponse {
        HttpResponse {
            status: 406,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: format!("not acceptable: {hint}\n").into_bytes(),
        }
    }

    /// A plain-text `503 Service Unavailable` (used by the health
    /// endpoint's stall watchdog).
    pub fn service_unavailable(content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 503,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Per-request accounting: request paths, response statuses, latency.
///
/// Thread-safe and cheap; one instance lives for the whole serve
/// process. Snapshots land in [`HttpSnapshot`], which renders only in
/// the timing section of a metrics export.
#[derive(Debug, Default)]
pub struct HttpStats {
    requests: Mutex<BTreeMap<String, u64>>,
    responses: Mutex<BTreeMap<u16, u64>>,
    duration_us: Histogram,
}

impl HttpStats {
    /// An empty accounting block.
    pub fn new() -> HttpStats {
        HttpStats::default()
    }

    fn note_request(&self, path: &str) {
        let mut map = self
            .requests
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(n) = map.get_mut(path) {
            *n += 1;
        } else if map.len() < MAX_TRACKED_PATHS {
            map.insert(path.to_string(), 1);
        } else {
            *map.entry("<other>".to_string()).or_insert(0) += 1;
        }
    }

    fn note_response(&self, status: u16, dur_us: u64) {
        let mut map = self
            .responses
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *map.entry(status).or_insert(0) += 1;
        drop(map);
        self.duration_us.observe(dur_us);
    }

    /// Freeze the current tallies.
    pub fn snapshot(&self) -> HttpSnapshot {
        let requests = self
            .requests
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        let responses = self
            .responses
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|(status, n)| (status.to_string(), *n))
            .collect();
        HttpSnapshot {
            requests,
            responses,
            duration_us: self.duration_us.snapshot(),
        }
    }
}

/// Request handler: maps a parsed GET request to a response.
pub type Handler = dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync;

/// A background HTTP listener serving GET requests via a shared handler.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving on a
    /// background thread, without per-request accounting.
    pub fn bind(addr: &str, handler: Arc<Handler>) -> std::io::Result<HttpServer> {
        HttpServer::bind_with_stats(addr, handler, None)
    }

    /// Bind `addr` and start serving; when `stats` is given, every
    /// request is tallied into it (path, status, latency), and so are
    /// the listener's own `408`s and over-cap `503`s.
    pub fn bind_with_stats(
        addr: &str,
        handler: Arc<Handler>,
        stats: Option<Arc<HttpStats>>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("certchain-http".to_string())
            .spawn(move || {
                let in_flight = AtomicUsize::new(0);
                // Connections run on scoped threads: leaving the scope
                // at shutdown joins the ones still in flight, which the
                // head and write deadlines keep short.
                std::thread::scope(|scope| {
                    for conn in listener.incoming() {
                        if stop_flag.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            dispatch(scope, stream, &in_flight, &*handler, stats.as_deref());
                        }
                    }
                });
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the acceptor, and join it once the
    /// connections in flight are done, which their deadlines bound.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Releases its connection slot on drop, so a panicking handler cannot
/// leak one.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Claim a slot, or `None` when `MAX_CONNECTIONS` are in flight.
    /// Only the acceptor claims, so no two claims race for the last
    /// slot. `Relaxed` suffices: the count publishes no other data.
    fn claim(in_flight: &'a AtomicUsize) -> Option<Slot<'a>> {
        let before = in_flight.fetch_add(1, Ordering::Relaxed);
        let slot = Slot(in_flight);
        (before < MAX_CONNECTIONS).then_some(slot)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve `stream` on a thread of its own, or refuse it with `503` when
/// the cap is reached or the thread cannot be spawned.
fn dispatch<'scope>(
    scope: &'scope Scope<'scope, '_>,
    stream: TcpStream,
    in_flight: &'scope AtomicUsize,
    handler: &'scope Handler,
    stats: Option<&'scope HttpStats>,
) {
    let Some(slot) = Slot::claim(in_flight) else {
        return refuse(&stream, stats);
    };
    // A failed spawn drops the closure and the stream with it; keep a
    // handle to answer on.
    let Ok(spare) = stream.try_clone() else {
        return;
    };
    let spawned = std::thread::Builder::new()
        .name("certchain-http-conn".to_string())
        .spawn_scoped(scope, move || {
            let _slot = slot;
            // A broken client only loses its own connection.
            let _ = serve_one(stream, handler, stats);
        });
    if spawned.is_err() {
        refuse(&spare, stats);
    }
}

/// The acceptor's `503`. The response fits in the socket's send
/// buffer, so the write does not wait on the client.
fn refuse(stream: &TcpStream, stats: Option<&HttpStats>) {
    let response =
        HttpResponse::service_unavailable("text/plain; charset=utf-8", "too many connections\n");
    if let Some(stats) = stats {
        stats.note_response(response.status, 0);
    }
    let _ = write_response(stream, &response);
}

/// A socket under one total deadline, for reading a request head or for
/// writing a response: every read or write first cuts the socket timeout
/// to the time left, so a client cannot stretch the deadline by moving
/// one byte at a time.
struct Deadline<'a> {
    stream: &'a TcpStream,
    watch: Stopwatch,
    limit: Duration,
}

impl<'a> Deadline<'a> {
    fn new(stream: &'a TcpStream, limit: Duration) -> Deadline<'a> {
        Deadline {
            stream,
            watch: Stopwatch::start(),
            limit,
        }
    }

    fn left(&self) -> std::io::Result<Duration> {
        let left = self
            .limit
            .saturating_sub(Duration::from_micros(self.watch.elapsed_micros()));
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        let mut stream = self.stream;
        stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut stream = self.stream;
        stream.flush()
    }
}

/// Read one request head, dispatch, write one response, close. A head
/// that misses [`HEAD_DEADLINE`] is answered `408`.
fn serve_one(
    stream: TcpStream,
    handler: &Handler,
    stats: Option<&HttpStats>,
) -> std::io::Result<()> {
    let watch = Stopwatch::start();
    let response = match respond(&stream, handler, stats) {
        Ok(response) => response,
        // A timed-out socket read is `WouldBlock` on Unix, `TimedOut`
        // elsewhere and from `Deadline::left`.
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => HttpResponse {
            status: 408,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: b"request head not received in time\n".to_vec(),
        },
        Err(e) => return Err(e),
    };
    if let Some(stats) = stats {
        stats.note_response(response.status, watch.elapsed_micros());
    }
    write_response(&stream, &response)
}

/// Read the request head under [`HEAD_DEADLINE`] and produce the
/// response: the handler's, or the listener's own `4xx`.
fn respond(
    stream: &TcpStream,
    handler: &Handler,
    stats: Option<&HttpStats>,
) -> std::io::Result<HttpResponse> {
    let mut reader =
        BufReader::new(Deadline::new(stream, HEAD_DEADLINE)).take(MAX_HEAD_BYTES as u64);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut request = match parse_request_line(&line) {
        Ok(request) => request,
        Err(status) => {
            return Ok(HttpResponse {
                status,
                content_type: "text/plain; charset=utf-8".to_string(),
                body: match status {
                    405 => b"only GET is supported\n".to_vec(),
                    _ => b"malformed request\n".to_vec(),
                },
            })
        }
    };
    // Drain headers until the blank line, keeping only `Accept`; the
    // body (none for GET) is ignored.
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 && reader.limit() == 0 {
            return Ok(HttpResponse {
                status: 431,
                content_type: "text/plain; charset=utf-8".to_string(),
                body: b"request head too large\n".to_vec(),
            });
        }
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("accept") {
                request.accept = Some(value.trim().to_string());
            }
        }
    }
    if let Some(stats) = stats {
        stats.note_request(&request.path);
    }
    Ok(handler(&request))
}

/// Parse `GET <path> HTTP/1.x` into an [`HttpRequest`] (query string
/// preserved, `Accept` filled in later by the header loop), or the
/// error status to answer with.
fn parse_request_line(line: &str) -> Result<HttpRequest, u16> {
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(400u16)?;
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if !version.starts_with("HTTP/1.") {
        return Err(400);
    }
    if method != "GET" {
        return Err(405);
    }
    if !target.starts_with('/') {
        return Err(400);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(HttpRequest {
        path: path.to_string(),
        query: query.to_string(),
        accept: None,
    })
}

/// Write `response` under [`WRITE_DEADLINE`].
fn write_response(stream: &TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let mut stream = Deadline::new(stream, WRITE_DEADLINE);
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()?;
    // End the response now: the acceptor may still hold a duplicate of
    // this socket (see `dispatch`), and closing ours alone sends no FIN.
    stream.stream.shutdown(Shutdown::Write)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn handler() -> Arc<Handler> {
        Arc::new(|req: &HttpRequest| match req.path.as_str() {
            "/ping" => HttpResponse::ok("text/plain; charset=utf-8", "pong\n"),
            "/json" => HttpResponse::ok("application/json", "{\"ok\":true}"),
            "/echo" => {
                let format = req.query_param("format").unwrap_or("none");
                let wants_json = req.accepts("application/json");
                HttpResponse::ok(
                    "text/plain; charset=utf-8",
                    format!("format={format} json={wants_json}\n"),
                )
            }
            _ => HttpResponse::not_found(),
        })
    }

    fn server() -> HttpServer {
        HttpServer::bind("127.0.0.1:0", handler()).expect("bind")
    }

    /// Issue one raw request, return (status line, body).
    fn request(addr: SocketAddr, raw: &str) -> (String, String) {
        request_within(addr, raw, Duration::from_secs(30))
    }

    /// [`request`], failing if the answer takes longer than `limit`.
    fn request_within(addr: SocketAddr, raw: &str, limit: Duration) -> (String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(limit)).expect("read timeout");
        conn.write_all(raw.as_bytes()).expect("write");
        let mut text = String::new();
        conn.read_to_string(&mut text).expect("read");
        let status = text.lines().next().unwrap_or("").to_string();
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn get_routes_to_handler() {
        let srv = server();
        let (status, body) = request(srv.local_addr(), "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "pong\n");
    }

    #[test]
    fn query_and_accept_reach_the_handler() {
        let srv = server();
        let (status, body) = request(
            srv.local_addr(),
            "GET /echo?format=json&x=1 HTTP/1.1\r\nAccept: application/json\r\n\r\n",
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "format=json json=true\n");
        let (_, body) = request(srv.local_addr(), "GET /echo HTTP/1.1\r\n\r\n");
        assert_eq!(body, "format=none json=false\n");
        let (status, _) = request(srv.local_addr(), "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
    }

    #[test]
    fn accepts_matches_media_types_not_substrings() {
        let req = HttpRequest {
            path: "/".to_string(),
            query: String::new(),
            accept: Some("text/html, application/json;q=0.9".to_string()),
        };
        assert!(req.accepts("application/json"));
        assert!(req.accepts("text/html"));
        assert!(!req.accepts("application/jso"));
        assert!(!req.accepts("text/plain"));
    }

    #[test]
    fn query_param_parses_pairs() {
        let req = HttpRequest {
            path: "/".to_string(),
            query: "a=1&format=prometheus&b=".to_string(),
            accept: None,
        };
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("a"), Some("1"));
        assert_eq!(req.query_param("b"), Some(""));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn non_get_is_405_and_garbage_is_400() {
        let srv = server();
        let (status, _) = request(
            srv.local_addr(),
            "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
        let (status, _) = request(srv.local_addr(), "complete nonsense\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
    }

    #[test]
    fn stats_tally_paths_statuses_and_latency() {
        let stats = Arc::new(HttpStats::new());
        let srv = HttpServer::bind_with_stats("127.0.0.1:0", handler(), Some(Arc::clone(&stats)))
            .expect("bind");
        for _ in 0..3 {
            let _ = request(srv.local_addr(), "GET /ping HTTP/1.1\r\n\r\n");
        }
        let _ = request(srv.local_addr(), "GET /nope HTTP/1.1\r\n\r\n");
        let snap = stats.snapshot();
        assert_eq!(snap.requests.get("/ping"), Some(&3));
        assert_eq!(snap.requests.get("/nope"), Some(&1));
        assert_eq!(snap.responses.get("200"), Some(&3));
        assert_eq!(snap.responses.get("404"), Some(&1));
        assert_eq!(snap.duration_us.count, 4);
    }

    #[test]
    fn stats_cap_distinct_paths() {
        let stats = HttpStats::new();
        for i in 0..100 {
            stats.note_request(&format!("/probe/{i}"));
        }
        let snap = stats.snapshot();
        assert!(snap.requests.len() <= MAX_TRACKED_PATHS + 1);
        let overflow = snap.requests.get("<other>").copied().unwrap_or(0);
        let total: u64 = snap.requests.values().sum();
        assert_eq!(total, 100);
        assert!(overflow > 0);
    }

    #[test]
    fn not_acceptable_carries_hint() {
        let resp = HttpResponse::not_acceptable("supported: text, json");
        assert_eq!(resp.status, 406);
        assert!(String::from_utf8_lossy(&resp.body).contains("supported: text, json"));
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_accept() {
        let mut srv = server();
        let addr = srv.local_addr();
        srv.shutdown();
        srv.shutdown();
        // After shutdown the port either refuses connections or — if the
        // OS briefly accepted into the closed listener's backlog — never
        // answers a request.
        if let Ok(mut conn) = TcpStream::connect(addr) {
            let _ = conn.write_all(b"GET /ping HTTP/1.1\r\n\r\n");
            let mut text = String::new();
            let _ = conn.read_to_string(&mut text);
            assert!(text.is_empty(), "shut-down server answered: {text:?}");
        }
    }

    fn server_with_stats() -> (HttpServer, Arc<HttpStats>) {
        let stats = Arc::new(HttpStats::new());
        let srv = HttpServer::bind_with_stats("127.0.0.1:0", handler(), Some(Arc::clone(&stats)))
            .expect("bind");
        (srv, stats)
    }

    fn responses(stats: &HttpStats, status: &str) -> u64 {
        stats.snapshot().responses.get(status).copied().unwrap_or(0)
    }

    /// Whether `took` is the head deadline, give or take timer slack.
    fn at_head_deadline(took: Duration) -> bool {
        took + Duration::from_millis(250) >= HEAD_DEADLINE
            && took < HEAD_DEADLINE + Duration::from_secs(2)
    }

    #[test]
    fn idle_client_does_not_block_other_requests() {
        let srv = server();
        let _idle = TcpStream::connect(srv.local_addr()).expect("connect idle client");
        let start = Instant::now();
        let (status, body) = request_within(
            srv.local_addr(),
            "GET /ping HTTP/1.1\r\n\r\n",
            Duration::from_secs(2),
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "pong\n");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "/ping took {:?} beside an idle client",
            start.elapsed()
        );
    }

    #[test]
    fn silent_client_is_cut_at_the_head_deadline_with_408() {
        let (srv, stats) = server_with_stats();
        let start = Instant::now();
        let mut conn = TcpStream::connect(srv.local_addr()).expect("connect");
        conn.set_read_timeout(Some(HEAD_DEADLINE * 3))
            .expect("read timeout");
        let mut text = String::new();
        conn.read_to_string(&mut text)
            .expect("server closes the connection");
        let took = start.elapsed();
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text:?}"
        );
        assert!(at_head_deadline(took), "cut after {took:?}");
        assert_eq!(responses(&stats, "408"), 1);
    }

    #[test]
    fn trickling_client_is_cut_at_the_total_head_deadline() {
        let (srv, stats) = server_with_stats();
        let start = Instant::now();
        let mut conn = TcpStream::connect(srv.local_addr()).expect("connect");
        conn.write_all(b"GET /ping HTTP/1.1\r\nX-Slow: ")
            .expect("write");
        // One more header byte every 200 ms (the read timeout paces the
        // loop) until the server answers and closes.
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("read timeout");
        let mut buf = [0u8; 256];
        while start.elapsed() < HEAD_DEADLINE * 3 {
            if conn.write_all(b"x").is_err() {
                break;
            }
            match conn.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        let took = start.elapsed();
        assert!(at_head_deadline(took), "cut after {took:?}");
        assert_eq!(responses(&stats, "408"), 1);
    }

    #[test]
    fn connection_over_the_cap_gets_503_at_once() {
        let (srv, stats) = server_with_stats();
        // Idle clients hold every slot until the head deadline; the
        // acceptor takes connections in order, so all of them are in
        // flight by the time it reaches the next one.
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(srv.local_addr()).expect("connect held client"))
            .collect();
        let start = Instant::now();
        let mut conn = TcpStream::connect(srv.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let mut text = String::new();
        conn.read_to_string(&mut text).expect("refused at once");
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "503 took {:?}",
            start.elapsed()
        );
        assert_eq!(responses(&stats, "503"), 1);
        drop(held);
    }

    #[test]
    fn shutdown_is_bounded_while_an_idle_client_stays() {
        let mut srv = server();
        let _idle = TcpStream::connect(srv.local_addr()).expect("connect idle client");
        // Connections are taken in order: once /ping is answered, the
        // idle one is in flight on its own thread.
        let (status, _) = request_within(
            srv.local_addr(),
            "GET /ping HTTP/1.1\r\n\r\n",
            Duration::from_secs(2),
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        let start = Instant::now();
        srv.shutdown();
        assert!(
            start.elapsed() < HEAD_DEADLINE + Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn serves_many_sequential_requests() {
        let srv = server();
        for _ in 0..16 {
            let (status, body) = request(srv.local_addr(), "GET /ping HTTP/1.0\r\n\r\n");
            assert_eq!(status, "HTTP/1.1 200 OK");
            assert_eq!(body, "pong\n");
        }
    }
}
