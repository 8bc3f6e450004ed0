//! A hand-rolled HTTP/1.1 subset on `std::net` — just enough protocol
//! for the daemon's job API and its tests, with zero dependencies.
//!
//! Server side: [`read_request`] parses one request (request line,
//! headers, `Content-Length` body) off a stream; [`respond`] /
//! [`respond_json`] write a complete keep-alive response (the
//! connection stays open for the next request unless the client asked
//! `Connection: close`); and [`Chunked`] writes a
//! `Transfer-Encoding: chunked` body incrementally, which is how
//! `GET /jobs/<id>/live` streams a `live.jsonl` file that is still
//! being written — a live follow ties up the connection for the job's
//! lifetime, so it is the one response that declares
//! `Connection: close`.
//!
//! Every message (a whole response, the chunked head, each chunk, the
//! terminal chunk) is assembled in memory and sent with one
//! `write_all`, and the server sets `TCP_NODELAY` on every accepted
//! socket: a message dribbled out in several small writes stalls on
//! Nagle's algorithm until the peer's delayed ACK, tens of
//! milliseconds per exchange.
//!
//! Client side ([`Client`], plus the one-shot [`request`] / [`stream`]
//! wrappers): the matching minimal client, which lives in
//! [`mixedprec::http`] so `craft submit` shares it, re-exported here.

use std::io::{Read, Write};

pub use mixedprec::http::{request, stream, Client};

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/jobs/ep-1/live`).
    pub path: String,
    /// Raw query string after `?` (empty if absent).
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The client sent `Connection: close` — respond, then hang up
    /// instead of waiting for another request.
    pub close: bool,
    /// The `x-craft-trace` request id, if the client sent one. The
    /// daemon stamps it on the request's log record and, for job
    /// submissions, onto the job itself (record, manifest, run-dir
    /// spans), stitching one client call to everything it caused.
    pub trace: Option<String>,
}

/// Map a [`read_request`] error message to a stable low-cardinality
/// reason token, suitable as a metric-name suffix
/// (`http.parse_errors.<reason>`). Matches on each message's fixed
/// prefix only: the rest quotes client bytes, which may contain any
/// other message's words.
pub fn parse_error_reason(err: &str) -> &'static str {
    if err.starts_with("request head too large") {
        "head_too_large"
    } else if err.starts_with("request body too large") {
        "body_too_large"
    } else if err.starts_with("malformed request line") {
        "bad_request_line"
    } else if err.starts_with("bad content-length") {
        "bad_content_length"
    } else if err.starts_with("connection closed mid-request") || err.starts_with("read body") {
        "truncated"
    } else {
        "other"
    }
}

/// Read and parse one request from `stream`. Returns `Ok(None)` on a
/// clean EOF before any bytes (client connected and went away, or a
/// kept-alive connection ended between requests).
pub fn read_request(stream: &mut impl Read) -> Result<Option<Request>, String> {
    // Accumulate the head byte-wise until the blank line; reading past
    // it would eat the start of a pipelined successor on a kept-alive
    // connection.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) if head.is_empty() => return Ok(None),
            Ok(0) => return Err("connection closed mid-request".into()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("read: {e}")),
        }
        if head.len() > MAX_HEAD {
            return Err("request head too large".into());
        }
    }
    let head = String::from_utf8_lossy(&head[..head.len() - 4]).into_owned();
    let mut lines = head.split("\r\n");
    let reqline = lines.next().unwrap_or_default();
    let mut parts = reqline.split_ascii_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || !target.starts_with('/') {
        return Err(format!("malformed request line {reqline:?}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    let mut close = false;
    let mut trace = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.parse().map_err(|_| format!("bad content-length {value:?}"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-craft-trace") && !value.is_empty() {
                trace = Some(value.to_string());
            }
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".into());
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    Ok(Some(Request { method, path, query, body, close, trace }))
}

/// The standard reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response with a `Content-Length` body. The
/// connection stays usable for the next request (keep-alive); honoring
/// a client's `Connection: close` is the accept loop's job.
pub fn respond(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    respond_with(w, status, content_type, &[], body)
}

/// [`respond`] with extra response headers (e.g. `Retry-After` on a
/// `503` for a job that has produced no telemetry yet). Header names
/// and values are written verbatim.
pub fn respond_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut msg = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    for (name, value) in extra_headers {
        msg.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    msg.extend_from_slice(b"\r\n");
    msg.extend_from_slice(body);
    w.write_all(&msg)?;
    w.flush()
}

/// [`respond`] with `application/json`.
pub fn respond_json(w: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    respond(w, status, "application/json", body.as_bytes())
}

/// An in-progress `Transfer-Encoding: chunked` response body. Declares
/// `Connection: close`: a chunked response here is a live follow that
/// holds the connection for the job's lifetime, so it ends the
/// keep-alive sequence.
pub struct Chunked<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> Chunked<'a, W> {
    /// Write the response head and start the chunked body.
    pub fn start(w: &'a mut W, status: u16, content_type: &str) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        w.write_all(head.as_bytes())?;
        w.flush()?;
        Ok(Chunked { w })
    }

    /// Write one chunk. Empty input is skipped (a zero-length chunk
    /// would terminate the body).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut msg = format!("{:x}\r\n", data.len()).into_bytes();
        msg.extend_from_slice(data);
        msg.extend_from_slice(b"\r\n");
        self.w.write_all(&msg)?;
        self.w.flush()
    }

    /// Write the terminal chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn empty_connection_is_not_an_error() {
        assert!(read_request(&mut &b""[..]).unwrap().is_none());
        assert!(read_request(&mut &b"GARBAGE"[..]).is_err());
    }

    /// A sink that counts `write` calls: each one would be its own TCP
    /// segment, so a message must arrive as exactly one.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        let mut w = CountingWriter::default();
        respond_with(&mut w, 503, "application/json", &[("Retry-After", "1")], b"{}").unwrap();
        assert_eq!(w.writes, 1, "respond_with");

        let mut w = CountingWriter::default();
        let mut ch = Chunked::start(&mut w, 200, "application/jsonl").unwrap();
        ch.chunk(b"line1\n").unwrap();
        ch.chunk(b"line2\n").unwrap();
        ch.finish().unwrap();
        // Head, two chunks, terminal chunk.
        assert_eq!(w.writes, 4, "chunked");
        assert!(String::from_utf8(w.bytes).unwrap().ends_with("6\r\nline2\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn chunked_writer_frames_correctly() {
        let mut out = Vec::new();
        let mut ch = Chunked::start(&mut out, 200, "text/plain").unwrap();
        ch.chunk(b"hello ").unwrap();
        ch.chunk(b"").unwrap(); // skipped, not a terminator
        ch.chunk(b"world").unwrap();
        ch.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"));
    }

    #[test]
    fn client_and_server_round_trip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: plain response; second: chunked.
            let (mut a, _) = listener.accept().unwrap();
            let req = read_request(&mut a).unwrap().unwrap();
            assert_eq!(req.body, b"{\"k\":1}");
            respond_json(&mut a, 202, "{\"ok\":true}").unwrap();
            let (mut b, _) = listener.accept().unwrap();
            read_request(&mut b).unwrap().unwrap();
            let mut ch = Chunked::start(&mut b, 200, "application/jsonl").unwrap();
            ch.chunk(b"line1\n").unwrap();
            ch.chunk(b"line2\n").unwrap();
            ch.finish().unwrap();
        });
        let (status, body) = request(&addr, "POST", "/jobs", Some("{\"k\":1}")).unwrap();
        assert_eq!((status, body.as_str()), (202, "{\"ok\":true}"));
        let mut pieces = Vec::new();
        let status = stream(&addr, "GET", "/x/live", None, |p| pieces.push(p.to_string())).unwrap();
        assert_eq!(status, 200);
        assert_eq!(pieces.join(""), "line1\nline2\n");
        server.join().unwrap();
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let server_accepts = Arc::clone(&accepts);
        let server = std::thread::spawn(move || {
            // Accept once, then serve every request the connection
            // carries — the server side of keep-alive.
            let (mut c, _) = listener.accept().unwrap();
            server_accepts.fetch_add(1, Ordering::SeqCst);
            while let Ok(Some(req)) = read_request(&mut c) {
                respond_json(&mut c, 200, &format!("{{\"path\":\"{}\"}}", req.path)).unwrap();
                if req.close {
                    break;
                }
            }
        });
        let mut client = Client::new(&addr);
        let (s1, b1) = client.request("GET", "/a", None).unwrap();
        let (s2, b2) = client.request("GET", "/b", None).unwrap();
        assert_eq!((s1, s2), (200, 200));
        assert!(b1.contains("/a") && b2.contains("/b"));
        // The regression this guards: both requests went over ONE
        // connection.
        assert_eq!(client.reused(), 1);
        drop(client);
        server.join().unwrap();
        assert_eq!(accepts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn client_reconnects_when_the_server_closed_in_between() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // A server that hangs up after every response despite the
            // keep-alive advertisement.
            for _ in 0..2 {
                let (mut c, _) = listener.accept().unwrap();
                read_request(&mut c).unwrap().unwrap();
                respond_json(&mut c, 200, "{}").unwrap();
            }
        });
        let mut client = Client::new(&addr);
        assert_eq!(client.request("GET", "/a", None).unwrap().0, 200);
        // The cached connection is dead; the client must retry on a
        // fresh one instead of surfacing the stale-socket error.
        assert_eq!(client.request("GET", "/b", None).unwrap().0, 200);
        assert_eq!(client.reused(), 0);
        server.join().unwrap();
    }

    #[test]
    fn trace_header_is_parsed_and_sent() {
        let raw = b"GET / HTTP/1.1\r\nX-Craft-Trace: tr-1-2-3\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.trace.as_deref(), Some("tr-1-2-3"));
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().unwrap().trace.is_none());

        // Client side: set_trace puts the header on the wire.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut c, _) = listener.accept().unwrap();
            let req = read_request(&mut c).unwrap().unwrap();
            respond_json(&mut c, 200, "{}").unwrap();
            req.trace
        });
        let mut client = Client::new(&addr);
        client.set_trace("tr-9-9-9");
        assert_eq!(client.request("GET", "/", None).unwrap().0, 200);
        assert_eq!(server.join().unwrap().as_deref(), Some("tr-9-9-9"));
    }

    #[test]
    fn parse_error_reasons_are_stable_tokens() {
        assert_eq!(parse_error_reason("request head too large"), "head_too_large");
        assert_eq!(parse_error_reason("request body too large"), "body_too_large");
        assert_eq!(parse_error_reason("malformed request line \"GARBAGE\""), "bad_request_line");
        assert_eq!(parse_error_reason("bad content-length \"x\""), "bad_content_length");
        assert_eq!(parse_error_reason("connection closed mid-request"), "truncated");
        assert_eq!(parse_error_reason("read: broken pipe"), "other");
        // A quoted request line that happens to contain another reason's
        // words keeps its own reason.
        let err = read_request(&mut &b"GARBAGE head too large\r\n\r\n"[..]).unwrap_err();
        assert_eq!(parse_error_reason(&err), "bad_request_line", "{err}");
    }

    #[test]
    fn extra_response_headers_are_written() {
        let mut out = Vec::new();
        respond_with(&mut out, 503, "application/json", &[("Retry-After", "1")], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn requests_advertise_keep_alive_and_parse_close() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().unwrap().close);
        let raw = b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().unwrap().close);
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().unwrap().close);
    }
}
