//! The minimal HTTP/1.1 client for the `craftd` job API, on `std::net`
//! with zero dependencies. `craft submit` / `status` / `jobs` / `top`,
//! the daemon's end-to-end tests, and its benchmark all speak to the
//! daemon through it (re-exported as `craftd::http::Client`).
//!
//! A [`Client`] holds one connection open across requests (HTTP/1.1
//! keep-alive) and reconnects transparently when the server closed it in
//! between; body framing is `Content-Length`, chunked, or read-to-EOF
//! (EOF framing ends reuse). Every request goes out as one `write` on a
//! `TCP_NODELAY` socket: a request split over several small writes would
//! wait on Nagle's algorithm for the server's delayed ACK.

use std::io::{Read, Write};
use std::net::TcpStream;

/// One-shot: send a single request on a fresh connection and collect
/// the whole response. Returns `(status, body)`. For request sequences,
/// hold a [`Client`] instead and reuse its connection.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    Client::new(addr).request(method, path, body)
}

/// One-shot [`Client::stream`] on a fresh connection.
pub fn stream(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    mut on_data: impl FnMut(&str),
) -> Result<u16, String> {
    Client::new(addr).stream(method, path, body, &mut on_data)
}

/// A keep-alive HTTP/1.1 client: holds one connection to the server
/// open across requests, reconnecting transparently (one retry) when
/// the server closed it between requests. Reuse ends when a response
/// declares `Connection: close` or is framed by EOF.
pub struct Client {
    addr: String,
    conn: Option<TcpStream>,
    reused: usize,
    trace: Option<String>,
}

impl Client {
    /// A client for `addr`; no connection is made until the first
    /// request.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), conn: None, reused: 0, trace: None }
    }

    /// Send `x-craft-trace: id` with every subsequent request, so the
    /// server can stitch this client's calls to their effects. Pass an
    /// empty id to stop.
    pub fn set_trace(&mut self, id: impl Into<String>) {
        let id = id.into();
        self.trace = if id.is_empty() { None } else { Some(id) };
    }

    /// Requests that completed over an already-open connection — the
    /// keep-alive hit count.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Send one request and collect the whole response body. Returns
    /// `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let mut out = String::new();
        let status = self.stream(method, path, body, &mut |piece: &str| out.push_str(piece))?;
        Ok((status, out))
    }

    /// Like [`Client::request`], but hands body pieces to `on_data` as
    /// they arrive (chunk-by-chunk for chunked responses), so a caller
    /// can follow a live stream. Returns the status code once the body
    /// is complete.
    pub fn stream(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        on_data: &mut dyn FnMut(&str),
    ) -> Result<u16, String> {
        // A cached connection may have been closed by the server since
        // the last exchange; that surfaces as a send/status-line error
        // before any body data arrives, so one retry on a fresh
        // connection is safe. Once `on_data` has seen bytes the request
        // is committed and errors propagate.
        let had_cached = self.conn.is_some();
        let mut delivered = false;
        match self.attempt(method, path, body, on_data, &mut delivered) {
            Err(_) if had_cached && !delivered => {
                self.conn = None;
                self.attempt(method, path, body, on_data, &mut delivered)
            }
            done => done,
        }
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        on_data: &mut dyn FnMut(&str),
        delivered: &mut bool,
    ) -> Result<u16, String> {
        let addr = &self.addr;
        let was_cached = self.conn.is_some();
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => {
                let c =
                    TcpStream::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
                c.set_nodelay(true).map_err(|e| format!("nodelay {addr}: {e}"))?;
                c
            }
        };
        write_request(&mut conn, addr, method, path, self.trace.as_deref(), body.unwrap_or(""))
            .map_err(|e| format!("send: {e}"))?;

        let status_line = read_line(&mut conn)?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
        let mut chunked = false;
        let mut server_close = false;
        let mut content_length: Option<usize> = None;
        loop {
            let line = read_line(&mut conn)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
                if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                } else if name == "content-length" {
                    content_length =
                        Some(value.parse().map_err(|_| format!("bad content-length {value:?}"))?);
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    server_close = true;
                }
            }
        }

        let mut reusable = !server_close;
        if chunked {
            loop {
                let size_line = read_line(&mut conn)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| format!("bad chunk size {size_line:?}"))?;
                let mut data = vec![0u8; size + 2]; // payload + trailing CRLF
                conn.read_exact(&mut data).map_err(|e| format!("read chunk: {e}"))?;
                if size == 0 {
                    break;
                }
                *delivered = true;
                on_data(&String::from_utf8_lossy(&data[..size]));
            }
        } else if let Some(n) = content_length {
            let mut data = vec![0u8; n];
            conn.read_exact(&mut data).map_err(|e| format!("read body: {e}"))?;
            *delivered = true;
            on_data(&String::from_utf8_lossy(&data));
        } else {
            // EOF-framed: the body ends with the connection.
            reusable = false;
            let mut data = Vec::new();
            conn.read_to_end(&mut data).map_err(|e| format!("read body: {e}"))?;
            *delivered = true;
            on_data(&String::from_utf8_lossy(&data));
        }
        if reusable {
            self.conn = Some(conn);
        }
        if was_cached {
            self.reused += 1;
        }
        Ok(status)
    }
}

/// Assemble one request (head and body) and send it with a single
/// `write_all`.
fn write_request(
    w: &mut impl Write,
    host: &str,
    method: &str,
    path: &str,
    trace: Option<&str>,
    payload: &str,
) -> std::io::Result<()> {
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n",
        payload.len()
    );
    if let Some(id) = trace {
        msg.push_str("x-craft-trace: ");
        msg.push_str(id);
        msg.push_str("\r\n");
    }
    msg.push_str("\r\n");
    msg.push_str(payload);
    w.write_all(msg.as_bytes())?;
    w.flush()
}

/// Read one CRLF-terminated line (without the CRLF), byte-wise so no
/// bytes past it are consumed.
fn read_line(conn: &mut impl Read) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\r\n") {
        match conn.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-line".into()),
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    line.truncate(line.len() - 2);
    Ok(String::from_utf8_lossy(&line).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A sink that counts `write` calls, so a test can tell one message
    /// sent as one segment from the same bytes dribbled out piecewise.
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
    fn a_request_is_one_write() {
        let mut w = CountingWriter::default();
        write_request(&mut w, "h:1", "POST", "/jobs", Some("tr-1"), "{\"k\":1}").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "POST /jobs HTTP/1.1\r\nHost: h:1\r\nContent-Length: 7\r\n\
             Connection: keep-alive\r\nx-craft-trace: tr-1\r\n\r\n{\"k\":1}"
        );
    }

    #[test]
    fn client_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut c, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                c.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            c.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
            // Hold the connection open until the client is done with it.
            let _ = c.read(&mut byte);
        });
        let mut client = Client::new(&addr);
        assert_eq!(client.request("GET", "/", None).unwrap(), (200, "ok".to_string()));
        let conn = client.conn.as_ref().expect("connection kept alive");
        assert!(conn.nodelay().unwrap());
        drop(client);
        server.join().unwrap();
    }
}
