//! Property tests of the daemon's HTTP request parser
//! (`craftd::http::read_request`) over arbitrary bytes: it never
//! panics, it never reads past the request it returns, every rejection
//! maps to a specific `parse_error_reason` token, and a well-formed
//! request round-trips with any body.

use craftd::http::{parse_error_reason, read_request};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Cursor;

/// Fragments that steer random input into every branch of the parser:
/// request-line pieces, header names and values, line ends, and raw
/// bytes (including the words of the other error messages, which a
/// malformed request line quotes back).
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"GET".to_vec()),
        Just(b"post".to_vec()),
        Just(b" ".to_vec()),
        Just(b"/jobs".to_vec()),
        Just(b"?a=1".to_vec()),
        Just(b" HTTP/1.1".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\r\n\r\n".to_vec()),
        Just(b"Content-Length: ".to_vec()),
        Just(b"content-length:".to_vec()),
        Just(b"99999999".to_vec()),
        Just(b"-1".to_vec()),
        Just(b"Connection: close".to_vec()),
        Just(b"x-craft-trace: tr-1".to_vec()),
        Just(b"head too large".to_vec()),
        Just(b"body too large".to_vec()),
        vec(0u8..10, 1..4).prop_map(|d| d.iter().map(|x| b'0' + x).collect()),
        vec(any::<u8>(), 1..8),
    ]
}

fn input() -> impl Strategy<Value = Vec<u8>> {
    let fragments = vec(fragment(), 0..24).prop_map(|fs| fs.concat());
    prop_oneof![vec(any::<u8>(), 0..256), fragments]
}

/// What `read_request` must make of `raw` (every input here is far
/// below the head limit): the number of bytes a parsed request spans,
/// or the reason token of its rejection.
fn expected(raw: &[u8]) -> Result<usize, &'static str> {
    let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Err("truncated");
    };
    let head = String::from_utf8_lossy(&raw[..end]);
    let mut lines = head.split("\r\n");
    let mut words = lines.next().unwrap_or_default().split_ascii_whitespace();
    let (method, target) = (words.next(), words.next().unwrap_or_default());
    if method.is_none() || !target.starts_with('/') {
        return Err("bad_request_line");
    }
    let mut len = 0usize;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        if name.trim().eq_ignore_ascii_case("content-length") {
            len = value.trim().parse().map_err(|_| "bad_content_length")?;
        }
    }
    if len > 4 * 1024 * 1024 {
        return Err("body_too_large");
    }
    let spanned = end + 4 + len;
    if spanned > raw.len() {
        return Err("truncated");
    }
    Ok(spanned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_parse_or_reject_with_a_reason(raw in input()) {
        let mut cur = Cursor::new(&raw[..]);
        match read_request(&mut cur) {
            Ok(None) => prop_assert!(raw.is_empty(), "Ok(None) on {} bytes", raw.len()),
            Ok(Some(req)) => {
                prop_assert_eq!(Ok(cur.position() as usize), expected(&raw));
                prop_assert!(!req.method.is_empty());
                prop_assert!(req.path.starts_with('/'), "path {:?}", req.path);
            }
            // A `Cursor` never fails a read, so every rejection is the
            // request's own fault, with the reason its bytes call for.
            Err(e) => {
                let (got, want) = (parse_error_reason(&e), expected(&raw));
                prop_assert!(want == Err(got), "{e:?} -> {got}, expected {want:?}");
            }
        }
    }

    #[test]
    fn well_formed_requests_round_trip(
        method in prop_oneof![Just("GET"), Just("POST"), Just("DELETE")],
        segs in vec(vec(b'a'..b'{', 1..6), 0..4),
        query in vec(b'a'..b'{', 0..6),
        close in any::<bool>(),
        trace in vec(b'a'..b'{', 0..6),
        body in vec(any::<u8>(), 0..300),
        next in vec(any::<u8>(), 0..16),
    ) {
        let path: String =
            segs.iter().map(|s| format!("/{}", String::from_utf8_lossy(s))).collect();
        let path = if path.is_empty() { "/".to_string() } else { path };
        let query = String::from_utf8(query).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        let mut raw = format!("{method} {path}");
        if !query.is_empty() {
            raw.push('?');
            raw.push_str(&query);
        }
        raw.push_str(&format!(" HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n", body.len()));
        if close {
            raw.push_str("Connection: close\r\n");
        }
        if !trace.is_empty() {
            raw.push_str(&format!("x-craft-trace: {trace}\r\n"));
        }
        raw.push_str("\r\n");
        let head = raw.len();
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(&body);
        // A pipelined successor must be left unread.
        raw.extend_from_slice(&next);

        let mut cur = Cursor::new(&raw[..]);
        let req = read_request(&mut cur).unwrap().unwrap();
        prop_assert_eq!(req.method.as_str(), method);
        prop_assert_eq!(&req.path, &path);
        prop_assert_eq!(&req.query, &query);
        prop_assert_eq!(&req.body, &body);
        prop_assert_eq!(req.close, close);
        prop_assert_eq!(req.trace.as_deref(), (!trace.is_empty()).then_some(trace.as_str()));
        prop_assert_eq!(cur.position() as usize, head + body.len());
    }
}
