//! A small HTTP/1.1 subset: request parsing and response serialization.
//!
//! Supports exactly what the speak-up prototype exchange needs (§6):
//! `GET`/`POST` request lines, headers, and `Content-Length` bodies, with
//! *incremental* parsing — the thinner must count payment-body bytes as
//! they arrive on the wire, not when the POST completes, so the parser
//! reports body progress chunk by chunk. Chunked transfer encoding,
//! trailers, and HTTP/2 are out of scope.
//!
//! Bodies are **counted, never stored**: payment bytes are dummy bytes
//! whose content nobody reads, so once a head is parsed its body is pure
//! arithmetic on the declared `Content-Length` — no copy, no allocation.
//! Only head bytes are ever buffered, which bounds the parser's memory by
//! its head limit (plus the one read being drained) whatever the peer
//! sends. `Content-Length` is therefore
//! the one number that decides how many unseen bytes are credited, and is
//! parsed strictly (digits only; repeated headers must agree).

use bytes::{Buf, Bytes, BytesMut};
use std::fmt;

/// Request method. Only what the prototype uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// `GET` — the actual service request.
    Get,
    /// `POST` — the payment channel.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// An ordered multimap of headers with case-insensitive lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeaderMap(Vec<(String, String)>);

impl HeaderMap {
    /// Empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header.
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.0.push((name.into(), value.into()));
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All headers in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A parsed request line plus headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// The request method.
    pub method: Method,
    /// The request target (path and query), e.g. `/payment?id=7`.
    pub target: String,
    /// Headers.
    pub headers: HeaderMap,
    /// Declared body length (0 if no `Content-Length`).
    pub content_length: u64,
}

/// Parse errors. The connection should be closed on any of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Request line was not `METHOD target HTTP/1.x`.
    BadRequestLine,
    /// Unsupported method.
    BadMethod,
    /// Malformed header line.
    BadHeader,
    /// `Content-Length` was not a plain decimal number, or two
    /// `Content-Length` headers disagreed.
    BadContentLength,
    /// Head exceeded the maximum allowed size.
    HeadTooLarge,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseError::BadRequestLine => "malformed request line",
            ParseError::BadMethod => "unsupported method",
            ParseError::BadHeader => "malformed header",
            ParseError::BadContentLength => "bad Content-Length",
            ParseError::HeadTooLarge => "request head too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

/// Incremental parse output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseEvent {
    /// The head (request line + headers) finished parsing.
    Head(RequestHead),
    /// `n` more body bytes arrived (the payment-counting hook).
    BodyChunk(u64),
    /// The message (head + declared body) is complete; the parser has
    /// reset and will parse the next pipelined request.
    Complete,
}

#[derive(Debug)]
enum State {
    Head,
    /// `remaining` body bytes have yet to arrive; `pending` have arrived
    /// and not yet been reported as a [`ParseEvent::BodyChunk`].
    Body {
        remaining: u64,
        pending: u64,
    },
}

/// Incremental request parser. Feed bytes with [`RequestParser::push`],
/// drain events with [`RequestParser::next_event`].
///
/// Body bytes are counted where they land and never stored: `push`
/// subtracts them from the declared length, and the next
/// [`ParseEvent::BodyChunk`] reports how many arrived since the last one.
/// The internal buffer holds head bytes only, so once the events that
/// follow a `push` are drained it is at most one incomplete head (the
/// 8 KiB head limit), and empty while a body is in flight.
#[derive(Debug)]
pub struct RequestParser {
    /// Head bytes only; empty while a body has bytes outstanding.
    buf: BytesMut,
    state: State,
    max_head: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with an 8 KiB head limit.
    pub fn new() -> Self {
        RequestParser {
            buf: BytesMut::new(),
            state: State::Head,
            max_head: 8 * 1024,
        }
    }

    /// Take raw bytes from the wire. Bytes of a body in flight are
    /// counted and dropped; only what follows (the next head) is kept.
    pub fn push(&mut self, mut data: &[u8]) {
        if let State::Body { remaining, pending } = &mut self.state {
            let take = body_share(data.len(), *remaining);
            *remaining -= take as u64;
            *pending += take as u64;
            data = &data[take..];
        }
        if !data.is_empty() {
            self.buf.extend_from_slice(data);
        }
    }

    /// Head bytes buffered but not yet parsed. Body bytes never count:
    /// they are not stored.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next parse event, if the bytes pushed so far hold one.
    pub fn next_event(&mut self) -> Result<Option<ParseEvent>, ParseError> {
        match &mut self.state {
            State::Head => {
                let Some(head_end) = find_head_end(&self.buf) else {
                    if self.buf.len() > self.max_head {
                        return Err(ParseError::HeadTooLarge);
                    }
                    return Ok(None);
                };
                if head_end > self.max_head {
                    return Err(ParseError::HeadTooLarge);
                }
                let head = parse_head(&self.buf[..head_end])?;
                // Body bytes that shared a read with the head: count
                // them, discard them with the head.
                let pending = body_share(self.buf.len() - head_end, head.content_length);
                self.buf.advance(head_end + pending);
                self.state = State::Body {
                    remaining: head.content_length - pending as u64,
                    pending: pending as u64,
                };
                Ok(Some(ParseEvent::Head(head)))
            }
            State::Body { pending, .. } if *pending > 0 => {
                Ok(Some(ParseEvent::BodyChunk(std::mem::take(pending))))
            }
            State::Body { remaining: 0, .. } => {
                self.state = State::Head;
                Ok(Some(ParseEvent::Complete))
            }
            State::Body { .. } => Ok(None),
        }
    }
}

/// How many of `available` bytes belong to a body with `remaining` bytes
/// outstanding.
fn body_share(available: usize, remaining: u64) -> usize {
    usize::try_from(remaining).map_or(available, |r| r.min(available))
}

/// Find the index just past the `\r\n\r\n` terminating the head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_head(raw: &[u8]) -> Result<RequestHead, ParseError> {
    let text = std::str::from_utf8(raw).map_err(|_| ParseError::BadRequestLine)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(_) => return Err(ParseError::BadMethod),
        None => return Err(ParseError::BadRequestLine),
    };
    let target = parts.next().ok_or(ParseError::BadRequestLine)?.to_string();
    if target.is_empty() || !target.starts_with('/') {
        return Err(ParseError::BadRequestLine);
    }
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(ParseError::BadRequestLine);
    }
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue; // trailing blank from the final CRLFCRLF
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadHeader);
        }
        headers.push(name, value.trim());
    }
    let content_length = content_length(&headers)?;
    Ok(RequestHead {
        method,
        target,
        headers,
        content_length,
    })
}

/// The body length a head declares: 0 without a `Content-Length`, else
/// ASCII digits only (`u64::from_str` alone would take a leading `+`),
/// and every repeat of the header must give the same number.
fn content_length(headers: &HeaderMap) -> Result<u64, ParseError> {
    let mut declared = None;
    for (name, value) in headers.iter() {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        if !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::BadContentLength);
        }
        // Empty and overflowing values fail here.
        let n = value
            .parse::<u64>()
            .map_err(|_| ParseError::BadContentLength)?;
        if declared.is_some_and(|d| d != n) {
            return Err(ParseError::BadContentLength);
        }
        declared = Some(n);
    }
    Ok(declared.unwrap_or(0))
}

/// Serialize a request head (plus an optional body for small requests).
pub fn write_request(method: Method, target: &str, headers: &HeaderMap, body: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(256 + body.len());
    out.extend_from_slice(format!("{method} {target} HTTP/1.1\r\n").as_bytes());
    for (n, v) in headers.iter() {
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    if !body.is_empty() && headers.get("content-length").is_none() {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out.freeze()
}

/// Serialize a response.
pub fn write_response(status: u16, reason: &str, headers: &HeaderMap, body: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(256 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    for (n, v) in headers.iter() {
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out.freeze()
}

/// A parsed response head (for the client side of the proxy tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// Headers.
    pub headers: HeaderMap,
    /// Declared body length.
    pub content_length: u64,
}

/// Parse a response head from a buffer known to contain the full head.
/// Returns the head and the number of bytes it consumed.
pub fn parse_response_head(buf: &[u8]) -> Result<Option<(ResponseHead, usize)>, ParseError> {
    let Some(end) = find_head_end(buf) else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| ParseError::BadRequestLine)?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequestLine);
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(ParseError::BadRequestLine)?;
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        headers.push(name, value.trim());
    }
    let content_length = content_length(&headers)?;
    Ok(Some((
        ResponseHead {
            status,
            headers,
            content_length,
        },
        end,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut RequestParser) -> Vec<ParseEvent> {
        let mut evs = Vec::new();
        while let Some(e) = p.next_event().expect("no parse error") {
            evs.push(e);
        }
        evs
    }

    #[test]
    fn parses_simple_get() {
        let mut p = RequestParser::new();
        p.push(b"GET /service?id=7 HTTP/1.1\r\nHost: x\r\n\r\n");
        let evs = drain(&mut p);
        assert_eq!(evs.len(), 2);
        match &evs[0] {
            ParseEvent::Head(h) => {
                assert_eq!(h.method, Method::Get);
                assert_eq!(h.target, "/service?id=7");
                assert_eq!(h.headers.get("host"), Some("x"));
                assert_eq!(h.content_length, 0);
            }
            other => panic!("expected head, got {other:?}"),
        }
        assert_eq!(evs[1], ParseEvent::Complete);
    }

    #[test]
    fn incremental_head_parsing() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HT");
        assert_eq!(drain(&mut p), vec![]);
        p.push(b"TP/1.1\r\nA: b\r\n");
        assert_eq!(drain(&mut p), vec![]);
        p.push(b"\r\n");
        let evs = drain(&mut p);
        assert!(matches!(evs[0], ParseEvent::Head(_)));
        assert_eq!(evs[1], ParseEvent::Complete);
    }

    #[test]
    fn body_reported_in_chunks() {
        let mut p = RequestParser::new();
        p.push(b"POST /payment?id=3 HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
        let evs = drain(&mut p);
        assert!(matches!(&evs[0], ParseEvent::Head(h) if h.content_length == 10));
        assert_eq!(evs.len(), 1, "no body yet");
        p.push(b"abcd");
        assert_eq!(drain(&mut p), vec![ParseEvent::BodyChunk(4)]);
        p.push(b"efghij");
        assert_eq!(
            drain(&mut p),
            vec![ParseEvent::BodyChunk(6), ParseEvent::Complete]
        );
    }

    #[test]
    fn pipelined_requests() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let evs = drain(&mut p);
        assert_eq!(evs.len(), 4);
        assert!(matches!(&evs[0], ParseEvent::Head(h) if h.target == "/a"));
        assert_eq!(evs[1], ParseEvent::Complete);
        assert!(matches!(&evs[2], ParseEvent::Head(h) if h.target == "/b"));
        assert_eq!(evs[3], ParseEvent::Complete);
    }

    #[test]
    fn body_bytes_beyond_length_belong_to_next_request() {
        let mut p = RequestParser::new();
        p.push(b"POST /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /q HTTP/1.1\r\n\r\n");
        let evs = drain(&mut p);
        assert!(matches!(&evs[0], ParseEvent::Head(h) if h.target == "/p"));
        assert_eq!(evs[1], ParseEvent::BodyChunk(3));
        assert_eq!(evs[2], ParseEvent::Complete);
        assert!(matches!(&evs[3], ParseEvent::Head(h) if h.target == "/q"));
    }

    #[test]
    fn rejects_bad_method() {
        let mut p = RequestParser::new();
        p.push(b"BREW /coffee HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_event(), Err(ParseError::BadMethod));
    }

    #[test]
    fn rejects_bad_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /a\r\n\r\n",
            b"GET /a HTTP/1.1 extra\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
        ] {
            let mut p = RequestParser::new();
            p.push(raw);
            assert!(p.next_event().is_err(), "accepted {raw:?}");
        }
    }

    #[test]
    fn content_length_is_digits_only_and_repeats_must_agree() {
        let parse = |headers: &str| {
            let mut p = RequestParser::new();
            p.push(format!("POST /p HTTP/1.1\r\n{headers}\r\n").as_bytes());
            p.next_event()
        };
        for bad in [
            "Content-Length: banana\r\n",
            "Content-Length: +5\r\n",
            "Content-Length: 5 5\r\n",
            "Content-Length:\r\n",
            "Content-Length: 5\r\ncontent-length: 6\r\n",
            "Content-Length: 99999999999999999999\r\n",
        ] {
            assert_eq!(parse(bad), Err(ParseError::BadContentLength), "{bad:?}");
            let response = format!("HTTP/1.1 200 OK\r\n{bad}\r\n");
            assert_eq!(
                parse_response_head(response.as_bytes()),
                Err(ParseError::BadContentLength),
                "{bad:?}"
            );
        }
        let agreeing = "Content-Length: 5\r\nCONTENT-LENGTH: 5\r\n";
        assert!(matches!(
            parse(agreeing),
            Ok(Some(ParseEvent::Head(h))) if h.content_length == 5
        ));
        let response = format!("HTTP/1.1 200 OK\r\n{agreeing}\r\n");
        let (head, _) = parse_response_head(response.as_bytes()).unwrap().unwrap();
        assert_eq!(head.content_length, 5);
    }

    #[test]
    fn body_is_counted_where_it_lands_never_buffered() {
        const READ: usize = 16 * 1024;
        const READS: u64 = 64;
        let mut p = RequestParser::new();
        let total = READS * READ as u64;
        p.push(
            format!("POST /payment?id=3 HTTP/1.1\r\nContent-Length: {total}\r\n\r\n").as_bytes(),
        );
        assert!(matches!(p.next_event(), Ok(Some(ParseEvent::Head(_)))));
        for _ in 0..READS {
            p.push(&[0x5a; READ]);
            assert_eq!(p.buffered(), 0, "body bytes are not stored");
        }
        assert_eq!(
            drain(&mut p),
            vec![ParseEvent::BodyChunk(total), ParseEvent::Complete]
        );
    }

    #[test]
    fn body_sharing_a_read_with_its_head_is_counted_and_discarded() {
        let mut p = RequestParser::new();
        p.push(b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabcd");
        let evs = drain(&mut p);
        assert!(matches!(&evs[0], ParseEvent::Head(h) if h.content_length == 10));
        assert_eq!(evs[1..], [ParseEvent::BodyChunk(4)]);
        assert_eq!(p.buffered(), 0);
        // The tail of the body and half of the next head in one read:
        // only the head bytes stay.
        p.push(b"efghijGET /q HT");
        assert_eq!(
            drain(&mut p),
            vec![ParseEvent::BodyChunk(6), ParseEvent::Complete]
        );
        assert_eq!(p.buffered(), b"GET /q HT".len());
    }

    #[test]
    fn rejects_oversized_head() {
        let mut p = RequestParser::new();
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
        p.push(huge.as_bytes());
        assert_eq!(p.next_event(), Err(ParseError::HeadTooLarge));
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let mut h = HeaderMap::new();
        h.push("X-SpeakUp-Price", "125000");
        assert_eq!(h.get("x-speakup-price"), Some("125000"));
        assert_eq!(h.get("X-SPEAKUP-PRICE"), Some("125000"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn response_roundtrip() {
        let mut h = HeaderMap::new();
        h.push("X-SpeakUp", "encourage");
        let wire = write_response(200, "OK", &h, b"hello");
        let (head, consumed) = parse_response_head(&wire).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.headers.get("x-speakup"), Some("encourage"));
        assert_eq!(head.content_length, 5);
        assert_eq!(&wire[consumed..], b"hello");
    }

    #[test]
    fn request_roundtrip() {
        let wire = write_request(Method::Post, "/payment?id=9", &HeaderMap::new(), b"12345");
        let mut p = RequestParser::new();
        p.push(&wire);
        let evs = drain(&mut p);
        assert!(matches!(
            &evs[0],
            ParseEvent::Head(h) if h.method == Method::Post && h.content_length == 5
        ));
        assert_eq!(evs[1], ParseEvent::BodyChunk(5));
        assert_eq!(evs[2], ParseEvent::Complete);
    }
}
