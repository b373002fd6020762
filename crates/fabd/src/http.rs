//! Hand-rolled HTTP/1.1 framing over `std::net` — the workspace has no
//! network crates (same no-new-deps policy as everything else), so request
//! parsing, response writing and the client side all live here.
//!
//! The parser is defensive by construction: hard limits on request-line,
//! header and body sizes, `Content-Length`-only framing (chunked encoding is
//! rejected with `501`), and every socket it reads from carries read/write
//! timeouts — a slow-loris client holds a connection slot only until the
//! read timeout fires, never a worker thread forever. A read timeout before
//! the first byte of a request is an idle keep-alive connection: it is
//! closed without an answer.
//!
//! Framing rule: every message leaves in one write. [`write_response`] and
//! [`write_request`] build head and body in one buffer and hand it to the
//! writer in a single `write_all`. Both ends set `TCP_NODELAY`, so a write
//! is a segment: a message split over several writes leaves as several
//! segments, each of which wakes the reader on the other side.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request/status line, in bytes.
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per message.
pub(crate) const MAX_HEADERS: usize = 64;

/// Why an HTTP message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket failure (including read timeouts from slow clients).
    Io(io::Error),
    /// The bytes were not valid HTTP.
    Malformed(&'static str),
    /// A line, header block or body exceeded its limit.
    TooLarge(&'static str),
    /// Valid HTTP the server does not implement (e.g. chunked bodies).
    Unsupported(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed HTTP: {what}"),
            HttpError::TooLarge(what) => write!(f, "HTTP message too large: {what}"),
            HttpError::Unsupported(what) => write!(f, "unsupported HTTP feature: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Whether a socket error is a read/write timeout firing.
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl HttpError {
    /// The HTTP status code a server should answer this failure with.
    pub(crate) fn status(&self) -> u16 {
        match self {
            HttpError::Io(e) if timed_out(e) => 408,
            HttpError::Io(_) => 400,
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge(_) => 431,
            HttpError::Unsupported(_) => 501,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component.
    pub(crate) fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Case-insensitive header lookup.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is sent).
    pub(crate) fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounded by `max` bytes
/// before the LF. Scans what the reader has buffered for the LF and takes
/// it in one piece, not one `read` per byte.
fn read_line(reader: &mut impl BufRead, max: usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None); // clean EOF between requests
            }
            return Err(HttpError::Malformed("EOF inside a line"));
        }
        let end = buf.iter().position(|&b| b == b'\n');
        let take = end.unwrap_or(buf.len());
        if line.len() + take > max {
            return Err(HttpError::TooLarge("line"));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take + usize::from(end.is_some()));
        if end.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text =
                String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 line"))?;
            return Ok(Some(text));
        }
    }
}

/// The body length `headers` declare, `None` without `Content-Length`. A
/// value must be all ASCII digits (`usize`'s parse would take `+4`), and
/// repeated headers must agree: two parsers that read one message's
/// framing differently are how requests get smuggled.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut values = headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| v);
    let Some(first) = values.next() else { return Ok(None) };
    if values.any(|v| v != first) {
        return Err(HttpError::Malformed("conflicting Content-Length headers"));
    }
    if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("Content-Length"));
    }
    first.parse().map(Some).map_err(|_| HttpError::Malformed("Content-Length"))
}

/// Reads one request from `reader`. Returns `Ok(None)` when the peer closed
/// the connection cleanly, or the read timed out, before sending anything
/// (keep-alive end).
///
/// # Errors
///
/// [`HttpError`] on socket failure/timeout, malformed framing, oversized
/// messages, or unsupported transfer encodings.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    // An idle keep-alive connection whose read timeout fires before a first
    // byte is closed, not answered: a `408` nobody asked for would be read
    // by the client as the answer to its next request.
    match reader.fill_buf() {
        Ok(_) => {}
        Err(e) if timed_out(&e) => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let Some(request_line) = read_line(reader, MAX_LINE_BYTES)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("request method"));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpError::Malformed("request target"));
    }
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::Unsupported("HTTP version"));
    }
    let headers = read_headers(reader)?;
    let header = |name: &str| headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str());
    if header("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("Transfer-Encoding"));
    }
    let body = match content_length(&headers)? {
        None => Vec::new(),
        Some(len) => {
            if len > max_body {
                return Err(HttpError::TooLarge("body"));
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
    };
    Ok(Some(Request { method, target, headers, body }))
}

fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line =
            read_line(reader, MAX_LINE_BYTES)?.ok_or(HttpError::Malformed("EOF inside headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) =
            line.split_once(':').ok_or(HttpError::Malformed("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// An HTTP response ready to be written.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the automatic `Content-Type`/`Content-Length`/
    /// `Connection`.
    pub headers: Vec<(String, String)>,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl fmt::Display) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.to_string().into_bytes(),
        }
    }

    /// A plain-text response.
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub(crate) fn with_header(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

/// The reason phrase for the status codes the daemon emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `response`, setting `Connection: keep-alive`/`close` to match
/// `keep_alive`, in one `write_all` of head and body together.
///
/// # Errors
///
/// Propagates socket write failures (including write timeouts against
/// stalled readers).
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    send(
        writer,
        format_args!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            response.status,
            reason(response.status),
            response.content_type,
            response.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        ),
        &response.headers,
        &response.body,
    )
}

/// Writes one client request with an optional body, in one `write_all` of
/// head and body together.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    send(
        writer,
        format_args!(
            "{method} {target} HTTP/1.1\r\nHost: fabd\r\nContent-Length: {}\r\n",
            body.len()
        ),
        headers,
        body,
    )
}

/// Room reserved for a message head ahead of its body.
const HEAD_RESERVE: usize = 256;

/// Builds the message — `start` (the first line and the automatic headers),
/// `headers`, the blank line, `body` — in one buffer and hands it to
/// `writer` in one `write_all`.
fn send(
    writer: &mut impl Write,
    start: fmt::Arguments<'_>,
    headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(HEAD_RESERVE + body.len());
    wire.write_fmt(start)?;
    for (name, value) in headers {
        write!(wire, "{name}: {value}\r\n")?;
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    writer.write_all(&wire)?;
    writer.flush()
}

/// A parsed response on the client side.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server will keep the connection open.
    pub(crate) fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one response from `reader` on the client side.
///
/// # Errors
///
/// [`HttpError`] on socket failure, malformed framing, or an oversized body.
pub fn read_response(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<ClientResponse, HttpError> {
    // A close before the status line is a socket failure, not bad bytes: the
    // server dropped the connection (idle keep-alive timeout, restart), so
    // the caller may reconnect and retry.
    let status_line = read_line(reader, MAX_LINE_BYTES)?.ok_or_else(|| {
        HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status",
        ))
    })?;
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("status line"));
    }
    let status: u16 =
        parts.next().unwrap_or("").parse().map_err(|_| HttpError::Malformed("status code"))?;
    let headers = read_headers(reader)?;
    let length = content_length(&headers)?.unwrap_or(0);
    if length > max_body {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Largest accepted body in the parser tests, in bytes.
    const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/predict?x=1 HTTP/1.1\r\nHost: h\r\nX-Deadline-Ms: 250\r\n\
                    Content-Length: 4\r\n\r\n{\"\"}";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/predict");
        assert_eq!(req.target, "/v1/predict?x=1");
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.body, b"{\"\"}");
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked_on() {
        let cases: &[&[u8]] = &[
            b"garbage\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"GET / HTTP/1.1\r\n: novalue\r\n\r\n",
            b"\xff\xfe\x00\x01\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde",
        ];
        for raw in cases {
            assert!(parse(raw).is_err(), "accepted {raw:?}");
        }
        // The client parser frames bodies by the same rule.
        for head in ["Content-Length: +4", "Content-Length: 4\r\nContent-Length: 5"] {
            let raw = format!("HTTP/1.1 200 OK\r\n{head}\r\n\r\nabcde");
            let parsed = read_response(&mut BufReader::new(raw.as_bytes()), DEFAULT_MAX_BODY_BYTES);
            assert_eq!(parsed.unwrap_err().status(), 400, "accepted {raw:?}");
        }
    }

    /// A reader that hands out one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&b, rest)) = self.0.split_first() else { return Ok(0) };
            match buf.first_mut() {
                Some(slot) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn lines_read_the_same_a_byte_at_a_time() {
        let raw = b"POST /v1/predict HTTP/1.1\nHost: h\r\nContent-Length: 2\r\n\r\n{}";
        let whole = parse(raw).unwrap().unwrap();
        let trickled = read_request(&mut BufReader::new(Trickle(raw)), DEFAULT_MAX_BODY_BYTES);
        let trickled = trickled.unwrap().unwrap();
        assert_eq!((trickled.method, trickled.target), (whole.method, whole.target));
        assert_eq!((trickled.headers, trickled.body), (whole.headers, whole.body));

        let line = |raw: &[u8], max| read_line(&mut BufReader::new(Trickle(raw)), max);
        // Exactly `max` bytes before the LF fit, the CR among them; one more
        // does not.
        assert_eq!(line(b"abcd\nrest", 4).unwrap().as_deref(), Some("abcd"));
        assert_eq!(line(b"abc\r\n", 4).unwrap().as_deref(), Some("abc"));
        assert_eq!(line(b"abcde\n", 4).unwrap_err().status(), 431);
        assert_eq!(line(b"abcd\r\n", 4).unwrap_err().status(), 431);
        // EOF: between lines it is the end, inside one it is an error.
        assert!(line(b"", 4).unwrap().is_none());
        assert!(matches!(line(b"ab", 4), Err(HttpError::Malformed("EOF inside a line"))));
        assert!(matches!(line(b"\xff\n", 4), Err(HttpError::Malformed("non-UTF-8 line"))));
        // Whole buffers too: the cap holds across refills of a small buffer.
        let mut small = BufReader::with_capacity(3, &b"abcdefgh\nxy\n"[..]);
        assert_eq!(read_line(&mut small, 8).unwrap().as_deref(), Some("abcdefgh"));
        assert_eq!(read_line(&mut small, 8).unwrap().as_deref(), Some("xy"));
        let mut small = BufReader::with_capacity(3, &b"abcdefgh\n"[..]);
        assert_eq!(read_line(&mut small, 7).unwrap_err().status(), 431);
    }

    #[test]
    fn chunked_bodies_are_unsupported_with_501() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn oversized_parts_are_rejected_with_431() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert_eq!(parse(long_line.as_bytes()).unwrap_err().status(), 431);

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 5) {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert_eq!(parse(many_headers.as_bytes()).unwrap_err().status(), 431);

        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        assert_eq!(parse(raw).unwrap_err().status(), 431);
    }

    #[test]
    fn responses_round_trip_through_the_client_parser() {
        let resp = Response::json(429, "{\"error\":\"overloaded\"}").with_header("Retry-After", 2);
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let parsed =
            read_response(&mut BufReader::new(wire.as_slice()), DEFAULT_MAX_BODY_BYTES).unwrap();
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("retry-after"), Some("2"));
        assert_eq!(parsed.body_text(), "{\"error\":\"overloaded\"}");
        assert!(!parsed.keep_alive());
    }

    #[test]
    fn requests_round_trip_through_the_server_parser() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/predict",
            &[("X-Deadline-Ms".into(), "100".into())],
            b"{\"tokens\":[1]}",
        )
        .unwrap();
        let req = parse(&wire).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.header("x-deadline-ms"), Some("100"));
        assert_eq!(req.body, b"{\"tokens\":[1]}");
    }

    /// A writer that takes every byte offered and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        let responses = [
            Response::json(429, "{\"error\":\"overloaded\"}").with_header("Retry-After", 2),
            Response::text(200, ""),
            Response::text(200, "x".repeat(1 << 20)),
        ];
        for resp in &responses {
            let mut w = CountingWriter::default();
            write_response(&mut w, resp, true).unwrap();
            assert_eq!(w.writes, 1, "{} byte body", resp.body.len());
            let parsed = read_response(&mut BufReader::new(w.bytes.as_slice()), 2 << 20).unwrap();
            assert_eq!(parsed.body, resp.body);
        }
        let mut w = CountingWriter::default();
        write_request(&mut w, "POST", "/v1/predict", &[], b"{\"tokens\":[1]}").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(parse(&w.bytes).unwrap().unwrap().body, b"{\"tokens\":[1]}");
    }

    /// A socket that delivers its bytes, then fails as a read timeout does.
    struct Stalls(&'static [u8]);

    impl io::Read for Stalls {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_timeout_before_the_first_byte_closes_quietly_but_mid_request_is_408() {
        let idle = read_request(&mut BufReader::new(Stalls(b"")), DEFAULT_MAX_BODY_BYTES);
        assert!(idle.unwrap().is_none());
        let partial =
            read_request(&mut BufReader::new(Stalls(b"POST / HTTP/1.1\r\nContent-Le")), 1024);
        assert_eq!(partial.unwrap_err().status(), 408);
    }

    #[test]
    fn a_close_before_the_status_line_is_a_socket_error() {
        let err = read_response(&mut BufReader::new(&b""[..]), 1024).unwrap_err();
        assert!(
            matches!(&err, HttpError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }
}
