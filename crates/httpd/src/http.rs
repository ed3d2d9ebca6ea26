//! HTTP/1.1 request/response types and wire parsing.
//!
//! Parsing is strict and bounded: the head (request line + headers) is
//! capped, bodies require `Content-Length` (no chunked encoding), and a
//! body larger than the configured cap is rejected before it is read —
//! an untrusted peer cannot balloon server memory.
//!
//! The one entry point is [`try_parse`] — pure and incremental: given
//! the bytes received so far, it either yields a complete request (and
//! how many bytes it consumed), asks for more, or rejects. The
//! event-loop server calls it each time a connection's buffer grows, so
//! a request split across arbitrarily many reads parses exactly like a
//! one-shot one (`tests/parser_proptests.rs` pins that).

use std::io::{self, Write};

/// Maximum size of the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default maximum request body size (the server's configurable cap).
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/api/campaigns`).
    pub path: String,
    /// Raw query string without the `?` (empty if none).
    pub query: String,
    /// Headers in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Router `:param` captures (filled by the router).
    pub params: Vec<(String, String)>,
    /// Whether the request line declared `HTTP/1.0` (connections then
    /// default to close instead of keep-alive).
    pub http1_0: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A router capture by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// The body is not valid UTF-8.
    pub fn body_text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }

    /// Whether the client asked to close the connection after this
    /// request: an explicit `Connection: close`, or an HTTP/1.0
    /// request without `Connection: keep-alive` (1.0 defaults to
    /// close; leaving such a connection open strands clients that
    /// delimit the body by EOF).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.http1_0,
        }
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added at
    /// write time).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with a status code.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(body.into().into_bytes())
    }

    /// Adds a header (builder-style).
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body (builder-style).
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Serializes onto a stream. `close` adds `Connection: close`
    /// (keep-alive is the HTTP/1.1 default otherwise).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_text(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrases for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Progress of parsing one request out of a contiguous byte buffer
/// (what the peer has sent so far). See [`try_parse`].
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not yet hold a complete request — read more.
    Incomplete,
    /// A complete request occupying the first `used` bytes of the
    /// buffer; anything after `used` is pipelined follow-up data.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request consumed.
        used: usize,
    },
    /// The bytes are not HTTP — answer 400 and close.
    Malformed(String),
    /// Declared body above the configured cap — answer 413 and close.
    BodyTooLarge,
}

/// Where the head ends within a receive buffer.
enum HeadScan {
    /// Head (incl. the blank-line terminator) occupies `buf[..end]`.
    Found(usize),
    /// No terminator yet and the head budget still has room.
    Partial,
    /// No terminator within the head budget.
    TooLarge,
}

/// Finds the end of the request head: the first newline at which the
/// bytes so far end with `\r\n\r\n` or `\n\n`, so (possibly mixed)
/// line-ending dialects are accepted.
fn find_head_end(buf: &[u8]) -> HeadScan {
    // A head of at most MAX_HEAD_BYTES + 1 bytes is admitted: the
    // terminator may land exactly on the boundary.
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES + 1)];
    for (i, byte) in window.iter().enumerate() {
        if *byte != b'\n' {
            continue;
        }
        let prefix = &window[..=i];
        if prefix.ends_with(b"\r\n\r\n") || prefix.ends_with(b"\n\n") {
            return HeadScan::Found(i + 1);
        }
    }
    if buf.len() > MAX_HEAD_BYTES {
        HeadScan::TooLarge
    } else {
        HeadScan::Partial
    }
}

/// Parses a complete head (request line + headers + terminator) into a
/// body-less [`Request`].
fn parse_head(head: &[u8]) -> Result<Request, String> {
    let head = match std::str::from_utf8(head) {
        Ok(h) => h,
        Err(_) => return Err("non-UTF-8 request head".into()),
    };
    // Lines split on bare LF too (the head terminator accepts "\n\n"),
    // with any CR stripped per-line.
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("bad request line '{request_line}'"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version '{version}'"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers: Vec::new(),
        body: Vec::new(),
        params: Vec::new(),
        http1_0: version == "HTTP/1.0",
    };
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line '{line}'"));
        };
        request
            .headers
            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    // Transfer codings are not implemented; absorbing a chunked body
    // as "no body" would desync the keep-alive stream (the chunk data
    // would parse as the next request), so reject it outright.
    if request.header("transfer-encoding").is_some() {
        return Err("transfer encodings are not supported; use Content-Length".into());
    }
    Ok(request)
}

/// The body length a parsed head declares.
fn declared_content_length(request: &Request) -> Result<usize, String> {
    match request.header("content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| "bad Content-Length".to_string()),
        None => Ok(0),
    }
}

/// Attempts to parse one request from the bytes received so far.
///
/// Pure and restartable: callers append incoming bytes to a buffer and
/// re-invoke after every read. The verdict depends only on the buffer
/// contents, so a request chopped across arbitrarily many reads parses
/// identically to the same bytes arriving in one piece (pinned by
/// `tests/parser_proptests.rs`). On [`ParseStatus::Complete`] the
/// caller drains `used` bytes; leftovers are the next pipelined
/// request.
pub fn try_parse(buf: &[u8], max_body_bytes: usize) -> ParseStatus {
    let head_end = match find_head_end(buf) {
        HeadScan::Partial => return ParseStatus::Incomplete,
        HeadScan::TooLarge => {
            return ParseStatus::Malformed("request head too large".into());
        }
        HeadScan::Found(end) => end,
    };
    let mut request = match parse_head(&buf[..head_end]) {
        Ok(request) => request,
        Err(reason) => return ParseStatus::Malformed(reason),
    };
    let content_length = match declared_content_length(&request) {
        Ok(n) => n,
        Err(reason) => return ParseStatus::Malformed(reason),
    };
    if content_length > max_body_bytes {
        return ParseStatus::BodyTooLarge;
    }
    let Some(total) = head_end.checked_add(content_length) else {
        return ParseStatus::Malformed("bad Content-Length".into());
    };
    if buf.len() < total {
        return ParseStatus::Incomplete;
    }
    request.body = buf[head_end..total].to_vec();
    ParseStatus::Complete {
        request,
        used: total,
    }
}

/// Whether an I/O error is a read-timeout (platform-dependent kind).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> ParseStatus {
        try_parse(bytes, DEFAULT_MAX_BODY_BYTES)
    }

    fn parsed(bytes: &[u8]) -> Request {
        match parse(bytes) {
            ParseStatus::Complete { request, used } => {
                assert_eq!(used, bytes.len());
                request
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /api/x?q=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let req = parsed(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/x");
        assert_eq!(req.query, "q=1");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn bare_lf_requests_keep_their_headers() {
        // A picky-but-legal peer may delimit with bare LF; headers
        // must not silently vanish.
        let req = parsed(b"POST /x HTTP/1.1\nContent-Length: 5\nX-Token: t\n\nhello");
        assert_eq!(req.header("content-length"), Some("5"));
        assert_eq!(req.header("x-token"), Some("t"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parsed(b"GET / HTTP/1.0\r\n\r\n");
        assert!(req.http1_0);
        assert!(req.wants_close(), "1.0 without keep-alive must close");
        let req = parsed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close(), "explicit keep-alive is honored");
        let req = parsed(b"GET / HTTP/1.1\r\n\r\n");
        assert!(!req.wants_close(), "1.1 defaults to keep-alive");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            parse(b"not http at all\r\n\r\n"),
            ParseStatus::Malformed(_)
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(huge.as_bytes()), ParseStatus::BodyTooLarge));
        assert!(matches!(parse(b""), ParseStatus::Incomplete));
    }

    #[test]
    fn newline_free_head_is_capped_not_buffered() {
        // A fast peer streaming bytes with no '\n' must hit the head
        // cap, not grow memory until its timeout.
        let flood = vec![b'A'; MAX_HEAD_BYTES * 4];
        let ParseStatus::Malformed(reason) = parse(&flood) else {
            panic!("expected rejection");
        };
        assert!(reason.contains("too large"), "{reason}");
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        // Absorbing a chunked body as empty would desync keep-alive:
        // the chunk bytes would parse as the next pipelined request.
        let raw =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(parse(raw), ParseStatus::Malformed(_)));
    }

    #[test]
    fn incremental_parse_matches_one_shot_at_every_split() {
        let raw: &[u8] = b"POST /api/x?q=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        // Every proper prefix is Incomplete; the full buffer is one
        // request (`parses_request_with_body` reads its fields).
        for i in 0..raw.len() {
            assert!(
                matches!(parse(&raw[..i]), ParseStatus::Incomplete),
                "prefix of {i} bytes must be Incomplete"
            );
        }
        parsed(raw);
    }

    #[test]
    fn incremental_parse_leaves_pipelined_bytes() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseStatus::Complete { request, used } = try_parse(raw, DEFAULT_MAX_BODY_BYTES)
        else {
            panic!("expected first request");
        };
        assert_eq!(request.path, "/a");
        let ParseStatus::Complete { request, used: used2 } =
            try_parse(&raw[used..], DEFAULT_MAX_BODY_BYTES)
        else {
            panic!("expected second request");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn incremental_parse_rejects_what_blocking_rejects() {
        assert!(matches!(
            try_parse(b"not http at all\r\n\r\n", DEFAULT_MAX_BODY_BYTES),
            ParseStatus::Malformed(_)
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            try_parse(huge.as_bytes(), DEFAULT_MAX_BODY_BYTES),
            ParseStatus::BodyTooLarge
        ));
        // Newline-free flood: capped as soon as the budget is blown,
        // never Incomplete forever.
        let flood = vec![b'A'; MAX_HEAD_BYTES * 2];
        let ParseStatus::Malformed(reason) = try_parse(&flood, DEFAULT_MAX_BODY_BYTES) else {
            panic!("expected head-cap rejection");
        };
        assert!(reason.contains("too large"), "{reason}");
        assert!(matches!(
            try_parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                DEFAULT_MAX_BODY_BYTES
            ),
            ParseStatus::Malformed(_)
        ));
        assert!(matches!(try_parse(b"", DEFAULT_MAX_BODY_BYTES), ParseStatus::Incomplete));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
