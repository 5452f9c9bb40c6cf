//! Minimal HTTP/1.1 request parsing and response writing over blocking
//! streams.
//!
//! The daemon speaks exactly the slice of HTTP a snippet service needs:
//! `GET`/`POST` request lines with percent-encoded query strings, headers
//! ignored apart from `Content-Length` and `Connection`, and **persistent
//! connections**: an HTTP/1.1 request keeps its connection alive unless
//! the client (or the server's own caps — see
//! [`ServeConfig`](crate::server::ServeConfig)) say `Connection: close`;
//! an HTTP/1.0 request must opt in with `Connection: keep-alive`. All
//! limits are explicit — request-line length, header count/size, body
//! size — and violations map to the proper `4xx` instead of a hang or a
//! panic.
//!
//! Because the parser's framing state is reused across requests on a
//! kept-alive connection, framing is strict: a request with duplicate or
//! non-numeric `Content-Length` headers is rejected with `400`, and
//! `Transfer-Encoding` (which this server does not implement) is rejected
//! with `501` — ambiguous framing is exactly how request smuggling slips
//! a second request past the parser.

use std::io::{self, BufRead, Read, Write};

use extract_obs::TraceId;

/// Longest accepted request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most accepted headers.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Largest accepted (and discarded) request body, in bytes.
pub const MAX_BODY: usize = 64 * 1024;

/// A parsed request: method, decoded path, decoded query parameters, and
/// the connection-persistence the client asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased by the client per RFC (`GET`, …).
    pub method: String,
    /// The percent-decoded path (`/search`).
    pub path: String,
    /// Query parameters in request order, percent-decoded, `+` as space.
    pub query: Vec<(String, String)>,
    /// Whether the request line was `HTTP/1.1` (or newer `1.x`).
    pub http11: bool,
    /// Whether the client wants the connection kept alive after the
    /// response: the `Connection` header when present, else the version
    /// default (alive for 1.1, close for 1.0).
    pub keep_alive: bool,
    /// The `X-Trace-Id` header, when present and well-formed (1–16 hex
    /// digits, non-zero — see [`extract_obs::trace`]). A malformed
    /// value is treated as absent; the server mints a replacement.
    pub trace_id: Option<TraceId>,
    /// The request body, `Content-Length` bytes verbatim (empty when the
    /// header is absent). Capped at [`MAX_BODY`]; mutation endpoints
    /// (`POST /ingest`) read XML documents from here.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of query parameter `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// How a request failed to parse, with the status code to answer with.
#[derive(Debug)]
pub enum HttpError {
    /// The client closed without sending anything (not an error worth a
    /// response — e.g. the shutdown wake-up connection, or a kept-alive
    /// client that finished and hung up).
    ClosedEarly,
    /// The read deadline expired before the client sent the *first byte*
    /// of a request — an idle connection, closed without a response.
    IdleTimeout,
    /// The read deadline expired **mid-request** (a partial request line
    /// or header and then silence) → `408`, connection close. Without
    /// this a stalled client would pin a worker for the full timeout and
    /// then be dropped without an answer.
    Stalled,
    /// Malformed request line / headers / encoding → `400`.
    Malformed(&'static str),
    /// A limit was exceeded → `431` (headers) or `413` (body).
    TooLarge(&'static str, u16),
    /// A feature this server deliberately does not speak
    /// (`Transfer-Encoding`) → `501`.
    Unsupported(&'static str),
    /// The underlying socket failed (reset, broken pipe).
    Io(io::Error),
}

impl HttpError {
    /// The status code this error maps to, if a response is worth writing.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::ClosedEarly | HttpError::IdleTimeout | HttpError::Io(_) => None,
            HttpError::Stalled => Some(408),
            HttpError::Malformed(_) => Some(400),
            HttpError::TooLarge(_, code) => Some(*code),
            HttpError::Unsupported(_) => Some(501),
        }
    }

    /// Human-readable reason for the error body.
    pub fn reason(&self) -> &str {
        match self {
            HttpError::ClosedEarly => "connection closed",
            HttpError::IdleTimeout => "idle connection",
            HttpError::Stalled => "request incomplete before the read deadline",
            HttpError::Malformed(m)
            | HttpError::TooLarge(m, _)
            | HttpError::Unsupported(m) => m,
            HttpError::Io(_) => "i/o error",
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Whether an i/o error is a blocking-socket read deadline expiring
/// (Linux reports `WouldBlock` for `SO_RCVTIMEO`, other platforms
/// `TimedOut`). Shared with the server's grace-probe classification so
/// the two can never diverge.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Read one line terminated by `\n` (tolerating a trailing `\r`), capped
/// at `cap` bytes. `idle_ok` marks the one read position (the start of a
/// request) where silence means *idle* rather than *stalled mid-request*.
fn read_line<R: BufRead>(
    r: &mut R,
    cap: usize,
    what: &'static str,
    idle_ok: bool,
) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = 0u8;
        match r.read(std::slice::from_mut(&mut byte)) {
            Err(e) if is_timeout(&e) => {
                if idle_ok && buf.is_empty() {
                    return Err(HttpError::IdleTimeout);
                }
                return Err(HttpError::Stalled);
            }
            Err(e) => return Err(HttpError::Io(e)),
            Ok(0) => {
                if idle_ok && buf.is_empty() {
                    return Err(HttpError::ClosedEarly);
                }
                return Err(HttpError::Malformed("truncated line"));
            }
            Ok(_) => {
                if byte == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 line"));
                }
                if buf.len() >= cap {
                    return Err(HttpError::TooLarge(what, 431));
                }
                buf.push(byte);
            }
        }
    }
}

/// Parse one request from `stream`: request line, headers (all discarded
/// except `Content-Length`, `Connection` and the trace header), then the
/// body — retained verbatim (the size cap was already enforced against
/// the declared `Content-Length`, so a hostile client cannot balloon the
/// allocation past [`MAX_BODY`]).
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Request, HttpError> {
    let line = read_line(stream, MAX_REQUEST_LINE, "request line too long", true)?;
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("malformed request line"));
    }
    let minor = version
        .strip_prefix("HTTP/1.")
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_digit()))
        .ok_or(HttpError::Malformed("malformed request line"))?;
    let http11 = minor != "0";
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("malformed method"));
    }

    // Framing guard: exactly zero or one Content-Length, digits only.
    // `usize::from_str` would happily accept `+5`; a smuggler's second
    // interpretation of the framing starts exactly there.
    let mut content_length: Option<usize> = None;
    let mut keep_alive: Option<bool> = None;
    let mut trace_id: Option<TraceId> = None;
    for n in 0.. {
        if n >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers", 431));
        }
        let header = read_line(stream, MAX_HEADER_LINE, "header line too long", false)?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed("malformed Content-Length"));
            }
            let parsed =
                value.parse().map_err(|_| HttpError::Malformed("malformed Content-Length"))?;
            if content_length.replace(parsed).is_some() {
                return Err(HttpError::Malformed("duplicate Content-Length"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Never guess at framing this parser does not implement: a
            // TE/CL disagreement is the classic smuggling vector.
            return Err(HttpError::Unsupported("Transfer-Encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = Some(false);
                } else if token.eq_ignore_ascii_case("keep-alive") && keep_alive.is_none() {
                    keep_alive = Some(true);
                }
            }
        } else if name.eq_ignore_ascii_case(extract_obs::TRACE_HEADER) {
            // First well-formed value wins; malformed values stay None
            // so the server mints a fresh ID instead of propagating
            // attacker-shaped strings.
            if trace_id.is_none() {
                trace_id = TraceId::parse(value);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge("request body too large", 413));
    }
    let mut body = Vec::with_capacity(content_length.min(MAX_BODY));
    match stream.take(content_length as u64).read_to_end(&mut body) {
        Ok(n) if n == content_length => {}
        Ok(_) => return Err(HttpError::Malformed("truncated body")),
        Err(e) if is_timeout(&e) => return Err(HttpError::Stalled),
        Err(e) => return Err(HttpError::Io(e)),
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path =
        percent_decode(path_raw, false).ok_or(HttpError::Malformed("malformed path encoding"))?;
    let mut query = Vec::new();
    if let Some(raw) = query_raw {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k, true)
                .ok_or(HttpError::Malformed("malformed query encoding"))?;
            let v = percent_decode(v, true)
                .ok_or(HttpError::Malformed("malformed query encoding"))?;
            query.push((k, v));
        }
    }
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        http11,
        keep_alive: keep_alive.unwrap_or(http11),
        trace_id,
        body,
    })
}

/// Percent-decode `s`; in query strings (`plus_is_space`) `+` means a
/// space. Returns `None` on truncated/invalid `%` escapes or non-UTF-8.
pub fn percent_decode(s: &str, plus_is_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
                let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Percent-encode `s` for use inside a query-string value: unreserved
/// characters (RFC 3986 §2.3) pass through, everything else — including
/// `+`, `&`, `=` and spaces — becomes `%XX`, so the result survives
/// [`percent_decode`] byte-identically on any server. The router uses
/// this to forward user queries to shard daemons.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                let nibble = |n: u8| {
                    char::from_digit(u32::from(n), 16).unwrap_or('0').to_ascii_uppercase()
                };
                out.push('%');
                out.push(nibble(b >> 4));
                out.push(nibble(b & 0xF));
            }
        }
    }
    out
}

/// A response ready to write: status, content type, body, and an
/// optional `Retry-After` hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// When set, a `Retry-After: <seconds>` header is written — every
    /// refusal the server expects the client to retry (`503` shed, `429`
    /// per-client cap) carries one, so well-behaved clients back off for
    /// a told amount instead of hot-looping.
    pub retry_after: Option<u32>,
    /// When set, an `X-Trace-Id: <id>` header is written. The server
    /// sets it only when the *request* carried a trace ID — traced
    /// callers (the router) get the echo; untraced clients see
    /// byte-identical responses with or without instrumentation.
    pub trace_id: Option<TraceId>,
    /// When set, an `X-Corpus-Epoch: <n>` header is written. Live
    /// daemons stamp every answer with the corpus epoch it was computed
    /// against, so the router can detect a mutated shard from the
    /// response itself instead of waiting for the next probe round.
    pub corpus_epoch: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            trace_id: None,
            corpus_epoch: None,
        }
    }

    /// A JSON error response with an `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        let mut w = crate::json::JsonWriter::new();
        w.obj_begin();
        w.key("error");
        w.str(message);
        w.obj_end();
        Response::json(status, w.finish())
    }

    /// Attach a `Retry-After: <seconds>` header to this response.
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Stamp this response with the corpus epoch it was computed against
    /// (written as `X-Corpus-Epoch`).
    pub fn with_corpus_epoch(mut self, epoch: u64) -> Response {
        self.corpus_epoch = Some(epoch);
        self
    }
}

/// The reason phrase for the status codes the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Room for the longest head [`write_response`] emits (status line, the
/// three fixed headers and all three optional ones come to ~230 bytes),
/// so head and body share one allocation.
const HEAD_CAPACITY: usize = 256;

/// Write `response` with `Content-Length` and the connection-persistence
/// decision: `Connection: keep-alive` when the server will read another
/// request from this socket, `Connection: close` when it won't. The
/// header is always explicit so clients never have to apply version
/// defaults.
///
/// Head and body go out in **one** write: split across two small
/// segments, Nagle's algorithm holds the second until the first is
/// ACKed, and on a kept-alive connection the client's delayed ACK turns
/// that into a ~10 ms stall per response (a fresh-connection close
/// flushes the tail, which is why the bug hides without keep-alive).
pub fn write_response<W: Write>(
    stream: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(HEAD_CAPACITY + response.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
    )?;
    if let Some(seconds) = response.retry_after {
        write!(wire, "Retry-After: {seconds}\r\n")?;
    }
    if let Some(id) = response.trace_id {
        write!(wire, "{}: {id}\r\n", extract_obs::TRACE_HEADER)?;
    }
    if let Some(n) = response.corpus_epoch {
        write!(wire, "X-Corpus-Epoch: {n}\r\n")?;
    }
    let connection: &[u8] = if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    };
    wire.extend_from_slice(connection);
    wire.extend_from_slice(&response.body);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_and_query() {
        let r = parse("GET /search?q=store+texas&k=5&offset=0 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/search");
        assert_eq!(r.param("q"), Some("store texas"));
        assert_eq!(r.param("k"), Some("5"));
        assert_eq!(r.param("offset"), Some("0"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        // HTTP/1.1 defaults to keep-alive…
        let r = parse("GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.http11 && r.keep_alive);
        // …unless the client says close (any casing, list syntax too).
        for header in ["Connection: close", "connection: Close", "Connection: foo, CLOSE"] {
            let r = parse(&format!("GET /x HTTP/1.1\r\n{header}\r\n\r\n")).unwrap();
            assert!(!r.keep_alive, "{header}");
        }
        // `close` wins over `keep-alive` however the list orders them.
        let r = parse("GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET /x HTTP/1.1\r\nConnection: close, keep-alive\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        // HTTP/1.0 defaults to close and must opt in.
        let r = parse("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.http11 && !r.keep_alive);
        let r = parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn percent_decoding_covers_utf8_and_plus() {
        let r = parse("GET /s?q=caf%C3%A9%20%2B+bar&x=%7B%22%7D HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.param("q"), Some("café + bar"));
        assert_eq!(r.param("x"), Some("{\"}"));
        // `+` in the *path* is literal.
        let r = parse("GET /a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/a+b");
    }

    #[test]
    fn body_is_consumed_and_retained() {
        let raw = "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = BufReader::new(raw.as_bytes());
        let r = read_request(&mut reader).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello", "body is retained verbatim");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "body was consumed off the stream");
        // No Content-Length → empty body.
        let r = parse("GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.body.is_empty());
    }

    #[test]
    fn malformed_requests_map_to_400() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x SMTP/1.0\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.\r\n\r\n",
            "GET /x HTTP/1.one\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /%zz HTTP/1.1\r\n\r\n",
            "GET /s?q=%f0%28 HTTP/1.1\r\n\r\n", // invalid UTF-8 after decode
            "GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err:?}");
            assert!(!err.reason().is_empty());
        }
    }

    #[test]
    fn ambiguous_framing_is_rejected() {
        // Duplicate Content-Length — even when the copies agree — is
        // ambiguous framing, not a negotiation.
        for raw in [
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi!",
            // Values `usize::from_str` accepts but HTTP forbids.
            "POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\nContent-Length: 2 2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\nContent-Length: 2,2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err:?}");
        }
        // Transfer-Encoding is not implemented → 501, never guessed at.
        for raw in [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nhi",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(501), "{raw:?} → {err:?}");
        }
    }

    #[test]
    fn truncated_body_is_malformed_not_a_hang() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi").unwrap_err();
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn limits_map_to_4xx() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 10));
        assert_eq!(parse(&long_line).unwrap_err().status(), Some(431));
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS + 1).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        assert_eq!(parse(&many_headers).unwrap_err().status(), Some(431));
        let big_body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse(&big_body).unwrap_err().status(), Some(413));
    }

    #[test]
    fn empty_connection_is_closed_early() {
        let err = parse("").unwrap_err();
        assert!(matches!(err, HttpError::ClosedEarly));
        assert_eq!(err.status(), None);
    }

    #[test]
    fn percent_encode_round_trips_through_the_parser() {
        for s in ["store texas", "a+b&c=d", "café", "100%", "~tilde-ok_", "q?#[]"] {
            let encoded = percent_encode(s);
            assert!(
                encoded.bytes().all(|b| b.is_ascii_alphanumeric()
                    || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')),
                "{s} → {encoded} leaked a reserved byte"
            );
            assert_eq!(percent_decode(&encoded, true).as_deref(), Some(s), "{s}");
            // And through a full request line, the way the router sends it.
            let r = parse(&format!("GET /search?q={encoded} HTTP/1.1\r\n\r\n")).unwrap();
            assert_eq!(r.param("q"), Some(s));
        }
    }

    #[test]
    fn trace_id_header_is_parsed_when_well_formed() {
        let r = parse("GET /x HTTP/1.1\r\nX-Trace-Id: 00c0ffee\r\n\r\n").unwrap();
        assert_eq!(r.trace_id.map(TraceId::as_u64), Some(0x00c0_ffee));
        // Case-insensitive header name, whitespace-tolerant value.
        let r = parse("GET /x HTTP/1.1\r\nx-trace-id:  AB12  \r\n\r\n").unwrap();
        assert_eq!(r.trace_id.map(TraceId::as_u64), Some(0xab12));
        // Malformed values are treated as absent, not an error.
        for bad in ["", "0", "not-hex", "123456789012345678"] {
            let r = parse(&format!("GET /x HTTP/1.1\r\nX-Trace-Id: {bad}\r\n\r\n")).unwrap();
            assert_eq!(r.trace_id, None, "{bad:?}");
        }
        let r = parse("GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.trace_id, None);
    }

    #[test]
    fn trace_id_header_is_echoed_only_when_set() {
        let id = TraceId::parse("deadbeef").unwrap();
        let mut traced = Response::json(200, "{}".into());
        traced.trace_id = Some(id);
        let mut out = Vec::new();
        write_response(&mut out, &traced, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Trace-Id: 00000000deadbeef\r\n"), "{text}");
        // Responses never carry the header unless explicitly set.
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("X-Trace-Id"));
    }

    #[test]
    fn corpus_epoch_header_is_emitted_when_set() {
        let mut out = Vec::new();
        let stamped = Response::json(200, "{}".into()).with_corpus_epoch(7);
        write_response(&mut out, &stamped, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Corpus-Epoch: 7\r\n"), "{text}");
        // Absent by default — static daemons stay byte-identical.
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("X-Corpus-Epoch"));
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let mut out = Vec::new();
        let refusal = Response::error(503, "over capacity").with_retry_after(2);
        write_response(&mut out, &refusal, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nRetry-After: 2\r\n"), "{text}");
        // Absent by default.
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), false).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"), "spurious header");
    }

    #[test]
    fn full_head_is_pinned_byte_for_byte_and_fits_its_capacity() {
        let mut response = Response::error(503, "over capacity")
            .with_retry_after(u32::MAX)
            .with_corpus_epoch(u64::MAX);
        response.trace_id = TraceId::parse("ffffffffffffffff");
        let mut out = Vec::new();
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 503 Service Unavailable\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 25\r\n\
             Retry-After: 4294967295\r\n\
             X-Trace-Id: ffffffffffffffff\r\n\
             X-Corpus-Epoch: 18446744073709551615\r\n\
             Connection: keep-alive\r\n\r\n\
             {\"error\":\"over capacity\"}"
        );
        assert!(text.len() - response.body.len() <= HEAD_CAPACITY, "head outgrew its buffer");
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".to_string()), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".to_string()), true).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("Connection: keep-alive\r\n"));
        let err = Response::error(503, "over capacity");
        assert_eq!(err.status, 503);
        assert_eq!(String::from_utf8(err.body).unwrap(), r#"{"error":"over capacity"}"#);
    }
}
