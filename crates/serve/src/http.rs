//! Minimal HTTP/1.1 over blocking streams: request parsing and response
//! writing for the server, and the one message-head reader both
//! directions share.
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
//!
//! That framing guard is written once, in [`read_headers`], and the
//! inter-tier [`client`](crate::client) reads every response through it
//! too: one line reader ([`read_line`]), one header loop, one body read
//! ([`read_body`]). A request and a response differ only in their start
//! line, the headers each side keeps and the cap on the body.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use extract_obs::TraceId;

/// Longest accepted request line, in bytes.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most accepted header lines after the start line (the blank line that
/// ends the head is not a header and does not count).
const MAX_HEADERS: usize = 64;
/// Longest accepted header line (and response status line), in bytes.
pub(crate) const MAX_HEADER_LINE: usize = 8 * 1024;
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

    /// The `/search` parameters `(q, k, offset)`, validated the one way
    /// both tiers answer them: a missing/blank `q` or an unparseable
    /// number is the `400` to send back, `k` defaults to `default_k` and
    /// is clamped to `max_k` (the clamp shows in the response's `k`).
    pub fn search_params(
        &self,
        default_k: usize,
        max_k: usize,
    ) -> Result<(&str, usize, usize), Response> {
        let Some(q) = self.param("q").filter(|q| !q.trim().is_empty()) else {
            return Err(Response::error(400, "missing query parameter q"));
        };
        let k = match self.param("k").map(str::parse::<usize>) {
            None => default_k,
            Some(Ok(k)) if k >= 1 => k.min(max_k),
            Some(_) => return Err(Response::error(400, "k must be an integer >= 1")),
        };
        let offset = match self.param("offset").map(str::parse::<usize>) {
            None => 0,
            Some(Ok(offset)) => offset,
            Some(Err(_)) => {
                return Err(Response::error(400, "offset must be a non-negative integer"))
            }
        };
        Ok((q, k, offset))
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
/// `TimedOut`). The server's grace probe and the client read through
/// this one test, so the two can never diverge.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// A `TcpStream` whose reads honor an **absolute** deadline. A plain
/// `SO_RCVTIMEO` restarts on every received byte, so a drip-feeding
/// peer (one byte per timeout window — slowloris) could hold a reader
/// essentially forever while never tripping the per-read timeout. Here
/// every underlying read shrinks the socket timeout to the time
/// remaining until the deadline: the whole message, not each byte, must
/// land inside the window. The server reads requests through it and the
/// client reads responses through it.
#[derive(Debug)]
pub(crate) struct DeadlineStream {
    pub(crate) stream: TcpStream,
    pub(crate) deadline: Option<Instant>,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.stream.set_read_timeout(Some(remaining))?;
        }
        self.stream.read(buf)
    }
}

/// Whether `s` is one or more ASCII digits — the only number shape the
/// head accepts (`usize::from_str` would also take `+5`).
pub(crate) fn is_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// Read one head line terminated by `\n` (a trailing `\r` dropped) into
/// `line`, replacing what it held: at most `cap` bytes before the `\n`,
/// else `too_long` (`431`). `start` marks the one read position — the
/// first byte of a message — where nothing at all means the peer is
/// *idle* (a deadline) or *closed early* (EOF); anywhere else, silence
/// is a stall and EOF a truncated line.
pub(crate) fn read_line<'l, R: BufRead>(
    r: &mut R,
    line: &'l mut Vec<u8>,
    cap: usize,
    too_long: &'static str,
    start: bool,
) -> Result<&'l str, HttpError> {
    line.clear();
    // One byte past the cap: a line that long without its newline is
    // over it.
    match r.take(cap as u64 + 1).read_until(b'\n', line) {
        Err(e) if is_timeout(&e) && start && line.is_empty() => {
            return Err(HttpError::IdleTimeout)
        }
        Err(e) if is_timeout(&e) => return Err(HttpError::Stalled),
        Err(e) => return Err(HttpError::Io(e)),
        Ok(0) if start => return Err(HttpError::ClosedEarly),
        Ok(_) => {}
    }
    if line.last() != Some(&b'\n') {
        return Err(if line.len() > cap {
            HttpError::TooLarge(too_long, 431)
        } else {
            HttpError::Malformed("truncated line")
        });
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 line"))
}

/// What the framing guard keeps of a head.
#[derive(Debug)]
pub(crate) struct Framing {
    /// The body length: the one `Content-Length`, or 0 without one.
    pub(crate) content_length: usize,
    /// The `Connection` header read token by token: `Some(false)` when
    /// any token is `close`, else `Some(true)` when one is `keep-alive`,
    /// else `None` (the caller applies its default).
    pub(crate) keep_alive: Option<bool>,
}

/// Read the header lines after a start line, up to the blank line that
/// ends the head, enforcing the framing guard both directions share: at
/// most [`MAX_HEADERS`] lines of at most [`MAX_HEADER_LINE`] bytes, zero
/// or one digits-only `Content-Length`, no `Transfer-Encoding`. Every
/// other header goes to `other` as `(name, trimmed value)`.
pub(crate) fn read_headers<R: BufRead>(
    r: &mut R,
    line: &mut Vec<u8>,
    mut other: impl FnMut(&str, &str),
) -> Result<Framing, HttpError> {
    let mut content_length: Option<usize> = None;
    let mut keep_alive: Option<bool> = None;
    for n in 0.. {
        let header = read_line(r, line, MAX_HEADER_LINE, "header line too long", false)?;
        if header.is_empty() {
            break;
        }
        if n >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers", 431));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = Some(value)
                .filter(|v| is_digits(v))
                .and_then(|v| v.parse().ok())
                .ok_or(HttpError::Malformed("malformed Content-Length"))?;
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
        } else {
            other(name, value);
        }
    }
    Ok(Framing { content_length: content_length.unwrap_or(0), keep_alive })
}

/// Read a `content_length`-byte body the caller has already held to
/// `cap` (the clamp keeps the allocation bounded should that check ever
/// move). EOF before the last byte is a truncated body, a deadline a
/// stall.
pub(crate) fn read_body<R: Read>(
    r: &mut R,
    content_length: usize,
    cap: usize,
) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::with_capacity(content_length.min(cap));
    match r.take(content_length as u64).read_to_end(&mut body) {
        Ok(n) if n == content_length => Ok(body),
        Ok(_) => Err(HttpError::Malformed("truncated body")),
        Err(e) if is_timeout(&e) => Err(HttpError::Stalled),
        Err(e) => Err(HttpError::Io(e)),
    }
}

/// Parse one request from `stream`: request line, headers (all discarded
/// except `Content-Length`, `Connection` and the trace header), then the
/// body — retained verbatim (the size cap was already enforced against
/// the declared `Content-Length`, so a hostile client cannot balloon the
/// allocation past [`MAX_BODY`]).
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Request, HttpError> {
    let mut line = Vec::with_capacity(128);
    let start = read_line(stream, &mut line, MAX_REQUEST_LINE, "request line too long", true)?;
    let mut parts = start.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("malformed request line"));
    }
    let minor = version
        .strip_prefix("HTTP/1.")
        .filter(|m| is_digits(m))
        .ok_or(HttpError::Malformed("malformed request line"))?;
    let http11 = minor != "0";
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("malformed method"));
    }
    let (method, target) = (method.to_string(), target.to_string());

    let mut trace_id: Option<TraceId> = None;
    let framing = read_headers(stream, &mut line, |name, value| {
        // First well-formed value wins; malformed values stay None so
        // the server mints a fresh ID instead of propagating
        // attacker-shaped strings.
        if trace_id.is_none() && name.eq_ignore_ascii_case(extract_obs::TRACE_HEADER) {
            trace_id = TraceId::parse(value);
        }
    })?;
    if framing.content_length > MAX_BODY {
        return Err(HttpError::TooLarge("request body too large", 413));
    }
    let body = read_body(stream, framing.content_length, MAX_BODY)?;

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
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
        method,
        path,
        query,
        http11,
        keep_alive: framing.keep_alive.unwrap_or(http11),
        trace_id,
        body,
    })
}

/// Percent-decode `s`; in query strings (`plus_is_space`) `+` means a
/// space. Returns `None` on truncated/invalid `%` escapes or non-UTF-8.
fn percent_decode(s: &str, plus_is_space: bool) -> Option<String> {
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
    /// When set, an `X-Corpus-Epoch: <n>` header is written: the corpus
    /// epoch a live daemon's answer was computed against, so a client
    /// can tell which world an answer comes from.
    pub corpus_epoch: Option<u64>,
    /// When set, an `X-Corpus-Slots: <n>` header is written: the slots
    /// the ids of the snapshot a live daemon's `/search` answer was
    /// computed against span (through its highest live slot). A shard's
    /// doc ids are its slots, so this is the width of its id range, and
    /// the router places each shard's range by the widths on the answers
    /// it merges.
    pub corpus_slots: Option<u64>,
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
            corpus_slots: None,
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

    /// Stamp this response with the id span of the snapshot it was
    /// computed against (written as `X-Corpus-Slots`).
    pub fn with_corpus_slots(mut self, slots: u64) -> Response {
        self.corpus_slots = Some(slots);
        self
    }
}

/// The reason phrase for the status codes the daemon emits.
fn reason_phrase(status: u16) -> &'static str {
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
/// three fixed headers and all four optional ones come to ~245 bytes),
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
    if let Some(n) = response.corpus_slots {
        write!(wire, "X-Corpus-Slots: {n}\r\n")?;
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

    /// A reader that hands out `sent` and then times out, the way a
    /// socket under a read deadline does when the client goes quiet.
    fn stalls_after(sent: &str) -> BufReader<io::Chain<&[u8], Silent>> {
        BufReader::new(sent.as_bytes().chain(Silent))
    }

    struct Silent;

    impl Read for Silent {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn malformed_requests_map_to_400() {
        // The reason is the `{"error": …}` body the client gets back.
        for (raw, reason) in [
            ("GET\r\n\r\n", "missing request target"),
            ("GET /x\r\n\r\n", "missing HTTP version"),
            ("GET /x SMTP/1.0\r\n\r\n", "malformed request line"),
            ("GET /x HTTP/2\r\n\r\n", "malformed request line"),
            ("GET /x HTTP/1.\r\n\r\n", "malformed request line"),
            ("GET /x HTTP/1.one\r\n\r\n", "malformed request line"),
            ("get /x HTTP/1.1\r\n\r\n", "malformed method"),
            (" /x HTTP/1.1\r\n\r\n", "malformed method"),
            ("GET /x HTTP/1.1 extra\r\n\r\n", "malformed request line"),
            ("GET /%zz HTTP/1.1\r\n\r\n", "malformed path encoding"),
            // Invalid UTF-8 after decode.
            ("GET /s?q=%f0%28 HTTP/1.1\r\n\r\n", "malformed query encoding"),
            ("GET /x HTTP/1.1\r\nno-colon\r\n\r\n", "malformed header"),
            ("GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "malformed Content-Length"),
            ("GET /x HTTP/1.1\r\nHost: x", "truncated line"),
            ("GET /x HT", "truncated line"),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err:?}");
            assert_eq!(err.reason(), reason, "{raw:?}");
        }
        let err = read_request(&mut &b"GET /x HTTP/1.1\r\nHost: \xff\r\n\r\n"[..]).unwrap_err();
        assert_eq!((err.status(), err.reason()), (Some(400), "non-UTF-8 line"));
    }

    #[test]
    fn ambiguous_framing_is_rejected() {
        // Duplicate Content-Length — even when the copies agree — is
        // ambiguous framing, not a negotiation.
        for (raw, reason) in [
            (
                "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
                "duplicate Content-Length",
            ),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi!",
                "duplicate Content-Length",
            ),
            // Values `usize::from_str` accepts but HTTP forbids.
            ("POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi", "malformed Content-Length"),
            ("POST /x HTTP/1.1\r\nContent-Length: 2 2\r\n\r\nhi", "malformed Content-Length"),
            ("POST /x HTTP/1.1\r\nContent-Length: 2,2\r\n\r\nhi", "malformed Content-Length"),
            ("POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n", "malformed Content-Length"),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                "malformed Content-Length",
            ),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err:?}");
            assert_eq!(err.reason(), reason, "{raw:?}");
        }
        // Transfer-Encoding is not implemented → 501, never guessed at.
        for raw in [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding: identity\r\n\r\nhi",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(501), "{raw:?} → {err:?}");
            assert_eq!(err.reason(), "Transfer-Encoding not supported", "{raw:?}");
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
        let err = parse(&long_line).unwrap_err();
        assert_eq!((err.status(), err.reason()), (Some(431), "request line too long"));
        let long_header =
            format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(MAX_HEADER_LINE));
        let err = parse(&long_header).unwrap_err();
        assert_eq!((err.status(), err.reason()), (Some(431), "header line too long"));
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS + 1).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        let err = parse(&many_headers).unwrap_err();
        assert_eq!((err.status(), err.reason()), (Some(431), "too many headers"));
        let big_body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let err = parse(&big_body).unwrap_err();
        assert_eq!((err.status(), err.reason()), (Some(413), "request body too large"));
        // Exactly at each cap is fine: a line of `MAX_REQUEST_LINE` bytes
        // before its `\n` (the `\r` counts), and `MAX_HEADERS` header lines
        // after the request line (the blank one that ends the head is not
        // a header).
        let target = "a".repeat(MAX_REQUEST_LINE - "GET / HTTP/1.1\r".len());
        assert!(parse(&format!("GET /{target} HTTP/1.1\r\n\r\n")).is_ok());
        let full = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        assert!(parse(&full).is_ok());
    }

    #[test]
    fn empty_connection_is_closed_early() {
        let err = parse("").unwrap_err();
        assert!(matches!(err, HttpError::ClosedEarly));
        assert_eq!(err.status(), None);
        assert_eq!(err.reason(), "connection closed");
    }

    #[test]
    fn silence_before_the_first_byte_is_idle_and_after_it_is_stalled() {
        let err = read_request(&mut stalls_after("")).unwrap_err();
        assert!(matches!(err, HttpError::IdleTimeout), "{err:?}");
        assert_eq!((err.status(), err.reason()), (None, "idle connection"));
        // A half-sent request line, a request line without its headers'
        // end, a half-sent header and a short body are all mid-request.
        for sent in [
            "G",
            "GET /x HT",
            "GET /x HTTP/1.1\r\n",
            "GET /x HTTP/1.1\r\nHost: x",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhi",
        ] {
            let err = read_request(&mut stalls_after(sent)).unwrap_err();
            assert!(matches!(err, HttpError::Stalled), "{sent:?} → {err:?}");
            assert_eq!(err.status(), Some(408), "{sent:?}");
            assert_eq!(err.reason(), "request incomplete before the read deadline", "{sent:?}");
        }
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
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("X-Corpus-Epoch") && !text.contains("X-Corpus-Slots"), "{text}");
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
            .with_corpus_epoch(u64::MAX)
            .with_corpus_slots(u64::MAX);
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
             X-Corpus-Slots: 18446744073709551615\r\n\
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
