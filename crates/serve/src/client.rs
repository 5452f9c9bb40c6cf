//! A production HTTP/1.1 client for inter-tier traffic — the promotion
//! of the test-only `KeepAliveClient` into serving machinery the router
//! can stake availability on.
//!
//! Two layers:
//!
//! * [`Connection`] — one persistent socket speaking
//!   `Content-Length`-framed HTTP/1.1. Every operation takes an
//!   **absolute deadline**: each underlying read shrinks the socket
//!   timeout to the time remaining (the server's own
//!   [`DeadlineStream`], pointed the other way), so a stalling peer
//!   costs exactly `deadline - now`, never `per-read-timeout × bytes`.
//!   A response head is read by the server's own head reader
//!   ([`http::read_headers`](crate::http)): the same line and header
//!   limits, a single digits-only `Content-Length`, `Transfer-Encoding`
//!   refused, `Connection` read token by token. Only the start line
//!   (`HTTP/1.x` and a three-digit status) and the body cap are the
//!   client's own — a corrupt or malicious peer declaring a 40 GB body
//!   gets a clean [`ClientError::BodyTooLarge`] instead of an OOM-sized
//!   allocation.
//! * [`HttpClient`] — a [`Connection`] plus a redial policy. A pooled
//!   keep-alive connection can always be stale (the server evicted it
//!   while it sat idle); a request that dies *before the first response
//!   byte* on a reused connection is transparently retried once on a
//!   fresh socket. Actual connect failures back off exponentially with
//!   jitter, bounded by [`ClientConfig::backoff_max`] and the request
//!   deadline — a dead shard costs a bounded slice of the deadline, not
//!   a hot reconnect loop. An exchange comes in two halves,
//!   [`HttpClient::send`] and [`HttpClient::receive`], so one thread can
//!   put a request to each of several peers on the wire before it waits
//!   for the first answer — and can stop waiting at a hedge instant
//!   without losing the answer it is still owed.
//!
//! Everything returns `Result` — no panics, no `unwrap` — because this
//! code runs inside the router's request path where a malformed byte
//! from a sick shard must degrade into an error the caller can route
//! around. The panicking test conveniences in
//! [`testing`](crate::testing) are thin wrappers over this module.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{
    is_digits, is_timeout, read_body, read_headers, read_line, DeadlineStream, HttpError,
    MAX_HEADER_LINE,
};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout for each dial attempt.
    pub connect_timeout: Duration,
    /// Largest accepted response body. A peer declaring more gets
    /// [`ClientError::BodyTooLarge`] before any allocation happens.
    pub max_body: usize,
    /// Fresh-dial attempts per request (the free redial of a stale
    /// kept-alive connection does not count against this).
    pub connect_attempts: u32,
    /// First reconnect backoff; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling, so repeated failures never sleep unboundedly.
    pub backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            max_body: 16 * 1024 * 1024,
            connect_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(250),
        }
    }
}

/// How a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not establish (or re-establish) the TCP connection.
    Connect(io::Error),
    /// The socket died mid-exchange (reset, broken pipe).
    Io(io::Error),
    /// The absolute deadline expired before the full response arrived.
    TimedOut,
    /// The peer closed the connection where a response was expected.
    Closed,
    /// The response violated the protocol (bad status line, header
    /// limits, non-UTF-8 body, ambiguous or unsupported framing); the
    /// message is the server parser's reason for the same fault.
    Malformed(&'static str),
    /// The declared `Content-Length` exceeds [`ClientConfig::max_body`].
    BodyTooLarge {
        /// The configured cap.
        limit: usize,
        /// What the peer declared.
        declared: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "i/o failed: {e}"),
            ClientError::TimedOut => write!(f, "deadline expired"),
            ClientError::Closed => write!(f, "connection closed by peer"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
            ClientError::BodyTooLarge { limit, declared } => {
                write!(f, "response body of {declared} bytes exceeds the {limit}-byte cap")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> ClientError {
        match e {
            HttpError::ClosedEarly => ClientError::Closed,
            HttpError::IdleTimeout | HttpError::Stalled => ClientError::TimedOut,
            HttpError::Io(e) => ClientError::Io(e),
            HttpError::Malformed(m) | HttpError::TooLarge(m, _) | HttpError::Unsupported(m) => {
                ClientError::Malformed(m)
            }
        }
    }
}

/// One parsed response off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// HTTP status code.
    pub status: u16,
    /// The body, framed by `Content-Length`.
    pub body: String,
    /// Whether the server said `Connection: keep-alive` and not `close`
    /// (it always sends the header explicitly; without one the
    /// connection is not reused).
    pub keep_alive: bool,
    /// The `Retry-After` header in seconds, when the server sent one
    /// (`503` shed and `429` per-client refusals carry it).
    pub retry_after: Option<u64>,
    /// The `X-Corpus-Epoch` header, when the server sent one. Live
    /// daemons stamp every answer with the epoch of the corpus snapshot
    /// it was computed against.
    pub corpus_epoch: Option<u64>,
    /// The `X-Corpus-Slots` header, when the server sent one that
    /// parses: the slots the ids of the snapshot a live daemon's
    /// `/search` answer was computed against span — the width of its
    /// doc-id range, which the router places the answer's ids by.
    pub corpus_slots: Option<u64>,
}

/// Time left until `deadline`; none left is [`ClientError::TimedOut`].
fn remaining(deadline: Instant) -> Result<Duration, ClientError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ClientError::TimedOut);
    }
    Ok(remaining)
}

/// Buffer room for a request head besides its target: method, version,
/// `Host`, a trace header, `Content-Length` (a sizing hint: the buffer
/// grows if a head ever needs more).
const HEAD_CAPACITY: usize = 128;

/// Frame one request into `wire`, replacing what it held: request line,
/// `Host`, the raw `extra_headers` lines, a `Content-Length` when there
/// is a body, the blank line, the body.
fn write_request(
    wire: &mut Vec<u8>,
    method: &str,
    target: &str,
    extra_headers: &[&str],
    body: &[u8],
) -> Result<(), ClientError> {
    wire.clear();
    for part in [method, " ", target, " HTTP/1.1\r\nHost: router\r\n"] {
        wire.extend_from_slice(part.as_bytes());
    }
    for header in extra_headers {
        wire.extend_from_slice(header.as_bytes());
        wire.extend_from_slice(b"\r\n");
    }
    if !body.is_empty() {
        write!(wire, "Content-Length: {}\r\n", body.len()).map_err(ClientError::Io)?;
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    Ok(())
}

/// One persistent HTTP/1.1 connection: many requests, one socket,
/// responses framed by `Content-Length` (never by EOF).
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<DeadlineStream>,
    max_body: usize,
    /// Requests answered on this connection so far.
    served: u64,
}

impl Connection {
    /// Dial `addr` within [`ClientConfig::connect_timeout`].
    pub fn connect(addr: SocketAddr, config: &ClientConfig) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)
            .map_err(ClientError::Connect)?;
        // Request/response ping-pong: small whole writes, so just send.
        // xlint: allow(L7, "Nagle stays on if this fails; a latency tweak, never a correctness signal")
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            reader: BufReader::new(DeadlineStream { stream, deadline: None }),
            max_body: config.max_body,
            served: 0,
        })
    }

    /// The underlying socket (raw writes in pipelining tests).
    pub fn stream(&self) -> &TcpStream {
        &self.reader.get_ref().stream
    }

    /// Requests answered on this connection so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Arm the write side for one send: the socket's write timeout
    /// becomes the time left until `deadline` (none without one).
    fn arm_write(&mut self, deadline: Option<Instant>) -> Result<(), ClientError> {
        let timeout = deadline.map(remaining).transpose()?;
        self.stream().set_write_timeout(timeout).map_err(ClientError::Io)
    }

    /// Arm the read side. With a deadline nothing touches the socket
    /// here — every read shrinks its own timeout ([`DeadlineStream`]);
    /// without one, a timeout an earlier deadline left behind is cleared.
    fn arm_read(&mut self, deadline: Option<Instant>) -> Result<(), ClientError> {
        match deadline {
            Some(deadline) => drop(remaining(deadline)?),
            None => self.stream().set_read_timeout(None).map_err(ClientError::Io)?,
        }
        self.reader.get_mut().deadline = deadline;
        Ok(())
    }

    /// Send a request without reading its response (pipelining).
    /// `extra_headers` are raw `Name: value` lines.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        deadline: Option<Instant>,
    ) -> Result<(), ClientError> {
        self.send_with_body(method, target, extra_headers, &[], deadline)
    }

    /// [`send`](Connection::send) with a request body: a `Content-Length`
    /// header frames `body`, and head + body go out in one write (the
    /// same Nagle discipline the server applies to responses).
    fn send_with_body(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        body: &[u8],
        deadline: Option<Instant>,
    ) -> Result<(), ClientError> {
        let mut wire = Vec::with_capacity(HEAD_CAPACITY + target.len() + body.len());
        write_request(&mut wire, method, target, extra_headers, body)?;
        self.send_wire(&wire, deadline)
    }

    /// Write one already-framed request ([`write_request`]) under
    /// `deadline`.
    fn send_wire(
        &mut self,
        wire: &[u8],
        deadline: Option<Instant>,
    ) -> Result<(), ClientError> {
        self.arm_write(deadline)?;
        let stream = &mut self.reader.get_mut().stream;
        stream.write_all(wire).map_err(|e| {
            if is_timeout(&e) { ClientError::TimedOut } else { ClientError::Io(e) }
        })
    }

    /// Read one `Content-Length`-framed response, enforcing the body cap
    /// and the absolute `deadline`. After [`ClientError::BodyTooLarge`]
    /// the body is left unread, so the connection must be dropped — the
    /// caller cannot resynchronize the framing.
    pub fn read_response(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<WireResponse, ClientError> {
        self.arm_read(deadline)?;
        let mut line = Vec::with_capacity(128);
        let status_line =
            read_line(&mut self.reader, &mut line, MAX_HEADER_LINE, "status line too long", true)?;
        let status = parse_status(status_line).ok_or(ClientError::Malformed("bad status line"))?;
        let mut retry_after = None;
        let mut corpus_epoch = None;
        let mut corpus_slots = None;
        let framing = read_headers(&mut self.reader, &mut line, |name, value| {
            if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-corpus-epoch") {
                corpus_epoch = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-corpus-slots") {
                corpus_slots = value.parse().ok();
            }
        })?;
        let declared = framing.content_length;
        if declared > self.max_body {
            return Err(ClientError::BodyTooLarge { limit: self.max_body, declared });
        }
        let body = read_body(&mut self.reader, declared, self.max_body)?;
        self.served += 1;
        Ok(WireResponse {
            status,
            body: String::from_utf8(body)
                .map_err(|_| ClientError::Malformed("non-UTF-8 body"))?,
            keep_alive: framing.keep_alive.unwrap_or(false),
            retry_after,
            corpus_epoch,
            corpus_slots,
        })
    }

    /// Send one request and read its response under one deadline.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        deadline: Option<Instant>,
    ) -> Result<WireResponse, ClientError> {
        self.request_with(method, target, &[], deadline)
    }

    /// [`request`](Connection::request) with extra raw header lines
    /// (e.g. `X-Trace-Id: …`), written verbatim after the standard ones.
    pub fn request_with(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        deadline: Option<Instant>,
    ) -> Result<WireResponse, ClientError> {
        self.send(method, target, extra_headers, deadline)?;
        self.read_response(deadline)
    }

    /// Send one request with a body and read its response under one
    /// deadline — the mutation-endpoint (`POST /ingest`) counterpart of
    /// [`request`](Connection::request).
    pub fn request_body(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        deadline: Option<Instant>,
    ) -> Result<WireResponse, ClientError> {
        self.send_with_body(method, target, &[], body, deadline)?;
        self.read_response(deadline)
    }

    /// Peek for EOF/data within `deadline`: `Ok(true)` when the server
    /// has closed the connection, `Ok(false)` when bytes are waiting,
    /// `Err(TimedOut)` when the connection simply stayed idle.
    pub fn at_eof(&mut self, deadline: Option<Instant>) -> Result<bool, ClientError> {
        self.arm_read(deadline)?;
        match self.reader.fill_buf() {
            Ok(buf) => Ok(buf.is_empty()),
            Err(e) if is_timeout(&e) => Err(ClientError::TimedOut),
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Wait until `wait_until` for the first byte of the next response:
    /// `Ok(true)` when bytes are waiting ([`read_response`] will not
    /// block on the first one), `Ok(false)` when none came — nothing was
    /// consumed, the exchange is still cleanly in flight and can be
    /// polled again. An answer that has already arrived is seen even
    /// when `wait_until` has passed (one non-blocking look).
    ///
    /// [`read_response`]: Connection::read_response
    fn poll_response(&mut self, wait_until: Instant) -> Result<bool, ClientError> {
        let overdue = wait_until <= Instant::now();
        if overdue {
            self.stream().set_nonblocking(true).map_err(ClientError::Io)?;
        }
        let seen = self.at_eof((!overdue).then_some(wait_until));
        if overdue {
            self.stream().set_nonblocking(false).map_err(ClientError::Io)?;
        }
        match seen {
            Ok(false) => Ok(true),
            Ok(true) => Err(ClientError::Closed),
            Err(ClientError::TimedOut) => Ok(false),
            Err(other) => Err(other),
        }
    }
}

/// The status of a response's start line: `HTTP/1.x`, a space, exactly
/// three digits, then the end of the line or a space and the reason.
fn parse_status(line: &str) -> Option<u16> {
    let (version, rest) = line.split_once(' ')?;
    let minor = version.strip_prefix("HTTP/1.")?;
    let code = rest.split(' ').next()?;
    (is_digits(minor) && code.len() == 3 && is_digits(code)).then(|| code.parse().ok())?
}

/// A [`Connection`] plus the redial policy: transparently replaces a
/// stale kept-alive socket, backs off (with jitter) on connect failure,
/// and never sleeps past the request deadline.
///
/// An exchange has two halves, [`send`](HttpClient::send) and
/// [`receive`](HttpClient::receive), so a caller talking to several
/// peers can write every request before it waits for any answer;
/// [`request_with`](HttpClient::request_with) is the two back to back.
///
/// Retrying a request that may have been *processed* is the caller's
/// call — this type only redials when the failure happened before the
/// first response byte of a **reused** connection (the classic stale
/// pool entry), where the server cannot have seen the request complete.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Connection>,
    /// xorshift64* state for backoff jitter — decorrelates the redial
    /// storms of many clients without pulling in a rand dependency.
    rng: u64,
    /// The request in flight, framed: what a stale-connection redial
    /// writes again (and one buffer for every request of this client).
    wire: Vec<u8>,
    /// Whether that request rode a connection that had answered before —
    /// only then is a dead socket a stale pool entry, not a peer failure.
    reused: bool,
}

impl HttpClient {
    /// A client for `addr`; no connection is made until the first
    /// request.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> HttpClient {
        // Seed the jitter from the process-random hasher keys: distinct
        // per client instance, no time source, no dependency.
        use std::hash::BuildHasher;
        let seed = std::collections::hash_map::RandomState::new().hash_one(addr);
        let rng = seed | 1; // xorshift state must be non-zero
        HttpClient { addr, config, conn: None, rng, wire: Vec::new(), reused: false }
    }

    /// The shard address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn next_jitter(&mut self) -> u64 {
        // xorshift64* — tiny, decent, dependency-free.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Exponential backoff for dial attempt `attempt` (0-based), halved
    /// and re-filled with jitter, capped by the config ceiling and the
    /// time remaining until `deadline`.
    fn backoff(&mut self, attempt: u32, deadline: Instant) -> Duration {
        let base = self.config.backoff_base.saturating_mul(1u32 << attempt.min(16));
        let capped = base.min(self.config.backoff_max);
        let half = capped / 2;
        let jitter_range = capped.saturating_sub(half).as_nanos().max(1) as u64;
        let jittered = half + Duration::from_nanos(self.next_jitter() % jitter_range);
        jittered.min(deadline.saturating_duration_since(Instant::now()))
    }

    /// Issue `method target` with an absolute `deadline`, redialing as
    /// the policy allows. On success the connection is retained when the
    /// server kept it alive; on any failure it is dropped, so the next
    /// request starts clean.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        deadline: Instant,
    ) -> Result<WireResponse, ClientError> {
        self.request_with(method, target, &[], deadline)
    }

    /// [`request`](HttpClient::request) with extra raw header lines
    /// (e.g. `X-Trace-Id: …`) forwarded on every attempt, including
    /// redials.
    pub fn request_with(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        deadline: Instant,
    ) -> Result<WireResponse, ClientError> {
        self.send(method, target, extra_headers, deadline)?;
        self.receive(deadline, deadline)?.ok_or(ClientError::TimedOut)
    }

    /// The first half of an exchange: write the request, on the
    /// kept-alive connection when there is one, else on a fresh dial.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        deadline: Instant,
    ) -> Result<(), ClientError> {
        write_request(&mut self.wire, method, target, extra_headers, &[])?;
        if let Some(conn) = self.conn.as_mut() {
            self.reused = conn.served() > 0;
            match conn.send_wire(&self.wire, Some(deadline)) {
                Ok(()) => return Ok(()),
                // A write against an already-FIN'd socket surfaces as a
                // broken pipe / reset: a stale pool entry (idle-evicted
                // by the server), not a shard failure — dial afresh.
                Err(ClientError::Io(_)) if self.reused => {}
                Err(other) => {
                    self.conn = None;
                    return Err(other);
                }
            }
        }
        self.dial_and_send(deadline)
    }

    /// The second half: wait until `wait_until` for the answer to begin,
    /// then read it under `deadline`. `Ok(None)` means no byte came by
    /// `wait_until` (and `deadline` is still ahead): the request stays
    /// in flight and `receive` may be called again. A reused connection
    /// that turns out dead before the first response byte is replaced
    /// and the request re-sent, once, for free.
    pub fn receive(
        &mut self,
        wait_until: Instant,
        deadline: Instant,
    ) -> Result<Option<WireResponse>, ClientError> {
        loop {
            let Some(conn) = self.conn.as_mut() else {
                return Err(ClientError::Closed);
            };
            match conn.poll_response(wait_until.min(deadline)) {
                Ok(true) => {
                    let result = conn.read_response(Some(deadline));
                    if !matches!(&result, Ok(response) if response.keep_alive) {
                        self.conn = None;
                    }
                    return result.map(Some);
                }
                Ok(false) if Instant::now() < deadline => return Ok(None),
                Ok(false) => {
                    self.conn = None;
                    return Err(ClientError::TimedOut);
                }
                Err(ClientError::Closed | ClientError::Io(_)) if self.reused => {
                    self.dial_and_send(deadline)?;
                }
                Err(other) => {
                    self.conn = None;
                    return Err(other);
                }
            }
        }
    }

    /// Dial with bounded, jittered backoff under the deadline and write
    /// the framed request on the new connection.
    fn dial_and_send(&mut self, deadline: Instant) -> Result<(), ClientError> {
        self.conn = None;
        self.reused = false;
        let attempts = self.config.connect_attempts.max(1);
        let mut last = ClientError::TimedOut;
        for attempt in 0..attempts {
            if Instant::now() >= deadline {
                return Err(ClientError::TimedOut);
            }
            match Connection::connect(self.addr, &self.config) {
                Ok(mut conn) => {
                    conn.send_wire(&self.wire, Some(deadline))?;
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => last = e,
            }
            if attempt + 1 < attempts {
                let backoff = self.backoff(attempt, deadline);
                if backoff.is_zero() {
                    return Err(last);
                }
                std::thread::sleep(backoff);
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn canned_server(responses: Vec<String>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else { return };
            for response in responses {
                // Consume one request's worth of bytes (headers only).
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line == "\r\n" || line == "\n" {
                        break;
                    }
                    line.clear();
                }
                stream.write_all(response.as_bytes()).expect("write");
            }
        });
        addr
    }

    fn ok_response(body: &str, keep_alive: bool) -> String {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: {}\r\n\r\n{body}",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn request_parses_status_body_and_retry_after() {
        let addr = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nRetry-After: 7\r\n\
             Connection: close\r\n\r\n{}"
                .to_string(),
        ]);
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        let response = conn.request("GET", "/x", Some(deadline())).expect("response");
        assert_eq!(response.status, 503);
        assert_eq!(response.body, "{}");
        assert_eq!(response.retry_after, Some(7));
        assert!(!response.keep_alive);
    }

    #[test]
    fn the_corpus_stamps_are_read_and_a_garbled_width_is_none() {
        let stamped = |slots: &str| {
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Corpus-Epoch: 4\r\n\
                 x-corpus-slots: {slots}\r\nConnection: keep-alive\r\n\r\n{{}}"
            )
        };
        let addr = canned_server(vec![stamped("9"), stamped("-1"), ok_response("{}", true)]);
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        let response = conn.request("GET", "/x", Some(deadline())).expect("response");
        assert_eq!((response.corpus_epoch, response.corpus_slots), (Some(4), Some(9)));
        let response = conn.request("GET", "/x", Some(deadline())).expect("response");
        assert_eq!((response.corpus_epoch, response.corpus_slots), (Some(4), None));
        let response = conn.request("GET", "/x", Some(deadline())).expect("response");
        assert_eq!((response.corpus_epoch, response.corpus_slots), (None, None));
    }

    #[test]
    fn oversized_content_length_is_an_error_not_an_allocation() {
        let addr = canned_server(vec![format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            usize::MAX
        )]);
        let config = ClientConfig { max_body: 1024, ..ClientConfig::default() };
        let mut conn = Connection::connect(addr, &config).expect("connect");
        match conn.request("GET", "/x", Some(deadline())) {
            Err(ClientError::BodyTooLarge { limit, declared }) => {
                assert_eq!(limit, 1024);
                assert_eq!(declared, usize::MAX);
            }
            other => panic!("wanted BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn body_exactly_at_the_cap_is_accepted() {
        let body = "x".repeat(64);
        let addr = canned_server(vec![ok_response(&body, false)]);
        let config = ClientConfig { max_body: 64, ..ClientConfig::default() };
        let mut conn = Connection::connect(addr, &config).expect("connect");
        let response = conn.request("GET", "/x", Some(deadline())).expect("response");
        assert_eq!(response.body.len(), 64);
    }

    #[test]
    fn header_lines_are_capped_at_max_header_line() {
        // `X-Pad: ` + padding fills the line to exactly the cap, then to
        // one byte over it.
        let response = |line_len: usize| {
            let pad = "p".repeat(line_len - "X-Pad: ".len());
            format!("HTTP/1.1 200 OK\r\nX-Pad: {pad}\r\nContent-Length: 2\r\n\r\n{{}}")
        };
        let addr = canned_server(vec![response(MAX_HEADER_LINE - 1)]);
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        let fits = conn.request("GET", "/x", Some(deadline())).expect("a line at the cap");
        assert_eq!(fits.body, "{}");
        let addr = canned_server(vec![response(MAX_HEADER_LINE + 1)]);
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        match conn.request("GET", "/x", Some(deadline())) {
            Err(ClientError::Malformed(what)) => assert_eq!(what, "header line too long"),
            other => panic!("wanted Malformed, got {other:?}"),
        }
        // A peer that hangs up mid-line is truncated, not too long.
        let addr = canned_server(vec!["HTTP/1.1 200 OK\r\nContent-Le".to_string()]);
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        match conn.request("GET", "/x", Some(deadline())) {
            Err(ClientError::Malformed(what)) => assert_eq!(what, "truncated line"),
            other => panic!("wanted Malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_transfer_encoded_answer_is_malformed_and_not_pooled() {
        // Chunk bytes left on a pooled socket would be read as the head
        // of the next answer.
        let addr = canned_server(vec![
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n\
             2\r\n{}\r\n0\r\n\r\n"
                .to_string(),
        ]);
        let mut client = HttpClient::new(addr, ClientConfig::default());
        match client.request("GET", "/x", deadline()) {
            Err(ClientError::Malformed(what)) => assert_eq!(what, "Transfer-Encoding not supported"),
            other => panic!("wanted Malformed, got {other:?}"),
        }
        assert!(client.conn.is_none(), "a connection with unread framing must not be pooled");
    }

    #[test]
    fn a_status_is_exactly_three_digits() {
        for line in [
            "HTTP/1.1 +20 OK",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1 20 OK",
            "HTTP/1.1 20x OK",
            "HTTP/1.1  200 OK",
            "HTTP/1. 200 OK",
            "HTTP/2 200 OK",
            "HTTP/1.1",
        ] {
            let addr = canned_server(vec![format!("{line}\r\nContent-Length: 0\r\n\r\n")]);
            let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
            match conn.request("GET", "/x", Some(deadline())) {
                Err(ClientError::Malformed(what)) => assert_eq!(what, "bad status line", "{line}"),
                other => panic!("{line}: wanted Malformed, got {other:?}"),
            }
        }
        for (line, status) in [("HTTP/1.0 404 Not Found", 404), ("HTTP/1.1 204", 204)] {
            let addr = canned_server(vec![format!("{line}\r\nContent-Length: 0\r\n\r\n")]);
            let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
            let response = conn.request("GET", "/x", Some(deadline())).expect(line);
            assert_eq!(response.status, status, "{line}");
        }
    }

    #[test]
    fn the_connection_header_is_read_token_by_token() {
        for (value, keep_alive) in [
            ("keep-alive, foo", true),
            ("Foo, Keep-Alive", true),
            ("keep-alive, close", false),
            ("close, keep-alive", false),
            ("foo", false),
            ("close", false),
        ] {
            let addr = canned_server(vec![format!(
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: {value}\r\n\r\n{{}}"
            )]);
            let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
            let response = conn.request("GET", "/x", Some(deadline())).expect(value);
            assert_eq!(response.keep_alive, keep_alive, "Connection: {value}");
        }
    }

    #[test]
    fn stalled_response_hits_the_absolute_deadline() {
        // A server that accepts and never answers: the request must fail
        // with TimedOut at the deadline, not hang.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut conn = Connection::connect(addr, &ClientConfig::default()).expect("connect");
        let start = Instant::now();
        let err = conn
            .request("GET", "/x", Some(Instant::now() + Duration::from_millis(80)))
            .expect_err("must time out");
        assert!(matches!(err, ClientError::TimedOut), "{err:?}");
        assert!(start.elapsed() < Duration::from_secs(2), "hung past the deadline");
        drop(hold);
    }

    #[test]
    fn http_client_redials_a_stale_keep_alive_connection() {
        // Server 1 answers one keep-alive request and then closes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            // First connection: answer one request keep-alive, then close.
            if let Ok((mut stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line == "\r\n" {
                        break;
                    }
                    line.clear();
                }
                stream.write_all(ok_response("first", true).as_bytes()).expect("write");
            } // closed here: the pooled connection is now stale
            if let Ok((mut stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line == "\r\n" {
                        break;
                    }
                    line.clear();
                }
                stream.write_all(ok_response("second", true).as_bytes()).expect("write");
            }
        });
        let mut client = HttpClient::new(addr, ClientConfig::default());
        let first = client.request("GET", "/a", deadline()).expect("first");
        assert_eq!(first.body, "first");
        assert!(client.conn.is_some(), "keep-alive retained");
        // Give the server thread a beat to close the first socket.
        std::thread::sleep(Duration::from_millis(50));
        let second = client.request("GET", "/b", deadline()).expect("second (redial)");
        assert_eq!(second.body, "second");
    }

    #[test]
    fn dead_shard_fails_within_bounded_backoff() {
        // Nothing listens here: bind a port, then drop the listener.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let config = ClientConfig {
            connect_attempts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
            ..ClientConfig::default()
        };
        let mut client = HttpClient::new(addr, config);
        let start = Instant::now();
        let err = client
            .request("GET", "/x", Instant::now() + Duration::from_secs(5))
            .expect_err("no server");
        assert!(matches!(err, ClientError::Connect(_)), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "3 attempts with ≤20 ms backoff took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn backoff_is_jittered_capped_and_deadline_bounded() {
        let mut client = HttpClient::new(
            "127.0.0.1:1".parse().expect("addr"),
            ClientConfig {
                backoff_base: Duration::from_millis(10),
                backoff_max: Duration::from_millis(40),
                ..ClientConfig::default()
            },
        );
        let far = Instant::now() + Duration::from_secs(60);
        for attempt in 0..20 {
            let b = client.backoff(attempt, far);
            assert!(b <= Duration::from_millis(40), "attempt {attempt}: {b:?} over cap");
        }
        // Bounded by an imminent deadline.
        let soon = Instant::now() + Duration::from_millis(1);
        assert!(client.backoff(5, soon) <= Duration::from_millis(2));
        // Jitter actually varies (40 draws collapsing to one value would
        // mean the rng is dead).
        let draws: std::collections::HashSet<Duration> =
            (0..40).map(|_| client.backoff(2, far)).collect();
        assert!(draws.len() > 1, "no jitter observed");
    }
}
