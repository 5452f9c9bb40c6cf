//! The load generator's HTTP/1.1 client: one keep-alive socket, requests
//! pre-rendered to wire bytes, and three timestamps per exchange — the
//! spans the traced pass records. It redials when the server says
//! `Connection: close` (the router does, every 256 requests) and treats
//! that as the protocol working, not as a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request slower than this, end to end, counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Mutations rebuild the corpus and may legitimately take longer.
pub const MUTATION_TIMEOUT: Duration = Duration::from_secs(10);

/// Render a request to wire bytes. `trace` becomes an `X-Trace-Id`
/// header; `body` a `Content-Length`-framed payload.
pub fn wire(method: &str, target: &str, trace: Option<u64>, body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n");
    if let Some(id) = trace {
        head.push_str(&format!("X-Trace-Id: {id:016x}\r\n"));
    }
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// When the phases of one exchange ended.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Just before the first request byte was written.
    pub start: Instant,
    /// The request was handed to the kernel.
    pub sent: Instant,
    /// The first response byte arrived.
    pub first_byte: Instant,
    /// The last body byte arrived.
    pub done: Instant,
}

impl Timing {
    /// Client-observed latency: first request byte → last body byte.
    pub fn latency(&self) -> Duration {
        self.done - self.start
    }
}

/// One keep-alive connection to one daemon.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    body_start: usize,
    body_end: usize,
    timeout: Duration,
    /// Times the server closed the connection and the client redialled.
    pub redials: u64,
}

impl Client {
    /// A client for `addr`; the socket is dialled on first use.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            stream: None,
            buf: vec![0; 64 * 1024],
            body_start: 0,
            body_end: 0,
            timeout,
            redials: 0,
        }
    }

    fn connected(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just dialled"))
    }

    /// Dial now, so the first timed request does not pay for it.
    pub fn connect(&mut self) -> io::Result<()> {
        self.connected().map(|_| ())
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..self.body_end]
    }

    /// One exchange: `(status, timing)`; the body stays in the client's
    /// buffer ([`Client::body`]). Dialling (first use, or after the server
    /// closed the previous connection) happens before the clock starts.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Timing)> {
        self.connected()?;
        let result = self.exchange_connected(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_connected(&mut self, request: &[u8]) -> io::Result<(u16, Timing)> {
        let stream = self.stream.as_mut().expect("connected");
        let start = Instant::now();
        stream.write_all(request)?;
        let sent = Instant::now();
        let mut filled = 0;
        let mut first_byte = None;
        // Head: read until the blank line.
        let head_end = loop {
            if filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            let scan_from = filled.saturating_sub(3);
            filled += n;
            if let Some(at) = find(&self.buf[scan_from..filled], b"\r\n\r\n") {
                break scan_from + at + 4;
            }
        };
        let head = parse_head(&self.buf[..head_end])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response head"))?;
        let body_end = head_end + head.content_length;
        if body_end > self.buf.len() {
            self.buf.resize(body_end, 0);
        }
        while filled < body_end {
            let n = stream.read(&mut self.buf[filled..body_end])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            filled += n;
        }
        let done = Instant::now();
        self.body_start = head_end;
        self.body_end = body_end;
        if !head.keep_alive {
            self.stream = None;
            self.redials += 1;
        }
        let first_byte = first_byte.unwrap_or(done);
        Ok((
            head.status,
            Timing {
                start,
                sent,
                first_byte,
                done,
            },
        ))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

struct RawHead {
    status: u16,
    content_length: usize,
    keep_alive: bool,
}

/// Parse `HTTP/1.1 200 OK\r\nName: value\r\n…\r\n\r\n`.
fn parse_head(head: &[u8]) -> Option<RawHead> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()?
        .strip_prefix("HTTP/1.")?
        .get(2..5)?
        .parse()
        .ok()?;
    let mut out = RawHead {
        status,
        content_length: 0,
        keep_alive: false,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            out.content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            out.keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    Some(out)
}

/// A one-shot `GET` on a fresh connection (scrapes, health checks):
/// `(status, body)`.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let mut client = Client::new(addr, MUTATION_TIMEOUT);
    let (status, _) = client.exchange(&wire("GET", target, None, b""))?;
    Ok((status, String::from_utf8_lossy(client.body()).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_status_and_framing() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: 42\r\nX-Corpus-Epoch: 7\r\nConnection: keep-alive\r\n\r\n";
        let parsed = parse_head(head).expect("parses");
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.content_length, 42);
        assert!(parsed.keep_alive);
        let closing = b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\n\r\n";
        let parsed = parse_head(closing).expect("parses");
        assert_eq!(
            (parsed.status, parsed.keep_alive, parsed.content_length),
            (503, false, 0)
        );
        assert!(parse_head(b"SMTP ready\r\n\r\n").is_none());
    }

    #[test]
    fn wire_frames_bodies_and_trace_ids() {
        let plain = wire("GET", "/healthz", None, b"");
        assert_eq!(plain, b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n");
        let traced =
            String::from_utf8(wire("POST", "/ingest?name=a", Some(0xAB), b"<a/>")).unwrap();
        assert!(traced.contains("X-Trace-Id: 00000000000000ab\r\n"));
        assert!(traced.contains("Content-Length: 4\r\n"));
        assert!(traced.ends_with("\r\n\r\n<a/>"));
    }
}
