//! Test and load-generator support: a one-request loopback fetch (one
//! fresh connection per request), a persistent keep-alive client, plus
//! the concurrency latches the deterministic server tests are built on.
//! Shared by this crate's integration tests, the umbrella `tests/serve.rs`
//! suite, the `serve` binary's self-check and the `obs_overhead` guard.
//! Not part of the serving API.
//!
//! Neither client parses HTTP: both ride
//! [`client::Connection`](crate::client::Connection), the production
//! inter-tier client the router is built on, which reads every response
//! head through the server's own parser. What this module adds is the
//! *test temperament*: generous 20 s deadlines and loud panics instead of
//! `Result`s.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::client::{ClientConfig, ClientError, Connection};
use crate::server::ServerHandle;

pub use crate::client::WireResponse;

/// How long a test client waits before declaring the server hung.
const TEST_DEADLINE: Duration = Duration::from_secs(20);

/// Issue one `method target` request over a fresh connection with
/// `Connection: close`, returning `(status, body)` once the server has
/// hung up — so whatever the server counts for the exchange is counted
/// when this returns. The deadline turns a dropped connection or a hang
/// into a loud panic — exactly what a test wants.
///
/// # Panics
/// On connect/send/read failure, a malformed response, or a server that
/// keeps the connection open after answering `Connection: close`.
pub fn fetch(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut client = KeepAliveClient::connect(addr);
    client.send(method, target, &["Connection: close"]);
    let response = client.read_response();
    assert!(client.at_eof(), "{method} {target}: the server kept a closing connection open");
    (response.status, response.body)
}

/// A persistent HTTP/1.1 client: many requests, one socket. Responses
/// are framed by `Content-Length` (never by EOF), so the connection
/// survives between exchanges. A panicking facade over
/// [`client::Connection`](crate::client::Connection) — a test client
/// wants loud failures, not error plumbing.
#[derive(Debug)]
pub struct KeepAliveClient {
    conn: Connection,
}

impl KeepAliveClient {
    fn deadline() -> Instant {
        Instant::now() + TEST_DEADLINE
    }

    /// Connect to `addr` with a generous read timeout.
    ///
    /// # Panics
    /// On connect failure.
    pub fn connect(addr: SocketAddr) -> KeepAliveClient {
        let config = ClientConfig { connect_timeout: TEST_DEADLINE, ..ClientConfig::default() };
        KeepAliveClient {
            conn: Connection::connect(addr, &config).expect("connect"),
        }
    }

    /// The underlying socket (for raw writes in pipelining tests).
    pub fn stream(&self) -> &TcpStream {
        self.conn.stream()
    }

    /// Send a request without reading its response (pipelining).
    /// `extra_headers` are raw `Name: value` lines.
    ///
    /// # Panics
    /// On send failure.
    pub fn send(&mut self, method: &str, target: &str, extra_headers: &[&str]) {
        self.conn
            .send(method, target, extra_headers, Some(Self::deadline()))
            .expect("send");
    }

    /// Read one `Content-Length`-framed response.
    ///
    /// # Panics
    /// On a malformed or missing response (including the server closing
    /// the connection before a response arrives).
    pub fn read_response(&mut self) -> WireResponse {
        match self.conn.read_response(Some(Self::deadline())) {
            Ok(response) => response,
            Err(ClientError::Closed) => {
                panic!("connection closed before a response arrived")
            }
            Err(e) => panic!("read response: {e}"),
        }
    }

    /// Send one request and read its response.
    ///
    /// # Panics
    /// On any wire failure (see [`KeepAliveClient::send`] /
    /// [`KeepAliveClient::read_response`]).
    pub fn request(&mut self, method: &str, target: &str) -> WireResponse {
        self.send(method, target, &[]);
        self.read_response()
    }

    /// Send one request with a `Content-Length`-framed body and read its
    /// response — the `POST /ingest` counterpart of
    /// [`KeepAliveClient::request`].
    ///
    /// # Panics
    /// On any wire failure.
    pub fn request_body(&mut self, method: &str, target: &str, body: &[u8]) -> WireResponse {
        self.conn.request_body(method, target, body, Some(Self::deadline())).expect("request")
    }

    /// Whether the server has closed the connection: a zero-byte read at
    /// EOF. Blocks until EOF or data (use after the server should have
    /// hung up).
    pub fn at_eof(&mut self) -> bool {
        matches!(self.conn.at_eof(Some(Self::deadline())), Ok(true))
    }
}

/// A latch a handler blocks on until the test releases it, counting how
/// many calls have entered — the tool that turns "the worker is busy"
/// into an *observed* state instead of a sleep.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<(usize, bool)>, // (entered, released)
    cond: Condvar,
}

impl Gate {
    /// Called by the gated handler: count the entry, then block until
    /// [`Gate::release`].
    // xlint: allow(L10, "the gated handlers of crates/serve/tests/server.rs, crates/serve/tests/keepalive.rs and tests/serve.rs")
    pub fn wait_inside(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.cond.notify_all();
        while !state.1 {
            state = self.cond.wait(state).unwrap();
        }
    }

    /// Open the gate permanently.
    // xlint: allow(L10, "crates/serve/tests/server.rs, crates/serve/tests/keepalive.rs and tests/serve.rs open their gates")
    pub fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cond.notify_all();
    }

    /// Block until `n` handler calls have entered the gate.
    ///
    /// # Panics
    /// After 20 s.
    // xlint: allow(L10, "crates/serve/tests/server.rs, crates/serve/tests/keepalive.rs and tests/serve.rs wait on their gates")
    pub fn await_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut state = self.state.lock().unwrap();
        while state.0 < n {
            assert!(Instant::now() < deadline, "handler never entered {n} times");
            let (s, _) = self.cond.wait_timeout(state, Duration::from_millis(50)).unwrap();
            state = s;
        }
    }
}

/// Shuts the server down when dropped. Declared inside every test
/// `thread::scope` body so a failed assertion unwinds into a drain
/// instead of deadlocking the scope's implicit join on `Server::run`.
#[derive(Debug)]
pub struct DrainOnDrop(pub ServerHandle);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Releases the gate when dropped — pairs with [`DrainOnDrop`] so an
/// assertion failure can't leave a handler blocked on the gate while the
/// drain waits for it.
#[derive(Debug)]
pub struct ReleaseOnDrop<'a>(pub &'a Gate);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}
