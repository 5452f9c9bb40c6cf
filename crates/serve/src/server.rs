//! The blocking acceptor → bounded queue → worker-pool server, with
//! keep-alive connections parked on an epoll readiness loop.
//!
//! Production machinery, not a toy accept loop:
//!
//! * **Admission control** — admission is per *request*, not per
//!   connection: the acceptor (for fresh connections) and the readiness
//!   loop (for kept-alive connections with a new request) push work into
//!   a queue bounded by [`ServeConfig::queue_depth`]; when it is full the
//!   request is answered `503` *immediately* and the connection closed,
//!   so overload degrades into fast, explicit shedding instead of
//!   unbounded latency. Total concurrency is therefore exactly `workers`
//!   (in service) + `queue_depth` (waiting) — reused connections cannot
//!   smuggle extra requests past the bound.
//! * **Per-client fairness** — at most
//!   [`ServeConfig::per_client_inflight`] admitted-but-unanswered
//!   *requests* per peer IP at once; the excess is answered `429` so one
//!   greedy client cannot occupy the whole pool. The key is the
//!   *canonical* peer IP: an IPv4-mapped IPv6 peer (`::ffff:127.0.0.1`)
//!   pays the same budget as `127.0.0.1` instead of dodging it.
//! * **Keep-alive** — a connection whose request asked for persistence
//!   is answered `Connection: keep-alive` and reused. A worker serves back-to-back
//!   requests from the same socket only while the queue is empty (a
//!   short [`KEEPALIVE_GRACE`] read bridges the client's turnaround);
//!   the moment other work is waiting — or the client goes quiet — the
//!   connection is *parked* on the [`event`](crate::event) readiness
//!   loop and the worker moves on. A parked connection that turns
//!   readable re-enters admission like any fresh one; one idle longer
//!   than [`ServeConfig::idle_timeout`] is evicted.
//!   [`ServeConfig::max_requests_per_connection`] caps reuse so a single
//!   socket cannot pin parser state forever.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] stops admission,
//!   wakes the acceptor, closes parked (request-less) connections, and
//!   lets the workers *drain*: every admitted request is still answered
//!   before [`Server::run`] returns.
//!
//! Everything is `std`: blocking sockets, a `Mutex`+`Condvar` queue,
//! scoped worker threads, and an epoll fd driven through a thin safe
//! wrapper. No tokio — the worker pool is the concurrency bound, and the
//! queue keeps the accept path O(1).
//!
//! # Lock order
//!
//! Three lock domains exist: `queue` (the admission queue),
//! `inflight` (the per-client request counts) and `parked` (the
//! keep-alive parking lot). The canonical acquisition order is
//!
//! > **`queue` → `inflight` → `parked`**
//!
//! — a later domain may be acquired while an earlier one is held
//! (admission holds `queue` while bumping `inflight`; `stats()` holds
//! all three briefly), never the reverse. `xlint`'s L1 lock-order lint
//! machine-checks every function in this file against that order, so an
//! inversion (and with it a potential deadlock) fails CI rather than
//! review.
//!
//! # Poisoning policy
//!
//! Every acquisition goes through [`extract_obs::lock_unpoisoned`], which *recovers*
//! a poisoned mutex instead of panicking. Rationale: the handler runs
//! with **no** locks held, so a panicking request cannot corrupt a
//! critical section; the in-lock regions themselves only perform
//! trivially atomic updates (queue push/pop, counter bump, map
//! insert/remove) that are valid at every statement boundary. Poisoning
//! here would only mean "some other worker panicked elsewhere" — and
//! turning that into a cascade of lock panics through `/stats`,
//! admission and shutdown would convert one failed request into a dead
//! daemon. Recovering is strictly better: the data is consistent, and
//! the daemon keeps serving.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use extract_obs::{lock_unpoisoned, RequestObs, Stage, TraceId, TraceRecord};

use crate::event::{arm_reset, bind_reuseaddr, Epoll};
use crate::fault::{FaultAction, FaultPlan};
use crate::http::{
    is_timeout, read_request, write_response, DeadlineStream, HttpError, Request, Response,
};

/// Server tuning knobs: pool and queue sizes, per-client fairness,
/// timeouts, keep-alive reuse, fault injection and tracing. Parked
/// keep-alive connections always ride the one epoll readiness loop
/// ([`crate::event`]); there is no backend to choose.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering admitted requests.
    pub workers: usize,
    /// Admitted requests allowed to wait for a worker; the excess is
    /// shed with `503`.
    pub queue_depth: usize,
    /// Admitted-but-unanswered requests allowed per (canonical) peer IP;
    /// the excess is shed with `429`.
    pub per_client_inflight: usize,
    /// Socket read/write timeout, so a stalled peer can occupy a worker
    /// for at most this long (a mid-request stall is answered `408`).
    pub io_timeout: Duration,
    /// Most requests served on one connection before the server closes
    /// it (`0` = unlimited). Bounds how long one socket can pin parser
    /// state and how long a pipelining client can monopolize reuse; `1`
    /// answers every request `Connection: close`.
    pub max_requests_per_connection: u64,
    /// How long a kept-alive connection may sit parked with no request
    /// before the readiness loop evicts (closes) it.
    pub idle_timeout: Duration,
    /// Deterministic fault injection (see [`crate::fault`]): consulted
    /// once per parsed request, `None` (the default) is a no-op.
    /// Production configs never set it; the `--fault` flag and the
    /// router's integration tests do.
    pub fault: Option<Arc<FaultPlan>>,
    /// How many recent request traces the flight recorder keeps
    /// (dumped by the `/debug/traces` route; see [`extract_obs`]).
    pub trace_capacity: usize,
    /// Requests slower than this end-to-end emit one structured
    /// `key=value` line on stderr with their per-stage breakdown.
    pub slow_request: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            per_client_inflight: 64,
            io_timeout: Duration::from_secs(10),
            max_requests_per_connection: 256,
            idle_timeout: Duration::from_secs(5),
            fault: None,
            trace_capacity: 128,
            slow_request: Duration::from_millis(500),
        }
    }
}

/// The `Retry-After` value (seconds) on every load-shedding refusal
/// (`503` queue-full, `429` per-client cap). Shedding is a transient,
/// fast-moving condition, so the hint is deliberately short: long enough
/// to break a hot retry loop, short enough that a well-behaved client
/// re-offers promptly once the burst passes.
const SHED_RETRY_AFTER_SECS: u32 = 1;

/// How long a worker that just answered a keep-alive request waits for
/// that client's next request before parking the connection and moving
/// on. Long enough to bridge a loopback (or same-rack) turnaround — so a
/// request/response ping-pong client stays on a hot worker — short
/// enough that a quiet client cannot meaningfully pin a worker.
const KEEPALIVE_GRACE: Duration = Duration::from_millis(1);

/// Monotonic counters of everything the server did, readable at any time
/// via [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections the acceptor saw.
    pub accepted: u64,
    /// Requests admitted to the queue (or served inline on a kept-alive
    /// connection). For one-request-per-connection clients this equals
    /// connections admitted.
    pub admitted: u64,
    /// Requests shed with `503` because the queue was full.
    pub shed_queue_full: u64,
    /// Requests shed with `429` because the peer was over its in-flight
    /// cap.
    pub shed_per_client: u64,
    /// Requests answered with `2xx`.
    pub served_ok: u64,
    /// Requests answered with `4xx`/`5xx` by the handler or the parser.
    pub served_error: u64,
    /// Requests served on a reused (kept-alive) connection — the second
    /// and later request on each socket.
    pub reused_requests: u64,
    /// Mid-request read deadlines answered `408` (a partial request and
    /// then silence).
    pub request_timeouts: u64,
    /// Connections closed for idling: parked past
    /// [`ServeConfig::idle_timeout`], or admitted but silent for the full
    /// [`ServeConfig::io_timeout`].
    pub idle_closed: u64,
    /// Connections that died mid-read or mid-write (resets, broken
    /// pipes).
    pub io_errors: u64,
    /// Requests waiting in the queue right now.
    pub queue_len: u64,
    /// Admitted-but-unanswered requests right now (queued + in service).
    pub inflight: u64,
    /// Kept-alive connections parked on the readiness loop right now.
    pub parked: u64,
}

impl ServerStats {
    /// Every request that was refused admission.
    // xlint: allow(L10, "crates/serve/tests/server.rs and crates/serve/tests/keepalive.rs assert exact shedding with it")
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_per_client
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_per_client: AtomicU64,
    served_ok: AtomicU64,
    served_error: AtomicU64,
    reused: AtomicU64,
    request_timeouts: AtomicU64,
    idle_closed: AtomicU64,
    io_errors: AtomicU64,
}

/// One admitted connection with (at least the prefix of) a request to
/// read. The buffered reader travels with the connection so pipelined
/// bytes survive queueing, parking and worker hand-offs.
#[derive(Debug)]
struct Conn {
    reader: BufReader<DeadlineStream>,
    peer: IpAddr,
    /// Requests already answered on this connection.
    served: u64,
    /// When this connection last entered the admission queue; the
    /// worker takes it to charge the wait to the request's `queue`
    /// stage. `None` for inline keep-alive continuation (no wait).
    enqueued_at: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, peer: IpAddr) -> Conn {
        Conn {
            reader: BufReader::new(DeadlineStream { stream, deadline: None }),
            peer,
            served: 0,
            enqueued_at: None,
        }
    }

    fn stream(&self) -> &TcpStream {
        &self.reader.get_ref().stream
    }

    /// Arm the absolute read deadline `window` from now (see
    /// [`DeadlineStream`]: the whole request, not each byte, must land
    /// inside it, so a client dripping one byte per timeout window
    /// cannot pin a worker).
    fn set_read_deadline(&mut self, window: Duration) {
        self.reader.get_mut().deadline = Some(Instant::now() + window);
    }

    /// Surrender the connection for shedding/lingering (drops any
    /// buffered bytes — the connection is closing anyway).
    fn into_stream(self) -> TcpStream {
        self.reader.into_inner().stream
    }
}

/// A parked kept-alive connection waiting for its next request.
#[derive(Debug)]
struct Parked {
    conn: Conn,
    since: Instant,
}

#[derive(Debug)]
struct Parker {
    epoll: Epoll,
    parked: Mutex<HashMap<u64, Parked>>,
    next_token: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<VecDeque<Conn>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Admitted-but-unanswered requests per canonical peer IP (entries
    /// are removed when they reach zero, so the map stays peer-sized).
    inflight: Mutex<HashMap<IpAddr, u64>>,
    parker: Parker,
    /// Live refusal threads (see [`shed`]); bounded by
    /// [`SHED_THREADS_MAX`].
    shed_threads: AtomicU64,
    counters: Counters,
    /// Request observability: stage/total histograms, flight recorder,
    /// slow-request logging. Its internal mutex (`flight`) is terminal
    /// in the lock order — nothing is acquired while it is held.
    obs: RequestObs,
    addr: SocketAddr,
}

/// The admission key for a peer: IPv4-mapped IPv6 addresses
/// (`::ffff:127.0.0.1`) collapse to the IPv4 address they carry, so a
/// client arriving over a dual-stack socket pays the same per-client
/// budget as its IPv4 self instead of bypassing the cap.
fn canonical_peer(ip: IpAddr) -> IpAddr {
    ip.to_canonical()
}

/// A cloneable remote control for a running (or about-to-run) server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is bound to (with the real port even when
    /// bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stop admitting connections and let [`Server::run`] drain and
    /// return. Safe to call from any thread, including a worker mid-
    /// request (the `/shutdown` route does exactly that); idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Acquire (and release) the queue mutex between setting the flag
        // and notifying: a worker that already checked the flag is still
        // holding the mutex until it enters `wait`, so without this the
        // notification could land in that window and be lost forever.
        drop(lock_unpoisoned(&self.shared.queue));
        self.shared.available.notify_all();
        // Wake the blocking `accept` with a throwaway connection; if the
        // acceptor is already gone the connect simply fails. A wildcard
        // bind (0.0.0.0 / ::) is not connectable on every platform —
        // aim the wake-up at loopback on the bound port instead.
        let mut wake = self.shared.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        // xlint: allow(L7, "best-effort wake-up: if the connect fails the acceptor is already gone, which is the goal state")
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(200));
    }

    /// Whether shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The server's request observability: stage/total latency
    /// histograms and the flight recorder, for `/metrics` and
    /// `/debug/traces` handlers.
    pub fn obs(&self) -> &RequestObs {
        &self.shared.obs
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue_full.load(Ordering::Relaxed),
            shed_per_client: c.shed_per_client.load(Ordering::Relaxed),
            served_ok: c.served_ok.load(Ordering::Relaxed),
            served_error: c.served_error.load(Ordering::Relaxed),
            reused_requests: c.reused.load(Ordering::Relaxed),
            request_timeouts: c.request_timeouts.load(Ordering::Relaxed),
            idle_closed: c.idle_closed.load(Ordering::Relaxed),
            io_errors: c.io_errors.load(Ordering::Relaxed),
            queue_len: lock_unpoisoned(&self.shared.queue).len() as u64,
            inflight: lock_unpoisoned(&self.shared.inflight).values().sum(),
            parked: lock_unpoisoned(&self.shared.parker.parked).len() as u64,
        }
    }
}

/// A bound-but-not-yet-running server. [`Server::run`] consumes it and
/// blocks until [`ServerHandle::shutdown`] is called.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// `queue_depth` is clamped to at least 1 — with a 0-depth queue the
    /// admission gate would shed **every** request even against idle
    /// workers, since hand-off always goes through the queue. Fails if
    /// the address cannot be bound or the kernel refuses an epoll
    /// instance for the parking lot.
    pub fn bind<A: ToSocketAddrs>(addr: A, mut config: ServeConfig) -> std::io::Result<Server> {
        config.queue_depth = config.queue_depth.max(1);
        // SO_REUSEADDR so a restarted daemon can rebind its
        // old port past the previous incarnation's TIME_WAIT sockets —
        // shard resurrection must not wait out the kernel.
        let mut listener = None;
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match bind_reuseaddr(candidate) {
                Ok(bound) => {
                    listener = Some(bound);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let listener = match listener {
            Some(listener) => listener,
            None => {
                return Err(last_err.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "address resolved to nothing",
                    )
                }))
            }
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::with_capacity(config.queue_depth)),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            parker: Parker {
                epoll: Epoll::new()?,
                parked: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(0),
            },
            shed_threads: AtomicU64::new(0),
            counters: Counters::default(),
            obs: RequestObs::new(config.trace_capacity, config.slow_request),
            addr: listener.local_addr()?,
        });
        Ok(Server { listener, config, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutdown and stats, usable from other threads and
    /// from inside the handler.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Accept, admit and answer until shutdown, then drain. The calling
    /// thread runs the acceptor; `workers` scoped threads answer
    /// requests and one more runs the readiness loop for parked
    /// keep-alive connections. Every admitted request is answered before
    /// this returns.
    pub fn run<H>(self, handler: H)
    where
        H: Fn(&Request) -> Response + Sync,
    {
        let Server { listener, config, shared } = self;
        let workers = config.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&shared, &config, &handler));
            }
            scope.spawn(|| poller_loop(&shared, &config));
            accept_loop(&listener, &shared, &config);
            // Admission has stopped; wake every waiting worker so the
            // drain-and-exit condition is observed (lock-then-notify, see
            // `ServerHandle::shutdown` for why the mutex matters).
            drop(lock_unpoisoned(&shared.queue));
            shared.available.notify_all();
        });
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, config: &ServeConfig) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(ok) => ok,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Accept failure (aborted handshake, fd exhaustion):
                // count it and back off briefly so a *persistent* error
                // (EMFILE under load) doesn't busy-spin the acceptor.
                shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // Includes the wake-up connection from `shutdown()`.
            return;
        }
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // A socket whose timeouts cannot be set would hand a worker an
        // *unbounded* blocking read — the one thing the serving loop
        // promises never to do. Drop the connection instead of serving
        // it without the safety net.
        if stream.set_read_timeout(Some(config.io_timeout)).is_err()
            || stream.set_write_timeout(Some(config.io_timeout)).is_err()
        {
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // Request/response ping-pong on a kept-alive connection is the
        // worst case for Nagle + delayed-ACK; responses are small and
        // written whole, so just send them.
        // xlint: allow(L7, "Nagle stays on if this fails; a latency tweak, never a correctness signal")
        let _ = stream.set_nodelay(true);
        let peer = canonical_peer(peer.ip());
        admit(shared, config, Conn::new(stream, peer));
    }
}

/// Admit one request-bearing connection through both gates — the
/// per-client cap, then the bounded queue — or shed it. Every request
/// source funnels through here: fresh connections from the acceptor,
/// parked connections that turned readable, and kept-alive connections
/// yielding the worker to queued peers.
fn admit(shared: &Arc<Shared>, config: &ServeConfig, mut conn: Conn) -> bool {
    // Per-client fairness gate (on the canonical peer IP).
    {
        let inflight = lock_unpoisoned(&shared.inflight);
        if inflight.get(&conn.peer).copied().unwrap_or(0) >= config.per_client_inflight as u64 {
            drop(inflight);
            shared.counters.shed_per_client.fetch_add(1, Ordering::Relaxed);
            shed(shared, conn.into_stream(), 429, "per-client in-flight limit reached");
            return false;
        }
    }
    // Admission gate: the queue mutex serializes admission, so the
    // bound is exact — at most `queue_depth` requests wait.
    {
        let mut queue = lock_unpoisoned(&shared.queue);
        if queue.len() >= config.queue_depth {
            drop(queue);
            shared.counters.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            shed(shared, conn.into_stream(), 503, "server over capacity");
            return false;
        }
        *lock_unpoisoned(&shared.inflight).entry(conn.peer).or_insert(0) += 1;
        conn.enqueued_at = Some(Instant::now());
        queue.push_back(conn);
    }
    shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
    shared.available.notify_one();
    true
}

/// Take one per-client in-flight slot for `peer` if the cap allows.
fn acquire_ticket(shared: &Shared, config: &ServeConfig, peer: IpAddr) -> bool {
    let mut inflight = lock_unpoisoned(&shared.inflight);
    let n = inflight.entry(peer).or_insert(0);
    if *n >= config.per_client_inflight as u64 {
        return false;
    }
    *n += 1;
    true
}

/// Release the per-client in-flight slot taken at admission.
fn release_ticket(shared: &Shared, peer: IpAddr) {
    let mut inflight = lock_unpoisoned(&shared.inflight);
    if let Some(n) = inflight.get_mut(&peer) {
        *n -= 1;
        if *n == 0 {
            inflight.remove(&peer);
        }
    }
}

/// Most refusal threads alive at once. Beyond this bound the connection
/// is dropped without a response (it stays counted as shed): under an
/// extreme storm of slow peers, bounded resources beat best-effort
/// politeness.
const SHED_THREADS_MAX: u64 = 64;

/// Refuse `stream` with `status` without occupying a worker — and
/// without occupying the *acceptor*: the refusal runs on a short-lived
/// detached thread (lifetime bounded by the short read/write timeouts,
/// population bounded by [`SHED_THREADS_MAX`]), so the accept path stays
/// O(1) even when a storm of slow peers is being shed.
///
/// The request is never parsed on this path, so the socket may hold
/// unread bytes — closing it like that turns into a TCP `RST` that can
/// destroy the refusal before the client reads it. The thread drains
/// what the peer sent, answers, then does a bounded lingering close: the
/// client reliably sees the `503`/`429`, never a reset.
fn shed(shared: &Arc<Shared>, mut stream: TcpStream, status: u16, message: &'static str) {
    if shared.shed_threads.fetch_add(1, Ordering::AcqRel) >= SHED_THREADS_MAX {
        shared.shed_threads.fetch_sub(1, Ordering::AcqRel);
        return; // beyond the bound: drop, already counted as shed
    }
    let on_err = Arc::clone(shared);
    let shared = Arc::clone(shared);
    let refusal = move || {
        use std::io::Read as _;
        // xlint: allow(L7, "refusal path: if the mode flip fails the write below fails too and is counted there")
        let _ = stream.set_nonblocking(false); // parked conns may arrive non-blocking
        // xlint: allow(L7, "refusal path: the subsequent write_response failure is the counted signal")
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        // xlint: allow(L7, "refusal path: the subsequent write_response failure is the counted signal")
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let mut scratch = [0u8; 4096];
        // xlint: allow(L7, "courtesy drain of a doomed connection; the refusal write below carries the outcome")
        let _ = stream.read(&mut scratch);
        let refusal =
            Response::error(status, message).with_retry_after(SHED_RETRY_AFTER_SECS);
        if write_response(&mut stream, &refusal, false).is_err() {
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        linger_close(stream);
        shared.shed_threads.fetch_sub(1, Ordering::AcqRel);
    };
    if std::thread::Builder::new().name("shed".into()).spawn(refusal).is_err() {
        // Spawn failure drops the closure (and the stream) unrun.
        on_err.shed_threads.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Bounded lingering close (≤ 4 × 50 ms): send `FIN`, then keep
/// consuming until the peer finishes and closes, so unread request bytes
/// can't turn the close into an `RST` that destroys the response in
/// flight.
fn linger_close(mut stream: TcpStream) {
    use std::io::Read as _;
    // xlint: allow(L7, "close path: on failure the bounded drain loop below exits on the first error anyway")
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // xlint: allow(L7, "close path: a failed FIN means the peer is gone, which is the goal state")
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    for _ in 0..4 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop<H>(shared: &Arc<Shared>, config: &ServeConfig, handler: &H)
where
    H: Fn(&Request) -> Response + Sync,
{
    loop {
        let conn = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else {
            return; // shutdown requested and the queue is drained
        };
        handle_conn(shared, config, conn, handler);
    }
}

/// What to do with a connection after one request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// Plain close: the socket holds no unread bytes.
    Close,
    /// Close, but drain first — unread bytes would turn the close into
    /// an `RST` that destroys the response (see [`linger_close`]).
    CloseLinger,
    /// The next request is already arriving and no one is queued: serve
    /// it on this worker without a queue round-trip.
    Continue,
    /// The next request is arriving but other work is waiting: yield the
    /// worker and send the connection back through admission.
    Requeue,
    /// Kept alive but idle: park on the readiness loop.
    Park,
}

/// Serve requests from one admitted connection. The worker holds one
/// per-client in-flight ticket on entry (taken at admission) and
/// releases it after each answered request; inline continuation
/// re-acquires it so the per-client cap stays exact per request.
fn handle_conn<H>(shared: &Arc<Shared>, config: &ServeConfig, mut conn: Conn, handler: &H)
where
    H: Fn(&Request) -> Response + Sync,
{
    loop {
        let after = serve_one(shared, config, &mut conn, handler);
        release_ticket(shared, conn.peer);
        match after {
            After::Close => return,
            After::CloseLinger => {
                linger_close(conn.into_stream());
                return;
            }
            After::Continue => {
                if !acquire_ticket(shared, config, conn.peer) {
                    shared.counters.shed_per_client.fetch_add(1, Ordering::Relaxed);
                    let refusal = Response::error(429, "per-client in-flight limit reached")
                        .with_retry_after(SHED_RETRY_AFTER_SECS);
                    if write_response(&mut conn.stream(), &refusal, false).is_err() {
                        shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    linger_close(conn.into_stream());
                    return;
                }
                shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
            }
            After::Requeue => {
                admit(shared, config, conn);
                return;
            }
            After::Park => {
                park(shared, conn);
                return;
            }
        }
    }
}

/// Read, handle and answer one request on `conn`; decide what happens to
/// the connection next.
fn serve_one<H>(shared: &Shared, config: &ServeConfig, conn: &mut Conn, handler: &H) -> After
where
    H: Fn(&Request) -> Response + Sync,
{
    let started = Instant::now();
    let queue_ns = match conn.enqueued_at.take() {
        Some(enqueued) => extract_obs::elapsed_ns(enqueued),
        None => 0,
    };
    // The whole request must arrive within `io_timeout` of this worker
    // picking the connection up — an absolute deadline, so a client
    // dripping one byte per timeout window cannot pin the worker.
    conn.set_read_deadline(config.io_timeout);
    let mut request = match read_request(&mut conn.reader) {
        Ok(request) => request,
        Err(err) => return failed_request(shared, conn, err),
    };
    let parse_ns = extract_obs::elapsed_ns(started);
    // Adopt the client's trace ID or mint one; the response echoes the
    // header only for traced callers (the router), so untraced clients
    // see byte-identical responses.
    let client_traced = request.trace_id.is_some();
    let trace = request.trace_id.unwrap_or_else(TraceId::mint);
    request.trace_id = Some(trace);
    conn.served += 1;
    if conn.served > 1 {
        shared.counters.reused.fetch_add(1, Ordering::Relaxed);
    }
    let keep_alive = request.keep_alive
        && (config.max_requests_per_connection == 0
            || conn.served < config.max_requests_per_connection);
    // Fault injection (tests and the smoke harness only; `fault` is
    // `None` in production configs). The plan is consulted after parsing
    // — so rules can target routes — and before the handler, so an
    // injected failure is indistinguishable on the wire from a real one.
    let mut injected = None;
    if let Some(plan) = config.fault.as_deref() {
        match plan.decide(&request.path) {
            None => {}
            Some(FaultAction::Stall(pause)) => std::thread::sleep(pause),
            Some(FaultAction::Reset) => {
                // An abrupt RST mid-exchange, as if the process died:
                // arm linger-0 and let the normal close deliver it.
                arm_reset(conn.stream());
                return After::Close;
            }
            Some(FaultAction::Status(code)) => {
                injected = Some(Response::error(code, "injected fault"));
            }
            Some(FaultAction::Exit(code)) => std::process::exit(code),
        }
    }
    // Capture the enable gate once so begin/take stay paired even if it
    // flips mid-request; the handler's `time_stage` calls land in this
    // thread's accumulator.
    let obs_enabled = extract_obs::is_enabled();
    if obs_enabled {
        extract_obs::trace_begin();
    }
    let mut response = match injected {
        Some(response) => response,
        None => handler(&request),
    };
    if client_traced {
        response.trace_id = Some(trace);
    }
    // The shutdown check comes *after* the handler: a `/shutdown` route
    // sets the flag mid-request and its own response must already say
    // `Connection: close`.
    let keep_alive = keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    let class = if (200..300).contains(&response.status) {
        &shared.counters.served_ok
    } else {
        &shared.counters.served_error
    };
    let write_started = Instant::now();
    let write_ok = write_response(&mut conn.stream(), &response, keep_alive).is_ok();
    if obs_enabled {
        let mut stage_ns = extract_obs::trace_take();
        for (stage, ns) in [
            (Stage::Parse, parse_ns),
            (Stage::Queue, queue_ns),
            (Stage::Write, extract_obs::elapsed_ns(write_started)),
        ] {
            if let Some(slot) = stage_ns.get_mut(stage.index()) {
                *slot = ns;
            }
        }
        shared.obs.observe(TraceRecord {
            id: trace,
            seq: 0, // assigned by the flight recorder
            route: route_tag(&request.path),
            status: response.status,
            stage_ns,
            total_ns: extract_obs::elapsed_ns(started),
        });
    }
    if !write_ok {
        shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        return After::Close;
    }
    class.fetch_add(1, Ordering::Relaxed);
    if !keep_alive {
        return if conn.reader.buffer().is_empty() { After::Close } else { After::CloseLinger };
    }
    if !conn.reader.buffer().is_empty() {
        // A pipelined next request is already buffered.
        return continue_or_requeue(shared);
    }
    // Grace probe: give the client one beat to send its next request
    // before this worker surrenders the connection to the parking lot.
    conn.set_read_deadline(KEEPALIVE_GRACE);
    let probed = conn.reader.fill_buf().map(<[u8]>::len);
    match probed {
        Ok(0) => After::Close, // clean EOF: the client is done
        Ok(_) => continue_or_requeue(shared),
        Err(e) if is_timeout(&e) => After::Park,
        Err(_) => {
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            After::Close
        }
    }
}

/// The bounded route label a trace carries: known routes by name,
/// everything else pooled as `other` so the label set (and the metric
/// cardinality downstream) cannot be grown by request spam.
fn route_tag(path: &str) -> &'static str {
    match path {
        "/search" => "/search",
        "/stats" => "/stats",
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/debug/traces" => "/debug/traces",
        "/shutdown" => "/shutdown",
        _ => "other",
    }
}

/// Serve the next request inline only while nobody else is waiting;
/// otherwise the connection yields and re-enters admission.
fn continue_or_requeue(shared: &Shared) -> After {
    if lock_unpoisoned(&shared.queue).is_empty() {
        After::Continue
    } else {
        After::Requeue
    }
}

/// Answer (when an answer is owed) and classify a request that failed to
/// parse.
fn failed_request(shared: &Shared, conn: &mut Conn, err: HttpError) -> After {
    match err {
        // A peer that connected and closed without a byte (e.g. a TCP
        // liveness probe) — or a kept-alive client hanging up between
        // requests — is routine, not an i/o failure.
        HttpError::ClosedEarly => After::Close,
        // Admitted, then silent for the whole read deadline: close
        // without a response, like an eviction from the parking lot.
        HttpError::IdleTimeout => {
            shared.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
            After::Close
        }
        // A partial request and then silence: answer 408 so the client
        // knows the request was *not* processed, then close. Without
        // this the stall would pin the worker and end in a silent drop.
        HttpError::Stalled => {
            shared.counters.request_timeouts.fetch_add(1, Ordering::Relaxed);
            answer_error(shared, conn, 408, err.reason());
            After::CloseLinger
        }
        HttpError::Io(_) => {
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            After::Close
        }
        // Malformed / over-limit / unsupported framing: answer the 4xx/
        // 5xx and close — parser state is not trustworthy past this
        // point, so the connection is never reused.
        HttpError::Malformed(_) | HttpError::TooLarge(..) | HttpError::Unsupported(_) => {
            let status = err.status().unwrap_or(400);
            answer_error(shared, conn, status, err.reason());
            After::CloseLinger
        }
    }
}

fn answer_error(shared: &Shared, conn: &mut Conn, status: u16, reason: &str) {
    if write_response(&mut conn.stream(), &Response::error(status, reason), false).is_ok() {
        shared.counters.served_error.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Park an idle kept-alive connection on the readiness loop.
fn park(shared: &Shared, conn: Conn) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return; // shutting down: drop (close) instead of parking
    }
    let token = shared.parker.next_token.fetch_add(1, Ordering::Relaxed);
    {
        let mut parked = lock_unpoisoned(&shared.parker.parked);
        // Registration happens while the entry is already in the map
        // (and under the lock), so a readiness event can never race a
        // token the poller cannot find. The token is fresh, so the
        // entry is always the one just inserted.
        let slot = parked.entry(token).or_insert(Parked { conn, since: Instant::now() });
        if shared.parker.epoll.register(slot.conn.stream(), token).is_err() {
            parked.remove(&token);
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    // Shutdown race: if the flag was set while we were inserting, the
    // poller may already have swept the lot — take ours back out so the
    // socket closes now instead of leaking past the drain.
    if shared.shutdown.load(Ordering::SeqCst) {
        if let Some(p) = lock_unpoisoned(&shared.parker.parked).remove(&token) {
            shared.parker.epoll.deregister(p.conn.stream());
        }
    }
}

/// The readiness loop: waits for parked connections to turn readable and
/// feeds them back through admission; evicts the ones idle past the
/// deadline; closes the whole lot on shutdown.
fn poller_loop(shared: &Arc<Shared>, config: &ServeConfig) {
    // The tick bounds shutdown latency and idle-eviction granularity.
    let tick = (config.idle_timeout / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    loop {
        // A failed wait is an empty batch: every wakeup is advisory, and
        // the sweeps below re-check shared state anyway.
        let ready = shared.parker.epoll.wait(tick).unwrap_or_default();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Parked connections have no request in flight: close them.
            let swept: Vec<Parked> = {
                let mut parked = lock_unpoisoned(&shared.parker.parked);
                parked.drain().map(|(_, p)| p).collect()
            };
            for p in &swept {
                shared.parker.epoll.deregister(p.conn.stream());
            }
            return;
        }
        for token in ready {
            let Some(p) = lock_unpoisoned(&shared.parker.parked).remove(&token)
            else {
                continue;
            };
            shared.parker.epoll.deregister(p.conn.stream());
            // A parked connection whose readability is just the peer's
            // FIN is a corpse: close it here instead of letting a mass
            // disconnect flood the admission queue and crowd out live
            // requests. (The socket is readable, so the peek cannot
            // block.)
            let mut probe = [0u8; 1];
            if matches!(p.conn.stream().peek(&mut probe), Ok(0)) {
                continue; // drop closes it
            }
            // Back through the gates like any other request — this is
            // what keeps 503/429 honest per request, not per connection.
            admit(shared, config, p.conn);
        }
        // Idle sweep: evict connections parked past the deadline.
        let now = Instant::now();
        let evicted: Vec<Parked> = {
            let mut parked = lock_unpoisoned(&shared.parker.parked);
            let expired: Vec<u64> = parked
                .iter()
                .filter(|(_, p)| now.duration_since(p.since) >= config.idle_timeout)
                .map(|(token, _)| *token)
                .collect();
            expired.into_iter().filter_map(|token| parked.remove(&token)).collect()
        };
        for p in &evicted {
            shared.parker.epoll.deregister(p.conn.stream());
            shared.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_client_key_collapses_ipv4_mapped_ipv6() {
        let mapped: IpAddr = "::ffff:127.0.0.1".parse().unwrap();
        let plain: IpAddr = "127.0.0.1".parse().unwrap();
        assert_eq!(canonical_peer(mapped), plain, "mapped peers must share the budget");
        assert_eq!(canonical_peer(plain), plain);
        // Real IPv6 peers keep their own identity.
        let v6: IpAddr = "2001:db8::1".parse().unwrap();
        assert_eq!(canonical_peer(v6), v6);
        let loopback6: IpAddr = "::1".parse().unwrap();
        assert_eq!(canonical_peer(loopback6), loopback6);
    }
}
