//! A pool of keep-alive connections to one shard daemon.
//!
//! [`HttpClient`](extract_serve::HttpClient) is deliberately
//! single-threaded (one socket, one request at a time); the router
//! serves many concurrent requests, each scattering to every shard, so
//! each shard gets a pool: check a client out, run the exchange, put it
//! back if its connection survived. A client whose request failed is
//! *dropped*, not returned — its socket is in an unknown framing state
//! and the next checkout simply dials fresh (with the client's own
//! bounded, jittered backoff). The scatter path holds its checked-out
//! clients across the two halves of an exchange (send to every shard,
//! then receive from each), so `check_out` and `check_in` are the pool's
//! real interface inside the crate and [`request`](ClientPool::request)
//! is the three steps back to back.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

use extract_obs::lock_unpoisoned;
use extract_serve::{ClientConfig, ClientError, HttpClient, WireResponse};

/// A bounded pool of [`HttpClient`]s for one shard address.
#[derive(Debug)]
pub struct ClientPool {
    addr: SocketAddr,
    config: ClientConfig,
    max_idle: usize,
    conns: Mutex<Vec<HttpClient>>,
}

impl ClientPool {
    /// An empty pool for `addr`; connections are dialed on first use.
    pub fn new(addr: SocketAddr, config: ClientConfig, max_idle: usize) -> ClientPool {
        ClientPool { addr, config, max_idle: max_idle.max(1), conns: Mutex::new(Vec::new()) }
    }

    /// The shard address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle kept-alive clients right now.
    pub fn idle(&self) -> usize {
        lock_unpoisoned(&self.conns).len()
    }

    /// Drop every idle connection (the next request dials fresh).
    pub fn clear(&self) {
        lock_unpoisoned(&self.conns).clear();
    }

    /// Take a client out of the pool — or build a fresh one — *without*
    /// touching its socket. The `conns` guard lives exactly as long as
    /// the `Vec::pop`: the caller receives an owned handle and performs
    /// all I/O lock-free, so a slow shard can never convoy the other
    /// checkouts behind a socket operation (L6 enforces this shape).
    pub(crate) fn check_out(&self) -> HttpClient {
        let pooled = lock_unpoisoned(&self.conns).pop();
        pooled.unwrap_or_else(|| HttpClient::new(self.addr, self.config.clone()))
    }

    /// Return a client whose exchange succeeded. Re-locks `conns` only
    /// after all I/O is done; beyond `max_idle` the client is dropped
    /// (its socket closes) rather than pooled.
    pub(crate) fn check_in(&self, client: HttpClient) {
        let mut conns = lock_unpoisoned(&self.conns);
        if conns.len() < self.max_idle {
            conns.push(client);
        }
    }

    /// One request/response exchange against the shard under an absolute
    /// `deadline`, riding a pooled connection when one is idle. On
    /// success the connection returns to the pool (up to `max_idle`); on
    /// failure it is dropped. The exchange itself runs between
    /// [`check_out`](Self::check_out) and [`check_in`](Self::check_in),
    /// with no pool lock held.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        deadline: Instant,
    ) -> Result<WireResponse, ClientError> {
        self.request_with(method, target, &[], deadline)
    }

    /// [`request`](Self::request) with extra raw header lines (no CRLF),
    /// e.g. `X-Trace-Id: …` so a scattered shard request carries its
    /// client request's trace ID.
    pub fn request_with(
        &self,
        method: &str,
        target: &str,
        extra_headers: &[&str],
        deadline: Instant,
    ) -> Result<WireResponse, ClientError> {
        let mut client = self.check_out();
        let result = client.request_with(method, target, extra_headers, deadline);
        if result.is_ok() {
            self.check_in(client);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::time::Duration;

    /// A keep-alive server answering every request with `body` until the
    /// listener drops.
    fn keepalive_server(body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    loop {
                        let mut line = String::new();
                        let mut saw_any = false;
                        loop {
                            line.clear();
                            match reader.read_line(&mut line) {
                                Ok(0) => return,
                                Ok(_) if line == "\r\n" || line == "\n" => break,
                                Ok(_) => saw_any = true,
                                Err(_) => return,
                            }
                        }
                        if !saw_any {
                            return;
                        }
                        let response = format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                            body.len()
                        );
                        if stream.write_all(response.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn pool_reuses_connections_and_bounds_idle() {
        let addr = keepalive_server("{}");
        let pool = ClientPool::new(addr, ClientConfig::default(), 2);
        assert_eq!(pool.idle(), 0);
        // Sequential requests ride one pooled connection.
        for _ in 0..5 {
            let response = pool.request("GET", "/x", deadline()).expect("response");
            assert_eq!(response.status, 200);
        }
        assert_eq!(pool.idle(), 1, "one kept-alive client serves a sequential load");
        // Concurrent checkouts grow the pool, but never past max_idle.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| pool.request("GET", "/y", deadline()).map(|r| r.status)))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("join").expect("response"), 200);
            }
        });
        assert!(pool.idle() <= 2, "idle pool respects max_idle, got {}", pool.idle());
        pool.clear();
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn failed_requests_do_not_return_connections_to_the_pool() {
        // Nothing listening: every request fails, the pool stays empty.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let config = ClientConfig {
            connect_attempts: 1,
            connect_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let pool = ClientPool::new(addr, config, 4);
        assert!(pool.request("GET", "/x", deadline()).is_err());
        assert_eq!(pool.idle(), 0, "a failed client must be dropped, not pooled");
    }
}
