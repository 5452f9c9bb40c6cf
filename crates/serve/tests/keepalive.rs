//! Deterministic keep-alive tests: connection reuse, pipelining,
//! `Connection: close` mid-stream, idle eviction, reuse caps, the
//! stalled-client `408`, and overload shedding that stays exact when
//! connections are reused.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use extract_serve::prelude::*;
use extract_serve::testing::{fetch, DrainOnDrop, Gate, KeepAliveClient, ReleaseOnDrop};

/// Block until `predicate(stats)` holds (10 s deadline).
fn await_stats(handle: &ServerHandle, what: &str, predicate: impl Fn(&ServerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if predicate(&handle.stats()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {:?}", handle.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn echo_handler(gate: &Gate) -> impl Fn(&Request) -> Response + Sync + '_ {
    move |req: &Request| {
        if req.path == "/block" {
            gate.wait_inside();
        }
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("path");
        w.str(&req.path);
        w.key("q");
        w.str(req.param("q").unwrap_or(""));
        w.obj_end();
        Response::json(200, w.finish())
    }
}

/// One socket, many sequential requests: every answer byte-identical to
/// a fresh-connection answer, and the counters prove the reuse.
#[test]
fn sequential_requests_reuse_one_connection() {
    let config = ServeConfig { workers: 2, queue_depth: 8, ..Default::default() };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        let targets: Vec<String> =
            (0..5).map(|i| format!("/search?q=page+{i}&k={}", i + 1)).collect();

        let mut client = KeepAliveClient::connect(addr);
        let mut reused_bodies = Vec::new();
        for target in &targets {
            let response = client.request("GET", target);
            assert_eq!(response.status, 200, "{target}");
            assert!(response.keep_alive, "server must offer keep-alive: {target}");
            reused_bodies.push(response.body);
        }
        await_stats(&handle, "reuse counted", |s| s.served_ok == 5);
        let stats = handle.stats();
        assert_eq!(stats.accepted, 1, "one socket for all requests: {stats:?}");
        assert_eq!(stats.admitted, 5, "every request re-enters admission: {stats:?}");
        assert_eq!(stats.reused_requests, 4, "{stats:?}");
        assert_eq!(stats.shed_total(), 0, "{stats:?}");

        // Fresh-connection answers must be byte-identical.
        for (target, reused) in targets.iter().zip(&reused_bodies) {
            let (status, fresh) = fetch(addr, "GET", target);
            assert_eq!(status, 200);
            assert_eq!(&fresh, reused, "keep-alive answer must match fresh answer: {target}");
        }
        handle.shutdown();
    });
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        // All three requests land in one write before any response is
        // read; the answers must come back in request order.
        let mut client = KeepAliveClient::connect(addr);
        client
            .stream()
            .write_all(
                b"GET /a?q=1 HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /b?q=2 HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /c?q=3 HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            .unwrap();
        for (path, q) in [("/a", "1"), ("/b", "2"), ("/c", "3")] {
            let response = client.read_response();
            assert_eq!(response.status, 200);
            assert_eq!(response.body, format!(r#"{{"path":"{path}","q":"{q}"}}"#));
        }
        await_stats(&handle, "pipeline served", |s| s.served_ok == 3);
        let stats = handle.stats();
        assert_eq!(stats.accepted, 1, "{stats:?}");
        assert_eq!(stats.reused_requests, 2, "{stats:?}");
        handle.shutdown();
    });
}

#[test]
fn connection_close_is_honored_mid_stream() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        let mut client = KeepAliveClient::connect(addr);
        let first = client.request("GET", "/one");
        assert_eq!(first.status, 200);
        assert!(first.keep_alive, "first response keeps the connection");

        client.send("GET", "/two", &["Connection: close"]);
        let second = client.read_response();
        assert_eq!(second.status, 200);
        assert!(!second.keep_alive, "close request must be answered with close");
        assert!(client.at_eof(), "server must hang up after Connection: close");
        handle.shutdown();
    });
}

#[test]
fn keep_alive_can_be_disabled_server_side() {
    // One request a connection: every response closes, however the
    // client asks.
    let config = ServeConfig { max_requests_per_connection: 1, ..Default::default() };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));
        for _ in 0..2 {
            let mut client = KeepAliveClient::connect(addr);
            client.send("GET", "/x", &["Connection: keep-alive"]);
            let response = client.read_response();
            assert_eq!(response.status, 200);
            assert!(!response.keep_alive, "keep-alive off: every response closes");
            assert!(client.at_eof());
        }
        let stats = handle.stats();
        assert_eq!(stats.reused_requests, 0, "{stats:?}");
        handle.shutdown();
    });
}

#[test]
fn idle_connections_are_evicted_after_the_deadline() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        let mut client = KeepAliveClient::connect(addr);
        let response = client.request("GET", "/x");
        assert!(response.keep_alive);
        await_stats(&handle, "connection parked", |s| s.parked == 1);

        // Stay silent past the idle deadline: the readiness loop must
        // close the connection (observed as EOF on the client side).
        assert!(client.at_eof(), "idle connection must be evicted");
        let stats = handle.stats();
        assert_eq!(stats.idle_closed, 1, "{stats:?}");
        assert_eq!(stats.parked, 0, "{stats:?}");
        assert_eq!(stats.io_errors, 0, "eviction is not an i/o error: {stats:?}");
        handle.shutdown();
    });
}

#[test]
fn max_requests_per_connection_caps_reuse() {
    let config = ServeConfig { max_requests_per_connection: 2, ..Default::default() };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));
        let mut client = KeepAliveClient::connect(addr);
        let first = client.request("GET", "/1");
        assert!(first.keep_alive, "request 1 of 2 keeps the connection");
        let second = client.request("GET", "/2");
        assert!(!second.keep_alive, "the cap closes the connection on its last request");
        assert!(client.at_eof());
        handle.shutdown();
    });
}

#[test]
fn stalled_partial_request_is_answered_408_not_held_forever() {
    let config = ServeConfig {
        io_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        // A partial request line, then silence.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /par").unwrap();
        let start = Instant::now();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 408 "), "stall must be answered 408: {raw:?}");
        assert!(raw.contains("Connection: close\r\n"), "{raw:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "408 must arrive at the read deadline, not someday"
        );

        // The drain accounting survives: the stalled request is a
        // served error + a request timeout, and nothing stays in flight.
        await_stats(&handle, "stall drained", |s| {
            s.request_timeouts == 1 && s.served_error == 1 && s.inflight == 0
        });
        assert_eq!(handle.stats().io_errors, 0, "{:?}", handle.stats());

        // A connection that goes silent *before* its first byte is an
        // idle close, not a 408 and not an i/o error.
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(idle.read(&mut buf).unwrap(), 0, "idle conn closes without a response");
        await_stats(&handle, "idle close counted", |s| s.idle_closed == 1 && s.inflight == 0);
        handle.shutdown();
    });
}

#[test]
fn drip_fed_request_cannot_outlive_the_read_deadline() {
    // Slowloris guard: one byte per interval keeps every *per-read*
    // timeout happy forever; the deadline must be absolute per request.
    let config = ServeConfig {
        io_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    gate.release();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(echo_handler(&gate)));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let drip = scope.spawn(move || {
            // Feed bytes well inside the 300 ms per-read window, for far
            // longer than the request deadline.
            for byte in b"GET /sloooooooooooooooooooooooooooooow".iter() {
                if writer.write_all(&[*byte]).is_err() {
                    break; // server closed on us — exactly the point
                }
                std::thread::sleep(Duration::from_millis(75));
            }
        });
        let start = Instant::now();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let elapsed = start.elapsed();
        assert!(raw.starts_with("HTTP/1.1 408 "), "drip-fed stall must 408: {raw:?}");
        assert!(
            elapsed < Duration::from_secs(2),
            "the deadline is absolute, not per byte: {elapsed:?}"
        );
        drip.join().unwrap();
        await_stats(&handle, "drip drained", |s| s.request_timeouts == 1 && s.inflight == 0);
        handle.shutdown();
    });
}

#[test]
fn overload_shed_stays_exact_with_reused_connections() {
    const QUEUE_DEPTH: usize = 3;
    const EXCESS: usize = 4;
    let config = ServeConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        per_client_inflight: 1024, // loopback is one IP; fairness tested separately
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let gate = Gate::default();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let _open = ReleaseOnDrop(&gate);
        scope.spawn(|| server.run(echo_handler(&gate)));

        // A kept-alive connection serves a request and goes idle…
        let mut veteran = KeepAliveClient::connect(addr);
        assert!(veteran.request("GET", "/warm").keep_alive);

        // …then its *next* request (via the readiness loop) occupies the
        // only worker.
        let blocked_veteran = scope.spawn(move || {
            let response = veteran.request("GET", "/block");
            (response, veteran)
        });
        gate.await_entered(1);

        // Fill the queue with kept-alive clients' first requests.
        let queued: Vec<_> = (0..QUEUE_DEPTH)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = KeepAliveClient::connect(addr);
                    let response = client.request("GET", "/block");
                    (response, client)
                })
            })
            .collect();
        await_stats(&handle, "full queue", |s| s.queue_len == QUEUE_DEPTH as u64);

        // Every further request is the excess: shed, immediately, 503 —
        // reuse must not loosen the bound.
        for i in 0..EXCESS {
            let start = Instant::now();
            let (status, body) = fetch(addr, "GET", "/block");
            assert_eq!(status, 503, "excess request {i}");
            assert_eq!(body, r#"{"error":"server over capacity"}"#);
            assert!(start.elapsed() < Duration::from_secs(2), "shedding must not wait");
        }
        let stats = handle.stats();
        assert_eq!(stats.shed_queue_full, EXCESS as u64, "exactly the excess: {stats:?}");
        assert_eq!(stats.admitted, 2 + QUEUE_DEPTH as u64, "warm + block + queue: {stats:?}");

        // Release: every admitted request completes, and the veteran's
        // connection is still reusable after the storm.
        gate.release();
        let (response, mut veteran) = blocked_veteran.join().unwrap();
        assert_eq!(response.status, 200);
        assert!(response.keep_alive, "the veteran survives the overload");
        for client in queued {
            let (response, _conn) = client.join().unwrap();
            assert_eq!(response.status, 200, "admitted request must be served");
        }
        // Only once the queue has drained is there room again — a reused
        // connection re-enters admission per request, so asking earlier
        // would (correctly) be shed like any fresh arrival.
        await_stats(&handle, "storm drained", |s| {
            s.served_ok == 2 + QUEUE_DEPTH as u64 && s.queue_len == 0
        });
        let after = veteran.request("GET", "/after");
        assert_eq!(
            after.status,
            200,
            "reuse after overload: {after:?} stats={:?}",
            handle.stats()
        );
        handle.shutdown();
    });
}
