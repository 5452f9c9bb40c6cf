//! Loopback integration tests for the `extract-serve` daemon wired to the
//! search application the `serve` binary runs, [`LiveSearchApp`].
//!
//! The acceptance criteria of the serving PR, end to end over real
//! sockets:
//!
//! * concurrent clients receive `/search` pages **byte-identical** to
//!   what [`search_body`] renders for the same `(q, k, offset)` over a
//!   separately built corpus with caching off — each case a
//!   cached-vs-uncached differential;
//! * with queue depth Q and `2×Q` concurrent requests against a gated
//!   single worker, **exactly** the excess beyond `workers + Q` is shed
//!   with `503` — never a hang, never a dropped connection;
//! * shutdown drains: every admitted request is answered first;
//! * every body on the wire, snippets included, is valid JSON.

use std::time::{Duration, Instant};

use extract::prelude::*;
use extract::serve::{search_body, SearchAppConfig};
use extract_datagen::corpus::CorpusConfig;
use extract_serve::json::{self, Value};
use extract_serve::testing::{fetch, DrainOnDrop, Gate, KeepAliveClient, ReleaseOnDrop};
use extract_serve::{ServeConfig, Server};

fn test_corpus() -> Corpus {
    let config = CorpusConfig { documents: 6, target_nodes_per_doc: 500, seed: 0x5EED };
    let mut builder = CorpusBuilder::new();
    for (name, doc) in config.documents() {
        builder.add_parsed(&name, doc);
    }
    builder.finish()
}

fn app_config() -> SearchAppConfig {
    SearchAppConfig { default_k: 5, max_k: 50, ..Default::default() }
}

/// The daemon's app over its own copy of the test corpus, caches on.
fn cached_app() -> LiveSearchApp {
    LiveSearchApp::new(LiveCorpus::from_corpus(test_corpus()), app_config(), 256)
}

/// The expected `/search` bodies: the one wire producer over a separately
/// built corpus, serially, caches off.
fn reference(cases: &[(String, usize, usize)]) -> Vec<String> {
    let corpus = test_corpus();
    let session = QuerySession::from_corpus(&corpus, 0);
    let config = app_config().snippet;
    cases.iter().map(|(q, k, o)| search_body(&session, &config, q, *k, *o)).collect()
}

/// Percent-encode a query value (only what the tests need).
fn encode(q: &str) -> String {
    q.replace(' ', "+")
}

#[test]
fn concurrent_pages_are_byte_identical_to_direct_answers() {
    // (query, k, offset) mix: broad, narrow, paginated, missing.
    let cases: Vec<(String, usize, usize)> = CorpusConfig::query_mix()
        .into_iter()
        .take(6)
        .enumerate()
        .flat_map(|(i, q)| {
            vec![(q.to_string(), 3 + i % 4, 0), (q.to_string(), 2, 1), (q.to_string(), 50, 0)]
        })
        .chain([("zzz-no-such-token".to_string(), 5, 0)])
        .collect();
    let expected = reference(&cases);

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig { workers: 3, queue_depth: 32, per_client_inflight: 64, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let mut app = cached_app();
    app.attach_server(handle.clone());

    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(|request| app.handle(request)));

        // Fire all cases concurrently, twice (the second pass crosses the
        // now-warm page cache — bytes must not change).
        for pass in 0..2 {
            let clients: Vec<_> = cases
                .iter()
                .map(|(q, k, o)| {
                    let target = format!("/search?q={}&k={k}&offset={o}", encode(q));
                    scope.spawn(move || fetch(addr, "GET", &target))
                })
                .collect();
            for ((client, want), (q, k, o)) in clients.into_iter().zip(&expected).zip(&cases) {
                let (status, body) = client.join().unwrap();
                assert_eq!(status, 200, "q={q} k={k} offset={o}");
                assert_eq!(
                    &body, want,
                    "pass {pass}: served page must be byte-identical (q={q} k={k} offset={o})"
                );
                json::parse(&body).expect("valid JSON on the wire");
            }
        }

        // /stats and /healthz round out the protocol.
        let (status, body) = fetch(addr, "GET", "/stats");
        assert_eq!(status, 200);
        let stats = json::parse(&body).expect("stats JSON");
        let server_section = stats.get("server").expect("server section");
        assert!(
            server_section.get("served_ok").and_then(Value::as_u64).unwrap()
                >= 2 * cases.len() as u64
        );
        assert_eq!(server_section.get("shed_queue_full").and_then(Value::as_u64), Some(0));
        assert_eq!(stats.get("corpus").unwrap().get("documents").and_then(Value::as_u64), Some(6));
        assert_eq!(fetch(addr, "GET", "/healthz").0, 200);

        // Graceful shutdown over the wire.
        let (status, body) = fetch(addr, "POST", "/shutdown");
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"draining":true}"#);
    });
    assert!(handle.is_shutting_down());
}

#[test]
fn keep_alive_pages_are_byte_identical_to_fresh_answers() {
    let cases: Vec<(String, usize, usize)> = CorpusConfig::query_mix()
        .into_iter()
        .take(5)
        .enumerate()
        .flat_map(|(i, q)| vec![(q.to_string(), 2 + i % 3, 0), (q.to_string(), 2, 1)])
        .collect();
    let expected = reference(&cases);

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let mut app = cached_app();
    app.attach_server(handle.clone());

    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        scope.spawn(|| server.run(|request| app.handle(request)));

        // Every page over ONE socket, sequentially — each byte-identical
        // to the serial reference AND to a fresh-connection fetch.
        let mut client = KeepAliveClient::connect(addr);
        for ((q, k, o), want) in cases.iter().zip(&expected) {
            let target = format!("/search?q={}&k={k}&offset={o}", encode(q));
            let response = client.request("GET", &target);
            assert_eq!(response.status, 200, "q={q} k={k} offset={o}");
            assert!(response.keep_alive, "connection must stay alive: {target}");
            assert_eq!(&response.body, want, "kept-alive page must match serial reference");
            let (fresh_status, fresh_body) = fetch(addr, "GET", &target);
            assert_eq!(fresh_status, 200);
            assert_eq!(fresh_body, response.body, "fresh and reused answers must agree");
        }

        // The server's own counters prove the reuse, and /stats exposes
        // them on the wire.
        let stats_page = client.request("GET", "/stats");
        let stats = json::parse(&stats_page.body).expect("stats JSON");
        let server_section = stats.get("server").expect("server section");
        let reused = server_section
            .get("reused_requests")
            .and_then(Value::as_u64)
            .expect("reused_requests counter");
        assert!(
            reused >= cases.len() as u64,
            "every request after the first on this socket is a reuse: {reused}"
        );

        // Graceful shutdown over the same kept-alive socket: the final
        // response is served, marked `Connection: close`, and the socket
        // actually closes.
        client.send("POST", "/shutdown", &[]);
        let response = client.read_response();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, r#"{"draining":true}"#);
        assert!(!response.keep_alive, "draining server must close the connection");
        assert!(client.at_eof());
    });
    assert!(handle.is_shutting_down());
}

#[test]
fn overload_sheds_exactly_the_excess_and_drains_on_shutdown() {
    const QUEUE_DEPTH: usize = 4;
    let cases: Vec<(String, usize, usize)> = (0..2 * QUEUE_DEPTH)
        .map(|i| (CorpusConfig::query_mix()[i % 4].to_string(), 3, 0))
        .collect();
    let expected = reference(&cases);

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: QUEUE_DEPTH,
            per_client_inflight: 1024, // loopback is one IP; fairness tested separately
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let mut app = cached_app();
    app.attach_server(handle.clone());
    let gate = Gate::default();

    std::thread::scope(|scope| {
        // Gate every /search so the worker stays busy under test control.
        let gated = |request: &extract_serve::Request| {
            if request.path == "/search" {
                gate.wait_inside();
            }
            app.handle(request)
        };
        let _drain = DrainOnDrop(handle.clone());
        let _open = ReleaseOnDrop(&gate);
        scope.spawn(move || server.run(gated));

        // Phase 1: saturate. Occupy the single worker first, so none of
        // the "queued" requests can race past the unclaimed connection
        // and overflow the queue prematurely; then fill the queue.
        let mut first = Vec::new();
        for ((q, _, _), want) in cases.iter().zip(expected.iter()).take(1 + QUEUE_DEPTH) {
            let target = format!("/search?q={}&k=3&offset=0", encode(q));
            let want: &str = want;
            first.push(scope.spawn(move || (fetch(addr, "GET", &target), want)));
            if first.len() == 1 {
                gate.await_entered(1);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while handle.stats().queue_len < QUEUE_DEPTH as u64 {
            assert!(Instant::now() < deadline, "queue never filled: {:?}", handle.stats());
            std::thread::sleep(Duration::from_millis(5));
        }

        // Phase 2: 2×Q total — everything beyond capacity is the excess.
        let excess = &cases[1 + QUEUE_DEPTH..];
        assert_eq!(excess.len(), QUEUE_DEPTH - 1, "2×Q requests, Q+1 admitted");
        for (q, _, _) in excess {
            let start = Instant::now();
            let (status, body) = fetch(addr, "GET", &format!("/search?q={}&k=3", encode(q)));
            assert_eq!(status, 503, "excess must be shed");
            assert_eq!(body, r#"{"error":"server over capacity"}"#);
            assert!(start.elapsed() < Duration::from_secs(5), "shedding must be immediate");
        }
        let stats = handle.stats();
        assert_eq!(stats.shed_queue_full, (QUEUE_DEPTH - 1) as u64, "exactly the excess");
        assert_eq!(stats.admitted, (1 + QUEUE_DEPTH) as u64, "{stats:?}");

        // Phase 3: request shutdown *while* work is still gated, then
        // release — the drain must answer every admitted page correctly.
        handle.shutdown();
        gate.release();
        for client in first {
            let ((status, body), want) = client.join().unwrap();
            assert_eq!(status, 200, "admitted request must be served through the drain");
            assert_eq!(&body, want, "drained page must match the serial reference");
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.served_ok, (1 + QUEUE_DEPTH) as u64, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "no dropped connections: {stats:?}");
}

#[test]
fn healthz_reports_draining_with_503_once_shutdown_begins() {
    // The handle alone drives the drain state; the server never runs.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let handle = server.handle();
    let mut app = cached_app();
    app.attach_server(handle.clone());
    let healthz = extract_serve::Request {
        method: "GET".to_string(),
        path: "/healthz".to_string(),
        query: Vec::new(),
        http11: true,
        keep_alive: true,
        trace_id: None,
        body: Vec::new(),
    };

    let before = app.handle(&healthz);
    assert_eq!(before.status, 200);
    assert_eq!(std::str::from_utf8(&before.body).unwrap(), r#"{"ok":true}"#);

    handle.shutdown();
    let after = app.handle(&healthz);
    assert_eq!(after.status, 503, "a draining daemon must fail its health check");
    assert_eq!(
        std::str::from_utf8(&after.body).unwrap(),
        r#"{"ok":false,"draining":true}"#
    );
}

#[test]
fn corpus_snippet_text_roundtrips_through_the_json_writer() {
    let corpus = test_corpus();
    let session = QuerySession::from_corpus(&corpus, 0);
    let config = extract_core::ExtractConfig::with_bound(12);
    let mut checked = 0usize;
    for q in CorpusConfig::query_mix() {
        let page = session.answer_corpus_topk(q, &config, 8, 0);
        for answer in page.results.iter() {
            let xml = answer.snippet.to_string();
            let mut w = extract_serve::JsonWriter::new();
            w.str(&xml);
            let doc = w.finish();
            match json::parse(&doc) {
                Ok(Value::Str(back)) => assert_eq!(back, xml),
                other => panic!("snippet {xml:?} → {doc:?} parsed as {other:?}"),
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "the datagen corpora must yield real snippets ({checked})");
}
