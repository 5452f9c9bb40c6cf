//! Router acceptance tests over real corpora.
//!
//! 1. **Equivalence** (property test): a router scattering over a
//!    partitioned corpus answers `/search` byte-identical (through the
//!    `results` array) to one daemon over the union corpus — every
//!    window `(k, offset)`, including cross-shard score ties, which are
//!    broken by the remapped global doc ids.
//! 2. **Fault tolerance** (subprocess test): under concurrent load, one
//!    of two shard daemons hard-exits via `--fault` injection; every
//!    client keeps getting `200`, responses degrade to
//!    `"partial": true` with the survivor's correct results, the dead
//!    shard's breaker opens, and a shard restart on the same port heals
//!    the router without restarting it.
//! 3. **Observability** (subprocess test): a client-supplied
//!    `X-Trace-Id` is echoed by the router and shows up — with per-stage
//!    timings — in *both* tiers' `/debug/traces`, and both tiers serve a
//!    Prometheus `/metrics` exposition with the shared request-stage
//!    families.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use extract::prelude::*;
use extract::serve::{serve_corpus, SearchApp, SearchAppConfig};
use extract_datagen::corpus::CorpusConfig;
use extract_router::{RouterApp, RouterConfig};
use extract_serve::json::{self, Value};
use extract_serve::{ClientConfig, Request, Response, ServeConfig};
use proptest::prelude::*;

fn get(app: &RouterApp, path: &str, query: &[(&str, String)]) -> Response {
    app.handle(&Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        http11: true,
        keep_alive: true,
        trace_id: None,
        body: Vec::new(),
    })
}

fn body_text(response: &Response) -> &str {
    std::str::from_utf8(&response.body).expect("utf-8 body")
}

/// The router body a single-daemon `reference` page implies: identical
/// bytes through `results`, then the router's accounting suffix.
fn with_router_suffix(reference: &str, partial: bool, queried: u64, answered: u64) -> String {
    let prefix = reference.strip_suffix('}').expect("reference body is an object");
    format!(
        "{prefix},\"partial\":{partial},\"shards\":{{\"queried\":{queried},\"answered\":{answered}}}}}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scatter-gather over a 2-way partition == one daemon over the
    /// union, byte for byte, across a grid of (query, k, offset)
    /// windows. `dups` duplicates documents across the partition
    /// boundary, forcing identical scores whose order is only defined
    /// by the global doc-id remapping.
    #[test]
    fn partitioned_router_pages_match_the_union_daemon(
        seed in 0u64..1_000,
        left_docs in 1usize..4,
        right_docs in 1usize..4,
        dups in 0usize..3,
        nodes in prop_oneof![Just(200usize), Just(500usize)],
    ) {
        let left_config =
            CorpusConfig { documents: left_docs, target_nodes_per_doc: nodes, seed };
        let right_config = CorpusConfig {
            documents: right_docs,
            target_nodes_per_doc: nodes,
            seed: seed.wrapping_add(0x9E37),
        };
        // Shard 0: the "left" docs. Shard 1: the "right" docs plus
        // `dups` copies of left docs (same bytes, new names) — their
        // scores tie with shard 0's originals in every query.
        let mut left = CorpusBuilder::new();
        let mut right = CorpusBuilder::new();
        let mut union = CorpusBuilder::new();
        for (name, doc) in left_config.documents() {
            union.add_parsed(&format!("s0-{name}"), doc);
        }
        for (name, doc) in left_config.documents() {
            left.add_parsed(&format!("s0-{name}"), doc);
        }
        for (name, doc) in right_config.documents() {
            union.add_parsed(&format!("s1-{name}"), doc);
        }
        for (name, doc) in right_config.documents() {
            right.add_parsed(&format!("s1-{name}"), doc);
        }
        for (name, doc) in left_config.documents().take(dups) {
            union.add_parsed(&format!("dup-{name}"), doc);
        }
        for (name, doc) in left_config.documents().take(dups) {
            right.add_parsed(&format!("dup-{name}"), doc);
        }
        let (left, right, union) = (left.finish(), right.finish(), union.finish());

        let app_config = SearchAppConfig::default();
        let reference = SearchApp::new(
            QuerySession::from_corpus_with_options(&union, 1, 0),
            app_config.clone(),
        );

        std::thread::scope(|scope| {
            // Two real shard daemons over real sockets; the ready
            // callback carries each shard's partition index so arrival
            // order can't scramble the doc-id remapping.
            let (tx, rx) = mpsc::channel();
            for (index, corpus) in [&left, &right].into_iter().enumerate() {
                let tx = tx.clone();
                let app_config = app_config.clone();
                scope.spawn(move || {
                    serve_corpus(
                        corpus,
                        "127.0.0.1:0",
                        ServeConfig { workers: 2, ..ServeConfig::default() },
                        app_config,
                        64,
                        |addr, handle| {
                            tx.send((index, addr, handle)).expect("report shard");
                        },
                    )
                    .expect("shard serves");
                });
            }
            let mut slots: [Option<(SocketAddr, extract_serve::ServerHandle)>; 2] =
                [None, None];
            for _ in 0..2 {
                let (index, addr, handle) = rx.recv().expect("shard up");
                slots[index] = Some((addr, handle));
            }
            let (first, handle_a) = slots[0].take().expect("shard 0");
            let (second, handle_b) = slots[1].take().expect("shard 1");

            let router = RouterApp::new(RouterConfig {
                shards: vec![first, second],
                request_deadline: Duration::from_secs(10),
                hedge: None,
                ..RouterConfig::default()
            });

            let windows: [(usize, usize); 6] =
                [(1, 0), (3, 0), (5, 2), (2, 1), (50, 0), (4, 7)];
            for q in CorpusConfig::query_mix().into_iter().take(4) {
                for (k, offset) in windows {
                    let response = get(
                        &router,
                        "/search",
                        &[
                            ("q", q.to_string()),
                            ("k", k.to_string()),
                            ("offset", offset.to_string()),
                        ],
                    );
                    assert_eq!(response.status, 200, "q={q} k={k} offset={offset}");
                    let want =
                        with_router_suffix(&reference.render_search(q, k, offset), false, 2, 2);
                    assert_eq!(
                        body_text(&response),
                        want,
                        "router page must be byte-identical to the union daemon \
                         (q={q} k={k} offset={offset} seed={seed} dups={dups})"
                    );
                }
            }
            handle_a.shutdown();
            handle_b.shutdown();
        });
    }
}

/// A `serve` shard subprocess: spawned from the built binary, address
/// parsed from its ready line, killed on drop.
struct ShardProc {
    child: Child,
    addr: SocketAddr,
}

impl ShardProc {
    fn spawn(args: &[&str]) -> ShardProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve shard");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let ready = lines
            .next()
            .expect("a ready line")
            .expect("readable ready line");
        let addr = ready
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unparseable ready line: {ready}"));
        // Drain the rest of stdout in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ShardProc { child, addr }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn router_survives_shard_death_and_heals_on_restart_under_load() {
    // Shard A is healthy; shard B hard-exits (fault injection) on its
    // 21st /search request — deterministically, mid-load.
    let shard_a =
        ShardProc::spawn(&["--gen-docs", "4", "--gen-nodes", "400", "--seed", "1", "--port", "0"]);
    let shard_b = ShardProc::spawn(&[
        "--gen-docs",
        "3",
        "--gen-nodes",
        "400",
        "--seed",
        "2",
        "--port",
        "0",
        "--fault",
        "exit:/search:code=7:after=20:count=1",
    ]);
    let b_addr = shard_b.addr;

    // The local reference for "correct results from the survivor":
    // shard A's exact corpus (same generator, same parameters). Shard A
    // is partition 0, so its global doc ids are its local ids.
    let mut builder = CorpusBuilder::new();
    let config = CorpusConfig { documents: 4, target_nodes_per_doc: 400, seed: 1 };
    for (name, doc) in config.documents() {
        builder.add_parsed(&name, doc);
    }
    let corpus_a = builder.finish();
    let reference_a = SearchApp::new(
        QuerySession::from_corpus_with_options(&corpus_a, 1, 0),
        SearchAppConfig { snippet: extract_core::ExtractConfig::with_bound(10), ..Default::default() },
    );

    let app = RouterApp::new(RouterConfig {
        shards: vec![shard_a.addr, shard_b.addr],
        request_deadline: Duration::from_secs(3),
        probe_deadline: Duration::from_secs(1),
        client: ClientConfig {
            connect_timeout: Duration::from_millis(250),
            connect_attempts: 1,
            ..ClientConfig::default()
        },
        retry_budget: 1,
        retry_backoff_base: Duration::from_millis(5),
        retry_backoff_max: Duration::from_millis(20),
        hedge: None,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(300),
        ..RouterConfig::default()
    });

    // Concurrent load: three clients hammer /search; every response must
    // be 200 — before, during, and after shard B's death.
    let stop = AtomicBool::new(false);
    let non_200 = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let queries = CorpusConfig::query_mix();
    std::thread::scope(|scope| {
        for worker in 0..3usize {
            let (app, stop, non_200, served, queries) =
                (&app, &stop, &non_200, &served, &queries);
            scope.spawn(move || {
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let q = queries[i % queries.len()];
                    i += 1;
                    let response = get(app, "/search", &[("q", q.to_string())]);
                    served.fetch_add(1, Ordering::Relaxed);
                    if response.status != 200 {
                        non_200.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Wait for the injected death to trip shard B's breaker.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let open = !app
                .shards()
                .get(1)
                .expect("shard 1")
                .breaker()
                .allows_requests();
            if open {
                break;
            }
            assert!(Instant::now() < deadline, "shard B never died under load");
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(non_200.load(Ordering::Relaxed), 0, "no client may ever see a non-200");
    assert!(served.load(Ordering::Relaxed) > 0);
    assert!(app.counters().breaker_opens.load(Ordering::Relaxed) >= 1);

    // Steady state with B dead: 200, partial, survivor's exact bytes.
    let q = "texas";
    let response = get(&app, "/search", &[("q", q.to_string()), ("k", "5".to_string())]);
    assert_eq!(response.status, 200);
    let want = with_router_suffix(&reference_a.render_search(q, 5, 0), true, 2, 1);
    assert_eq!(body_text(&response), want, "survivor page must be byte-exact");

    // Restart shard B on the same port (same corpus): the prober must
    // close the breaker and restore full answers with NO router restart.
    let port = b_addr.port().to_string();
    let shard_b2 = ShardProc::spawn(&[
        "--gen-docs",
        "3",
        "--gen-nodes",
        "400",
        "--seed",
        "2",
        "--port",
        &port,
    ]);
    assert_eq!(shard_b2.addr, b_addr, "restart must rebind the same address");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        app.probe_round();
        if app.shards().get(1).expect("shard 1").breaker().allows_requests() {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never closed after restart");
        std::thread::sleep(Duration::from_millis(50));
    }
    let response = get(&app, "/search", &[("q", q.to_string()), ("k", "5".to_string())]);
    assert_eq!(response.status, 200);
    let body = json::parse(body_text(&response)).expect("JSON body");
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)), "full answers are back");
    assert_eq!(
        body.get("shards").and_then(|s| s.get("answered")).and_then(Value::as_u64),
        Some(2)
    );
}

#[test]
fn router_relearns_doc_ids_when_a_shard_ingests_mid_session() {
    use extract_serve::testing::KeepAliveClient;

    // Two live shard daemons; the router is a long-lived in-process app
    // over both — NO probe rounds run during this test, so any doc-count
    // refresh must come from the epoch stamps on search answers.
    let shard_a =
        ShardProc::spawn(&["--gen-docs", "2", "--gen-nodes", "300", "--seed", "1", "--port", "0"]);
    let shard_b =
        ShardProc::spawn(&["--gen-docs", "2", "--gen-nodes", "300", "--seed", "2", "--port", "0"]);

    // A marker document only shard B holds: its global id is
    // `docs(A) + local id`, so it moves the moment shard A grows.
    let mut b_client = KeepAliveClient::connect(shard_b.addr);
    let ingest = b_client.request_body(
        "POST",
        "/ingest?name=marker",
        b"<m><entry><token>zzmarkerzz</token></entry></m>",
    );
    assert_eq!(ingest.status, 200, "{}", ingest.body);

    let app = RouterApp::new(RouterConfig {
        shards: vec![shard_a.addr, shard_b.addr],
        request_deadline: Duration::from_secs(5),
        hedge: None,
        ..RouterConfig::default()
    });
    let marker_id = |response: &Response| -> u64 {
        assert_eq!(response.status, 200);
        let v = json::parse(body_text(response)).expect("JSON body");
        let results = v.get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 1, "exactly the marker doc: {v:?}");
        results[0].get("doc_id").and_then(Value::as_u64).expect("doc_id")
    };

    // Baseline: A has 2 docs, the marker sits at B's slot 2 → global 4.
    let before = get(&app, "/search", &[("q", "zzmarkerzz".to_string())]);
    assert_eq!(marker_id(&before), 4, "bases [0, 2] before the ingest");

    // Grow shard A over HTTP, under concurrent router load. Every
    // response must keep 200 and the marker's id must only ever be one
    // of the two consistent mappings — never garbage from a half-stale
    // remap.
    let stop = AtomicBool::new(false);
    let bad = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (app, stop, bad) = (&app, &stop, &bad);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let response = get(app, "/search", &[("q", "zzmarkerzz".to_string())]);
                    let id = marker_id(&response);
                    if id != 4 && id != 5 {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let mut a_client = KeepAliveClient::connect(shard_a.addr);
        let grown = a_client.request_body(
            "POST",
            "/ingest?name=grown",
            b"<g><entry><token>zzgrownzz</token></entry></g>",
        );
        assert_eq!(grown.status, 200, "{}", grown.body);
        // The very next search that touches shard A sees epoch 1 on the
        // answer and relearns A's count before merging: the marker's
        // global id shifts to 3 + 2 = 5 with no probe and no heal.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let response = get(&app, "/search", &[("q", "zzmarkerzz".to_string())]);
            if marker_id(&response) == 5 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "router never refreshed the doc-id remap after the shard's epoch moved"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(bad.load(Ordering::Relaxed), 0, "only the two consistent mappings may appear");

    // Steady state: the remap is the new one, and /stats shows the
    // learned epochs per shard.
    let after = get(&app, "/search", &[("q", "zzmarkerzz".to_string())]);
    assert_eq!(marker_id(&after), 5, "bases [0, 3] after the ingest");
    let stats = json::parse(&app.render_stats()).expect("stats JSON");
    let shards = stats.get("shards").and_then(Value::as_arr).expect("shard array");
    let epochs: Vec<Option<u64>> = shards
        .iter()
        .map(|s| s.get("corpus_epoch").and_then(Value::as_u64))
        .collect();
    assert_eq!(epochs, [Some(1), Some(1)], "both shards' epochs learned: {stats:?}");
}

/// One raw HTTP/1.1 exchange over a fresh socket: returns the status
/// line's code, the (lowercased) header lines, and the body.
fn raw_get(addr: SocketAddr, target: &str, headers: &[&str]) -> (u16, Vec<String>, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut head = format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for header in headers {
        head.push_str(header);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    (status, lines.map(|l| l.to_ascii_lowercase()).collect(), body.to_string())
}

#[test]
fn a_trace_id_follows_one_request_across_both_tiers() {
    let shard =
        ShardProc::spawn(&["--gen-docs", "2", "--gen-nodes", "300", "--seed", "3", "--port", "0"]);
    let (tx, rx) = mpsc::channel();
    let shard_addr = shard.addr;
    let router_thread = std::thread::spawn(move || {
        extract_router::serve_router(
            "127.0.0.1:0",
            ServeConfig { workers: 2, ..ServeConfig::default() },
            RouterConfig {
                shards: vec![shard_addr],
                hedge: None,
                request_deadline: Duration::from_secs(5),
                ..RouterConfig::default()
            },
            |addr, handle| tx.send((addr, handle)).expect("report router"),
        )
        .expect("router serves");
    });
    let (router_addr, router_handle) = rx.recv().expect("router up");

    // The trace ID rides the request in and is echoed on the way out.
    let (status, headers, _body) =
        raw_get(router_addr, "/search?q=texas", &["X-Trace-Id: deadbeef"]);
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|h| h == "x-trace-id: 00000000deadbeef"),
        "router must echo the client's trace ID, got {headers:?}"
    );

    // Both tiers' flight recorders hold the same trace, with stage
    // timings recorded where the work happened.
    let find_trace = |body: &str| -> Option<Value> {
        json::parse(body)
            .expect("valid traces JSON")
            .get("traces")
            .and_then(Value::as_arr)
            .and_then(|traces| {
                traces
                    .iter()
                    .find(|t| {
                        t.get("trace").and_then(Value::as_str) == Some("00000000deadbeef")
                    })
                    .cloned()
            })
    };
    // A daemon records a request's trace after writing its answer, so the
    // record can trail the response we already hold: poll briefly.
    let recorded = |addr| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (status, _, traces) = raw_get(addr, "/debug/traces", &[]);
            assert_eq!(status, 200);
            match find_trace(&traces) {
                Some(trace) => return (trace, traces),
                None if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                None => panic!("trace never reached the recorder at {addr}: {traces}"),
            }
        }
    };
    let (router_trace, router_traces) = recorded(router_addr);
    let router_stages = router_trace.get("stages").expect("stages");
    assert!(
        router_stages.get("search").and_then(Value::as_u64).unwrap_or(0) > 0,
        "the router's search span is the scatter-gather: {router_traces}"
    );
    let (shard_trace, shard_traces) = recorded(shard.addr);
    assert!(
        shard_trace
            .get("stages")
            .and_then(|s| s.get("search"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0,
        "the shard's search span is the index walk: {shard_traces}"
    );

    // Both daemons expose the shared request-stage metric families.
    for (addr, who) in [(router_addr, "router"), (shard.addr, "shard")] {
        let (status, headers, body) = raw_get(addr, "/metrics", &[]);
        assert_eq!(status, 200, "{who} /metrics");
        assert!(
            headers.iter().any(|h| h.starts_with("content-type: text/plain; version=0.0.4")),
            "{who} must use the Prometheus exposition content type, got {headers:?}"
        );
        assert!(
            body.contains("extract_request_stage_duration_seconds_bucket{stage=\"search\""),
            "{who} /metrics must carry the search stage histogram:\n{body}"
        );
        assert!(body.contains("extract_server_accepted_total"), "{who} server counters");
    }
    let (_, _, router_metrics) = raw_get(router_addr, "/metrics", &[]);
    assert!(
        router_metrics.contains("extract_router_shard_latency_seconds_bucket{shard=\"0\""),
        "per-shard latency histograms:\n{router_metrics}"
    );

    router_handle.shutdown();
    router_thread.join().expect("router thread");
}
