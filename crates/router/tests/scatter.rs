//! Scatter-gather behavior against real stub shards over real sockets:
//! merging, partial results, retries, breakers, recovery, and hedging —
//! all driven deterministically with the serve tier's fault-injection
//! plans.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use extract_router::{HedgeConfig, RouterApp, RouterConfig};
use extract_serve::json::{self, Value};
use extract_serve::{
    ClientConfig, FaultPlan, JsonWriter, Request, Response, ServeConfig, Server, ServerHandle,
};

/// One canned hit a stub shard serves: (local doc id, root, score).
type Hit = (u64, u64, f64);

/// A stub shard: answers `/search` with its canned hits (respecting the
/// requested `k`) stamped with its id span, `/stats` with that span as
/// its documents, `/healthz` with ok.
fn shard_body(hits: &[Hit], k: usize, q: &str) -> String {
    let page: Vec<&Hit> = hits.iter().take(k).collect();
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("query");
    w.str(q);
    w.key("k");
    w.num_u64(k as u64);
    w.key("offset");
    w.num_u64(0);
    w.key("total");
    w.num_u64(hits.len() as u64);
    w.key("count");
    w.num_u64(page.len() as u64);
    w.key("results");
    w.arr_begin();
    for (doc, root, score) in page.iter() {
        w.obj_begin();
        w.key("doc");
        w.str(&format!("doc-{doc}"));
        w.key("doc_id");
        w.num_u64(*doc);
        w.key("root");
        w.num_u64(*root);
        w.key("score");
        w.num_f64(*score);
        w.key("snippet");
        w.str("<r/>");
        w.obj_end();
    }
    w.arr_end();
    w.obj_end();
    w.finish()
}

fn stats_body(documents: u64) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("server");
    w.obj_begin();
    w.key("accepted");
    w.num_u64(1);
    w.key("admitted");
    w.num_u64(1);
    w.key("served_ok");
    w.num_u64(1);
    w.key("served_error");
    w.num_u64(0);
    w.obj_end();
    w.key("corpus");
    w.obj_begin();
    w.key("documents");
    w.num_u64(documents);
    w.obj_end();
    w.obj_end();
    w.finish()
}

/// Spawn a stub shard on an ephemeral (or explicit) port; returns its
/// address, handle, and join handle for a clean drain.
fn spawn_shard(
    addr: &str,
    hits: Vec<Hit>,
    documents: u64,
    fault: Option<FaultPlan>,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let config = ServeConfig { fault: fault.map(Arc::new), ..stub_config() };
    spawn_stub(addr, config, move |request| match request.path.as_str() {
        "/search" => {
            Response::json(200, search_body(&hits, request)).with_corpus_slots(documents)
        }
        "/stats" => Response::json(200, stats_body(documents)),
        _ => Response::error(404, "no such route"),
    })
}

fn stub_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 16,
        per_client_inflight: 64,
        ..ServeConfig::default()
    }
}

/// The `/search` answer of a stub holding `hits`, honoring the request's `k`.
fn search_body(hits: &[Hit], request: &Request) -> String {
    let k = request.param("k").and_then(|raw| raw.parse().ok()).unwrap_or(10);
    shard_body(hits, k, request.param("q").unwrap_or(""))
}

/// A stub shard answering with `routes` (and `/healthz` with ok).
fn spawn_stub(
    addr: &str,
    config: ServeConfig,
    routes: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(addr, config).expect("bind stub shard");
    let bound = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run(move |request: &Request| match request.path.as_str() {
            "/healthz" => Response::json(200, "{\"ok\":true}".to_string()),
            _ => routes(request),
        });
    });
    (bound, handle, thread)
}

fn router_config(shards: Vec<SocketAddr>) -> RouterConfig {
    RouterConfig {
        shards,
        request_deadline: Duration::from_secs(5),
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
        breaker_cooldown: Duration::from_millis(100),
        ..RouterConfig::default()
    }
}

fn get(app: &RouterApp, path: &str, query: &[(&str, &str)]) -> Response {
    app.handle(&Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        http11: true,
        keep_alive: true,
        trace_id: None,
        body: Vec::new(),
    })
}

fn body_json(response: &Response) -> Value {
    let text = std::str::from_utf8(&response.body).expect("utf-8 body");
    json::parse(text).unwrap_or_else(|e| panic!("invalid JSON {text:?}: {e}"))
}

fn doc_ids(body: &Value) -> Vec<u64> {
    body.get("results")
        .and_then(Value::as_arr)
        .expect("results")
        .iter()
        .map(|r| r.get("doc_id").and_then(Value::as_u64).expect("doc_id"))
        .collect()
}

/// A bound-then-dropped listener's address: nothing listens there, and
/// the OS won't reassign it immediately.
fn dead_addr() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("addr")
}

#[test]
fn router_merges_shards_with_global_ids_and_exact_order() {
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9), (1, 2, 0.5)], 2, None);
    let (b, hb, tb) = spawn_shard("127.0.0.1:0", vec![(0, 4, 0.7)], 3, None);
    let app = RouterApp::new(router_config(vec![a, b]));

    let response = get(&app, "/search", &[("q", "x"), ("k", "10")]);
    assert_eq!(response.status, 200);
    let body = body_json(&response);
    // Totals sum hit counts (shard A has 2 matches, shard B has 1).
    assert_eq!(body.get("total").and_then(Value::as_u64), Some(3));
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)));
    let shards = body.get("shards").expect("shards block");
    assert_eq!(shards.get("queried").and_then(Value::as_u64), Some(2));
    assert_eq!(shards.get("answered").and_then(Value::as_u64), Some(2));
    // Shard A occupies global ids [0, 2), shard B starts at 2; the
    // merged order is score-descending: 0.9 (A#0), 0.7 (B#0 → 2), 0.5.
    assert_eq!(doc_ids(&body), vec![0, 2, 1]);

    // Offset windows apply globally, after the merge.
    let response = get(&app, "/search", &[("q", "x"), ("k", "2"), ("offset", "1")]);
    assert_eq!(doc_ids(&body_json(&response)), vec![2, 1]);

    ha.shutdown();
    hb.shutdown();
    let _ = (ta.join(), tb.join());
}

#[test]
fn dead_shard_degrades_to_partial_200_and_opens_its_breaker() {
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 1, None);
    let dead = dead_addr();
    let app = RouterApp::new(router_config(vec![a, dead]));

    // Every request stays 200 — the survivor answers, honestly flagged.
    for _ in 0..3 {
        let response = get(&app, "/search", &[("q", "x")]);
        assert_eq!(response.status, 200, "a dead shard must never produce a 5xx");
        let body = body_json(&response);
        assert_eq!(body.get("partial"), Some(&Value::Bool(true)));
        let shards = body.get("shards").expect("shards block");
        assert_eq!(shards.get("answered").and_then(Value::as_u64), Some(1));
        assert_eq!(doc_ids(&body), vec![0]);
    }
    // Repeated failures opened the dead shard's breaker exactly once.
    assert_eq!(app.counters().breaker_opens.load(Ordering::Relaxed), 1);
    let breakers: Vec<&str> =
        app.shards().iter().map(|s| s.breaker().state().name()).collect();
    assert_eq!(breakers, vec!["closed", "open"]);
    assert!(app.counters().partial_responses.load(Ordering::Relaxed) >= 3);

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn restarted_shard_heals_through_the_prober_without_router_restart() {
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 1, None);
    let (b, hb, tb) = spawn_shard("127.0.0.1:0", vec![(0, 2, 0.8)], 1, None);
    // Shard B comes first, so its width places shard A's ids.
    let app = RouterApp::new(router_config(vec![b, a]));
    let shard_b = || app.shards().first().expect("shard B");

    // Healthy first: both shards answer, A's document behind B's one.
    let body = body_json(&get(&app, "/search", &[("q", "x")]));
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)));
    assert_eq!(doc_ids(&body), vec![1, 0]);

    // Kill shard B and burn its breaker open.
    hb.shutdown();
    let _ = tb.join();
    loop {
        let response = get(&app, "/search", &[("q", "x")]);
        assert_eq!(response.status, 200);
        if !shard_b().breaker().allows_requests() {
            break;
        }
    }
    // B is missing, yet A's ids keep their place behind B's last width.
    let body = body_json(&get(&app, "/search", &[("q", "x")]));
    assert_eq!(body.get("partial"), Some(&Value::Bool(true)));
    assert_eq!(doc_ids(&body), vec![1]);

    // Resurrect shard B on the same port (SO_REUSEADDR) with a bigger
    // corpus, wait out the cooldown, and let the prober heal it.
    let (b2, hb2, tb2) = spawn_shard(&b.to_string(), vec![(0, 2, 0.8), (1, 3, 0.6)], 2, None);
    assert_eq!(b2, b, "restart must land on the same address");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        app.probe_round();
        if shard_b().breaker().allows_requests() {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never closed after restart");
    }
    let body = body_json(&get(&app, "/search", &[("q", "x"), ("k", "10")]));
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)));
    assert_eq!(body.get("total").and_then(Value::as_u64), Some(3));
    // The healed page places A behind the restarted shard's two slots.
    assert_eq!(doc_ids(&body), vec![2, 0, 1]);

    ha.shutdown();
    hb2.shutdown();
    let _ = (ta.join(), tb2.join());
}

#[test]
fn injected_500s_burn_retries_then_succeed() {
    let fault = FaultPlan::from_specs(&["status:/search:code=500:count=1"]).expect("plan");
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 1, Some(fault));
    let app = RouterApp::new(router_config(vec![a]));

    let response = get(&app, "/search", &[("q", "x")]);
    assert_eq!(response.status, 200);
    let body = body_json(&response);
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)), "the retry recovered");
    assert_eq!(app.counters().retries.load(Ordering::Relaxed), 1);

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn hedge_fires_on_a_stalled_shard_and_the_hedge_wins() {
    // Only the first /search stalls: the primary hangs 400ms, the hedge
    // (request two) answers immediately and must win the race.
    let fault = FaultPlan::from_specs(&["stall:/search:ms=400:count=1"]).expect("plan");
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 1, Some(fault));
    let mut config = router_config(vec![a]);
    config.hedge = Some(HedgeConfig {
        min_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(50),
        min_samples: 1,
        ..HedgeConfig::default()
    });
    let app = RouterApp::new(config);

    let started = Instant::now();
    let response = get(&app, "/search", &[("q", "x")]);
    let elapsed = started.elapsed();
    assert_eq!(response.status, 200);
    assert_eq!(body_json(&response).get("partial"), Some(&Value::Bool(false)));
    assert_eq!(app.counters().hedges_fired.load(Ordering::Relaxed), 1);
    assert_eq!(app.counters().hedge_wins.load(Ordering::Relaxed), 1);
    assert!(
        elapsed < Duration::from_millis(400),
        "the hedge should beat the 400ms stall, took {elapsed:?}"
    );

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn a_hedge_that_loses_on_status_is_not_counted_as_a_win() {
    // The primary (request one) stalls 400ms and will eventually serve
    // 200; the hedge (request two) answers *first* but with a 503. The
    // hedge's response arrives first yet is unusable, so it must count
    // as fired-but-not-won, and the retry serves the page.
    let fault = FaultPlan::from_specs(&[
        "stall:/search:ms=400:count=1",
        "status:/search:code=503:after=1:count=1",
    ])
    .expect("plan");
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 1, Some(fault));
    let mut config = router_config(vec![a]);
    config.hedge = Some(HedgeConfig {
        min_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(50),
        min_samples: 1,
        ..HedgeConfig::default()
    });
    let app = RouterApp::new(config);

    let response = get(&app, "/search", &[("q", "x")]);
    assert_eq!(response.status, 200);
    assert!(app.counters().hedges_fired.load(Ordering::Relaxed) >= 1);
    assert_eq!(
        app.counters().hedge_wins.load(Ordering::Relaxed),
        0,
        "an unusable hedge response must not count as a hedge win"
    );
    assert!(app.counters().retries.load(Ordering::Relaxed) >= 1);

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn no_answering_shard_is_503_with_retry_after() {
    let app = RouterApp::new(router_config(vec![dead_addr(), dead_addr()]));
    let response = get(&app, "/search", &[("q", "x")]);
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(1));
    let body = body_json(&response);
    assert_eq!(
        body.get("error").and_then(Value::as_str),
        Some("no shards available")
    );
}

#[test]
fn router_healthz_and_stats_report_shard_state() {
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9)], 4, None);
    let dead = dead_addr();
    let app = RouterApp::new(router_config(vec![a, dead]));

    // One shard up: healthz is 200 with honest availability accounting.
    let response = get(&app, "/healthz", &[]);
    assert_eq!(response.status, 200);
    let body = body_json(&response);
    assert_eq!(body.get("ok"), Some(&Value::Bool(true)));
    let shards = body.get("shards").expect("shards");
    assert_eq!(shards.get("total").and_then(Value::as_u64), Some(2));
    assert_eq!(shards.get("available").and_then(Value::as_u64), Some(2));

    // Serve one request so the live shard has latency samples, then
    // check /stats aggregation.
    let search = get(&app, "/search", &[("q", "x")]);
    assert_eq!(search.status, 200);
    let response = get(&app, "/stats", &[]);
    assert_eq!(response.status, 200);
    let body = body_json(&response);
    let router = body.get("router").expect("router block");
    assert_eq!(router.get("shards").and_then(Value::as_u64), Some(2));
    let upstream = body.get("upstream").expect("upstream block");
    assert_eq!(upstream.get("answered").and_then(Value::as_u64), Some(1));
    assert_eq!(upstream.get("documents").and_then(Value::as_u64), Some(4));
    let per_shard = body.get("shards").and_then(Value::as_arr).expect("shard array");
    assert_eq!(per_shard.len(), 2);
    let live = per_shard.first().expect("live shard");
    assert_eq!(live.get("reachable"), Some(&Value::Bool(true)));
    assert_eq!(live.get("documents").and_then(Value::as_u64), Some(4));

    // Validation mirrors the daemon exactly.
    assert_eq!(get(&app, "/search", &[]).status, 400);
    assert_eq!(get(&app, "/search", &[("q", "x"), ("k", "0")]).status, 400);
    assert_eq!(get(&app, "/nope", &[]).status, 404);

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn a_width_that_moves_remaps_on_that_very_answer() {
    use std::sync::atomic::AtomicU64;
    // Shard A stamps its answers with a corpus epoch and an id span
    // that grows with it, and counts the `/stats` it is asked for.
    let epoch = Arc::new(AtomicU64::new(1));
    let stats_asked = Arc::new(AtomicU64::new(0));
    let (a, ha, ta) = {
        let (epoch, stats_asked) = (Arc::clone(&epoch), Arc::clone(&stats_asked));
        spawn_stub("127.0.0.1:0", stub_config(), move |request| {
            let now = epoch.load(Ordering::SeqCst);
            match request.path.as_str() {
                // Epoch 1 holds two slots, epoch 2 five.
                "/search" => Response::json(200, search_body(&[(0, 1, 0.9)], request))
                    .with_corpus_epoch(now)
                    .with_corpus_slots(3 * now - 1),
                "/stats" => {
                    stats_asked.fetch_add(1, Ordering::SeqCst);
                    Response::json(200, stats_body(3 * now - 1))
                }
                _ => Response::error(404, "no such route"),
            }
        })
    };
    let (b, hb, tb) = spawn_shard("127.0.0.1:0", vec![(0, 4, 0.7)], 3, None);
    let app = RouterApp::new(router_config(vec![a, b]));

    // Epoch 1: shard B's only document sits behind A's two slots.
    let body = body_json(&get(&app, "/search", &[("q", "x")]));
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)));
    assert_eq!(doc_ids(&body), vec![0, 2]);

    // A grows to five slots: the first answer after the growth places B
    // behind them — whole, with no request to anything but `/search`.
    epoch.store(2, Ordering::SeqCst);
    let body = body_json(&get(&app, "/search", &[("q", "x")]));
    assert_eq!(body.get("partial"), Some(&Value::Bool(false)));
    assert_eq!(doc_ids(&body), vec![0, 5], "stale remap served after the width moved");
    assert_eq!(stats_asked.load(Ordering::SeqCst), 0, "the router asked a shard's /stats");

    ha.shutdown();
    hb.shutdown();
    let _ = (ta.join(), tb.join());
}

#[test]
fn an_answer_without_a_width_is_a_dropped_leg() {
    // Shard A answers `/search` with a page but no `X-Corpus-Slots`:
    // its ids cannot be placed, so its leg drops like a failed one and
    // B's ids start where A's never-seen range does, at 0.
    let (a, ha, ta) = spawn_stub("127.0.0.1:0", stub_config(), |request| {
        match request.path.as_str() {
            "/search" => Response::json(200, search_body(&[(0, 1, 0.9)], request)),
            _ => Response::error(404, "no such route"),
        }
    });
    let (b, hb, tb) = spawn_shard("127.0.0.1:0", vec![(0, 4, 0.7)], 3, None);
    let app = RouterApp::new(router_config(vec![a, b]));

    let response = get(&app, "/search", &[("q", "x")]);
    assert_eq!(response.status, 200);
    let body = body_json(&response);
    assert_eq!(body.get("partial"), Some(&Value::Bool(true)));
    let shards = body.get("shards").expect("shards block");
    assert_eq!(shards.get("answered").and_then(Value::as_u64), Some(1));
    assert_eq!(doc_ids(&body), vec![0]);

    ha.shutdown();
    hb.shutdown();
    let _ = (ta.join(), tb.join());
}

#[test]
fn a_keep_alive_the_shard_closed_is_redialed_without_a_retry() {
    // The shard evicts idle connections after 40 ms: the router's pooled
    // socket is dead by the second request.
    let config = ServeConfig { idle_timeout: Duration::from_millis(40), ..stub_config() };
    let (a, ha, ta) = spawn_stub("127.0.0.1:0", config, |request| match request.path.as_str() {
        "/search" => {
            Response::json(200, search_body(&[(0, 1, 0.9)], request)).with_corpus_slots(1)
        }
        _ => Response::error(404, "no such route"),
    });
    let app = RouterApp::new(router_config(vec![a]));
    for _ in 0..3 {
        let response = get(&app, "/search", &[("q", "x")]);
        assert_eq!(response.status, 200);
        assert_eq!(body_json(&response).get("partial"), Some(&Value::Bool(false)));
        std::thread::sleep(Duration::from_millis(200));
    }
    assert_eq!(app.counters().retries.load(Ordering::Relaxed), 0);
    assert_eq!(app.counters().escalations.load(Ordering::Relaxed), 0);
    assert_eq!(app.counters().breaker_opens.load(Ordering::Relaxed), 0);

    ha.shutdown();
    let _ = ta.join();
}

#[test]
fn the_healthy_path_never_escalates_and_nothing_waits_out_a_timer() {
    let (a, ha, ta) = spawn_shard("127.0.0.1:0", vec![(0, 1, 0.9), (1, 2, 0.5)], 2, None);
    let (b, hb, tb) = spawn_shard("127.0.0.1:0", vec![(0, 4, 0.7)], 3, None);
    let config = RouterConfig {
        probe_deadline: Duration::from_millis(250),
        hedge: Some(HedgeConfig {
            max_delay: Duration::from_millis(500),
            ..HedgeConfig::default()
        }),
        ..router_config(vec![a, b])
    };

    // Start-up to first answer: no step may sit out a probe deadline or
    // a hedge delay.
    let started = Instant::now();
    let app = RouterApp::new(config);
    app.probe_round();
    let response = get(&app, "/search", &[("q", "x"), ("k", "10")]);
    let elapsed = started.elapsed();
    assert_eq!(response.status, 200);
    assert_eq!(doc_ids(&body_json(&response)), vec![0, 2, 1]);
    assert!(elapsed < Duration::from_millis(100), "first answer took {elapsed:?}");

    for _ in 0..200 {
        let response = get(&app, "/search", &[("q", "x"), ("k", "10")]);
        assert_eq!(response.status, 200);
    }
    let counters = app.counters();
    assert_eq!(counters.escalations.load(Ordering::Relaxed), 0);
    assert_eq!(counters.hedges_fired.load(Ordering::Relaxed), 0);
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    let stats = body_json(&get(&app, "/stats", &[]));
    let router = stats.get("router").expect("router block");
    assert_eq!(router.get("escalations").and_then(Value::as_u64), Some(0));

    ha.shutdown();
    hb.shutdown();
    let _ = (ta.join(), tb.join());
}

/// `/stats` and `/metrics` name every router counter by its one pair of
/// names, in one order, and read the same value under both: the `/stats`
/// keys the benchmark harness reads (`retries`, `hedges_fired`) and the
/// metric names the smoke scripts grep
/// (`extract_router_scatter_escalations_total`).
#[test]
fn stats_and_metrics_read_every_router_counter_under_its_names() {
    let server = Server::bind("127.0.0.1:0", stub_config()).expect("bind");
    let mut app = RouterApp::new(router_config(Vec::new()));
    app.attach_server(server.handle());
    let c = app.counters();
    let names = [
        ("retries", "extract_router_retries_total", &c.retries),
        ("hedges_fired", "extract_router_hedges_fired_total", &c.hedges_fired),
        ("hedge_wins", "extract_router_hedge_wins_total", &c.hedge_wins),
        ("escalations", "extract_router_scatter_escalations_total", &c.escalations),
        ("breaker_opens", "extract_router_breaker_opens_total", &c.breaker_opens),
        ("partial_responses", "extract_router_partial_responses_total", &c.partial_responses),
        ("probes", "extract_router_probes_total", &c.probes),
    ];
    for (value, (_, _, counter)) in (11..).zip(names) {
        counter.store(value, Ordering::Relaxed);
    }
    let stats = get(&app, "/stats", &[]);
    let stats = std::str::from_utf8(&stats.body).expect("utf-8 body");
    let metrics = get(&app, "/metrics", &[]);
    let metrics = std::str::from_utf8(&metrics.body).expect("utf-8 body");
    let mut after = (0, 0);
    for (value, (key, metric, _)) in (11..).zip(names) {
        let in_stats = stats.find(&format!("\"{key}\":{value}")).expect(key);
        let sample = format!("# TYPE {metric} counter\n{metric} {value}\n");
        let in_metrics = metrics.find(&sample).expect(metric);
        assert!(in_stats > after.0 && in_metrics > after.1, "{key} out of order");
        after = (in_stats, in_metrics);
    }
}
