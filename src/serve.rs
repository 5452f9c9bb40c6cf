//! The HTTP search application: [`SearchApp`] maps `extract-serve`
//! requests onto a [`QuerySession`] and renders JSON result pages.
//!
//! The daemon model follows the ROADMAP: **one daemon = one corpus = one
//! session**. `extract-serve` owns sockets, admission control and
//! fairness; this module owns the routes and the wire format:
//!
//! | route | method | answer |
//! |-------|--------|--------|
//! | `/search?q=…&k=…&offset=…` | `GET` | one ranked, snippeted result page |
//! | `/stats` | `GET` | server + session + corpus counters |
//! | `/metrics` | `GET` | Prometheus text exposition (counters + stage histograms) |
//! | `/debug/traces` | `GET` | the flight recorder (recent request traces) as JSON |
//! | `/healthz` | `GET` | liveness probe |
//! | `/shutdown` | `POST` | begin graceful drain |
//!
//! `/search` is honest pagination end to end: it calls
//! [`QuerySession::answer_corpus_topk`], so snippet generation stops at
//! the page being served while `total` stays exact. `k` is clamped to
//! [`SearchAppConfig::max_k`] (the response reports the effective value);
//! a missing/empty `q` or an unparseable number is a `400`, never a
//! panic. Every body — including every error — is JSON from the
//! escape-correct writer, so clients can always parse what they get.

use extract_corpus::Corpus;
use extract_core::{CacheStats, ExtractConfig};
use extract_obs::{PromWriter, Stage};
use extract_serve::obs_http;
use extract_serve::{JsonWriter, Request, Response, ServerHandle};

use crate::session::{CorpusTopK, QuerySession, SessionCaches};

/// Application-level knobs (the server-level ones live in
/// [`extract_serve::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct SearchAppConfig {
    /// Snippet generation config used for every query.
    pub snippet: ExtractConfig,
    /// Page size when the request has no `k`.
    pub default_k: usize,
    /// Hard page-size cap; larger `k`s are clamped (and the clamp is
    /// visible in the response's `k` field).
    pub max_k: usize,
}

impl Default for SearchAppConfig {
    fn default() -> SearchAppConfig {
        SearchAppConfig { snippet: ExtractConfig::default(), default_k: 10, max_k: 100 }
    }
}

/// The routing + rendering layer between [`extract_serve::Server`] and a
/// [`QuerySession`].
#[derive(Debug)]
pub struct SearchApp<'d> {
    session: QuerySession<'d>,
    config: SearchAppConfig,
    server: Option<ServerHandle>,
}

impl<'d> SearchApp<'d> {
    /// Wrap `session` (usually [`QuerySession::from_corpus`]). Attach the
    /// server handle with [`SearchApp::attach_server`] before serving if
    /// `/stats` should include server counters and `/shutdown` should
    /// work.
    pub fn new(session: QuerySession<'d>, config: SearchAppConfig) -> SearchApp<'d> {
        SearchApp { session, config, server: None }
    }

    /// Wire the running server in (enables `/shutdown` and the `server`
    /// section of `/stats`).
    pub fn attach_server(&mut self, handle: ServerHandle) {
        self.server = Some(handle);
    }

    /// The session behind the app.
    pub fn session(&self) -> &QuerySession<'d> {
        &self.session
    }

    /// Route one request. Infallible: every outcome is a `Response`.
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/search") => self.search(request),
            ("GET", "/stats") => Response::json(200, self.render_stats()),
            ("GET", "/healthz") => {
                // Once shutdown begins the daemon still answers in-flight
                // work, but load balancers must stop routing to it: say so
                // with a 503 instead of lying "ok" until the socket dies.
                let draining =
                    self.server.as_ref().is_some_and(ServerHandle::is_shutting_down);
                let mut w = JsonWriter::new();
                w.obj_begin();
                w.key("ok");
                w.bool(!draining);
                if draining {
                    w.key("draining");
                    w.bool(true);
                }
                w.obj_end();
                Response::json(if draining { 503 } else { 200 }, w.finish())
            }
            ("GET", "/metrics") => self.metrics(),
            ("GET", "/debug/traces") => match &self.server {
                Some(handle) => Response::json(200, obs_http::traces_json(handle.obs())),
                None => Response::error(503, "no server attached"),
            },
            ("POST", "/shutdown") => match &self.server {
                Some(handle) => {
                    handle.shutdown();
                    let mut w = JsonWriter::new();
                    w.obj_begin();
                    w.key("draining");
                    w.bool(true);
                    w.obj_end();
                    Response::json(200, w.finish())
                }
                None => Response::error(503, "no server attached"),
            },
            (_, "/search" | "/stats" | "/healthz" | "/shutdown" | "/metrics"
            | "/debug/traces") => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        }
    }

    fn search(&self, request: &Request) -> Response {
        match parse_search_params(request, &self.config) {
            Ok((q, k, offset)) => Response::json(200, self.render_search(q, k, offset)),
            Err(response) => response,
        }
    }

    /// The `/metrics` body: server counters and request-stage latency
    /// histograms (via [`obs_http`]) plus the session's cache and corpus
    /// gauges, in Prometheus text exposition format.
    fn metrics(&self) -> Response {
        let Some(handle) = &self.server else {
            return Response::error(503, "no server attached");
        };
        let mut w = PromWriter::new();
        obs_http::write_server_metrics(&mut w, handle);
        write_cache_metrics(&mut w, &self.session.caches());
        if let Some(corpus) = self.session.corpus() {
            w.help("extract_corpus_documents", "Documents in the served corpus.");
            w.type_("extract_corpus_documents", "gauge");
            w.sample_u64("extract_corpus_documents", &[], corpus.len() as u64);
        }
        obs_http::metrics_response(w)
    }

    /// The `/search` body for `(q, k, offset)` — public so tests and the
    /// load generator can compute the expected bytes without a socket.
    pub fn render_search(&self, q: &str, k: usize, offset: usize) -> String {
        search_body(&self.session, &self.config.snippet, q, k, offset)
    }

    /// The `/stats` body: server counters (when attached), session cache
    /// and routing counters, corpus ingestion counters.
    pub fn render_stats(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_begin();
        if let Some(handle) = &self.server {
            let s = handle.stats();
            w.key("server");
            w.obj_begin();
            w.key("accepted");
            w.num_u64(s.accepted);
            w.key("admitted");
            w.num_u64(s.admitted);
            w.key("shed_queue_full");
            w.num_u64(s.shed_queue_full);
            w.key("shed_per_client");
            w.num_u64(s.shed_per_client);
            w.key("served_ok");
            w.num_u64(s.served_ok);
            w.key("served_error");
            w.num_u64(s.served_error);
            w.key("reused_requests");
            w.num_u64(s.reused_requests);
            w.key("request_timeouts");
            w.num_u64(s.request_timeouts);
            w.key("idle_closed");
            w.num_u64(s.idle_closed);
            w.key("io_errors");
            w.num_u64(s.io_errors);
            w.key("queue_len");
            w.num_u64(s.queue_len);
            w.key("inflight");
            w.num_u64(s.inflight);
            w.key("parked");
            w.num_u64(s.parked);
            w.obj_end();
        }
        w.key("session");
        w.obj_begin();
        w.key("workers");
        w.num_u64(self.session.workers() as u64);
        w.key("engines_built");
        w.num_u64(self.session.engines_built() as u64);
        write_cache_stats(&mut w, &self.session.caches());
        let fanin = self.session.routing_fanin();
        w.key("routing_fanin");
        w.obj_begin();
        w.key("postings_touched");
        w.num_u64(fanin.postings_touched);
        w.key("directory_touched");
        w.num_u64(fanin.directory_touched);
        w.obj_end();
        w.obj_end();
        if let Some(corpus) = self.session.corpus() {
            w.key("corpus");
            w.obj_begin();
            w.key("documents");
            w.num_u64(corpus.len() as u64);
            w.key("total_nodes");
            w.num_u64(corpus.total_nodes() as u64);
            w.key("rejected");
            w.num_u64(corpus.rejected().len() as u64);
            w.key("rejected_dropped");
            w.num_u64(corpus.rejected_dropped());
            w.key("epoch");
            w.num_u64(corpus.epoch());
            w.obj_end();
        }
        w.obj_end();
        w.finish()
    }
}

/// The result caches by their wire names — one table behind `/stats`
/// and `/metrics`, for the static and the live app alike.
fn cache_counters(caches: &SessionCaches) -> [(&'static str, CacheStats); 3] {
    [
        ("page_cache", caches.page_stats()),
        ("corpus_page_cache", caches.corpus_page_stats()),
        ("snippet_cache", caches.snippet_stats()),
    ]
}

/// The cache members of `/stats`' `session` object: per-cache counters,
/// then the rendered `/search` bytes the corpus page cache holds.
pub(crate) fn write_cache_stats(w: &mut JsonWriter, caches: &SessionCaches) {
    for (name, stats) in cache_counters(caches) {
        w.key(name);
        w.obj_begin();
        w.key("hits");
        w.num_u64(stats.hits);
        w.key("misses");
        w.num_u64(stats.misses);
        w.key("evictions");
        w.num_u64(stats.evictions);
        w.obj_end();
    }
    w.key("corpus_page_body_bytes");
    w.num_u64(caches.corpus_page_body_bytes() as u64);
}

/// The cache families of `/metrics`: hit/miss/eviction counters per
/// cache, and the rendered `/search` bytes the corpus page cache holds.
pub(crate) fn write_cache_metrics(w: &mut PromWriter, caches: &SessionCaches) {
    w.help("extract_cache_events_total", "Session cache hits/misses/evictions.");
    w.type_("extract_cache_events_total", "counter");
    for (cache, stats) in cache_counters(caches) {
        for (event, value) in [
            ("hit", stats.hits),
            ("miss", stats.misses),
            ("eviction", stats.evictions),
        ] {
            w.sample_u64(
                "extract_cache_events_total",
                &[("cache", cache), ("event", event)],
                value,
            );
        }
    }
    w.help(
        "extract_corpus_page_cache_body_bytes",
        "Rendered /search result bytes held by the corpus page cache.",
    );
    w.type_("extract_corpus_page_cache_body_bytes", "gauge");
    w.sample_u64(
        "extract_corpus_page_cache_body_bytes",
        &[],
        caches.corpus_page_body_bytes() as u64,
    );
}

/// Validate `/search` parameters exactly once for both the static and
/// the live app: a missing/blank `q` or an unparseable number is a
/// `400`, `k` is clamped to `max_k` (the clamp is visible in the
/// response's `k` field).
pub(crate) fn parse_search_params<'r>(
    request: &'r Request,
    config: &SearchAppConfig,
) -> Result<(&'r str, usize, usize), Response> {
    let Some(q) = request.param("q").filter(|q| !q.trim().is_empty()) else {
        return Err(Response::error(400, "missing query parameter q"));
    };
    let k = match request.param("k") {
        None => config.default_k,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k >= 1 => k.min(config.max_k),
            _ => return Err(Response::error(400, "k must be an integer >= 1")),
        },
    };
    let offset = match request.param("offset") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(offset) => offset,
            Err(_) => {
                return Err(Response::error(400, "offset must be a non-negative integer"))
            }
        },
    };
    Ok((q, k, offset))
}

/// The `/search` body over any session — shared by [`SearchApp`] and the
/// live app so the wire format (field order included — the router's
/// merge path pins it) has exactly one producer.
///
/// The `results` array is the expensive part (ten snippet trees walked to
/// XML, then escaped into JSON), and it is a pure function of the page —
/// so it is rendered once per page-cache entry and kept in the entry
/// ([`CorpusTopK::rendered`]). A page hit splices those bytes behind the
/// request's own header fields: the page key holds the *normalized*
/// query while `"query"` echoes the *raw* one, so the echo is never
/// cached.
pub(crate) fn search_body(
    session: &QuerySession<'_>,
    snippet: &ExtractConfig,
    q: &str,
    k: usize,
    offset: usize,
) -> String {
    // `answer_corpus_topk` times its own `search` and `snippet`
    // stages; rendering the results is this request's `serialize` span —
    // recorded by the request that renders, so a page hit records none.
    let page = session.answer_corpus_topk(q, snippet, k, offset);
    let results = page.rendered.get_or_init(|| {
        extract_obs::time_stage(Stage::Serialize, || render_results(&page, session.corpus()))
    });
    let mut w = JsonWriter::with_capacity(HEADER_CAPACITY + q.len() + results.len());
    w.obj_begin();
    w.key("query");
    w.str(q);
    w.key("k");
    w.num_u64(page.k as u64);
    w.key("offset");
    w.num_u64(page.offset as u64);
    w.key("total");
    w.num_u64(page.total as u64);
    w.key("count");
    w.num_u64(page.results.len() as u64);
    w.key("results");
    w.raw(results);
    w.obj_end();
    w.finish()
}

/// Buffer room for what a `/search` body holds besides the raw query
/// and the results array — six keys, four integers, punctuation (a
/// sizing hint: the buffer grows if a body ever needs more).
const HEADER_CAPACITY: usize = 128;

/// One page's `results` array, as JSON.
fn render_results(page: &CorpusTopK, corpus: Option<&Corpus>) -> Box<str> {
    let mut w = JsonWriter::new();
    w.arr_begin();
    for answer in page.results.iter() {
        w.obj_begin();
        w.key("doc");
        match corpus {
            Some(corpus) => w.str(corpus.name(answer.doc)),
            None => w.str("document"),
        }
        w.key("doc_id");
        w.num_u64(answer.doc.index() as u64);
        w.key("root");
        w.num_u64(answer.result.result.root.index() as u64);
        w.key("score");
        w.num_f64(answer.score);
        w.key("snippet");
        w.str(&answer.result.snippet.to_xml());
        w.obj_end();
    }
    w.arr_end();
    w.finish().into_boxed_str()
}

/// Convenience: the borrow-friendly pieces a daemon needs, wired together
/// over one corpus — bind, build the app, attach the handle, serve until
/// shutdown. `cache_capacity` sizes the session caches (0 disables).
/// Requests are answered on the *server's* worker pool, so the session's
/// own batch pool is left at one thread. Returns when the server has
/// drained; `on_ready` runs once the socket is accepting.
pub fn serve_corpus(
    corpus: &Corpus,
    addr: &str,
    serve_config: extract_serve::ServeConfig,
    app_config: SearchAppConfig,
    cache_capacity: usize,
    on_ready: impl FnOnce(std::net::SocketAddr, ServerHandle),
) -> std::io::Result<()> {
    let server = extract_serve::Server::bind(addr, serve_config)?;
    let handle = server.handle();
    let session = QuerySession::from_corpus_with_options(corpus, 1, cache_capacity);
    let mut app = SearchApp::new(session, app_config);
    app.attach_server(handle.clone());
    on_ready(server.local_addr(), handle);
    server.run(|request| app.handle(request));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_corpus::CorpusBuilder;
    use extract_serve::json::{self, Value};

    fn tiny_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document(
            "stores",
            "<stores><store><name>Levis \"Quoted\" &amp; Co</name>\
             <state>Texas</state></store></stores>",
        )
        .unwrap();
        b.add_document("broken", "<oops>").unwrap_err();
        b.add_document(
            "papers",
            "<dblp><paper><title>texas snippets</title><venue>VLDB</venue></paper></dblp>",
        )
        .unwrap();
        b.finish()
    }

    fn request(method: &str, path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            http11: true,
            keep_alive: true,
            trace_id: None,
            body: Vec::new(),
        }
    }

    #[test]
    fn search_returns_valid_json_pages() {
        let corpus = tiny_corpus();
        let app =
            SearchApp::new(QuerySession::from_corpus(&corpus), SearchAppConfig::default());
        let resp = app.handle(&request("GET", "/search", &[("q", "texas")]));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        let v = json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("query").and_then(Value::as_str), Some("texas"));
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(2));
        let results = v.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        let docs: Vec<&str> =
            results.iter().filter_map(|r| r.get("doc").and_then(Value::as_str)).collect();
        assert_eq!(docs, ["stores", "papers"]);
        for r in results {
            assert!(r.get("snippet").and_then(Value::as_str).is_some());
            assert!(r.get("score").and_then(Value::as_f64).is_some());
        }
    }

    #[test]
    fn search_pagination_and_clamping() {
        let corpus = tiny_corpus();
        let app = SearchApp::new(
            QuerySession::from_corpus(&corpus),
            SearchAppConfig { max_k: 1, ..Default::default() },
        );
        // k clamped to max_k = 1; the clamp is visible.
        let resp = app.handle(&request("GET", "/search", &[("q", "texas"), ("k", "50")]));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(2));
        // Second page.
        let resp = app.handle(&request(
            "GET",
            "/search",
            &[("q", "texas"), ("k", "1"), ("offset", "1")],
        ));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("offset").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(1));
        // Past the end: empty page, exact total.
        let resp = app.handle(&request(
            "GET",
            "/search",
            &[("q", "texas"), ("k", "1"), ("offset", "99")],
        ));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn bad_requests_are_400_not_panics() {
        let corpus = tiny_corpus();
        let app =
            SearchApp::new(QuerySession::from_corpus(&corpus), SearchAppConfig::default());
        for (path, query) in [
            ("/search", vec![]),
            ("/search", vec![("q", "  ")]),
            ("/search", vec![("q", "texas"), ("k", "0")]),
            ("/search", vec![("q", "texas"), ("k", "-3")]),
            ("/search", vec![("q", "texas"), ("k", "abc")]),
            ("/search", vec![("q", "texas"), ("offset", "-1")]),
        ] {
            let resp = app.handle(&request("GET", path, &query));
            assert_eq!(resp.status, 400, "{path} {query:?}");
            json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("error body is JSON");
        }
        assert_eq!(app.handle(&request("GET", "/nope", &[])).status, 404);
        assert_eq!(app.handle(&request("POST", "/search", &[("q", "x")])).status, 405);
        assert_eq!(app.handle(&request("GET", "/shutdown", &[])).status, 405);
        // /shutdown without an attached server is a 503, not a panic.
        assert_eq!(app.handle(&request("POST", "/shutdown", &[])).status, 503);
    }

    #[test]
    fn stats_report_corpus_rejections_and_caches() {
        let corpus = tiny_corpus();
        let app =
            SearchApp::new(QuerySession::from_corpus(&corpus), SearchAppConfig::default());
        app.handle(&request("GET", "/search", &[("q", "texas")]));
        app.handle(&request("GET", "/search", &[("q", "texas")]));
        let resp = app.handle(&request("GET", "/stats", &[]));
        assert_eq!(resp.status, 200);
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let corpus_stats = v.get("corpus").expect("corpus section");
        assert_eq!(corpus_stats.get("documents").and_then(Value::as_u64), Some(2));
        assert_eq!(corpus_stats.get("rejected").and_then(Value::as_u64), Some(1));
        let session = v.get("session").expect("session section");
        assert!(
            session
                .get("corpus_page_cache")
                .and_then(|c| c.get("hits"))
                .and_then(Value::as_u64)
                .unwrap()
                >= 1,
            "repeat query must hit the page cache: {session:?}"
        );
        assert!(session.get("routing_fanin").is_some());
        assert!(v.get("server").is_none(), "no server attached");
        // Snippets containing XML quotes survive the JSON layer.
        let page = app.render_search("levis quoted", 5, 0);
        json::parse(&page).expect("quoted snippet stays valid JSON");
    }

    #[test]
    fn metrics_and_traces_require_an_attached_server() {
        let corpus = tiny_corpus();
        let app =
            SearchApp::new(QuerySession::from_corpus(&corpus), SearchAppConfig::default());
        assert_eq!(app.handle(&request("GET", "/metrics", &[])).status, 503);
        assert_eq!(app.handle(&request("GET", "/debug/traces", &[])).status, 503);
        assert_eq!(app.handle(&request("POST", "/metrics", &[])).status, 405);
        assert_eq!(app.handle(&request("POST", "/debug/traces", &[])).status, 405);
    }

    #[test]
    fn healthz_is_trivially_green() {
        let corpus = tiny_corpus();
        let app =
            SearchApp::new(QuerySession::from_corpus(&corpus), SearchAppConfig::default());
        let resp = app.handle(&request("GET", "/healthz", &[]));
        assert_eq!(resp.status, 200);
        assert_eq!(std::str::from_utf8(&resp.body).unwrap(), r#"{"ok":true}"#);
    }
}
