//! The `/search` wire format: [`SearchAppConfig`], request parameter
//! validation, the one `/search` body producer ([`search_body`]) and the
//! cache counters `/stats` and `/metrics` report. The routes themselves
//! live on [`LiveSearchApp`](crate::live::LiveSearchApp).
//!
//! `/search` is honest pagination end to end: [`search_body`] calls
//! [`QuerySession::answer_corpus_topk`], so snippet generation stops at
//! the page being served while `total` stays exact. `k` is clamped to
//! [`SearchAppConfig::max_k`] (the response reports the effective value);
//! a missing/empty `q` or an unparseable number is a `400`, never a
//! panic. Every body — including every error — is JSON from the
//! escape-correct writer, so clients can always parse what they get.

use extract_corpus::Corpus;
use extract_core::{CacheStats, ExtractConfig};
use extract_obs::{PromWriter, Stage};
use extract_serve::{JsonWriter, Request, Response};

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

/// The result caches by their wire names — one table behind `/stats`
/// and `/metrics`.
fn cache_counters(caches: &SessionCaches) -> [(&'static str, CacheStats); 2] {
    [
        ("corpus_page_cache", caches.corpus_page_stats()),
        ("snippet_cache", caches.snippet_stats()),
    ]
}

/// The cache members of `/stats`' `session` object: per-cache counters,
/// then the bytes each cache holds — rendered `/search` results in the
/// page cache, snippet XML in the snippet cache.
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
    w.key("snippet_cache_bytes");
    w.num_u64(caches.snippet_cache_bytes() as u64);
}

/// The cache families of `/metrics`: hit/miss/eviction counters per
/// cache, the rendered `/search` bytes the corpus page cache holds and the
/// snippet XML bytes the snippet cache holds.
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
    w.help("extract_snippet_cache_bytes", "Snippet XML bytes held by the snippet cache.");
    w.type_("extract_snippet_cache_bytes", "gauge");
    w.sample_u64("extract_snippet_cache_bytes", &[], caches.snippet_cache_bytes() as u64);
}

/// Validate `/search` parameters: a missing/blank `q` or an unparseable
/// number is a `400`, `k` is clamped to `max_k` (the clamp is visible in
/// the response's `k` field).
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

/// The `/search` body for `(q, k, offset)` over `session`'s snapshot —
/// the one producer of the wire format (field order included — the
/// router's merge path pins it): the daemon serves it, and tests call it
/// for a pinned snapshot to know the expected bytes without a socket.
///
/// The `results` array is the expensive part (ten snippets escaped into
/// JSON), and it is a pure function of the page —
/// so it is rendered once per page-cache entry and kept in the entry
/// ([`CorpusTopK::rendered`]). A page hit splices those bytes behind the
/// request's own header fields: the page key holds the *normalized*
/// query while `"query"` echoes the *raw* one, so the echo is never
/// cached.
pub fn search_body(
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

/// Buffer room for what one result holds besides its document name and
/// snippet — five keys, three numbers, punctuation (a sizing hint, like
/// [`HEADER_CAPACITY`]).
const RESULT_CAPACITY: usize = 112;

/// One page's `results` array, as JSON: each snippet's cached XML,
/// escaped — into a buffer sized for it up front.
fn render_results(page: &CorpusTopK, corpus: &Corpus) -> Box<str> {
    let bytes: usize = page
        .results
        .iter()
        .map(|answer| RESULT_CAPACITY + corpus.name(answer.doc).len() + answer.snippet.len())
        .sum();
    let mut w = JsonWriter::with_capacity(bytes + 2);
    w.arr_begin();
    for answer in page.results.iter() {
        w.obj_begin();
        w.key("doc");
        w.str(corpus.name(answer.doc));
        w.key("doc_id");
        w.num_u64(answer.doc.index() as u64);
        w.key("root");
        w.num_u64(answer.root.index() as u64);
        w.key("score");
        w.num_f64(answer.score);
        w.key("snippet");
        w.str(&answer.snippet);
        w.obj_end();
    }
    w.arr_end();
    w.finish().into_boxed_str()
}

// The wire format's cases, driven the way the daemon serves them:
// through `LiveSearchApp::handle`, or `search_body` on a pinned snapshot.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveSearchApp;
    use extract_corpus::{CorpusBuilder, LiveCorpus};
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

    fn app(config: SearchAppConfig) -> LiveSearchApp {
        LiveSearchApp::new(LiveCorpus::from_corpus(tiny_corpus()), config, 4096)
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
        let session = QuerySession::from_corpus(&corpus);
        let body = search_body(&session, &ExtractConfig::default(), "texas", 10, 0);
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
        let app = app(SearchAppConfig { max_k: 1, ..Default::default() });
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
        let app = app(SearchAppConfig::default());
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
        let app = app(SearchAppConfig::default());
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
        let snippet_bytes = session.get("snippet_cache_bytes").and_then(Value::as_u64);
        assert!(snippet_bytes.is_some_and(|b| b > 0), "snippet cache holds bytes: {session:?}");
        assert!(v.get("server").is_none(), "no server attached");
        // Snippets containing XML quotes survive the JSON layer.
        let resp = app.handle(&request("GET", "/search", &[("q", "levis quoted"), ("k", "5")]));
        let page = json::parse(std::str::from_utf8(&resp.body).unwrap())
            .expect("quoted snippet stays valid JSON");
        let snippet = page
            .get("results")
            .and_then(Value::as_arr)
            .and_then(|r| r.first())
            .and_then(|r| r.get("snippet"))
            .and_then(Value::as_str)
            .expect("the quoted store is found");
        assert!(snippet.contains("Levis \"Quoted\""), "{snippet}");
    }

    #[test]
    fn metrics_and_traces_require_an_attached_server() {
        let app = app(SearchAppConfig::default());
        assert_eq!(app.handle(&request("GET", "/metrics", &[])).status, 503);
        assert_eq!(app.handle(&request("GET", "/debug/traces", &[])).status, 503);
        assert_eq!(app.handle(&request("POST", "/metrics", &[])).status, 405);
        assert_eq!(app.handle(&request("POST", "/debug/traces", &[])).status, 405);
    }

    #[test]
    fn healthz_is_trivially_green() {
        let app = app(SearchAppConfig::default());
        let resp = app.handle(&request("GET", "/healthz", &[]));
        assert_eq!(resp.status, 200);
        assert_eq!(std::str::from_utf8(&resp.body).unwrap(), r#"{"ok":true}"#);
    }
}
