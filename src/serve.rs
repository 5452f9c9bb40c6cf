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

use std::cell::RefCell;
use std::sync::Arc;

use extract_corpus::DocId;
use extract_core::{CacheStats, ExtractConfig};
use extract_obs::{PromWriter, Stage};
use extract_serve::JsonWriter;
use extract_xml::NodeId;

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

/// A counter one result cache keeps beyond hits, misses and evictions:
/// its `/stats` key, its `/metrics` event and its value.
type CacheExtra = (&'static str, &'static str, u64);

/// One result cache's row of [`cache_counters`]: its wire name, its
/// counters, the entries it holds and its own counter — the ranking
/// cache's hits served from a ranking patched to a mutation, the snippet
/// cache's inserts its door turned away.
type CacheRow = (&'static str, CacheStats, usize, Option<CacheExtra>);

/// The result caches by their wire names, each with its counters and the
/// entries it holds — one table behind `/stats` and `/metrics`.
fn cache_counters(caches: &SessionCaches) -> [CacheRow; 3] {
    let (pages, rankings, snippets) = caches.entries();
    let snippet_stats = caches.snippet_stats();
    let patches = ("patches", "patch", caches.ranking_patches());
    let rejections = ("rejections", "reject", snippet_stats.rejections);
    [
        ("corpus_page_cache", caches.corpus_page_stats(), pages, None),
        ("ranking_cache", caches.ranking_stats(), rankings, Some(patches)),
        ("snippet_cache", snippet_stats, snippets, Some(rejections)),
    ]
}

/// The cache members of `/stats`' `session` object: per-cache counters
/// and entries (and the ranking cache's `patches`, hits among its hits,
/// and the snippet cache's `rejections`), then what the caches hold —
/// rendered `/search` results in the page cache, rendered result objects
/// in the snippet cache, ranked results in the ranking cache.
pub(crate) fn write_cache_stats(w: &mut JsonWriter, caches: &SessionCaches) {
    for (name, stats, entries, extra) in cache_counters(caches) {
        w.key(name);
        w.obj_begin();
        w.key("hits");
        w.num_u64(stats.hits);
        w.key("misses");
        w.num_u64(stats.misses);
        w.key("evictions");
        w.num_u64(stats.evictions);
        w.key("entries");
        w.num_u64(entries as u64);
        if let Some((key, _, value)) = extra {
            w.key(key);
            w.num_u64(value);
        }
        w.obj_end();
    }
    w.key("corpus_page_body_bytes");
    w.num_u64(caches.corpus_page_body_bytes() as u64);
    w.key("snippet_cache_bytes");
    w.num_u64(caches.snippet_cache_bytes() as u64);
    w.key("ranking_cache_results");
    w.num_u64(caches.ranking_cache_results() as u64);
}

/// The cache families of `/metrics`: hit/miss/eviction counters (and the
/// ranking cache's patches and the snippet cache's rejections) and entries
/// per cache, the rendered `/search`
/// bytes the corpus page cache holds, the rendered result bytes the snippet
/// cache holds and the ranked results the ranking cache holds.
pub(crate) fn write_cache_metrics(w: &mut PromWriter, caches: &SessionCaches) {
    let counters = cache_counters(caches);
    w.help(
        "extract_cache_events_total",
        "Session cache hits/misses/evictions, ranking hits served patched, and snippet \
         inserts turned away at the door.",
    );
    w.type_("extract_cache_events_total", "counter");
    for (cache, stats, _, extra) in counters {
        let events = [("hit", stats.hits), ("miss", stats.misses), ("eviction", stats.evictions)];
        let extra = extra.map(|(_, event, value)| (event, value));
        for (event, value) in events.into_iter().chain(extra) {
            w.sample_u64(
                "extract_cache_events_total",
                &[("cache", cache), ("event", event)],
                value,
            );
        }
    }
    w.help("extract_cache_entries", "Entries held by each session cache.");
    w.type_("extract_cache_entries", "gauge");
    for (cache, _, entries, _) in counters {
        w.sample_u64("extract_cache_entries", &[("cache", cache)], entries as u64);
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
    w.help(
        "extract_snippet_cache_bytes",
        "Rendered /search result object bytes held by the snippet cache.",
    );
    w.type_("extract_snippet_cache_bytes", "gauge");
    w.sample_u64("extract_snippet_cache_bytes", &[], caches.snippet_cache_bytes() as u64);
    w.help("extract_ranking_cache_results", "Ranked results held by the ranking cache.");
    w.type_("extract_ranking_cache_results", "gauge");
    w.sample_u64("extract_ranking_cache_results", &[], caches.ranking_cache_results() as u64);
}

/// The `/search` body for `(q, k, offset)` over `session`'s snapshot —
/// the one producer of the wire format (field order included — the
/// router's merge path pins it): the daemon serves it, and tests call it
/// for a pinned snapshot to know the expected bytes without a socket.
///
/// The `results` array is most of the body. Each result's object was
/// written once, when its snippet was generated ([`result_object`]), and
/// the snippet cache keeps it, so a page miss writes its results' objects
/// into the body as they are and escapes nothing. The array is a pure
/// function of the page, so a page's first hit joins it once and keeps it
/// in the page-cache entry ([`CorpusTopK::rendered`]) — a page that is
/// never hit holds no body. A page hit splices those bytes behind the
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
    // stages; writing or joining the results is this request's `serialize`
    // span — recorded by the request that renders, so a page hit that
    // re-serves stored bytes records none.
    let page = session.answer_corpus_topk(q, snippet, k, offset);
    let rendered = page.hit.then(|| {
        page.rendered.get_or_init(|| {
            extract_obs::time_stage(Stage::Serialize, || render_results(&page))
        })
    });
    let results_len = rendered.map_or_else(|| results_len(&page), |results| results.len());
    let mut w = JsonWriter::with_capacity(HEADER_CAPACITY + q.len() + results_len);
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
    match rendered {
        Some(results) => w.raw(results),
        None => extract_obs::time_stage(Stage::Serialize, || {
            w.arr_begin();
            for answer in page.results.iter() {
                w.raw(answer.snippet.object());
            }
            w.arr_end();
        }),
    }
    w.obj_end();
    w.finish()
}

/// Buffer room for what a `/search` body holds besides the raw query
/// and the results array — six keys, four integers, punctuation (a
/// sizing hint: the buffer grows if a body ever needs more).
const HEADER_CAPACITY: usize = 128;

/// The room a thread's result writer starts with: more than all but the
/// rarest objects take (a snippet's XML averages ~150 bytes at the
/// daemon's bound), so serving does not grow it a doubling at a time.
const RESULT_ROOM: usize = 4096;

thread_local! {
    /// This thread's result writer: warm after its first snippet miss, so
    /// writing a result's object allocates nothing but the object.
    static RESULT: RefCell<JsonWriter> = RefCell::new(JsonWriter::with_capacity(RESULT_ROOM));
}

/// One result's object as `/search` serves it, `{"doc":…,"doc_id":…,
/// "root":…,"score":…,"snippet":…}` — the one producer of a result's
/// bytes, written into this thread's writer (a fresh one should it be in
/// use — it does not re-enter, so it never is) and handed out as one
/// allocation. Every byte is a function of the snippet cache's key: a
/// [`DocId`] pins the name and the slot, and the score depends on the
/// result's document alone — so the snippet cache keeps the object, and a
/// page joins what it holds ([`render_results`]).
pub(crate) fn result_object(
    name: &str,
    doc: DocId,
    root: NodeId,
    score: f64,
    snippet: &str,
) -> Arc<str> {
    let write = |w: &mut JsonWriter| {
        w.clear();
        w.obj_begin();
        w.key("doc");
        w.str(name);
        w.key("doc_id");
        w.num_u64(doc.index() as u64);
        w.key("root");
        w.num_u64(root.index() as u64);
        w.key("score");
        w.num_f64(score);
        w.key("snippet");
        w.str(snippet);
        w.obj_end();
        Arc::from(w.as_str())
    };
    RESULT.with(|cell| match cell.try_borrow_mut() {
        Ok(mut writer) => write(&mut writer),
        Err(_) => write(&mut JsonWriter::new()),
    })
}

/// The length of a page's `results` array: its results' objects, the
/// commas between them and the brackets.
fn results_len(page: &CorpusTopK) -> usize {
    let joined: usize = page.results.iter().map(|answer| answer.snippet.object().len()).sum();
    joined + page.results.len().saturating_sub(1) + 2
}

/// One page's `results` array, as JSON: its results' objects joined, into
/// a buffer of their size.
fn render_results(page: &CorpusTopK) -> Box<str> {
    let mut out = String::with_capacity(results_len(page));
    out.push('[');
    for (at, answer) in page.results.iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        out.push_str(answer.snippet.object());
    }
    out.push(']');
    out.into_boxed_str()
}

// The wire format's cases, driven the way the daemon serves them:
// through `LiveSearchApp::handle`, or `search_body` on a pinned snapshot.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveSearchApp;
    use extract_corpus::{Corpus, CorpusBuilder, LiveCorpus};
    use extract_serve::json::{self, Value};
    use extract_serve::Request;

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
        let session = QuerySession::from_corpus(&corpus, 64);
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

    /// A page's `/search` body is the same bytes whether the page missed,
    /// hit for the first time or hit again; the miss writes its results
    /// into its response and leaves the page cache no body, and the first
    /// hit stores the one the second hit serves.
    #[test]
    fn a_page_renders_its_body_on_its_first_hit() {
        let corpus = tiny_corpus();
        let session = QuerySession::from_corpus(&corpus, 64);
        let config = ExtractConfig::default();
        let body = || search_body(&session, &config, "Texas", 10, 0);
        let missed = body();
        assert_eq!(session.caches().corpus_page_stats().misses, 1);
        assert_eq!(session.caches().corpus_page_body_bytes(), 0, "a miss stores no body");
        let first_hit = body();
        let results = missed.split_once("\"results\":").map(|(_, rest)| rest.len() - 1);
        let stored = session.caches().corpus_page_body_bytes();
        assert_eq!(Some(stored), results, "the first hit stores the results array");
        let second_hit = body();
        assert_eq!(session.caches().corpus_page_stats().hits, 2);
        assert_eq!(first_hit, missed, "a first hit serves the miss's bytes");
        assert_eq!(second_hit, missed, "a second hit serves them again");
        let uncached = QuerySession::from_corpus(&corpus, 0);
        assert_eq!(search_body(&uncached, &config, "Texas", 10, 0), missed);
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
        // One ranking of "texas" (2 results) for its first page miss; the
        // repeat was a page hit and asked no ranking.
        let rankings = |v: &Value, key: &str| {
            let session = v.get("session").expect("session section");
            let cache = session.get("ranking_cache").expect("ranking cache");
            cache.get(key).and_then(Value::as_u64).expect("ranking cache counter")
        };
        let results = |v: &Value| {
            let session = v.get("session").expect("session section");
            session.get("ranking_cache_results").and_then(Value::as_u64)
        };
        let keys = ["hits", "misses", "evictions", "entries", "patches"];
        let counters = keys.map(|key| rankings(&v, key));
        assert_eq!(counters, [0, 1, 0, 1, 0], "{session:?}");
        assert_eq!(results(&v), Some(2), "{session:?}");
        // Another window of the query is a page miss served from that
        // ranking.
        app.handle(&request("GET", "/search", &[("q", "texas"), ("k", "1"), ("offset", "1")]));
        let resp = app.handle(&request("GET", "/stats", &[]));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let counters = keys.map(|key| rankings(&v, key));
        assert_eq!(counters, [1, 1, 0, 1, 0], "{v:?}");
        assert_eq!(results(&v), Some(2));
        // A delete of one of its documents: the next window is a page miss
        // served from the ranking patched to the one candidate left — a
        // hit, and a patch.
        let resp = app.handle(&request("POST", "/delete", &[("doc", "papers")]));
        assert_eq!(resp.status, 200);
        app.handle(&request("GET", "/search", &[("q", "texas")]));
        let resp = app.handle(&request("GET", "/stats", &[]));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let counters = keys.map(|key| rankings(&v, key));
        assert_eq!(counters, [2, 1, 0, 1, 1], "{v:?}");
        assert_eq!(results(&v), Some(1), "the patched ranking replaced the stored one");
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

    /// The snippet cache's door counts what it turns away: `/stats` reports
    /// it as the snippet cache's `rejections`, `/metrics` as its `reject`
    /// event.
    #[test]
    fn stats_and_metrics_report_snippet_rejections() {
        let app = LiveSearchApp::new(
            LiveCorpus::from_corpus(tiny_corpus()),
            SearchAppConfig::default(),
            1,
        );
        // "texas" has two results for a one-entry snippet cache: the second
        // is a first sight at a full cache, before the door saw anything.
        app.handle(&request("GET", "/search", &[("q", "texas")]));
        let resp = app.handle(&request("GET", "/stats", &[]));
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let cache = v.get("session").and_then(|s| s.get("snippet_cache")).expect("snippet cache");
        let counter = |key: &str| cache.get(key).and_then(Value::as_u64);
        assert_eq!(counter("rejections"), Some(1), "{cache:?}");
        assert_eq!((counter("entries"), counter("evictions")), (Some(1), Some(0)), "{cache:?}");
        let mut metrics = PromWriter::new();
        write_cache_metrics(&mut metrics, app.caches());
        let metrics = metrics.finish();
        let sample = "extract_cache_events_total{cache=\"snippet_cache\",event=\"reject\"} 1\n";
        assert!(metrics.contains(sample), "no {sample}:\n{metrics}");
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
