//! The search application: [`LiveSearchApp`] maps `extract-serve`
//! requests onto per-request [`QuerySession`]s over an epoch-swapped
//! [`LiveCorpus`], with **zero downtime** — the daemon keeps answering
//! `/search` while documents are added, updated and deleted.
//!
//! | route | method | answer |
//! |-------|--------|--------|
//! | `/search?q=…&k=…&offset=…` | `GET` | one ranked, snippeted result page ([`search_body`]) |
//! | `/ingest?name=…` (XML body) | `POST` | add or update one document |
//! | `/delete?doc=…` | `POST` | remove one document |
//! | `/stats` | `GET` | server + session + corpus counters |
//! | `/metrics` | `GET` | Prometheus text exposition (counters, stage and mutation histograms) |
//! | `/debug/traces` | `GET` | the flight recorder (recent request traces) as JSON |
//! | `/healthz` | `GET` | liveness probe (`503` once draining) |
//! | `/shutdown` | `POST` | begin graceful drain |
//!
//! `/search` answers carry the snapshot they were computed against in two
//! headers: `X-Corpus-Epoch`, and `X-Corpus-Slots` — the slots its ids
//! span ([`Corpus::id_span`](extract_corpus::Corpus::id_span): through
//! the highest live slot), the width of the shard's doc-id range, which
//! the router places the answer's ids by. A slot freed below a live one
//! stays in the span, so such a delete keeps every other document's
//! global id.
//!
//! The concurrency model is RCU-shaped and entirely `std`-safe:
//!
//! * Readers ([`LiveSearchApp::handle`]) clone the current
//!   `Arc<Corpus>` snapshot and build a per-request [`QuerySession`] over
//!   it ([`QuerySession::for_snapshot`] — a borrow and an `Arc` clone; the
//!   documents' engines are the snapshot's). An in-flight query keeps its
//!   snapshot alive through the `Arc`, so a concurrent mutation can never
//!   pull the corpus out from under it — the query completes against the
//!   world it started in.
//! * The writer ([`LiveCorpus::ingest`] / [`LiveCorpus::delete`])
//!   builds the engine of the one document it was handed, edits that
//!   document's directory entries, bumps the corpus **epoch** and
//!   publishes a new snapshot sharing everything else with the old one —
//!   every untouched document's entry and engine included. Readers that
//!   start after the publish see the new world; readers that started
//!   before finish on the old one.
//!
//! Caches stay **warm across epochs** because one [`SessionCaches`]
//! bundle outlives every per-request session. Correctness across
//! mutations is carried by the cache keys, not by flushing wholesale:
//!
//! * snippet keys carry generational [`DocId`]s — a deleted slot that is
//!   reused gets a **new generation**, so the old document's snippets
//!   can never be served for the new one (the ABA hazard the
//!   generational arena exists to kill);
//! * page keys carry the corpus **epoch** — whole-corpus aggregates are
//!   retired per mutation ([`SessionCaches::retire_pages_before`]);
//! * rankings are keyed by the normalized query alone and carry the
//!   generational [`DocId`]s they ranked: a request diffs them against its
//!   own snapshot's routes before serving any of them, drops the results
//!   of a document that left and ranks one that arrived alone, so a
//!   mutation costs the rankings it touches one document's work each, not
//!   a search over the whole corpus — for a reader on any snapshot, an
//!   in-flight one included;
//! * the snippets of a dead generation — the replaced one on update, the
//!   deleted one on delete — are purged eagerly
//!   ([`SessionCaches::invalidate_doc`]); untouched documents keep their
//!   snippets and engines, which is what keeps cache-hot latency flat
//!   through a mutation burst.

use std::sync::Arc;

use std::time::Instant;

use extract_corpus::{LiveCorpus, Mutation};
use extract_obs::{MutationObs, MutationOp, MutationPhase, PromWriter};
use extract_serve::obs_http;
use extract_serve::{JsonWriter, Request, Response, ServerHandle};

use crate::serve::{search_body, write_cache_metrics, write_cache_stats, SearchAppConfig};
use crate::session::{QuerySession, SessionCaches};

/// The routing + rendering layer between [`extract_serve::Server`] and a
/// mutable corpus.
#[derive(Debug)]
pub struct LiveSearchApp {
    corpus: LiveCorpus,
    caches: Arc<SessionCaches>,
    /// What each mutation cost, by phase (`/metrics`).
    mutations: MutationObs,
    config: SearchAppConfig,
    server: Option<ServerHandle>,
}

impl LiveSearchApp {
    /// Wrap a live corpus; `cache_capacity` sizes the shared cache
    /// bundle (0 disables result caching).
    pub fn new(corpus: LiveCorpus, config: SearchAppConfig, cache_capacity: usize) -> LiveSearchApp {
        LiveSearchApp {
            corpus,
            caches: Arc::new(SessionCaches::new(cache_capacity)),
            mutations: MutationObs::new(),
            config,
            server: None,
        }
    }

    /// Wire the running server in (enables `/shutdown` and the `server`
    /// section of `/stats`).
    pub fn attach_server(&mut self, handle: ServerHandle) {
        self.server = Some(handle);
    }

    /// The live corpus behind the app.
    pub fn corpus(&self) -> &LiveCorpus {
        &self.corpus
    }

    /// The shared cache bundle (tests read its counters).
    pub fn caches(&self) -> &Arc<SessionCaches> {
        &self.caches
    }

    /// Route one request. Infallible: every outcome is a `Response`.
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/search") => self.search(request),
            ("POST", "/ingest") => self.ingest(request),
            ("POST", "/delete") => self.delete(request),
            ("GET", "/stats") => Response::json(200, self.render_stats()),
            ("GET", "/healthz") => {
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
            ("GET", "/debug/traces") => obs_http::traces_route(self.server.as_ref()),
            ("POST", "/shutdown") => obs_http::shutdown_route(self.server.as_ref()),
            (_, "/search" | "/ingest" | "/delete" | "/stats" | "/healthz" | "/shutdown"
            | "/metrics" | "/debug/traces") => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        }
    }

    /// `/search` against the **current snapshot**: the per-request
    /// session shares the long-lived cache bundle, so a hot query is one
    /// `Arc` clone, one page-cache lookup and a copy of the entry's
    /// already-rendered results into the response.
    fn search(&self, request: &Request) -> Response {
        let (q, k, offset) = match request.search_params(self.config.default_k, self.config.max_k) {
            Ok(params) => params,
            Err(response) => return response,
        };
        let snapshot = self.corpus.snapshot();
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&self.caches));
        let body = search_body(&session, &self.config.snippet, q, k, offset);
        Response::json(200, body)
            .with_corpus_epoch(snapshot.epoch())
            .with_corpus_slots(snapshot.id_span() as u64)
    }

    /// `POST /ingest?name=…` with the XML document as the request body:
    /// add a new document, or update the one already ingested under
    /// `name` in place (same slot, new generation). Malformed XML is a
    /// soft-reject `400` — the corpus, its epoch and every in-flight
    /// query are untouched.
    fn ingest(&self, request: &Request) -> Response {
        let Some(name) = request.param("name").filter(|n| !n.trim().is_empty()) else {
            return Response::error(400, "missing query parameter name");
        };
        let Ok(xml) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body is not UTF-8");
        };
        if xml.trim().is_empty() {
            return Response::error(400, "request body is empty — send the XML document");
        }
        match self.corpus.ingest(name, xml) {
            Ok(mutation) => {
                self.apply_invalidation(MutationOp::Ingest, &mutation);
                let mut w = JsonWriter::new();
                w.obj_begin();
                w.key("ingested");
                w.str(name);
                w.key("doc_id");
                w.num_u64(mutation.id.index() as u64);
                w.key("generation");
                w.num_u64(u64::from(mutation.id.generation()));
                w.key("updated");
                w.bool(mutation.replaced.is_some());
                w.key("epoch");
                w.num_u64(mutation.epoch);
                w.obj_end();
                Response::json(200, w.finish()).with_corpus_epoch(mutation.epoch)
            }
            Err(e) => Response::error(400, &format!("rejected: {e}")),
        }
    }

    /// `POST /delete?doc=…`: remove the document ingested under that
    /// name. Unknown names are a `404`; the corpus is untouched.
    fn delete(&self, request: &Request) -> Response {
        let Some(name) = request.param("doc").filter(|n| !n.trim().is_empty()) else {
            return Response::error(400, "missing query parameter doc");
        };
        match self.corpus.delete(name) {
            Some(mutation) => {
                self.apply_invalidation(MutationOp::Delete, &mutation);
                let mut w = JsonWriter::new();
                w.obj_begin();
                w.key("deleted");
                w.str(name);
                w.key("epoch");
                w.num_u64(mutation.epoch);
                w.obj_end();
                Response::json(200, w.finish()).with_corpus_epoch(mutation.epoch)
            }
            None => Response::error(404, "no such document"),
        }
    }

    /// Per-mutation cache hygiene: purge the snippets of the generation
    /// the mutation killed — the replaced one of an update, the deleted
    /// one of a delete; an ingest's own id is live, and a reader may
    /// already have cached valid snippets of it from the just-published
    /// snapshot — and retire result pages of every earlier epoch. Nothing
    /// else is touched — untouched documents stay cache-hot, and rankings
    /// are patched by the readers that find them. Then the
    /// mutation's cost goes on record, this phase included (a delete's
    /// parse and index are not series: dropped).
    fn apply_invalidation(&self, op: MutationOp, mutation: &Mutation) {
        let started = Instant::now();
        let dead = match op {
            MutationOp::Ingest => mutation.replaced,
            MutationOp::Delete => Some(mutation.id),
        };
        if let Some(dead) = dead {
            self.caches.invalidate_doc(dead);
        }
        self.caches.retire_pages_before(mutation.epoch);
        let invalidate = started.elapsed();
        for (phase, took) in [
            (MutationPhase::Parse, mutation.cost.parse),
            (MutationPhase::Index, mutation.cost.index),
            (MutationPhase::Publish, mutation.cost.publish),
            (MutationPhase::Invalidate, invalidate),
        ] {
            self.mutations.record(op, phase, took);
        }
    }

    /// The `/metrics` body: server counters and request-stage latency
    /// histograms (via [`obs_http`]), the session's cache families, the
    /// mutation cost histograms and the corpus gauges, in Prometheus text
    /// exposition format.
    fn metrics(&self) -> Response {
        let Some(handle) = &self.server else {
            return Response::error(503, "no server attached");
        };
        let snapshot = self.corpus.snapshot();
        let mut w = PromWriter::new();
        obs_http::write_server_metrics(&mut w, handle);
        write_cache_metrics(&mut w, &self.caches);
        self.mutations.write_metrics(&mut w);
        w.help("extract_corpus_documents", "Live documents in the served corpus.");
        w.type_("extract_corpus_documents", "gauge");
        w.sample_u64("extract_corpus_documents", &[], snapshot.len() as u64);
        w.help("extract_corpus_epoch", "Corpus epoch (bumped per mutation).");
        w.type_("extract_corpus_epoch", "gauge");
        w.sample_u64("extract_corpus_epoch", &[], snapshot.epoch());
        obs_http::metrics_response(w)
    }

    /// The `/stats` body: server counters (when attached) and the session
    /// caches' counters, then the corpus — live document count, bounded
    /// rejection counters and `epoch`; the router's `/stats` reports each
    /// shard's `corpus.documents` and `corpus.epoch` from here.
    pub fn render_stats(&self) -> String {
        let snapshot = self.corpus.snapshot();
        let (rejected, rejected_dropped) = self.corpus.rejection_stats();
        let mut w = JsonWriter::new();
        w.obj_begin();
        if let Some(handle) = &self.server {
            w.key("server");
            w.obj_begin();
            for (name, _, _, value) in obs_http::server_counters(&handle.stats()) {
                w.key(name);
                w.num_u64(value);
            }
            w.obj_end();
        }
        w.key("session");
        w.obj_begin();
        write_cache_stats(&mut w, &self.caches);
        w.obj_end();
        w.key("corpus");
        w.obj_begin();
        w.key("documents");
        w.num_u64(snapshot.len() as u64);
        w.key("total_nodes");
        w.num_u64(snapshot.total_nodes() as u64);
        w.key("rejected");
        w.num_u64(rejected as u64);
        w.key("rejected_dropped");
        w.num_u64(rejected_dropped);
        w.key("epoch");
        w.num_u64(snapshot.epoch());
        w.obj_end();
        w.obj_end();
        w.finish()
    }
}

/// Bind, serve and mutate until shutdown: bind, build the app, attach the
/// handle, serve. The app owns the corpus (no borrow: snapshots are
/// `Arc`-shared), so the daemon can apply mutations for as long as it
/// serves. `cache_capacity` sizes the session caches (0 disables).
/// Requests are answered on the server's worker threads, each request's
/// session on the thread that took it. Returns when the server has
/// drained; `on_ready` runs once the socket is accepting.
pub fn serve_live(
    corpus: LiveCorpus,
    addr: &str,
    serve_config: extract_serve::ServeConfig,
    app_config: SearchAppConfig,
    cache_capacity: usize,
    on_ready: impl FnOnce(std::net::SocketAddr, ServerHandle),
) -> std::io::Result<()> {
    let server = extract_serve::Server::bind(addr, serve_config)?;
    let handle = server.handle();
    let mut app = LiveSearchApp::new(corpus, app_config, cache_capacity);
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

    fn app() -> LiveSearchApp {
        let mut b = CorpusBuilder::new();
        b.add_document(
            "stores",
            "<stores><store><name>Levis</name><state>Texas</state></store></stores>",
        )
        .unwrap();
        b.add_document(
            "papers",
            "<dblp><paper><title>texas snippets</title><venue>VLDB</venue></paper></dblp>",
        )
        .unwrap();
        LiveSearchApp::new(
            LiveCorpus::from_corpus(b.finish()),
            SearchAppConfig::default(),
            4096,
        )
    }

    fn get(app: &LiveSearchApp, path: &str, query: &[(&str, &str)]) -> Response {
        request(app, "GET", path, query, b"")
    }

    fn request(
        app: &LiveSearchApp,
        method: &str,
        path: &str,
        query: &[(&str, &str)],
        body: &[u8],
    ) -> Response {
        app.handle(&Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            http11: true,
            keep_alive: true,
            trace_id: None,
            body: body.to_vec(),
        })
    }

    fn body_json(response: &Response) -> Value {
        json::parse(std::str::from_utf8(&response.body).unwrap()).expect("valid JSON")
    }

    fn result_docs(response: &Response) -> Vec<String> {
        body_json(response)
            .get("results")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|r| r.get("doc").and_then(Value::as_str))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn search_carries_the_corpus_epoch() {
        let app = app();
        let resp = get(&app, "/search", &[("q", "texas")]);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.corpus_epoch, Some(0));
        assert_eq!(result_docs(&resp), ["stores", "papers"]);
    }

    #[test]
    fn search_carries_the_id_span_which_a_low_delete_keeps() {
        let app = app();
        assert_eq!(get(&app, "/search", &[("q", "texas")]).corpus_slots, Some(2));
        let resp = request(&app, "POST", "/delete", &[("doc", "stores")], b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.corpus_slots, None, "only /search answers carry the width");
        let after = get(&app, "/search", &[("q", "texas")]);
        assert_eq!(after.corpus_slots, Some(2), "a slot freed below a live one stays");
        assert_eq!(result_docs(&after), ["papers"]);
        let ohio = b"<stores><store><name>Gap</name><state>Ohio</state></store></stores>";
        for name in ["ohio", "more"] {
            let resp = request(&app, "POST", "/ingest", &[("name", name)], ohio);
            assert_eq!(resp.status, 200);
        }
        assert_eq!(get(&app, "/search", &[("q", "texas")]).corpus_slots, Some(3));
        let resp = request(&app, "POST", "/delete", &[("doc", "more")], b"");
        assert_eq!(resp.status, 200);
        let after = get(&app, "/search", &[("q", "texas")]);
        assert_eq!(after.corpus_slots, Some(2), "an undone ingest leaves the width");
    }

    #[test]
    fn ingest_answers_new_queries_without_restart() {
        let app = app();
        let before = get(&app, "/search", &[("q", "gap ohio")]);
        assert_eq!(result_docs(&before), Vec::<String>::new());
        let resp = request(
            &app,
            "POST",
            "/ingest",
            &[("name", "ohio")],
            b"<stores><store><name>Gap</name><state>Ohio</state></store></stores>",
        );
        assert_eq!(resp.status, 200, "{:?}", std::str::from_utf8(&resp.body));
        let v = body_json(&resp);
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("updated"), Some(&Value::Bool(false)));
        let after = get(&app, "/search", &[("q", "gap ohio")]);
        assert_eq!(after.corpus_epoch, Some(1));
        assert_eq!(result_docs(&after), ["ohio"]);
    }

    #[test]
    fn delete_empties_results_and_bumps_epoch() {
        let app = app();
        // Warm the caches on the doomed document first.
        let warm = get(&app, "/search", &[("q", "levis")]);
        assert_eq!(result_docs(&warm), ["stores"]);
        let resp = request(&app, "POST", "/delete", &[("doc", "stores")], b"");
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp).get("epoch").and_then(Value::as_u64), Some(1));
        let after = get(&app, "/search", &[("q", "levis")]);
        assert_eq!(after.corpus_epoch, Some(1));
        assert_eq!(result_docs(&after), Vec::<String>::new(), "no stale page served");
        // Unknown name → 404, corpus untouched.
        let missing = request(&app, "POST", "/delete", &[("doc", "stores")], b"");
        assert_eq!(missing.status, 404);
        assert_eq!(app.corpus().epoch(), 1);
    }

    #[test]
    fn update_in_place_replaces_the_served_snippet() {
        let app = app();
        let before = get(&app, "/search", &[("q", "levis")]);
        assert_eq!(result_docs(&before), ["stores"]);
        let resp = request(
            &app,
            "POST",
            "/ingest",
            &[("name", "stores")],
            b"<stores><store><name>Wrangler</name><state>Texas</state></store></stores>",
        );
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp).get("updated"), Some(&Value::Bool(true)));
        // The old content is gone, the new is found — same document name.
        assert_eq!(result_docs(&get(&app, "/search", &[("q", "levis")])), Vec::<String>::new());
        assert_eq!(result_docs(&get(&app, "/search", &[("q", "wrangler")])), ["stores"]);
    }

    #[test]
    fn malformed_ingest_is_soft_rejected() {
        let app = app();
        for (query, body) in [
            (vec![], b"<x/>".to_vec()),                     // no name
            (vec![("name", "bad")], b"<oops>".to_vec()),    // malformed XML
            (vec![("name", "bad")], Vec::new()),            // empty body
            (vec![("name", "bad")], vec![0xFF, 0xFE]),      // not UTF-8
        ] {
            let resp = request(&app, "POST", "/ingest", &query, &body);
            assert_eq!(resp.status, 400, "{query:?}");
        }
        assert_eq!(app.corpus().epoch(), 0, "rejects never bump the epoch");
        let (rejected, dropped) = app.corpus().rejection_stats();
        assert_eq!((rejected, dropped), (1, 0), "only the parse failure is logged");
    }

    #[test]
    fn stats_report_epoch_live_docs_and_rejections() {
        let app = app();
        request(&app, "POST", "/ingest", &[("name", "bad")], b"<oops>");
        request(&app, "POST", "/delete", &[("doc", "papers")], b"");
        let v = body_json(&get(&app, "/stats", &[]));
        let corpus = v.get("corpus").expect("corpus section");
        assert_eq!(corpus.get("documents").and_then(Value::as_u64), Some(1));
        assert_eq!(corpus.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(corpus.get("rejected").and_then(Value::as_u64), Some(1));
        assert_eq!(corpus.get("rejected_dropped").and_then(Value::as_u64), Some(0));
        assert!(v.get("session").is_some());
    }

    // An ingest's own id is the live generation: invalidating it would
    // throw away snippets a reader cached from the just-published
    // snapshot. Only the dead generation is purged.
    #[test]
    fn an_ingest_keeps_the_new_documents_cached_snippets() {
        let app = app();
        let xml = "<stores><store><name>Gap</name><state>Ohio</state></store>\
                   <store><name>Gap Kids</name><state>Ohio</state></store></stores>";
        let mutation = app.corpus().ingest("ohio", xml).expect("well-formed");
        let page = get(&app, "/search", &[("q", "gap ohio"), ("k", "2")]);
        assert_eq!(result_docs(&page), ["ohio", "ohio"]);
        app.apply_invalidation(MutationOp::Ingest, &mutation);
        let hits = app.caches().snippet_stats().hits;
        // Another window of the same query: a page miss whose snippet is
        // the one cached above.
        let window = get(&app, "/search", &[("q", "gap ohio"), ("k", "1")]);
        assert_eq!(result_docs(&window), ["ohio"]);
        assert!(app.caches().snippet_stats().hits > hits, "the live generation's snippet was purged");
    }

    #[test]
    fn method_confusion_is_405_not_a_mutation() {
        let app = app();
        assert_eq!(get(&app, "/ingest", &[("name", "x")]).status, 405);
        assert_eq!(get(&app, "/delete", &[("doc", "stores")]).status, 405);
        assert_eq!(request(&app, "POST", "/search", &[("q", "x")], b"").status, 405);
        assert_eq!(app.corpus().epoch(), 0);
    }
}
