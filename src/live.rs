//! Live serving: mutation endpoints over an epoch-swapped [`LiveCorpus`],
//! with **zero downtime** — the daemon keeps answering `/search` while
//! documents are added, updated and deleted.
//!
//! The concurrency model is RCU-shaped and entirely `std`-safe:
//!
//! * Readers ([`LiveSearchApp::handle`]) clone the current
//!   `Arc<Corpus>` snapshot and build a cheap per-request
//!   [`QuerySession`] over it ([`QuerySession::for_snapshot`]). An
//!   in-flight query keeps its snapshot alive through the `Arc`, so a
//!   concurrent mutation can never pull the corpus out from under it —
//!   the query completes against the world it started in.
//! * The writer ([`LiveCorpus::ingest`] / [`LiveCorpus::delete`])
//!   indexes the one document it was handed, edits that document's
//!   directory entries, bumps the corpus **epoch** and publishes a new
//!   snapshot sharing everything else with the old one. Readers that
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
//! * per-document entries of a mutated document are purged eagerly
//!   ([`SessionCaches::invalidate_doc`]) — untouched documents keep
//!   their snippets and engine artifacts, which is what keeps cache-hot
//!   latency flat through a mutation burst.
//!
//! Routes on top of the static app's set:
//!
//! | route | method | answer |
//! |-------|--------|--------|
//! | `/ingest?name=…` (XML body) | `POST` | add or update one document |
//! | `/delete?doc=…` | `POST` | remove one document |
//!
//! `/search` answers additionally carry an `X-Corpus-Epoch` header so
//! the router can spot a mutated shard from the response itself.

use std::sync::Arc;

use std::time::Instant;

use extract_corpus::{LiveCorpus, Mutation};
use extract_obs::{MutationObs, MutationOp, MutationPhase, PromWriter};
use extract_serve::obs_http;
use extract_serve::{JsonWriter, Request, Response, ServerHandle};

use crate::serve::{
    parse_search_params, search_body, write_cache_metrics, write_cache_stats, SearchAppConfig,
};
use crate::session::{QuerySession, SessionCaches};

/// The live routing + rendering layer: the moral twin of
/// [`SearchApp`](crate::serve::SearchApp), over a mutable corpus.
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
            (_, "/search" | "/ingest" | "/delete" | "/stats" | "/healthz" | "/shutdown"
            | "/metrics" | "/debug/traces") => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        }
    }

    /// `/search` against the **current snapshot**: the per-request
    /// session shares the long-lived cache bundle, so a hot query is one
    /// `Arc` clone, a `Vec` of empty `OnceLock` slots, one page-cache
    /// lookup and a copy of the entry's already-rendered results into
    /// the response.
    fn search(&self, request: &Request) -> Response {
        let (q, k, offset) = match parse_search_params(request, &self.config) {
            Ok(params) => params,
            Err(response) => return response,
        };
        let snapshot = self.corpus.snapshot();
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&self.caches));
        let body = search_body(&session, &self.config.snippet, q, k, offset);
        Response::json(200, body).with_corpus_epoch(snapshot.epoch())
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

    /// Per-mutation cache hygiene: purge the mutated document's
    /// per-document entries (the dead generation on update/delete, the
    /// new id is trivially absent) and retire result pages of every
    /// earlier epoch. Nothing else is touched — untouched documents stay
    /// cache-hot. Then the mutation's cost goes on record, this phase
    /// included (a delete's parse and index are not series: dropped).
    fn apply_invalidation(&self, op: MutationOp, mutation: &Mutation) {
        let started = Instant::now();
        self.caches.invalidate_doc(mutation.id);
        if let Some(replaced) = mutation.replaced {
            self.caches.invalidate_doc(replaced);
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

    /// The `/metrics` body — the static app's families plus the mutation
    /// cost histograms and the corpus gauges.
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

    /// The `/stats` body: the static app's schema plus `epoch`, live
    /// document count and the bounded rejection counters — the router's
    /// doc-count bootstrap reads `corpus.documents` and `corpus.epoch`
    /// from here.
    pub fn render_stats(&self) -> String {
        let snapshot = self.corpus.snapshot();
        let (rejected, rejected_dropped) = self.corpus.rejection_stats();
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
        w.key("engines_cached");
        w.num_u64(self.caches.engines_cached() as u64);
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

/// Bind, serve and mutate until shutdown — the live counterpart of
/// [`serve_corpus`](crate::serve::serve_corpus). The app owns the
/// corpus (no borrow: snapshots are `Arc`-shared), so the daemon can
/// apply mutations for as long as it serves. Returns when the server
/// has drained; `on_ready` runs once the socket is accepting.
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
    let mut app = LiveSearchApp::new(
        corpus,
        app_config,
        cache_capacity,
    );
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
        assert_eq!(v.get("updated").and_then(Value::as_bool), Some(false));
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
        assert_eq!(body_json(&resp).get("updated").and_then(Value::as_bool), Some(true));
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

    #[test]
    fn method_confusion_is_405_not_a_mutation() {
        let app = app();
        assert_eq!(get(&app, "/ingest", &[("name", "x")]).status, 405);
        assert_eq!(get(&app, "/delete", &[("doc", "stores")]).status, 405);
        assert_eq!(request(&app, "POST", "/search", &[("q", "x")], b"").status, 405);
        assert_eq!(app.corpus().epoch(), 0);
    }
}
