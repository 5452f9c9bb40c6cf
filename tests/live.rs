//! Live-corpus acceptance tests: the ABA guarantee, snapshot isolation
//! for in-flight queries, the bounded rejection log, and a kill-free
//! end-to-end run over a real socket.
//!
//! 1. **ABA** (property test): delete a document and reinsert into the
//!    *same slot* — through the full serving path (page and snippet
//!    caches and the documents' engines all warm), the old generation's
//!    bytes are never served again, under any interleaving of warming
//!    queries.
//! 2. **Snapshot isolation**: a query session pinned to a snapshot
//!    keeps answering from that snapshot — byte-identically — while
//!    the corpus is deleted from and re-ingested underneath it; two
//!    sessions on either side of an ingest never serve each other's
//!    rendered page.
//! 3. **Rejection cap**: a hostile ingest stream cannot grow the
//!    rejection log past [`CorpusOptions::max_rejected`]; the overflow
//!    is counted, not retained, and `/stats` shows both numbers.
//! 4. **Kill-free e2e**: one daemon over a real socket serves `/search`
//!    continuously — every response `200` — while documents are
//!    ingested and deleted over HTTP; deleted content disappears from
//!    answers immediately and the epoch on `/stats` tracks every
//!    mutation. No restart, ever.
//! 5. **The cached body is the rendered body**: a page-cache hit serves
//!    the bytes the miss rendered, and both equal what a cache-less app
//!    renders — for any window, and for any raw spelling of the query.
//! 6. **A rejected ingest says where**: a body cut off mid-document is a
//!    `400` naming the line and column the input ended at.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use extract::live::{serve_live, LiveSearchApp};
use extract::prelude::*;
use extract::serve::{search_body, SearchAppConfig};
use extract_corpus::CorpusOptions;
use extract_serve::json::{self, Value};
use extract_serve::testing::KeepAliveClient;
use extract_serve::{Request, ServeConfig};
use proptest::prelude::*;

/// A corpus of `docs` single-store documents, each carrying one unique
/// search token `tok<i>v<version>` so queries can address exactly one
/// document and tell its versions apart.
fn seed_corpus(docs: usize) -> Corpus {
    let mut builder = CorpusBuilder::new();
    for i in 0..docs {
        builder.add_document(&doc_name(i), &doc_xml(i, 0)).expect("seed doc parses");
    }
    builder.finish()
}

fn live_app(docs: usize, cache_capacity: usize) -> LiveSearchApp {
    LiveSearchApp::new(
        LiveCorpus::from_corpus(seed_corpus(docs)),
        SearchAppConfig::default(),
        cache_capacity,
    )
}

fn doc_name(i: usize) -> String {
    format!("doc-{i}")
}

fn doc_xml(i: usize, version: usize) -> String {
    format!(
        "<stores><store><name>tok{i}v{version}</name><state>Texas</state></store></stores>"
    )
}

fn request(method: &str, path: &str, query: &[(&str, String)], body: &[u8]) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        http11: true,
        keep_alive: true,
        trace_id: None,
        body: body.to_vec(),
    }
}

/// The raw `/search` body for `(q, k, offset)`.
fn search_bytes(app: &LiveSearchApp, q: &str, k: usize, offset: usize) -> String {
    let query =
        [("q", q.to_string()), ("k", k.to_string()), ("offset", offset.to_string())];
    let response = app.handle(&request("GET", "/search", &query, b""));
    assert_eq!(response.status, 200);
    String::from_utf8(response.body).expect("utf-8")
}

/// Search **twice**: with caching on, the second answer is a page-cache
/// hit serving the entry's stored rendering, so a stale *body* fails
/// here even where the structured page behind it is right.
fn search(app: &LiveSearchApp, q: &str) -> Value {
    let first = search_bytes(app, q, 10, 0);
    assert_eq!(search_bytes(app, q, 10, 0), first, "the repeat of {q:?} changed bytes");
    json::parse(&first).expect("JSON")
}

fn result_count(v: &Value) -> u64 {
    v.get("count").and_then(Value::as_u64).expect("count")
}

fn first_snippet(v: &Value) -> String {
    v.get("results")
        .and_then(Value::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("snippet"))
        .and_then(Value::as_str)
        .expect("one snippeted result")
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The generational-arena guarantee, exercised through the full
    /// serving path: delete a document, reinsert different content into
    /// the same slot, and no cache layer ever serves the old
    /// generation's bytes — no matter which queries warmed which caches
    /// first.
    #[test]
    fn delete_and_reinsert_into_the_same_slot_never_serves_old_bytes(
        docs in 2usize..5,
        victim_seed in 0usize..64,
        warm_rounds in 1usize..3,
    ) {
        let app = live_app(docs, 4096);
        let victim = victim_seed % docs;
        // Warm page, snippet and engine caches on every document —
        // repeatedly, so later rounds are genuine cache hits.
        for _ in 0..warm_rounds {
            for i in 0..docs {
                let token = format!("tok{i}v0");
                let page = search(&app, &token);
                prop_assert_eq!(result_count(&page), 1);
                prop_assert!(first_snippet(&page).contains(&token));
            }
        }
        // Delete the victim and reinsert new content under a new name:
        // the freed slot is the lowest free slot, so it IS reused.
        let deleted = app.handle(&request(
            "POST", "/delete", &[("doc", doc_name(victim))], b"",
        ));
        prop_assert_eq!(deleted.status, 200);
        let reborn = app.handle(&request(
            "POST",
            "/ingest",
            &[("name", format!("reborn-{victim}"))],
            doc_xml(victim, 1).as_bytes(),
        ));
        prop_assert_eq!(reborn.status, 200);
        let reborn = json::parse(std::str::from_utf8(&reborn.body).unwrap()).unwrap();
        prop_assert_eq!(
            reborn.get("doc_id").and_then(Value::as_u64),
            Some(victim as u64),
            "the freed slot must be reused for the ABA hazard to be live"
        );
        prop_assert!(
            reborn.get("generation").and_then(Value::as_u64).unwrap() > 0,
            "slot reuse must bump the generation"
        );
        // The old generation's content is gone from every answer…
        let old = search(&app, &format!("tok{victim}v0"));
        prop_assert_eq!(result_count(&old), 0, "stale-generation bytes served: {:?}", old);
        // …the new generation's content is served correctly…
        let new = search(&app, &format!("tok{victim}v1"));
        prop_assert_eq!(result_count(&new), 1);
        let new_token = format!("tok{victim}v1");
        prop_assert!(first_snippet(&new).contains(&new_token));
        // …and untouched documents still answer from their warm caches.
        for i in (0..docs).filter(|i| *i != victim) {
            let page = search(&app, &format!("tok{i}v0"));
            prop_assert_eq!(result_count(&page), 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cached body is the rendered body: for any window, the miss,
    /// the hit that follows it and a cache-less app all answer with the
    /// same bytes.
    #[test]
    fn miss_hit_and_uncached_bodies_are_byte_equal(
        query in 0usize..5,
        k in 1usize..7,
        offset in 0usize..7,
    ) {
        let q = ["texas", "store texas", "tok1v0", "name texas", "zzz-no-such-token"][query];
        let cached = live_app(5, 4096);
        let uncached = live_app(5, 0);
        let miss = search_bytes(&cached, q, k, offset);
        let hit = search_bytes(&cached, q, k, offset);
        let stats = cached.caches().corpus_page_stats();
        prop_assert_eq!((stats.misses, stats.hits), (1, 1), "one miss, then one hit");
        prop_assert_eq!(&hit, &miss, "the hit served other bytes than the miss");
        prop_assert_eq!(&search_bytes(&uncached, q, k, offset), &miss);
        prop_assert_eq!(uncached.caches().corpus_page_stats().hits, 0);
    }
}

/// The page key holds the *normalized* query, the body echoes the *raw*
/// one: spellings of one query share a page entry (one miss, then hits)
/// yet each response carries its own `"query"` string — including one
/// that needs JSON escaping.
#[test]
fn raw_spellings_share_a_page_entry_but_echo_their_own_query() {
    let app = live_app(3, 4096);
    let spellings = ["Texas  store", "texas store", "texas \"store\"\\"];
    let pages: Vec<Value> = spellings
        .iter()
        .map(|q| json::parse(&search_bytes(&app, q, 10, 0)).expect("JSON"))
        .collect();
    let stats = app.caches().corpus_page_stats();
    assert_eq!((stats.misses, stats.hits), (1, 2), "three spellings, one page entry");
    for (q, page) in spellings.iter().zip(&pages) {
        assert_eq!(page.get("query").and_then(Value::as_str), Some(*q), "raw echo");
        assert_eq!(result_count(page), 3);
        assert_eq!(page.get("results"), pages[0].get("results"), "{q:?} shares the page");
    }
}

/// RCU reader guarantee: a session pinned to a snapshot answers from
/// that snapshot — byte-identically — through any number of concurrent
/// mutations. The writer never waits for it, and publishing new epochs
/// never perturbs it.
#[test]
fn in_flight_sessions_complete_on_their_snapshot() {
    let corpus = LiveCorpus::from_corpus(seed_corpus(3));
    let caches = Arc::new(SessionCaches::new(1024));
    let config = ExtractConfig::default();
    let snapshot = corpus.snapshot();
    let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
    let reference = session.answer_corpus_topk("tok1v0", &config, 10, 0);
    assert_eq!(reference.total, 1, "the snapshot sees doc 1");

    // Mutate underneath the pinned session, from another thread, many
    // times: delete the doc it reads, reuse the slot, delete again.
    std::thread::scope(|scope| {
        let corpus = &corpus;
        let writer = scope.spawn(move || {
            corpus.delete(&doc_name(1)).expect("doc 1 is live");
            let reborn = corpus
                .ingest("reborn", &doc_xml(1, 1))
                .expect("reinsert into the freed slot");
            assert_eq!(reborn.id.index(), 1, "slot 1 reused");
            corpus.delete("reborn").expect("reborn is live");
        });
        // The pinned session keeps answering identically mid-mutation.
        for _ in 0..50 {
            let page = session.answer_corpus_topk("tok1v0", &config, 10, 0);
            assert_eq!(page.total, 1, "the snapshot must keep seeing doc 1");
            assert_eq!(page.results.len(), reference.results.len());
            assert_eq!(page.results[0].doc, reference.results[0].doc);
        }
        writer.join().expect("writer");
    });
    assert_eq!(corpus.epoch(), 3, "three mutations published");

    // After the mutations: the pinned session STILL sees its world…
    let replay = session.answer_corpus_topk("tok1v0", &config, 10, 0);
    assert_eq!(replay.total, 1);
    assert_eq!(replay.results[0].doc, reference.results[0].doc);
    // …while a fresh snapshot sees none of slot 1's generations.
    let fresh = corpus.snapshot();
    let fresh_session = QuerySession::for_snapshot(&fresh, 1, caches);
    assert_eq!(fresh_session.answer_corpus_topk("tok1v0", &config, 10, 0).total, 0);
    assert_eq!(fresh_session.answer_corpus_topk("tok1v1", &config, 10, 0).total, 0);
    assert_eq!(fresh.len(), 2, "docs 0 and 2 remain");
}

/// Rendered pages are as snapshot-isolated as the pages themselves: a
/// session pinned before an ingest and one opened after it share one
/// cache bundle and ask for the same window, and — however their
/// requests interleave, hits included — each is served its own
/// snapshot's bytes.
#[test]
fn sessions_across_an_ingest_never_serve_each_others_body() {
    let corpus = LiveCorpus::from_corpus(seed_corpus(3));
    let caches = Arc::new(SessionCaches::new(1024));
    let before = corpus.snapshot();
    corpus.ingest("newcomer", &doc_xml(9, 0)).expect("ingest parses");
    let after = corpus.snapshot();
    let config = SearchAppConfig::default().snippet;
    let body = |session: &QuerySession<'_>| search_body(session, &config, "texas", 10, 0);
    let uncached = || Arc::new(SessionCaches::new(0));
    let old_body = body(&QuerySession::for_snapshot(&before, 1, uncached()));
    let new_body = body(&QuerySession::for_snapshot(&after, 1, uncached()));
    assert_ne!(old_body, new_body, "the ingest changed this window");

    let old = QuerySession::for_snapshot(&before, 1, Arc::clone(&caches));
    let new = QuerySession::for_snapshot(&after, 1, Arc::clone(&caches));
    for round in 0..3 {
        assert_eq!(body(&old), old_body, "pinned, round {round}");
        assert_eq!(body(&new), new_body, "fresh, round {round}");
    }
    let stats = caches.corpus_page_stats();
    assert_eq!((stats.misses, stats.hits), (2, 4), "one entry per epoch, then hits");
}

/// A hostile ingest stream cannot grow the rejection log without bound:
/// past `max_rejected` retained names the log freezes and `/stats`
/// counts the overflow instead.
#[test]
fn hostile_ingest_stream_cannot_grow_the_rejection_log() {
    let options = CorpusOptions { max_rejected: 3, ..CorpusOptions::default() };
    let app = LiveSearchApp::new(
        LiveCorpus::from_corpus_with_options(seed_corpus(1), options),
        SearchAppConfig::default(),
        64,
    );
    for i in 0..10 {
        let response = app.handle(&request(
            "POST",
            "/ingest",
            &[("name", format!("bad-{i}"))],
            b"<oops>",
        ));
        assert_eq!(response.status, 400, "malformed XML is soft-rejected");
    }
    let (retained, dropped) = app.corpus().rejection_stats();
    assert_eq!((retained, dropped), (3, 7), "log capped, overflow counted");
    let stats = json::parse(
        std::str::from_utf8(&app.handle(&request("GET", "/stats", &[], b"")).body).unwrap(),
    )
    .unwrap();
    let corpus = stats.get("corpus").expect("corpus section");
    assert_eq!(corpus.get("rejected").and_then(Value::as_u64), Some(3));
    assert_eq!(corpus.get("rejected_dropped").and_then(Value::as_u64), Some(7));
    assert_eq!(corpus.get("epoch").and_then(Value::as_u64), Some(0), "no mutation happened");
}

/// A document cut off before its root closes is rejected over the wire
/// with the position the input ended at — a real line and column, not a
/// sentinel.
#[test]
fn a_cut_off_ingest_is_a_400_that_names_where_the_input_ended() {
    let (tx, rx) = mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        serve_live(
            LiveCorpus::from_corpus(seed_corpus(1)),
            "127.0.0.1:0",
            ServeConfig { workers: 1, ..ServeConfig::default() },
            SearchAppConfig::default(),
            64,
            |addr, handle| tx.send((addr, handle)).expect("report daemon"),
        )
        .expect("daemon serves");
    });
    let (addr, handle) = rx.recv().expect("daemon up");
    let mut client = KeepAliveClient::connect(addr);
    let cut = b"<notes>\n  <note>kept</note>\n  <note>cut";
    let response = client.request_body("POST", "/ingest?name=cut", cut);
    assert_eq!(response.status, 400, "{}", response.body);
    let message = json::parse(&response.body)
        .ok()
        .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("a JSON error body: {}", response.body));
    assert!(
        message.contains("unexpected end of input at 3:12"),
        "the 400 must name line 3, column 12: {message}"
    );
    assert_eq!(client.request("GET", "/stats").status, 200, "the daemon serves on");
    handle.shutdown();
    server_thread.join().expect("daemon thread");
}

/// `/stats` — every scrape, the router's doc-count bootstrap — reads the
/// rejection counters under the writer lock, so an ingest must not hold
/// that lock while it parses. One thread ingests a document big enough
/// to parse for a long while; the main thread asks `/stats` in a loop
/// until the ingest is done. If the lock covered the parse, one of those
/// answers would have waited out the whole ingest; held for the directory
/// edit alone, the slowest is a small fraction of it.
#[test]
fn stats_answers_while_an_ingest_is_parsing() {
    let app = live_app(2, 0);
    let big: String = (0..60_000).map(|i| format!("<store><name>n{i}</name></store>")).collect();
    let big = format!("<stores>{big}</stores>");
    let ingest = request("POST", "/ingest", &[("name", "big".to_string())], big.as_bytes());
    let (started, start) = mpsc::channel();
    let done = AtomicBool::new(false);
    let (ingest_took, slowest_stats) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            started.send(()).expect("main thread listens");
            let begun = Instant::now();
            assert_eq!(app.handle(&ingest).status, 200);
            let took = begun.elapsed();
            done.store(true, Ordering::SeqCst);
            took
        });
        start.recv().expect("ingest thread started");
        let mut slowest = Duration::ZERO;
        while !done.load(Ordering::SeqCst) {
            let begun = Instant::now();
            assert_eq!(app.handle(&request("GET", "/stats", &[], b"")).status, 200);
            slowest = slowest.max(begun.elapsed());
        }
        (writer.join().expect("ingest thread"), slowest)
    });
    assert_eq!(app.corpus().epoch(), 1);
    assert!(
        slowest_stats * 2 < ingest_took,
        "a /stats request took {slowest_stats:?} of a {ingest_took:?} ingest: it sat out the parse"
    );
}

/// The kill-free end-to-end: one daemon, one socket, zero restarts.
/// Clients hammer `/search` the whole time; the main thread ingests,
/// searches, deletes and re-checks over HTTP. Every concurrent response
/// is a `200`, deleted content disappears from answers immediately, and
/// the epoch advances once per mutation.
#[test]
fn daemon_serves_continuously_through_ingest_and_delete() {
    let (tx, rx) = mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        serve_live(
            LiveCorpus::from_corpus(seed_corpus(4)),
            "127.0.0.1:0",
            // Unlimited requests per connection: the load workers below
            // keep one socket each for the whole test.
            ServeConfig {
                workers: 2,
                max_requests_per_connection: 0,
                ..ServeConfig::default()
            },
            SearchAppConfig::default(),
            4096,
            |addr, handle| tx.send((addr, handle)).expect("report daemon"),
        )
        .expect("daemon serves");
    });
    let (addr, handle) = rx.recv().expect("daemon up");

    let stop = AtomicBool::new(false);
    let non_200 = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Background load on the seed documents: they are never mutated,
        // so their answers must stay correct (and cache-hot) throughout.
        for worker in 0..2u64 {
            let (stop, non_200, served) = (&stop, &non_200, &served);
            scope.spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let q = format!("tok{}v0", i % 4);
                    i += 1;
                    let response = client.request("GET", &format!("/search?q={q}"));
                    served.fetch_add(1, Ordering::Relaxed);
                    if response.status != 200 {
                        non_200.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Foreground: a full mutation lifecycle per round, over HTTP.
        let mut client = KeepAliveClient::connect(addr);
        let mut epoch_seen = 0u64;
        for round in 0..5u64 {
            let name = format!("live-{round}");
            let xml = format!(
                "<live><entry><token>zzlive{round}zz</token></entry></live>"
            );
            let ingest = client
                .request_body("POST", &format!("/ingest?name={name}"), xml.as_bytes());
            assert_eq!(ingest.status, 200, "{}", ingest.body);
            let found = client.request("GET", &format!("/search?q=zzlive{round}zz"));
            assert_eq!(found.status, 200);
            let v = json::parse(&found.body).expect("JSON");
            assert_eq!(result_count(&v), 1, "ingested doc is searchable: {}", found.body);
            let deleted = client.request_body("POST", &format!("/delete?doc={name}"), b"");
            assert_eq!(deleted.status, 200, "{}", deleted.body);
            // The delete is visible to the very next request — no stale
            // page, no stale snippet, no grace period.
            let gone = client.request("GET", &format!("/search?q=zzlive{round}zz"));
            let v = json::parse(&gone.body).expect("JSON");
            assert_eq!(result_count(&v), 0, "deleted doc still served: {}", gone.body);
            // Epoch strictly advances: two mutations per round.
            let epoch = deleted.corpus_epoch.expect("mutations are epoch-stamped");
            assert!(epoch > epoch_seen || round == 0, "epoch must advance: {epoch}");
            epoch_seen = epoch;
        }
        assert_eq!(epoch_seen, 10, "5 ingests + 5 deletes");

        // Let the load run a beat longer against the final state.
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        non_200.load(Ordering::Relaxed),
        0,
        "every concurrent search answered 200 through 10 mutations"
    );
    assert!(served.load(Ordering::Relaxed) > 0, "the load loop actually ran");

    // /stats agrees: 4 live docs, epoch 10.
    let mut client = KeepAliveClient::connect(addr);
    let stats = client.request("GET", "/stats");
    let v = json::parse(&stats.body).expect("stats JSON");
    let corpus = v.get("corpus").expect("corpus section");
    assert_eq!(corpus.get("documents").and_then(Value::as_u64), Some(4));
    assert_eq!(corpus.get("epoch").and_then(Value::as_u64), Some(10));

    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !server_thread.is_finished() {
        assert!(Instant::now() < deadline, "daemon never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    server_thread.join().expect("daemon thread");
}
