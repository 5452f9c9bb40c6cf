//! The in-process pass: time the crates' **public** functions, one layer
//! at a time, on the same corpus and the same keys the loopback workloads
//! use. Nothing here reaches inside the program — every call is one a
//! downstream crate could make — and each group of calls is a span under
//! one `inproc` root, so the span file shows where the pass itself spent
//! its time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use extract::QuerySession;
use extract_core::ilist::IListScratch;
use extract_core::{EngineParts, Extract};
use extract_corpus::DocId;
use extract_index::ShardedPostingsBuilder;
use extract_router::merge;
use extract_search::xseek::{self, RootPolicy};
use extract_search::KeywordQuery;
use extract_serve::{http, json, Response};
use extract_xml::{parser, Document, ParseOptions};

use crate::client;
use crate::metrics::Values;
use crate::oracle::{self, Oracle};
use crate::script::{GeneratedDoc, IngestPool, Key, Universe};
use crate::stats;
use crate::trace::Recorder;

/// Distinct queries the search-layer timings average over.
const QUERIES: usize = 64;
/// Page-missing requests each miss timing takes (more than the 128-entry
/// page cache, so none can hit).
const MISSES: usize = 160;

/// Median, over `batches` batches, of the mean µs per call of `f`.
fn per_call_us(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
        })
        .collect();
    stats::median(&means)
}

fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Run the pass and set every in-process per-layer metric in `values`.
pub fn run(
    docs: &[GeneratedDoc],
    universe: &Universe,
    pool: &IngestPool,
    recorder: &mut Recorder,
    values: &mut Values,
) -> Result<(), String> {
    let pass_start = Instant::now();
    let root = recorder.record(None, 0, "inproc", pass_start, pass_start);

    // ---- mutation path: XML parse → postings fold → engine build ----
    let parsed: Vec<Document> = recorder.time(root, "xmltree.parse", || {
        docs.iter()
            .map(|d| parser::parse(&d.xml, &ParseOptions::default()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()
    })?;
    let parse_ms = per_call_us(3, parsed.len(), |i| {
        black_box(parser::parse(&docs[i].xml, &ParseOptions::default()).is_ok());
    }) / 1e3;
    values.set("xmltree.parse_ms_per_doc", parse_ms);

    let fold_ms = recorder.time(root, "xmlindex.fold", || {
        per_call_us(3, 1, |_| {
            let mut builder = ShardedPostingsBuilder::new();
            for (i, doc) in parsed.iter().enumerate() {
                builder.add_document_as(doc, DocId::from_index(i));
            }
            black_box(builder.finish().total_postings());
        }) / 1e3
    });
    values.set("xmlindex.fold_ms", fold_ms);

    let sample = parsed.len().min(12);
    let build_ms = recorder.time(root, "core.engine_build", || {
        per_call_us(1, sample, |i| {
            black_box(EngineParts::build(&parsed[i]));
        }) / 1e3
    });
    values.set("core.engine_build_ms", build_ms);
    drop(parsed);

    // ---- read path, layer by layer, over a fresh app ----
    let lab = recorder.time(root, "lab.build", || Oracle::build(docs))?;
    let snapshot = lab.app.corpus().snapshot();
    let config = oracle::app_config().snippet;
    let mut queries: Vec<&str> = universe.miss.iter().map(|k| k.q.as_str()).collect();
    queries.sort_unstable();
    queries.dedup();
    queries.truncate(QUERIES);

    let mut engines: BTreeMap<DocId, EngineParts> = BTreeMap::new();
    let (mut route_us, mut slca_us, mut ranked_us) = (0.0, 0.0, 0.0);
    let (mut entries, mut ranked_results) = (0u64, 0usize);
    let (mut ilist_us, mut snippet_us, mut render_us, mut snippets) = (0.0, 0.0, 0.0, 0usize);
    let search_start = Instant::now();
    for q in &queries {
        let query = KeywordQuery::parse(q);
        let keywords: Vec<&str> = query.keywords().iter().map(String::as_str).collect();
        let start = Instant::now();
        let (candidates, fanin) = snapshot.candidate_docs_str(&keywords);
        route_us += elapsed_us(start);
        entries += fanin.total();
        for (nth, &id) in candidates.iter().enumerate() {
            let doc = snapshot.doc(id);
            let parts = engines
                .entry(id)
                .or_insert_with(|| EngineParts::build(doc))
                .clone();
            let extract = Extract::with_parts(doc, parts);
            let start = Instant::now();
            let roots = xseek::result_roots(
                doc,
                extract.index(),
                extract.model(),
                &query,
                RootPolicy::Entity,
            );
            slca_us += elapsed_us(start);
            black_box(roots);
            let start = Instant::now();
            let ranked = extract.ranked_results(&query);
            ranked_us += elapsed_us(start);
            ranked_results += ranked.len();
            if nth > 0 {
                continue;
            }
            // Snippet layers: the top results of the first candidate.
            let mut scratch = IListScratch::default();
            for r in ranked.iter().take(3) {
                let start = Instant::now();
                black_box(extract.ilist(&query, &r.result, &config));
                ilist_us += elapsed_us(start);
                let start = Instant::now();
                let snippeted =
                    extract.snippet_with_scratch(&query, &r.result, &config, &mut scratch);
                snippet_us += elapsed_us(start);
                let start = Instant::now();
                black_box(snippeted.snippet.to_xml());
                render_us += elapsed_us(start);
                snippets += 1;
            }
        }
    }
    recorder.record(root, 0, "search.layers", search_start, Instant::now());
    let per_query = |total: f64| total / queries.len().max(1) as f64;
    let per_snippet = |total: f64| total / snippets.max(1) as f64;
    values.set("xmlindex.route_us", per_query(route_us));
    values.set("xmlindex.route_entries_per_req", per_query(entries as f64));
    values.set("xmlsearch.slca_us", per_query(slca_us));
    // `ranked_results` runs SLCA itself; its self time is what is left.
    values.set(
        "xmlsearch.rank_us",
        per_query((ranked_us - slca_us).max(0.0)),
    );
    values.set(
        "xmlsearch.results_ranked_per_req",
        per_query(ranked_results as f64),
    );
    values.set("core.ilist_us", per_snippet(ilist_us));
    // `snippet_with_scratch` builds the IList itself; select + assemble is the rest.
    values.set(
        "core.snippet_us",
        per_snippet((snippet_us - ilist_us).max(0.0)),
    );
    values.set("core.render_us", per_snippet(render_us));
    drop(engines);

    // ---- session and app: hit and miss paths ----
    let caches = Arc::clone(lab.app.caches());
    let session_start = Instant::now();
    // Build every engine the miss samples will touch, so the timings
    // below are page misses, not first-touch index builds.
    let (handle_misses, topk_misses) = {
        let pool = &universe.miss[..universe.miss.len().min(2 * MISSES)];
        pool.split_at(pool.len() / 2)
    };
    let mut warmed: Vec<&str> = handle_misses
        .iter()
        .chain(topk_misses)
        .map(|k| k.q.as_str())
        .collect();
    warmed.sort_unstable();
    warmed.dedup();
    for q in warmed {
        black_box(lab.total(q));
    }
    let median_us = |samples: &mut Vec<f64>| {
        stats::sort(samples);
        stats::percentile(samples, 50.0)
    };
    let mut samples: Vec<f64> = handle_misses
        .iter()
        .map(|key| {
            let request = oracle::search_request(key);
            let start = Instant::now();
            black_box(lab.app.handle(&request));
            elapsed_us(start)
        })
        .collect();
    values.set("live.handle_miss_us", median_us(&mut samples));
    let mut samples: Vec<f64> = topk_misses
        .iter()
        .map(|key| {
            let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
            let start = Instant::now();
            black_box(
                session
                    .answer_corpus_topk(&key.q, &config, key.k, key.offset)
                    .total,
            );
            elapsed_us(start)
        })
        .collect();
    values.set("session.topk_miss_us", median_us(&mut samples));

    let hot: Vec<_> = universe.hot.iter().map(oracle::search_request).collect();
    for request in &hot {
        black_box(lab.app.handle(request));
    }
    values.set(
        "live.handle_hit_us",
        per_call_us(20, hot.len(), |i| {
            black_box(lab.app.handle(&hot[i]));
        }),
    );
    values.set(
        "session.for_snapshot_us",
        per_call_us(20, 256, |_| {
            black_box(QuerySession::for_snapshot(
                &snapshot,
                1,
                Arc::clone(&caches),
            ));
        }),
    );
    let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
    values.set(
        "session.topk_hit_us",
        per_call_us(20, universe.hot.len(), |i| {
            let Key { q, k, offset } = &universe.hot[i];
            black_box(session.answer_corpus_topk(q, &config, *k, *offset).total);
        }),
    );
    drop(session);
    recorder.record(root, 0, "session.and.app", session_start, Instant::now());

    // ---- mutation path on the warm app: invalidate, ingest, delete ----
    let mutate_start = Instant::now();
    let mut invalidations: Vec<f64> = snapshot
        .doc_ids()
        .take(8)
        .map(|id| {
            let start = Instant::now();
            caches.invalidate_doc(id);
            elapsed_us(start)
        })
        .collect();
    let start = Instant::now();
    caches.retire_pages_before(snapshot.epoch() + 1);
    let retire_us = elapsed_us(start);
    values.set(
        "session.invalidate_us",
        median_us(&mut invalidations) + retire_us,
    );
    drop(snapshot);
    let (mut ingests, mut deletes) = (Vec::new(), Vec::new());
    for n in 0..5 {
        let (name, body) = (IngestPool::name(n), pool.body(n));
        let start = Instant::now();
        lab.app
            .corpus()
            .ingest(&name, &body)
            .map_err(|e| format!("in-process ingest: {e}"))?;
        ingests.push(elapsed_us(start) / 1e3);
        let start = Instant::now();
        lab.app
            .corpus()
            .delete(&name)
            .ok_or("in-process delete found nothing")?;
        deletes.push(elapsed_us(start) / 1e3);
    }
    values.set("corpus.ingest_ms", stats::median(&ingests));
    values.set("corpus.delete_ms", stats::median(&deletes));
    recorder.record(root, 0, "mutation.layers", mutate_start, Instant::now());

    // ---- wire layers: HTTP parse / write, JSON, router merge ----
    let wire_start = Instant::now();
    let key = &universe.hot[0];
    let request_bytes = client::wire("GET", &key.target(), None, b"");
    values.set(
        "serve.read_request_us",
        per_call_us(20, 500, |_| {
            black_box(http::read_request(&mut &request_bytes[..]).is_ok());
        }),
    );
    let body = String::from_utf8(lab.body(key)).map_err(|e| e.to_string())?;
    let response = Response::json(200, body.clone()).with_corpus_epoch(0);
    let mut sink = Vec::with_capacity(body.len() + 256);
    values.set(
        "serve.write_response_us",
        per_call_us(20, 500, |_| {
            sink.clear();
            black_box(http::write_response(&mut sink, &response, true).is_ok());
        }),
    );
    values.set(
        "serve.json_parse_us",
        per_call_us(10, 100, |_| {
            black_box(json::parse(&body).is_ok());
        }),
    );
    values.set(
        "router.parse_page_us",
        per_call_us(10, 100, |_| {
            black_box(merge::parse_page(&body).is_ok());
        }),
    );
    // Two shard pages of the hot key's size, as a 2-shard scatter returns.
    let page = merge::parse_page(&body)?;
    let pages = [Some(page.clone()), Some(page)];
    let bases = [0, docs.len() as u64 / 2];
    values.set(
        "router.merge_us",
        per_call_us(10, 100, |_| {
            black_box(merge::merge_pages(&pages, &bases, key.k, key.offset, key.k));
        }),
    );
    let merged = merge::merge_pages(&pages, &bases, key.k, key.offset, key.k);
    let tally = merge::ShardTally {
        queried: 2,
        answered: 2,
    };
    values.set(
        "router.render_us",
        per_call_us(10, 100, |_| {
            black_box(merge::render_search(
                &key.q, key.k, key.offset, &merged, false, tally,
            ));
        }),
    );
    recorder.record(root, 0, "wire.layers", wire_start, Instant::now());

    // Close the root span over everything above.
    if let Some(root) = root {
        recorder.close(root, Instant::now());
    }
    Ok(())
}
