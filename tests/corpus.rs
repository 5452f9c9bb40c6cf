//! End-to-end corpus tests: the corpus query path must be **exactly** the
//! merge of standalone per-document runs, and a DBLP-scale corpus (200+
//! documents, 10^6+ nodes) must build through the streaming path and serve
//! mixed-document batches — each on several threads, the way the daemon
//! answers requests.

use std::sync::Arc;

use extract::prelude::*;
use extract_datagen::corpus::CorpusConfig;
use extract_datagen::dblp::DblpConfig;
use extract_datagen::retailer::RetailerConfig;
use proptest::prelude::*;

/// The documented merge rule: score descending, then document ascending,
/// then root ascending.
fn merge_standalone(
    corpus: &Corpus,
    query_str: &str,
    config: &ExtractConfig,
) -> Vec<(DocId, NodeId, String)> {
    let query = KeywordQuery::parse(query_str);
    let mut merged: Vec<(DocId, f64, NodeId, String)> = Vec::new();
    for (id, _, doc) in corpus.iter() {
        let extract = Extract::new(doc);
        for r in extract.ranked_results(&query) {
            let s = extract.snippet(&query, &r.result, config);
            merged.push((id, r.score, r.result.root, s.snippet.to_xml()));
        }
    }
    merged.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.2.cmp(&b.2))
    });
    merged.into_iter().map(|(id, _, root, xml)| (id, root, xml)).collect()
}

fn render(page: &CorpusPage) -> Vec<(DocId, NodeId, String)> {
    page.iter()
        .map(|a| (a.doc, a.root, a.snippet.to_string()))
        .collect()
}

/// The query's whole answer: every result, best first.
fn unbounded(session: &QuerySession<'_>, q: &str, config: &ExtractConfig) -> CorpusPage {
    session.answer_corpus_topk(q, config, usize::MAX, 0).results
}

/// `queries` answered the way the daemon answers requests: `threads`
/// scoped threads, each taking every `threads`-th query through its own
/// `QuerySession::for_snapshot` session over the one shared `caches`.
/// Index-aligned with `queries`.
fn answer_on_threads(
    corpus: &Corpus,
    caches: &Arc<SessionCaches>,
    threads: usize,
    queries: &[&str],
    config: &ExtractConfig,
) -> Vec<CorpusPage> {
    let mut answered: Vec<(usize, CorpusPage)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|first| {
                scope.spawn(move || {
                    let session = QuerySession::for_snapshot(corpus, 1, Arc::clone(caches));
                    let mine = queries.iter().enumerate().skip(first).step_by(threads);
                    mine.map(|(i, q)| (i, unbounded(&session, q, config))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("an answering thread")).collect()
    });
    answered.sort_unstable_by_key(|(i, _)| *i);
    answered.into_iter().map(|(_, page)| page).collect()
}

/// A page as rows: document, root, score bits and snippet bytes.
fn rows(page: &CorpusPage) -> Vec<(DocId, NodeId, u64, String)> {
    page.iter().map(|a| (a.doc, a.root, a.score.to_bits(), a.snippet.to_string())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance equivalence: corpus answers == standalone per-doc
    /// answers merged, over randomized corpus shapes, seeds, thread
    /// counts and cache settings; answers on threads sharing one cache
    /// bundle == a cache-less serial session's, byte for byte.
    #[test]
    fn corpus_query_results_equal_standalone_merge(
        seed in 0u64..1_000,
        retailer_docs in 1usize..4,
        dblp_docs in 1usize..3,
        threads in 1usize..5,
        cache in prop_oneof![Just(0usize), Just(64usize)],
    ) {
        let mut b = CorpusBuilder::new();
        for i in 0..retailer_docs {
            b.add_parsed(
                &format!("retailer-{i}"),
                RetailerConfig {
                    retailers: 2,
                    stores_per_retailer: (2, 3),
                    clothes_per_store: (3, 6),
                    seed: seed ^ (i as u64),
                    ..Default::default()
                }
                .generate(),
            );
        }
        for i in 0..dblp_docs {
            b.add_parsed(
                &format!("dblp-{i}"),
                DblpConfig { papers: 12, seed: seed ^ 0xD00 ^ (i as u64), ..Default::default() }
                    .generate(),
            );
        }
        let corpus = b.finish();
        let caches = Arc::new(SessionCaches::new(cache));
        let serial = QuerySession::from_corpus(&corpus, 0);
        let config = ExtractConfig::with_bound(8);
        let queries = [
            "store texas",
            "houston jeans",
            "keyword search",
            "paper vldb",
            "texas",
            "zzz nowhere",
        ];
        // Serial must equal the standalone merge, and the threads serial.
        let concurrent = answer_on_threads(&corpus, &caches, threads, &queries, &config);
        for (q, page) in queries.iter().zip(concurrent.iter()) {
            let want = unbounded(&serial, q, &config);
            prop_assert_eq!(&render(&want), &merge_standalone(&corpus, q, &config), "query {}", q);
            prop_assert_eq!(rows(page), rows(&want), "query {} on {} threads", q, threads);
        }
    }
}

/// The PR acceptance run: ≥200 generated documents, ≥10^6 total nodes,
/// built via the streaming path (one generated document alive at a time)
/// and served on four threads over one cache bundle, mixed-document
/// queries routed by the directory.
#[test]
fn dblp_scale_corpus_builds_streaming_and_serves_batches() {
    let cfg = CorpusConfig { documents: 200, target_nodes_per_doc: 5_400, seed: 0xBEEF };
    let mut builder = CorpusBuilder::new();
    for (name, doc) in cfg.documents() {
        builder.add_parsed(&name, doc); // fold immediately; doc dropped next step
    }
    assert!(builder.len() >= 200);
    let corpus = builder.finish();
    assert!(corpus.total_nodes() >= 1_000_000, "{} nodes", corpus.total_nodes());
    assert!(corpus.postings().total_postings() >= 1_000_000);
    assert_eq!(corpus.len(), 200, "one slot per document");

    let caches = Arc::new(SessionCaches::new(1024));
    let config = ExtractConfig::with_bound(8);
    // Selective mixed-document queries: the broad ones' result sets are
    // too big for a debug-mode test.
    let queries: Vec<&str> = CorpusConfig::query_mix()
        .into_iter()
        .filter(|q| !q.contains("name"))
        .collect();
    let pages = answer_on_threads(&corpus, &caches, 4, &queries, &config);
    assert_eq!(pages.len(), queries.len());
    let serial = QuerySession::from_corpus(&corpus, 0);
    for (q, page) in queries.iter().zip(&pages) {
        assert_eq!(rows(page), rows(&unbounded(&serial, q, &config)), "{q}");
    }

    // Every flavour-specific query found results in its flavour's docs.
    let non_empty = pages.iter().filter(|p| !p.is_empty()).count();
    assert!(non_empty >= queries.len() - 1, "only the zzz query may be empty");
    let sigmod = &pages[queries.iter().position(|q| q.contains("sigmod")).unwrap()];
    assert!(!sigmod.is_empty());
    assert!(sigmod.iter().all(|a| corpus.name(a.doc).starts_with("dblp-")));
    let jeans = &pages[queries.iter().position(|q| q.contains("jeans")).unwrap()];
    assert!(jeans.iter().all(|a| corpus.name(a.doc).starts_with("retailer-")));
    let zzz = &pages[queries.iter().position(|q| q.contains("zzz")).unwrap()];
    assert!(zzz.is_empty());

    // Pages are ordered by the documented merge rule.
    for page in &pages {
        assert!(page.windows(2).all(|w| {
            w[0].score > w[1].score
                || (w[0].score == w[1].score
                    && (w[0].doc, w[0].root)
                        <= (w[1].doc, w[1].root))
        }));
    }

    // Routing did real work and the page cache serves repeats.
    let keywords: Vec<&str> = queries[0].split_whitespace().collect();
    assert!(corpus.candidate_docs_str(&keywords).1.directory_touched > 0);
    let before = caches.corpus_page_stats();
    unbounded(&QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches)), queries[0], &config);
    let after = caches.corpus_page_stats();
    assert_eq!(after.hits, before.hits + 1, "repeat is a page-cache hit");
}

/// Corpus ingestion of malformed documents fails soft: the good documents
/// around a bad one still build and serve.
#[test]
fn corpus_ingestion_survives_malformed_documents() {
    let mut b = CorpusBuilder::new();
    b.add_document("good-1", "<stores><store><name>Levis</name><state>Texas</state></store></stores>")
        .unwrap();
    for (i, bad) in [
        "<a><b></a>",                        // mismatched tags
        "not xml at all",                    // no markup
        "",                                  // empty
        "<a>&#xD800;</a>",                   // invalid char reference
        &format!("<!DOCTYPE a [<!ELEMENT a {}b{}>]><a/>", "(".repeat(9_000), ")".repeat(9_000)),
    ]
    .iter()
    .enumerate()
    {
        assert!(b.add_document(&format!("bad-{i}"), bad).is_err(), "bad doc {i}");
    }
    b.add_document("good-2", "<dblp><paper><title>texas search</title></paper></dblp>")
        .unwrap();
    assert_eq!(b.rejected().len(), 5);
    let corpus = b.finish();
    assert_eq!(corpus.len(), 2);
    let session = QuerySession::from_corpus(&corpus, 16);
    let page = unbounded(&session, "texas", &ExtractConfig::with_bound(6));
    let docs: Vec<&str> = page.iter().map(|a| corpus.name(a.doc)).collect();
    assert!(docs.contains(&"good-1") && docs.contains(&"good-2"), "{docs:?}");
}
