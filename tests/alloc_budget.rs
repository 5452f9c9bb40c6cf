//! Allocation budgets for the page-miss path — counts, not timings, so
//! they are the same on every machine and every run.
//!
//! A miss that ranks six hundred results to serve ten must pay for the ten:
//! a counting `#[global_allocator]` (per thread, so parallel tests do not
//! see each other) pins that
//!
//! 1. a whole `answer_corpus_topk` miss at `k = 10` allocates at most a
//!    quarter of what the parent commit of the first budget did on this
//!    corpus, and at most a third of what it cost while a cached snippet
//!    was an owned IList, snippet and tree — each such miss ranks, once,
//!    and a page miss served from its query's cached ranking pays for its
//!    window alone — and, when a mutation changed the query's candidates,
//!    for ranking the one new document besides;
//! 2. at a fixed window, a miss that ranks 13 177 results allocates no
//!    more than one that ranks 176: the ranked `(doc, score, root)`
//!    triples live in a buffer of at most twice the window, and SLCA, the
//!    result roots and the scoring sweep reuse the worker's warm buffers;
//! 3. one snippet is a bounded number of allocations on entity-sized
//!    results, and at most linear in the result's size beyond that (the
//!    allocation-count form of the paper's "generation time linear in
//!    result size", experiment E5) — and a *served* snippet, on a warm
//!    kernel scratch, is the allocation of its bytes and nothing else;
//! 4. a cached snippet is its bytes: the page and the snippet cache hold
//!    one `Arc<str>`, the result's rendered `/search` object — and a
//!    `/search` page miss whose ranking and snippets are all cached joins
//!    those objects, allocating no more than it did while it escaped
//!    cached XML;
//! 5. a document's engine is built when it arrives: the first query to
//!    reach a freshly ingested document allocates no more than a repeat of
//!    it — no second vocabulary, no entity analysis;
//! 6. parsing a document allocates per vector growth, not per node or
//!    per label: names are borrowed from the input, text goes into one
//!    buffer, a node is four `u32` column entries, and the label table is
//!    three buffers however many labels it holds — interning 10 000
//!    distinct strings is a few dozen allocations;
//! 7. building a document's engine (index, entity model, keys) allocates
//!    per document, not per token, element or entity: tokens are
//!    lowercased into one reused buffer, a label is tokenized once, and
//!    sibling and attribute counts go into one reused scratch — so four
//!    times the nodes under the same labels costs a few allocations more;
//! 8. the per-request session allocates nothing: the documents' engines
//!    are the snapshot's, so there is no engine table to build — and an
//!    engine lives exactly as long as its document generation: shared by
//!    every snapshot holding it, fresh for a new generation, freed with
//!    the last snapshot holding a deleted one.
//!
//! The corpus is the benchmark's shape (48 mixed documents of ~4 000
//! nodes, `extract_datagen`), the queries are fixed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use extract::core::ilist::IListScratch;
use extract::core::EngineParts;
use extract::corpus::Routes;
use extract::prelude::*;
use extract::serve::search_body;
use extract::xml::SymbolTable;
use extract::session::SessionCaches;
use extract_datagen::corpus::CorpusConfig;

thread_local! {
    /// Allocations (`alloc` + `realloc` calls) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct CountingAllocator;

fn count_one() {
    // A `const`-initialized `Cell` has no lazy initializer and no
    // destructor, so touching it from inside the allocator neither
    // allocates nor outlives the thread's TLS; `try_with` covers teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; the only addition is a
// thread-local counter bump that touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` obligations are passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` via this allocator with this
    // `layout` (the caller's obligation), which is what `System` needs.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as `dealloc` for `ptr`/`layout`, as `alloc` for `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f`, returning its value and how many allocations this thread made
/// meanwhile.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

fn corpus() -> Corpus {
    let config = CorpusConfig { documents: 48, target_nodes_per_doc: 4_000, seed: 7 };
    let mut builder = CorpusBuilder::new();
    for (name, doc) in config.documents() {
        builder.add_parsed(&name, doc);
    }
    builder.finish()
}

/// Queries whose results are entities (papers, stores, items) — what the
/// benchmark's miss keys look like. They rank 176 … 13 177 results each.
const ENTITY_QUERIES: [&str; 9] = [
    "paper sigmod",
    "author vldb",
    "houston jeans",
    "store texas",
    "woman outwear",
    "name",
    "search name",
    "retailer apparel",
    "item description",
];

/// Queries whose results are whole documents (~4 000 nodes each).
const DOCUMENT_QUERIES: [&str; 3] =
    ["keyword search xml", "open auction item", "gold watch seller"];

const PAGE: usize = 10;

/// A bundle of empty caches after every query has searched once on this
/// thread, so the counts below are page misses on warm search buffers, not
/// their first growth. The warm-up goes through a cache-less bundle, so it
/// leaves no page, ranking or snippet behind, and its window is empty: no
/// snippet is generated.
fn warm_caches(corpus: &Corpus, capacity: usize, config: &ExtractConfig) -> Arc<SessionCaches> {
    let uncached = Arc::new(SessionCaches::new(0));
    for q in ENTITY_QUERIES.iter().chain(&DOCUMENT_QUERIES) {
        let session = QuerySession::for_snapshot(corpus, 1, Arc::clone(&uncached));
        session.answer_corpus_topk(q, config, 0, usize::MAX);
    }
    Arc::new(SessionCaches::new(capacity))
}

/// One request as the daemon serves it: a fresh session over the shared
/// caches, one window. Returns the page and the allocations it cost.
fn window(
    corpus: &Corpus,
    caches: &Arc<SessionCaches>,
    config: &ExtractConfig,
    q: &str,
    (k, offset): (usize, usize),
) -> (extract::CorpusTopK, u64) {
    allocations_of(|| {
        let session = QuerySession::for_snapshot(corpus, 1, Arc::clone(caches));
        session.answer_corpus_topk(q, config, k, offset)
    })
}

/// The first `k` results of `q` as one request: [`window`] at offset 0.
fn miss(
    corpus: &Corpus,
    caches: &Arc<SessionCaches>,
    config: &ExtractConfig,
    q: &str,
    k: usize,
) -> (extract::CorpusTopK, u64) {
    window(corpus, caches, config, q, (k, 0))
}

/// What the parent commit (64650ee) allocates per miss: the mean over
/// [`ENTITY_QUERIES`] of one `answer_corpus_topk(q, k = 10, offset = 0)` on
/// this corpus with the shipped cache capacity, every engine warm and
/// every cache cold for the key — this file's first test, run against that
/// commit (debug and release agree).
const PARENT_ALLOCATIONS_PER_MISS: u64 = 11_015;

/// What a miss allocated while the snippet cache held owned
/// `SnippetedResult`s (commit ae26030, where this file's first test read
/// 559 in a release build and 569 in a debug one).
const OWNED_SNIPPET_ALLOCATIONS_PER_MISS: u64 =
    if cfg!(debug_assertions) { 569 } else { 559 };

/// What commit 9e3c06e (the pointer-arena `Document`) allocated to parse
/// [`parsed_document`] in a release build: a `String` per name, a `Vec` per
/// start tag, an `Arc<str>` per text node, a child list per wide element.
const PARENT_ALLOCATIONS_PER_PARSE: u64 = 8_615;

/// What parsing [`parsed_document`] allocates now: the label table (one
/// string buffer, its end table and its slots, each grown by doubling),
/// the node columns and text buffer sized from the input, their trim to
/// size, the open-element stack — 16 in a release build (28 while the
/// table kept each label twice), plus the debug build's validation pass,
/// plus 2.
const ALLOCATIONS_PER_PARSE: u64 = 18;

/// What a whole page miss at `k = 10` that ranks may allocate, the mean
/// over [`ENTITY_QUERIES`]: 35 since the ranking it stores is one
/// allocation of its own (34 since routing hands each candidate its token
/// ids in buffers the worker keeps, 35 before). It measured 32 once the
/// results a search keeps went into a buffer the worker keeps, the stored
/// ranking's candidate list being one allocation more, and measures 34
/// since the snippet kernel's scratch gained the per-result summary's
/// buffers: [`warm_caches`] ranks but runs no snippet kernel, so these
/// requests grow the thread's kernel scratch as their results first need
/// it — with the kernel warmed as well, a miss measures 25, before the
/// summary and since. Each request still allocates its routing's list of
/// borrowed directory lists and its query's dedup set and flags.
const ALLOCATIONS_PER_MISS: u64 = 35;

/// What a page miss at `k = 10` served from its query's cached ranking may
/// allocate, the mean over [`ENTITY_QUERIES`]: 24, with no search buffer
/// and no ranking of its own — routing's per-request lists, the query, the
/// served window and its ten snippets. It measured 23 until the kernel
/// scratch gained the per-result summary's buffers, one of which first
/// grows on "houston jeans" (25 → 26): kernel growth, as under
/// [`ALLOCATIONS_PER_MISS`] — with the kernel warmed it measures 23 still.
const ALLOCATIONS_PER_RANKED_MISS: u64 = 24;

/// What a page miss at `k = 10` served from a ranking patched to an ingest
/// may allocate, the mean over [`ENTITY_QUERIES`]: what one that ranks may
/// ([`ALLOCATIONS_PER_MISS`]) — it ranks one document instead of all, and
/// stores the patched ranking instead of a fresh one. It measures 26 (25
/// with the kernel warmed, and before the summary's buffers).
const ALLOCATIONS_PER_PATCHED_MISS: u64 = ALLOCATIONS_PER_MISS;

/// What a page miss at `k = 10` through [`search_body`] whose ranking and
/// ten snippets are all cached may allocate, the mean over
/// [`ENTITY_QUERIES`]: 18, what it measured while the snippet cache held
/// snippet XML (routing's per-request lists, the query, the served window,
/// the page, its rendered results and the body), in release and debug
/// builds alike.
const ALLOCATIONS_PER_CACHED_MISS: u64 = 18;

/// What [`EngineParts::build`] of [`parsed_document`] allocated at commit
/// ab95997, in a release build: index 5 503 (a `String` per token), entity
/// model 1 136 and keys 1 148 (a hash map per element, per entity).
const PARENT_ALLOCATIONS_PER_ENGINE_BUILD: u64 = 7_787;

/// What that build allocates now, 92 in release and debug builds alike:
/// the index's token table (three buffers grown by doubling), its
/// (token, element) pairs sized to the node count, arena, offsets, label
/// memo and lowercasing buffer (41); the model's schema, node columns,
/// counting scratch and per-path feature types, and the values waiting for
/// their ids (31); the keys' per-path tables and value list (20).
const ALLOCATIONS_PER_ENGINE_BUILD: u64 = 92;

/// Document 0 of the benchmark-shaped corpus as XML (dblp, 4 093 nodes,
/// 53 KB), and the same generator at `scale` times the node target.
fn parsed_document(scale: usize) -> String {
    let config = CorpusConfig { documents: 1, target_nodes_per_doc: 4_000 * scale, seed: 7 };
    config.document(0).1.to_xml_string()
}

#[test]
fn parsing_allocates_per_label_not_per_node() {
    let xml = parsed_document(1);
    let (doc, allocations) = allocations_of(|| Document::parse_str(&xml).expect("well-formed"));
    println!(
        "parse of {} nodes: {allocations} allocations (parent {PARENT_ALLOCATIONS_PER_PARSE})",
        doc.len()
    );
    assert_eq!(doc.len(), 4_093);
    assert!(
        allocations <= ALLOCATIONS_PER_PARSE,
        "{allocations} allocations to parse {} nodes",
        doc.len()
    );
    // Four times the nodes under the same labels: nothing more to intern
    // and the columns are sized from the input, so the count holds.
    let bigger = parsed_document(4);
    let (big, big_allocations) =
        allocations_of(|| Document::parse_str(&bigger).expect("well-formed"));
    assert!(big.len() > 3 * doc.len(), "{} nodes", big.len());
    assert!(
        big_allocations <= allocations + 2,
        "{} nodes took {big_allocations} allocations, {} took {allocations}",
        big.len(),
        doc.len()
    );
}

#[test]
fn an_engine_build_allocates_per_document_not_per_token() {
    let build = |xml: &str| {
        let doc = Document::parse_str(xml).expect("well-formed");
        let (index, index_allocations) = allocations_of(|| XmlIndex::build(&doc));
        let (model, model_allocations) = allocations_of(|| EntityModel::analyze(&doc));
        let (keys, keys_allocations) = allocations_of(|| KeyCatalog::mine(&doc, &model));
        let (_, allocations) = allocations_of(|| EngineParts::build(&doc));
        println!(
            "engine build of {} nodes: index {index_allocations}, model {model_allocations}, \
             keys {keys_allocations} allocations (parent {PARENT_ALLOCATIONS_PER_ENGINE_BUILD} \
             in all)",
            doc.len()
        );
        let stages = index_allocations + model_allocations + keys_allocations;
        assert!(
            allocations <= stages + 3,
            "{allocations} allocations for an engine whose stages take {stages}: the parts \
             around them must not allocate per node"
        );
        drop((index, keys));
        (doc.len(), stages)
    };
    let (nodes, allocations) = build(&parsed_document(1));
    assert_eq!(nodes, 4_093);
    assert!(
        allocations <= ALLOCATIONS_PER_ENGINE_BUILD,
        "{allocations} allocations to build the engine of {nodes} nodes"
    );
    assert!(allocations * 50 <= PARENT_ALLOCATIONS_PER_ENGINE_BUILD);
    // Four times the nodes under the same labels: the buffers that grow
    // by doubling (the token table's three, the features and key values
    // waiting to be sorted) double a couple more times, nothing per node.
    let (big_nodes, big_allocations) = build(&parsed_document(4));
    assert!(big_nodes > 3 * nodes, "{big_nodes} nodes");
    assert!(
        big_allocations <= allocations + 10,
        "{big_nodes} nodes took {big_allocations} allocations, {nodes} took {allocations}"
    );
}

/// The mean allocations of one miss at `k = 10` over [`ENTITY_QUERIES`],
/// the search buffers warm and every cache cold for the key.
fn allocations_per_miss() -> u64 {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let caches = warm_caches(&corpus, 4096, &config);
    let mut total = 0;
    for q in ENTITY_QUERIES {
        let (page, allocations) = miss(&corpus, &caches, &config, q, PAGE);
        assert_eq!(page.results.len(), PAGE, "{q}: a full page");
        println!("{q:20} ranks {:6} results in {allocations} allocations", page.total);
        total += allocations;
    }
    assert_eq!(caches.corpus_page_stats().hits, 0, "every request above was a miss");
    let rankings = caches.ranking_stats();
    assert_eq!(rankings.hits, 0, "every request above ranked: {rankings:?}");
    assert_eq!(rankings.misses, ENTITY_QUERIES.len() as u64, "one ranking a request");
    total / ENTITY_QUERIES.len() as u64
}

/// The mean allocations of a page miss at `k = 10` served from the query's
/// cached ranking, over [`ENTITY_QUERIES`]: the second page of each query
/// ranks it 20 deep, and then its first page is a page miss that routes,
/// reads the ranking, scores its ten results and generates their snippets.
fn allocations_per_ranked_miss() -> u64 {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let caches = warm_caches(&corpus, 4096, &config);
    let mut total = 0;
    for q in ENTITY_QUERIES {
        window(&corpus, &caches, &config, q, (PAGE, PAGE));
        let (page, allocations) = miss(&corpus, &caches, &config, q, PAGE);
        assert_eq!(page.results.len(), PAGE, "{q}: a full page");
        println!("{q:20} serves 10 of {:6} results in {allocations} allocations", page.total);
        total += allocations;
    }
    assert_eq!(caches.corpus_page_stats().hits, 0, "every request above was a page miss");
    let rankings = caches.ranking_stats();
    let queries = ENTITY_QUERIES.len() as u64;
    assert_eq!((rankings.misses, rankings.hits), (queries, queries), "{rankings:?}");
    assert_eq!(caches.snippet_stats().hits, 0, "the two pages share no result");
    total / queries
}

/// The mean allocations of a page miss at `k = 10` served from a ranking
/// patched to an ingest, over [`ENTITY_QUERIES`]: the second page of each
/// query ranks it 20 deep, a copy of the document of its best result is
/// ingested under a new name, and then its first page on the new snapshot
/// is a page miss that routes, finds the copy among the candidates, ranks
/// it alone, merges it into the prefix and generates ten snippets.
fn allocations_per_patched_miss() -> u64 {
    let live = LiveCorpus::from_corpus(corpus());
    let config = ExtractConfig::default();
    let caches = warm_caches(&live.snapshot(), 4096, &config);
    let mut total = 0;
    for (i, q) in ENTITY_QUERIES.into_iter().enumerate() {
        let ranked = live.snapshot();
        let (second, _) = window(&ranked, &caches, &config, q, (PAGE, PAGE));
        let copied = ranked.doc(second.results[0].doc).to_xml_string();
        live.ingest(&format!("copy-{i}"), &copied).expect("a copy parses");
        let (page, allocations) = miss(&live.snapshot(), &caches, &config, q, PAGE);
        assert_eq!(page.results.len(), PAGE, "{q}: a full page");
        println!("{q:20} serves 10 of {:6} results in {allocations} allocations", page.total);
        total += allocations;
    }
    assert_eq!(caches.corpus_page_stats().hits, 0, "every request above was a page miss");
    let (rankings, patches) = (caches.ranking_stats(), caches.ranking_patches());
    let queries = ENTITY_QUERIES.len() as u64;
    assert_eq!((rankings.misses, rankings.hits), (queries, queries), "{rankings:?}");
    assert_eq!(patches, queries, "every first page was served from a patched ranking");
    total / queries
}

/// The mean allocations of a `/search` body at `k = 10` that is a page miss
/// whose ranking and ten snippets are all cached, over [`ENTITY_QUERIES`]:
/// the first page of each query is served once, its page retired, and then
/// served again — routing, the ranking lookup, ten snippet hits, the
/// rendered results and the body.
fn allocations_per_cached_miss() -> u64 {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let caches = warm_caches(&corpus, 4096, &config);
    let body = |q: &str| {
        allocations_of(|| {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            search_body(&session, &config, q, PAGE, 0)
        })
    };
    let mut total = 0;
    for q in ENTITY_QUERIES {
        let (first, _) = body(q);
        caches.retire_pages_before(1);
        let snippets = caches.snippet_stats();
        let (again, allocations) = body(q);
        assert_eq!(again, first, "{q}: the same bytes");
        let after = caches.snippet_stats();
        assert_eq!(after.hits - snippets.hits, PAGE as u64, "{q}: ten snippet hits");
        assert_eq!(after.misses, snippets.misses, "{q}: no snippet generated");
        println!("{q:20} serves a cached page miss in {allocations} allocations");
        total += allocations;
    }
    let queries = ENTITY_QUERIES.len() as u64;
    assert_eq!(caches.corpus_page_stats().misses, 2 * queries, "every body was a page miss");
    let rankings = caches.ranking_stats();
    assert_eq!((rankings.misses, rankings.hits), (queries, queries), "{rankings:?}");
    total / queries
}

#[test]
fn a_cached_page_miss_stays_within_its_pinned_budget() {
    let per_miss = allocations_per_cached_miss();
    println!("allocations per cached miss: {per_miss} (budget {ALLOCATIONS_PER_CACHED_MISS})");
    assert!(per_miss <= ALLOCATIONS_PER_CACHED_MISS, "{per_miss} allocations per cached miss");
}

#[test]
fn a_miss_allocates_a_quarter_of_what_the_parent_did() {
    let per_miss = allocations_per_miss();
    println!("allocations per miss: {per_miss} (parent {PARENT_ALLOCATIONS_PER_MISS})");
    assert!(
        per_miss * 4 <= PARENT_ALLOCATIONS_PER_MISS,
        "{per_miss} allocations per miss is more than a quarter of the parent's \
         {PARENT_ALLOCATIONS_PER_MISS}"
    );
}

#[test]
fn a_miss_stays_within_its_pinned_budget() {
    let per_miss = allocations_per_miss();
    println!("allocations per miss: {per_miss} (budget {ALLOCATIONS_PER_MISS})");
    assert!(per_miss <= ALLOCATIONS_PER_MISS, "{per_miss} allocations per miss");
}

#[test]
fn a_miss_served_from_a_cached_ranking_stays_within_its_pinned_budget() {
    let per_miss = allocations_per_ranked_miss();
    println!("allocations per ranked miss: {per_miss} (budget {ALLOCATIONS_PER_RANKED_MISS})");
    assert!(per_miss <= ALLOCATIONS_PER_RANKED_MISS, "{per_miss} allocations per ranked miss");
}

#[test]
fn a_miss_served_from_a_patched_ranking_stays_within_its_pinned_budget() {
    let per_miss = allocations_per_patched_miss();
    println!(
        "allocations per patched miss: {per_miss} (budget {ALLOCATIONS_PER_PATCHED_MISS})"
    );
    assert!(per_miss <= ALLOCATIONS_PER_PATCHED_MISS, "{per_miss} allocations per patched miss");
}

#[test]
fn a_miss_allocates_a_third_of_what_owned_snippets_did() {
    let per_miss = allocations_per_miss();
    println!(
        "allocations per miss: {per_miss} (owned snippets {OWNED_SNIPPET_ALLOCATIONS_PER_MISS})"
    );
    assert!(
        per_miss * 3 <= OWNED_SNIPPET_ALLOCATIONS_PER_MISS,
        "{per_miss} allocations per miss is more than a third of \
         {OWNED_SNIPPET_ALLOCATIONS_PER_MISS}"
    );
}

#[test]
fn ranking_more_results_allocates_no_more_at_a_fixed_window() {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let caches = warm_caches(&corpus, 0, &config);
    let queries = ["retailer apparel", "name"];
    // One round grows this thread's search and snippet buffers to both
    // queries; the second is what a warm worker pays.
    for q in queries {
        miss(&corpus, &caches, &config, q, PAGE);
    }
    let [(few, few_allocations), (most, most_allocations)] = queries.map(|q| {
        let (page, allocations) = miss(&corpus, &caches, &config, q, PAGE);
        assert_eq!(page.results.len(), PAGE, "{q}: a full page");
        println!("{q:20} ranks {:6} results in {allocations} allocations", page.total);
        (page.total, allocations)
    });
    assert!(few < 200 && most > 50 * few, "{few} / {most} results");
    assert!(
        most_allocations <= few_allocations,
        "ranking {most} results took {most_allocations} allocations, {few} took {few_allocations}"
    );
}

/// A document of `n` entities, each one result of "zz" with `pad` empty
/// siblings beside its match: the more siblings, the lower its score.
fn entities(n: usize, pad: usize) -> String {
    let entity = format!("<s><n>zz</n>{}</s>", "<x/>".repeat(pad));
    format!("<r>{}</r>", entity.repeat(n))
}

/// A page miss at `k = 10` served from a ranking of "zz" patched to an
/// ingest of a document holding `added` results: the query is ranked whole
/// over a 50-result document, the other document is ingested, and its first
/// page is a page miss that ranks the added document alone and merges it
/// below the held results. Returns the total and the miss's allocations.
fn patched_miss_allocations(added: usize) -> (usize, u64) {
    let live = LiveCorpus::from_corpus(CorpusBuilder::new().finish());
    live.ingest("held", &entities(50, 0)).expect("the entities parse");
    let config = ExtractConfig::default();
    let caches = Arc::new(SessionCaches::new(4096));
    window(&live.snapshot(), &caches, &config, "zz", (usize::MAX, 0));
    live.ingest("added", &entities(added, 1)).expect("the entities parse");
    let (page, allocations) = miss(&live.snapshot(), &caches, &config, "zz", PAGE);
    assert_eq!(page.results.len(), PAGE, "a full page");
    assert_eq!(caches.ranking_patches(), 1, "served from a patched ranking");
    (page.total, allocations)
}

#[test]
fn patching_in_more_results_allocates_no_more_at_a_fixed_window() {
    let added = [100, 10_000];
    // One round grows this thread's search, ranking and snippet buffers to
    // both documents; the second is what a warm worker pays.
    for n in added {
        patched_miss_allocations(n);
    }
    let [(few, few_allocations), (most, most_allocations)] = added.map(|n| {
        let (total, allocations) = patched_miss_allocations(n);
        println!("patching in {n:6} results took {allocations} allocations");
        (total, allocations)
    });
    assert_eq!((few, most), (150, 10_050));
    assert!(
        most_allocations <= few_allocations,
        "patching to {most} results took {most_allocations} allocations, {few} took \
         {few_allocations}"
    );
}

#[test]
fn a_snippet_is_a_bounded_number_of_allocations() {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let mut scratch = IListScratch::default();
    let (mut entity_sized, mut entity_allocations) = (0, 0);
    for q in ENTITY_QUERIES.iter().chain(&DOCUMENT_QUERIES) {
        let query = KeywordQuery::parse(q);
        let keywords: Vec<&str> = query.keywords().iter().map(String::as_str).collect();
        let (candidates, _) = corpus.candidate_docs_str(&keywords);
        for &id in candidates.iter().take(3) {
            let doc = corpus.doc(id);
            let extract = Extract::new(doc);
            for ranked in extract.ranked_results(&query).into_iter().take(PAGE) {
                let nodes = doc.subtree_size(ranked.result.root) as u64;
                let (snippeted, allocations) = allocations_of(|| {
                    extract.snippet_of(&query, ranked.result, &config, &mut scratch)
                });
                // The slope form of E5: a fixed cost plus, at most, a
                // fraction of the result's size — a bigger result has more
                // dominant features, and every IList item owns its text
                // and its instance list.
                assert!(
                    allocations <= 64 + nodes / 8,
                    "{q}: {allocations} allocations for a {nodes}-node result"
                );
                if nodes <= 200 {
                    entity_sized += 1;
                    entity_allocations += allocations;
                }
                // The snippet tree shares its document's label table.
                assert!(snippeted.snippet.tree().shares_symbols_with(doc));
            }
        }
    }
    assert!(entity_sized >= 100, "only {entity_sized} entity-sized results were measured");
    // Papers, items, stores, retailers: what a result page is made of. The
    // first budget's parent spent ~250 allocations on each, the owned
    // IList of the hashed statistics ~50.
    let per_snippet = entity_allocations / entity_sized;
    println!("allocations per entity-sized snippet: {per_snippet} over {entity_sized} results");
    assert!(per_snippet <= 40, "{per_snippet} allocations per entity-sized snippet");
}

/// The snippet kernel on a warm scratch: what serving one snippet costs
/// is the `Arc<str>` of its bytes — read as a page miss serves it, the
/// posting lists by the routed ids (with the `Routes::ids_of` lookup) into
/// a reused buffer, and the same bytes as `snippet_xml` over the lists the
/// query resolves by string.
#[test]
fn a_served_snippet_on_a_warm_scratch_is_its_bytes() {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let mut scratch = IListScratch::default();
    let mut routed = Vec::new();
    let mut served = Vec::new();
    for (at, q) in ENTITY_QUERIES.into_iter().enumerate() {
        let query = KeywordQuery::parse(q);
        let mut routes = Routes::default();
        corpus.route(query.keywords(), &mut routes);
        for &id in routes.docs().iter().take(3) {
            let extract = Extract::new(corpus.doc(id));
            for ranked in extract.ranked_results(&query).into_iter().take(PAGE) {
                served.push((at, id, ranked.result.root));
            }
        }
        routed.push((query, routes));
    }
    assert!(served.len() >= 100, "only {} results", served.len());
    let mut lists = Vec::new();
    // One pass grows the scratch to the largest result; the second is warm.
    for pass in 0..2 {
        let mut most = 0;
        for &(at, id, root) in &served {
            let (query, routes) = &routed[at];
            let extract = Extract::borrowing(corpus.doc(id), corpus.engine(id));
            let index = corpus.engine(id).index();
            let (xml, allocations) = allocations_of(|| {
                let ids = routes.ids_of(id).unwrap_or_default();
                lists.clear();
                lists.extend(ids.iter().map(|&token| index.postings_by_id(token)));
                let xml: Arc<str> =
                    Arc::from(extract.snippet_xml(query, &lists, root, &config, &mut scratch));
                xml
            });
            most = most.max(allocations);
            let by_str =
                extract.snippet_xml(query, &query.lists(index), root, &config, &mut scratch);
            assert!(xml.starts_with('<'), "{query}: {xml}");
            assert_eq!(&*xml, by_str, "{query}: routed lists and string-resolved lists");
        }
        println!("pass {pass}: at most {most} allocations per served snippet");
        if pass == 1 {
            assert!(most <= 2, "a served snippet on a warm scratch took {most} allocations");
        }
    }
}

/// A whole-document result served on a warm scratch, the document's
/// engine warm too (its first whole-document snippet already served):
/// like any served snippet, the `Arc<str>` of its bytes and nothing else.
#[test]
fn a_served_whole_document_snippet_on_a_warm_scratch_is_its_bytes() {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let mut scratch = IListScratch::default();
    let mut served = Vec::new();
    for q in DOCUMENT_QUERIES {
        let query = KeywordQuery::parse(q);
        let mut routes = Routes::default();
        corpus.route(query.keywords(), &mut routes);
        served.extend(routes.docs().iter().take(4).map(|&id| (query.clone(), id)));
    }
    assert!(served.len() >= 8, "only {} documents", served.len());
    // The first pass serves each document's root once; the second is warm.
    for pass in 0..2 {
        let mut most = 0;
        for (query, id) in &served {
            let (doc, engine) = (corpus.doc(*id), corpus.engine(*id));
            let extract = Extract::borrowing(doc, engine);
            let lists = query.lists(engine.index());
            let (xml, allocations) = allocations_of(|| {
                let xml: Arc<str> =
                    Arc::from(extract.snippet_xml(query, &lists, doc.root(), &config, &mut scratch));
                xml
            });
            assert!(xml.starts_with('<'), "{query}: {xml}");
            most = most.max(allocations);
        }
        println!("pass {pass}: at most {most} allocations per served whole-document snippet");
        if pass == 1 {
            assert!(most <= 2, "a served whole-document snippet took {most} allocations");
        }
    }
}

#[test]
fn a_cached_snippet_is_its_bytes() {
    let corpus = corpus();
    let config = ExtractConfig::default();
    let caches = warm_caches(&corpus, 4096, &config);
    for q in ["store texas", "paper sigmod"] {
        let (page, _) = miss(&corpus, &caches, &config, q, PAGE);
        // The page holds the snippet cache's `Arc`s: a smaller window of
        // the same query is a page miss whose result objects all come back
        // out of the snippet cache, as the very allocations the page holds
        // — and each still reads back as its snippet's XML.
        let (cached, _) = miss(&corpus, &caches, &config, q, PAGE - 1);
        assert_eq!(cached.results.len(), PAGE - 1);
        for (served, cached) in page.results.iter().zip(cached.results.iter()) {
            let object = cached.snippet.object();
            assert!(Arc::ptr_eq(served.snippet.object(), object), "{q}: one object, shared");
            assert!(object.starts_with("{\"doc\":"), "{q}: {object}");
            assert!(cached.snippet.starts_with('<'), "{q}: {}", &*cached.snippet);
        }
    }
    assert_eq!(caches.corpus_page_stats().hits, 0, "every window above was a page miss");
    assert_eq!(caches.snippet_stats().hits, 2 * (PAGE as u64 - 1));
    // What the cache holds is those bytes, and nothing per entry besides.
    let bytes = caches.snippet_cache_bytes();
    println!("20 cached snippets hold {bytes} bytes of result objects");
    assert!(bytes > 0 && bytes < 2 * PAGE * 1024, "{bytes} bytes for {} snippets", 2 * PAGE);
}

#[test]
fn the_first_query_on_a_fresh_document_builds_no_second_vocabulary() {
    // Two documents of one shape, each an element whose text holds 5 000
    // distinct tokens: the ingest interns them all into the document's
    // segment and the directory — and only the ingest does.
    const TOKENS: u64 = 5_000;
    let xml = |prefix: &str| {
        let text: String = (0..TOKENS).map(|i| format!("{prefix}{i} ")).collect();
        format!("<notes><note><body>{text}</body><by>ann</by></note></notes>")
    };
    let live = LiveCorpus::new();
    live.ingest("older", &xml("older")).expect("well-formed");
    let before = live.snapshot();
    let newer = live.ingest("newer", &xml("newer")).expect("well-formed").id;
    let after = live.snapshot();
    // The vocabulary the ingest built: every token of the new document in
    // its segment, each on its one element, and in the directory beside
    // the document and that token id.
    let segment = after.engine(newer).index();
    let labels = ["notes", "note", "body", "by", "ann"].len() as u64;
    assert_eq!(segment.inverted().vocabulary_size() as u64, TOKENS + labels);
    assert_eq!(
        after.postings().vocabulary_size(),
        before.postings().vocabulary_size() + TOKENS as usize,
        "the directory gained exactly the new document's own tokens"
    );
    for i in [0, 42, TOKENS - 1] {
        let token = format!("newer{i}");
        let id = segment.token_id(&token).expect("interned at ingest");
        assert_eq!(segment.postings_by_id(id).len(), 1, "{token}");
        let entries = after.postings().entries_for(&token);
        assert_eq!(entries.len(), 1, "{token}");
        assert_eq!((entries[0].doc, entries[0].token), (newer, id), "{token}");
    }

    let snapshot = live.snapshot();
    let caches = Arc::new(SessionCaches::new(0)); // result caches off
    let config = ExtractConfig::default();
    let ask = |q: &str| {
        allocations_of(|| {
            let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
            session.answer_corpus_topk(q, &config, PAGE, 0)
        })
    };
    // The first document warms this thread's search and kernel scratch.
    let (page, _) = ask("older42 ann");
    assert_eq!(page.total, 1, "the warm-up reaches the older document");
    let (page, first) = ask("newer42 ann");
    assert_eq!(page.total, 1, "the query reaches the fresh document");
    let (_, repeat) = ask("newer42 ann");
    println!("first query on a fresh document: {first} allocations (repeat {repeat})");
    assert!(first <= repeat, "{first} allocations on first touch vs {repeat} on a repeat");
}

/// `n` distinct strings of 4 to 8 bytes, shaped like index tokens.
fn distinct_strings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("tok{i}")).collect()
}

#[test]
fn interning_distinct_strings_takes_logarithmically_many_allocations() {
    let intern_all = |strings: &[String]| {
        allocations_of(|| {
            let mut table = SymbolTable::new();
            for s in strings {
                table.intern(s);
            }
            table
        })
    };
    let (small, small_allocations) = intern_all(&distinct_strings(10_000));
    let (big, big_allocations) = intern_all(&distinct_strings(20_000));
    assert_eq!((small.len(), big.len()), (10_000, 20_000));
    println!(
        "interning 10 000 strings: {small_allocations} allocations, 20 000: {big_allocations}"
    );
    // Three buffers, each grown by doubling: ~log2(n) growths apiece. A
    // table that stored strings one allocation each took >= 20 000.
    assert!(small_allocations <= 3 * 14 + 6, "{small_allocations} allocations for 10 000 strings");
    // Twice the strings is one more doubling of each buffer, not twice
    // the allocations.
    assert!(
        big_allocations <= small_allocations + 3,
        "{big_allocations} allocations for 20 000 strings vs {small_allocations} for 10 000"
    );
}

#[test]
fn a_session_over_a_snapshot_allocates_nothing() {
    let corpus = corpus();
    let caches = Arc::new(SessionCaches::new(4096));
    let (session, allocations) =
        allocations_of(|| QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches)));
    assert_eq!(allocations, 0, "a session over {} slots allocated", corpus.slot_count());
    drop(session);
}

#[test]
fn an_engine_lives_and_dies_with_its_document_generation() {
    let xml = |words: &str| format!("<notes><note><body>{words} words</body></note></notes>");
    let live = LiveCorpus::new();
    let kept = live.ingest("kept", &xml("kept")).expect("well-formed").id;
    let updated = live.ingest("updated", &xml("old")).expect("well-formed").id;
    let deleted = live.ingest("deleted", &xml("doomed")).expect("well-formed").id;
    let before = live.snapshot();
    let replaced = Arc::downgrade(before.engine(updated).model());
    let doomed = Arc::downgrade(before.engine(deleted).model());

    let update = live.ingest("updated", &xml("new")).expect("well-formed");
    assert_eq!(update.replaced, Some(updated));
    live.delete("deleted").expect("a live document");
    let after = live.snapshot();
    assert!(
        Arc::ptr_eq(before.engine(kept).model(), after.engine(kept).model()),
        "the untouched document's engine is shared across the swap"
    );
    let fresh = after.engine(update.id).model();
    assert!(!Arc::ptr_eq(fresh, &replaced.upgrade().expect("held by `before`")));

    drop(before);
    assert!(replaced.upgrade().is_none(), "the replaced generation's engine was freed");
    assert!(doomed.upgrade().is_none(), "the deleted document's engine was freed");
}
