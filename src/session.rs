//! A long-lived, thread-safe query session — the serving layer over one
//! document **or a whole corpus**.
//!
//! [`QuerySession`] wraps the offline stages (indexes, entity model, mined
//! keys) behind a worker pool of plain `std` scoped threads, so N keyword
//! queries are answered **concurrently against shared immutable indexes**
//! — no `tokio` needed offline, no locks on the read path.
//!
//! Two backends share the same session machinery:
//!
//! * **Single document** ([`QuerySession::new`]): one [`Extract`] engine,
//!   the PR-2 behaviour, unchanged.
//! * **Corpus** ([`QuerySession::from_corpus`]): a borrowed
//!   [`Corpus`] plus one *lazily built* [`Extract`] engine per document.
//!   [`QuerySession::answer_corpus`] routes each query through the
//!   corpus's token → document directory ([`Corpus::candidate_docs_str`]
//!   semantics) so only documents containing **every** keyword pay for
//!   engine construction (entity model + keys around the corpus's own
//!   index segment), per-document SLCA and snippet generation; the
//!   per-document ranked results are then merged into one page ordered by
//!   (score desc, document asc, root asc).
//!
//! Caching is two-level, both LRU:
//!
//! 1. a **page cache** (`normalized query + config → Arc<[..]>`) makes a
//!    repeated hot query a single hash lookup plus an `Arc` clone —
//!    routing, search, ranking and snippet generation are all skipped
//!    (single-document and corpus pages live in separate caches because
//!    their page types differ). A corpus page entry also keeps the
//!    window's `/search` rendering once it has been served
//!    ([`CorpusTopK`]), so a hit re-serves bytes instead of re-walking
//!    snippet trees;
//! 2. the per-result snippet cache (`query + (DocId, root) + config →
//!    Arc<SnippetedResult>`) catches queries whose page entry was evicted
//!    and amortizes snippet generation across overlapping result sets —
//!    one shared cache serves every document of a corpus thanks to the
//!    [`DocId`]-qualified keys. Corpus pages hold the same `Arc`s, so a
//!    snippet exists once however many pages show it.
//!
//! Both sit behind `Mutex`es held strictly for `get`/`insert` — never
//! during computation, and never while an entry is freed: what an insert
//! evicts or a mutation invalidates is handed out of the cache and
//! dropped after the guard — so contention stays negligible next to the
//! work they save. An evicted *snippet* goes one step further, back to
//! the thread that built it ([`Returns`]): with several workers filling
//! one cache, half of what a worker evicts was allocated by another, and
//! freeing it there takes that thread's allocator lock some thirty times
//! per snippet — the workers then sleep on each other instead of
//! searching.
//!
//! A miss pays for the window it serves, not for the results it ranks:
//! every result root of every candidate document is *scored by counting*
//! (its keyword matches are the postings inside its ID interval — two
//! binary searches per keyword, [`ranking::scored_roots`]), the served
//! window is selected from `(document, score, root)` triples, and only
//! its ≤ `k` roots ever become a `QueryResult`, an IList and a snippet.
//!
//! All cache state lives in an [`SessionCaches`] bundle behind an `Arc`.
//! A standalone session owns a private bundle; a **live** serving layer
//! shares one bundle across the cheap per-snapshot sessions it builds per
//! request ([`QuerySession::for_snapshot`]), so page/snippet caches and
//! per-document engine artifacts stay warm across epoch swaps. Safety
//! across mutations comes from the keys: snippet keys carry generational
//! [`DocId`]s and page keys carry the corpus epoch, so entries computed
//! against an older snapshot can never answer for a newer one.
//!
//! ```
//! use extract::prelude::*;
//!
//! let mut builder = CorpusBuilder::new();
//! builder.add_document("texas", "<stores><store><name>Levis</name>\
//!     <state>Texas</state></store></stores>").unwrap();
//! builder.add_document("ohio", "<stores><store><name>Gap</name>\
//!     <state>Ohio</state></store></stores>").unwrap();
//! let corpus = builder.finish();
//! let session = QuerySession::from_corpus(&corpus);
//! let page = session.answer_corpus("store texas", &ExtractConfig::with_bound(6));
//! assert_eq!(page.len(), 1);
//! assert_eq!(corpus.name(page[0].doc), "texas");
//! ```

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use extract_core::cache::{CacheKey, LruCache, PageKey, QueryText};
use extract_core::ilist::IListScratch;
use extract_core::{CacheStats, EngineParts, Extract, ExtractConfig, SnippetedResult};
use extract_corpus::{Corpus, DocId, FanIn};
use extract_obs::lock_unpoisoned;
use extract_search::ranking::{self, by_score_desc};
use extract_search::xseek::RootsScratch;
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId};

/// Default worker count when the host's parallelism cannot be queried.
const DEFAULT_WORKERS: usize = 4;

/// Page-cache capacity: whole result pages are bigger than single
/// snippets, so the page cache keeps a smaller hot set than the snippet
/// cache.
const PAGE_CAPACITY: usize = 128;

/// Capacity of the shared per-document engine-artifact cache. Independent
/// of the snippet-cache capacity: even a caches-off session benefits from
/// not re-running the offline stages, and live serving relies on it so
/// untouched documents keep warm engines across epoch swaps.
const ENGINE_CACHE_CAPACITY: usize = 1024;

/// One answered query: the ranked, snippeted results, shared immutably.
pub type AnswerPage = Arc<[SnippetedResult]>;

/// One corpus result: which document it came from, its ranking score, and
/// the snippeted result itself.
#[derive(Debug, Clone)]
pub struct CorpusAnswer {
    /// The document the result root lives in.
    pub doc: DocId,
    /// The ranking score ([`extract_search::ranking::score`]), comparable
    /// across documents.
    pub score: f64,
    /// The query result with its snippet — shared with the snippet-cache
    /// entry it came from (or went into), so a cached page holds
    /// references, not deep copies: retiring a page generation is
    /// refcount decrements, not a thousand snippet trees freed under the
    /// cache lock.
    pub result: Arc<SnippetedResult>,
}

/// One answered corpus query: results merged across documents, shared
/// immutably.
pub type CorpusPage = Arc<[CorpusAnswer]>;

/// One paginated corpus answer: the served window of the globally ranked
/// result list, plus the exact total so result pages can say "10 of
/// 74,213" without having paid for 74,213 snippets.
#[derive(Debug, Clone)]
pub struct CorpusTopK {
    /// The `[offset, offset + k)` window, in (score desc, doc, root)
    /// order — byte-identical to the same slice of an unbounded answer.
    pub results: CorpusPage,
    /// How many results the whole corpus holds for this query.
    pub total: usize,
    /// The rank cutoff that was requested.
    pub k: usize,
    /// The rank of the first served result.
    pub offset: usize,
    /// The window's `results` array as `/search` serves it, filled by the
    /// wire-format producer (`serve::search_body`) the first time this
    /// page is rendered. The cell is shared with the page-cache entry, so
    /// the rendered bytes live and die with the page they were rendered
    /// from — same key, same epoch, same eviction — and a later hit
    /// serves them as they are.
    pub(crate) rendered: Arc<OnceLock<Box<str>>>,
}

/// The engines behind a session: one document, or one per corpus document
/// (built on first touch, so routing decides which documents ever pay).
#[derive(Debug)]
enum Engines<'d> {
    Single(Box<Extract<'d>>),
    Corpus { corpus: &'d Corpus, engines: Vec<OnceLock<Extract<'d>>> },
}

/// Insert under the cache's lock; free what the insert displaced (an
/// evicted snippet tree, a whole page) after the guard, so no reader
/// waits on a deallocation.
fn store<K: Eq + Hash + Clone, V: Clone>(cache: &Mutex<LruCache<K, V>>, key: K, value: V) {
    let displaced = lock_unpoisoned(cache).insert(key, value);
    drop(displaced);
}

/// Remove the entries failing `keep` under the cache's lock; free them
/// after the guard.
fn purge<K: Eq + Hash + Clone, V: Clone>(
    cache: &Mutex<LruCache<K, V>>,
    keep: impl FnMut(&K) -> bool,
) {
    let removed = lock_unpoisoned(cache).retain(keep);
    drop(removed);
}

/// How many threads' returns are kept apart. Threads beyond that share
/// bins round-robin; two threads sharing a bin free each other's entries,
/// which costs what every eviction cost before bins existed.
const HOMES: usize = 16;

/// Most entries a bin holds for a thread that has not come back for them
/// (a worker gone idle, a batch thread that exited); past that the
/// evicting thread frees the entry itself.
const BIN_LIMIT: usize = 64;

/// The calling thread's bin, assigned on its first cache insert.
fn home() -> u8 {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: u8 =
            u8::try_from(NEXT.fetch_add(1, Ordering::Relaxed) % HOMES).unwrap_or(0);
    }
    HOME.with(|home| *home)
}

/// Cache entries on their way back to the thread that built them.
///
/// A cached snippet is some thirty allocations, all made by the worker
/// that computed it. Evicted by another worker and dropped there, each of
/// them is returned to the *builder's* allocator arena under that arena's
/// lock, while the builder is allocating from it: measured with two
/// workers on the benchmark's miss keys, 4.2 futex sleeps per request and
/// 1.25× one worker's throughput, against 0.4 and 1.8× when every thread
/// frees only what it allocated. So the evicting thread leaves the entry
/// in its builder's bin, and a thread empties its own bin whenever it is
/// about to insert — on the miss path, next to the allocations the freed
/// memory will serve.
#[derive(Debug)]
struct Returns<V> {
    bins: [Mutex<Vec<V>>; HOMES],
}

impl<V> Returns<V> {
    fn new() -> Returns<V> {
        Returns { bins: std::array::from_fn(|_| Mutex::new(Vec::new())) }
    }

    /// Free what other threads left for `home`, one entry per lock hold —
    /// never under the bin's guard, and the bin keeps its buffer.
    fn reap(&self, home: u8) {
        let Some(bin) = self.bins.get(usize::from(home)) else { return };
        loop {
            let Some(entry) = lock_unpoisoned(bin).pop() else { return };
            drop(entry);
        }
    }

    /// Leave `value` for the thread that built it; hand it back when that
    /// thread's bin is full.
    fn send(&self, home: u8, value: V) -> Option<V> {
        let Some(bin) = self.bins.get(usize::from(home)) else { return Some(value) };
        let mut bin = lock_unpoisoned(bin);
        if bin.len() < BIN_LIMIT {
            bin.push(value);
            None
        } else {
            Some(value)
        }
    }

    /// How many entries wait for `home`.
    #[cfg(test)]
    fn waiting(&self, home: u8) -> usize {
        self.bins.get(usize::from(home)).map_or(0, |bin| lock_unpoisoned(bin).len())
    }
}

/// [`store`] for a cache whose entries carry their builder's [`home`]
/// (`me` is the calling thread's): the thread first frees what came back
/// to it, then inserts, and what the insert displaced goes to *its*
/// builder — dropped here only when that is this thread (or the
/// builder's bin is full).
fn store_homed<K: Eq + Hash + Clone, V: Clone>(
    cache: &Mutex<LruCache<K, (u8, V)>>,
    returns: &Returns<V>,
    me: u8,
    key: K,
    value: V,
) {
    returns.reap(me);
    let displaced = lock_unpoisoned(cache).insert(key, (me, value));
    let dropped_here = match displaced {
        Some((builder, value)) if builder != me => returns.send(builder, value),
        Some((_, value)) => Some(value),
        None => None,
    };
    drop(dropped_here);
}

/// One ranked result before it is built: where it is and what it scored.
type Ranked = (DocId, f64, NodeId);

/// The page order: score descending, then document, then root — total,
/// since a `(document, root)` pair occurs once.
fn page_order(a: &Ranked, b: &Ranked) -> std::cmp::Ordering {
    by_score_desc(a.1, b.1).then_with(|| a.0.cmp(&b.0)).then_with(|| a.2.cmp(&b.2))
}

/// The shareable cache state of one serving lineage: result pages,
/// per-result snippets, per-document engine artifacts and the routing
/// fan-in counters. A standalone [`QuerySession`] owns a private bundle;
/// live serving keeps one bundle alive across the per-snapshot sessions
/// it builds, so caches survive corpus mutations (see the module docs for
/// why that is safe).
#[derive(Debug)]
pub struct SessionCaches {
    cache_capacity: usize,
    pages: Mutex<LruCache<PageKey, AnswerPage>>,
    /// Corpus pages cache *windows*: the key carries `(k, offset)` and the
    /// value is the answer itself — the served slice, the full result
    /// count, and the slice's rendered bytes once `/search` has served it.
    corpus_pages: Mutex<LruCache<PageKey, CorpusTopK>>,
    /// Each snippet with the [`home`] of the thread that built it.
    snippets: Mutex<LruCache<CacheKey, (u8, Arc<SnippetedResult>)>>,
    /// Evicted snippets waiting for their builders.
    snippet_returns: Returns<Arc<SnippetedResult>>,
    /// Offline artifacts (index + model + keys) per document, so sessions
    /// sharing this bundle skip the offline stages for documents any of
    /// them already built. Keyed by generational [`DocId`]: a mutated
    /// document's new generation never sees the old build.
    engine_parts: Mutex<LruCache<DocId, EngineParts>>,
    /// Routing fan-in accumulated by [`QuerySession::answer_corpus`]
    /// (directory + posting entries touched), split across atomics so the
    /// read path stays lock-free.
    fanin_postings: AtomicU64,
    fanin_directory: AtomicU64,
}

impl SessionCaches {
    /// A fresh bundle; `cache_capacity` sizes the snippet cache and (capped
    /// at an internal bound) the page caches, `0` disables result caching
    /// (the engine-artifact cache stays on — it holds derived structures,
    /// not query results).
    pub fn new(cache_capacity: usize) -> SessionCaches {
        SessionCaches {
            cache_capacity,
            pages: Mutex::new(LruCache::new(cache_capacity.min(PAGE_CAPACITY))),
            corpus_pages: Mutex::new(LruCache::new(cache_capacity.min(PAGE_CAPACITY))),
            snippets: Mutex::new(LruCache::new(cache_capacity)),
            snippet_returns: Returns::new(),
            engine_parts: Mutex::new(LruCache::new(ENGINE_CACHE_CAPACITY)),
            fanin_postings: AtomicU64::new(0),
            fanin_directory: AtomicU64::new(0),
        }
    }

    /// Drop every cached artifact of `doc` — result pages are left to the
    /// epoch key, but snippets and engine parts are keyed per document and
    /// purged here. Invalidation hygiene for mutated documents: the
    /// generational keys already guarantee the old bytes can't be served,
    /// this frees their memory eagerly (snippets already evicted and
    /// waiting in a [`Returns`] bin — at most `BIN_LIMIT` per thread —
    /// go when their builder next inserts).
    pub fn invalidate_doc(&self, doc: DocId) {
        purge(&self.snippets, |k| k.doc() != doc);
        purge(&self.engine_parts, |k| *k != doc);
    }

    /// Drop result pages computed before `epoch` (their keys can never
    /// match again once the corpus moved on — this reclaims the memory
    /// instead of waiting for LRU pressure).
    pub fn retire_pages_before(&self, epoch: u64) {
        purge(&self.pages, |k| k.epoch() >= epoch);
        purge(&self.corpus_pages, |k| k.epoch() >= epoch);
    }

    /// Number of documents with cached engine artifacts.
    pub fn engines_cached(&self) -> usize {
        lock_unpoisoned(&self.engine_parts).len()
    }

    /// Single-document page-cache counters since the bundle was created.
    pub fn page_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.pages).stats()
    }

    /// Corpus page-cache counters since the bundle was created.
    pub fn corpus_page_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.corpus_pages).stats()
    }

    /// Per-result snippet-cache counters since the bundle was created.
    pub fn snippet_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.snippets).stats()
    }

    /// Bytes of rendered `/search` results the corpus page cache holds
    /// right now — what serving hits without re-rendering costs in memory
    /// (at most [`PAGE_CAPACITY`] pages, one copy each). Summed on demand:
    /// nothing on the request path maintains it.
    pub fn corpus_page_body_bytes(&self) -> usize {
        lock_unpoisoned(&self.corpus_pages)
            .values()
            .filter_map(|page| page.rendered.get())
            .map(|rendered| rendered.len())
            .sum()
    }
}

/// A thread-safe query-answering session over one document or one corpus.
#[derive(Debug)]
pub struct QuerySession<'d> {
    engines: Engines<'d>,
    workers: usize,
    caches: Arc<SessionCaches>,
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(DEFAULT_WORKERS)
        .max(2)
}

impl<'d> QuerySession<'d> {
    /// Run the offline stages for `doc` and size the pool to the host's
    /// available parallelism (at least 2 workers), with the default cache
    /// capacity.
    pub fn new(doc: &'d Document) -> QuerySession<'d> {
        QuerySession::with_options(doc, default_workers(), extract_core::cache::DEFAULT_CAPACITY)
    }

    /// Run the offline stages with an explicit worker count and snippet
    /// cache capacity (`0` disables both cache levels).
    pub fn with_options(doc: &'d Document, workers: usize, cache_capacity: usize) -> QuerySession<'d> {
        QuerySession::from_extract(Extract::new(doc), workers, cache_capacity)
    }

    /// Wrap an already-built [`Extract`] (shares its indexes and models).
    pub fn from_extract(
        extract: Extract<'d>,
        workers: usize,
        cache_capacity: usize,
    ) -> QuerySession<'d> {
        QuerySession::from_engines(
            Engines::Single(Box::new(extract)),
            workers,
            Arc::new(SessionCaches::new(cache_capacity)),
        )
    }

    /// Serve a corpus with default pool and cache sizing. Per-document
    /// engines are built lazily: a document pays for entity analysis and
    /// key mining the first time a query routes to it (its index is the
    /// corpus's segment, built at ingestion).
    ///
    /// # Panics
    /// If the corpus holds no documents.
    pub fn from_corpus(corpus: &'d Corpus) -> QuerySession<'d> {
        QuerySession::from_corpus_with_options(
            corpus,
            default_workers(),
            extract_core::cache::DEFAULT_CAPACITY,
        )
    }

    /// [`QuerySession::from_corpus`] with explicit worker count and cache
    /// capacity (`0` disables caching).
    ///
    /// # Panics
    /// If the corpus holds no documents.
    pub fn from_corpus_with_options(
        corpus: &'d Corpus,
        workers: usize,
        cache_capacity: usize,
    ) -> QuerySession<'d> {
        assert!(!corpus.is_empty(), "QuerySession requires a non-empty corpus");
        QuerySession::for_snapshot(corpus, workers, Arc::new(SessionCaches::new(cache_capacity)))
    }

    /// A session over a (possibly empty) corpus **snapshot**, reusing an
    /// externally owned cache bundle. This is the live-serving entry
    /// point: the serving layer builds one of these per request over the
    /// current [`Corpus`] snapshot, and because `caches` outlives the
    /// session, page/snippet/engine caches stay warm across epoch swaps.
    /// Unlike [`QuerySession::from_corpus`], an empty corpus is allowed —
    /// a live corpus legitimately passes through empty.
    pub fn for_snapshot(
        corpus: &'d Corpus,
        workers: usize,
        caches: Arc<SessionCaches>,
    ) -> QuerySession<'d> {
        let engines = (0..corpus.slot_count()).map(|_| OnceLock::new()).collect();
        QuerySession::from_engines(Engines::Corpus { corpus, engines }, workers, caches)
    }

    fn from_engines(
        engines: Engines<'d>,
        workers: usize,
        caches: Arc<SessionCaches>,
    ) -> QuerySession<'d> {
        QuerySession { engines, workers: workers.max(1), caches }
    }

    /// The cache bundle behind this session — share it with
    /// [`QuerySession::for_snapshot`] to keep caches warm across sessions.
    pub fn caches(&self) -> Arc<SessionCaches> {
        Arc::clone(&self.caches)
    }

    /// The engine of document 0 (the only document for single-document
    /// sessions; the first corpus document otherwise — built on demand).
    pub fn extract(&self) -> &Extract<'d> {
        self.engine(DocId::from_index(0))
    }

    /// The corpus behind this session, if it serves one.
    pub fn corpus(&self) -> Option<&'d Corpus> {
        match &self.engines {
            Engines::Single(_) => None,
            Engines::Corpus { corpus, .. } => Some(corpus),
        }
    }

    /// The lazily-built engine of `doc`.
    ///
    /// # Panics
    /// If `doc` is out of range for this session (single-document sessions
    /// only have document 0).
    fn engine(&self, doc: DocId) -> &Extract<'d> {
        match &self.engines {
            Engines::Single(extract) => {
                assert_eq!(doc.index(), 0, "single-document session has only doc 0");
                extract
            }
            Engines::Corpus { corpus, engines } => {
                // xlint: allow(L3, "doc.index() < slot_count: `engines` is sized to the snapshot's slot count, and ids come out of that snapshot's own routing — or are the doc 0 of `extract()`/`answer()`, whose out-of-range panic is documented and which no daemon route calls")
                engines[doc.index()].get_or_init(|| {
                    // Shared artifact cache first: another session of this
                    // lineage (or this one, pre-eviction) may have already
                    // paid for the offline stages of this exact document
                    // generation.
                    let cached = lock_unpoisoned(&self.caches.engine_parts).get(&doc);
                    match cached {
                        Some(parts) => Extract::with_parts(corpus.doc(doc), parts),
                        None => {
                            // The index is the corpus's own segment: only
                            // the entity model and the keys are built here.
                            let segment = Arc::clone(corpus.segment(doc));
                            let parts = EngineParts::with_index(corpus.doc(doc), segment);
                            store(&self.caches.engine_parts, doc, parts.clone());
                            Extract::with_parts(corpus.doc(doc), parts)
                        }
                    }
                })
            }
        }
    }

    /// How many per-document engines have been built so far (equals 1 for
    /// single-document sessions). Exposes the effect of candidate routing:
    /// documents never routed to never pay for entity analysis.
    pub fn engines_built(&self) -> usize {
        match &self.engines {
            Engines::Single(_) => 1,
            Engines::Corpus { engines, .. } => {
                engines.iter().filter(|e| e.get().is_some()).count()
            }
        }
    }

    /// The pool size used by the batch entry points.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Single-document page-cache counters since session start.
    pub fn page_stats(&self) -> CacheStats {
        self.caches.page_stats()
    }

    /// Corpus page-cache counters since session start.
    pub fn corpus_page_stats(&self) -> CacheStats {
        self.caches.corpus_page_stats()
    }

    /// Per-result snippet-cache counters since session start.
    pub fn snippet_stats(&self) -> CacheStats {
        self.caches.snippet_stats()
    }

    /// Index-entry fan-in accumulated by corpus routing since session
    /// start (zero for single-document sessions).
    pub fn routing_fanin(&self) -> FanIn {
        FanIn {
            postings_touched: self.caches.fanin_postings.load(Ordering::Relaxed),
            directory_touched: self.caches.fanin_directory.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached pages and snippets (counters reset too, including
    /// the routing fan-in). Cached per-document engine artifacts are kept:
    /// they are derived structures, not query results.
    pub fn clear_cache(&self) {
        lock_unpoisoned(&self.caches.pages).clear();
        lock_unpoisoned(&self.caches.corpus_pages).clear();
        lock_unpoisoned(&self.caches.snippets).clear();
        self.caches.fanin_postings.store(0, Ordering::Relaxed);
        self.caches.fanin_directory.store(0, Ordering::Relaxed);
    }

    /// Answer one query against **document 0** (the only document for
    /// single-document sessions). A page-cache hit costs one lock + hash
    /// lookup + `Arc` clone; otherwise search + rank run, each result is
    /// answered from the snippet cache or computed fresh, and the
    /// assembled page is cached. With caching disabled (capacity 0) no
    /// lock is ever taken, so the worker pool runs fully contention-free.
    /// Safe to call from many threads at once — `&self` only.
    pub fn answer(&self, query_str: &str, config: &ExtractConfig) -> AnswerPage {
        let query = KeywordQuery::parse(query_str);
        let text = self.query_text(&query);
        let pkey =
            text.as_ref().map(|text| PageKey::unbounded(text, config).at_epoch(self.epoch()));
        if let Some(pkey) = &pkey {
            if let Some(page) = lock_unpoisoned(&self.caches.pages).get(pkey) {
                return page;
            }
        }
        let (ranked, _) = self.search(&query, &[DocId::from_index(0)], usize::MAX);
        let mut scratch = IListScratch::default();
        let page: AnswerPage = ranked
            .iter()
            .map(|&at| self.snippet_for(at, &query, text.as_ref(), config, &mut scratch))
            .map(Arc::unwrap_or_clone)
            .collect();
        if let Some(pkey) = pkey {
            store(&self.caches.pages, pkey, page.clone());
        }
        page
    }

    /// The request's query, normalized once for every cache key built
    /// from it — `None` when result caching is off and no key ever is.
    fn query_text(&self, query: &KeywordQuery) -> Option<QueryText> {
        (self.caches.cache_capacity > 0).then(|| QueryText::from(query))
    }

    /// Search + rank: score every result root of every candidate document
    /// by counting, then put the first `served` of them (all, for
    /// `usize::MAX`) in page order. Returns that prefix and how many
    /// results there are in all. Nothing is built for any result here —
    /// one triple each — and the buffers SLCA and entity lifting work in
    /// are shared by every candidate.
    fn search(
        &self,
        query: &KeywordQuery,
        candidates: &[DocId],
        served: usize,
    ) -> (Vec<Ranked>, usize) {
        let mut ranked: Vec<Ranked> = Vec::new();
        let mut scratch = RootsScratch::default();
        for &doc in candidates {
            let extract = self.engine(doc);
            let (index, model) = (extract.index(), extract.model());
            let emit = |root, score| ranked.push((doc, score, root));
            ranking::scored_roots(extract.document(), index, model, query, &mut scratch, emit);
        }
        let total = ranked.len();
        let served = served.min(total);
        if served < total {
            ranked.select_nth_unstable_by(served, page_order);
            ranked.truncate(served);
        }
        ranked.sort_unstable_by(page_order);
        (ranked, total)
    }

    /// The epoch page keys are pinned to: the corpus epoch for corpus
    /// sessions, `0` for single documents (which never mutate).
    fn epoch(&self) -> u64 {
        match &self.engines {
            Engines::Single(_) => 0,
            Engines::Corpus { corpus, .. } => corpus.epoch(),
        }
    }

    /// One served result's snippet, via the shared snippet cache when
    /// enabled (`text` is the request's normalized query then). This is
    /// where a ranked triple first becomes a [`QueryResult`] — on a
    /// snippet-cache miss only.
    fn snippet_for(
        &self,
        (doc, _, root): Ranked,
        query: &KeywordQuery,
        text: Option<&QueryText>,
        config: &ExtractConfig,
        scratch: &mut IListScratch,
    ) -> Arc<SnippetedResult> {
        let extract = self.engine(doc);
        let compute = |scratch: &mut IListScratch| {
            let result = QueryResult::build(extract.document(), extract.index(), query, root);
            Arc::new(extract.snippet_of(query, result, config, scratch))
        };
        let Some(text) = text else {
            return compute(scratch);
        };
        let key = CacheKey::for_doc(text, doc, root, config);
        if let Some((_, hit)) = lock_unpoisoned(&self.caches.snippets).get(&key) {
            return hit;
        }
        let computed = compute(scratch);
        let caches = &self.caches;
        store_homed(&caches.snippets, &caches.snippet_returns, home(), key, Arc::clone(&computed));
        computed
    }

    /// Answer one query against the whole corpus: route through the
    /// directory to the documents containing **every**
    /// keyword, run per-document search + ranking + snippet generation on
    /// exactly those, and merge into one page ordered by (score
    /// descending, document ascending, root ascending) — identical to
    /// answering each document standalone and merging with the same rule
    /// (pinned by the equivalence proptests).
    ///
    /// On a single-document session this degrades gracefully to the one
    /// document (no routing). Safe to call from many threads at once.
    ///
    /// This is the unbounded page: it delegates to
    /// [`QuerySession::answer_corpus_topk`] with `k = usize::MAX`.
    pub fn answer_corpus(&self, query_str: &str, config: &ExtractConfig) -> CorpusPage {
        self.answer_corpus_topk(query_str, config, usize::MAX, 0).results
    }

    /// Answer one corpus query with a **rank cutoff**: route, search and
    /// rank everywhere the query can match (so `total` and the global
    /// order are exact), but generate snippets **only** for the
    /// `[offset, offset + k)` window actually being served. A broad query
    /// over a big corpus ("name" → 74k merged results on the benchmark
    /// corpus) pays for ten snippets, not seventy-four thousand — search
    /// and ranking are cheap next to per-result IList + instance
    /// selection, which this makes proportional to the page size.
    ///
    /// The window is byte-identical to the same slice of an unbounded
    /// [`QuerySession::answer_corpus`] answer (pinned by tests): ranking
    /// stays deterministic in (score desc, doc asc, root asc) order, so
    /// consecutive pages tile the full list without overlap or gaps.
    /// An `offset` at or past the end yields an empty window with the
    /// exact `total` intact. Cached pages are keyed by the window too
    /// ([`PageKey::bounded`]) — distinct pages never alias.
    pub fn answer_corpus_topk(
        &self,
        query_str: &str,
        config: &ExtractConfig,
        k: usize,
        offset: usize,
    ) -> CorpusTopK {
        let query = KeywordQuery::parse(query_str);
        let text = self.query_text(&query);
        let pkey = text
            .as_ref()
            .map(|text| PageKey::bounded(text, config, k, offset).at_epoch(self.epoch()));
        if let Some(pkey) = &pkey {
            if let Some(page) = lock_unpoisoned(&self.caches.corpus_pages).get(pkey) {
                return page;
            }
        }
        // Stage 1 — search + rank only: no snippet work yet, and nothing
        // built for a result outside the window. Timed as the request's
        // `search` span (the cache-hit return above records no stage at
        // all — a hit does no search work).
        let (ranked, total) = extract_obs::time_stage(extract_obs::Stage::Search, || {
            let candidates: Vec<DocId> = match (&self.engines, query.is_empty()) {
                (_, true) => Vec::new(),
                (Engines::Single(_), false) => vec![DocId::from_index(0)],
                (Engines::Corpus { corpus, .. }, false) => {
                    let keywords: Vec<&str> =
                        query.keywords().iter().map(String::as_str).collect();
                    let (docs, fanin) = corpus.candidate_docs_str(&keywords);
                    self.caches
                        .fanin_postings
                        .fetch_add(fanin.postings_touched, Ordering::Relaxed);
                    self.caches
                        .fanin_directory
                        .fetch_add(fanin.directory_touched, Ordering::Relaxed);
                    docs
                }
            };
            self.search(&query, &candidates, offset.saturating_add(k))
        });
        // Stage 2 — snippets for the served window only (the `snippet`
        // span): `ranked` ends where the window does.
        let window: Vec<CorpusAnswer> =
            extract_obs::time_stage(extract_obs::Stage::Snippet, || {
                let mut scratch = IListScratch::default();
                ranked
                    .iter()
                    .skip(offset.min(total))
                    .map(|&at| CorpusAnswer {
                        doc: at.0,
                        score: at.1,
                        result: self.snippet_for(at, &query, text.as_ref(), config, &mut scratch),
                    })
                    .collect()
            });
        let page = CorpusTopK { results: window.into(), total, k, offset, rendered: Arc::default() };
        if let Some(pkey) = pkey {
            store(&self.caches.corpus_pages, pkey, page.clone());
        }
        page
    }

    /// Answer a batch of queries on the worker pool: `workers` scoped
    /// threads pull queries from a shared cursor until the batch drains.
    /// The output is index-aligned with `queries` and identical to calling
    /// [`QuerySession::answer`] serially.
    pub fn answer_batch(&self, queries: &[&str], config: &ExtractConfig) -> Vec<AnswerPage> {
        self.run_pool(queries, |q| self.answer(q, config))
    }

    /// [`QuerySession::answer_corpus`] over a batch, on the worker pool.
    /// The output is index-aligned with `queries` and identical to calling
    /// [`QuerySession::answer_corpus`] serially.
    pub fn answer_corpus_batch(
        &self,
        queries: &[&str],
        config: &ExtractConfig,
    ) -> Vec<CorpusPage> {
        self.run_pool(queries, |q| self.answer_corpus(q, config))
    }

    /// Run `f` over `items` across the worker pool, returning results
    /// aligned with `items`. Falls back to a serial loop for tiny batches
    /// or single-worker sessions. A worker's panic is re-raised here, as
    /// the serial loop would have raised it.
    fn run_pool<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut answered: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            mine.push((i, f(item)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        answered.sort_unstable_by_key(|(i, _)| *i);
        answered.into_iter().map(|(_, answer)| answer).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_corpus::CorpusBuilder;
    use extract_datagen::dblp::DblpConfig;
    use extract_datagen::retailer::RetailerConfig;

    fn corpus_doc() -> Document {
        RetailerConfig::default().generate()
    }

    fn queries() -> Vec<&'static str> {
        vec![
            "texas apparel retailer",
            "houston jeans",
            "store texas",
            "woman outwear",
            "retailer food",
            "texas apparel retailer", // repeats exercise the cache
            "houston jeans",
            "store texas",
        ]
    }

    fn render(results: &[AnswerPage]) -> Vec<Vec<String>> {
        results
            .iter()
            .map(|per_query| per_query.iter().map(|s| s.snippet.to_xml()).collect())
            .collect()
    }

    #[test]
    fn concurrent_batch_matches_serial_execution() {
        let doc = corpus_doc();
        let config = ExtractConfig::with_bound(8);
        let qs = queries();

        // Serial reference: a plain Extract with no cache at all.
        let extract = Extract::new(&doc);
        let serial: Vec<AnswerPage> = qs
            .iter()
            .map(|q| extract.snippets_for_query(q, &config).into())
            .collect();

        for workers in [4, 8] {
            let session = QuerySession::with_options(&doc, workers, 64);
            assert_eq!(session.workers(), workers);
            let concurrent = session.answer_batch(&qs, &config);
            assert_eq!(render(&serial), render(&concurrent), "workers={workers}");
            // Roots and ranking order must match too, not just rendering.
            for (s, c) in serial.iter().zip(concurrent.iter()) {
                let roots_s: Vec<_> = s.iter().map(|r| r.result.root).collect();
                let roots_c: Vec<_> = c.iter().map(|r| r.result.root).collect();
                assert_eq!(roots_s, roots_c);
            }
        }
    }

    #[test]
    fn repeated_queries_hit_the_page_cache() {
        let doc = corpus_doc();
        let session = QuerySession::with_options(&doc, 4, 64);
        let config = ExtractConfig::with_bound(8);
        let qs = queries();
        session.answer_batch(&qs, &config);
        let pages = session.page_stats();
        // 8 queries, 5 distinct. Batch scheduling may race any number of
        // worker threads past the same miss (under a loaded machine even
        // every duplicate can go concurrent), so the only deterministic
        // batch-side claim is the miss floor.
        assert!(pages.misses >= 5, "5 distinct queries: {pages:?}");
        // A *serial* repeat after the batch is deterministic: the page
        // is cached, so it must hit.
        session.answer(qs[0], &config);
        let after = session.page_stats();
        assert!(after.hits > pages.hits, "serial repeat must hit: {pages:?} -> {after:?}");
        session.clear_cache();
        assert_eq!(session.page_stats(), CacheStats::default());
        assert_eq!(session.snippet_stats(), CacheStats::default());
    }

    #[test]
    fn snippet_cache_backstops_page_eviction() {
        let doc = corpus_doc();
        let session = QuerySession::with_options(&doc, 1, 4096);
        let config = ExtractConfig::with_bound(8);
        // Fill the page cache past its capacity with distinct one-off
        // queries, then re-issue the first query: the page entry may be
        // gone but every per-result snippet must come from the snippet
        // cache (zero fresh computations can't be asserted directly, so
        // assert hits instead).
        session.answer("texas apparel retailer", &config);
        for i in 0..PAGE_CAPACITY + 8 {
            // Distinct normalized queries (numbers tokenize fine).
            session.answer(&format!("texas {i}"), &config);
        }
        let before = session.snippet_stats().hits;
        session.answer("texas apparel retailer", &config);
        let after = session.snippet_stats();
        assert!(
            after.hits > before,
            "page was evicted, snippets must hit: {after:?}"
        );
    }

    #[test]
    fn empty_batch_and_single_worker_paths() {
        let doc = corpus_doc();
        let session = QuerySession::with_options(&doc, 1, 8);
        let config = ExtractConfig::default();
        assert!(session.answer_batch(&[], &config).is_empty());
        let one = session.answer_batch(&["store texas"], &config);
        assert_eq!(one.len(), 1);
        assert_eq!(render(&one), render(&[session.answer("store texas", &config)]));
    }

    #[test]
    fn cache_disabled_session_still_answers() {
        let doc = corpus_doc();
        let session = QuerySession::with_options(&doc, 4, 0);
        let config = ExtractConfig::with_bound(6);
        let a = session.answer("houston jeans", &config);
        let b = session.answer("houston jeans", &config);
        assert_eq!(render(&[a]), render(&[b]));
        assert_eq!(session.page_stats().hits, 0, "capacity 0 never hits");
        assert_eq!(session.snippet_stats().hits, 0);
    }

    // ---- Corpus sessions -------------------------------------------------

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_parsed(
            "retailer-a",
            RetailerConfig { retailers: 3, seed: 0xA, ..Default::default() }.generate(),
        );
        b.add_parsed(
            "retailer-b",
            RetailerConfig { retailers: 3, seed: 0xB, ..Default::default() }.generate(),
        );
        b.add_parsed("dblp", DblpConfig { papers: 30, ..Default::default() }.generate());
        b.add_document(
            "tiny",
            "<stores><store><name>Levis</name><state>Texas</state></store></stores>",
        )
        .unwrap();
        b.finish()
    }

    /// The standalone reference: answer each document with its own Extract
    /// and merge with the documented rule.
    fn merge_standalone(
        corpus: &Corpus,
        query_str: &str,
        config: &ExtractConfig,
    ) -> Vec<(DocId, String)> {
        let query = KeywordQuery::parse(query_str);
        let mut merged: Vec<(DocId, f64, extract_xml::NodeId, String)> = Vec::new();
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
        merged.into_iter().map(|(id, _, _, xml)| (id, xml)).collect()
    }

    #[test]
    fn corpus_answers_equal_standalone_merge() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 2, 64);
        let config = ExtractConfig::with_bound(8);
        for q in ["store texas", "houston jeans", "keyword search", "texas", "zzz"] {
            let page = session.answer_corpus(q, &config);
            let got: Vec<(DocId, String)> =
                page.iter().map(|a| (a.doc, a.result.snippet.to_xml())).collect();
            assert_eq!(got, merge_standalone(&corpus, q, &config), "query {q}");
        }
    }

    #[test]
    fn corpus_batch_matches_serial_and_hits_cache() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 4, 128);
        let config = ExtractConfig::with_bound(8);
        let qs = ["store texas", "keyword search", "store texas", "houston", "keyword search"];
        let serial: Vec<CorpusPage> =
            qs.iter().map(|q| session.answer_corpus(q, &config)).collect();
        let stats = session.corpus_page_stats();
        assert!(stats.hits >= 2, "repeats must hit the corpus page cache: {stats:?}");
        let batch = session.answer_corpus_batch(&qs, &config);
        for (s, b) in serial.iter().zip(batch.iter()) {
            let xs: Vec<_> = s.iter().map(|a| (a.doc, a.result.result.root)).collect();
            let xb: Vec<_> = b.iter().map(|a| (a.doc, a.result.result.root)).collect();
            assert_eq!(xs, xb);
        }
    }

    #[test]
    fn topk_windows_tile_the_unbounded_page_exactly() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 0); // caches off
        let config = ExtractConfig::with_bound(8);
        for q in ["texas", "store texas", "keyword search", "name"] {
            let full = session.answer_corpus(q, &config);
            for k in [1, 2, 3, full.len().max(1)] {
                let mut tiled: Vec<(DocId, String)> = Vec::new();
                let mut offset = 0;
                loop {
                    let page = session.answer_corpus_topk(q, &config, k, offset);
                    assert_eq!(page.total, full.len(), "query {q} k={k} offset={offset}");
                    assert_eq!(page.k, k);
                    assert_eq!(page.offset, offset);
                    assert!(page.results.len() <= k);
                    if page.results.is_empty() {
                        break;
                    }
                    tiled.extend(
                        page.results.iter().map(|a| (a.doc, a.result.snippet.to_xml())),
                    );
                    offset += k;
                }
                let want: Vec<(DocId, String)> =
                    full.iter().map(|a| (a.doc, a.result.snippet.to_xml())).collect();
                assert_eq!(tiled, want, "query {q} k={k}: pages must tile without drift");
            }
        }
    }

    #[test]
    fn topk_only_snippets_the_served_window() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 4096);
        let config = ExtractConfig::with_bound(8);
        // "texas" matches many results across documents; serve one.
        let page = session.answer_corpus_topk("texas", &config, 1, 0);
        assert!(page.total > 1, "need a broad query for this test: {}", page.total);
        assert_eq!(page.results.len(), 1);
        let stats = session.snippet_stats();
        assert_eq!(
            stats.hits + stats.misses,
            1,
            "exactly one snippet may be touched for k=1: {stats:?}"
        );
    }

    #[test]
    fn topk_past_the_end_and_cache_windows_never_alias() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 64);
        let config = ExtractConfig::with_bound(8);
        let full = session.answer_corpus("store texas", &config);
        // Past-the-end offset: empty window, exact total.
        let past = session.answer_corpus_topk("store texas", &config, 5, full.len() + 10);
        assert!(past.results.is_empty());
        assert_eq!(past.total, full.len());
        // usize::MAX k with nonzero offset must not overflow.
        let tail = session.answer_corpus_topk("store texas", &config, usize::MAX, 1);
        assert_eq!(tail.results.len(), full.len().saturating_sub(1));
        // Repeating a window hits the cache; a different window misses.
        let before = session.corpus_page_stats().hits;
        let again = session.answer_corpus_topk("store texas", &config, 5, full.len() + 10);
        assert!(again.results.is_empty() && again.total == full.len());
        assert_eq!(session.corpus_page_stats().hits, before + 1, "same window must hit");
        let first = session.answer_corpus_topk("store texas", &config, 1, 0);
        assert_eq!(first.results.len(), full.len().min(1), "k=1 window, not a stale alias");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any window is the same slice of the unbounded answer — results,
        /// order, scores to the bit, snippets, `total` — including empty
        /// windows, windows past the end, saturating bounds, and ties that
        /// span documents (the corpus holds one document three times).
        #[test]
        fn any_window_equals_that_slice_of_the_unbounded_answer(
            query in 0usize..5,
            k in 0usize..7,
            offset in 0usize..8,
        ) {
            let mut builder = CorpusBuilder::new();
            for name in ["twin-a", "twin-b", "twin-c"] {
                builder.add_parsed(
                    name,
                    RetailerConfig { retailers: 2, seed: 0xA, ..Default::default() }.generate(),
                );
            }
            builder.add_parsed("dblp", DblpConfig { papers: 12, ..Default::default() }.generate());
            let corpus = builder.finish();
            let session = QuerySession::from_corpus_with_options(&corpus, 1, 0);
            let config = ExtractConfig::with_bound(8);
            let q = ["store texas", "texas", "name", "paper", "zzz"][query];
            let full = session.answer_corpus(q, &config);
            let pick = |n: usize| match n {
                5 => full.len(),
                6 => full.len() + 3,
                7 => usize::MAX,
                n => n,
            };
            let (k, offset) = (pick(k), pick(offset));
            let page = session.answer_corpus_topk(q, &config, k, offset);
            proptest::prop_assert_eq!(page.total, full.len());
            let start = offset.min(full.len());
            let want = &full[start..start.saturating_add(k).min(full.len())];
            let row = |a: &CorpusAnswer| {
                (a.doc, a.result.result.root, a.score.to_bits(), a.result.snippet.to_xml())
            };
            proptest::prop_assert_eq!(
                page.results.iter().map(row).collect::<Vec<_>>(),
                want.iter().map(row).collect::<Vec<_>>()
            );
            if q == "store texas" {
                let tied =
                    full.windows(2).any(|w| w[0].score == w[1].score && w[0].doc != w[1].doc);
                proptest::prop_assert!(tied, "the twins must tie across documents");
            }
        }
    }

    #[test]
    fn routing_skips_unrelated_documents() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 64);
        let config = ExtractConfig::with_bound(8);
        // "sigmod" only exists in the dblp document: only its engine is
        // built, the three retailer documents never pay.
        let page = session.answer_corpus("paper sigmod", &config);
        assert!(!page.is_empty());
        assert!(page.iter().all(|a| corpus.name(a.doc) == "dblp"));
        assert_eq!(session.engines_built(), 1, "only the routed document built an engine");
        assert!(session.routing_fanin().total() > 0);
        session.clear_cache();
        assert_eq!(session.routing_fanin(), FanIn::default());
    }

    #[test]
    fn corpus_session_single_doc_answer_still_works() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 64);
        let config = ExtractConfig::with_bound(8);
        // `answer` targets document 0 of the corpus.
        let page = session.answer("store texas", &config);
        let reference = Extract::new(corpus.doc(DocId::from_index(0)));
        let expected = reference.snippets_for_query("store texas", &config);
        assert_eq!(page.len(), expected.len());
        for (a, b) in page.iter().zip(expected.iter()) {
            assert_eq!(a.snippet.to_xml(), b.snippet.to_xml());
        }
        assert!(session.corpus().is_some());
    }

    #[test]
    fn single_doc_session_answers_corpus_queries() {
        let doc = corpus_doc();
        let session = QuerySession::with_options(&doc, 1, 64);
        let config = ExtractConfig::with_bound(8);
        let page = session.answer_corpus("store texas", &config);
        let flat = session.answer("store texas", &config);
        assert_eq!(page.len(), flat.len());
        assert!(page.iter().all(|a| a.doc == DocId::from_index(0)));
        assert!(session.corpus().is_none());
        assert_eq!(session.routing_fanin(), FanIn::default(), "no routing on one doc");
    }

    #[test]
    fn empty_query_yields_empty_corpus_page() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 0);
        assert!(session.answer_corpus("", &ExtractConfig::default()).is_empty());
        assert!(session
            .answer_corpus_batch(&[], &ExtractConfig::default())
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty corpus")]
    fn empty_corpus_session_panics_early() {
        let corpus = CorpusBuilder::new().finish();
        let _ = QuerySession::from_corpus(&corpus);
    }

    // ---- Shared caches / snapshot sessions -------------------------------

    #[test]
    fn snapshot_sessions_share_warm_caches() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            session.answer_corpus("store texas", &config);
            assert!(session.engines_built() > 0);
        }
        assert!(caches.engines_cached() > 0, "engine artifacts outlive the session");
        // A fresh session over the same snapshot: the page comes from the
        // shared cache without building a single engine.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let misses = session.corpus_page_stats().misses;
        session.answer_corpus("store texas", &config);
        let stats = session.corpus_page_stats();
        assert_eq!(stats.misses, misses, "warm page must hit: {stats:?}");
        assert!(stats.hits > 0);
        assert_eq!(session.engines_built(), 0, "page hit builds no engine");
    }

    #[test]
    fn snapshot_session_reuses_cached_engine_parts() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(0)); // result caches off
        let config = ExtractConfig::with_bound(8);
        let first = {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            session.answer_corpus("paper sigmod", &config)
        };
        // Result caching is disabled, so the second session re-runs search
        // + snippets — but from cached engine parts, and byte-identically.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let again = session.answer_corpus("paper sigmod", &config);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(again.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.result.snippet.to_xml(), b.result.snippet.to_xml());
        }
        assert!(caches.engines_cached() > 0, "engine cache stays on with caches off");
    }

    // One tokenization per document: the engine a session builds searches
    // the corpus's own segment, in this session and — through the shared
    // parts cache — in every later one.
    #[test]
    fn an_engine_searches_the_corpus_segment_not_a_second_index() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(0));
        for _ in 0..2 {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            for id in corpus.doc_ids() {
                let parts = session.engine(id).parts();
                assert!(Arc::ptr_eq(parts.index(), corpus.segment(id)), "{id} was re-indexed");
            }
        }
    }

    #[test]
    fn snapshot_session_allows_empty_corpus() {
        let corpus = CorpusBuilder::new().finish();
        let caches = Arc::new(SessionCaches::new(16));
        let session = QuerySession::for_snapshot(&corpus, 1, caches);
        assert!(session.answer_corpus("anything", &ExtractConfig::default()).is_empty());
    }

    #[test]
    fn invalidate_doc_purges_snippets_and_engines() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let page = session.answer_corpus("store texas", &config);
        assert!(!page.is_empty());
        let victim = page[0].doc;
        caches.invalidate_doc(victim);
        let snippets = caches.snippets.lock().expect("snippet cache lock");
        // No surviving snippet key may reference the invalidated document.
        // (The cache exposes no key iterator; retain with a probe proves
        // emptiness for the victim.)
        drop(snippets);
        caches.invalidate_doc(victim); // idempotent
        assert!(
            caches.engine_parts.lock().expect("engine cache lock").get(&victim).is_none(),
            "engine parts for the victim are gone"
        );
    }

    /// A cached value that notes, when dropped, whether its cache's mutex
    /// was held at that moment.
    #[derive(Clone)]
    struct DropProbe {
        cache: std::sync::Weak<Mutex<LruCache<u32, DropProbe>>>,
        dropped: Arc<AtomicUsize>,
        dropped_under_lock: Arc<AtomicUsize>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            let Some(cache) = self.cache.upgrade() else { return };
            // `try_lock` from the holder's own thread reports WouldBlock.
            if cache.try_lock().is_err() {
                self.dropped_under_lock.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Eviction, replacement and invalidation all free their entries
    /// after the cache guard: a reader is never made to wait on a
    /// deallocation (the snippet trees a mutation retires run to
    /// milliseconds of `free`).
    #[test]
    fn removed_entries_are_dropped_after_the_cache_guard() {
        let cache = Arc::new(Mutex::new(LruCache::<u32, DropProbe>::new(4)));
        let (dropped, under_lock) = (Arc::default(), Arc::default());
        let probe = || DropProbe {
            cache: Arc::downgrade(&cache),
            dropped: Arc::clone(&dropped),
            dropped_under_lock: Arc::clone(&under_lock),
        };
        for key in 0..8 {
            store(&cache, key, probe()); // four of these evict
        }
        store(&cache, 7, probe()); // replaces
        assert_eq!(dropped.load(Ordering::SeqCst), 5);
        purge(&cache, |key| key % 2 == 0); // invalidates 5 and 7
        assert_eq!(dropped.load(Ordering::SeqCst), 7);
        assert_eq!(under_lock.load(Ordering::SeqCst), 0, "an entry was freed under the mutex");

        // The probe does see a drop under the guard — what `retain` did
        // before it handed its removals back.
        let mut guard = cache.lock().expect("cache lock");
        drop(guard.retain(|_| false));
        drop(guard);
        assert_eq!(dropped.load(Ordering::SeqCst), 9);
        assert_eq!(under_lock.load(Ordering::SeqCst), 2);
    }

    /// A value that notes which thread dropped it, and whether the cache
    /// it was stored in was locked at that moment.
    #[derive(Clone)]
    struct HomedProbe {
        cache: std::sync::Weak<Mutex<LruCache<u32, (u8, HomedProbe)>>>,
        dropped_by: Arc<Mutex<Vec<std::thread::ThreadId>>>,
        dropped_under_lock: Arc<AtomicUsize>,
    }

    impl Drop for HomedProbe {
        fn drop(&mut self) {
            lock_unpoisoned(&self.dropped_by).push(std::thread::current().id());
            let Some(cache) = self.cache.upgrade() else { return };
            if cache.try_lock().is_err() {
                self.dropped_under_lock.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// What one thread evicts of another's building waits for the builder
    /// and is freed on the builder's thread at its next insert.
    #[test]
    fn an_evicted_entry_is_freed_by_the_thread_that_built_it() {
        use std::sync::Barrier;

        let cache = Arc::new(Mutex::new(LruCache::<u32, (u8, HomedProbe)>::new(2)));
        let returns = Returns::new();
        let (dropped_by, under_lock) = (Arc::new(Mutex::new(Vec::new())), Arc::default());
        let probe = || HomedProbe {
            cache: Arc::downgrade(&cache),
            dropped_by: Arc::clone(&dropped_by),
            dropped_under_lock: Arc::clone(&under_lock),
        };
        let dropped = || lock_unpoisoned(&dropped_by).clone();
        let (a_home, b_home) = (0u8, 1u8);
        let turn = Barrier::new(2);
        let a = std::thread::scope(|scope| {
            let builder = scope.spawn(|| {
                store_homed(&cache, &returns, a_home, 0, probe());
                store_homed(&cache, &returns, a_home, 1, probe());
                turn.wait(); // B evicts both
                turn.wait();
                assert!(dropped().is_empty(), "evicted entries wait for their builder");
                store_homed(&cache, &returns, a_home, 4, probe()); // reaps, then evicts B's 2
                std::thread::current().id()
            });
            scope.spawn(|| {
                turn.wait();
                store_homed(&cache, &returns, b_home, 2, probe());
                store_homed(&cache, &returns, b_home, 3, probe());
                turn.wait();
            });
            builder.join().expect("builder")
        });
        assert_eq!(dropped(), vec![a, a], "A's entries, freed by A");
        assert_eq!(returns.waiting(b_home), 1, "B's entry waits for B");
        assert_eq!(under_lock.load(Ordering::SeqCst), 0, "an entry was freed under the cache mutex");
    }

    /// A builder that stays away has at most `BIN_LIMIT` entries kept for
    /// it; the rest are handed back to the evicting thread to free.
    #[test]
    fn a_full_bin_hands_the_entry_back() {
        let returns = Returns::new();
        for n in 0..BIN_LIMIT {
            assert_eq!(returns.send(3, n), None);
        }
        assert_eq!(returns.send(3, BIN_LIMIT), Some(BIN_LIMIT));
        assert_eq!(returns.send(4, 0), None, "bins are per home");
        returns.reap(3);
        assert_eq!(returns.send(3, 0), None);
    }

    /// One request panicking with a cache guard held must not turn every
    /// later request into a panic: the caches recover the guard, and the
    /// entry set behind it is as valid as before.
    #[test]
    fn a_poisoned_page_cache_still_serves_search() {
        use crate::live::LiveSearchApp;
        use crate::serve::SearchAppConfig;
        use extract_corpus::LiveCorpus;

        let app = LiveSearchApp::new(
            LiveCorpus::from_corpus(small_corpus()),
            SearchAppConfig::default(),
            128,
        );
        let request = extract_serve::Request {
            method: "GET".to_string(),
            path: "/search".to_string(),
            query: vec![("q".to_string(), "store texas".to_string())],
            http11: true,
            keep_alive: true,
            trace_id: None,
            body: Vec::new(),
        };
        let healthy = app.handle(&request);
        assert_eq!(healthy.status, 200);

        let caches = Arc::clone(app.caches());
        let poisoner = std::thread::spawn(move || {
            let _guard = caches.corpus_pages.lock().expect("not poisoned yet");
            panic!("poisoning the corpus page cache on purpose");
        });
        assert!(poisoner.join().is_err(), "the poisoner panicked");
        assert!(app.caches().corpus_pages.is_poisoned());

        let hits = app.caches().corpus_page_stats().hits;
        let after = app.handle(&request);
        assert_eq!(after.status, 200);
        assert_eq!(after.body, healthy.body, "same page, same bytes");
        assert_eq!(app.caches().corpus_page_stats().hits, hits + 1, "served from the cache");
        // The mutation path takes the same lock.
        app.caches().retire_pages_before(1);
        assert_eq!(app.caches().corpus_page_body_bytes(), 0, "epoch-0 pages retired");
    }

    #[test]
    fn retire_pages_before_drops_old_epoch_windows() {
        let corpus = small_corpus(); // epoch 0
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        session.answer_corpus("store texas", &config);
        caches.retire_pages_before(1); // corpus moved to epoch 1
        let misses = session.corpus_page_stats().misses;
        session.answer_corpus("store texas", &config);
        assert_eq!(
            session.corpus_page_stats().misses,
            misses + 1,
            "retired page must miss"
        );
    }
}
