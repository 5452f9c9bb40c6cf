//! A thread-safe query session over one corpus snapshot — the serving
//! layer between a [`Corpus`] and the `/search` wire format.
//!
//! [`QuerySession`] is a borrowed [`Corpus`], a worker count for batches
//! and a shared cache bundle — one over a shared bundle
//! ([`QuerySession::for_snapshot`]) allocates nothing, so the daemon
//! builds one per request. [`QuerySession::answer_corpus_topk`]
//! routes each query through the corpus's token → document directory
//! ([`Corpus::candidate_docs_str`]) so only documents containing **every**
//! keyword are searched; each of them answers with its engine — entity
//! model and keys around its own index segment — which lives on the
//! snapshot ([`Corpus::engine`]): the first query to reach a document
//! builds it, and every later request and every later snapshot holding
//! the document reuses it. The per-document ranked results are merged
//! into one page ordered by (score desc, document asc, root asc).
//!
//! Caching is two-level, both LRU, and both hold only what `/search`
//! sends:
//!
//! 1. a **page cache** (`normalized query + config + window + epoch →`
//!    [`CorpusTopK`]) makes a repeated hot query a single hash lookup
//!    plus an `Arc` clone — routing, search, ranking and snippet
//!    generation are all skipped. The entry also keeps the window's
//!    `/search` rendering once it has been served, so a hit re-serves
//!    bytes;
//! 2. the per-result snippet cache (`query + (DocId, root) + config →`
//!    the snippet's XML as an `Arc<str>`) catches queries whose page entry
//!    was evicted and amortizes snippet generation across overlapping
//!    result sets — one shared cache serves every document of a corpus
//!    thanks to the [`DocId`]-qualified keys. Corpus pages hold the same
//!    `Arc`s, so a snippet's bytes exist once however many pages show
//!    them.
//!
//! Both sit behind `Mutex`es held strictly for `get`/`insert` — never
//! during computation, and never while an entry is freed: what an insert
//! evicts or a mutation invalidates is handed out of the cache and
//! dropped after the guard — so contention stays negligible next to the
//! work they save. A cached snippet is one allocation (its bytes), so
//! freeing one that another worker built costs one cross-thread free.
//!
//! A miss pays for the window it serves, not for the results it ranks:
//! every result root of every candidate document is *scored by counting*
//! (its keyword matches are the postings inside its ID interval — two
//! binary searches per keyword, [`ranking::scored_roots`]), the served
//! window is selected from `(document, score, root)` triples, and only
//! its ≤ `k` roots ever reach the snippet kernel. The kernel runs in
//! this thread's [`IListScratch`](extract_core::ilist::IListScratch) —
//! statistics, IList, selection and XML in one pass over reused buffers —
//! and what it leaves is the snippet's bytes
//! ([`Extract::snippet_xml`](extract_core::Extract::snippet_xml)): no
//! `QueryResult`, owned IList or snippet tree is built to serve a page.
//!
//! All cache state lives in an [`SessionCaches`] bundle behind an `Arc`.
//! A standalone session owns a private bundle; the live serving layer
//! shares one bundle across the per-snapshot sessions it builds per
//! request ([`QuerySession::for_snapshot`]), so page and snippet caches
//! stay warm across epoch swaps. Safety across mutations comes from the
//! keys: snippet keys carry generational [`DocId`]s and page keys carry
//! the corpus epoch, so entries computed against an older snapshot can
//! never answer for a newer one.
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

use std::cell::RefCell;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use extract_core::cache::{CacheKey, LruCache, PageKey, QueryText};
use extract_core::ilist::IListScratch;
use extract_core::{CacheStats, Extract, ExtractConfig};
use extract_corpus::{Corpus, DocId, FanIn};
use extract_obs::lock_unpoisoned;
use extract_search::ranking::{self, by_score_desc};
use extract_search::xseek::RootsScratch;
use extract_search::KeywordQuery;
use extract_xml::NodeId;

/// Default worker count when the host's parallelism cannot be queried.
const DEFAULT_WORKERS: usize = 4;

/// Page-cache capacity: whole result pages are bigger than single
/// snippets, so the page cache keeps a smaller hot set than the snippet
/// cache.
const PAGE_CAPACITY: usize = 128;

/// One corpus result as `/search` serves it: which document and root it
/// is, its ranking score, and its snippet's XML.
#[derive(Debug, Clone)]
pub struct CorpusAnswer {
    /// The document the result root lives in.
    pub doc: DocId,
    /// The ranking score ([`extract_search::ranking::score`]), comparable
    /// across documents.
    pub score: f64,
    /// The result root in `doc`.
    pub root: NodeId,
    /// The snippet's compact XML — shared with the snippet-cache entry it
    /// came from (or went into), so a snippet's bytes exist once however
    /// many cached pages show them.
    pub snippet: Arc<str>,
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

/// Insert under the cache's lock; free what the insert displaced (an
/// evicted snippet, a whole page) after the guard, so no reader waits on
/// a deallocation.
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

thread_local! {
    /// This thread's snippet kernel scratch: warm after its first miss, so
    /// a served snippet costs the one allocation of its bytes.
    static SCRATCH: RefCell<IListScratch> = RefCell::new(IListScratch::default());
}

/// Run `f` on this thread's kernel scratch (on a fresh one should it be
/// in use — the kernel does not re-enter, so it never is).
fn with_scratch<T>(f: impl FnOnce(&mut IListScratch) -> T) -> T {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut IListScratch::default()),
    })
}

/// One ranked result before it is built: where it is and what it scored.
type Ranked = (DocId, f64, NodeId);

/// The page order: score descending, then document, then root — total,
/// since a `(document, root)` pair occurs once.
fn page_order(a: &Ranked, b: &Ranked) -> std::cmp::Ordering {
    by_score_desc(a.1, b.1).then_with(|| a.0.cmp(&b.0)).then_with(|| a.2.cmp(&b.2))
}

/// The shareable cache state of one serving lineage: result pages,
/// per-result snippets and the routing fan-in counters. A standalone
/// [`QuerySession`] owns a private bundle;
/// live serving keeps one bundle alive across the per-snapshot sessions
/// it builds, so caches survive corpus mutations (see the module docs for
/// why that is safe).
#[derive(Debug)]
pub struct SessionCaches {
    cache_capacity: usize,
    /// Corpus pages cache *windows*: the key carries `(k, offset)` and the
    /// value is the answer itself — the served slice, the full result
    /// count, and the slice's rendered bytes once `/search` has served it.
    corpus_pages: Mutex<LruCache<PageKey, CorpusTopK>>,
    /// Each snippet's compact XML, shared with the pages showing it.
    snippets: Mutex<LruCache<CacheKey, Arc<str>>>,
    /// Routing fan-in accumulated by [`QuerySession::answer_corpus`]
    /// (directory + posting entries touched), split across atomics so the
    /// read path stays lock-free.
    fanin_postings: AtomicU64,
    fanin_directory: AtomicU64,
}

impl SessionCaches {
    /// A fresh bundle; `cache_capacity` sizes the snippet cache and (capped
    /// at an internal bound) the page cache, `0` disables result caching.
    pub fn new(cache_capacity: usize) -> SessionCaches {
        SessionCaches {
            cache_capacity,
            corpus_pages: Mutex::new(LruCache::new(cache_capacity.min(PAGE_CAPACITY))),
            snippets: Mutex::new(LruCache::new(cache_capacity)),
            fanin_postings: AtomicU64::new(0),
            fanin_directory: AtomicU64::new(0),
        }
    }

    /// Drop every cached snippet of `doc` — result pages are left to the
    /// epoch key, and the document's engine goes with the last snapshot
    /// holding it. Invalidation hygiene for a dead document generation:
    /// the generational keys already guarantee its bytes can't be served,
    /// this frees their memory eagerly.
    pub fn invalidate_doc(&self, doc: DocId) {
        purge(&self.snippets, |k| k.doc() != doc);
    }

    /// Drop result pages computed before `epoch` (their keys can never
    /// match again once the corpus moved on — this reclaims the memory
    /// instead of waiting for LRU pressure).
    pub fn retire_pages_before(&self, epoch: u64) {
        purge(&self.corpus_pages, |k| k.epoch() >= epoch);
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

    /// Bytes of snippet XML the snippet cache holds right now — all a
    /// cached snippet is. Summed on demand, like
    /// [`SessionCaches::corpus_page_body_bytes`].
    pub fn snippet_cache_bytes(&self) -> usize {
        lock_unpoisoned(&self.snippets).values().map(|xml| xml.len()).sum()
    }
}

/// A thread-safe query-answering session over one corpus snapshot.
#[derive(Debug)]
pub struct QuerySession<'d> {
    corpus: &'d Corpus,
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
    /// Serve a corpus with default pool and cache sizing. A document pays
    /// for entity analysis and key mining the first time a query routes
    /// to it (its index is the corpus's segment, built at ingestion).
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
    /// current [`Corpus`] snapshot — no allocation, the engines are the
    /// snapshot's — and because `caches` outlives the session, page and
    /// snippet caches stay warm across epoch swaps. Unlike
    /// [`QuerySession::from_corpus`], an empty corpus is allowed — a live
    /// corpus legitimately passes through empty.
    pub fn for_snapshot(
        corpus: &'d Corpus,
        workers: usize,
        caches: Arc<SessionCaches>,
    ) -> QuerySession<'d> {
        QuerySession { corpus, workers: workers.max(1), caches }
    }

    /// The cache bundle behind this session — share it with
    /// [`QuerySession::for_snapshot`] to keep caches warm across sessions.
    pub fn caches(&self) -> Arc<SessionCaches> {
        Arc::clone(&self.caches)
    }

    /// The corpus snapshot this session answers from.
    pub fn corpus(&self) -> &'d Corpus {
        self.corpus
    }

    /// The pool size used by the batch entry points.
    pub fn workers(&self) -> usize {
        self.workers
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
    /// start.
    pub fn routing_fanin(&self) -> FanIn {
        FanIn {
            postings_touched: self.caches.fanin_postings.load(Ordering::Relaxed),
            directory_touched: self.caches.fanin_directory.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached pages and snippets (counters reset too, including
    /// the routing fan-in). The documents' engines are the corpus's and
    /// stay built.
    pub fn clear_cache(&self) {
        lock_unpoisoned(&self.caches.corpus_pages).clear();
        lock_unpoisoned(&self.caches.snippets).clear();
        self.caches.fanin_postings.store(0, Ordering::Relaxed);
        self.caches.fanin_directory.store(0, Ordering::Relaxed);
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
            let engine = self.corpus.engine(doc);
            let emit = |root, score| ranked.push((doc, score, root));
            let (document, index, model) = (self.corpus.doc(doc), engine.index(), engine.model());
            ranking::scored_roots(document, index, model, query, &mut scratch, emit);
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

    /// One served result's snippet XML, via the shared snippet cache when
    /// enabled (`text` is the request's normalized query then). A miss
    /// runs the snippet kernel in this thread's scratch and keeps the
    /// bytes it wrote.
    fn snippet_for(
        &self,
        (doc, _, root): Ranked,
        query: &KeywordQuery,
        text: Option<&QueryText>,
        config: &ExtractConfig,
    ) -> Arc<str> {
        let compute = || {
            let engine = self.corpus.engine(doc).clone();
            let extract = Extract::with_parts(self.corpus.doc(doc), engine);
            with_scratch(|scratch| Arc::from(extract.snippet_xml(query, root, config, scratch)))
        };
        let Some(text) = text else {
            return compute();
        };
        let key = CacheKey::for_doc(text, doc, root, config);
        if let Some(hit) = lock_unpoisoned(&self.caches.snippets).get(&key) {
            return hit;
        }
        let computed = compute();
        store(&self.caches.snippets, key, Arc::clone(&computed));
        computed
    }

    /// Answer one query against the whole corpus: route through the
    /// directory to the documents containing **every**
    /// keyword, run per-document search + ranking + snippet generation on
    /// exactly those, and merge into one page ordered by (score
    /// descending, document ascending, root ascending) — identical to
    /// answering each document standalone and merging with the same rule
    /// (pinned by the equivalence proptests). Safe to call from many
    /// threads at once.
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
            .map(|text| PageKey::bounded(text, config, k, offset).at_epoch(self.corpus.epoch()));
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
            let candidates: Vec<DocId> = if query.is_empty() {
                Vec::new()
            } else {
                let keywords: Vec<&str> = query.keywords().iter().map(String::as_str).collect();
                let (docs, fanin) = self.corpus.candidate_docs_str(&keywords);
                self.caches.fanin_postings.fetch_add(fanin.postings_touched, Ordering::Relaxed);
                self.caches.fanin_directory.fetch_add(fanin.directory_touched, Ordering::Relaxed);
                docs
            };
            self.search(&query, &candidates, offset.saturating_add(k))
        });
        // Stage 2 — snippets for the served window only (the `snippet`
        // span): `ranked` ends where the window does.
        let window: Vec<CorpusAnswer> =
            extract_obs::time_stage(extract_obs::Stage::Snippet, || {
                ranked
                    .iter()
                    .skip(offset.min(total))
                    .map(|&at| CorpusAnswer {
                        doc: at.0,
                        score: at.1,
                        root: at.2,
                        snippet: self.snippet_for(at, &query, text.as_ref(), config),
                    })
                    .collect()
            });
        let page = CorpusTopK { results: window.into(), total, k, offset, rendered: Arc::default() };
        if let Some(pkey) = pkey {
            store(&self.caches.corpus_pages, pkey, page.clone());
        }
        page
    }

    /// [`QuerySession::answer_corpus`] over a batch on the worker pool:
    /// `workers` scoped threads pull queries from a shared cursor until
    /// the batch drains. The output is index-aligned with `queries` and
    /// identical to calling [`QuerySession::answer_corpus`] serially.
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
    use extract_core::SnippetedResult;
    use extract_corpus::CorpusBuilder;
    use extract_datagen::dblp::DblpConfig;
    use extract_datagen::retailer::RetailerConfig;

    /// One document: the default retailer database the batch and cache
    /// tests below were written against.
    fn retailer_corpus() -> Corpus {
        let mut builder = CorpusBuilder::new();
        builder.add_parsed("retailer", RetailerConfig::default().generate());
        builder.finish()
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

    fn render(pages: &[CorpusPage]) -> Vec<Vec<String>> {
        pages
            .iter()
            .map(|page| page.iter().map(|a| a.snippet.to_string()).collect())
            .collect()
    }

    #[test]
    fn concurrent_batch_matches_serial_execution() {
        let corpus = retailer_corpus();
        let config = ExtractConfig::with_bound(8);
        let qs = queries();

        // Serial reference: a plain Extract with no cache at all.
        let extract = Extract::new(corpus.doc(DocId::from_index(0)));
        let serial: Vec<Vec<SnippetedResult>> =
            qs.iter().map(|q| extract.snippets_for_query(q, &config)).collect();
        let serial_xml: Vec<Vec<String>> = serial
            .iter()
            .map(|page| page.iter().map(|s| s.snippet.to_xml()).collect())
            .collect();

        for workers in [4, 8] {
            let session = QuerySession::from_corpus_with_options(&corpus, workers, 64);
            assert_eq!(session.workers(), workers);
            let concurrent = session.answer_corpus_batch(&qs, &config);
            assert_eq!(serial_xml, render(&concurrent), "workers={workers}");
            // Roots and ranking order must match too, not just rendering.
            for (s, c) in serial.iter().zip(concurrent.iter()) {
                let roots_s: Vec<_> = s.iter().map(|r| r.result.root).collect();
                let roots_c: Vec<_> = c.iter().map(|a| a.root).collect();
                assert_eq!(roots_s, roots_c);
            }
        }
    }

    #[test]
    fn repeated_queries_hit_the_page_cache() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 4, 64);
        let config = ExtractConfig::with_bound(8);
        let qs = queries();
        session.answer_corpus_batch(&qs, &config);
        let pages = session.corpus_page_stats();
        // 8 queries, 5 distinct. Batch scheduling may race any number of
        // worker threads past the same miss (under a loaded machine even
        // every duplicate can go concurrent), so the only deterministic
        // batch-side claim is the miss floor.
        assert!(pages.misses >= 5, "5 distinct queries: {pages:?}");
        // A *serial* repeat after the batch is deterministic: the page
        // is cached, so it must hit.
        session.answer_corpus(qs[0], &config);
        let after = session.corpus_page_stats();
        assert!(after.hits > pages.hits, "serial repeat must hit: {pages:?} -> {after:?}");
        session.clear_cache();
        assert_eq!(session.corpus_page_stats(), CacheStats::default());
        assert_eq!(session.snippet_stats(), CacheStats::default());
    }

    #[test]
    fn snippet_cache_backstops_page_eviction() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 4096);
        let config = ExtractConfig::with_bound(8);
        // Fill the page cache past its capacity with distinct one-off
        // queries, then re-issue the first query: the page entry may be
        // gone but every per-result snippet must come from the snippet
        // cache (zero fresh computations can't be asserted directly, so
        // assert hits instead).
        session.answer_corpus("texas apparel retailer", &config);
        for i in 0..PAGE_CAPACITY + 8 {
            // Distinct normalized queries (numbers tokenize fine).
            session.answer_corpus(&format!("texas {i}"), &config);
        }
        let before = session.snippet_stats().hits;
        session.answer_corpus("texas apparel retailer", &config);
        let after = session.snippet_stats();
        assert!(
            after.hits > before,
            "page was evicted, snippets must hit: {after:?}"
        );
    }

    #[test]
    fn empty_batch_and_single_worker_paths() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 1, 8);
        let config = ExtractConfig::default();
        assert!(session.answer_corpus_batch(&[], &config).is_empty());
        let one = session.answer_corpus_batch(&["store texas"], &config);
        assert_eq!(one.len(), 1);
        assert_eq!(render(&one), render(&[session.answer_corpus("store texas", &config)]));
    }

    #[test]
    fn cache_disabled_session_still_answers() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus_with_options(&corpus, 4, 0);
        let config = ExtractConfig::with_bound(6);
        let a = session.answer_corpus("houston jeans", &config);
        let b = session.answer_corpus("houston jeans", &config);
        assert_eq!(render(&[a]), render(&[b]));
        assert_eq!(session.corpus_page_stats().hits, 0, "capacity 0 never hits");
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
                page.iter().map(|a| (a.doc, a.snippet.to_string())).collect();
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
            let xs: Vec<_> = s.iter().map(|a| (a.doc, a.root)).collect();
            let xb: Vec<_> = b.iter().map(|a| (a.doc, a.root)).collect();
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
                        page.results.iter().map(|a| (a.doc, a.snippet.to_string())),
                    );
                    offset += k;
                }
                let want: Vec<(DocId, String)> =
                    full.iter().map(|a| (a.doc, a.snippet.to_string())).collect();
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
                (a.doc, a.root, a.score.to_bits(), a.snippet.to_string())
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
        assert_eq!(corpus.engines_built(), 1, "only the routed document built an engine");
        assert!(session.routing_fanin().total() > 0);
        session.clear_cache();
        assert_eq!(session.routing_fanin(), FanIn::default());
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
        }
        let built = corpus.engines_built();
        assert!(built > 0, "engines outlive the session: they are the snapshot's");
        // A fresh session over the same snapshot: the page comes from the
        // shared cache without touching a single engine.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let misses = session.corpus_page_stats().misses;
        session.answer_corpus("store texas", &config);
        let stats = session.corpus_page_stats();
        assert_eq!(stats.misses, misses, "warm page must hit: {stats:?}");
        assert!(stats.hits > 0);
        assert_eq!(corpus.engines_built(), built, "page hit builds no engine");
    }

    #[test]
    fn snapshot_sessions_reuse_the_snapshots_engines() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(0)); // result caches off
        let config = ExtractConfig::with_bound(8);
        let models = || -> Vec<*const extract_analyzer::EntityModel> {
            corpus.doc_ids().map(|id| Arc::as_ptr(corpus.engine(id).model())).collect()
        };
        let first = {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            session.answer_corpus("paper sigmod", &config)
        };
        let built = models();
        // Result caching is disabled, so the second session re-runs search
        // + snippets — on the engines the first one built, byte-identically.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let again = session.answer_corpus("paper sigmod", &config);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(again.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.snippet.to_string(), b.snippet.to_string());
        }
        assert_eq!(models(), built, "no engine was rebuilt");
    }

    // One tokenization per document: the engine a query builds searches
    // the corpus's own segment.
    #[test]
    fn an_engine_searches_the_corpus_segment_not_a_second_index() {
        let corpus = small_corpus();
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::new(SessionCaches::new(0)));
        session.answer_corpus("texas", &ExtractConfig::with_bound(8));
        assert!(corpus.engines_built() > 0);
        for id in corpus.doc_ids() {
            assert!(Arc::ptr_eq(corpus.engine(id).index(), corpus.segment(id)), "{id} was re-indexed");
        }
    }

    #[test]
    fn snapshot_session_allows_empty_corpus() {
        let corpus = CorpusBuilder::new().finish();
        let caches = Arc::new(SessionCaches::new(16));
        let session = QuerySession::for_snapshot(&corpus, 1, caches);
        assert!(session.answer_corpus("anything", &ExtractConfig::default()).is_empty());
    }

    /// `invalidate_doc` purges a dead generation's snippets; its engine
    /// is the snapshot's and goes with the last snapshot holding it.
    #[test]
    fn invalidate_doc_purges_snippets_and_engines() {
        let live = extract_corpus::LiveCorpus::from_corpus(small_corpus());
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        let snapshot = live.snapshot();
        let page = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches))
            .answer_corpus("store texas", &config);
        let victim = page[0].doc;
        let victims = page.iter().filter(|a| a.doc == victim).count();
        let cached = lock_unpoisoned(&caches.snippets).len();
        assert_eq!(cached, page.len(), "every served result is cached");
        let model = Arc::downgrade(snapshot.engine(victim).model());

        let deleted = live.delete(snapshot.name(victim)).expect("a live document");
        caches.invalidate_doc(deleted.id);
        assert_eq!(lock_unpoisoned(&caches.snippets).len(), cached - victims);
        caches.invalidate_doc(deleted.id); // idempotent
        assert_eq!(lock_unpoisoned(&caches.snippets).len(), cached - victims);
        assert!(model.upgrade().is_some(), "the pinned snapshot still answers with it");
        drop(snapshot);
        assert!(model.upgrade().is_none(), "the engine went with the last snapshot holding it");
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
    /// deallocation (a mutation can retire thousands of entries at once).
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
