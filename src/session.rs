//! A thread-safe query session over one corpus snapshot — the serving
//! layer between a [`Corpus`] and the `/search` wire format.
//!
//! [`QuerySession`] is a borrowed [`Corpus`] and a shared cache bundle —
//! one over a shared bundle ([`QuerySession::for_snapshot`]) allocates
//! nothing, so the daemon builds one per request, and a session answers on
//! its caller's thread: concurrency is the callers', each with its own
//! session over the one bundle. [`QuerySession::answer_corpus_topk`]
//! routes each query through the corpus's token → document directory
//! ([`Corpus::route`]) so only documents containing **every** keyword are
//! searched, each handed the keywords' token ids in its segment: a miss
//! resolves each keyword once, at routing, and reads a candidate's posting
//! lists by those ids into the request's one list buffer — the only input
//! search, scoring and the snippet kernel take (routing's buffers stay
//! with the worker thread). Each candidate answers with its engine — index
//! segment, entity model and keys — which lives on the snapshot
//! ([`Corpus::engine`]): built when the document arrived, before it was
//! published, and shared by every request and every snapshot holding the
//! document. The per-document ranked results are merged into one page
//! ordered by (score desc, document asc, root asc).
//!
//! Caching is three caches, all LRU, and all hold only what `/search`
//! needs:
//!
//! 1. a **page cache** (`normalized query + config + window + epoch →`
//!    [`CorpusTopK`]) makes a repeated hot query a single hash lookup
//!    plus an `Arc` clone — routing, search, ranking and snippet
//!    generation are all skipped. The entry also keeps the window's
//!    `/search` results array once it has been served from the cache, so
//!    a hit re-serves bytes, and a page that is never hit holds none (a
//!    miss writes its results into its response);
//! 2. a **ranking cache** (`normalized query →` the exact total, the
//!    best-first prefix of results, 16 bytes each with the score the
//!    ranking counted, and the candidate documents ranked, each with
//!    its result count) makes every window of a query a slice of one
//!    search and every served score the one the search counted: a page
//!    miss whose query was ranked deep enough — for any window, under
//!    any snippet config, at any epoch — routes, but skips SLCA,
//!    lifting and scoring over the documents its ranking already holds.
//!    The routes are diffed against the stored candidates: a document
//!    that left takes its results out of the prefix and the total, and
//!    one that arrived is ranked alone and merged in — a search is that
//!    patch of the empty ranking. A window deeper than the prefix ranks
//!    again, and what was ranked is stored as its first `MAX_RANKED`
//!    results, an exact prefix still;
//! 3. the per-result snippet cache (`query + (DocId, root) + config →`
//!    the result's `/search` object as an `Arc<str>`, [`ResultObject`])
//!    catches queries whose page entry was evicted and amortizes
//!    snippet generation across overlapping result sets — one shared
//!    cache serves every document of a corpus thanks to the
//!    [`DocId`]-qualified keys. Every byte of the object is a function
//!    of the key (a [`DocId`] pins the document's name and slot, a
//!    score depends on its document alone), so it is written once, when
//!    the kernel runs, and a page miss made of hits escapes no byte and
//!    joins the objects. Corpus pages hold the same `Arc`s, so a
//!    result's bytes exist once however many pages show them. Only this
//!    cache has a door ([`LruCache::admitting`]): once full, it stores
//!    a result it does not hold on its second sight within the door's
//!    last two generations, and turns the first away — served all the
//!    same, its object freed after the guard by the thread that made
//!    it, and counted as a rejection. A stream of results that do not
//!    recur within the cache's reach so neither stores nor evicts, and
//!    the results that do recur stay. Pages and rankings stay plain LRU
//!    (ROADMAP item 16 records why).
//!
//! They sit behind `Mutex`es held only to look up and to store: a miss
//! takes the snippet cache's lock once to look up its whole window and
//! once more to store the snippets it computed. A lock is never held
//! during computation, nor while an entry is freed: what an insert evicts
//! or turns away, or a mutation invalidates, is handed out of the cache and
//! dropped after the guard — so contention stays negligible next to the work they save.
//! Every cache is `O(1)` a lookup, insert or eviction
//! ([`LruCache`]), and every key hashes the request's query text as the
//! one keyed hash [`QueryText`] took when the request was parsed. A cached
//! snippet is one allocation (its object's bytes), so freeing one that
//! another worker built costs one cross-thread free. A miss's kernel
//! borrows the document's engine from the snapshot: it clones nothing.
//!
//! A miss pays for the window it serves, not for the results it ranks:
//! every result root of every candidate document is *scored by counting*
//! (its keyword matches are the postings inside its ID interval, found by
//! one forward merge over each keyword's posting list,
//! [`ranking::scored_roots`], on roots that SLCA and entity lifting hand
//! over in document order with no sort), each result is ranked as one
//! 16-byte hit — score, then slot, then root, which within one snapshot is
//! (document, root) order — and the best `offset + k` are kept in a buffer
//! of at most twice that size — any other result is only counted (a window
//! starting past the end keeps at most `MAX_RANKED`: it needs only the
//! total). Only those are sorted, and only the served `[offset, offset +
//! k)` slice of them — ≤ `k` hits, each with the score the sweep counted —
//! ever reaches the snippet cache, and only its misses the snippet kernel.
//! No score is counted twice. The kernel runs in this thread's
//! [`IListScratch`](extract_core::ilist::IListScratch) — statistics, IList,
//! selection and XML in one pass over reused buffers, reading each
//! keyword's matches from the same posting lists — and what it leaves is
//! the snippet's bytes
//! ([`Extract::snippet_xml`](extract_core::Extract::snippet_xml)), which
//! go straight into the result's object: no `QueryResult`, owned IList or
//! snippet tree is built to serve a page.
//!
//! All cache state lives in an [`SessionCaches`] bundle behind an `Arc`.
//! A standalone session owns a private bundle; the live serving layer
//! shares one bundle across the per-snapshot sessions it builds per
//! request ([`QuerySession::for_snapshot`]), so page and snippet caches
//! stay warm across epoch swaps. Safety across mutations comes from the
//! keys and one check: snippet keys carry generational [`DocId`]s and page
//! keys carry the corpus epoch, so entries computed against an older
//! snapshot can never answer for a newer one; a ranking carries the
//! [`DocId`]s it ranked, and is diffed against the routes of the snapshot
//! reading it before any of it is served — older or newer, the patched
//! ranking holds that snapshot's candidates only, which is why it may name
//! a document by its slot alone.
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
//! let session = QuerySession::from_corpus(&corpus, 64);
//! let page = session.answer_corpus_topk("store texas", &ExtractConfig::with_bound(6), 10, 0);
//! assert_eq!(page.total, 1);
//! assert_eq!(corpus.name(page.results[0].doc), "texas");
//! ```

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use extract_core::cache::{CacheKey, LruCache, PageKey, QueryText};
use extract_core::ilist::IListScratch;
use extract_core::{CacheStats, Extract, ExtractConfig};
use extract_corpus::{Corpus, DocId, Routes};
use extract_index::TokenId;
use extract_obs::lock_unpoisoned;
use extract_search::ranking;
use extract_search::xseek::RootsBuffers;
use extract_search::KeywordQuery;
use extract_xml::NodeId;

use crate::serve;

/// Page-cache capacity: whole result pages are bigger than single
/// snippets, so the page cache keeps a smaller hot set than the snippet
/// cache.
const PAGE_CAPACITY: usize = 128;

/// Ranking-cache capacity: a ranking on the benchmark corpus averages 94
/// results, ~750 bytes, about a quarter of a rendered page, so this many
/// rankings cost about what the page cache does.
const RANKINGS: usize = 512;

/// The deepest ranking the ranking cache stores: a deeper one is stored as
/// its first `MAX_RANKED` results, and a window past them ranks again.
const MAX_RANKED: usize = 1024;

/// One corpus result as `/search` serves it: which document and root it
/// is, its ranking score, and its snippet — rendered as the result's
/// `/search` object.
#[derive(Debug, Clone)]
pub struct CorpusAnswer {
    /// The document the result root lives in.
    pub doc: DocId,
    /// The ranking score ([`extract_search::ranking::score`]), comparable
    /// across documents.
    pub score: f64,
    /// The result root in `doc`.
    pub root: NodeId,
    /// The result's `/search` object, which derefs to the snippet's
    /// compact XML — shared with the snippet-cache entry it came from (or
    /// went into), so a result's bytes exist once however many cached
    /// pages show them.
    pub snippet: ResultObject,
}

/// A result's `/search` object, `{"doc":…,"doc_id":…,"root":…,"score":…,
/// "snippet":…}`, as the snippet cache holds it: written once, when the
/// snippet kernel ran, and joined into every page that shows the result.
/// It derefs to the snippet's compact XML, read back out of the object the
/// first time it is asked for — serving never asks.
#[derive(Debug, Clone)]
pub struct ResultObject {
    object: Arc<str>,
    xml: OnceLock<Box<str>>,
}

impl ResultObject {
    fn new(object: Arc<str>) -> ResultObject {
        ResultObject { object, xml: OnceLock::new() }
    }

    /// The object's bytes, as `/search` serves them.
    pub fn object(&self) -> &Arc<str> {
        &self.object
    }
}

impl std::ops::Deref for ResultObject {
    type Target = str;

    /// The snippet's compact XML: the object's `snippet` string, unescaped.
    fn deref(&self) -> &str {
        self.xml.get_or_init(|| {
            let parsed = extract_serve::json::parse(&self.object).ok();
            let snippet = parsed.as_ref().and_then(|object| object.get("snippet"));
            snippet.and_then(extract_serve::json::Value::as_str).unwrap_or_default().into()
        })
    }
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
    /// page is served from the page cache: a miss writes its results
    /// straight into its response, so a page that is never hit holds no
    /// body. The cell is shared with the page-cache entry, so the rendered
    /// bytes live and die with the page they were rendered from — same
    /// key, same epoch, same eviction — and a later hit serves them as
    /// they are.
    pub(crate) rendered: Arc<OnceLock<Box<str>>>,
    /// Whether this answer was served from the page cache.
    pub(crate) hit: bool,
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

    /// This thread's search buffers (SLCA, result roots, sweep cursors):
    /// warm after its first miss, so ranking more results does not
    /// allocate more.
    static ROOTS: Cell<RootsBuffers> = Cell::default();

    /// This thread's routing buffers (directory lists, candidates, their
    /// token ids): warm after its first miss, so routing allocates
    /// nothing.
    static ROUTES: Cell<Routes> = Cell::default();

    /// This thread's ranking buffer (the results a [`Window`] keeps): warm
    /// after its first miss, so a search allocates nothing for it.
    static KEPT: Cell<Vec<Hit>> = Cell::default();
}

/// The largest ranking buffer a thread keeps for its next search: a
/// window that kept more — deeper than any stored ranking — frees its
/// buffer rather than pin it to the thread.
const KEPT_REUSED: usize = 2 * MAX_RANKED;

/// Run `f` on this thread's kernel scratch (on a fresh one should it be
/// in use — the kernel does not re-enter, so it never is).
fn with_scratch<T>(f: impl FnOnce(&mut IListScratch) -> T) -> T {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut IListScratch::default()),
    })
}

/// One ranked result, in 16 bytes: its score, the slot of its document
/// and its root. Fields order like the ranking — score descending, then
/// slot, then root — and among the candidates of one snapshot a slot
/// names one document, so that is (score, document, root) order; the
/// request's routes hold the document's [`DocId`]. The score is the one
/// the ranking sweep counted: nothing counts it again.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Hit {
    /// The score's total-order bits, inverted so a higher score comes
    /// first ([`descending_bits`]).
    bits: u64,
    slot: u32,
    root: NodeId,
}

impl Hit {
    fn new(doc: DocId, score: f64, root: NodeId) -> Hit {
        Hit { bits: descending_bits(score), slot: slot_of(doc), root }
    }

    /// The score, to the bit, as the ranking sweep counted it.
    fn score(&self) -> f64 {
        f64::from_bits(!self.bits)
    }
}

/// `score` as a `u64` that orders like [`ranking::by_score_desc`]:
/// ascending key, descending score. A score is never negative (a sum of
/// `ln(1 + n)` over a positive denominator), and non-negative `f64`s order
/// like their bits.
fn descending_bits(score: f64) -> u64 {
    debug_assert!(score.is_sign_positive(), "negative score {score}");
    !score.to_bits()
}

/// The best `keep` results offered so far, and how many were offered in
/// all; [`Window::best`] hands them over in ranking order — score
/// descending, then document, then root. Offers go into a buffer of at
/// most `2 · keep` results, the thread's own ([`KEPT`]); when it fills, a
/// `select_nth` cuts it back to the best `keep`, and the worst of those
/// becomes the cut-off. A later offer that does not beat the cut-off
/// cannot make the ranking's prefix and is only counted. `keep == 0`
/// counts and keeps nothing; `keep == usize::MAX` never fills, so it keeps
/// everything.
struct Window {
    keep: usize,
    kept: Vec<Hit>,
    /// The worst kept result at the last cut, once there has been one.
    cutoff: Option<Hit>,
    total: usize,
    /// The last offer's document and root, to check that offers arrive in
    /// (document, root) order.
    #[cfg(debug_assertions)]
    last: Option<(DocId, NodeId)>,
}

impl Window {
    fn new(keep: usize) -> Window {
        let mut kept = KEPT.take();
        kept.clear();
        Window {
            keep,
            kept,
            cutoff: None,
            total: 0,
            #[cfg(debug_assertions)]
            last: None,
        }
    }

    /// Offer the next result; results must come in (document, root) order,
    /// the order of one snapshot's candidates and their roots.
    fn offer(&mut self, doc: DocId, score: f64, root: NodeId) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.last < Some((doc, root)), "offers out of (document, root) order");
            self.last = Some((doc, root));
        }
        let hit = Hit::new(doc, score, root);
        self.total += 1;
        if self.keep == 0 || self.cutoff.is_some_and(|cut| hit > cut) {
            return;
        }
        self.kept.push(hit);
        if self.kept.len() >= self.keep.saturating_mul(2) {
            self.cut();
        }
    }

    /// Keep only the best `keep` results (unordered), and the worst of
    /// them as the cut-off.
    fn cut(&mut self) {
        if let Some(last) = self.keep.checked_sub(1).filter(|&last| last < self.kept.len()) {
            self.kept.select_nth_unstable(last);
            self.kept.truncate(self.keep);
            self.cutoff = self.kept.last().copied();
        }
    }

    /// The best `keep` results offered, in ranking order.
    fn best(&mut self) -> &[Hit] {
        if self.kept.len() > self.keep {
            self.cut();
        }
        self.kept.sort_unstable();
        &self.kept
    }
}

impl Drop for Window {
    /// Hand the buffer back to the thread, unless it grew past [`KEPT_REUSED`].
    fn drop(&mut self) {
        let kept = std::mem::take(&mut self.kept);
        if kept.capacity() <= KEPT_REUSED {
            KEPT.set(kept);
        }
    }
}

/// `doc`'s slot as the `u32` it is: [`DocId::index`] only widens it.
fn slot_of(doc: DocId) -> u32 {
    u32::try_from(doc.index()).unwrap_or(u32::MAX)
}

/// The routed candidate in `hit`'s slot. Every hit of a ranking served to
/// `docs` names one — a patched ranking holds no hit of a document the
/// routes lack — so a hit without one is a bug, which a debug build stops
/// at rather than serve a short page.
fn routed(hit: &Hit, docs: &[DocId]) -> Option<DocId> {
    let row = docs.binary_search_by_key(&hit.slot, |&doc| slot_of(doc));
    debug_assert!(row.is_ok(), "ranked slot {} is not a routed candidate", hit.slot);
    docs.get(row.ok()?).copied()
}

/// One candidate document of a ranking, and how many results it holds.
type Candidate = (DocId, u32);

/// A count of results as a [`Candidate`] keeps it: a document holds fewer
/// results than nodes, and its nodes are `u32`s.
fn count_of(results: usize) -> u32 {
    u32::try_from(results).unwrap_or(u32::MAX)
}

/// A query's ranking over one set of candidate documents: the exact number
/// of results, the best of them in ranking order (score descending, then
/// document, then root) — every one, or a prefix as deep as some window
/// asked — and the candidates it ranked. A result depends on its document
/// alone, and a [`DocId`] pins a document's bytes, so the ranking is exact
/// for any snapshot that routes the query to the same candidates, and
/// [`QuerySession::rank`] makes it exact for one that routes elsewhere.
#[derive(Debug, Clone, Default)]
struct Ranking {
    total: usize,
    best: Arc<[Hit]>,
    /// Every candidate ranked, in `DocId` order, with its result count —
    /// the ones that hold none included.
    candidates: Arc<[Candidate]>,
}

impl Ranking {
    /// The `[offset, offset + k)` slice of the whole ranking, when this
    /// ranking's prefix holds all of it — an empty slice (`k == 0`, or an
    /// offset at or past the end) needs only the total.
    fn window(&self, offset: usize, k: usize) -> Option<&[Hit]> {
        let start = offset.min(self.total);
        let end = offset.saturating_add(k).min(self.total);
        if start == end {
            return Some(&[]);
        }
        self.best.get(start..end)
    }
}

/// The shareable cache state of one serving lineage: result pages,
/// query rankings and per-result snippets. A standalone [`QuerySession`]
/// owns a private bundle; live serving keeps one bundle alive across the
/// per-snapshot sessions it builds, so caches survive corpus mutations
/// (see the module docs for why that is safe).
#[derive(Debug)]
pub struct SessionCaches {
    cache_capacity: usize,
    /// Corpus pages cache *windows*: the key carries `(k, offset)` and the
    /// value is the answer itself — the served slice, the full result
    /// count, and the slice's rendered bytes once `/search` has served it.
    corpus_pages: Mutex<LruCache<PageKey, CorpusTopK>>,
    /// Each normalized query's latest ranking, as deep as the deepest
    /// window that ranked it, with the candidates it ranked: every window
    /// of the query is a slice of it once it is patched to the request's
    /// routes.
    rankings: Mutex<LruCache<QueryText, Ranking>>,
    /// Lookups that found their query's ranking too shallow for the
    /// window — hits to the map, misses to the window, which ranks again.
    shallow_rankings: AtomicU64,
    /// Lookups served from a ranking patched to other candidates — hits.
    patched_rankings: AtomicU64,
    /// Each result's `/search` object, shared with the pages showing it.
    snippets: Mutex<LruCache<CacheKey, Arc<str>>>,
}

impl SessionCaches {
    /// A fresh bundle; `cache_capacity` sizes the snippet cache and (capped
    /// at internal bounds) the page and ranking caches, `0` disables result
    /// caching.
    pub fn new(cache_capacity: usize) -> SessionCaches {
        SessionCaches {
            cache_capacity,
            corpus_pages: Mutex::new(LruCache::new(cache_capacity.min(PAGE_CAPACITY))),
            rankings: Mutex::new(LruCache::new(cache_capacity.min(RANKINGS))),
            shallow_rankings: AtomicU64::new(0),
            patched_rankings: AtomicU64::new(0),
            snippets: Mutex::new(LruCache::admitting(cache_capacity)),
        }
    }

    /// Drop every cached snippet of `doc` — result pages are left to the
    /// epoch key, rankings to the candidate check that patches them, and
    /// the document's engine goes with the last snapshot holding it.
    /// Invalidation hygiene for a dead document generation: the
    /// generational keys already guarantee its bytes can't be served, this
    /// frees their memory eagerly.
    pub fn invalidate_doc(&self, doc: DocId) {
        purge(&self.snippets, |k| k.doc() != doc);
    }

    /// Drop result pages computed before `epoch` (their keys can never
    /// match again once the corpus moved on — this reclaims the memory
    /// instead of waiting for LRU pressure). Rankings stay: the request
    /// that reads one checks it against its own routes and patches it
    /// there, so only their LRU bounds them.
    pub fn retire_pages_before(&self, epoch: u64) {
        purge(&self.corpus_pages, |k| k.epoch() >= epoch);
    }

    /// Corpus page-cache counters since the bundle was created.
    pub fn corpus_page_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.corpus_pages).stats()
    }

    /// Ranking-cache counters since the bundle was created: a lookup that
    /// found its query's ranking too shallow for its window is a miss, one
    /// served from a patched ranking a hit.
    pub fn ranking_stats(&self) -> CacheStats {
        let stats = lock_unpoisoned(&self.rankings).stats();
        let shallow = self.shallow_rankings.load(Ordering::Relaxed);
        CacheStats {
            hits: stats.hits.saturating_sub(shallow),
            misses: stats.misses + shallow,
            ..stats
        }
    }

    /// Ranking-cache lookups since the bundle was created that were served
    /// from a ranking patched to the request's candidates (a subset of the
    /// hits of [`SessionCaches::ranking_stats`]).
    pub fn ranking_patches(&self) -> u64 {
        self.patched_rankings.load(Ordering::Relaxed)
    }

    /// Per-result snippet-cache counters since the bundle was created.
    pub fn snippet_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.snippets).stats()
    }

    /// Entries each cache holds right now: pages, rankings, snippets.
    pub(crate) fn entries(&self) -> (usize, usize, usize) {
        (
            lock_unpoisoned(&self.corpus_pages).len(),
            lock_unpoisoned(&self.rankings).len(),
            lock_unpoisoned(&self.snippets).len(),
        )
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

    /// Ranked results the ranking cache holds right now, 16 bytes each (at
    /// most [`RANKINGS`] rankings of at most [`MAX_RANKED`]). Summed on
    /// demand, like [`SessionCaches::corpus_page_body_bytes`].
    pub fn ranking_cache_results(&self) -> usize {
        lock_unpoisoned(&self.rankings).values().map(|ranking| ranking.best.len()).sum()
    }

    /// Bytes of rendered result objects the snippet cache holds right now
    /// — each result's `/search` object, its snippet escaped inside, all a
    /// cached snippet is. Summed on demand, like
    /// [`SessionCaches::corpus_page_body_bytes`].
    pub fn snippet_cache_bytes(&self) -> usize {
        lock_unpoisoned(&self.snippets).values().map(|object| object.len()).sum()
    }
}

/// A query-answering session over one corpus snapshot: it answers on its
/// caller's thread, and any number of sessions may share one cache bundle.
#[derive(Debug)]
pub struct QuerySession<'d> {
    corpus: &'d Corpus,
    caches: Arc<SessionCaches>,
}

impl<'d> QuerySession<'d> {
    /// Serve a corpus over a private cache bundle of `cache_capacity`
    /// ([`SessionCaches::new`]; `0` disables caching). Every document's
    /// engine was built when it arrived: a query only reads it.
    ///
    /// # Panics
    /// If the corpus holds no documents.
    pub fn from_corpus(corpus: &'d Corpus, cache_capacity: usize) -> QuerySession<'d> {
        assert!(!corpus.is_empty(), "QuerySession requires a non-empty corpus");
        QuerySession { corpus, caches: Arc::new(SessionCaches::new(cache_capacity)) }
    }

    /// A session over a (possibly empty) corpus **snapshot**, reusing an
    /// externally owned cache bundle. This is the live-serving entry
    /// point: the serving layer builds one of these per request over the
    /// current [`Corpus`] snapshot — no allocation, the engines are the
    /// snapshot's — and because `caches` outlives the session, page and
    /// snippet caches stay warm across epoch swaps. Unlike
    /// [`QuerySession::from_corpus`], an empty corpus is allowed — a live
    /// corpus legitimately passes through empty.
    ///
    /// `_workers` is unused: the session answers on its caller's thread.
    /// It stays only because the frozen `benchmark/` harness passes it, and
    /// leaves with the harness's next revision (ROADMAP item 5(a)).
    pub fn for_snapshot(
        corpus: &'d Corpus,
        _workers: usize,
        caches: Arc<SessionCaches>,
    ) -> QuerySession<'d> {
        QuerySession { corpus, caches }
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

    /// The request's query, normalized once for every cache key built
    /// from it — `None` when result caching is off and no key ever is.
    fn query_text(&self, query: &KeywordQuery) -> Option<QueryText> {
        (self.caches.cache_capacity > 0).then(|| QueryText::from(query))
    }

    /// `doc`'s posting lists for the routed query, into `lists`: `ids` are
    /// the keywords' token ids in its segment, in query order, as routing
    /// found them, so no keyword is hashed again. Search and the snippet
    /// window both read a candidate's lists through here.
    fn lists_of(&self, doc: DocId, ids: &[TokenId], lists: &mut Vec<&'d [NodeId]>) {
        let index = self.corpus.engine(doc).index();
        lists.clear();
        lists.extend(ids.iter().map(|&id| index.postings_by_id(id)));
    }

    /// `held` made exact for this snapshot's `routes`, at most `keep` deep;
    /// a search ranks from the empty ranking. A result depends on its
    /// document alone, so a held candidate the routes lack (deleted, or an
    /// old generation) takes its results out of the prefix and the total —
    /// first, so a reused slot's old results never meet its new ones — and a
    /// routed one `held` lacks is ranked alone into a [`Window`] of `keep`,
    /// whose best are merged into the prefix in [`Hit`] order — every hit
    /// carries its score, so nothing is recounted. The merge is cut at
    /// `keep` and, unless the prefix is the whole ranking, below its last
    /// entry: results the prefix never held may rank in between.
    fn rank(
        &self,
        held: &Ranking,
        routes: &Routes,
        lists: &mut Vec<&'d [NodeId]>,
        keep: usize,
    ) -> Ranking {
        let (ranked, docs) = (&*held.candidates, routes.docs());
        let mut gone = Vec::new();
        let mut total = held.total;
        for &(doc, count) in ranked.iter().filter(|(doc, _)| docs.binary_search(doc).is_err()) {
            gone.push(slot_of(doc));
            total = total.saturating_sub(usize::try_from(count).unwrap_or(usize::MAX));
        }
        let survivors: Cow<'_, [Hit]> = if gone.is_empty() {
            Cow::Borrowed(&held.best)
        } else {
            held.best.iter().filter(|hit| !gone.contains(&hit.slot)).copied().collect()
        };
        let whole = survivors.len() == total;
        let mut window = Window::new(keep);
        let mut buffers = ROOTS.take();
        let candidates = routes
            .iter()
            .map(|(doc, ids)| match ranked.binary_search_by_key(&doc, |&(was, _)| was) {
                Ok(row) => ranked.get(row).copied().unwrap_or((doc, 0)),
                Err(_) => {
                    let before = window.total;
                    self.lists_of(doc, ids, lists);
                    let emit = |root, score| window.offer(doc, score, root);
                    let (document, model) = (self.corpus.doc(doc), self.corpus.engine(doc).model());
                    ranking::scored_roots(document, model, lists, &mut buffers, emit);
                    (doc, count_of(window.total - before))
                }
            })
            .collect();
        ROOTS.set(buffers);
        total += window.total;
        let mut fresh = window.best();
        if !whole {
            let cut = fresh.partition_point(|at| survivors.last().is_some_and(|last| at < last));
            fresh = fresh.get(..cut).unwrap_or_default();
        }
        // Collected from an exact-length map, in one allocation: `len` never
        // outruns the two lists, so every step takes a head, never the
        // default.
        let len = (survivors.len() + fresh.len()).min(keep);
        let (mut prefix, mut fresh) = (survivors.iter().peekable(), fresh.iter().peekable());
        let best = (0..len)
            .map(|_| {
                let next = match fresh.peek() {
                    Some(at) => prefix.next_if(|hit| hit < at).or_else(|| fresh.next()),
                    None => prefix.next(),
                };
                next.copied().unwrap_or_default()
            })
            .collect();
        Ranking { total, best, candidates }
    }

    /// The query's ranking over this snapshot, deep enough for the window:
    /// with caching on (`text` is the request's query), the cached ranking
    /// if it ranked the routed candidates and holds the window, else that
    /// one patched ([`QuerySession::rank`], [`MAX_RANKED`] deep, or as deep
    /// as a window inside a deeper ranking needs) if that holds it, else
    /// the empty ranking ranked as deep as the window needs, which counts
    /// as a miss. What was ranked is stored as its first
    /// [`MAX_RANKED`].
    fn ranking(
        &self,
        text: Option<&QueryText>,
        routes: &Routes,
        lists: &mut Vec<&'d [NodeId]>,
        (offset, k): (usize, usize),
    ) -> Ranking {
        let caches = &self.caches;
        let end = offset.saturating_add(k);
        let cached = text.and_then(|text| lock_unpoisoned(&caches.rankings).get(text));
        let mut patched = None;
        if let Some(cached) = cached {
            if !cached.candidates.iter().map(|&(doc, _)| doc).eq(routes.docs().iter().copied()) {
                // Patched `MAX_RANKED` deep first, as a fresh ranking is
                // ranked below: only a window inside a deeper ranking is
                // patched again, `offset + k` deep.
                let patch = self.rank(&cached, routes, lists, MAX_RANKED);
                let patch = match patch.window(offset, k) {
                    None if end > MAX_RANKED => self.rank(&cached, routes, lists, end),
                    _ => patch,
                };
                patched = Some(patch).filter(|patch| patch.window(offset, k).is_some());
            } else if cached.window(offset, k).is_some() {
                return cached;
            }
            let counter = match patched {
                Some(_) => &caches.patched_rankings,
                None => &caches.shallow_rankings,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        // Ranked at most `MAX_RANKED` deep first: that holds every window
        // ending there, and any window starting past the end, which needs
        // only the total — only a window inside a deeper ranking ranks
        // again, `offset + k` deep.
        let ranked = patched.unwrap_or_else(|| {
            let empty = Ranking::default();
            let bounded = self.rank(&empty, routes, lists, end.min(MAX_RANKED));
            match bounded.window(offset, k) {
                Some(_) => bounded,
                None => self.rank(&empty, routes, lists, end),
            }
        });
        if let Some(text) = text {
            let cut = ranked.best.get(..MAX_RANKED).filter(|cut| cut.len() < ranked.best.len());
            let best = cut.map_or_else(|| Arc::clone(&ranked.best), Arc::from);
            store(&caches.rankings, text.clone(), Ranking { best, ..ranked.clone() });
        }
        ranked
    }

    /// The served window's answers: each result's document from the
    /// routes ([`routed`]), its score from its hit, and its `/search` object
    /// via the shared snippet cache when enabled (`text` is the request's
    /// normalized query then): one lock looks up every result of the
    /// window, and a hit is served as it was stored — no byte escaped. A
    /// miss reads its posting lists into the request's `lists`, runs the
    /// snippet kernel in this thread's scratch on the document's borrowed
    /// engine, and writes the result's object ([`serve::result_object`]);
    /// one more lock stores those objects.
    fn answers(
        &self,
        hits: &[Hit],
        routes: &Routes,
        lists: &mut Vec<&'d [NodeId]>,
        query: &KeywordQuery,
        text: Option<&QueryText>,
        config: &ExtractConfig,
    ) -> Vec<CorpusAnswer> {
        // Each result's document and hit and, in its last field, first the
        // cached object the lookup found, then — once the window has taken
        // those — the object a miss computed, to be stored.
        let mut served = Vec::with_capacity(hits.len());
        served.extend(
            hits.iter()
                .filter_map(|&hit| Some((routed(&hit, routes.docs())?, hit, None::<Arc<str>>))),
        );
        let key = |text: &QueryText, doc, hit: &Hit| CacheKey::for_doc(text, doc, hit.root, config);
        if let Some(text) = text {
            let mut snippets = lock_unpoisoned(&self.caches.snippets);
            for (doc, hit, cached) in &mut served {
                *cached = snippets.get(&key(text, *doc, hit));
            }
        }
        let mut misses = 0;
        let window = served
            .iter_mut()
            .map(|(doc, hit, slot)| {
                let (doc, root, score) = (*doc, hit.root, hit.score());
                let object = slot.take().unwrap_or_else(|| {
                    self.lists_of(doc, routes.ids_of(doc).unwrap_or_default(), lists);
                    let (document, engine) = (self.corpus.doc(doc), self.corpus.engine(doc));
                    let extract = Extract::borrowing(document, engine);
                    let object = with_scratch(|scratch| {
                        let xml = extract.snippet_xml(query, lists, root, config, scratch);
                        serve::result_object(self.corpus.name(doc), doc, root, score, xml)
                    });
                    *slot = Some(Arc::clone(&object));
                    misses += 1;
                    object
                });
                CorpusAnswer { doc, score, root, snippet: ResultObject::new(object) }
            })
            .collect();
        if let Some(text) = text.filter(|_| misses > 0) {
            // Taken out of `served` in place: collecting from its
            // `into_iter` would reuse and shrink its buffer, one
            // reallocation a window.
            let fresh = served
                .iter_mut()
                .filter_map(|(doc, hit, object)| Some((key(text, *doc, hit), object.take()?)));
            let displaced: Vec<Arc<str>> = {
                let mut snippets = lock_unpoisoned(&self.caches.snippets);
                fresh.filter_map(|(key, object)| snippets.insert(key, object)).collect()
            };
            drop(displaced);
        }
        window
    }

    /// Answer one corpus query with a **rank cutoff**: route through the
    /// directory to the documents containing **every** keyword, search and
    /// rank everywhere the query can match (so `total` and the global
    /// order are exact), but generate snippets **only** for the
    /// `[offset, offset + k)` window actually being served. A broad query
    /// over a big corpus ("name" → 74k merged results on the benchmark
    /// corpus) pays for ten snippets, not seventy-four thousand — search
    /// and ranking are cheap next to per-result IList + instance
    /// selection, which this makes proportional to the page size.
    ///
    /// Every window is a slice of the query's ranking: the cached one,
    /// patched where a mutation changed its candidates, when its prefix
    /// reaches the window, else one ranked `offset + k` deep here, which
    /// the cache keeps ([`QuerySession::ranking`]) — so the windows of one
    /// query share one search and one patch. Routing runs either way: the
    /// candidate check and the snippet kernel need it.
    ///
    /// The window is byte-identical to the same slice of the unbounded
    /// answer (`k = usize::MAX`, `offset = 0`), and that answer to each
    /// document answered standalone and merged in (score desc, doc asc,
    /// root asc) order (pinned by tests): ranking stays deterministic, so
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
                return CorpusTopK { hit: true, ..page };
            }
        }
        // Stage 1 — routing and the query's ranking: no snippet work yet,
        // and nothing built for a result outside the window. Timed as the
        // request's `search` span, also when the ranking comes from the
        // cache (the page-hit return above records no stage at all — a hit
        // does no search work).
        // Routing resolves each keyword once, here: every candidate comes
        // with the keywords' token ids in its segment, by which search and
        // the snippet kernel read its posting lists into `lists`.
        let mut routes = ROUTES.take();
        let mut lists = Vec::new();
        let ranking = extract_obs::time_stage(extract_obs::Stage::Search, || {
            self.corpus.route(query.keywords(), &mut routes);
            self.ranking(text.as_ref(), &routes, &mut lists, (offset, k))
        });
        // Stage 2 — snippets for the served window only (the `snippet`
        // span).
        let served = ranking.window(offset, k).unwrap_or_default();
        let window = extract_obs::time_stage(extract_obs::Stage::Snippet, || {
            self.answers(served, &routes, &mut lists, &query, text.as_ref(), config)
        });
        ROUTES.set(routes);
        let total = ranking.total;
        let results = window.into();
        let page = CorpusTopK { results, total, k, offset, rendered: Arc::default(), hit: false };
        if let Some(pkey) = pkey {
            store(&self.caches.corpus_pages, pkey, page.clone());
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_core::SnippetedResult;
    use extract_corpus::CorpusBuilder;
    use extract_datagen::dblp::DblpConfig;
    use extract_datagen::retailer::RetailerConfig;
    use std::sync::atomic::AtomicUsize;

    /// One document: the default retailer database the concurrency and
    /// cache tests below were written against.
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

    /// The query's whole answer: every result, best first.
    fn unbounded(session: &QuerySession<'_>, q: &str, config: &ExtractConfig) -> CorpusPage {
        session.answer_corpus_topk(q, config, usize::MAX, 0).results
    }

    /// A page as rows: document, root, score bits and snippet bytes.
    fn rows(page: &[CorpusAnswer]) -> Vec<(DocId, NodeId, u64, String)> {
        page.iter().map(|a| (a.doc, a.root, a.score.to_bits(), a.snippet.to_string())).collect()
    }

    /// `queries` answered the way the daemon answers requests: `threads`
    /// scoped threads, each taking every `threads`-th query through its
    /// own [`QuerySession::for_snapshot`] session over the one shared
    /// `caches`. Each page must equal a cache-less serial answer byte for
    /// byte, roots and order included. Index-aligned with `queries`.
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
        let reference = QuerySession::from_corpus(corpus, 0);
        for (q, (_, page)) in queries.iter().zip(&answered) {
            let serial = unbounded(&reference, q, config);
            assert_eq!(rows(page), rows(&serial), "{q} on {threads} threads");
        }
        answered.into_iter().map(|(_, page)| page).collect()
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

        for threads in [4, 8] {
            let caches = Arc::new(SessionCaches::new(64));
            let concurrent = answer_on_threads(&corpus, &caches, threads, &qs, &config);
            assert_eq!(serial_xml, render(&concurrent), "threads={threads}");
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
        let caches = Arc::new(SessionCaches::new(64));
        let config = ExtractConfig::with_bound(8);
        let qs = queries();
        answer_on_threads(&corpus, &caches, 4, &qs, &config);
        let pages = caches.corpus_page_stats();
        // 8 queries, 5 distinct. The threads may race any number of
        // sessions past the same miss (under a loaded machine even every
        // duplicate can go concurrent), so the only deterministic
        // concurrent claim is the miss floor.
        assert!(pages.misses >= 5, "5 distinct queries: {pages:?}");
        // A *serial* repeat afterwards is deterministic: the page is
        // cached, so it must hit.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        unbounded(&session, qs[0], &config);
        let after = caches.corpus_page_stats();
        assert!(after.hits > pages.hits, "serial repeat must hit: {pages:?} -> {after:?}");
    }

    #[test]
    fn snippet_cache_backstops_page_eviction() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus(&corpus, 4096);
        let config = ExtractConfig::with_bound(8);
        // Fill the page cache past its capacity with distinct one-off
        // queries, then re-issue the first query: the page entry may be
        // gone but every per-result snippet must come from the snippet
        // cache (zero fresh computations can't be asserted directly, so
        // assert hits instead).
        unbounded(&session, "texas apparel retailer", &config);
        for i in 0..PAGE_CAPACITY + 8 {
            // Distinct normalized queries (numbers tokenize fine).
            unbounded(&session, &format!("texas {i}"), &config);
        }
        let before = session.caches().snippet_stats().hits;
        unbounded(&session, "texas apparel retailer", &config);
        let after = session.caches().snippet_stats();
        assert!(
            after.hits > before,
            "page was evicted, snippets must hit: {after:?}"
        );
    }

    #[test]
    fn cache_disabled_session_still_answers() {
        let corpus = retailer_corpus();
        let session = QuerySession::from_corpus(&corpus, 0);
        let config = ExtractConfig::with_bound(6);
        let a = unbounded(&session, "houston jeans", &config);
        let b = unbounded(&session, "houston jeans", &config);
        assert_eq!(render(&[a]), render(&[b]));
        assert_eq!(session.caches().corpus_page_stats().hits, 0, "capacity 0 never hits");
        assert_eq!(session.caches().snippet_stats().hits, 0);
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
        let session = QuerySession::from_corpus(&corpus, 64);
        let config = ExtractConfig::with_bound(8);
        for q in ["store texas", "houston jeans", "keyword search", "texas", "zzz"] {
            let page = unbounded(&session, q, &config);
            let got: Vec<(DocId, String)> =
                page.iter().map(|a| (a.doc, a.snippet.to_string())).collect();
            assert_eq!(got, merge_standalone(&corpus, q, &config), "query {q}");
        }
    }

    #[test]
    fn corpus_batch_matches_serial_and_hits_cache() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(128));
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let config = ExtractConfig::with_bound(8);
        let qs = ["store texas", "keyword search", "store texas", "houston", "keyword search"];
        let serial: Vec<CorpusPage> = qs.iter().map(|q| unbounded(&session, q, &config)).collect();
        let stats = caches.corpus_page_stats();
        assert!(stats.hits >= 2, "repeats must hit the corpus page cache: {stats:?}");
        // The same queries on four threads over the warm bundle.
        let concurrent = answer_on_threads(&corpus, &caches, 4, &qs, &config);
        for (s, c) in serial.iter().zip(concurrent.iter()) {
            assert_eq!(rows(s), rows(c));
        }
        assert!(caches.corpus_page_stats().hits >= stats.hits + 5, "every page was warm");
    }

    #[test]
    fn topk_windows_tile_the_unbounded_page_exactly() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus(&corpus, 0); // caches off
        let config = ExtractConfig::with_bound(8);
        for q in ["texas", "store texas", "keyword search", "name"] {
            let full = unbounded(&session, q, &config);
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
        let session = QuerySession::from_corpus(&corpus, 4096);
        let config = ExtractConfig::with_bound(8);
        // "texas" matches many results across documents; serve one.
        let page = session.answer_corpus_topk("texas", &config, 1, 0);
        assert!(page.total > 1, "need a broad query for this test: {}", page.total);
        assert_eq!(page.results.len(), 1);
        let stats = session.caches().snippet_stats();
        assert_eq!(
            stats.hits + stats.misses,
            1,
            "exactly one snippet may be touched for k=1: {stats:?}"
        );
    }

    #[test]
    fn topk_past_the_end_and_cache_windows_never_alias() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus(&corpus, 64);
        let config = ExtractConfig::with_bound(8);
        let full = unbounded(&session, "store texas", &config);
        // Past-the-end offset: empty window, exact total.
        let past = session.answer_corpus_topk("store texas", &config, 5, full.len() + 10);
        assert!(past.results.is_empty());
        assert_eq!(past.total, full.len());
        // usize::MAX k with nonzero offset must not overflow.
        let tail = session.answer_corpus_topk("store texas", &config, usize::MAX, 1);
        assert_eq!(tail.results.len(), full.len().saturating_sub(1));
        // Repeating a window hits the cache; a different window misses.
        let before = session.caches().corpus_page_stats().hits;
        let again = session.answer_corpus_topk("store texas", &config, 5, full.len() + 10);
        assert!(again.results.is_empty() && again.total == full.len());
        assert_eq!(session.caches().corpus_page_stats().hits, before + 1, "same window must hit");
        let first = session.answer_corpus_topk("store texas", &config, 1, 0);
        assert_eq!(first.results.len(), full.len().min(1), "k=1 window, not a stale alias");
    }

    /// The bounded window buffer against the unbounded answer, on windows
    /// whose cut lands inside ties: three identical documents give every
    /// score three times, once per document, `2 · (offset + k)` stays below
    /// `total`, and some cut-off falls between equal scores of different
    /// documents.
    #[test]
    fn bounded_windows_equal_slices_of_the_unbounded_answer() {
        let mut builder = CorpusBuilder::new();
        for name in ["twin-a", "twin-b", "twin-c"] {
            let twin = RetailerConfig { retailers: 3, seed: 0xA, ..Default::default() };
            builder.add_parsed(name, twin.generate());
        }
        let corpus = builder.finish();
        let session = QuerySession::from_corpus(&corpus, 0);
        let config = ExtractConfig::with_bound(8);
        for q in ["store texas", "texas"] {
            let full = unbounded(&session, q, &config);
            let total = full.len();
            assert!(total > 2 * (5 + 3), "{q}: only {total} results");
            let tied_across_documents = |end: usize| {
                let pair = full.get(end - 1).zip(full.get(end));
                pair.is_some_and(|(a, b)| a.score == b.score && a.doc != b.doc)
            };
            assert!(
                [1, 2, 4, 8].into_iter().any(tied_across_documents),
                "{q}: no window ends inside a cross-document tie"
            );
            for k in [0, 1, 3] {
                for offset in [0, 1, 5, total - 1, total, usize::MAX] {
                    let page = session.answer_corpus_topk(q, &config, k, offset);
                    assert_eq!(page.total, total, "{q} k={k} offset={offset}");
                    let start = offset.min(total);
                    let want = &full[start..start.saturating_add(k).min(total)];
                    assert_eq!(rows(&page.results), rows(want), "{q} k={k} offset={offset}");
                }
            }
        }
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
            let session = QuerySession::from_corpus(&corpus, 0);
            let config = ExtractConfig::with_bound(8);
            let q = ["store texas", "texas", "name", "paper", "zzz"][query];
            let full = unbounded(&session, q, &config);
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
            proptest::prop_assert_eq!(rows(&page.results), rows(want));
            if q == "store texas" {
                let tied =
                    full.windows(2).any(|w| w[0].score == w[1].score && w[0].doc != w[1].doc);
                proptest::prop_assert!(tied, "the twins must tie across documents");
            }
        }
    }

    /// The three-identical-documents corpus of the window oracles, built
    /// once: every score of a query comes three times, once per document.
    fn twins() -> &'static Corpus {
        static TWINS: OnceLock<Corpus> = OnceLock::new();
        TWINS.get_or_init(|| {
            let mut builder = CorpusBuilder::new();
            for name in ["twin-a", "twin-b", "twin-c"] {
                let twin = RetailerConfig { retailers: 3, seed: 0xA, ..Default::default() };
                builder.add_parsed(name, twin.generate());
            }
            builder.finish()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Windows of several queries asked in any order through one
        /// shared cache bundle — so a later window may be served from
        /// what an earlier one left, a deeper one may outgrow it, and an
        /// empty or past-the-end one needs only its total — each equal
        /// to the same slice of a cache-less session's unbounded answer:
        /// results, order, scores to the bit, snippets and `total`.
        #[test]
        fn windows_through_shared_caches_equal_slices_of_the_unbounded_answer(
            capacity in 0usize..3,
            asks in proptest::collection::vec((0usize..4, 0usize..6, 0usize..64), 1..16),
        ) {
            let corpus = twins();
            let config = ExtractConfig::with_bound(8);
            let queries = ["store texas", "texas", "name", "zzz"];
            let reference = QuerySession::from_corpus(corpus, 0);
            let full: Vec<CorpusPage> =
                queries.iter().map(|q| unbounded(&reference, q, &config)).collect();
            let capacity = [1, 3, 4096][capacity];
            let session = QuerySession::from_corpus(corpus, capacity);
            for (query, k, offset) in asks {
                let full = &full[query];
                let total = full.len();
                let k = [0, 1, 3, 10, 50, usize::MAX][k];
                // Offsets from 0 to a few past the end, and `usize::MAX`.
                let offset = if offset == 63 { usize::MAX } else { offset * (total + 3) / 62 };
                let page = session.answer_corpus_topk(queries[query], &config, k, offset);
                proptest::prop_assert_eq!(page.total, total, "k={} offset={}", k, offset);
                let start = offset.min(total);
                let want = &full[start..start.saturating_add(k).min(total)];
                proptest::prop_assert_eq!(
                    rows(&page.results),
                    rows(want),
                    "{} k={} offset={}", queries[query], k, offset
                );
            }
        }
    }

    /// Three documents with equal scores across them: a ranking kept
    /// `keep` deep is the first `keep` of the (score desc, document, root)
    /// order, with cuts on the way, and serves each `[offset, offset + k)`
    /// slice its prefix holds — at offset 0, at offset `k`, past the end,
    /// and at every offset in between.
    #[test]
    fn window_ties_across_documents_come_out_in_document_and_root_order() {
        let offers: Vec<(DocId, f64, NodeId)> = (0..3)
            .flat_map(|d| {
                [(1, 1.0), (4, 2.0), (7, 1.0)]
                    .map(|(root, score)| (DocId::from_index(d), score, NodeId::from_index(root)))
            })
            .collect();
        let mut reference = offers.clone();
        reference
            .sort_by(|a, b| ranking::by_score_desc(a.1, b.1).then((a.0, a.2).cmp(&(b.0, b.2))));
        let reference: Vec<Hit> =
            reference.iter().map(|&(doc, score, root)| Hit::new(doc, score, root)).collect();
        let ranked = |keep: usize| {
            let mut window = Window::new(keep);
            for &(doc, score, root) in &offers {
                window.offer(doc, score, root);
            }
            let best = window.best().into();
            let ranking = Ranking { total: window.total, best, candidates: Arc::default() };
            assert_eq!(ranking.total, offers.len());
            ranking
        };
        let (d, n) = (DocId::from_index, NodeId::from_index);
        assert_eq!(*ranked(2).best, [Hit::new(d(0), 2.0, n(4)), Hit::new(d(1), 2.0, n(4))]);
        let want = [Hit::new(d(2), 2.0, n(4)), Hit::new(d(0), 1.0, n(1))];
        assert_eq!(ranked(4).window(2, 2), Some(&want[..]));
        assert_eq!(ranked(11).window(9, 2), Some(&[][..]));
        for keep in [0, 1, 2, 3, 4, 9, 11, usize::MAX] {
            let ranking = ranked(keep);
            assert_eq!(*ranking.best, reference[..keep.min(reference.len())], "keep={keep}");
            for k in [0, 1, 2, 3, 4, 9, usize::MAX] {
                for offset in 0..=10 {
                    let start = offset.min(reference.len());
                    let end = start.saturating_add(k).min(reference.len());
                    let held = end <= keep || start == end;
                    let want = held.then(|| &reference[start..end]);
                    let at = format!("keep={keep} k={k} offset={offset}");
                    assert_eq!(ranking.window(offset, k), want, "{at}");
                }
            }
        }
    }

    /// A key's score half orders like `by_score_desc` and gives the score
    /// back to the bit.
    #[test]
    fn window_keys_order_like_scores_and_give_them_back() {
        let scores = [0.0, 1e-300, 0.25, 0.5, 3.0, 1e300, f64::INFINITY];
        for a in scores {
            for b in scores {
                assert_eq!(
                    descending_bits(a).cmp(&descending_bits(b)),
                    ranking::by_score_desc(a, b),
                    "{a} vs {b}"
                );
            }
            let key = u128::from(descending_bits(a)) << 64 | 7;
            assert_eq!(!((key >> 64) as u64), a.to_bits());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "offers out of (document, root) order")]
    fn window_rejects_offers_out_of_order() {
        let mut window = Window::new(10);
        window.offer(DocId::from_index(1), 1.0, NodeId::from_index(3));
        window.offer(DocId::from_index(0), 1.0, NodeId::from_index(5));
    }

    /// A served hit names a routed candidate; one that does not would
    /// serve a short page — what a wrong patch looks like — so a debug
    /// build stops there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ranked slot 1 is not a routed candidate")]
    fn a_hit_outside_the_routes_stops_a_debug_build() {
        let hit = Hit::new(DocId::from_index(1), 1.0, NodeId::from_index(0));
        routed(&hit, &[DocId::from_index(0)]);
    }

    #[test]
    fn routing_skips_unrelated_documents() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus(&corpus, 64);
        let config = ExtractConfig::with_bound(8);
        // "sigmod" only exists in the dblp document: the three retailer
        // documents are never searched.
        let page = unbounded(&session, "paper sigmod", &config);
        assert!(!page.is_empty());
        assert!(page.iter().all(|a| corpus.name(a.doc) == "dblp"));
        let (candidates, fanin) = corpus.candidate_docs_str(&["paper", "sigmod"]);
        assert!(candidates.iter().all(|&doc| corpus.name(doc) == "dblp"));
        assert!(fanin.total() > 0);
    }

    #[test]
    fn empty_query_yields_empty_corpus_page() {
        let corpus = small_corpus();
        let session = QuerySession::from_corpus(&corpus, 0);
        assert!(unbounded(&session, "", &ExtractConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty corpus")]
    fn empty_corpus_session_panics_early() {
        let corpus = CorpusBuilder::new().finish();
        let _ = QuerySession::from_corpus(&corpus, 0);
    }

    // ---- Shared caches / snapshot sessions -------------------------------

    #[test]
    fn snapshot_sessions_share_warm_caches() {
        let corpus = small_corpus();
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        {
            let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
            unbounded(&session, "store texas", &config);
        }
        // A fresh session over the same snapshot: the page comes from the
        // shared cache without touching a single engine.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let misses = session.caches().corpus_page_stats().misses;
        unbounded(&session, "store texas", &config);
        let stats = session.caches().corpus_page_stats();
        assert_eq!(stats.misses, misses, "warm page must hit: {stats:?}");
        assert!(stats.hits > 0);
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
            unbounded(&session, "paper sigmod", &config)
        };
        let built = models();
        // Result caching is disabled, so the second session re-runs search
        // + snippets — on the same engines, byte-identically.
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let again = unbounded(&session, "paper sigmod", &config);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(again.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.snippet.to_string(), b.snippet.to_string());
        }
        assert_eq!(models(), built, "no engine was rebuilt");
    }

    #[test]
    fn snapshot_session_allows_empty_corpus() {
        let corpus = CorpusBuilder::new().finish();
        let caches = Arc::new(SessionCaches::new(16));
        let session = QuerySession::for_snapshot(&corpus, 1, caches);
        assert!(unbounded(&session, "anything", &ExtractConfig::default()).is_empty());
    }

    /// `invalidate_doc` purges a dead generation's snippets; its engine
    /// is the snapshot's and goes with the last snapshot holding it.
    #[test]
    fn invalidate_doc_purges_snippets_and_engines() {
        let live = extract_corpus::LiveCorpus::from_corpus(small_corpus());
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        let snapshot = live.snapshot();
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
        let page = unbounded(&session, "store texas", &config);
        drop(session);
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

    /// A window looks its snippets up under one lock and stores its
    /// misses under another, and still counts one lookup per result: a
    /// fresh window of k misses k times, and re-serving it once its page
    /// is retired hits k times, on the bytes it stored.
    #[test]
    fn a_window_counts_one_snippet_lookup_per_result() {
        let corpus = retailer_corpus();
        let caches = Arc::new(SessionCaches::new(4096));
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let config = ExtractConfig::with_bound(8);
        let (k, offset) = (5, 2);
        let fresh = session.answer_corpus_topk("store texas", &config, k, offset);
        assert!(fresh.total >= k + offset, "the window is full: {}", fresh.total);
        assert_eq!(fresh.results.len(), k);
        let k = k as u64;
        let stats = session.caches().snippet_stats();
        assert_eq!(stats.hits + stats.misses, k, "one lookup per result: {stats:?}");
        assert_eq!(stats.misses, k, "a fresh window misses every snippet: {stats:?}");

        caches.retire_pages_before(1);
        let again = session.answer_corpus_topk("store texas", &config, 5, offset);
        let after = session.caches().snippet_stats();
        assert_eq!(after.hits, stats.hits + k, "every snippet hits: {after:?}");
        assert_eq!(after.misses, stats.misses, "{after:?}");
        for (a, b) in fresh.results.iter().zip(again.results.iter()) {
            let (a, b) = (a.snippet.object(), b.snippet.object());
            assert!(Arc::ptr_eq(a, b), "served from the stored bytes");
        }
    }

    // ---- Rankings across mutations ----------------------------------------

    /// The retailer database of the window oracles as XML: ingested under
    /// several names, its results tie across documents.
    fn twin_xml(seed: u64) -> String {
        RetailerConfig { retailers: 3, seed, ..Default::default() }.generate().to_xml_string()
    }

    /// A live corpus of `names`, each the seed-`0xA` twin.
    fn live_twins(names: &[&str]) -> extract_corpus::LiveCorpus {
        let live = extract_corpus::LiveCorpus::from_corpus(CorpusBuilder::new().finish());
        for name in names {
            live.ingest(name, &twin_xml(0xA)).expect("the twin parses");
        }
        live
    }

    /// `session`'s `[offset, offset + k)` window of "store texas", checked
    /// result for result (scores to the bit, snippet bytes) and total
    /// against a cache-less session over the same snapshot.
    fn checked(session: &QuerySession<'_>, k: usize, offset: usize) -> CorpusTopK {
        let config = ExtractConfig::with_bound(8);
        let page = session.answer_corpus_topk("store texas", &config, k, offset);
        let uncached = Arc::new(SessionCaches::new(0));
        let reference = QuerySession::for_snapshot(session.corpus(), 1, uncached);
        let want = reference.answer_corpus_topk("store texas", &config, k, offset);
        assert_eq!(page.total, want.total, "k={k} offset={offset}");
        assert_eq!(rows(&page.results), rows(&want.results), "k={k} offset={offset}");
        page
    }

    /// The ranking cache's hits, misses and patches.
    fn ranking_counts(caches: &SessionCaches) -> (u64, u64, u64) {
        let stats = caches.ranking_stats();
        (stats.hits, stats.misses, caches.ranking_patches())
    }

    /// A delete of a candidate whose results sat in the prefix: they leave
    /// it, the rest is still the exact prefix of the new ranking and
    /// serves what it holds, and a window it no longer reaches ranks again.
    #[test]
    fn a_deleted_candidate_leaves_an_exact_prefix() {
        let live = live_twins(&["twin-a", "twin-b", "twin-c"]);
        let caches = Arc::new(SessionCaches::new(128));
        let before = live.snapshot();
        let ranked = checked(&QuerySession::for_snapshot(&before, 1, Arc::clone(&caches)), 3, 0);
        let docs: Vec<&str> = ranked.results.iter().map(|a| before.name(a.doc)).collect();
        assert_eq!(docs, ["twin-a", "twin-b", "twin-c"], "the prefix ties across documents");
        assert_eq!(ranking_counts(&caches), (0, 1, 0));

        live.delete("twin-a").expect("a live document");
        let after = live.snapshot();
        let session = QuerySession::for_snapshot(&after, 1, Arc::clone(&caches));
        let page = checked(&session, 2, 0);
        assert_eq!(page.total, ranked.total / 3 * 2, "the total lost twin-a's results");
        assert_eq!(ranking_counts(&caches), (1, 1, 1), "served from the patched prefix");
        checked(&session, 1, 1);
        assert_eq!(ranking_counts(&caches), (2, 1, 1), "the patched ranking was stored");
        checked(&session, 3, 0);
        assert_eq!(ranking_counts(&caches), (2, 2, 1), "two deep: the third ranks again");
    }

    /// A delete, then an ingest into the freed slot: the slot's old
    /// generation leaves the ranking before its new one is merged in, so no
    /// window mixes the two — whole rankings and partial ones alike.
    #[test]
    fn a_reused_slot_leaves_before_it_is_merged_in() {
        for (ranked_k, asked) in [(usize::MAX, (5, 2)), (4, (2, 1))] {
            let live = live_twins(&["twin-a", "twin-b", "twin-c"]);
            let caches = Arc::new(SessionCaches::new(128));
            let before = live.snapshot();
            checked(&QuerySession::for_snapshot(&before, 1, Arc::clone(&caches)), ranked_k, 0);

            live.delete("twin-a").expect("a live document");
            let reborn = live.ingest("reborn", &twin_xml(0xB)).expect("the twin parses");
            assert_eq!(reborn.id.index(), 0, "the freed slot is reused");
            let after = live.snapshot();
            let session = QuerySession::for_snapshot(&after, 1, Arc::clone(&caches));
            checked(&session, asked.0, asked.1);
            assert_eq!(ranking_counts(&caches), (1, 1, 1), "ranked {ranked_k} deep: a patch");
            for (k, offset) in [(usize::MAX, 0), (3, 4), (1, 0)] {
                checked(&session, k, offset);
            }
        }
    }

    /// An added document whose results rank below a partial prefix's last
    /// entry: between the two, results the prefix never held may rank — here
    /// the other twin's — so none of the new ones are kept; the prefix serves
    /// what it holds, and a deeper window ranks again.
    #[test]
    fn an_added_document_below_a_partial_prefix_is_left_out() {
        let live = live_twins(&["twin-a", "twin-b"]);
        let caches = Arc::new(SessionCaches::new(128));
        let before = live.snapshot();
        let ranked = checked(&QuerySession::for_snapshot(&before, 1, Arc::clone(&caches)), 1, 0);

        live.ingest("twin-c", &twin_xml(0xA)).expect("the twin parses");
        let after = live.snapshot();
        let session = QuerySession::for_snapshot(&after, 1, Arc::clone(&caches));
        let page = checked(&session, 1, 0);
        assert_eq!(page.total, ranked.total / 2 * 3, "the total gained twin-c's results");
        assert_eq!(ranking_counts(&caches), (1, 1, 1), "served from the patched prefix");
        let deeper = checked(&session, 2, 0);
        let docs: Vec<&str> = deeper.results.iter().map(|a| after.name(a.doc)).collect();
        assert_eq!(docs, ["twin-a", "twin-b"], "twin-b ranks between the prefix and twin-c");
        assert_eq!(ranking_counts(&caches), (1, 2, 1), "the prefix was one deep: ranked again");
    }

    /// A ranking stored by a session on a newer snapshot serves a session
    /// still pinned to an older one that snapshot's own results: the diff
    /// runs in either direction.
    #[test]
    fn a_newer_ranking_serves_an_older_snapshot_its_own_results() {
        let live = live_twins(&["twin-a", "twin-b", "twin-c"]);
        let caches = Arc::new(SessionCaches::new(128));
        let older = live.snapshot();
        live.delete("twin-b").expect("a live document");
        live.ingest("reborn", &twin_xml(0xB)).expect("the twin parses");
        let newer = live.snapshot();
        let new_session = QuerySession::for_snapshot(&newer, 1, Arc::clone(&caches));
        let old_session = QuerySession::for_snapshot(&older, 1, Arc::clone(&caches));
        checked(&new_session, usize::MAX, 0);
        let old = checked(&old_session, 4, 1);
        assert!(old.results.iter().any(|a| older.name(a.doc) == "twin-b"), "the old world's twin");
        assert_eq!(ranking_counts(&caches), (1, 1, 1), "patched back to the older candidates");
        checked(&new_session, 3, 2);
        assert_eq!(ranking_counts(&caches), (2, 1, 2), "and forward again");
    }

    /// Every hit of the stored ranking carries the score its own document
    /// gives its root ([`ranking::score_root`], to the bit), and the hits
    /// are a cache-less session's best, in order: after a search, a
    /// delete's patch, an ingest's patch and an ingest into the freed slot
    /// — from a whole ranking and from a partial one.
    #[test]
    fn every_stored_hit_carries_its_own_score() {
        let query = KeywordQuery::parse("store texas");
        let config = ExtractConfig::with_bound(8);
        for ranked_k in [usize::MAX, 4] {
            let live = live_twins(&["twin-a", "twin-b", "twin-c"]);
            let caches = Arc::new(SessionCaches::new(128));
            let stored_scores_hold = |(k, offset): (usize, usize), patches: u64| {
                let snapshot = live.snapshot();
                let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
                checked(&session, k, offset);
                assert_eq!(caches.ranking_patches(), patches, "ranked {ranked_k} deep");
                let text = QueryText::from(&query);
                let stored = lock_unpoisoned(&caches.rankings).get(&text).expect("stored");
                let mut routes = Routes::default();
                snapshot.route(query.keywords(), &mut routes);
                let mut lists = Vec::new();
                for hit in stored.best.iter() {
                    let doc = routed(hit, routes.docs()).expect("a routed candidate");
                    session.lists_of(doc, routes.ids_of(doc).unwrap_or_default(), &mut lists);
                    let score = ranking::score_root(snapshot.doc(doc), &lists, hit.root);
                    let at = format!("ranked {ranked_k} deep, {} {}", snapshot.name(doc), hit.root);
                    assert_eq!(hit.score().to_bits(), score.to_bits(), "{at}");
                }
                let uncached = Arc::new(SessionCaches::new(0));
                let uncached = QuerySession::for_snapshot(&snapshot, 1, uncached);
                let deep = stored.best.len();
                let want = uncached.answer_corpus_topk("store texas", &config, deep, 0).results;
                let want: Vec<Hit> =
                    want.iter().map(|a| Hit::new(a.doc, a.score, a.root)).collect();
                assert_eq!(*stored.best, want, "ranked {ranked_k} deep");
            };
            stored_scores_hold((ranked_k, 0), 0);
            live.delete("twin-b").expect("a live document");
            stored_scores_hold((2, 0), 1);
            live.ingest("twin-d", &twin_xml(0xC)).expect("the twin parses");
            stored_scores_hold((1, 0), 2);
            live.delete("twin-a").expect("a live document");
            let reborn = live.ingest("reborn", &twin_xml(0xB)).expect("the twin parses");
            assert_eq!(reborn.id.index(), 0, "the freed slot is reused");
            stored_scores_hold((1, 0), 3);
        }
    }

    /// `n` entities, each one result of "store texas" (and of "zz"), the
    /// `i`-th with `i % 7` empty siblings: its score is one of seven, so a
    /// ranking interleaves documents tier by tier.
    fn entities_xml(n: usize) -> String {
        let entity = |i| format!("<s><n>zz</n><m>store texas</m>{}</s>", "<x/>".repeat(i % 7));
        format!("<r>{}</r>", (0..n).map(entity).collect::<String>())
    }

    /// A whole ranking patched past [`MAX_RANKED`] by an ingest is stored as
    /// its first [`MAX_RANKED`] results: the page misses inside them patch
    /// once in all, and every later one is a plain ranking hit.
    #[test]
    fn a_ranking_patched_past_the_cap_is_patched_once() {
        let live = extract_corpus::LiveCorpus::from_corpus(CorpusBuilder::new().finish());
        live.ingest("many-a", &entities_xml(520)).expect("the entities parse");
        let caches = Arc::new(SessionCaches::new(128));
        let before = live.snapshot();
        let ranker = QuerySession::for_snapshot(&before, 1, Arc::clone(&caches));
        assert_eq!(checked(&ranker, usize::MAX, 0).total, 520);

        live.ingest("many-b", &entities_xml(520)).expect("the entities parse");
        let after = live.snapshot();
        let session = QuerySession::for_snapshot(&after, 1, Arc::clone(&caches));
        let windows = [(10, 0), (10, 10), (1, 1023), (24, 1000), (100, 500), (3, 7), (7, 3)];
        for (k, offset) in windows {
            assert_eq!(checked(&session, k, offset).total, 1040);
        }
        let misses = windows.len() as u64;
        assert_eq!(ranking_counts(&caches), (misses, 1, 1), "one patch, then plain hits");
    }

    /// A patch that adds more results than it keeps is still an exact
    /// prefix, `keep` deep: the results its window dropped rank below the
    /// `keep`-th, and so do the held ones it cut. Every caller keeps at
    /// least [`MAX_RANKED`], so only a direct call reaches the cut.
    #[test]
    fn a_patch_cut_at_keep_is_an_exact_prefix() {
        let live = live_twins(&["twin-a"]);
        let caches = Arc::new(SessionCaches::new(128));
        let before = live.snapshot();
        checked(&QuerySession::for_snapshot(&before, 1, Arc::clone(&caches)), usize::MAX, 0);
        let query = KeywordQuery::parse("store texas");
        let held = lock_unpoisoned(&caches.rankings).get(&QueryText::from(&query));
        let held = held.expect("the whole ranking was stored");

        live.ingest("twin-b", &twin_xml(0xA)).expect("the twin parses");
        let after = live.snapshot();
        let session = QuerySession::for_snapshot(&after, 1, Arc::new(SessionCaches::new(0)));
        let whole = unbounded(&session, "store texas", &ExtractConfig::with_bound(8));
        let want: Vec<Hit> = whole.iter().map(|a| Hit::new(a.doc, a.score, a.root)).collect();
        let mut routes = Routes::default();
        after.route(query.keywords(), &mut routes);
        for keep in [0, 1, 2, 5, held.total, want.len() - 1, want.len(), usize::MAX] {
            let ranked = session.rank(&held, &routes, &mut Vec::new(), keep);
            assert_eq!(ranked.total, want.len(), "keep={keep}");
            assert_eq!(*ranked.best, want[..keep.min(want.len())], "keep={keep}");
        }
    }

    /// A window starting past the end of its query's results needs only the
    /// total: it ranks a bounded prefix — so the thread's ranking buffer
    /// never grows past [`KEPT_REUSED`] and is handed back — serves an empty
    /// window with the exact total, and stores the first [`MAX_RANKED`]
    /// results as a cache-less session ranks them.
    #[test]
    fn a_window_past_the_end_ranks_a_bounded_prefix() {
        let live = extract_corpus::LiveCorpus::from_corpus(CorpusBuilder::new().finish());
        for name in ["many-a", "many-b", "many-c"] {
            live.ingest(name, &entities_xml(1000)).expect("the entities parse");
        }
        let snapshot = live.snapshot();
        let caches = Arc::new(SessionCaches::new(128));
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
        drop(KEPT.take());
        let page = checked(&session, 10, 1_000_000);
        assert_eq!((page.total, page.results.len()), (3000, 0), "the total, and no result");
        let kept = KEPT.take().capacity();
        assert!(kept > 0 && kept <= KEPT_REUSED, "a buffer of {kept} was not handed back");
        checked(&session, 10, MAX_RANKED - 10);
        assert_eq!(ranking_counts(&caches), (1, 1, 0), "a window it holds is a ranking hit");

        let query = QueryText::from(&KeywordQuery::parse("store texas"));
        let stored = lock_unpoisoned(&caches.rankings).get(&query).expect("a stored ranking");
        assert_eq!(stored.total, 3000);
        let uncached = QuerySession::for_snapshot(&snapshot, 1, Arc::new(SessionCaches::new(0)));
        let config = ExtractConfig::with_bound(8);
        let first = uncached.answer_corpus_topk("store texas", &config, MAX_RANKED, 0).results;
        let want: Vec<Hit> = first.iter().map(|a| Hit::new(a.doc, a.score, a.root)).collect();
        assert_eq!(*stored.best, want, "the stored prefix is a cache-less ranking's");
    }

    /// A window starting past the end of its query's results, on a
    /// snapshot that added a document to its cached ranking, needs only the
    /// total: the patch keeps a bounded prefix — so the thread's ranking
    /// buffer is handed back though the new document holds more results
    /// than [`KEPT_REUSED`] — serves an empty window with the exact total,
    /// counts as a patch, and stores the first [`MAX_RANKED`] results as a
    /// cache-less session ranks them.
    #[test]
    fn a_window_past_the_end_patches_a_bounded_prefix() {
        let live = extract_corpus::LiveCorpus::from_corpus(CorpusBuilder::new().finish());
        for name in ["many-a", "many-b"] {
            live.ingest(name, &entities_xml(600)).expect("the entities parse");
        }
        let caches = Arc::new(SessionCaches::new(128));
        let before = live.snapshot();
        checked(&QuerySession::for_snapshot(&before, 1, Arc::clone(&caches)), MAX_RANKED, 0);
        live.ingest("many-c", &entities_xml(KEPT_REUSED + 500)).expect("the entities parse");
        let snapshot = live.snapshot();
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
        drop(KEPT.take());
        let config = ExtractConfig::with_bound(8);
        let page = session.answer_corpus_topk("store texas", &config, 10, 1_000_000);
        let kept = KEPT.take().capacity();
        assert!(kept > 0 && kept <= KEPT_REUSED, "a buffer of {kept} was not handed back");
        let total = 1200 + KEPT_REUSED + 500;
        assert_eq!((page.total, page.results.len()), (total, 0), "the total, and no result");
        assert_eq!(ranking_counts(&caches), (1, 1, 1), "served by a patch");

        let query = QueryText::from(&KeywordQuery::parse("store texas"));
        let stored = lock_unpoisoned(&caches.rankings).get(&query).expect("a stored ranking");
        assert_eq!((stored.total, stored.best.len()), (total, MAX_RANKED));
        let uncached = QuerySession::for_snapshot(&snapshot, 1, Arc::new(SessionCaches::new(0)));
        let first = uncached.answer_corpus_topk("store texas", &config, MAX_RANKED, 0).results;
        let want: Vec<Hit> = first.iter().map(|a| Hit::new(a.doc, a.score, a.root)).collect();
        assert_eq!(*stored.best, want, "the stored prefix is a cache-less ranking's");
    }

    /// Windows at and past [`MAX_RANKED`] through one shared bundle — before
    /// and after an ingest, and after a delete — each equal a cache-less
    /// twin's: a ranking deeper than the cap is stored as an exact prefix,
    /// and a window past that prefix ranks again.
    #[test]
    fn windows_across_the_cap_equal_a_cacheless_twin() {
        let live = extract_corpus::LiveCorpus::from_corpus(CorpusBuilder::new().finish());
        for name in ["many-a", "many-b"] {
            live.ingest(name, &entities_xml(700)).expect("the entities parse");
        }
        let caches = Arc::new(SessionCaches::new(128));
        let windows = [(10, 0), (10, 1000), (10, 1020), (10, 1030), (10, 2040), (usize::MAX, 0)];
        let round = |live: &extract_corpus::LiveCorpus, total: usize| {
            let snapshot = live.snapshot();
            let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(&caches));
            for (k, offset) in windows {
                assert_eq!(checked(&session, k, offset).total, total, "k={k} offset={offset}");
            }
        };
        round(&live, 1400);
        live.ingest("many-c", &entities_xml(700)).expect("the entities parse");
        round(&live, 2100);
        live.delete("many-a").expect("a live document");
        round(&live, 1400);
    }

    /// A full snippet cache under a scan of results asked once each keeps
    /// the results it holds: its door turns every one-time result away
    /// (served all the same, byte for byte), so a window of the first
    /// results it stored still hits — plain LRU would have evicted them to
    /// the scan. A result asked a second time is stored.
    #[test]
    fn a_full_snippet_cache_keeps_its_hot_results_through_a_scan() {
        const CAPACITY: usize = 4096;
        const SCAN: usize = 20;
        let mut builder = CorpusBuilder::new();
        builder.add_document("many", &entities_xml(CAPACITY + SCAN)).expect("the entities parse");
        let corpus = builder.finish();
        let caches = Arc::new(SessionCaches::new(CAPACITY));
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        let filled = checked(&session, CAPACITY, 0);
        assert_eq!(filled.results.len(), CAPACITY, "the snippet cache is full");
        for offset in CAPACITY..CAPACITY + SCAN {
            checked(&session, 1, offset);
        }
        let scanned = caches.snippet_stats();
        assert_eq!(scanned.misses, (CAPACITY + SCAN) as u64, "{scanned:?}");
        assert_eq!((scanned.rejections, scanned.evictions), (SCAN as u64, 0), "{scanned:?}");

        caches.retire_pages_before(1);
        checked(&session, 10, 0);
        let hot = caches.snippet_stats();
        assert_eq!(hot.hits, scanned.hits + 10, "the first results stored still hit: {hot:?}");

        let last = CAPACITY + SCAN - 1;
        checked(&session, 1, last);
        let second = caches.snippet_stats();
        assert_eq!(second.misses, hot.misses + 1, "{second:?}");
        assert_eq!((second.rejections, second.evictions), (SCAN as u64, 1), "admitted: {second:?}");
        caches.retire_pages_before(1);
        checked(&session, 1, last);
        assert_eq!(caches.snippet_stats().hits, second.hits + 1, "and served from the cache");
    }

    #[test]
    fn retire_pages_before_drops_old_epoch_windows() {
        let corpus = small_corpus(); // epoch 0
        let caches = Arc::new(SessionCaches::new(128));
        let config = ExtractConfig::with_bound(8);
        let session = QuerySession::for_snapshot(&corpus, 1, Arc::clone(&caches));
        unbounded(&session, "store texas", &config);
        caches.retire_pages_before(1); // corpus moved to epoch 1
        let misses = session.caches().corpus_page_stats().misses;
        unbounded(&session, "store texas", &config);
        assert_eq!(
            session.caches().corpus_page_stats().misses,
            misses + 1,
            "retired page must miss"
        );
    }
}
