//! A keyed snippet cache for hot queries.
//!
//! Search-result pages re-issue the same queries constantly; the IList +
//! instance-selection work per result is deterministic given the document,
//! so recomputing it per call is pure waste (the ROADMAP's "snippet cache"
//! item). [`SnippetCache`] memoizes fully-generated [`SnippetedResult`]s
//! keyed by **normalized query string + document id + result root +
//! snippet config** — anything that can change the output. The document id
//! is `DocId` 0 for single-document sessions; corpus sessions key entries
//! by the result's real [`extract_index::DocId`] so one shared cache can
//! serve every document of a corpus. Document *content* is still not part
//! of the key — but the [`DocId`] generation is, so in a live corpus a
//! re-ingested document occupies a fresh key and stale entries for the old
//! generation can never be served (they are also purged eagerly via
//! [`LruCache::retain`] when a document is mutated).
//!
//! Eviction is least-recently-used with a configurable capacity, built on
//! the generic [`LruCache`] (which the serving layer also reuses for whole
//! result pages). The cache is a plain mutable structure; concurrent
//! callers (e.g. a query session's worker pool) wrap it in a `Mutex`,
//! holding the lock only for `get`/`insert` — never during snippet
//! computation, and never while a value is freed: [`LruCache::insert`]
//! and [`LruCache::retain`] hand the entries they remove back to the
//! caller, who drops them after the guard.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use extract_index::DocId;
use extract_search::KeywordQuery;
use extract_xml::NodeId;

use crate::pipeline::{ExtractConfig, SelectorKind, SnippetedResult};

/// The normalized text of a query ([`KeywordQuery`] display form:
/// lowercased tokens, deduplicated, original order), shared: a request
/// normalizes its query once and every key it builds — the page key, one
/// snippet key per served result, and the copies the caches file in their
/// recency indexes — holds the same allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryText(Arc<str>);

impl From<&KeywordQuery> for QueryText {
    fn from(query: &KeywordQuery) -> QueryText {
        QueryText(query.to_string().into())
    }
}

impl From<&QueryText> for QueryText {
    fn from(text: &QueryText) -> QueryText {
        text.clone()
    }
}

/// The lookup key: everything that determines a snippet's bytes.
///
/// Keyword **order** is part of the key on purpose: the IList is
/// initialized with the query keywords in query order (paper §2), so under
/// a tight size bound `"a b"` and `"b a"` can legitimately produce
/// different snippets — normalizing order away would alias distinct
/// outputs. Duplicates and case variants *are* normalized (by
/// [`KeywordQuery`] itself), so `"Store texas"`, `"store, TEXAS"` and
/// `"store texas store"` all share one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Normalized query.
    query: QueryText,
    /// The document the result root lives in (`DocId` 0 for single-document
    /// sessions, so single-doc and corpus paths over the same document
    /// share entries).
    doc: DocId,
    /// The result root the snippet was generated for.
    root: NodeId,
    /// Snippet size bound.
    size_bound: usize,
    /// Dominant-feature cap.
    max_dominant_features: Option<usize>,
    /// Selector algorithm.
    selector: SelectorKind,
}

impl CacheKey {
    /// Build the key for one (query, result root, config) triple in a
    /// single-document setting (document id 0).
    pub fn new(query: impl Into<QueryText>, root: NodeId, config: &ExtractConfig) -> CacheKey {
        CacheKey::for_doc(query, DocId::from_index(0), root, config)
    }

    /// Build the key for one (query, document, result root, config)
    /// quadruple — the corpus query path, where the same [`NodeId`] exists
    /// in every document. `query` is a [`KeywordQuery`] (normalized here)
    /// or a [`QueryText`] normalized earlier in the request (shared).
    pub fn for_doc(
        query: impl Into<QueryText>,
        doc: DocId,
        root: NodeId,
        config: &ExtractConfig,
    ) -> CacheKey {
        CacheKey {
            query: query.into(),
            doc,
            root,
            size_bound: config.size_bound,
            max_dominant_features: config.max_dominant_features,
            selector: config.selector,
        }
    }

    /// The document this entry's snippet was generated from — what a live
    /// corpus matches on when it invalidates one mutated document.
    pub fn doc(&self) -> DocId {
        self.doc
    }
}

/// Page-cache key: everything that determines a whole result *page* —
/// the normalized query, the config fields that shape snippets, and the
/// **page bounds**. `k`/`offset` are part of the key because a top-k
/// answer only materializes snippets for the served window: the page for
/// `(k=10, offset=0)` and the page for `(k=10, offset=10)` are different
/// values and must never alias ([`PageKey::bounded`]). An unpaginated
/// answer is the canonical `(k=usize::MAX, offset=0)` window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Normalized query.
    query: QueryText,
    /// Snippet size bound.
    size_bound: usize,
    /// Dominant-feature cap.
    max_dominant_features: Option<usize>,
    /// Selector algorithm.
    selector: SelectorKind,
    /// Rank cutoff: at most `k` results are materialized.
    k: usize,
    /// Rank of the first materialized result.
    offset: usize,
    /// Corpus epoch the page was computed against (`0` for a corpus
    /// built once). A page aggregates candidates from *every* document, so
    /// per-document invalidation cannot save it — any mutation changes
    /// the candidate set and the epoch in the key retires the whole page
    /// generation at once.
    epoch: u64,
}

impl PageKey {
    /// The key of the `[offset, offset + k)` window of the ranked result
    /// list for `(query, config)`.
    pub fn bounded(
        query: impl Into<QueryText>,
        config: &ExtractConfig,
        k: usize,
        offset: usize,
    ) -> PageKey {
        PageKey {
            query: query.into(),
            size_bound: config.size_bound,
            max_dominant_features: config.max_dominant_features,
            selector: config.selector,
            k,
            offset,
            epoch: 0,
        }
    }

    /// The same window pinned to corpus epoch `epoch` (epoch `0` is
    /// exactly [`PageKey::bounded`]).
    pub fn at_epoch(mut self, epoch: u64) -> PageKey {
        self.epoch = epoch;
        self
    }

    /// The corpus epoch this page belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Authoritative recency (bumped on every hit).
    last_used: u64,
    /// The tick this entry is filed under in the recency index (only
    /// maintained at insert/requeue time — hits stay `O(1)`).
    recency_tick: u64,
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default retention capacity of `Default`-constructed caches.
pub const DEFAULT_CAPACITY: usize = 256;

/// A generic LRU cache with `O(1)` hits and amortized `O(log n)` inserts.
///
/// `capacity` bounds the number of retained entries; inserting into a full
/// cache evicts the least-recently-used one. Recency lives in a `BTreeMap`
/// keyed by a strictly increasing tick; hits only bump the entry's
/// `last_used` field, and stale recency positions are repaired lazily
/// during eviction (each repair re-files one entry, so eviction stays
/// amortized logarithmic). A capacity of `0` disables retention entirely
/// (every `get` misses).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    /// `recency_tick` → key; the first *accurate* entry is the LRU victim.
    recency: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for LruCache<K, V> {
    fn default() -> Self {
        LruCache::new(DEFAULT_CAPACITY)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache retaining at most `capacity` values.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            recency: BTreeMap::new(),
            capacity,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look up a value, refreshing its recency. Returns a clone — the
    /// cache stays the owner so eviction never invalidates callers. (Wrap
    /// big values in `Arc` to make the clone `O(1)`.)
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used one
    /// when full. The value this displaces — the key's previous value, or
    /// the evicted entry's — is handed back rather than dropped here: a
    /// caller holding a lock around the cache frees it after the guard
    /// (with caching disabled that is `value` itself).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.capacity == 0 {
            return Some(value);
        }
        self.tick += 1;
        let entry = Entry { value, last_used: self.tick, recency_tick: self.tick };
        let displaced = match self.map.insert(key.clone(), entry) {
            Some(old) => {
                self.recency.remove(&old.recency_tick);
                Some(old.value)
            }
            None if self.map.len() > self.capacity => self.evict_lru(),
            None => None,
        };
        self.recency.insert(self.tick, key);
        displaced
    }

    /// Pop recency positions until one matches its entry's true
    /// `last_used`; entries touched since their last filing are re-filed
    /// at their current recency instead of being evicted.
    fn evict_lru(&mut self) -> Option<V> {
        while let Some((tick, key)) = self.recency.pop_first() {
            let Some(entry) = self.map.get_mut(&key) else { continue };
            if entry.last_used == tick {
                self.stats.evictions += 1;
                return self.map.remove(&key).map(|entry| entry.value);
            }
            let fresh = entry.last_used;
            entry.recency_tick = fresh;
            self.recency.insert(fresh, key);
        }
        None
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction counters since construction (or the last
    /// [`LruCache::clear`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Remove every entry whose key fails `keep`, preserving recency of
    /// the survivors — the targeted-invalidation primitive for live corpora
    /// (e.g. "drop all snippets of the document that was just deleted").
    /// Removals are invalidations, not capacity pressure, so they do not
    /// count as evictions. Like [`LruCache::insert`], this hands the
    /// removed values back instead of dropping them: live serving calls it
    /// with a cache mutex held, per mutation, and frees a thousand snippet
    /// trees only after the guard.
    ///
    /// Every entry is filed in the recency index under exactly its
    /// `recency_tick`, so a removed entry takes its own position with it:
    /// `O(removed · log n)`, and no survivor's key is ever rehashed.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> Vec<V> {
        let recency = &mut self.recency;
        self.map
            .extract_if(|k, _| !keep(k))
            .map(|(_, entry)| {
                recency.remove(&entry.recency_tick);
                entry.value
            })
            .collect()
    }

    /// The retained values, in no particular order (recency untouched,
    /// nothing counted as a lookup) — for gauges over what the cache
    /// holds.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|entry| &entry.value)
    }

    /// Drop all entries and reset the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

/// An LRU cache of generated snippets: the per-result memo of the hot
/// query path (see the module docs for key semantics).
pub type SnippetCache = LruCache<CacheKey, SnippetedResult>;

#[cfg(test)]
mod tests {
    use super::*;
    use extract_search::QueryResult;
    use extract_xml::Document;

    fn snippet_for(doc: &Document, extract: &crate::Extract<'_>, q: &str) -> SnippetedResult {
        let query = KeywordQuery::parse(q);
        let root = doc.root();
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        extract.snippet(&query, &result, &ExtractConfig::default())
    }

    fn setup() -> Document {
        Document::parse_str(
            "<stores><store><name>Levis</name><state>Texas</state></store>\
             <store><name>Gap</name><state>Ohio</state></store></stores>",
        )
        .unwrap()
    }

    #[test]
    fn get_after_insert_hits() {
        let doc = setup();
        let extract = crate::Extract::new(&doc);
        let mut cache = SnippetCache::new(4);
        let query = KeywordQuery::parse("texas");
        let key = CacheKey::new(&query, doc.root(), &ExtractConfig::default());
        assert!(cache.get(&key).is_none());
        let value = snippet_for(&doc, &extract, "texas");
        cache.insert(key.clone(), value.clone());
        let hit = cache.get(&key).expect("cached");
        assert_eq!(hit.snippet.to_xml(), value.snippet.to_xml());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn key_normalizes_query_text() {
        let config = ExtractConfig::default();
        let doc = setup();
        let a = CacheKey::new(&KeywordQuery::parse("Store TEXAS"), doc.root(), &config);
        let b = CacheKey::new(&KeywordQuery::parse("store,texas"), doc.root(), &config);
        assert_eq!(a, b);
        // Different config → different key.
        let c = CacheKey::new(
            &KeywordQuery::parse("store texas"),
            doc.root(),
            &ExtractConfig::with_bound(3),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn key_normalizes_duplicates_case_and_separators() {
        // Every constructor path and textual variant of the same keyword
        // bag (in the same order) must share one cache entry.
        let config = ExtractConfig::default();
        let doc = setup();
        let root = doc.root();
        let canonical = CacheKey::new(&KeywordQuery::parse("store texas"), root, &config);
        for variant in [
            "store texas store",      // duplicate keyword
            "STORE Texas",            // case-folded
            "store;texas",            // separator variants
            "  store ,, texas  ",     // whitespace noise
            "store-texas",            // punctuation splits into two tokens
        ] {
            let key = CacheKey::new(&KeywordQuery::parse(variant), root, &config);
            assert_eq!(key, canonical, "variant {variant:?}");
        }
        // `from_keywords` must agree with `parse` even when callers pass
        // unnormalized multi-token strings (regression: it used to skip
        // tokenization, aliasing ["a b"] with the two-keyword query "a b").
        let from_kw =
            CacheKey::new(&KeywordQuery::from_keywords(["Store texas"]), root, &config);
        assert_eq!(from_kw, canonical);
    }

    #[test]
    fn key_keeps_keyword_order_distinct() {
        // Keyword order feeds the IList (paper §2) and can change the
        // snippet under a tight bound, so order must stay in the key.
        let config = ExtractConfig::default();
        let doc = setup();
        let a = CacheKey::new(&KeywordQuery::parse("store texas"), doc.root(), &config);
        let b = CacheKey::new(&KeywordQuery::parse("texas store"), doc.root(), &config);
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_configs_and_docs_never_collide() {
        let doc = setup();
        let root = doc.root();
        let q = KeywordQuery::parse("store texas");
        let base = ExtractConfig::default();
        let keys = [
            CacheKey::new(&q, root, &base),
            CacheKey::new(&q, root, &ExtractConfig { size_bound: 19, ..base.clone() }),
            CacheKey::new(
                &q,
                root,
                &ExtractConfig { max_dominant_features: Some(3), ..base.clone() },
            ),
            CacheKey::new(
                &q,
                root,
                &ExtractConfig { selector: SelectorKind::Exact, ..base.clone() },
            ),
            CacheKey::for_doc(&q, extract_index::DocId::from_index(1), root, &base),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        // And DocId 0 is exactly the single-document key.
        assert_eq!(
            CacheKey::for_doc(&q, extract_index::DocId::from_index(0), root, &base),
            CacheKey::new(&q, root, &base)
        );
    }

    #[test]
    fn page_keys_separate_windows_and_normalize_queries() {
        let config = ExtractConfig::default();
        let q = KeywordQuery::parse("store texas");
        let full = PageKey::bounded(&q, &config, usize::MAX, 0);
        // Distinct windows never alias: same query+config, different page.
        let keys = [
            full.clone(),
            PageKey::bounded(&q, &config, 10, 0),
            PageKey::bounded(&q, &config, 10, 10),
            PageKey::bounded(&q, &config, 20, 0),
            PageKey::bounded(&q, &ExtractConfig::with_bound(3), 10, 0),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "page keys {i} and {j} collide");
            }
        }
        // Query normalization flows through like CacheKey's.
        assert_eq!(
            PageKey::bounded(&KeywordQuery::parse("Store,TEXAS store"), &config, 10, 0),
            PageKey::bounded(&q, &config, 10, 0)
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(1), "refresh a; b is now LRU");
        cache.insert("c", 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"b"), None, "b was evicted");
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn heavily_touched_entries_survive_many_evictions() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        cache.insert(0, 0);
        for i in 1..100u32 {
            cache.insert(i, i);
            // Key 0 is touched after every insert, so it must never be the
            // LRU victim even though its recency filing goes stale.
            assert_eq!(cache.get(&0), Some(0), "round {i}");
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 96);
    }

    #[test]
    fn reinserting_a_key_updates_value_without_growing() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let mut cache: LruCache<&str, u32> = LruCache::new(0);
        cache.insert("a", 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&"a"), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cache: LruCache<&str, u32> = LruCache::default();
        assert_eq!(cache.capacity(), DEFAULT_CAPACITY);
        cache.insert("a", 1);
        cache.get(&"a");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_ratio(), 0.0);
        // Usable after clear.
        cache.insert("b", 2);
        assert_eq!(cache.get(&"b"), Some(2));
        assert!(cache.stats().hit_ratio() > 0.99);
    }

    #[test]
    fn retain_drops_matching_keys_only() {
        let mut cache: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..6u32 {
            cache.insert(i, i * 10);
        }
        cache.retain(|k| k % 2 == 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), None);
        assert_eq!(cache.stats().evictions, 0, "invalidations are not evictions");
        // Recency index stays consistent: filling past capacity after a
        // retain still evicts cleanly.
        for i in 10..20u32 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn retain_keeps_the_eviction_order_of_survivors() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4u32 {
            cache.insert(i, i);
        }
        // A hit leaves key 0 filed under its insert tick: the true LRU
        // order is now 1, 2, 3, 0, with one stale recency position.
        assert_eq!(cache.get(&0), Some(0));
        cache.retain(|k| *k != 2);
        assert_eq!(cache.recency.len(), 3, "the removed entry took its position with it");
        assert_eq!(cache.values().copied().sum::<u32>(), 4, "survivors 0, 1, 3");
        // Survivors are evicted in their pre-retain order: 1, 3, then 0.
        cache.insert(10, 10); // fills the freed seat, evicts nothing
        for (newcomer, victim) in [(11, 1), (12, 3), (13, 0)] {
            assert!(cache.map.contains_key(&victim), "{victim} outlives {newcomer}'s arrival");
            cache.insert(newcomer, newcomer);
            assert!(!cache.map.contains_key(&victim), "{victim} is the LRU for {newcomer}");
            assert_eq!(cache.len(), 4);
        }
        assert_eq!(cache.stats().evictions, 3, "the retain itself evicted nothing");
    }

    #[test]
    fn insert_and_retain_hand_back_what_they_remove() {
        let mut cache: LruCache<u32, &str> = LruCache::new(2);
        assert_eq!(cache.insert(1, "one"), None);
        assert_eq!(cache.insert(1, "uno"), Some("one"), "the key's previous value");
        assert_eq!(cache.insert(2, "two"), None);
        assert_eq!(cache.insert(3, "three"), Some("uno"), "the evicted LRU entry");
        let mut removed = cache.retain(|k| *k != 2);
        removed.sort_unstable();
        assert_eq!(removed, ["two"]);
        assert!(cache.retain(|_| true).is_empty());
        let mut off: LruCache<u32, &str> = LruCache::new(0);
        assert_eq!(off.insert(1, "one"), Some("one"), "nothing is retained, nothing is lost");
    }

    #[test]
    fn keys_of_one_request_share_the_normalized_query() {
        let config = ExtractConfig::default();
        let query = KeywordQuery::parse("Store, TEXAS");
        let text = QueryText::from(&query);
        let page = PageKey::bounded(&text, &config, 10, 0);
        let snippet = CacheKey::for_doc(&text, DocId::from_index(3), setup().root(), &config);
        assert!(Arc::ptr_eq(&page.query.0, &text.0) && Arc::ptr_eq(&snippet.query.0, &text.0));
        // Equality and hashing are the text's, not the allocation's.
        assert_eq!(page, PageKey::bounded(&query, &config, 10, 0));
        let again = CacheKey::for_doc(&query, DocId::from_index(3), setup().root(), &config);
        assert_eq!(snippet, again);
        assert_eq!(&*text.0, "store texas");
    }

    #[test]
    fn epoch_partitions_page_keys() {
        let config = ExtractConfig::default();
        let q = KeywordQuery::parse("store texas");
        let old = PageKey::bounded(&q, &config, 10, 0);
        let new = PageKey::bounded(&q, &config, 10, 0).at_epoch(3);
        assert_ne!(old, new, "different corpus epochs never alias");
        assert_eq!(old.epoch(), 0);
        assert_eq!(new.epoch(), 3);
        assert_eq!(old, old.clone().at_epoch(0), "epoch 0 is the static key");
    }

    #[test]
    fn generations_partition_cache_keys() {
        let config = ExtractConfig::default();
        let doc = setup();
        let q = KeywordQuery::parse("store texas");
        let slot0 = extract_index::DocId::from_parts(4, 0);
        let slot1 = extract_index::DocId::from_parts(4, 1);
        let a = CacheKey::for_doc(&q, slot0, doc.root(), &config);
        let b = CacheKey::for_doc(&q, slot1, doc.root(), &config);
        assert_ne!(a, b, "slot reuse must not alias cache entries");
        assert_eq!(a.doc(), slot0);
    }
}
