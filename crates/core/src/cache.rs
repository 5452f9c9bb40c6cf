//! The LRU cache and the keys behind the serving layer's two caches.
//!
//! Search-result pages re-issue the same queries constantly; the IList +
//! instance-selection work per result is deterministic given the document,
//! so recomputing it per call is pure waste. The serving layer's session
//! caches (`SessionCaches` in the umbrella crate) keep each served
//! snippet's bytes under a [`CacheKey`] — **normalized query string +
//! document id + result root + snippet config**, anything that can change
//! the output — and each served window under a [`PageKey`]. Document
//! *content* is not part of a snippet key, but the [`DocId`] generation
//! is, so in a live corpus a re-ingested document occupies a fresh key and
//! stale entries for the old generation can never be served (they are
//! also purged eagerly via [`LruCache::retain`] when a document is
//! mutated).
//!
//! Eviction is least-recently-used with a configurable capacity, built on
//! the generic [`LruCache`] (which the serving layer also reuses for whole
//! result pages and query rankings). It indexes each key by one keyed
//! 64-bit hash, taken once an operation: the slot that holds an entry
//! holds the only copy of its key and that hash, keys whose hashes share
//! their low bits are chained, and a chain is read by stored hash first,
//! then by full key. The cache is a plain mutable structure; concurrent
//! callers (e.g. a query session's worker pool) wrap it in a `Mutex`,
//! holding the lock only for lookups and inserts — the serving layer
//! takes it once to look up a page's snippets and once to store the ones
//! it had to compute — never during snippet computation, and never while
//! a value is freed: [`LruCache::insert`] and [`LruCache::retain`] hand
//! the entries they remove back to the caller, who drops them after the
//! guard.
//!
//! The snippet cache also has a door ([`LruCache::admitting`]): once it is
//! full, a result it does not hold is stored only on its second sight, so
//! a stream of results that never recur within the cache's reach leaves
//! the results that do recur where they are.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use extract_index::DocId;
use extract_search::KeywordQuery;
use extract_xml::NodeId;

use crate::pipeline::{ExtractConfig, SelectorKind};

/// The normalized text of a query ([`KeywordQuery`] display form:
/// lowercased tokens, deduplicated, original order), shared and hashed
/// once: a request normalizes its query once, and every key it builds —
/// the page key and one snippet key per served result, which the caches
/// keep as they are given — holds the same allocation and the same hash.
///
/// The hash is the text's under one process-wide keyed [`RandomState`],
/// and a key hashes it as a `u64`, so a cache (itself keyed) never
/// rehashes the text. The query is client-supplied: keying both hashes is
/// what keeps a client from choosing texts that collide.
#[derive(Debug, Clone)]
pub struct QueryText(Arc<str>, u64);

/// The keyed hasher every [`QueryText`] of this process is hashed with.
static QUERY_HASHER: OnceLock<RandomState> = OnceLock::new();

impl QueryText {
    fn new(text: Arc<str>) -> QueryText {
        let hash = QUERY_HASHER.get_or_init(RandomState::new).hash_one(&*text);
        QueryText(text, hash)
    }
}

impl PartialEq for QueryText {
    fn eq(&self, other: &QueryText) -> bool {
        self.1 == other.1 && (Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0)
    }
}

impl Eq for QueryText {}

impl Hash for QueryText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.1);
    }
}

impl From<&KeywordQuery> for QueryText {
    fn from(query: &KeywordQuery) -> QueryText {
        QueryText::new(query.to_string().into())
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
    /// The document the result root lives in, generation included.
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
    /// Build the key for one (query, document, result root, config)
    /// quadruple — the document is part of it because the same [`NodeId`]
    /// exists in every document of a corpus. `query` is a [`KeywordQuery`]
    /// (normalized here) or a [`QueryText`] normalized earlier in the
    /// request (shared).
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

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts a full admitting cache turned away at its door: the key's
    /// first sight within the door's last two generations.
    pub rejections: u64,
}


/// Default retention capacity of `Default`-constructed caches.
const DEFAULT_CAPACITY: usize = 256;

/// A generic LRU cache: a get, an insert and an eviction each hash the key
/// once and cost a chain walk and a few link updates, `O(1)` expected.
///
/// `capacity` bounds the number of retained entries; inserting into a full
/// cache evicts the least-recently-used one. Entries live in a slab — a
/// `Vec` of slots — threaded on an intrusive doubly linked recency list of
/// `u32` slot indices, most recent at the head. A slot holds the only copy
/// of its key, beside the key's 64-bit hash under the cache's own keyed
/// [`RandomState`]. The index is a power-of-two table of chain heads, no
/// shorter than the slab: a key's chain is the one its hash's low bits
/// name, its slots linked through `next`, and a lookup compares a slot's
/// full key only when their hashes are equal. A slot leaves its chain by
/// its stored hash, so an eviction or a removal hashes nothing. A hit
/// relinks its slot at the head; an insert into a full cache reuses the
/// tail's slot for the newcomer. A capacity of `0` disables retention
/// entirely (every `get` misses).
///
/// An admitting cache ([`LruCache::admitting`]) puts a door before the
/// eviction: when the cache is full, a key it does not hold takes the
/// tail's slot only if its hash was offered within the door's last two
/// generations. Otherwise the door records the hash and `insert` hands the
/// value back, counted as a rejection. A cache that is not full admits
/// everything.
#[derive(Debug)]
pub struct LruCache<K, V, S = RandomState> {
    /// The keyed hasher of this cache's keys.
    hasher: S,
    /// The first slot of each chain, [`NIL`] for an empty one; empty, or a
    /// power of two at least the slab's length.
    chains: Vec<u32>,
    /// The entries; every slot is on the recency list and on its chain.
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot, [`NIL`] when empty.
    head: u32,
    /// Least recently used slot — the next victim — [`NIL`] when empty.
    tail: u32,
    capacity: usize,
    stats: CacheStats,
    /// The admission door of an admitting cache.
    door: Option<Door>,
}

/// The end of the recency list and of a chain.
const NIL: u32 = u32::MAX;

/// One cached entry, its hash and its links.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    /// The key's hash under the cache's hasher.
    hash: u64,
    value: V,
    /// The next more recently used slot.
    newer: u32,
    /// The next less recently used slot.
    older: u32,
    /// The next slot of its chain.
    next: u32,
}

/// The `u32` link of slot `index`.
///
/// # Panics
/// On a slab of 2³² − 1 entries, whose index would be [`NIL`].
fn link(index: usize) -> u32 {
    match u32::try_from(index) {
        Ok(link) if link != NIL => link,
        _ => panic!("LRU cache slab exceeds {NIL} entries"),
    }
}

impl<K: Eq + Hash, V: Clone> Default for LruCache<K, V> {
    fn default() -> Self {
        LruCache::new(DEFAULT_CAPACITY)
    }
}

impl<K: Eq + Hash, V: Clone> LruCache<K, V> {
    /// A cache retaining at most `capacity` values.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Eq + Hash, V: Clone, S: BuildHasher + Default> LruCache<K, V, S> {
    /// A cache retaining at most `capacity` values that, once full, admits
    /// a key it does not hold on its second sight: TinyLFU's doorkeeper,
    /// two bitsets of 16 bits an entry (16 KB at 4 096 entries).
    pub fn admitting(capacity: usize) -> LruCache<K, V, S> {
        let mut cache = LruCache::with_hasher(capacity, S::default());
        cache.door = (capacity > 0).then(|| Door::new(capacity));
        cache
    }
}

impl<K: Eq + Hash, V: Clone, S: BuildHasher> LruCache<K, V, S> {
    fn with_hasher(capacity: usize, hasher: S) -> LruCache<K, V, S> {
        LruCache {
            hasher,
            chains: match capacity.min(1024) {
                0 => Vec::new(),
                chains => vec![NIL; chains.next_power_of_two()],
            },
            slots: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
            door: None,
        }
    }

    /// Look up a value, refreshing its recency. Returns a clone — the
    /// cache stays the owner so eviction never invalidates callers. (Wrap
    /// big values in `Arc` to make the clone `O(1)`.)
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.find(key, self.hasher.hash_one(key)) {
            Some(at) => {
                self.stats.hits += 1;
                self.touch(at);
                Some(self.slots[at as usize].value.clone())
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
    /// (with caching disabled, or turned away at an admitting cache's
    /// door, that is `value` itself).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.capacity == 0 {
            return Some(value);
        }
        let hash = self.hasher.hash_one(&key);
        if let Some(at) = self.find(&key, hash) {
            let old = std::mem::replace(&mut self.slots[at as usize].value, value);
            self.touch(at);
            return Some(old);
        }
        let full = self.slots.len() >= self.capacity;
        if full && self.door.as_mut().is_some_and(|door| !door.admits(hash)) {
            self.stats.rejections += 1;
            return Some(value);
        }
        let slot = Slot { key, hash, value, newer: NIL, older: NIL, next: NIL };
        if !full {
            let at = link(self.slots.len());
            self.slots.push(slot);
            if self.chains.len() < self.slots.len() {
                self.grow_chains();
            } else {
                self.chain_in(at);
            }
            self.push_head(at);
            return None;
        }
        // Full: the newcomer takes the least recently used entry's slot.
        let at = self.tail;
        self.chain_out(at);
        self.unlink(at);
        let evicted = std::mem::replace(&mut self.slots[at as usize], slot);
        self.chain_in(at);
        self.push_head(at);
        self.stats.evictions += 1;
        Some(evicted.value)
    }

    /// The chain a hash names (the table is not empty).
    fn chain(&self, hash: u64) -> usize {
        // The low bits pick the chain: the table is a power of two no
        // longer than the address space, so the mask keeps it in range.
        (hash & (self.chains.len() as u64 - 1)) as usize
    }

    /// The slot holding `key`, whose hash is `hash`.
    fn find(&self, key: &K, hash: u64) -> Option<u32> {
        if self.chains.is_empty() {
            return None;
        }
        let mut at = self.chains[self.chain(hash)];
        while at != NIL {
            let slot = &self.slots[at as usize];
            if slot.hash == hash && slot.key == *key {
                return Some(at);
            }
            at = slot.next;
        }
        None
    }

    /// Put slot `at` at the front of the chain its stored hash names.
    fn chain_in(&mut self, at: u32) {
        let chain = self.chain(self.slots[at as usize].hash);
        self.slots[at as usize].next = std::mem::replace(&mut self.chains[chain], at);
    }

    /// Take slot `at` off the chain its stored hash names.
    fn chain_out(&mut self, at: u32) {
        let next = self.slots[at as usize].next;
        self.repoint(at, next);
    }

    /// Make whatever links to slot `from` in its chain — the chain's head
    /// or the slot before it — link to `to` instead.
    fn repoint(&mut self, from: u32, to: u32) {
        let chain = self.chain(self.slots[from as usize].hash);
        let mut before = self.chains[chain];
        if before == from {
            self.chains[chain] = to;
            return;
        }
        while self.slots[before as usize].next != from {
            before = self.slots[before as usize].next;
        }
        self.slots[before as usize].next = to;
    }

    /// Grow the chain table to the slab's length, rounded up to a power of
    /// two, and rechain every slot by its stored hash.
    fn grow_chains(&mut self) {
        self.chains.clear();
        self.chains.resize(self.slots.len().next_power_of_two(), NIL);
        for at in 0..self.slots.len() {
            self.chain_in(link(at));
        }
    }

    /// Make slot `at` the most recently used.
    fn touch(&mut self, at: u32) {
        if self.head != at {
            self.unlink(at);
            self.push_head(at);
        }
    }

    /// Link `older` right behind `newer` on the recency list. [`NIL`]
    /// stands for the list's ends: `newer == NIL` makes `older` the head,
    /// `older == NIL` makes `newer` the tail.
    fn join(&mut self, newer: u32, older: u32) {
        match newer {
            NIL => self.head = older,
            newer => self.slots[newer as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            older => self.slots[older as usize].newer = newer,
        }
    }

    /// Take slot `at` off the recency list.
    fn unlink(&mut self, at: u32) {
        let Slot { newer, older, .. } = self.slots[at as usize];
        self.join(newer, older);
    }

    /// Put the unlinked slot `at` at the head of the recency list.
    fn push_head(&mut self, at: u32) {
        let old_head = self.head;
        self.join(NIL, at);
        self.join(at, old_head);
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction/rejection counters since construction (or the
    /// last [`LruCache::clear`]).
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
    /// A removed slot is refilled by the slab's last one, which is
    /// relinked on the recency list and in its chain — a chain walk per
    /// removal and per move and no key hashed, so `O(n)` for the scan and
    /// `O(1)` expected a removal.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> Vec<V> {
        let mut removed = Vec::new();
        let mut at = 0;
        while at < self.slots.len() {
            if keep(&self.slots[at].key) {
                at += 1;
                continue;
            }
            let gone = link(at);
            self.unlink(gone);
            self.chain_out(gone);
            let last = link(self.slots.len() - 1);
            if last != gone {
                self.repoint(last, gone);
            }
            let slot = self.slots.swap_remove(at);
            removed.push(slot.value);
            if at < self.slots.len() {
                self.relocate(gone);
            }
        }
        removed
    }

    /// Re-point the recency neighbours of the slot that moved to index
    /// `to` (its chain already links it there).
    fn relocate(&mut self, to: u32) {
        let Slot { newer, older, .. } = self.slots[to as usize];
        self.join(newer, to);
        self.join(to, older);
    }

    /// The retained values, in no particular order (recency untouched,
    /// nothing counted as a lookup) — for gauges over what the cache
    /// holds.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|slot| &slot.value)
    }

    /// Drop all entries, empty the door and reset the counters.
    pub fn clear(&mut self) {
        self.chains.fill(NIL);
        self.slots.clear();
        (self.head, self.tail) = (NIL, NIL);
        self.stats = CacheStats::default();
        if let Some(door) = &mut self.door {
            door.clear();
        }
    }

    /// The keys from least to most recently used: the recency list walked
    /// from its tail.
    #[cfg(test)]
    fn lru_order(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut order = Vec::new();
        let mut at = self.tail;
        while at != NIL {
            order.push(self.slots[at as usize].key.clone());
            at = self.slots[at as usize].newer;
        }
        order
    }
}

/// Bits a door gives each cache entry, in each of its two bitsets: at
/// 8 a false sighting admits a one-time key often enough to erode what
/// the cache holds.
const DOOR_BITS_PER_ENTRY: usize = 16;

/// TinyLFU's doorkeeper (Einziger, Friedman and Manes, "TinyLFU: A Highly
/// Efficient Cache Admission Policy", ACM TOS 2017): the hashes a full
/// cache turned away, over two generations. A generation ends after
/// `capacity` first sightings; then the older bitset is emptied and
/// records the next. A hash sets two bits of a bitset, read from bits
/// 32–47 and 48–63 of the hash (the chains index by its low bits), so a
/// hash is "seen" while both of its bits are set in either bitset — the
/// rare false sighting admits a key on its first offer.
#[derive(Debug)]
struct Door {
    /// The generation being recorded.
    fresh: Vec<u64>,
    /// The generation before it.
    old: Vec<u64>,
    /// The index mask of a bit: each bitset holds a power of two of them.
    mask: u64,
    /// First sightings recorded in `fresh`.
    recorded: usize,
    /// First sightings that end a generation: the cache's capacity.
    generation: usize,
}

impl Door {
    /// A door for a cache of `capacity` entries: two bitsets of
    /// [`DOOR_BITS_PER_ENTRY`] bits an entry, rounded up to a power of two
    /// of at least 64 (16 KB both at 4 096 entries).
    fn new(capacity: usize) -> Door {
        let bits = capacity.saturating_mul(DOOR_BITS_PER_ENTRY).next_power_of_two().max(64);
        Door {
            fresh: vec![0; bits / 64],
            old: vec![0; bits / 64],
            mask: bits as u64 - 1,
            recorded: 0,
            generation: capacity,
        }
    }

    /// The two bits of `hash`: each its word and its mask in the word.
    fn probes(&self, hash: u64) -> [(usize, u64); 2] {
        [hash.rotate_right(32), hash.rotate_right(48)].map(|bits| {
            let bit = bits & self.mask;
            ((bit / 64) as usize, 1 << (bit % 64))
        })
    }

    /// Whether `hash` was offered within the last two generations. If it
    /// was not, this offer is recorded as its first sighting.
    fn admits(&mut self, hash: u64) -> bool {
        let probes = self.probes(hash);
        let seen = |bits: &[u64]| probes.iter().all(|&(word, bit)| bits[word] & bit != 0);
        if seen(&self.fresh) || seen(&self.old) {
            return true;
        }
        for (word, bit) in probes {
            self.fresh[word] |= bit;
        }
        self.recorded += 1;
        if self.recorded >= self.generation {
            std::mem::swap(&mut self.fresh, &mut self.old);
            self.fresh.fill(0);
            self.recorded = 0;
        }
        false
    }

    /// Forget every sighting.
    fn clear(&mut self) {
        self.fresh.fill(0);
        self.old.fill(0);
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_search::QueryResult;
    use extract_xml::Document;

    fn snippet_for(doc: &Document, extract: &crate::Extract<'_>, q: &str) -> Arc<str> {
        let query = KeywordQuery::parse(q);
        let root = doc.root();
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        extract.snippet(&query, &result, &ExtractConfig::default()).snippet.to_xml().into()
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
        let mut cache: LruCache<CacheKey, Arc<str>> = LruCache::new(4);
        let query = KeywordQuery::parse("texas");
        let key = CacheKey::for_doc(&query, DocId::from_index(0), doc.root(), &Default::default());
        assert!(cache.get(&key).is_none());
        let value = snippet_for(&doc, &extract, "texas");
        cache.insert(key.clone(), Arc::clone(&value));
        let hit = cache.get(&key).expect("cached");
        assert!(Arc::ptr_eq(&hit, &value), "a hit shares the stored bytes");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn key_normalizes_query_text() {
        let config = ExtractConfig::default();
        let (doc, id) = (setup(), DocId::from_index(2));
        let a = CacheKey::for_doc(&KeywordQuery::parse("Store TEXAS"), id, doc.root(), &config);
        let b = CacheKey::for_doc(&KeywordQuery::parse("store,texas"), id, doc.root(), &config);
        assert_eq!(a, b);
        // Different config → different key.
        let c = CacheKey::for_doc(
            &KeywordQuery::parse("store texas"),
            id,
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
        let (root, id) = (setup().root(), DocId::from_index(2));
        let canonical = CacheKey::for_doc(&KeywordQuery::parse("store texas"), id, root, &config);
        for variant in [
            "store texas store",      // duplicate keyword
            "STORE Texas",            // case-folded
            "store;texas",            // separator variants
            "  store ,, texas  ",     // whitespace noise
            "store-texas",            // punctuation splits into two tokens
        ] {
            let key = CacheKey::for_doc(&KeywordQuery::parse(variant), id, root, &config);
            assert_eq!(key, canonical, "variant {variant:?}");
        }
        // `from_keywords` must agree with `parse` even when callers pass
        // unnormalized multi-token strings (regression: it used to skip
        // tokenization, aliasing ["a b"] with the two-keyword query "a b").
        let from_kw =
            CacheKey::for_doc(&KeywordQuery::from_keywords(["Store texas"]), id, root, &config);
        assert_eq!(from_kw, canonical);
    }

    #[test]
    fn key_keeps_keyword_order_distinct() {
        // Keyword order feeds the IList (paper §2) and can change the
        // snippet under a tight bound, so order must stay in the key.
        let config = ExtractConfig::default();
        let (root, id) = (setup().root(), DocId::from_index(2));
        let a = CacheKey::for_doc(&KeywordQuery::parse("store texas"), id, root, &config);
        let b = CacheKey::for_doc(&KeywordQuery::parse("texas store"), id, root, &config);
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_configs_and_docs_never_collide() {
        let (root, id) = (setup().root(), DocId::from_index(0));
        let q = KeywordQuery::parse("store texas");
        let base = ExtractConfig::default();
        let keys = [
            CacheKey::for_doc(&q, id, root, &base),
            CacheKey::for_doc(&q, id, root, &ExtractConfig { size_bound: 19, ..base.clone() }),
            CacheKey::for_doc(
                &q,
                id,
                root,
                &ExtractConfig { max_dominant_features: Some(3), ..base.clone() },
            ),
            CacheKey::for_doc(
                &q,
                id,
                root,
                &ExtractConfig { selector: SelectorKind::Exact, ..base.clone() },
            ),
            CacheKey::for_doc(&q, DocId::from_index(1), root, &base),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        // And the same inputs build the same key.
        assert_eq!(CacheKey::for_doc(&q, DocId::from_index(0), root, &base), keys[0]);
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
            // LRU victim.
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
        // Usable after clear.
        cache.insert("b", 2);
        assert_eq!(cache.get(&"b"), Some(2));
        assert_eq!(cache.stats(), CacheStats { hits: 1, ..CacheStats::default() });
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
        // A hit moves key 0 to the head: the LRU order is now 1, 2, 3, 0.
        assert_eq!(cache.get(&0), Some(0));
        cache.retain(|k| *k != 2);
        assert_eq!(cache.lru_order(), [1, 3, 0], "the removed entry took its position with it");
        assert_eq!(cache.values().copied().sum::<u32>(), 4, "survivors 0, 1, 3");
        // Survivors are evicted in their pre-retain order: 1, 3, then 0.
        cache.insert(10, 10); // fills the freed seat, evicts nothing
        for (newcomer, victim) in [(11, 1), (12, 3), (13, 0)] {
            assert!(cache.lru_order().contains(&victim), "{victim} outlives {newcomer}'s arrival");
            cache.insert(newcomer, newcomer);
            assert!(!cache.lru_order().contains(&victim), "{victim} is the LRU for {newcomer}");
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

    /// A hasher that spreads a small integer key `x` to `x | x << 32 | x <<
    /// 48`: both of its door bits are bit `x`, so keys below 64 never make
    /// a false sighting and a door test is exact.
    #[derive(Debug, Default)]
    struct Spread(u64);

    impl Hasher for Spread {
        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes.iter().rev() {
                self.0 = self.0 << 8 | u64::from(byte);
            }
        }

        fn finish(&self) -> u64 {
            self.0 | self.0 << 32 | self.0 << 48
        }
    }

    impl BuildHasher for Spread {
        type Hasher = Spread;

        fn build_hasher(&self) -> Spread {
            Spread::default()
        }
    }

    #[test]
    fn a_full_admitting_cache_stores_a_key_on_its_second_sight() {
        let mut cache: LruCache<u32, &str, Spread> = LruCache::admitting(2);
        assert_eq!(cache.insert(1, "one"), None, "a cache that is not full admits");
        assert_eq!(cache.insert(2, "two"), None);
        assert_eq!(cache.insert(3, "three"), Some("three"), "a first sight is turned away");
        assert_eq!(cache.lru_order(), [1, 2], "and displaces nothing");
        assert_eq!(cache.insert(3, "three"), Some("one"), "a second sight evicts the LRU");
        assert_eq!(cache.lru_order(), [2, 3]);
        assert_eq!(cache.insert(3, "tres"), Some("three"), "a held key is refreshed");
        let stats = cache.stats();
        assert_eq!((stats.rejections, stats.evictions), (1, 1), "{stats:?}");
        cache.retain(|k| *k != 2);
        assert_eq!(cache.insert(4, "four"), None, "a retain leaves room, and room admits");
    }

    #[test]
    fn a_door_forgets_what_it_saw_two_generations_ago() {
        // A generation is two first sightings at capacity 2: 10 and 11 make
        // one, 12 and 13 the next, so at 14 the door holds 12 to 14.
        let mut cache: LruCache<u32, u32, Spread> = LruCache::admitting(2);
        cache.insert(0, 0);
        cache.insert(1, 1);
        for key in 10..15 {
            assert_eq!(cache.insert(key, key), Some(key), "{key}: a first sight");
        }
        assert_eq!(cache.insert(10, 10), Some(10), "10 was seen three generations ago");
        assert_eq!(cache.insert(14, 14), Some(0), "14 was seen within the last two");
        assert_eq!(cache.stats().rejections, 6);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.insert(0, 0);
        cache.insert(1, 1);
        assert_eq!(cache.insert(10, 10), Some(10), "a cleared door has seen nothing");
    }

    #[test]
    fn a_door_takes_sixteen_bits_an_entry_in_each_generation() {
        let door = Door::new(4096);
        assert_eq!((door.fresh.len(), door.old.len()), (1024, 1024), "8 KB each");
        assert_eq!(Door::new(1).fresh.len(), 1, "at least one word");
        let off: LruCache<u32, u32, Spread> = LruCache::admitting(0);
        assert!(off.door.is_none(), "nothing is stored, nothing needs a door");
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
    fn query_texts_are_equal_and_hash_alike_exactly_when_their_texts_are() {
        let hasher = RandomState::new();
        let a = QueryText::from(&KeywordQuery::parse("Store, TEXAS"));
        let b = QueryText::from(&KeywordQuery::parse("store texas"));
        assert!(!Arc::ptr_eq(&a.0, &b.0), "normalized twice, two allocations");
        assert_eq!(a, b);
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let c = QueryText::from(&KeywordQuery::parse("texas store"));
        assert_ne!(a, c);
        assert_ne!(a.1, c.1, "the process-wide hash tells the texts apart");
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
        let slot0 = DocId::from_parts(4, 0);
        let slot1 = DocId::from_parts(4, 1);
        let a = CacheKey::for_doc(&q, slot0, doc.root(), &config);
        let b = CacheKey::for_doc(&q, slot1, doc.root(), &config);
        assert_ne!(a, b, "slot reuse must not alias cache entries");
        assert_eq!(a.doc(), slot0);
    }
}
