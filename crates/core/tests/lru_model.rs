//! The LRU cache against a reference model: random get / insert / retain /
//! clear sequences at small capacities, replayed on a `VecDeque` that keeps
//! entries in recency order (front = least recently used). Every value the
//! cache returns or hands back, its counters, its length and the multiset
//! of what it holds must equal the model's after every step — over
//! plain keys, and over keys that mostly share a hash. An admitting cache
//! is held to the same model behind a door that remembers, exactly, the
//! hashes it turned away in its last two generations.

use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};

use extract_core::cache::LruCache;
use extract_core::CacheStats;
use proptest::prelude::*;

/// Keys are drawn from a small range so hits, refreshes and evictions all
/// happen often.
const KEYS: u8 = 12;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u32),
    /// Keep the keys whose bit is set in the mask.
    Retain(u16),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..20, 0u8..KEYS, 0u32..1_000, 0u16..u16::MAX).prop_map(|(kind, key, value, mask)| {
        match kind {
            0..=7 => Op::Get(key),
            8..=16 => Op::Insert(key, value),
            17 | 18 => Op::Retain(mask),
            _ => Op::Clear,
        }
    })
}

fn kept(mask: u16, key: u8) -> bool {
    mask & (1 << key) != 0
}

/// The reference: a queue in recency order, least recent first.
struct Model {
    capacity: usize,
    entries: VecDeque<(u8, u32)>,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model { capacity, entries: VecDeque::new(), stats: CacheStats::default() }
    }

    fn position(&self, key: u8) -> Option<usize> {
        self.entries.iter().position(|&(k, _)| k == key)
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        match self.position(key) {
            Some(at) => {
                let entry = self.entries.remove(at)?;
                self.entries.push_back(entry);
                self.stats.hits += 1;
                Some(entry.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<u32> {
        if self.capacity == 0 {
            return Some(value);
        }
        if let Some(at) = self.position(key) {
            let (_, old) = self.entries.remove(at)?;
            self.entries.push_back((key, value));
            return Some(old);
        }
        self.entries.push_back((key, value));
        if self.entries.len() > self.capacity {
            self.stats.evictions += 1;
            return self.entries.pop_front().map(|(_, evicted)| evicted);
        }
        None
    }

    fn retain(&mut self, mask: u16) -> Vec<u32> {
        let (keep, removed): (VecDeque<_>, VecDeque<_>) =
            self.entries.drain(..).partition(|&(k, _)| kept(mask, k));
        self.entries = keep;
        removed.into_iter().map(|(_, v)| v).collect()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.stats = CacheStats::default();
    }

    fn values(&self) -> Vec<u32> {
        sorted(self.entries.iter().map(|&(_, v)| v).collect())
    }
}

fn sorted(mut values: Vec<u32>) -> Vec<u32> {
    values.sort_unstable();
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any sequence of operations leaves the cache indistinguishable from
    /// the reference: same answers, same hand-backs, same counters, same
    /// contents.
    #[test]
    fn lru_cache_equals_the_reference_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let mut cache: LruCache<u8, u32> = LruCache::new(capacity);
        let mut model = Model::new(capacity);
        prop_assert_eq!(cache.capacity(), capacity);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Get(key) => prop_assert_eq!(cache.get(&key), model.get(key), "step {}", step),
                Op::Insert(key, value) => {
                    prop_assert_eq!(cache.insert(key, value), model.insert(key, value), "step {}", step);
                }
                Op::Retain(mask) => {
                    let removed = cache.retain(|&k| kept(mask, k));
                    prop_assert_eq!(sorted(removed), sorted(model.retain(mask)), "step {}", step);
                }
                Op::Clear => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "stats after step {}", step);
            prop_assert_eq!(cache.len(), model.entries.len(), "len after step {}", step);
            prop_assert_eq!(cache.is_empty(), model.entries.is_empty());
            prop_assert_eq!(sorted(cache.values().copied().collect()), model.values());
        }
    }
}

/// A key whose hash says only its parity: the twelve keys fall into two
/// hash classes, so lookups, refreshes, evictions, `retain` and `clear`
/// all meet keys that share a hash and differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Colliding(u8);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.0 % 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reference model again, over keys that collide: every answer,
    /// hand-back, counter and content equal the model's after every step.
    #[test]
    fn lru_cache_over_colliding_keys_equals_the_reference_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let mut cache: LruCache<Colliding, u32> = LruCache::new(capacity);
        let mut model = Model::new(capacity);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Get(key) => {
                    prop_assert_eq!(cache.get(&Colliding(key)), model.get(key), "step {}", step);
                }
                Op::Insert(key, value) => {
                    let handed = cache.insert(Colliding(key), value);
                    prop_assert_eq!(handed, model.insert(key, value), "step {}", step);
                }
                Op::Retain(mask) => {
                    let removed = cache.retain(|k| kept(mask, k.0));
                    prop_assert_eq!(sorted(removed), sorted(model.retain(mask)), "step {}", step);
                }
                Op::Clear => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "stats after step {}", step);
            prop_assert_eq!(cache.len(), model.entries.len(), "len after step {}", step);
            prop_assert_eq!(sorted(cache.values().copied().collect()), model.values());
        }
    }
}

/// A hasher that spreads the small integer `x` a key writes to `x | x <<
/// 32 | x << 48`: both of its door bits are bit `x`, so no two of the keys
/// here make a false sighting, and the door is the exact set the model
/// keeps.
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

/// The reference model behind a door: when the model is full, a key it
/// does not hold is stored only if its hash class was turned away within
/// the last two generations — each `capacity` first sightings long.
/// Otherwise the class is recorded and the value handed back, a rejection.
struct AdmittingModel {
    lru: Model,
    /// The hash class of a key: keys of one class share a hash.
    class: fn(u8) -> u8,
    /// The classes turned away in this generation, then in the last one.
    fresh: Vec<u8>,
    old: Vec<u8>,
}

impl AdmittingModel {
    fn new(capacity: usize, class: fn(u8) -> u8) -> AdmittingModel {
        AdmittingModel { lru: Model::new(capacity), class, fresh: Vec::new(), old: Vec::new() }
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<u32> {
        let capacity = self.lru.capacity;
        let full = capacity > 0 && self.lru.entries.len() == capacity;
        let class = (self.class)(key);
        let seen = self.fresh.contains(&class) || self.old.contains(&class);
        if full && self.lru.position(key).is_none() && !seen {
            self.fresh.push(class);
            if self.fresh.len() == capacity {
                self.old = std::mem::take(&mut self.fresh);
            }
            self.lru.stats.rejections += 1;
            return Some(value);
        }
        self.lru.insert(key, value)
    }

    fn clear(&mut self) {
        self.lru.clear();
        self.fresh.clear();
        self.old.clear();
    }
}

/// Replay `ops` on an admitting cache of `capacity` over the keys `key`
/// builds and on the model, comparing after every step.
fn admitting_cache_equals_the_model<K: Eq + Hash>(
    capacity: usize,
    ops: &[Op],
    key: fn(u8) -> K,
    class: fn(u8) -> u8,
    raw: fn(&K) -> u8,
) -> Result<(), TestCaseError> {
    let mut cache: LruCache<K, u32, Spread> = LruCache::admitting(capacity);
    let mut model = AdmittingModel::new(capacity, class);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Get(k) => prop_assert_eq!(cache.get(&key(k)), model.lru.get(k), "step {}", step),
            Op::Insert(k, value) => {
                let handed = cache.insert(key(k), value);
                prop_assert_eq!(handed, model.insert(k, value), "step {}", step);
            }
            Op::Retain(mask) => {
                let removed = cache.retain(|k| kept(mask, raw(k)));
                prop_assert_eq!(sorted(removed), sorted(model.lru.retain(mask)), "step {}", step);
            }
            Op::Clear => {
                cache.clear();
                model.clear();
            }
        }
        prop_assert_eq!(cache.stats(), model.lru.stats, "stats after step {}", step);
        prop_assert_eq!(cache.len(), model.lru.entries.len(), "len after step {}", step);
        prop_assert_eq!(sorted(cache.values().copied().collect()), model.lru.values());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// An admitting cache over plain keys equals the model behind its
    /// door: every answer, hand-back, counter (rejections included) and
    /// content, after every step.
    #[test]
    fn admitting_cache_equals_the_admitting_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        admitting_cache_equals_the_model(capacity, &ops, |k| k, |k| k, |k| *k)?;
    }

    /// The same over keys that collide: two keys of one hash class share
    /// their door bits, so the sight of one admits the other.
    #[test]
    fn admitting_cache_over_colliding_keys_equals_the_admitting_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        admitting_cache_equals_the_model(capacity, &ops, Colliding, |k| k % 2, |k| k.0)?;
    }
}
