//! The LRU cache against a reference model: random get / insert / retain /
//! clear sequences at small capacities, replayed on a `VecDeque` that keeps
//! entries in recency order (front = least recently used). Every value the
//! cache returns or hands back, its counters, its length and the multiset
//! of what it holds must equal the model's after every step — over
//! plain keys, and over keys that mostly share a hash.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

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
