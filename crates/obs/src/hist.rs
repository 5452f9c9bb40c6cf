//! Lock-free log₂-bucketed latency histograms.
//!
//! A [`Histogram`] is 64 atomic counters, one per power-of-two bucket:
//! bucket 0 holds the values `0` and `1`, bucket `i ≥ 1` holds
//! `[2^i, 2^(i+1))`. Recording is two relaxed `fetch_add`s — no lock, no
//! allocation, safe from any number of threads — which is what lets the
//! serving tier time every request stage without perturbing the latency
//! it is measuring.
//!
//! Reading goes through [`Histogram::snapshot`]: a point-in-time copy
//! that can be [merged](Snapshot::merge) with other snapshots (shards,
//! workers) and asked for [quantiles](Snapshot::quantile).
//!
//! # Error bound
//!
//! Buckets double, so a quantile estimate is the **inclusive upper
//! bound** of the bucket holding the true empirical quantile: for a true
//! value `v ≥ 1` the estimate `e` satisfies `v ≤ e < 2·v`, i.e. the
//! estimate never undershoots and overshoots by strictly less than one
//! binary order of magnitude. (For `v = 0` the estimate is `1` — below
//! any meaningful timer resolution.) The property tests pin exactly
//! this bound.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets — one per bit of a `u64`.
const BUCKETS: usize = 64;

/// The bucket index `value` falls into: `floor(log2(value))`, with `0`
/// and `1` sharing bucket 0.
// xlint: allow(L10, "crates/obs/tests/proptests.rs derives expected buckets with it")
pub fn bucket_index(value: u64) -> usize {
    match value.checked_ilog2() {
        Some(b) => b as usize,
        None => 0,
    }
}

/// The largest value bucket `index` holds (inclusive): `2^(index+1) - 1`,
/// saturating at `u64::MAX` for the last bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    match 1u64.checked_shl(index as u32 + 1) {
        Some(next) => next - 1,
        None => u64::MAX,
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples (the serving
/// tier records nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// Record one sample. Two relaxed atomic adds; never blocks.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent `record`s may or
    /// may not be included (each whole sample lands eventually; the
    /// `sum` and its bucket may be read around one in-flight record, so
    /// a snapshot's sum is accurate to ± one sample).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: std::array::from_fn(|i| {
                self.buckets.get(i).map(|b| b.load(Ordering::Relaxed)).unwrap_or(0)
            }),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A mergeable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot { counts: [0; BUCKETS], sum: 0 }
    }
}

impl Snapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |acc, c| acc.saturating_add(*c))
    }

    /// Sum of all recorded samples (wraps only after ~2^64 total).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| *c == 0)
    }

    /// Per-bucket counts, bucket 0 first.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Fold `other` in: the result is exactly the histogram of both
    /// sample sets together (bucket-wise addition — the property tests
    /// pin merge = sum of parts).
    pub fn merge(&mut self, other: &Snapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        // Wrapping, not saturating: recording wraps the sum mod 2^64,
        // so merge must too for "merge = sum of parts" to hold exactly.
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The `q`-quantile estimate (`0 < q ≤ 1`): the inclusive upper
    /// bound of the bucket holding the sample of rank `ceil(q·count)`.
    /// `None` when empty. See the module docs for the pinned `[v, 2v)`
    /// error bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(62), (1 << 63) - 1);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every value sits inside its own bucket's range.
        for v in [0u64, 1, 2, 3, 100, 1_000_000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above its bucket");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn quantiles_estimate_within_one_binary_order() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1100);
        // rank(0.5 · 5) = 3 → the value 30, bucket 4 ([16, 32)) → 31.
        assert_eq!(s.p50(), Some(31));
        // rank ceil(0.99 · 5) = 5 → 1000, bucket 9 ([512, 1024)) → 1023.
        assert_eq!(s.quantile(0.99), Some(1023));
        assert_eq!(Snapshot::default().p50(), None);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4000);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(700);
        b.record(5);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let all = Histogram::new();
        for v in [5u64, 700, 5] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot());
    }
}
