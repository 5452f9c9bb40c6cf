//! Keyword-set bitmasks abstract over their width, so the mask-propagation
//! algorithms (brute-force SLCA, both ELCAs) run unchanged with one
//! inlined `u64` (k ≤ 64, the hot path) or a boxed multi-word mask
//! (degenerate many-keyword queries — a hard 64-list cap made them
//! library panics reachable from `crate::search`). Callers dispatch on
//! `lists.len() <= 64` so the common case never allocates per mask.

/// The mask operations the algorithms need. `k` is the keyword count the
/// mask was sized for and must be the same across every call on one mask.
pub(crate) trait Mask: Clone + PartialEq {
    /// The empty mask for `k` keywords.
    fn empty(k: usize) -> Self;
    /// The mask with only keyword `i` set.
    fn single(k: usize, i: usize) -> Self;
    /// Set-union in place.
    fn or_assign(&mut self, other: &Self);
    /// Does the mask contain all `k` keywords?
    fn is_full(&self, k: usize) -> bool;
}

impl Mask for u64 {
    fn empty(_k: usize) -> u64 {
        0
    }

    fn single(_k: usize, i: usize) -> u64 {
        1u64 << i
    }

    fn or_assign(&mut self, other: &u64) {
        *self |= other;
    }

    fn is_full(&self, k: usize) -> bool {
        let full = if k == 64 { !0 } else { (1u64 << k) - 1 };
        *self == full
    }
}

impl Mask for Box<[u64]> {
    fn empty(k: usize) -> Box<[u64]> {
        vec![0u64; k.div_ceil(64)].into_boxed_slice()
    }

    fn single(k: usize, i: usize) -> Box<[u64]> {
        let mut m = Self::empty(k);
        m[i / 64] |= 1 << (i % 64);
        m
    }

    fn or_assign(&mut self, other: &Box<[u64]>) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            *a |= b;
        }
    }

    fn is_full(&self, k: usize) -> bool {
        self.iter().enumerate().all(|(w, &bits)| {
            let in_word = (k - w * 64).min(64);
            let full = if in_word == 64 { !0 } else { (1u64 << in_word) - 1 };
            bits == full
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check<M: Mask + std::fmt::Debug>(k: usize) {
        let mut m = M::empty(k);
        assert!(!m.is_full(k), "empty is not full at k={k}");
        for i in 0..k {
            m.or_assign(&M::single(k, i));
        }
        assert!(m.is_full(k), "all bits set is full at k={k}");
        let mut partial = M::empty(k);
        partial.or_assign(&M::single(k, k - 1));
        assert!(!partial.is_full(k) || k == 1);
    }

    #[test]
    fn u64_masks_cover_boundaries() {
        for k in [1, 2, 63, 64] {
            check::<u64>(k);
        }
    }

    #[test]
    fn wide_masks_cover_boundaries() {
        for k in [65, 128, 129, 200] {
            check::<Box<[u64]>>(k);
        }
    }
}
