//! String interning for element labels and index tokens.
//!
//! XML documents repeat a small set of tag names millions of times; interning
//! turns label comparisons into `u32` compares and keeps a node's label one
//! `u32` column entry. The index crates intern their tokens in the same
//! table. The table is append-only: symbols are never freed, which is the
//! right trade-off for document-lifetime label and token sets.
//!
//! # Layout
//!
//! A string is stored once. The table is three vectors, whatever the number
//! of strings:
//!
//! * `text` — every interned string back to back, in symbol order;
//! * `ends` — where each symbol's string ends in `text` (it starts where the
//!   previous one ends);
//! * `slots` — an open-addressing hash index of `symbol + 1` (`0` is an
//!   empty slot), linearly probed and never more than half full.
//!
//! So a table of `n` strings is a handful of allocations, not `2n`. The hash
//! is the table's own [`RandomState`]: keyed per table, so strings a client
//! chose (an `/ingest` body's labels and words) cannot be aimed at one
//! probe chain.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;

/// Slots a table takes on its first intern: room for four strings at half
/// load.
const MIN_SLOTS: usize = 8;

/// An interned string handle. Two symbols from the *same* [`SymbolTable`]
/// are equal iff the strings they denote are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw index of this symbol in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a symbol from a raw index. The caller must ensure the
    /// index came from [`Symbol::index`] on the same table.
    pub fn from_index(index: usize) -> Self {
        Symbol(crate::id32(index))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only string interner: each string stored once, in one buffer
/// (see the [module docs](self)).
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    /// Every interned string, back to back in symbol order.
    text: String,
    /// `ends[s]`: where symbol `s`'s string ends in `text`.
    ends: Vec<u32>,
    /// `symbol + 1` per occupied slot, `0` per empty one; empty or a power
    /// of two at least twice `ends.len()`.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty table with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        let slots = if n == 0 { 0 } else { (2 * n).next_power_of_two().max(MIN_SLOTS) };
        SymbolTable {
            text: String::new(),
            ends: Vec::with_capacity(n),
            slots: vec![0; slots],
            hasher: RandomState::new(),
        }
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = self.hasher.hash_one(s);
        let mut vacant = match self.find(hash, s) {
            Ok(sym) => return sym,
            Err(vacant) => vacant,
        };
        let sym = crate::id32(self.ends.len());
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
            vacant = self.vacant_slot(hash);
        }
        self.text.push_str(s);
        self.ends.push(crate::id32(self.text.len()));
        if let Some(slot) = self.slots.get_mut(vacant) {
            *slot = sym + 1;
        }
        Symbol(sym)
    }

    /// Look up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.find(self.hasher.hash_one(s), s).ok()
    }

    /// The symbol of `s`, or the empty slot where it would go. The table
    /// is at most half full, so a probe always reaches an empty slot; an
    /// empty table has no slot and answers `Err` at once.
    fn find(&self, hash: u64, s: &str) -> Result<Symbol, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash as usize & mask;
        while let Some(&tagged) = self.slots.get(at) {
            let Some(sym) = tagged.checked_sub(1) else {
                return Err(at);
            };
            // Bytes, not `str`s: no char-boundary checks on the probe path.
            let probed = self.span(sym as usize).and_then(|span| self.text.as_bytes().get(span));
            if probed == Some(s.as_bytes()) {
                return Ok(Symbol(sym));
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    /// Where symbol `i`'s string lies in `text`.
    fn span(&self, i: usize) -> Option<Range<usize>> {
        let start = match i.checked_sub(1) {
            Some(previous) => *self.ends.get(previous)?,
            None => 0,
        };
        Some(start as usize..*self.ends.get(i)? as usize)
    }

    /// The first empty slot on `hash`'s probe chain, for a string known to
    /// be absent.
    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash as usize & mask;
        while self.slots.get(at).is_some_and(|&tagged| tagged != 0) {
            at = (at + 1) & mask;
        }
        at
    }

    /// Double the slots (or take the first [`MIN_SLOTS`]) and re-place
    /// every symbol.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, 0);
        for sym in 0..self.ends.len() {
            let s = self.span(sym).and_then(|span| self.text.get(span)).unwrap_or_default();
            let at = self.vacant_slot(self.hasher.hash_one(s));
            if let Some(slot) = self.slots.get_mut(at) {
                *slot = crate::id32(sym) + 1;
            }
        }
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol did not come from this table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match self.try_resolve(sym) {
            Some(s) => s,
            // xlint: allow(L3, "documented contract: a symbol from another table has no string here, and answering with some other string would mislabel silently")
            None => panic!("{sym} is not in this symbol table"),
        }
    }

    /// Resolve a symbol, returning `None` for foreign symbols instead of
    /// panicking.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.text.get(self.span(sym.index())?)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate over `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let s = self.text.get(start as usize..end as usize).unwrap_or_default();
            start = end;
            (Symbol(crate::id32(i)), s)
        })
    }

    /// Give back the string buffer's and the end table's spare capacity
    /// (the slots stay: they are sized by the load bound). For a table
    /// that is done growing.
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes the table holds: the allocated capacity of its string
    /// buffer, end table and slots.
    pub fn memory_footprint(&self) -> usize {
        self.text.capacity() + (self.ends.capacity() + self.slots.capacity()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("store");
        let b = t.intern("store");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("store");
        let b = t.intern("clothes");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "store");
        assert_eq!(t.resolve(b), "clothes");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.get("city").is_none());
        t.intern("city");
        assert!(t.get("city").is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn try_resolve_rejects_foreign_symbols() {
        let t = SymbolTable::new();
        assert!(t.try_resolve(Symbol(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "sym#3 is not in this symbol table")]
    fn resolve_panics_on_a_foreign_symbol() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.resolve(Symbol(3));
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let collected: Vec<&str> = t.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_string_is_internable() {
        let mut t = SymbolTable::new();
        let e = t.intern("");
        assert_eq!(t.resolve(e), "");
        assert_eq!(t.intern(""), e);
        let a = t.intern("a");
        assert_eq!((t.resolve(e), t.resolve(a)), ("", "a"));
    }

    #[test]
    fn prefixes_are_distinct_strings() {
        let mut t = SymbolTable::new();
        let syms: Vec<Symbol> = ["ab", "a", "abc", ""].iter().map(|s| t.intern(s)).collect();
        for (s, sym) in ["ab", "a", "abc", ""].iter().zip(&syms) {
            assert_eq!(t.get(s), Some(*sym));
            assert_eq!(t.resolve(*sym), *s);
        }
        assert!(t.get("abcd").is_none());
    }

    #[test]
    fn the_table_stays_at_most_half_full() {
        let mut t = SymbolTable::with_capacity(3);
        for i in 0..1_000 {
            t.intern(&format!("s{i}"));
            assert!(2 * t.len() <= t.slots.len(), "{} strings in {} slots", t.len(), t.slots.len());
            assert!(t.slots.len().is_power_of_two());
        }
        assert_eq!(t.slots.iter().filter(|&&s| s != 0).count(), 1_000);
        for i in 0..1_000 {
            assert_eq!(t.get(&format!("s{i}")), Some(Symbol(i)));
        }
    }

    #[test]
    fn memory_footprint_counts_the_three_buffers() {
        let mut t = SymbolTable::new();
        assert_eq!(t.memory_footprint(), 0);
        t.intern("store");
        t.intern("name");
        t.shrink_to_fit();
        assert_eq!(t.memory_footprint(), "storename".len() + 2 * 4 + MIN_SLOTS * 4);
    }
}
