//! String interning for element and attribute labels.
//!
//! XML documents repeat a small set of tag names millions of times; interning
//! turns label comparisons into `u32` compares and keeps a node's label one
//! `u32` column entry. The table is append-only: symbols are never freed,
//! which is the right trade-off for document-lifetime label sets.

use std::collections::HashMap;
use std::fmt;

/// Estimated fixed heap overhead per interned entry, used by every
/// `memory_footprint` in the workspace that accounts for a [`SymbolTable`]
/// (the document's label table, the index crates' token tables): each
/// distinct string is stored twice (interner vector + lookup-map key) as
/// two `Box<str>` headers (16 bytes each on 64-bit) plus ~48 bytes of
/// hash-map entry overhead. Keep the estimates in one place so retuning it
/// retunes every footprint the same way.
pub const SYMBOL_ENTRY_OVERHEAD: usize = 80;

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

/// An append-only string interner.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    strings: Vec<Box<str>>,
    lookup: HashMap<Box<str>, Symbol>,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty table with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        SymbolTable { strings: Vec::with_capacity(n), lookup: HashMap::with_capacity(n) }
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Symbol(crate::id32(self.strings.len()));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Look up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol did not come from this table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolve a symbol, returning `None` for foreign symbols instead of
    /// panicking.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.strings.get(sym.index()).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (Symbol(crate::id32(i)), &**s))
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
    }
}
