//! The inverted keyword index.
//!
//! Maps each normalized token to the **element** nodes that match it, in
//! document order. An element matches a token if
//!
//! * its label yields the token (`<open_auction>` matches `open` and
//!   `auction`), or
//! * a text node directly under it yields the token (`<city>Houston</city>`
//!   matches `houston` — the *element* `city` is the posting, so matches
//!   always address elements and the snippet selector never has to reason
//!   about text nodes).
//!
//! Postings are deduplicated per element and sorted by [`NodeId`], which is
//! document order thanks to the preorder-ID invariant of `extract-xml`.
//!
//! # Layout
//!
//! Tokens are interned into a [`TokenId`] table (the `symbol.rs` pattern
//! from `extract-xml`), and all posting lists live in **one flat arena**:
//! a single `Vec<NodeId>` plus a `starts` offset table indexed by token id.
//! Compared to the obvious `HashMap<String, Vec<NodeId>>` this removes one
//! heap allocation per distinct token, keeps hot lists cache-adjacent, and
//! makes repeated lookups by [`TokenId`] free of string hashing entirely —
//! resolve the query's tokens once, then hit `postings_by_id` per query.

use extract_xml::{Document, NodeId, SymbolTable};

use crate::tokenize::tokens_of;

/// An interned query token. Ids are dense (`0..vocabulary_size`) and stable
/// for the lifetime of the index they came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(u32);

impl TokenId {
    /// The dense index of this token in its index's vocabulary.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from a raw index. The caller must ensure it came from
    /// [`TokenId::index`] on the same index.
    ///
    /// # Panics
    ///
    /// On an index past `u32::MAX` — a silent `as u32` here would alias
    /// index 2³² back onto id 0 and quietly answer queries from the
    /// wrong posting list.
    pub fn from_index(index: usize) -> TokenId {
        TokenId(id32(index))
    }
}

/// Dense-index → `u32` id, loud on overflow: the posting arena's offset
/// table is `u32`, so a vocabulary (or corpus) past 4 billion entries
/// cannot be represented — truncating instead of panicking would corrupt
/// the index silently.
fn id32(index: usize) -> u32 {
    u32::try_from(index).expect("dense id exceeds u32::MAX")
}

/// Inverted index from token to matching elements.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Token interner; `TokenId(t)` corresponds to symbol index `t`.
    tokens: SymbolTable,
    /// `starts[t]..starts[t + 1]` indexes `arena` for token `t`.
    starts: Vec<u32>,
    /// Every posting list, concatenated in token-id order.
    arena: Vec<NodeId>,
}

impl InvertedIndex {
    /// Build the index over all elements of `doc`.
    pub fn build(doc: &Document) -> InvertedIndex {
        let mut tokens = SymbolTable::new();
        // (token, element) pairs in document order; counting-sorted into the
        // arena afterwards so each per-token range stays in document order.
        let mut pairs: Vec<(u32, NodeId)> = Vec::new();
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        for node in doc.all_nodes() {
            let Some(label) = doc.label_str(node) else {
                continue;
            };
            seen.clear();
            for tok in tokens_of(label) {
                seen.push(id32(tokens.intern(&tok).index()));
            }
            for child in doc.children(node) {
                if let Some(text) = doc.text(child) {
                    for tok in tokens_of(text) {
                        seen.push(id32(tokens.intern(&tok).index()));
                    }
                }
            }
            // Per-element dedup: sort + dedup is O(t log t) in the element's
            // token count (a linear `contains` scan per token is O(t²) and
            // hurts on text-heavy elements).
            seen.sort_unstable();
            seen.dedup();
            for &t in &seen {
                pairs.push((t, node));
            }
        }

        let vocab = tokens.len();
        let mut starts = vec![0u32; vocab + 1];
        for &(t, _) in &pairs {
            starts[t as usize + 1] += 1;
        }
        for i in 1..=vocab {
            starts[i] += starts[i - 1];
        }
        let mut cursor: Vec<u32> = starts.clone();
        let mut arena = vec![NodeId::from_index(0); pairs.len()];
        for &(t, node) in &pairs {
            arena[cursor[t as usize] as usize] = node;
            cursor[t as usize] += 1;
        }

        let index = InvertedIndex { tokens, starts, arena };
        // Elements are visited in ID (document) order, so each list is
        // already sorted; assert in debug builds.
        #[cfg(debug_assertions)]
        for (_, list) in index.iter() {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
        index
    }

    /// The id of `token` if it occurs anywhere in the document. `token`
    /// must already be normalized (see [`crate::tokenize`]). Resolving ids
    /// once per query keyword makes every later lookup hash-free.
    pub fn token_id(&self, token: &str) -> Option<TokenId> {
        self.tokens.get(token).map(|s| TokenId(id32(s.index())))
    }

    /// The token string of an id from this index.
    pub fn token_str(&self, id: TokenId) -> Option<&str> {
        self.tokens.try_resolve(extract_xml::Symbol::from_index(id.index()))
    }

    /// The posting list for `token` (empty slice if absent). `token` must
    /// already be normalized (see [`crate::tokenize`]).
    pub fn postings(&self, token: &str) -> &[NodeId] {
        match self.token_id(token) {
            Some(id) => self.postings_by_id(id),
            None => &[],
        }
    }

    /// The posting list for an interned token id (empty slice for foreign
    /// ids). No hashing: two array reads plus a slice.
    pub fn postings_by_id(&self, id: TokenId) -> &[NodeId] {
        let t = id.index();
        if t + 1 >= self.starts.len() {
            return &[];
        }
        &self.arena[self.starts[t] as usize..self.starts[t + 1] as usize]
    }

    /// Number of elements matching `token`.
    pub fn frequency(&self, token: &str) -> usize {
        self.postings(token).len()
    }

    /// Number of distinct tokens.
    pub fn vocabulary_size(&self) -> usize {
        self.tokens.len()
    }

    /// Total number of (token, element) pairs.
    pub fn total_postings(&self) -> usize {
        self.arena.len()
    }

    /// Iterate over `(token, postings)` pairs in token-id order (first
    /// occurrence order of the build pass).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.tokens.iter().map(move |(sym, s)| {
            (s, self.postings_by_id(TokenId(id32(sym.index()))))
        })
    }

    /// Estimated heap footprint in bytes, counting **allocated capacity**
    /// (not just live length) of the arena and offset table, plus the token
    /// table: each distinct token string is stored twice (interner vector +
    /// lookup map key) alongside two boxed-slice headers and a hash-map
    /// entry, estimated at [`TOKEN_TABLE_OVERHEAD`] bytes per token.
    pub fn memory_footprint(&self) -> usize {
        let arena = self.arena.capacity() * std::mem::size_of::<NodeId>();
        let starts = self.starts.capacity() * std::mem::size_of::<u32>();
        let tokens: usize =
            self.tokens.iter().map(|(_, s)| 2 * s.len() + TOKEN_TABLE_OVERHEAD).sum();
        arena + starts + tokens
    }
}

/// Per-token bookkeeping estimate used by
/// [`InvertedIndex::memory_footprint`]: the workspace-wide
/// [`extract_xml::SYMBOL_ENTRY_OVERHEAD`] (two `Box<str>` headers plus
/// hash-map entry overhead), aliased here for the index-facing name.
pub const TOKEN_TABLE_OVERHEAD: usize = extract_xml::SYMBOL_ENTRY_OVERHEAD;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_id_roundtrips_at_the_u32_boundary() {
        assert_eq!(TokenId::from_index(u32::MAX as usize).index(), u32::MAX as usize);
    }

    // Regression: `from_index` used a bare `as u32`, so index 2^32
    // silently aliased back onto TokenId(0) — a wrong-posting-list
    // lookup, not an error. It must panic instead.
    #[test]
    #[should_panic(expected = "dense id exceeds u32::MAX")]
    fn token_id_from_index_rejects_truncating_indices() {
        let _ = TokenId::from_index(u32::MAX as usize + 1);
    }

    fn doc() -> Document {
        Document::parse_str(
            "<retailer><name>Brook Brothers</name>\
             <store><name>Galleria</name><city>Houston</city></store>\
             <store><name>West Village</name><city>Houston</city></store></retailer>",
        )
        .unwrap()
    }

    #[test]
    fn label_and_text_matches() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // Label matches: one retailer, two stores, three names, two cities.
        assert_eq!(idx.frequency("retailer"), 1);
        assert_eq!(idx.frequency("store"), 2);
        assert_eq!(idx.frequency("name"), 3);
        // Text matches point at the containing element.
        let houston = idx.postings("houston");
        assert_eq!(houston.len(), 2);
        for &n in houston {
            assert_eq!(d.label_str(n), Some("city"));
        }
    }

    #[test]
    fn postings_are_sorted_and_unique() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        for (_, list) in idx.iter() {
            assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn multiword_text_tokenizes() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.frequency("brook"), 1);
        assert_eq!(idx.frequency("brothers"), 1);
        assert_eq!(idx.frequency("west"), 1);
        assert_eq!(idx.frequency("village"), 1);
    }

    #[test]
    fn unknown_tokens_are_empty() {
        let idx = InvertedIndex::build(&doc());
        assert!(idx.postings("dallas").is_empty());
        assert_eq!(idx.frequency("dallas"), 0);
        assert!(idx.token_id("dallas").is_none());
    }

    #[test]
    fn token_id_round_trips() {
        let idx = InvertedIndex::build(&doc());
        let id = idx.token_id("houston").expect("indexed token");
        assert_eq!(idx.token_str(id), Some("houston"));
        assert_eq!(idx.postings_by_id(id), idx.postings("houston"));
        // Foreign / out-of-range ids resolve to nothing.
        let foreign = TokenId::from_index(usize::from(u16::MAX));
        assert!(idx.postings_by_id(foreign).is_empty());
        assert!(idx.token_str(foreign).is_none());
    }

    #[test]
    fn element_with_same_token_in_label_and_text_posts_once() {
        let d = Document::parse_str("<city>city</city>").unwrap();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.frequency("city"), 1);
    }

    #[test]
    fn vocabulary_and_totals() {
        let d = Document::parse_str("<a>x y</a>").unwrap();
        let idx = InvertedIndex::build(&d);
        // tokens: a (label), x, y
        assert_eq!(idx.vocabulary_size(), 3);
        assert_eq!(idx.total_postings(), 3);
    }

    #[test]
    fn nested_text_is_indexed_on_direct_parent_only() {
        let d = Document::parse_str("<a><b>deep</b></a>").unwrap();
        let idx = InvertedIndex::build(&d);
        let deep = idx.postings("deep");
        assert_eq!(deep.len(), 1);
        assert_eq!(d.label_str(deep[0]), Some("b"), "not the grandparent <a>");
    }

    #[test]
    fn many_distinct_tokens_in_one_element() {
        // Regression for the O(t²) per-element dedup: one element whose text
        // yields thousands of distinct tokens must index each exactly once.
        let n = 2_000usize;
        let text: String =
            (0..n).map(|i| format!("tok{i} ")).collect();
        let xml = format!("<bag>{text}tok0 tok1</bag>");
        let d = Document::parse_str(&xml).unwrap();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.vocabulary_size(), n + 1, "n text tokens + the label");
        assert_eq!(idx.total_postings(), n + 1, "each posted once despite repeats");
        for i in [0usize, 1, n / 2, n - 1] {
            assert_eq!(idx.frequency(&format!("tok{i}")), 1);
        }
    }

    #[test]
    fn memory_footprint_arithmetic_is_pinned() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // The build produces exact-size allocations (`vec![..; n]`), so the
        // capacity terms equal the lengths and the whole sum is computable
        // from public accessors.
        let arena = idx.total_postings() * std::mem::size_of::<NodeId>();
        let starts = (idx.vocabulary_size() + 1) * std::mem::size_of::<u32>();
        let tokens: usize = idx
            .iter()
            .map(|(tok, _)| 2 * tok.len() + TOKEN_TABLE_OVERHEAD)
            .sum();
        assert_eq!(idx.memory_footprint(), arena + starts + tokens);
    }

    #[test]
    fn iter_covers_every_token_exactly_once() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let mut seen: Vec<&str> = idx.iter().map(|(t, _)| t).collect();
        assert_eq!(seen.len(), idx.vocabulary_size());
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), idx.vocabulary_size());
        let total: usize = idx.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, idx.total_postings());
    }
}
