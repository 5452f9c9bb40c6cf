//! The token → document directory — the corpus-scale index layer.
//!
//! A single [`XmlIndex`] serves one document: it is that document's
//! *segment*, built once when the document arrives and kept, with the
//! document, in the corpus's slot table (`extract-corpus`). At collection
//! scale (the paper's DBLP-sized evaluation, 10^7+ nodes across many
//! documents) a query must first decide *which documents* to run SLCA and
//! snippet generation on. [`ShardedPostings`] answers that and nothing
//! more:
//!
//! * **Directory.** Per token, the sorted documents containing it, each
//!   beside the token's id in that document's segment ([`DocToken`]), in
//!   one list. Candidate generation ([`ShardedPostings::candidate_docs`])
//!   intersects directory lists rarest-keyword-first, and [`FanIn`] counts
//!   the directory entries it touched.
//! * **Routing hands over token ids.** [`ShardedPostings::route`] runs the
//!   same intersection, then reads each surviving candidate's token ids
//!   out of the lists it already holds ([`Routes`]). A miss resolves each
//!   keyword once, at routing: every later posting lookup in a candidate
//!   is [`XmlIndex::postings_by_id`], two array reads with no hashing.
//!   The candidates and their ids live in the caller's [`Routes`], so a
//!   warm worker's routing allocates one small vector a request: the
//!   keywords' borrowed lists.
//! * **One edit.** [`ShardedPostingsBuilder::insert`] and
//!   [`ShardedPostingsBuilder::remove`] take a document's id and the
//!   segment its caller already holds, and touch the directory lists of
//!   that segment's distinct tokens and nothing else. A cold build is
//!   `insert` once per document; a live mutation is one `remove` and/or
//!   one `insert` followed by [`ShardedPostingsBuilder::snapshot`]. Lists
//!   are copy-on-write (`Arc<Vec<DocToken>>`): a snapshot costs one
//!   reference per token, an edit copies only the lists it changes, and a
//!   token whose last document is removed leaves with its string.
//!
//! The equivalence proptests in `extract-corpus` pin the directory and the
//! routed ids against a cold build and the segments after every step of a
//! mutation sequence.

use std::collections::HashMap;
use std::sync::Arc;

use extract_xml::Document;

use crate::{TokenId, XmlIndex};

/// A document's identity within one corpus: a dense *slot* (assigned in
/// insertion order) plus a *generation* that advances each time the slot
/// takes a new document.
///
/// The generation is the classic generational-arena ABA fix: replacing or
/// deleting a document retires its id, and the slot's next occupant gets
/// the same slot with `generation + 1`. A stale `DocId` retained by a
/// cache or an in-flight query therefore never aliases the new occupant —
/// lookups compare the full `(slot, generation)` pair. A corpus built once
/// from distinct names only ever sees generation `0`, so
/// [`DocId::from_index`] round-trips a bare index.
///
/// Ordering is lexicographic `(slot, generation)`: a directory list sorted
/// by `DocId` is sorted by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId {
    slot: u32,
    generation: u32,
}

impl DocId {
    /// The dense slot of this document in its corpus.
    pub fn index(self) -> usize {
        self.slot as usize
    }

    /// The slot's reuse generation (`0` for every document of a corpus
    /// that was built once and never mutated).
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Reconstruct a generation-`0` id from a raw slot index. The caller
    /// must ensure it came from [`DocId::index`] on the same corpus.
    ///
    /// # Panics
    ///
    /// On an index past `u32::MAX` — a silent `as u32` would alias
    /// document 2³² back onto document 0 and attribute its postings to
    /// the wrong document.
    pub fn from_index(index: usize) -> DocId {
        DocId::from_parts(index, 0)
    }

    /// Reconstruct from an explicit slot and generation.
    ///
    /// # Panics
    ///
    /// On a slot index past `u32::MAX`, like [`DocId::from_index`].
    pub fn from_parts(index: usize, generation: u32) -> DocId {
        let slot = u32::try_from(index);
        assert!(slot.is_ok(), "document index exceeds u32::MAX");
        DocId { slot: slot.unwrap_or(u32::MAX), generation }
    }
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.generation == 0 {
            write!(f, "d{}", self.slot)
        } else {
            write!(f, "d{}g{}", self.slot, self.generation)
        }
    }
}

/// Work counter for candidate generation: how many directory entries
/// [`ShardedPostings::candidate_docs`] touched — the "SLCA candidate
/// fan-in".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanIn {
    /// Directory entries read (including binary-search probes).
    pub directory_touched: u64,
}

impl FanIn {
    /// Index entries touched — all of them directory entries.
    pub fn total(&self) -> u64 {
        self.directory_touched
    }
}

/// One directory entry: a document holding the token, and the token's id
/// in that document's segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocToken {
    /// The document.
    pub doc: DocId,
    /// The token's id in the document's segment
    /// ([`XmlIndex::postings_by_id`]).
    pub token: TokenId,
}

/// A directory list borrowed for one request, beside the query position of
/// its keyword.
type Borrowed<'a> = (&'a [DocToken], usize);

/// What [`ShardedPostings::route`] found for a query: the candidate
/// documents in ascending [`DocId`] order and, for each, the query's token
/// ids in its segment, in query order. Reusable: a worker that keeps one
/// routes every request in the buffers of the last.
#[derive(Debug, Default)]
pub struct Routes {
    docs: Vec<DocId>,
    /// `width` ids per candidate, candidate after candidate.
    ids: Vec<TokenId>,
    width: usize,
}

impl Routes {
    /// The candidate documents, ascending.
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// The query's token ids in the segment of `doc` (query order), or
    /// `None` if `doc` is not a candidate.
    pub fn ids_of(&self, doc: DocId) -> Option<&[TokenId]> {
        let row = self.docs.binary_search(&doc).ok()?;
        self.ids.get(row * self.width..(row + 1) * self.width)
    }

    /// Each candidate with its token ids, in [`DocId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &[TokenId])> {
        self.docs.iter().copied().zip(self.ids.chunks(self.width.max(1)))
    }
}

/// An immutable token → document directory snapshot. Produced by
/// [`ShardedPostingsBuilder`]; cloning shares every directory list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedPostings {
    /// Token → the sorted documents containing it, each with the token's
    /// id in its segment; never an empty list.
    directory: HashMap<Arc<str>, Arc<Vec<DocToken>>>,
    total_postings: usize,
}

impl ShardedPostings {
    /// Number of distinct tokens across the live documents.
    pub fn vocabulary_size(&self) -> usize {
        self.directory.len()
    }

    /// Total `(token, document, element)` postings across the segments of
    /// the documents in the directory.
    pub fn total_postings(&self) -> usize {
        self.total_postings
    }

    /// The directory list of `token` (already normalized, see
    /// [`crate::tokenize`]): the documents containing it, ascending, each
    /// with the token's id in its segment; empty for a token no live
    /// document has.
    // xlint: allow(L10, "the tests of crates/corpus/src/live.rs and crates/corpus/tests/proptests.rs read the directory through it")
    pub fn entries_for(&self, token: &str) -> &[DocToken] {
        self.directory.get(token).map_or(&[], |list| list.as_slice())
    }

    /// The documents containing **every** token, via the directory:
    /// intersect its lists rarest-keyword-first. `out` is cleared and
    /// receives the candidates in ascending [`DocId`] order; `fanin`
    /// accumulates the directory entries touched.
    pub fn candidate_docs(&self, tokens: &[&str], out: &mut Vec<DocId>, fanin: &mut FanIn) {
        fanin.directory_touched += self.intersect(tokens, &mut Vec::new(), out);
    }

    /// Route a query: [`ShardedPostings::candidate_docs`] into
    /// `routes`, then each candidate's token ids, read from the directory
    /// lists the intersection already holds — one forward pass per list
    /// over the ascending candidates. Each keyword is hashed once, here.
    pub fn route<S: AsRef<str>>(&self, keywords: &[S], routes: &mut Routes) {
        let mut lists = Vec::with_capacity(keywords.len());
        self.intersect(keywords, &mut lists, &mut routes.docs);
        let width = keywords.len();
        routes.width = width;
        routes.ids.clear();
        routes.ids.resize(routes.docs.len() * width, TokenId::from_index(0));
        for &(list, at) in &lists {
            let mut from = 0;
            for (&doc, row) in routes.docs.iter().zip(routes.ids.chunks_mut(width.max(1))) {
                let tail = list.get(from..).unwrap_or_default();
                from += tail.partition_point(|entry| entry.doc < doc);
                if let (Some(entry), Some(id)) = (list.get(from), row.get_mut(at)) {
                    *id = entry.token;
                }
            }
        }
    }

    /// The intersection behind [`ShardedPostings::candidate_docs`] and
    /// [`ShardedPostings::route`]: `lists` receives each keyword's list
    /// and query position, rarest first; `out` the documents in all of
    /// them. Returns the directory entries touched.
    fn intersect<'a, S: AsRef<str>>(
        &'a self,
        keywords: &[S],
        lists: &mut Vec<Borrowed<'a>>,
        out: &mut Vec<DocId>,
    ) -> u64 {
        out.clear();
        lists.clear();
        lists.extend(keywords.iter().enumerate().map(|(at, k)| (self.entries_for(k.as_ref()), at)));
        lists.sort_by_key(|(list, _)| list.len());
        let Some(((rarest, _), rest)) = lists.split_first() else {
            return 0;
        };
        let mut touched = rarest.len() as u64;
        out.extend(rarest.iter().map(|entry| entry.doc));
        for (list, _) in rest {
            if out.is_empty() {
                break;
            }
            // One binary-search probe per surviving candidate.
            let probe = u64::from(usize::BITS - list.len().leading_zeros());
            touched += (out.len() as u64).saturating_mul(probe);
            out.retain(|d| list.binary_search_by_key(d, |entry| entry.doc).is_ok());
        }
        touched
    }

    /// Estimated heap footprint of the directory in bytes at its live
    /// size, per token: its map entry, its string's `Arc` (two counts and
    /// the bytes), its list's `Arc` (two counts and the `Vec` header) and
    /// the list's entries — a [`DocId`] and a [`TokenId`] each. Counts
    /// lengths, not capacities, so it is a function of the live documents
    /// alone.
    pub fn memory_footprint(&self) -> usize {
        const COUNTS: usize = 2 * std::mem::size_of::<usize>();
        const PER_TOKEN: usize = std::mem::size_of::<(Arc<str>, Arc<Vec<DocToken>>)>()
            + COUNTS
            + COUNTS
            + std::mem::size_of::<Vec<DocToken>>();
        self.directory
            .iter()
            .map(|(token, list)| {
                PER_TOKEN + token.len() + list.len() * std::mem::size_of::<DocToken>()
            })
            .sum()
    }
}

/// The mutable working copy of a [`ShardedPostings`]: the directory edit
/// behind cold builds and live mutations alike. Every edit is
/// `O(distinct tokens of one document)`; no edit reads another document.
#[derive(Debug, Default)]
pub struct ShardedPostingsBuilder {
    postings: ShardedPostings,
}

impl ShardedPostingsBuilder {
    /// An empty builder.
    pub fn new() -> ShardedPostingsBuilder {
        ShardedPostingsBuilder::default()
    }

    /// Continue from a snapshot (a live corpus wrapping a built one). The
    /// snapshot's lists are shared until an edit changes them.
    pub fn resume(postings: ShardedPostings) -> ShardedPostingsBuilder {
        ShardedPostingsBuilder { postings }
    }

    /// Index `doc` and fold it in under a caller-chosen [`DocId`]; the
    /// segment is dropped once its tokens are in the directory.
    pub fn add_document_as(&mut self, doc: &Document, id: DocId) {
        self.insert(id, &XmlIndex::build(doc));
    }

    /// Fold `id` in: it joins the directory list of each of `segment`'s
    /// distinct tokens. Matching semantics are the segment's own — those
    /// of [`crate::InvertedIndex::build`]. The caller keeps the segment
    /// and guarantees `id` is not in the directory already.
    pub fn insert(&mut self, id: DocId, segment: &XmlIndex) {
        let postings = &mut self.postings;
        for (token_id, token) in segment.inverted().tokens() {
            let entry = DocToken { doc: id, token: token_id };
            match postings.directory.get_mut(token) {
                Some(list) => {
                    let list = Arc::make_mut(list);
                    let at = list.partition_point(|e| e.doc < id);
                    list.insert(at, entry);
                }
                None => {
                    postings.directory.insert(Arc::from(token), Arc::new(vec![entry]));
                }
            }
        }
        postings.total_postings += segment.inverted().total_postings();
    }

    /// Take `id` out: it leaves the directory list of each of `segment`'s
    /// tokens, and a token no other document has leaves the directory.
    /// `segment` must be the one `id` was inserted with.
    pub fn remove(&mut self, id: DocId, segment: &XmlIndex) {
        let postings = &mut self.postings;
        for (_, token) in segment.inverted().tokens() {
            let Some(list) = postings.directory.get_mut(token) else {
                continue;
            };
            if matches!(list.as_slice(), [only] if only.doc == id) {
                postings.directory.remove(token);
            } else if let Ok(at) = list.binary_search_by_key(&id, |e| e.doc) {
                Arc::make_mut(list).remove(at);
            }
        }
        postings.total_postings -= segment.inverted().total_postings();
    }

    /// The current state as an immutable snapshot: one reference per
    /// directory list, no document read.
    pub fn snapshot(&self) -> ShardedPostings {
        self.postings.clone()
    }

    /// Finalize into an immutable [`ShardedPostings`].
    pub fn finish(self) -> ShardedPostings {
        self.postings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedIndex;

    /// The documents of `token`'s directory list.
    fn docs_of(sp: &ShardedPostings, token: &str) -> Vec<DocId> {
        sp.entries_for(token).iter().map(|entry| entry.doc).collect()
    }

    #[test]
    fn doc_id_roundtrips_at_the_u32_boundary() {
        assert_eq!(DocId::from_index(u32::MAX as usize).index(), u32::MAX as usize);
    }

    // Regression: `from_index` used a bare `as u32`, so index 2^32
    // silently aliased back onto DocId(0), merging two documents'
    // postings. It must panic instead.
    #[test]
    #[should_panic(expected = "document index exceeds u32::MAX")]
    fn doc_id_from_index_rejects_truncating_indices() {
        let _ = DocId::from_index(u32::MAX as usize + 1);
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::parse_str(
                "<retailer><name>Brook Brothers</name>\
                 <store><city>Houston</city></store></retailer>",
            )
            .unwrap(),
            Document::parse_str(
                "<retailer><name>Gap</name><store><city>Austin</city></store>\
                 <store><city>Houston</city></store></retailer>",
            )
            .unwrap(),
            Document::parse_str("<dblp><paper><title>houston search</title></paper></dblp>")
                .unwrap(),
        ]
    }

    fn segments() -> Vec<XmlIndex> {
        docs().iter().map(XmlIndex::build).collect()
    }

    fn build() -> (Vec<XmlIndex>, ShardedPostings) {
        let segments = segments();
        let mut b = ShardedPostingsBuilder::new();
        for (i, segment) in segments.iter().enumerate() {
            b.insert(DocId::from_index(i), segment);
        }
        (segments, b.finish())
    }

    #[test]
    fn matches_per_document_inverted_indexes() {
        let (_, sp) = build();
        let mut total = 0;
        for (i, d) in docs().iter().enumerate() {
            let solo = InvertedIndex::build(d);
            total += solo.total_postings();
            for (token, _) in solo.iter() {
                let id = DocId::from_index(i);
                assert!(sp.entries_for(token).iter().any(|e| e.doc == id), "token {token} doc {i}");
            }
        }
        assert_eq!(sp.total_postings(), total);
    }

    #[test]
    fn doc_directory_and_counts() {
        let (_, sp) = build();
        assert_eq!(
            docs_of(&sp, "houston"),
            &[DocId::from_index(0), DocId::from_index(1), DocId::from_index(2)],
            "sorted distinct docs"
        );
        assert_eq!(docs_of(&sp, "gap"), [DocId::from_index(1)]);
        assert_eq!(sp.entries_for("dallas").len(), 0);
        assert!(sp.total_postings() > 0);
        assert!(sp.memory_footprint() > 0);
    }

    #[test]
    fn candidate_docs_directory_equals_scan() {
        let (segments, sp) = build();
        let queries: Vec<Vec<&str>> = vec![
            vec!["houston"],
            vec!["retailer", "houston"],
            vec!["gap", "houston"],
            vec!["houston", "search"],
            vec!["retailer", "title"],
            vec!["houston", "dallas"],
        ];
        for q in queries {
            // The scan: every segment whose postings hold every token.
            let scan: Vec<DocId> = (0..segments.len())
                .filter(|&i| q.iter().all(|t| !segments[i].postings(t).is_empty()))
                .map(DocId::from_index)
                .collect();
            let mut a = Vec::new();
            sp.candidate_docs(&q, &mut a, &mut FanIn::default());
            assert_eq!(a, scan, "query {q:?}");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        }
    }

    #[test]
    fn routes_hand_each_candidate_its_segment_token_ids() {
        let (segments, sp) = build();
        let queries: Vec<Vec<&str>> = vec![
            vec!["houston", "retailer", "store"],
            vec!["houston"],
            vec!["store", "houston", "city", "name", "retailer"],
            vec!["search", "houston"],
            vec!["houston", "dallas"],
            vec![],
        ];
        // One `Routes` for every query, as a worker keeps it.
        let mut routes = Routes::default();
        for q in queries {
            let mut docs = Vec::new();
            sp.candidate_docs(&q, &mut docs, &mut FanIn::default());
            sp.route(&q, &mut routes);
            assert_eq!(routes.docs(), docs, "{q:?}");
            assert_eq!(routes.iter().count(), docs.len());
            for (doc, ids) in routes.iter() {
                let segment = &segments[doc.index()];
                let expected: Vec<TokenId> =
                    q.iter().map(|k| segment.token_id(k).expect("a candidate has it")).collect();
                assert_eq!(ids, expected, "{q:?} in {doc}");
                assert_eq!(routes.ids_of(doc), Some(ids));
            }
        }
        assert_eq!(routes.ids_of(DocId::from_index(0)), None, "the last query routed nothing");
    }

    #[test]
    fn unknown_and_empty_queries() {
        let (_, sp) = build();
        let mut out = vec![DocId::from_index(9)];
        let mut fanin = FanIn::default();
        sp.candidate_docs(&[], &mut out, &mut fanin);
        assert!(out.is_empty());
        assert_eq!(fanin, FanIn::default(), "an empty query touches nothing");
        sp.candidate_docs(&["houston", "dallas"], &mut out, &mut fanin);
        assert!(out.is_empty());
        assert_eq!(sp.entries_for("dallas").len(), 0);
    }

    #[test]
    fn empty_corpus_is_queryable() {
        let sp = ShardedPostingsBuilder::new().finish();
        assert_eq!(sp.total_postings(), 0);
        assert_eq!(sp.vocabulary_size(), 0);
        assert_eq!(sp.memory_footprint(), 0);
        assert_eq!(sp.entries_for("anything").len(), 0);
    }

    #[test]
    fn generations_distinguish_slot_reuse() {
        let old = DocId::from_parts(3, 0);
        let new = DocId::from_parts(3, 1);
        assert_ne!(old, new, "same slot, different generation");
        assert_eq!(old.index(), new.index());
        assert_eq!(new.generation(), 1);
        assert!(old < new, "generations order within a slot");
        assert!(new < DocId::from_parts(4, 0), "the slot dominates ordering");
        assert_eq!(DocId::from_index(3), old, "from_index is generation 0");
        assert_eq!(old.to_string(), "d3");
        assert_eq!(new.to_string(), "d3g1");
    }

    #[test]
    fn ids_may_arrive_in_any_order() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        for i in [2, 0, 1] {
            b.add_document_as(&ds[i], DocId::from_index(i));
        }
        let (_, cold) = build();
        assert_eq!(b.finish(), cold);
    }

    #[test]
    fn remove_undoes_insert_and_drops_orphaned_tokens() {
        let segments = segments();
        let mut b = ShardedPostingsBuilder::new();
        b.insert(DocId::from_index(0), &segments[0]);
        let before = b.snapshot();
        let id = DocId::from_index(1);
        b.insert(id, &segments[2]);
        assert_eq!(docs_of(&b.snapshot(), "search"), [id]);
        b.remove(id, &segments[2]);
        let after = b.finish();
        assert_eq!(after.entries_for("search").len(), 0);
        assert_eq!(after.vocabulary_size(), before.vocabulary_size(), "orphaned tokens left");
        assert_eq!(after.total_postings(), before.total_postings());
        assert_eq!(after.memory_footprint(), before.memory_footprint());
        assert_eq!(after, before);
    }
}
