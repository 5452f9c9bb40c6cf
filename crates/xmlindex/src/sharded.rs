//! Per-document index segments behind a token → document directory — the
//! corpus-scale index layer.
//!
//! A single [`XmlIndex`] serves one document. At collection scale (the
//! paper's DBLP-sized evaluation, 10^7+ nodes across many documents) a
//! query must first decide *which documents* to run SLCA and snippet
//! generation on. [`ShardedPostings`] answers that and nothing more — the
//! shard is the document:
//!
//! * **Segments.** A document's segment is its `Arc<XmlIndex>`, built once
//!   when the document arrives and never again: the slot table here holds
//!   it under the document's generational [`DocId`], every later snapshot
//!   shares the same `Arc`, and the query engine of that document searches
//!   it directly ([`ShardedPostings::segment`]). A document is tokenized
//!   once in its life.
//! * **Directory.** Per token, the sorted documents containing it.
//!   Candidate generation ([`ShardedPostings::candidate_docs`]) intersects
//!   directory lists rarest-keyword-first, and [`FanIn`] counts the index
//!   entries each strategy touched — the number the corpus benchmark
//!   reports.
//! * **One edit.** [`ShardedPostingsBuilder::insert`] and
//!   [`ShardedPostingsBuilder::remove`] touch the directory lists of one
//!   document's distinct tokens and nothing else. A cold build is `insert`
//!   once per document; a live mutation is one `remove` and/or one
//!   `insert` followed by [`ShardedPostingsBuilder::snapshot`]. Lists are
//!   copy-on-write (`Arc<Vec<DocId>>`): a snapshot costs one reference per
//!   token and per segment, an edit copies only the lists it changes, and a
//!   token whose last document is removed leaves with its string.
//!
//! [`ShardedPostings::postings_in_doc`] is one lookup in one segment, so it
//! is **identical** to a standalone per-document [`crate::InvertedIndex`]
//! by construction; the equivalence proptests in `extract-corpus` pin the
//! directory against a cold build after every step of a mutation sequence.

use std::collections::HashMap;
use std::sync::Arc;

use extract_xml::{Document, NodeId};

use crate::XmlIndex;

/// A document's identity within one corpus: a dense *slot* (assigned in
/// insertion order) plus a *generation* that advances each time the slot
/// is reused by a live corpus.
///
/// The generation is the classic generational-arena ABA fix: deleting a
/// document frees its slot for reuse, and the replacement document gets
/// the same slot with `generation + 1`. A stale `DocId` retained by a
/// cache or an in-flight query therefore never aliases the new occupant —
/// lookups compare the full `(slot, generation)` pair. Static corpora
/// built once via [`ShardedPostingsBuilder::add_document`] only ever see
/// generation `0`, so [`DocId::from_index`] round-trips a bare index.
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

/// Work counters for candidate generation: how many index entries a
/// routing strategy touched. This is the "SLCA candidate fan-in" metric the
/// corpus benchmark compares between the directory and the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanIn {
    /// Segment postings read.
    pub postings_touched: u64,
    /// Directory entries read (including binary-search probes).
    pub directory_touched: u64,
}

impl FanIn {
    /// Total index entries touched — the headline fan-in number.
    pub fn total(&self) -> u64 {
        self.postings_touched + self.directory_touched
    }
}

/// One occupied slot: the document's full id and its index.
#[derive(Debug, Clone)]
struct Segment {
    id: DocId,
    index: Arc<XmlIndex>,
}

/// An immutable corpus index snapshot: the generational slot table of
/// per-document segments plus the token → document directory. Produced by
/// [`ShardedPostingsBuilder`]; cloning shares every segment and every
/// directory list.
#[derive(Debug, Clone, Default)]
pub struct ShardedPostings {
    /// Slot → the live document there (`None` = free).
    slots: Vec<Option<Segment>>,
    /// Token → the sorted documents containing it; never an empty list.
    directory: HashMap<Arc<str>, Arc<Vec<DocId>>>,
    doc_count: usize,
    total_postings: usize,
}

impl ShardedPostings {
    /// Number of distinct tokens across the live documents.
    pub fn vocabulary_size(&self) -> usize {
        self.directory.len()
    }

    /// Number of live documents.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Total `(token, document, element)` postings across all segments.
    pub fn total_postings(&self) -> usize {
        self.total_postings
    }

    /// The segment of `doc`: `None` for a free slot or a stale generation.
    pub fn segment(&self, doc: DocId) -> Option<&Arc<XmlIndex>> {
        let segment = self.slots.get(doc.index())?.as_ref()?;
        (segment.id == doc).then_some(&segment.index)
    }

    /// Sorted distinct documents containing `token` (already normalized,
    /// see [`crate::tokenize`]); empty for a token no live document has.
    pub fn docs_for(&self, token: &str) -> &[DocId] {
        self.directory.get(token).map_or(&[], |docs| docs.as_slice())
    }

    /// The documents containing **every** token, via the directory:
    /// intersect its lists rarest-keyword-first. `out` is cleared and
    /// receives the candidates in ascending [`DocId`] order; `fanin`
    /// accumulates the directory entries touched.
    pub fn candidate_docs(&self, tokens: &[&str], out: &mut Vec<DocId>, fanin: &mut FanIn) {
        out.clear();
        let mut lists: Vec<&[DocId]> = tokens.iter().map(|t| self.docs_for(t)).collect();
        lists.sort_by_key(|docs| docs.len());
        let Some((rarest, rest)) = lists.split_first() else {
            return;
        };
        fanin.directory_touched += rarest.len() as u64;
        out.extend_from_slice(rarest);
        for docs in rest {
            if out.is_empty() {
                return;
            }
            // One binary-search probe per surviving candidate.
            let probe = u64::from(usize::BITS - docs.len().leading_zeros());
            fanin.directory_touched += (out.len() as u64).saturating_mul(probe);
            out.retain(|d| docs.binary_search(d).is_ok());
        }
    }

    /// The documents containing every token, the way a store with **no
    /// directory** has to compute them: read every posting of every token
    /// in every segment and intersect the document sets. Produces the same
    /// candidates as [`ShardedPostings::candidate_docs`] (pinned by tests);
    /// exists so the corpus benchmark can measure the fan-in the directory
    /// avoids.
    pub fn candidate_docs_by_scan(
        &self,
        tokens: &[&str],
        out: &mut Vec<DocId>,
        fanin: &mut FanIn,
    ) {
        out.clear();
        for (i, token) in tokens.iter().enumerate() {
            let mut docs: Vec<DocId> = Vec::new();
            for segment in self.slots.iter().flatten() {
                let postings = segment.index.postings(token);
                fanin.postings_touched += postings.len() as u64;
                if !postings.is_empty() {
                    docs.push(segment.id);
                }
            }
            // Slot order is `DocId` order: `docs` is sorted.
            if i == 0 {
                *out = docs;
            } else {
                out.retain(|d| docs.binary_search(d).is_ok());
            }
            if out.is_empty() {
                return;
            }
        }
    }

    /// The sorted element postings of `token` inside `doc` — one lookup in
    /// that document's segment; empty for a stale or free `doc`.
    pub fn postings_in_doc(&self, token: &str, doc: DocId) -> &[NodeId] {
        self.segment(doc).map_or(&[], |index| index.postings(token))
    }

    /// Estimated heap footprint in bytes: every segment, plus the directory
    /// at its live size — each token string, its list's entries, and
    /// [`crate::inverted::TOKEN_TABLE_OVERHEAD`] for the two `Arc` headers
    /// and the map entry. Counts lengths, not capacities, so it is a
    /// function of the live documents alone.
    pub fn memory_footprint(&self) -> usize {
        let segments: usize =
            self.slots.iter().flatten().map(|s| s.index.memory_footprint()).sum();
        let directory: usize = self
            .directory
            .iter()
            .map(|(token, docs)| {
                token.len()
                    + crate::inverted::TOKEN_TABLE_OVERHEAD
                    + docs.len() * std::mem::size_of::<DocId>()
            })
            .sum();
        segments + directory + self.slots.len() * std::mem::size_of::<Option<Segment>>()
    }
}

/// The mutable working copy of a [`ShardedPostings`]: the one fold behind
/// cold builds and live mutations alike. Every edit is `O(distinct tokens
/// of one document)`; no edit reads another document.
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
    /// snapshot's segments and lists are shared until an edit changes them.
    pub fn resume(postings: ShardedPostings) -> ShardedPostingsBuilder {
        ShardedPostingsBuilder { postings }
    }

    /// Index `doc` and fold it in under the next dense slot (generation
    /// `0`), returning the [`DocId`] it was assigned.
    pub fn add_document(&mut self, doc: &Document) -> DocId {
        let id = DocId::from_index(self.postings.slots.len());
        self.add_document_as(doc, id);
        id
    }

    /// Index `doc` and fold it in under a caller-chosen [`DocId`]. Panics
    /// like [`ShardedPostingsBuilder::insert`].
    pub fn add_document_as(&mut self, doc: &Document, id: DocId) {
        self.insert(id, Arc::new(XmlIndex::build(doc)));
    }

    /// Fold an already-built segment in under `id`: the slot takes the
    /// segment and `id` joins the directory list of each of its distinct
    /// tokens. Matching semantics are the segment's own — those of
    /// [`crate::InvertedIndex::build`].
    ///
    /// # Panics
    ///
    /// If the slot of `id` is occupied: two documents in one slot would
    /// answer for each other. [`ShardedPostingsBuilder::remove`] the old
    /// occupant first.
    pub fn insert(&mut self, id: DocId, segment: Arc<XmlIndex>) {
        let postings = &mut self.postings;
        if postings.slots.len() <= id.index() {
            postings.slots.resize_with(id.index() + 1, || None);
        }
        let Some(slot) = postings.slots.get_mut(id.index()) else {
            return; // the table was just grown to hold this slot
        };
        assert!(slot.is_none(), "slot of {id} is occupied");
        for (token, _) in segment.inverted().iter() {
            match postings.directory.get_mut(token) {
                Some(docs) => {
                    let docs = Arc::make_mut(docs);
                    let at = docs.partition_point(|d| *d < id);
                    docs.insert(at, id);
                }
                None => {
                    postings.directory.insert(Arc::from(token), Arc::new(vec![id]));
                }
            }
        }
        postings.total_postings += segment.inverted().total_postings();
        postings.doc_count += 1;
        *slot = Some(Segment { id, index: segment });
    }

    /// Take `id` out: its slot is freed, `id` leaves the directory list of
    /// each of its segment's tokens, and a token no other document has
    /// leaves the directory. Returns the segment; `None` (and no change) if
    /// `id` is not live here.
    pub fn remove(&mut self, id: DocId) -> Option<Arc<XmlIndex>> {
        let postings = &mut self.postings;
        let slot = postings.slots.get_mut(id.index())?;
        if slot.as_ref().map(|s| s.id) != Some(id) {
            return None;
        }
        let segment = slot.take()?.index;
        for (token, _) in segment.inverted().iter() {
            let Some(docs) = postings.directory.get_mut(token) else {
                continue;
            };
            if docs.as_slice() == [id] {
                postings.directory.remove(token);
            } else if let Ok(at) = docs.binary_search(&id) {
                Arc::make_mut(docs).remove(at);
            }
        }
        postings.total_postings -= segment.inverted().total_postings();
        postings.doc_count -= 1;
        Some(segment)
    }

    /// The current state as an immutable snapshot: one reference per
    /// segment and per directory list, no document read.
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

    fn build() -> (Vec<Document>, ShardedPostings) {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        for d in &ds {
            b.add_document(d);
        }
        (ds, b.finish())
    }

    #[test]
    fn matches_per_document_inverted_indexes() {
        let (ds, sp) = build();
        let mut total = 0;
        for (i, d) in ds.iter().enumerate() {
            let solo = InvertedIndex::build(d);
            total += solo.total_postings();
            for (token, expected) in solo.iter() {
                assert_eq!(
                    sp.postings_in_doc(token, DocId::from_index(i)),
                    expected,
                    "token {token} doc {i}"
                );
            }
        }
        assert_eq!(sp.total_postings(), total);
    }

    #[test]
    fn doc_directory_and_counts() {
        let (_, sp) = build();
        assert_eq!(
            sp.docs_for("houston"),
            &[DocId::from_index(0), DocId::from_index(1), DocId::from_index(2)],
            "sorted distinct docs"
        );
        assert_eq!(sp.docs_for("gap"), &[DocId::from_index(1)]);
        assert!(sp.docs_for("dallas").is_empty());
        assert_eq!(sp.doc_count(), 3);
        assert!(sp.total_postings() > 0);
        assert!(sp.memory_footprint() > 0);
    }

    #[test]
    fn candidate_docs_directory_equals_scan() {
        let (_, sp) = build();
        let queries: Vec<Vec<&str>> = vec![
            vec!["houston"],
            vec!["retailer", "houston"],
            vec!["gap", "houston"],
            vec!["houston", "search"],
            vec!["retailer", "title"],
            vec!["houston", "dallas"],
        ];
        for q in queries {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut fanin = FanIn::default();
            sp.candidate_docs(&q, &mut a, &mut fanin);
            sp.candidate_docs_by_scan(&q, &mut b, &mut fanin);
            assert_eq!(a, b, "query {q:?}");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        }
    }

    #[test]
    fn directory_fanin_is_lower_than_scan() {
        let (_, sp) = build();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut directory = FanIn::default();
        let mut scan = FanIn::default();
        sp.candidate_docs(&["gap", "houston"], &mut a, &mut directory);
        sp.candidate_docs_by_scan(&["gap", "houston"], &mut b, &mut scan);
        assert!(
            directory.total() < scan.total(),
            "directory path must touch fewer entries: {directory:?} vs {scan:?}"
        );
    }

    #[test]
    fn unknown_and_empty_queries() {
        let (_, sp) = build();
        let mut out = vec![DocId::from_index(9)];
        let mut fanin = FanIn::default();
        sp.candidate_docs(&[], &mut out, &mut fanin);
        assert!(out.is_empty());
        out.push(DocId::from_index(9));
        sp.candidate_docs_by_scan(&[], &mut out, &mut fanin);
        assert!(out.is_empty());
        assert_eq!(fanin, FanIn::default(), "an empty query touches nothing");
        assert!(sp.postings_in_doc("dallas", DocId::from_index(0)).is_empty());
        assert!(sp.postings_in_doc("houston", DocId::from_index(7)).is_empty());
    }

    #[test]
    fn empty_corpus_is_queryable() {
        let sp = ShardedPostingsBuilder::new().finish();
        assert_eq!(sp.doc_count(), 0);
        assert_eq!(sp.total_postings(), 0);
        assert_eq!(sp.vocabulary_size(), 0);
        assert!(sp.docs_for("anything").is_empty());
    }

    #[test]
    fn generations_distinguish_slot_reuse() {
        let old = DocId::from_parts(3, 0);
        let new = DocId::from_parts(3, 1);
        assert_ne!(old, new, "same slot, different generation");
        assert_eq!(old.index(), new.index());
        assert_eq!(new.generation(), 1);
        assert!(old < new, "generations order within a slot");
        assert!(new < DocId::from_parts(4, 0), "slots dominate ordering");
        assert_eq!(DocId::from_index(3), old, "from_index is generation 0");
        assert_eq!(old.to_string(), "d3");
        assert_eq!(new.to_string(), "d3g1");
    }

    // The ABA scenario at the postings layer: the slot holds its new
    // generation, so a stale id from before the delete finds no postings
    // instead of the replacement document's.
    #[test]
    fn stale_generation_finds_no_postings() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        b.add_document_as(&ds[0], DocId::from_parts(0, 0));
        b.add_document_as(&ds[1], DocId::from_parts(1, 2));
        let sp = b.finish();
        assert_eq!(sp.docs_for("houston"), &[DocId::from_parts(0, 0), DocId::from_parts(1, 2)]);
        assert!(
            sp.postings_in_doc("houston", DocId::from_parts(1, 1)).is_empty(),
            "stale generation must not alias the new occupant"
        );
        assert_eq!(sp.postings_in_doc("houston", DocId::from_parts(1, 2)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "slot of d1g1 is occupied")]
    fn a_second_document_in_one_slot_panics() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        b.add_document_as(&ds[0], DocId::from_parts(1, 0));
        b.add_document_as(&ds[1], DocId::from_parts(1, 1));
    }

    #[test]
    fn ids_may_arrive_in_any_order() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        for i in [2, 0, 1] {
            b.add_document_as(&ds[i], DocId::from_index(i));
        }
        let (_, cold) = build();
        let sp = b.finish();
        for token in ["houston", "retailer", "gap", "search"] {
            assert_eq!(sp.docs_for(token), cold.docs_for(token), "{token}");
        }
    }

    #[test]
    fn remove_undoes_insert_and_drops_orphaned_tokens() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        b.add_document(&ds[0]);
        let before = b.snapshot();
        let id = b.add_document(&ds[2]);
        assert_eq!(b.snapshot().docs_for("search"), &[id]);
        assert!(b.remove(DocId::from_parts(1, 7)).is_none(), "a stale id removes nothing");
        assert!(b.remove(id).is_some());
        assert!(b.remove(id).is_none(), "already gone");
        let after = b.finish();
        assert!(after.docs_for("search").is_empty());
        assert_eq!(after.vocabulary_size(), before.vocabulary_size(), "orphaned tokens left");
        assert_eq!(after.total_postings(), before.total_postings());
        assert_eq!(after.doc_count(), 1);
        assert_eq!(after.memory_footprint() - before.memory_footprint(),
            std::mem::size_of::<Option<Segment>>(), "only the freed slot remains");
        assert_eq!(after.docs_for("houston"), before.docs_for("houston"));
    }

    #[test]
    fn snapshots_share_segments_and_never_see_later_edits() {
        let ds = docs();
        let mut b = ShardedPostingsBuilder::new();
        let first = b.add_document(&ds[0]);
        let old = b.snapshot();
        let second = b.add_document(&ds[1]);
        b.remove(first);
        let new = b.finish();
        assert_eq!(old.docs_for("houston"), &[first], "the old snapshot answers as taken");
        assert_eq!(new.docs_for("houston"), &[second]);
        assert!(old.segment(second).is_none() && new.segment(first).is_none());
        let resumed = ShardedPostingsBuilder::resume(new.clone()).snapshot();
        assert!(Arc::ptr_eq(
            resumed.segment(second).expect("live"),
            new.segment(second).expect("live")
        ));
    }
}
