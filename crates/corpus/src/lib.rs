//! The multi-document corpus layer of the eXtract reproduction.
//!
//! The paper evaluates on whole collections (DBLP-scale, 10^7+ nodes); the
//! per-document [`extract_index::XmlIndex`] alone cannot answer "which
//! documents should this query even run on?". This crate owns many
//! documents behind stable [`DocId`]s, each with its index **segment**
//! (its `Arc<XmlIndex>`, built once when the document arrives), and a
//! token → document directory over them:
//!
//! * [`CorpusBuilder`] — **streaming** ingestion: each added document is
//!   indexed and folded into the shared [`ShardedPostings`] immediately
//!   ([`CorpusBuilder::add_document`] / [`CorpusBuilder::add_parsed`]);
//!   there is no "collect everything, then index" phase, so a DBLP-scale
//!   generator run builds in one pass with peak memory equal to the
//!   retained documents plus their segments. A document that fails to
//!   parse is **rejected softly**: the builder reports the error and stays
//!   usable for every following document.
//! * [`Corpus`] — the immutable result: documents, names, segments, the
//!   directory, and query-routing via [`Corpus::candidate_docs_str`]
//!   (which documents contain every keyword of a query, plus the [`FanIn`]
//!   work counters the corpus benchmark reports).
//!
//! The query path itself (per-document SLCA + XSeek snippet generation,
//! merged across documents) lives in the umbrella crate's `QuerySession`,
//! which wraps a [`Corpus`] with lazily-built per-document engines over
//! the corpus's own segments ([`Corpus::segment`]) — a document is
//! tokenized once in its life.
//!
//! A corpus is **slotted**: each document occupies a dense slot and its
//! [`DocId`] carries the slot's reuse *generation*. A corpus built once
//! ([`CorpusBuilder`]) is dense and all-generation-`0`; the [`live`]
//! module wraps corpora in a [`live::LiveCorpus`] writer that applies
//! add/update/delete mutations — the same fold the builder runs, one
//! document at a time — and atomically publishes an
//! [`std::sync::Arc`]`<Corpus>` snapshot under a bumped epoch, while
//! in-flight readers finish on the snapshot they hold.
//!
//! ```
//! use extract_corpus::CorpusBuilder;
//!
//! let mut b = CorpusBuilder::new();
//! b.add_document("stores", "<stores><store><name>Levis</name>\
//!     <state>Texas</state></store></stores>").unwrap();
//! b.add_document("bad", "<oops>").unwrap_err(); // soft-rejected
//! b.add_document("dblp", "<dblp><paper><title>texas search</title>\
//!     </paper></dblp>").unwrap();
//! let corpus = b.finish();
//! assert_eq!(corpus.len(), 2);
//! let (docs, _fanin) = corpus.candidate_docs_str(&["texas"]);
//! assert_eq!(docs.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use extract_index::sharded::{ShardedPostings, ShardedPostingsBuilder};
use extract_index::XmlIndex;
use extract_xml::{Document, ParseOptions};

pub mod live;

pub use extract_index::sharded::{DocId, FanIn};
pub use live::{LiveCorpus, Mutation, MutationCost};

/// Why a document was rejected during ingestion.
#[derive(Debug)]
pub struct RejectedDocument {
    /// The name the caller supplied.
    pub name: String,
    /// The parse error.
    pub error: extract_xml::Error,
}

impl std::fmt::Display for RejectedDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "document `{}` rejected: {}", self.name, self.error)
    }
}

impl std::error::Error for RejectedDocument {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Default cap on retained rejection-log entries
/// ([`CorpusOptions::max_rejected`]).
pub const DEFAULT_MAX_REJECTED: usize = 64;

/// Ingestion options.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Parser options for [`CorpusBuilder::add_document`].
    pub parse: ParseOptions,
    /// Cap on retained rejection-log names. A hostile ingest stream can
    /// push unbounded malformed documents at a live daemon; beyond this
    /// many retained names the log stops growing and further rejections
    /// are only *counted* ([`Corpus::rejected_dropped`]).
    pub max_rejected: usize,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            parse: ParseOptions::default(),
            max_rejected: DEFAULT_MAX_REJECTED,
        }
    }
}

/// One retained document with its caller-supplied name and its full
/// `(slot, generation)` identity. `Arc`-shared between a live writer and
/// every published corpus snapshot that still contains the document.
#[derive(Debug)]
struct DocEntry {
    id: DocId,
    name: String,
    doc: Document,
}

/// Streaming corpus builder: add documents one at a time, then
/// [`CorpusBuilder::finish`].
#[derive(Debug)]
pub struct CorpusBuilder {
    options: CorpusOptions,
    postings: ShardedPostingsBuilder,
    docs: Vec<Arc<DocEntry>>,
    total_nodes: usize,
    rejected: Vec<String>,
    rejected_dropped: u64,
}

impl Default for CorpusBuilder {
    fn default() -> Self {
        CorpusBuilder::new()
    }
}

impl CorpusBuilder {
    /// A builder with default [`CorpusOptions`].
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::with_options(CorpusOptions::default())
    }

    /// A builder with explicit options.
    pub fn with_options(options: CorpusOptions) -> CorpusBuilder {
        CorpusBuilder {
            options,
            postings: ShardedPostingsBuilder::new(),
            docs: Vec::new(),
            total_nodes: 0,
            rejected: Vec::new(),
            rejected_dropped: 0,
        }
    }

    /// Parse `xml` and fold it in. A malformed document is rejected
    /// **softly**: the error is returned (and recorded in
    /// [`CorpusBuilder::rejected`]) but the builder remains fully usable —
    /// one bad file cannot poison a corpus ingestion run.
    pub fn add_document(&mut self, name: &str, xml: &str) -> Result<DocId, RejectedDocument> {
        match Document::parse_with(xml, &self.options.parse) {
            Ok(doc) => Ok(self.add_parsed(name, doc)),
            Err(error) => {
                record_rejection(
                    &mut self.rejected,
                    &mut self.rejected_dropped,
                    self.options.max_rejected,
                    name,
                );
                Err(RejectedDocument { name: name.to_string(), error })
            }
        }
    }

    /// Index an already-parsed document and fold it in (generators hand
    /// documents over directly; no serialization round-trip).
    pub fn add_parsed(&mut self, name: &str, doc: Document) -> DocId {
        let id = self.postings.add_document(&doc);
        debug_assert_eq!(id.index(), self.docs.len());
        self.total_nodes += doc.len();
        self.docs.push(Arc::new(DocEntry { id, name: name.to_string(), doc }));
        id
    }

    /// Documents folded in so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total nodes (elements + text) across the documents added so far.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Names of the documents rejected so far (in rejection order, capped
    /// at [`CorpusOptions::max_rejected`] retained names).
    pub fn rejected(&self) -> &[String] {
        &self.rejected
    }

    /// Rejections beyond the retention cap — counted, not named.
    pub fn rejected_dropped(&self) -> u64 {
        self.rejected_dropped
    }

    /// Finalize into an immutable [`Corpus`] (dense slots, all generation
    /// `0`, epoch `0`). The rejection log is carried along
    /// ([`Corpus::rejected`]), so a serving layer can still report which
    /// inputs never made it in.
    pub fn finish(self) -> Corpus {
        let live = self.docs.len();
        Corpus {
            postings: self.postings.finish(),
            slots: self.docs.into_iter().map(Some).collect(),
            live,
            total_nodes: self.total_nodes,
            epoch: 0,
            rejected: self.rejected,
            rejected_dropped: self.rejected_dropped,
        }
    }
}

/// Append `name` to a bounded rejection log, counting (instead of
/// retaining) everything past `max_rejected`.
fn record_rejection(log: &mut Vec<String>, dropped: &mut u64, max_rejected: usize, name: &str) {
    if log.len() < max_rejected {
        log.push(name.to_string());
    } else {
        *dropped += 1;
    }
}

/// An immutable multi-document corpus snapshot: documents behind stable
/// generational [`DocId`]s plus their index segments and the token →
/// document directory.
///
/// Documents live in *slots*; a freshly built corpus is dense, but a
/// snapshot published by a [`LiveCorpus`] can hold free slots where
/// documents were deleted. [`Corpus::len`] counts live documents;
/// [`Corpus::slot_count`] is the slot-array length (what a per-slot
/// engine table must be sized to).
#[derive(Debug)]
pub struct Corpus {
    postings: ShardedPostings,
    slots: Vec<Option<Arc<DocEntry>>>,
    live: usize,
    total_nodes: usize,
    epoch: u64,
    rejected: Vec<String>,
    rejected_dropped: u64,
}

impl Corpus {
    /// Assemble a snapshot from a live writer's slot table (crate-private:
    /// the invariants — `live`/`total_nodes` matching the slots, a segment
    /// under each entry's exact id — are the writer's to uphold).
    pub(crate) fn from_live_parts(
        postings: ShardedPostings,
        slots: Vec<Option<Arc<DocEntry>>>,
        total_nodes: usize,
        epoch: u64,
        rejected: Vec<String>,
        rejected_dropped: u64,
    ) -> Corpus {
        let live = slots.iter().filter(|s| s.is_some()).count();
        Corpus { postings, slots, live, total_nodes, epoch, rejected, rejected_dropped }
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the corpus holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Length of the slot array (`>= len()`; the extra slots are freed by
    /// deletions and awaiting reuse). Slot-indexed side tables — like a
    /// query session's per-document engine array — must use this, not
    /// [`Corpus::len`].
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The mutation epoch this snapshot was published under (`0` for a
    /// corpus built once by [`CorpusBuilder`]; a [`LiveCorpus`] bumps it
    /// on every successful mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total nodes (elements + text) across all live documents.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// The document behind `id`.
    ///
    /// # Panics
    /// If `id` did not come from this corpus snapshot — the slot is out
    /// of range or free, or the generation is stale (the ABA case: `id`
    /// outlived a delete + slot reuse).
    pub fn doc(&self, id: DocId) -> &Document {
        &self.entry(id).doc
    }

    /// The caller-supplied name of `id`. Panics like [`Corpus::doc`].
    pub fn name(&self, id: DocId) -> &str {
        &self.entry(id).name
    }

    fn entry(&self, id: DocId) -> &DocEntry {
        let entry = self.slots[id.index()]
            .as_deref()
            .expect("DocId refers to a deleted document slot");
        assert_eq!(entry.id, id, "stale DocId generation for slot {}", id.index());
        entry
    }

    /// Whether `id` resolves in this snapshot (same slot *and* same
    /// generation) — the non-panicking probe for stale-id handling.
    pub fn contains(&self, id: DocId) -> bool {
        id.index() < self.slots.len()
            && self.slots[id.index()].as_deref().is_some_and(|e| e.id == id)
    }

    /// Iterate `(id, name, document)` over live documents in [`DocId`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &str, &Document)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_deref())
            .map(|e| (e.id, e.name.as_str(), &e.doc))
    }

    /// All live ids in order.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.slots.iter().filter_map(|s| s.as_deref()).map(|e| e.id)
    }

    /// Names of the documents soft-rejected during ingestion (in
    /// rejection order, capped at [`CorpusOptions::max_rejected`]) — the
    /// builder's log, preserved so a long-lived serving layer can report
    /// ingestion health (`/stats`).
    pub fn rejected(&self) -> &[String] {
        &self.rejected
    }

    /// Rejections past the retention cap (counted, not named).
    pub fn rejected_dropped(&self) -> u64 {
        self.rejected_dropped
    }

    /// The index segment of `id` — the one `Arc<XmlIndex>` built when the
    /// document arrived, shared by every snapshot that contains it and by
    /// the query engine of that document. Panics like [`Corpus::doc`].
    pub fn segment(&self, id: DocId) -> &Arc<XmlIndex> {
        self.postings.segment(id).expect("DocId does not resolve in this corpus snapshot")
    }

    /// The segments and the token → document directory.
    pub fn postings(&self) -> &ShardedPostings {
        &self.postings
    }

    /// The documents containing **every** one of the (already normalized)
    /// `keywords`, in ascending [`DocId`] order, plus the index-entry
    /// fan-in the routing touched. A keyword absent from the whole corpus
    /// yields no candidates.
    pub fn candidate_docs_str(&self, keywords: &[&str]) -> (Vec<DocId>, FanIn) {
        let mut fanin = FanIn::default();
        let mut out = Vec::new();
        self.postings.candidate_docs(keywords, &mut out, &mut fanin);
        (out, fanin)
    }

    /// Estimated heap footprint in bytes: segments and directory plus
    /// the retained documents (node columns, text buffers, label tables).
    pub fn memory_footprint(&self) -> usize {
        self.postings.memory_footprint()
            + self
                .slots
                .iter()
                .filter_map(|s| s.as_deref())
                .map(|e| e.doc.memory_footprint() + e.name.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORES: &str = "<stores><store><name>Levis</name><state>Texas</state></store>\
         <store><name>Gap</name><state>Ohio</state></store></stores>";
    const DBLP: &str = "<dblp><paper><title>texas keyword search</title>\
         <venue>VLDB</venue></paper></dblp>";

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document("stores", STORES).unwrap();
        b.add_document("dblp", DBLP).unwrap();
        b.finish()
    }

    #[test]
    fn builder_assigns_dense_ids_in_order() {
        let mut b = CorpusBuilder::new();
        let a = b.add_document("a", STORES).unwrap();
        let c = b.add_document("b", DBLP).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        assert_eq!(b.len(), 2);
        assert!(b.total_nodes() > 0);
        let corpus = b.finish();
        assert_eq!(corpus.name(a), "a");
        assert_eq!(corpus.name(c), "b");
        assert_eq!(corpus.doc(a).label_str(corpus.doc(a).root()), Some("stores"));
    }

    #[test]
    fn malformed_document_is_rejected_softly() {
        let mut b = CorpusBuilder::new();
        b.add_document("ok-1", STORES).unwrap();
        let err = b.add_document("broken", "<a><b></a>").unwrap_err();
        assert_eq!(err.name, "broken");
        assert!(err.to_string().contains("broken"));
        assert!(std::error::Error::source(&err).is_some());
        // The builder keeps working and the bad document left no trace.
        let id = b.add_document("ok-2", DBLP).unwrap();
        assert_eq!(id.index(), 1, "rejected docs consume no DocId");
        assert_eq!(b.rejected(), &["broken".to_string()]);
        let corpus = b.finish();
        assert_eq!(corpus.len(), 2);
        // The rejection log survives `finish` for the serving layer.
        assert_eq!(corpus.rejected(), &["broken".to_string()]);
        let (docs, _) = corpus.candidate_docs_str(&["texas"]);
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn candidate_docs_route_queries() {
        let corpus = corpus();
        let (both, _) = corpus.candidate_docs_str(&["texas"]);
        assert_eq!(both.len(), 2);
        let (stores_only, _) = corpus.candidate_docs_str(&["texas", "store"]);
        assert_eq!(stores_only, vec![DocId::from_index(0)]);
        let (none, _) = corpus.candidate_docs_str(&["texas", "zzz"]);
        assert!(none.is_empty());
        let (empty, _) = corpus.candidate_docs_str(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn iteration_and_footprint() {
        let corpus = corpus();
        let names: Vec<&str> = corpus.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["stores", "dblp"]);
        assert_eq!(corpus.doc_ids().count(), 2);
        assert!(corpus.memory_footprint() > 0);
        assert_eq!(
            corpus.total_nodes(),
            corpus.iter().map(|(_, _, d)| d.len()).sum::<usize>()
        );
    }

    #[test]
    fn empty_corpus() {
        let corpus = CorpusBuilder::new().finish();
        assert!(corpus.is_empty());
        let (docs, _) = corpus.candidate_docs_str(&["anything"]);
        assert!(docs.is_empty());
    }

    #[test]
    fn a_documents_segment_is_its_standalone_index() {
        let corpus = corpus();
        for (id, _, doc) in corpus.iter() {
            let solo = extract_index::InvertedIndex::build(doc);
            assert_eq!(corpus.segment(id).inverted().total_postings(), solo.total_postings());
            for (token, postings) in solo.iter() {
                assert_eq!(corpus.postings().postings_in_doc(token, id), postings, "{token}");
            }
        }
    }
}
