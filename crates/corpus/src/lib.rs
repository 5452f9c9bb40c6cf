//! The multi-document corpus layer of the eXtract reproduction.
//!
//! The paper evaluates on whole collections (DBLP-scale, 10^7+ nodes); the
//! per-document [`extract_index::XmlIndex`] alone cannot answer "which
//! documents should this query even run on?". This crate keeps many
//! documents in **one slot table**: each slot holds a document's name, its
//! `Document` and its engine ([`EngineParts`]: the index **segment**, the
//! entity model and the mined keys, all built once when the document
//! arrives) under one generational [`DocId`]. Beside the table, a token →
//! document directory ([`ShardedPostings`]) routes queries.
//!
//! * [`CorpusBuilder`] — **streaming** ingestion: each added document is
//!   indexed, analyzed and folded in immediately
//!   ([`CorpusBuilder::add_document`] / [`CorpusBuilder::add_parsed`]);
//!   there is no "collect everything, then index" phase, so a DBLP-scale
//!   generator run builds in one pass with peak memory equal to the
//!   retained documents plus their engines. A document that fails to
//!   parse is **rejected softly**: the builder reports the error and stays
//!   usable for every following document.
//! * [`Corpus`] — an immutable snapshot: the slot table, the directory,
//!   and query-routing via [`Corpus::candidate_docs_str`] (which documents
//!   contain every keyword of a query, plus the [`FanIn`] count of
//!   directory entries it touched) and [`Corpus::route`] (the same
//!   documents, each with the keywords' token ids in its segment).
//! * [`live::LiveCorpus`] — add/update/delete mutations, each publishing
//!   an [`std::sync::Arc`]`<Corpus>` snapshot under a bumped epoch while
//!   in-flight readers finish on the snapshot they hold.
//!
//! **One fold.** The builder and the live corpus drive the same writer: it
//! picks each document's slot (the slot of the live document with the
//! same name, else the lowest freed slot, else a new one), advances the
//! slot's generation, edits the directory, keeps the counts and the
//! rejection log, and packages snapshots. A name is one document: adding
//! a document under a name already present **updates it in place** —
//! same slot, next generation — in a cold build exactly as in a live
//! ingest.
//!
//! A slot holds a whole document: its engine ([`Corpus::engine`]) is
//! built beside it before it is published, and shared by every snapshot
//! that holds the document — a document is tokenized once and analyzed
//! once in its life, and no query waits for either. The query path itself
//! (per-document SLCA + XSeek snippet generation, merged across documents)
//! lives in the umbrella crate's `QuerySession`.
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

use std::collections::HashMap;
use std::sync::Arc;

use extract_core::EngineParts;
use extract_index::sharded::{ShardedPostings, ShardedPostingsBuilder};
use extract_xml::{Document, ParseOptions};

pub mod live;

pub use extract_index::sharded::{DocId, FanIn, Routes};
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
const DEFAULT_MAX_REJECTED: usize = 64;

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

/// One document in its slot: its full `(slot, generation)` identity, the
/// caller-supplied name, the document and its engine, whose index is the
/// document's segment. `Arc`-shared between the writer and every
/// published snapshot that still contains the document — a new generation
/// is a new entry.
#[derive(Debug)]
struct DocEntry {
    id: DocId,
    name: String,
    doc: Document,
    engine: EngineParts,
}

/// One slot of the table: its document, if any, and the generation the
/// slot's next document takes. The counter survives deletion, so reusing a
/// slot always yields a generation no stale cached id can carry.
#[derive(Debug, Clone, Default)]
struct Slot {
    entry: Option<Arc<DocEntry>>,
    next_generation: u32,
}

/// The one fold behind every corpus: the slot table and the directory,
/// edited one document at a time. [`CorpusBuilder`] runs it without a
/// lock; a [`LiveCorpus`] runs it under its writer mutex and publishes
/// after every mutation. No edit reads another document.
#[derive(Debug, Default)]
struct Writer {
    slots: Vec<Slot>,
    /// Free slot indices, kept sorted descending so `pop` yields the
    /// lowest slot first (dense reuse keeps slot tables short).
    free: Vec<usize>,
    /// Name → slot of the live document carrying it.
    by_name: HashMap<String, usize>,
    directory: ShardedPostingsBuilder,
    live: usize,
    total_nodes: usize,
    epoch: u64,
    rejected: Vec<String>,
    rejected_dropped: u64,
}

impl Writer {
    /// Continue from a snapshot: its slots, documents and directory lists
    /// are shared until an edit replaces them.
    fn resume(corpus: &Corpus) -> Writer {
        let mut by_name = HashMap::with_capacity(corpus.live);
        let mut free = Vec::new();
        for (index, slot) in corpus.slots.iter().enumerate().rev() {
            match &slot.entry {
                Some(entry) => {
                    by_name.insert(entry.name.clone(), index);
                }
                None => free.push(index),
            }
        }
        Writer {
            slots: corpus.slots.clone(),
            free,
            by_name,
            directory: ShardedPostingsBuilder::resume(corpus.directory.clone()),
            live: corpus.live,
            total_nodes: corpus.total_nodes,
            epoch: corpus.epoch,
            rejected: corpus.rejected.clone(),
            rejected_dropped: corpus.rejected_dropped,
        }
    }

    /// Put `doc`, with the `engine` built from it, under `name`: into the
    /// slot of the live document carrying `name` (which it replaces), else
    /// the lowest free slot, else a new one — under that slot's next
    /// generation. Returns the new id and the replaced entry, for the
    /// caller to free.
    fn put(
        &mut self,
        name: &str,
        doc: Document,
        engine: EngineParts,
    ) -> (DocId, Option<Arc<DocEntry>>) {
        let index = match self.by_name.get(name) {
            Some(&index) => index,
            None => {
                let index = self.free.pop().unwrap_or(self.slots.len());
                if index == self.slots.len() {
                    self.slots.push(Slot::default());
                }
                self.by_name.insert(name.to_string(), index);
                index
            }
        };
        // xlint: allow(L3, "index < slots.len(): it came from by_name or the free list, which name only existing slots, or from the push above")
        let slot = &mut self.slots[index];
        let id = DocId::from_parts(index, slot.next_generation);
        // xlint: allow(L3, "2^32 documents through one slot is unreachable, and wrapping would resurrect old ids (the ABA hazard the generation exists to kill)")
        slot.next_generation = id.generation().checked_add(1).expect("slot generation overflow");
        let entry = Arc::new(DocEntry { id, name: name.to_string(), doc, engine });
        let old = slot.entry.replace(Arc::clone(&entry));
        if let Some(old) = &old {
            self.forget(old);
        }
        self.directory.insert(id, entry.engine.index());
        self.live += 1;
        self.total_nodes += entry.doc.len();
        (id, old)
    }

    /// Delete the live document carrying `name`: its slot is freed for
    /// reuse at a later generation. Returns the entry, for the caller to
    /// free; `None` if no live document carries the name.
    fn remove(&mut self, name: &str) -> Option<Arc<DocEntry>> {
        let index = self.by_name.remove(name)?;
        let entry = self.slots.get_mut(index)?.entry.take()?;
        self.forget(&entry);
        let at = self.free.partition_point(|&free| free > index);
        self.free.insert(at, index);
        Some(entry)
    }

    /// Take a document that left its slot out of the directory and the
    /// counts.
    fn forget(&mut self, entry: &DocEntry) {
        self.directory.remove(entry.id, entry.engine.index());
        self.live -= 1;
        self.total_nodes -= entry.doc.len();
    }

    /// Append `name` to the bounded rejection log, counting (instead of
    /// retaining) everything past `max_rejected`.
    fn reject(&mut self, name: &str, max_rejected: usize) {
        if self.rejected.len() < max_rejected {
            self.rejected.push(name.to_string());
        } else {
            self.rejected_dropped += 1;
        }
    }

    /// Bump the epoch and package the current state as a snapshot:
    /// reference-count bumps, no document read.
    fn publish(&mut self) -> Arc<Corpus> {
        self.epoch += 1;
        Arc::new(Corpus {
            slots: self.slots.clone(),
            directory: self.directory.snapshot(),
            live: self.live,
            total_nodes: self.total_nodes,
            epoch: self.epoch,
            rejected: self.rejected.clone(),
            rejected_dropped: self.rejected_dropped,
        })
    }

    /// The final state as a snapshot at the current epoch.
    fn finish(self) -> Corpus {
        Corpus {
            slots: self.slots,
            directory: self.directory.finish(),
            live: self.live,
            total_nodes: self.total_nodes,
            epoch: self.epoch,
            rejected: self.rejected,
            rejected_dropped: self.rejected_dropped,
        }
    }
}

/// Streaming corpus builder: add documents one at a time, then
/// [`CorpusBuilder::finish`]. It is a [`LiveCorpus`]'s writer without the
/// lock, so a cold build assigns exactly the ids the same adds would get
/// through [`LiveCorpus::ingest`].
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    options: CorpusOptions,
    writer: Writer,
}

impl CorpusBuilder {
    /// A builder with default [`CorpusOptions`].
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// A builder with explicit options.
    pub fn with_options(options: CorpusOptions) -> CorpusBuilder {
        CorpusBuilder { options, writer: Writer::default() }
    }

    /// Parse `xml` and fold it in. A malformed document is rejected
    /// **softly**: the error is returned (and recorded in
    /// [`CorpusBuilder::rejected`]) but the builder remains fully usable —
    /// one bad file cannot poison a corpus ingestion run.
    pub fn add_document(&mut self, name: &str, xml: &str) -> Result<DocId, RejectedDocument> {
        match Document::parse_with(xml, &self.options.parse) {
            Ok(doc) => Ok(self.add_parsed(name, doc)),
            Err(error) => {
                self.writer.reject(name, self.options.max_rejected);
                Err(RejectedDocument { name: name.to_string(), error })
            }
        }
    }

    /// Build the engine of an already-parsed document and fold it in
    /// (generators hand documents over directly; no serialization
    /// round-trip). A name already added is updated in place: same slot,
    /// next generation.
    pub fn add_parsed(&mut self, name: &str, doc: Document) -> DocId {
        let engine = EngineParts::build(&doc);
        self.writer.put(name, doc, engine).0
    }

    /// Live documents folded in so far.
    pub fn len(&self) -> usize {
        self.writer.live
    }

    /// Whether nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.writer.live == 0
    }

    /// Total nodes (elements + text) across the documents added so far.
    pub fn total_nodes(&self) -> usize {
        self.writer.total_nodes
    }

    /// Names of the documents rejected so far (in rejection order, capped
    /// at [`CorpusOptions::max_rejected`] retained names).
    pub fn rejected(&self) -> &[String] {
        &self.writer.rejected
    }

    /// Rejections beyond the retention cap — counted, not named.
    pub fn rejected_dropped(&self) -> u64 {
        self.writer.rejected_dropped
    }

    /// Finalize into an immutable [`Corpus`] at epoch `0`. The rejection
    /// log is carried along ([`Corpus::rejected`]), so a serving layer can
    /// still report which inputs never made it in.
    pub fn finish(self) -> Corpus {
        self.writer.finish()
    }
}

/// An immutable multi-document corpus snapshot: the slot table of
/// documents behind stable generational [`DocId`]s, with their engines,
/// plus the token → document directory.
///
/// A freshly built corpus is dense, but a snapshot published by a
/// [`LiveCorpus`] can hold free slots where documents were deleted.
/// [`Corpus::len`] counts live documents; [`Corpus::slot_count`] is the
/// slot-array length.
#[derive(Debug)]
pub struct Corpus {
    slots: Vec<Slot>,
    directory: ShardedPostings,
    live: usize,
    total_nodes: usize,
    epoch: u64,
    rejected: Vec<String>,
    rejected_dropped: u64,
}

impl Corpus {
    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the corpus holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Length of the slot array (`>= len()`; the extra slots are freed by
    /// deletions and awaiting reuse). Slot-indexed side tables must use
    /// this, not [`Corpus::len`].
    // xlint: allow(L10, "the tests of crates/corpus/src/live.rs and crates/corpus/tests/proptests.rs watch slot reuse through it")
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// One past the highest live slot (0 when no document is live): the
    /// width of the id range this snapshot's documents occupy. A slot
    /// freed below a live one stays inside it, so a delete moves no other
    /// document's id; free slots at the top are outside it, so an ingest
    /// undone by its delete leaves the width where it was. Costs a step
    /// per free slot at the top.
    pub fn id_span(&self) -> usize {
        self.slots.iter().rposition(|slot| slot.entry.is_some()).map_or(0, |last| last + 1)
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

    /// The live entries in [`DocId`] order.
    fn entries(&self) -> impl Iterator<Item = &DocEntry> {
        self.slots.iter().filter_map(|slot| slot.entry.as_deref())
    }

    /// The entry of `id`: one slot lookup, one generation check.
    fn get(&self, id: DocId) -> Option<&DocEntry> {
        self.slots.get(id.index())?.entry.as_deref().filter(|entry| entry.id == id)
    }

    fn entry(&self, id: DocId) -> &DocEntry {
        match self.get(id) {
            Some(entry) => entry,
            // xlint: allow(L3, "documented contract of doc/name/engine: every serving caller passes ids routed on this very snapshot; answering for a foreign or stale id would serve another document's bytes")
            None => panic!("{id} does not resolve in this corpus snapshot"),
        }
    }

    /// The document behind `id`.
    ///
    /// # Panics
    /// If `id` did not come from this corpus snapshot — the slot is out
    /// of range or free, or the generation is stale (the ABA case: `id`
    /// outlived a delete or an update of its slot).
    pub fn doc(&self, id: DocId) -> &Document {
        &self.entry(id).doc
    }

    /// The caller-supplied name of `id`. Panics like [`Corpus::doc`].
    pub fn name(&self, id: DocId) -> &str {
        &self.entry(id).name
    }

    /// Whether `id` resolves in this snapshot (same slot *and* same
    /// generation) — the non-panicking probe for stale-id handling.
    pub fn contains(&self, id: DocId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate `(id, name, document)` over live documents in [`DocId`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &str, &Document)> {
        self.entries().map(|e| (e.id, e.name.as_str(), &e.doc))
    }

    /// All live ids in order.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.entries().map(|e| e.id)
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

    /// The query engine's offline artifacts for `id` — its index segment,
    /// entity model and mined keys, built when the document arrived and
    /// shared by every snapshot that holds the document. Panics like
    /// [`Corpus::doc`].
    pub fn engine(&self, id: DocId) -> &EngineParts {
        &self.entry(id).engine
    }

    /// The token → document directory.
    pub fn postings(&self) -> &ShardedPostings {
        &self.directory
    }

    /// The documents containing **every** one of the (already normalized)
    /// `keywords`, in ascending [`DocId`] order, plus the directory
    /// entries the routing touched ([`FanIn`]). A keyword absent from the
    /// whole corpus yields no candidates.
    pub fn candidate_docs_str(&self, keywords: &[&str]) -> (Vec<DocId>, FanIn) {
        let mut fanin = FanIn::default();
        let mut out = Vec::new();
        self.directory.candidate_docs(keywords, &mut out, &mut fanin);
        (out, fanin)
    }

    /// Route a query through the directory ([`ShardedPostings::route`]):
    /// the candidates of [`Corpus::candidate_docs_str`] land in `routes`,
    /// each beside the keywords' token ids in its segment
    /// (`self.engine(doc).index()`), so searching a candidate hashes no
    /// keyword again.
    pub fn route<S: AsRef<str>>(&self, keywords: &[S], routes: &mut Routes) {
        self.directory.route(keywords, routes);
    }

    /// Estimated heap footprint in bytes: the directory, the slot table,
    /// and each retained document's segment, name and columns (node
    /// columns, text buffers, label tables).
    pub fn memory_footprint(&self) -> usize {
        self.directory.memory_footprint()
            + self.slots.len() * std::mem::size_of::<Slot>()
            + self
                .entries()
                .map(|e| {
                    e.engine.index().memory_footprint() + e.doc.memory_footprint() + e.name.len()
                })
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
        let mut total = 0;
        for (id, _, doc) in corpus.iter() {
            let solo = extract_index::InvertedIndex::build(doc);
            let segment = corpus.engine(id).index();
            assert_eq!(segment.inverted().total_postings(), solo.total_postings());
            total += solo.total_postings();
            for (token, postings) in solo.iter() {
                assert_eq!(segment.postings(token), postings, "{token}");
            }
        }
        assert_eq!(corpus.postings().total_postings(), total);
        assert!(!corpus.contains(DocId::from_index(7)), "a slot past the table");
        assert!(!corpus.contains(DocId::from_parts(0, 1)), "a generation the slot never had");
    }
}
