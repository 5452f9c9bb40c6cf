//! Reload-free corpus mutation: a single-writer, epoch-swapped
//! [`LiveCorpus`].
//!
//! The query layers treat a [`Corpus`] as immutable — every cache keys
//! off a [`DocId`] and assumes the bytes behind it never change. This
//! module keeps that contract while still allowing add/update/delete:
//!
//! * A mutation costs its document. [`LiveCorpus::ingest`] parses and
//!   indexes the one document it was handed — before taking any lock —
//!   then, under the writer lock, edits the slot table and the directory
//!   lists of that document's distinct tokens
//!   ([`ShardedPostingsBuilder::insert`] / `remove`, the same fold a cold
//!   [`CorpusBuilder`] runs), packages a [`Corpus`] snapshot with
//!   `epoch + 1` and swaps it in as an [`Arc`]. [`LiveCorpus::delete`] is
//!   the directory edit alone. Neither reads another document: every
//!   untouched document's `Document` and index segment is the same `Arc`
//!   in the new snapshot as in the old, and a snapshot costs one
//!   reference per document and per directory token.
//! * Readers call [`LiveCorpus::snapshot`] per query and keep the `Arc`
//!   until they finish — RCU-style snapshot isolation with zero unsafe
//!   code. A swap never blocks readers beyond the brief publish lock.
//! * Deleting frees the document's slot; a later ingest reuses the
//!   lowest free slot under **generation + 1**, so any stale `DocId`
//!   cached before the delete refers to a `(slot, generation)` pair that
//!   no longer resolves — the generational-arena ABA fix. Re-ingesting an
//!   existing *name* updates in place: same slot, next generation.
//!
//! Lock order: `writer` before `published`. The writer lock serializes
//! mutations and covers slot bookkeeping, the directory edit and the
//! swap — never a parse or an index build; the publish lock is only ever
//! held for an `Arc` clone or swap.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use extract_index::sharded::ShardedPostingsBuilder;
use extract_index::XmlIndex;
use extract_obs::lock_unpoisoned;
use extract_xml::Document;

use crate::{
    record_rejection, Corpus, CorpusBuilder, CorpusOptions, DocEntry, DocId, RejectedDocument,
};

/// Where one mutation's time went. A delete neither parses nor indexes:
/// those stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationCost {
    /// XML parse of the ingested document.
    pub parse: Duration,
    /// Building the document's index segment.
    pub index: Duration,
    /// Waiting for the writer lock, slot bookkeeping, the directory edit
    /// and the snapshot swap.
    pub publish: Duration,
}

/// What one successful mutation did — everything a serving layer needs
/// for targeted cache invalidation, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// The epoch of the snapshot this mutation published.
    pub epoch: u64,
    /// The id the mutation acted on: the ingested document's new id, or
    /// the deleted document's (now dead) id.
    pub id: DocId,
    /// For an in-place update (ingest under an existing name): the
    /// replaced document's previous id — same slot, older generation.
    pub replaced: Option<DocId>,
    /// Time spent per phase.
    pub cost: MutationCost,
}

/// The single-writer slot table behind a [`LiveCorpus`].
#[derive(Debug)]
struct Writer {
    /// Segments + directory, edited one document at a time.
    postings: ShardedPostingsBuilder,
    /// Slot → live document (`None` = freed, awaiting reuse).
    slots: Vec<Option<Arc<DocEntry>>>,
    /// Slot → the *next* generation to hand out. Survives deletion
    /// (freeing a slot does not reset its counter), so reusing the slot
    /// always yields a generation no stale cached id can carry.
    generations: Vec<u32>,
    /// Free slot indices, kept sorted descending so `pop` yields the
    /// lowest slot first (dense reuse keeps slot tables short).
    free: Vec<u32>,
    /// Name → slot of the live document carrying it (ingest under an
    /// existing name updates that slot in place).
    by_name: HashMap<String, u32>,
    epoch: u64,
    total_nodes: usize,
    rejected: Vec<String>,
    rejected_dropped: u64,
}

impl Writer {
    /// Bump the epoch and package the current state as a snapshot:
    /// reference-count bumps, no document read.
    fn publish(&mut self) -> Arc<Corpus> {
        self.epoch += 1;
        Arc::new(Corpus::from_live_parts(
            self.postings.snapshot(),
            self.slots.clone(),
            self.total_nodes,
            self.epoch,
            self.rejected.clone(),
            self.rejected_dropped,
        ))
    }
}

/// A mutable corpus publishing immutable [`Corpus`] snapshots (see the
/// module docs for the cost model and the isolation and ABA guarantees).
#[derive(Debug)]
pub struct LiveCorpus {
    options: CorpusOptions,
    writer: Mutex<Writer>,
    published: Mutex<Arc<Corpus>>,
}

impl LiveCorpus {
    /// An empty live corpus with default [`CorpusOptions`].
    pub fn new() -> LiveCorpus {
        LiveCorpus::with_options(CorpusOptions::default())
    }

    /// An empty live corpus with explicit options.
    pub fn with_options(options: CorpusOptions) -> LiveCorpus {
        LiveCorpus::from_corpus_with_options(CorpusBuilder::new().finish(), options)
    }

    /// Wrap an already-built corpus (its documents keep their ids and
    /// segments; its rejection log carries over) with default options for
    /// future mutations.
    pub fn from_corpus(corpus: Corpus) -> LiveCorpus {
        LiveCorpus::from_corpus_with_options(corpus, CorpusOptions::default())
    }

    /// [`LiveCorpus::from_corpus`] with explicit mutation options. If two
    /// seed documents share a name, the later slot owns the name for
    /// update/delete addressing.
    pub fn from_corpus_with_options(corpus: Corpus, options: CorpusOptions) -> LiveCorpus {
        let mut by_name = HashMap::new();
        let mut generations = Vec::with_capacity(corpus.slots.len());
        let mut free = Vec::new();
        for (slot, entry) in corpus.slots.iter().enumerate() {
            // xlint: allow(L3, "constructor invariant: >4Gi slots is unbuildable, and truncating the id would alias another document — a loud stop is the only sound response")
            let slot_u32 = u32::try_from(slot).expect("slot count exceeds u32::MAX");
            match entry.as_deref() {
                Some(e) => {
                    // xlint: allow(L3, "2^32 generations of one slot is unreachable; wrapping would resurrect old ids (the ABA hazard the generation exists to kill)")
                    generations.push(e.id.generation().checked_add(1).expect("slot generation overflow"));
                    by_name.insert(e.name.clone(), slot_u32);
                }
                None => {
                    // A free slot's generation history is not recoverable
                    // from a snapshot; it restarts at 0. Seed from dense
                    // (builder-fresh) corpora when stale ids may be
                    // cached elsewhere.
                    generations.push(0);
                    free.push(slot_u32);
                }
            }
        }
        free.reverse();
        let writer = Writer {
            postings: ShardedPostingsBuilder::resume(corpus.postings.clone()),
            slots: corpus.slots.clone(),
            generations,
            free,
            by_name,
            epoch: corpus.epoch,
            total_nodes: corpus.total_nodes,
            rejected: corpus.rejected.clone(),
            rejected_dropped: corpus.rejected_dropped,
        };
        LiveCorpus {
            options,
            writer: Mutex::new(writer),
            published: Mutex::new(Arc::new(corpus)),
        }
    }

    /// The current snapshot. Queries clone the `Arc` once and run to
    /// completion on it; later mutations publish new snapshots without
    /// disturbing it.
    pub fn snapshot(&self) -> Arc<Corpus> {
        lock_unpoisoned(&self.published).clone()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Swap `snapshot` in and hand the one it replaces back, so the
    /// caller can let go of it — possibly its last reference, a whole
    /// directory to free — after the writer lock is released.
    fn swap(&self, snapshot: Arc<Corpus>) -> Arc<Corpus> {
        std::mem::replace(&mut *lock_unpoisoned(&self.published), snapshot)
    }

    /// Parse and index `xml`, then publish a snapshot containing it. An
    /// existing live document named `name` is **updated in place** (same
    /// slot, next generation); otherwise the lowest free slot is reused
    /// under its next generation, or a fresh slot is appended.
    ///
    /// A malformed document is rejected softly, exactly like
    /// [`CorpusBuilder::add_document`]: the error is returned, the
    /// bounded rejection log records it, and nothing else changes — no
    /// slot is consumed, no epoch is bumped.
    pub fn ingest(&self, name: &str, xml: &str) -> Result<Mutation, RejectedDocument> {
        let started = Instant::now();
        let doc = match Document::parse_with(xml, &self.options.parse) {
            Ok(doc) => doc,
            Err(error) => {
                let writer = &mut *lock_unpoisoned(&self.writer);
                let max = self.options.max_rejected;
                record_rejection(&mut writer.rejected, &mut writer.rejected_dropped, max, name);
                return Err(RejectedDocument { name: name.to_string(), error });
            }
        };
        let parsed = Instant::now();
        let segment = Arc::new(XmlIndex::build(&doc));
        let indexed = Instant::now();

        let mut writer = lock_unpoisoned(&self.writer);
        let (slot, replaced) = match writer.by_name.get(name) {
            Some(&slot) => {
                let live = writer.slots.get(slot as usize).and_then(|s| s.as_deref());
                (slot, live.map(|e| e.id))
            }
            None => match writer.free.pop() {
                Some(slot) => (slot, None),
                None => {
                    // xlint: allow(L3, "appending the 2^32nd slot is unreachable; truncating the id would alias another document")
                    let slot = u32::try_from(writer.slots.len()).expect("corpus exceeds u32::MAX slots");
                    writer.slots.push(None);
                    writer.generations.push(0);
                    (slot, None)
                }
            },
        };
        let index = slot as usize;
        // xlint: allow(L3, "index < generations.len(): the slot came from by_name, the free list, or the push above, and generations grows in lockstep with slots")
        let generation = writer.generations[index];
        // xlint: allow(L3, "same bound; overflow needs 2^32 mutations of one slot, and wrapping would resurrect old generations (ABA)")
        writer.generations[index] = generation.checked_add(1).expect("slot generation overflow");
        let id = DocId::from_parts(index, generation);
        // xlint: allow(L3, "same bound: index < slots.len() by the writer's own bookkeeping")
        let old = writer.slots[index].take();
        if let Some(old) = &old {
            writer.total_nodes -= old.doc.len();
            writer.postings.remove(old.id);
        }
        writer.total_nodes += doc.len();
        writer.postings.insert(id, segment);
        // xlint: allow(L3, "same bound: index < slots.len() by the writer's own bookkeeping")
        writer.slots[index] = Some(Arc::new(DocEntry { id, name: name.to_string(), doc }));
        writer.by_name.insert(name.to_string(), slot);
        let retired = self.swap(writer.publish());
        let epoch = writer.epoch;
        // What the mutation let go of — the replaced document and, if no
        // reader still holds it, the previous snapshot — is freed after
        // the lock, not under it.
        drop(writer);
        drop((old, retired));
        let cost = MutationCost {
            parse: parsed - started,
            index: indexed - parsed,
            publish: indexed.elapsed(),
        };
        Ok(Mutation { epoch, id, replaced, cost })
    }

    /// Delete the live document named `name` and publish a snapshot
    /// without it. Its slot is freed for reuse (at a later generation);
    /// `None` if no live document carries the name — nothing changes and
    /// no epoch is bumped.
    pub fn delete(&self, name: &str) -> Option<Mutation> {
        let started = Instant::now();
        let mut writer = lock_unpoisoned(&self.writer);
        let slot = writer.by_name.remove(name)?;
        // xlint: allow(L3, "by_name maps only to occupied slots; a miss here is corrupted bookkeeping and must stop loudly, not serve wrong documents")
        let entry = writer.slots[slot as usize].take().expect("named slot must be occupied");
        writer.total_nodes -= entry.doc.len();
        writer.postings.remove(entry.id);
        let at = writer.free.partition_point(|&free| free > slot);
        writer.free.insert(at, slot);
        let retired = self.swap(writer.publish());
        let epoch = writer.epoch;
        drop(writer);
        let id = entry.id;
        drop((entry, retired));
        let cost = MutationCost { publish: started.elapsed(), ..MutationCost::default() };
        Some(Mutation { epoch, id, replaced: None, cost })
    }

    /// The rejection log: retained names (bounded by
    /// [`CorpusOptions::max_rejected`]) plus the count of rejections
    /// dropped past the bound.
    pub fn rejection_stats(&self) -> (usize, u64) {
        let writer = lock_unpoisoned(&self.writer);
        (writer.rejected.len(), writer.rejected_dropped)
    }
}

impl Default for LiveCorpus {
    fn default() -> Self {
        LiveCorpus::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORES: &str = "<stores><store><name>Levis</name><state>Texas</state></store>\
         <store><name>Gap</name><state>Ohio</state></store></stores>";
    const DBLP: &str = "<dblp><paper><title>texas keyword search</title>\
         <venue>VLDB</venue></paper></dblp>";
    const SHOPS: &str = "<shops><shop><city>Austin</city></shop></shops>";

    fn seeded() -> LiveCorpus {
        let mut b = CorpusBuilder::new();
        b.add_document("stores", STORES).unwrap();
        b.add_document("dblp", DBLP).unwrap();
        LiveCorpus::from_corpus(b.finish())
    }

    #[test]
    fn ingest_appends_and_bumps_epoch() {
        let live = seeded();
        assert_eq!(live.epoch(), 0);
        let m = live.ingest("shops", SHOPS).unwrap();
        assert_eq!(m.epoch, 1);
        assert_eq!(m.id, DocId::from_parts(2, 0));
        assert_eq!(m.replaced, None);
        let snap = live.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.epoch(), 1);
        let (docs, _) = snap.candidate_docs_str(&["austin"]);
        assert_eq!(docs, vec![m.id]);
    }

    #[test]
    fn update_in_place_keeps_slot_and_bumps_generation() {
        let live = seeded();
        let m = live.ingest("stores", SHOPS).unwrap();
        assert_eq!(m.id, DocId::from_parts(0, 1), "same slot, next generation");
        assert_eq!(m.replaced, Some(DocId::from_parts(0, 0)));
        let snap = live.snapshot();
        assert_eq!(snap.len(), 2, "update does not grow the corpus");
        assert!(!snap.contains(DocId::from_parts(0, 0)), "old generation is gone");
        assert!(snap.contains(m.id));
        let (docs, _) = snap.candidate_docs_str(&["levis"]);
        assert!(docs.is_empty(), "the old content is unfindable");
    }

    #[test]
    fn delete_then_reinsert_reuses_the_slot_at_a_new_generation() {
        let live = seeded();
        let old = live.delete("stores").expect("live document");
        assert_eq!(old.id, DocId::from_parts(0, 0));
        let snap = live.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.slot_count(), 2, "the slot stays allocated");
        assert!(!snap.contains(old.id));
        // ABA: the reinserted document lands in slot 0 — generation 1.
        let m = live.ingest("shops", SHOPS).unwrap();
        assert_eq!(m.id, DocId::from_parts(0, 1));
        let snap = live.snapshot();
        assert!(!snap.contains(old.id), "stale id must not resolve to the new doc");
        assert_eq!(snap.name(m.id), "shops");
        assert_eq!(snap.epoch(), 2);
    }

    #[test]
    fn snapshots_are_isolated_from_later_mutations() {
        let live = seeded();
        let before = live.snapshot();
        live.delete("stores").unwrap();
        live.ingest("shops", SHOPS).unwrap();
        // The old snapshot still answers exactly as taken.
        assert_eq!(before.len(), 2);
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.name(DocId::from_parts(0, 0)), "stores");
        let (docs, _) = before.candidate_docs_str(&["levis"]);
        assert_eq!(docs.len(), 1);
        // And the new one reflects both mutations.
        let after = live.snapshot();
        assert_eq!(after.epoch(), 2);
        let (docs, _) = after.candidate_docs_str(&["austin"]);
        assert_eq!(docs.len(), 1);
    }

    #[test]
    fn rejection_is_soft_and_bounded() {
        let options = CorpusOptions { max_rejected: 2, ..Default::default() };
        let live = LiveCorpus::with_options(options);
        for i in 0..5 {
            let err = live.ingest(&format!("bad-{i}"), "<oops>").unwrap_err();
            assert_eq!(err.name, format!("bad-{i}"));
        }
        assert_eq!(live.epoch(), 0, "rejections publish nothing");
        assert_eq!(live.rejection_stats(), (2, 3), "2 retained, 3 counted");
        // The writer still works after a burst of garbage.
        live.ingest("ok", SHOPS).unwrap();
        assert_eq!(live.snapshot().len(), 1);
    }

    #[test]
    fn delete_of_unknown_name_is_a_noop() {
        let live = seeded();
        assert!(live.delete("nope").is_none());
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.snapshot().len(), 2);
    }

    #[test]
    fn empty_live_corpus_grows_from_nothing() {
        let live = LiveCorpus::new();
        assert!(live.snapshot().is_empty());
        let m = live.ingest("first", STORES).unwrap();
        assert_eq!(m.id, DocId::from_parts(0, 0));
        assert_eq!(live.snapshot().len(), 1);
    }

    #[test]
    fn freed_low_slots_are_reused_lowest_first() {
        let live = LiveCorpus::new();
        live.ingest("a", STORES).unwrap();
        live.ingest("b", DBLP).unwrap();
        live.ingest("c", SHOPS).unwrap();
        live.delete("b").unwrap();
        live.delete("a").unwrap();
        let m = live.ingest("d", SHOPS).unwrap();
        assert_eq!(m.id.index(), 0, "lowest free slot first");
        assert_eq!(m.id.generation(), 1);
        let m = live.ingest("e", SHOPS).unwrap();
        assert_eq!(m.id.index(), 1);
        assert_eq!(live.snapshot().slot_count(), 3, "no slot growth while holes exist");
    }

    #[test]
    fn a_thousand_freed_slots_are_reused_lowest_first() {
        let live = LiveCorpus::new();
        for i in 0..1_000 {
            live.ingest(&format!("d{i}"), SHOPS).unwrap();
        }
        // Free them in an order that is neither ascending nor descending.
        for i in (0..1_000).map(|i| (i * 7) % 1_000) {
            live.delete(&format!("d{i}")).unwrap();
        }
        assert!(live.snapshot().is_empty());
        for i in 0..1_000 {
            let m = live.ingest(&format!("again-{i}"), SHOPS).unwrap();
            assert_eq!(m.id, DocId::from_parts(i, 1), "lowest free slot, next generation");
        }
        assert_eq!(live.snapshot().slot_count(), 1_000);
    }

    // A mutation costs its document: every other document's entry and
    // segment is the same allocation in the new snapshot as in the old.
    #[test]
    fn untouched_documents_are_shared_not_rebuilt() {
        let live = seeded();
        live.ingest("shops", SHOPS).unwrap();
        let steps: [&dyn Fn() -> Mutation; 3] = [
            &|| live.ingest("more", DBLP).unwrap(),
            &|| live.ingest("stores", SHOPS).unwrap(),
            &|| live.delete("dblp").unwrap(),
        ];
        for step in steps {
            let before = live.snapshot();
            let (texas, _) = before.candidate_docs_str(&["texas"]);
            let mutation = step();
            let after = live.snapshot();
            let mut shared = 0;
            for id in before.doc_ids().filter(|&id| after.contains(id)) {
                assert!(Arc::ptr_eq(before.segment(id), after.segment(id)), "{id} re-indexed");
                assert!(std::ptr::eq(before.doc(id), after.doc(id)), "{id} copied");
                shared += 1;
            }
            let gone = mutation.replaced.is_some() || before.contains(mutation.id);
            assert_eq!(shared, before.len() - usize::from(gone));
            // The old snapshot still answers exactly as taken.
            assert_eq!(before.candidate_docs_str(&["texas"]).0, texas);
            assert_eq!(before.epoch() + 1, after.epoch());
        }
    }

    // Churn is bounded: a document that came and went leaves nothing
    // behind — not its tokens, not its directory entries, not its slot.
    #[test]
    fn ingest_delete_churn_leaves_vocabulary_and_footprint_where_they_started() {
        let live = seeded();
        // One round first, so the slot the churn reuses already exists.
        live.ingest("transient", SHOPS).unwrap();
        live.delete("transient").unwrap();
        let start = live.snapshot();
        let vocabulary = start.postings().vocabulary_size();
        let footprint = start.memory_footprint();
        for i in 0..2_000 {
            let xml = format!("<stores><store><name>unique{i} only{i}</name></store></stores>");
            live.ingest("transient", &xml).unwrap();
            assert_eq!(live.snapshot().postings().vocabulary_size(), vocabulary + 2);
            live.delete("transient").unwrap();
        }
        let end = live.snapshot();
        assert_eq!(end.postings().vocabulary_size(), vocabulary);
        assert_eq!(end.slot_count(), start.slot_count(), "the freed slot is reused every time");
        assert_eq!(end.memory_footprint(), footprint);
        live.delete("stores").unwrap();
        live.delete("dblp").unwrap();
        let empty = live.snapshot();
        assert_eq!(empty.postings().vocabulary_size(), 0, "delete-all empties the directory");
        assert_eq!(empty.postings().total_postings(), 0);
    }
}
