//! Reload-free corpus mutation: a single-writer, epoch-swapped
//! [`LiveCorpus`].
//!
//! The query layers treat a [`Corpus`] as immutable — every cache keys
//! off a [`DocId`] and assumes the bytes behind it never change. This
//! module keeps that contract while still allowing add/update/delete:
//!
//! * A mutation costs its document. [`LiveCorpus::ingest`] parses the one
//!   document it was handed and builds its engine (index segment, entity
//!   model, keys) — before taking any lock — then, under the writer lock,
//!   runs the fold a cold [`CorpusBuilder`] runs: one edit of the
//!   corpus's one slot table and of the directory lists of that document's
//!   distinct tokens. It then packages a [`Corpus`] snapshot with
//!   `epoch + 1` and swaps it in as an [`Arc`]. [`LiveCorpus::delete`] is
//!   the same edit without a document. Neither reads another document:
//!   every untouched document's slot entry — its `Document` and its
//!   engine — is the same `Arc` in the new snapshot as in the old, and a
//!   snapshot costs one reference per slot and per directory token.
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
//! mutations and covers the slot edit, the directory edit and the swap —
//! never a parse, an index build or an analysis; the publish lock is only
//! ever held for an `Arc` clone or swap.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use extract_core::EngineParts;
use extract_obs::lock_unpoisoned;
use extract_xml::Document;

use crate::{Corpus, CorpusBuilder, CorpusOptions, DocId, RejectedDocument, Writer};

/// Where one mutation's time went. A delete neither parses nor builds an
/// engine: those stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationCost {
    /// XML parse of the ingested document.
    pub parse: Duration,
    /// Building the document's engine: its index segment, entity model and
    /// keys.
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

    /// [`LiveCorpus::from_corpus`] with explicit mutation options.
    fn from_corpus_with_options(corpus: Corpus, options: CorpusOptions) -> LiveCorpus {
        LiveCorpus {
            options,
            writer: Mutex::new(Writer::resume(&corpus)),
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

    /// Parse `xml` and build its engine, then publish a snapshot containing
    /// it. An existing live document named `name` is **updated in place**
    /// (same slot, next generation); otherwise the lowest free slot is
    /// reused under its next generation, or a fresh slot is appended.
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
                lock_unpoisoned(&self.writer).reject(name, self.options.max_rejected);
                return Err(RejectedDocument { name: name.to_string(), error });
            }
        };
        let parsed = Instant::now();
        let engine = EngineParts::build(&doc);
        let indexed = Instant::now();

        let mut writer = lock_unpoisoned(&self.writer);
        let (id, old) = writer.put(name, doc, engine);
        let retired = self.swap(writer.publish());
        let epoch = writer.epoch;
        // What the mutation let go of — the replaced document and, if no
        // reader still holds it, the previous snapshot — is freed after
        // the lock, not under it.
        drop(writer);
        let replaced = old.as_ref().map(|entry| entry.id);
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
        let entry = writer.remove(name)?;
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

    // A repeated name in a cold build is one document, as in an ingest:
    // the second add updates the first in place, so deleting the name
    // leaves nothing behind that could still answer a search.
    #[test]
    fn a_name_is_one_document_in_a_cold_build_too() {
        let mut b = CorpusBuilder::new();
        assert_eq!(b.add_document("a", STORES).unwrap(), DocId::from_parts(0, 0));
        assert_eq!(b.add_document("a", DBLP).unwrap(), DocId::from_parts(0, 1), "in place");
        assert_eq!(b.len(), 1);
        let live = LiveCorpus::from_corpus(b.finish());
        assert!(live.snapshot().candidate_docs_str(&["levis"]).0.is_empty(), "first add gone");
        live.delete("a").expect("the name is live");
        let snap = live.snapshot();
        assert!(snap.is_empty());
        assert_eq!((snap.postings().vocabulary_size(), snap.total_nodes()), (0, 0));
    }

    // The ABA scenario at the slot table: the slot holds its new
    // generation, so a stale id from before the delete resolves to
    // nothing — not to the replacement document's segment or postings.
    #[test]
    fn stale_generation_finds_no_postings() {
        let live = seeded();
        let old = live.delete("dblp").unwrap().id;
        let new = live.ingest("dblp-2", DBLP).unwrap().id;
        assert_eq!((old, new), (DocId::from_parts(1, 0), DocId::from_parts(1, 1)));
        let snap = live.snapshot();
        assert!(!snap.contains(old), "stale generation must not alias the new occupant");
        let texas: Vec<DocId> =
            snap.postings().entries_for("texas").iter().map(|e| e.doc).collect();
        assert_eq!(texas, [DocId::from_parts(0, 0), new]);
        assert_eq!(snap.engine(new).index().postings("vldb").len(), 1);
    }

    // The writer never puts a second document into an occupied slot: a
    // live name takes its own slot's next generation, and a new name
    // lands only in a freed slot or a fresh one.
    #[test]
    fn a_second_document_never_shares_a_slot() {
        let live = seeded();
        live.delete("stores").unwrap();
        assert_eq!(live.ingest("shops", SHOPS).unwrap().id, DocId::from_parts(0, 1));
        assert_eq!(live.ingest("stores", STORES).unwrap().id, DocId::from_parts(2, 0));
        let m = live.ingest("dblp", SHOPS).unwrap();
        assert_eq!((m.id, m.replaced), (DocId::from_parts(1, 1), Some(DocId::from_parts(1, 0))));
        let snap = live.snapshot();
        assert_eq!((snap.len(), snap.slot_count()), (3, 3));
        let austin = [DocId::from_parts(0, 1), DocId::from_parts(1, 1)];
        let docs: Vec<DocId> =
            snap.postings().entries_for("austin").iter().map(|e| e.doc).collect();
        assert_eq!(docs, austin);
        assert_eq!(snap.postings().entries_for("vldb").len(), 0);
    }

    #[test]
    fn snapshots_share_segments_and_never_see_later_edits() {
        let mut b = CorpusBuilder::new();
        let first = b.add_document("first", STORES).unwrap();
        let cold = b.finish();
        let segment = Arc::clone(cold.engine(first).index());
        let live = LiveCorpus::from_corpus(cold);
        let old = live.snapshot();
        let second = live.ingest("second", DBLP).unwrap().id;
        live.delete("first").unwrap();
        let new = live.snapshot();
        assert_eq!(old.candidate_docs_str(&["texas"]).0, [first], "answers as taken");
        assert_eq!(new.candidate_docs_str(&["texas"]).0, [second]);
        assert!(!old.contains(second) && !new.contains(first));
        assert!(Arc::ptr_eq(old.engine(first).index(), &segment), "resuming shares the segment");
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
    fn the_id_span_keeps_low_holes_and_drops_free_slots_at_the_top() {
        let live = LiveCorpus::new();
        assert_eq!(live.snapshot().id_span(), 0);
        for name in ["a", "b", "c"] {
            live.ingest(name, STORES).unwrap();
        }
        live.delete("a").unwrap();
        assert_eq!(live.snapshot().id_span(), 3, "a hole below a live slot stays");
        live.ingest("d", DBLP).unwrap();
        live.delete("d").unwrap();
        live.delete("c").unwrap();
        assert_eq!(live.snapshot().id_span(), 2, "free slots at the top leave");
        assert_eq!(live.snapshot().slot_count(), 3);
        live.ingest("e", SHOPS).unwrap();
        live.ingest("f", SHOPS).unwrap();
        assert_eq!(live.snapshot().id_span(), 3);
        for name in ["b", "e", "f"] {
            live.delete(name).unwrap();
        }
        assert_eq!(live.snapshot().id_span(), 0);
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
                assert!(std::ptr::eq(before.doc(id), after.doc(id)), "{id} copied");
                assert!(std::ptr::eq(before.engine(id), after.engine(id)), "{id} re-analyzed");
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
