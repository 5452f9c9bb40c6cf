//! The search facade: one object owning the document's indexes and entity
//! model, dispatching to every implemented algorithm.

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::elca::elca_stack;
use crate::query::KeywordQuery;
use crate::ranking::{rank, RankedResult};
use crate::result::QueryResult;
use crate::slca::{slca_auto, slca_indexed_lookup, slca_scan_eager};
use crate::xseek::{self, RootPolicy};

/// The available search algorithms / result semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// SLCA via Indexed Lookup Eager (Xu & Papakonstantinou).
    SlcaIndexedLookup,
    /// SLCA via Scan Eager (Xu & Papakonstantinou).
    SlcaScanEager,
    /// SLCA with the eager algorithm picked per query from list-length
    /// ratios (see [`crate::slca::choose_strategy`]).
    SlcaAuto,
    /// ELCA via the Dewey stack (XRANK semantics).
    Elca,
    /// SLCA lifted to entity roots (XSeek semantics — the engine the demo
    /// runs on, and the default).
    XSeek,
}

/// A ready-to-query search engine over one document.
#[derive(Debug)]
pub struct Engine<'d> {
    doc: &'d Document,
    index: XmlIndex,
    model: EntityModel,
}

impl<'d> Engine<'d> {
    /// Build the indexes and entity model for `doc`.
    pub fn new(doc: &'d Document) -> Engine<'d> {
        Engine { doc, index: XmlIndex::build(doc), model: EntityModel::analyze(doc) }
    }

    /// The document.
    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// The indexes.
    pub fn index(&self) -> &XmlIndex {
        &self.index
    }

    /// The entity model.
    pub fn model(&self) -> &EntityModel {
        &self.model
    }

    /// Result roots only (no match scoping). Posting lists are borrowed
    /// straight from the index — no per-query copies.
    pub fn roots(&self, query: &KeywordQuery, algorithm: Algorithm) -> Vec<NodeId> {
        let lists: Vec<&[NodeId]> =
            query.keywords().iter().map(|k| self.index.postings(k)).collect();
        match algorithm {
            Algorithm::SlcaIndexedLookup => slca_indexed_lookup(self.doc, &lists),
            Algorithm::SlcaScanEager => slca_scan_eager(self.doc, &lists),
            Algorithm::SlcaAuto => slca_auto(self.doc, &lists),
            Algorithm::Elca => elca_stack(self.doc, &lists),
            Algorithm::XSeek => {
                xseek::result_roots(self.doc, &self.index, &self.model, query, RootPolicy::Entity)
            }
        }
    }

    /// Full search: roots plus per-result keyword matches.
    pub fn search(&self, query: &KeywordQuery, algorithm: Algorithm) -> Vec<QueryResult> {
        self.roots(query, algorithm)
            .into_iter()
            .map(|root| QueryResult::build(self.doc, &self.index, query, root))
            .collect()
    }

    /// Convenience: parse and search in one call.
    pub fn search_str(&self, query: &str, algorithm: Algorithm) -> Vec<QueryResult> {
        self.search(&KeywordQuery::parse(query), algorithm)
    }

    /// Search and rank.
    pub fn search_ranked(&self, query: &KeywordQuery, algorithm: Algorithm) -> Vec<RankedResult> {
        rank(self.doc, self.search(query, algorithm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = "<stores>\
        <store><name>Levis</name><state>Texas</state>\
          <merchandises><clothes><category>jeans</category><fitting>man</fitting></clothes></merchandises>\
        </store>\
        <store><name>ESprit</name><state>Texas</state>\
          <merchandises><clothes><category>outwear</category><fitting>woman</fitting></clothes></merchandises>\
        </store>\
        <store><name>Gap</name><state>Ohio</state>\
          <merchandises><clothes><category>shirt</category></clothes></merchandises>\
        </store>\
        </stores>";

    #[test]
    fn all_algorithms_agree_on_the_store_query() {
        let doc = Document::parse_str(XML).unwrap();
        let engine = Engine::new(&doc);
        let q = KeywordQuery::parse("store texas");
        for algo in [
            Algorithm::SlcaIndexedLookup,
            Algorithm::SlcaScanEager,
            Algorithm::SlcaAuto,
            Algorithm::XSeek,
        ] {
            let results = engine.search(&q, algo);
            assert_eq!(results.len(), 2, "{algo:?}");
            assert!(results.iter().all(|r| doc.label_str(r.root) == Some("store")));
        }
        // ELCA additionally sees no extra roots here (stores nest nothing
        // that independently covers both keywords).
        let elca = engine.search(&q, Algorithm::Elca);
        assert_eq!(elca.len(), 2);
    }

    #[test]
    fn ranked_search_is_ordered() {
        let doc = Document::parse_str(XML).unwrap();
        let engine = Engine::new(&doc);
        let ranked = engine.search_ranked(&KeywordQuery::parse("texas"), Algorithm::XSeek);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].score >= ranked[1].score);
    }

    #[test]
    fn engine_exposes_parts() {
        let doc = Document::parse_str(XML).unwrap();
        let engine = Engine::new(&doc);
        assert!(engine.index().postings("texas").len() == 2);
        let store = doc.first_element_with_label("store").unwrap();
        assert!(engine.model().is_entity(store));
        assert_eq!(engine.document().element_count(), doc.element_count());
    }

    #[test]
    fn many_keyword_queries_do_not_panic_any_algorithm() {
        // Regression: ELCA panicked past 64 keywords; a pasted paragraph
        // of a query is exactly how a user reaches that path.
        let body: String = (0..70).map(|i| format!("<w>t{i}</w>")).collect();
        let xml = format!("<r>{body}</r>");
        let doc = Document::parse_str(&xml).unwrap();
        let engine = Engine::new(&doc);
        let text: String =
            (0..70).map(|i| format!("t{i} ")).collect();
        let q = KeywordQuery::parse(&text);
        assert_eq!(q.len(), 70);
        for algo in [
            Algorithm::SlcaIndexedLookup,
            Algorithm::SlcaScanEager,
            Algorithm::SlcaAuto,
            Algorithm::Elca,
            Algorithm::XSeek,
        ] {
            let results = engine.search(&q, algo);
            assert!(!results.is_empty(), "{algo:?}");
        }
    }
}
