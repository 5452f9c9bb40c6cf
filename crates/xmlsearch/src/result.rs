//! Query results: a result root plus the per-keyword matches inside it.
//!
//! Snippet generation is "orthogonal to query result generation" (paper §4)
//! — a [`QueryResult`] is deliberately just a view: the root [`NodeId`] in
//! the original document and, per query keyword, the matching element nodes
//! within the root's subtree. The subtree is only materialized on demand
//! ([`QueryResult::materialize`]); the statistics and the snippet selector
//! work in place on the original document.

use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::query::KeywordQuery;

/// One query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The result root in the original document.
    pub root: NodeId,
    /// For each query keyword (in query order), the matching element nodes
    /// inside `root`'s subtree, in document order.
    pub matches: Vec<Vec<NodeId>>,
}

/// The part of a posting list (document order) inside the ID interval
/// `[root, end)` — by the preorder-ID invariant, the postings in the
/// subtree whose root is `root` and whose interval ends at `end`. Two
/// binary searches; nothing is copied, so counting a result's matches
/// costs no more than that.
pub fn postings_within(postings: &[NodeId], root: NodeId, end: NodeId) -> &[NodeId] {
    let start = postings.partition_point(|&n| n < root);
    let tail = postings.get(start..).unwrap_or_default();
    tail.get(..tail.partition_point(|&n| n < end)).unwrap_or_default()
}

impl QueryResult {
    /// Build a result for `root`: restrict each keyword's postings to the
    /// subtree of `root` ([`postings_within`] its ID interval).
    pub fn build(
        doc: &Document,
        index: &XmlIndex,
        query: &KeywordQuery,
        root: NodeId,
    ) -> QueryResult {
        let end = doc.subtree_end(root);
        let matches = query
            .keywords()
            .iter()
            .map(|k| postings_within(index.postings(k), root, end).to_vec())
            .collect();
        QueryResult { root, matches }
    }

    /// Whether every keyword has at least one match in this result.
    // xlint: allow(L10, "crates/xmlsearch/tests/workloads.rs, crates/xmlsearch/tests/proptests.rs and the tests of xseek.rs check results with it")
    pub fn covers_all_keywords(&self) -> bool {
        !self.matches.is_empty() && self.matches.iter().all(|m| !m.is_empty())
    }

    /// Number of nodes in the result subtree.
    pub fn size(&self, doc: &Document) -> usize {
        doc.subtree_size(self.root)
    }

    /// Number of element→element edges in the result subtree (the paper's
    /// size measure).
    pub fn element_edges(&self, doc: &Document) -> usize {
        doc.element_edges(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Document, XmlIndex, KeywordQuery) {
        let doc = Document::parse_str(
            "<stores>\
             <store><name>Levis</name><state>Texas</state></store>\
             <store><name>ESprit</name><state>Texas</state></store>\
             </stores>",
        )
        .unwrap();
        let index = XmlIndex::build(&doc);
        let query = KeywordQuery::parse("store texas");
        (doc, index, query)
    }

    #[test]
    fn matches_are_scoped_to_the_subtree() {
        let (doc, index, query) = setup();
        let store1 = d_store(&doc, 0);
        let r = QueryResult::build(&doc, &index, &query, store1);
        assert_eq!(r.matches.len(), 2);
        assert_eq!(r.matches[0], vec![store1], "keyword `store` matches the root itself");
        assert_eq!(r.matches[1].len(), 1, "only store1's own texas");
        assert!(doc.is_ancestor_or_self(store1, r.matches[1][0]));
        assert!(r.covers_all_keywords());
    }

    #[test]
    fn root_scope_sees_everything() {
        let (doc, index, query) = setup();
        let r = QueryResult::build(&doc, &index, &query, doc.root());
        assert_eq!(r.matches[0].len(), 2);
        assert_eq!(r.matches[1].len(), 2);
    }

    #[test]
    fn missing_keyword_leaves_empty_list() {
        let (doc, index, _) = setup();
        let q = KeywordQuery::parse("store dallas");
        let r = QueryResult::build(&doc, &index, &q, doc.root());
        assert!(!r.covers_all_keywords());
        assert!(r.matches[1].is_empty());
    }

    #[test]
    fn sizes() {
        let (doc, index, query) = setup();
        let store1 = d_store(&doc, 0);
        let r = QueryResult::build(&doc, &index, &query, store1);
        assert_eq!(r.element_edges(&doc), 2);
        assert_eq!(r.size(&doc), 5); // 3 elements + 2 text
    }

    fn d_store(doc: &Document, i: usize) -> NodeId {
        doc.elements_with_label("store")[i]
    }
}
