//! A simple deterministic relevance ranking for query results.
//!
//! The demo treats ranking as orthogonal ("eXtract can be used on top of
//! any XML keyword search engine" with its own ranking, §3/§4); this module
//! provides a reasonable default so the end-to-end pipeline and the demo
//! example can order results: more keyword matches are better, tighter
//! (smaller) results are better.

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::query::KeywordQuery;
use crate::result::{postings_within, QueryResult};
use crate::xseek::{self, RootPolicy, RootsScratch};

/// A query result with its score.
#[derive(Debug, Clone)]
pub struct RankedResult {
    /// The result.
    pub result: QueryResult,
    /// Higher is better.
    pub score: f64,
}

/// The scoring formula: log-damped match counts per keyword (query order),
/// normalized by the log of the subtree size (an XRANK-flavoured
/// compactness prior). A score needs the *number* of matches per keyword,
/// never the matches — every entry point below feeds this one function, so
/// their scores agree to the bit.
fn score_counts(match_counts: impl Iterator<Item = usize>, subtree_size: usize) -> f64 {
    let tf: f64 = match_counts.map(|n| (1.0 + n as f64).ln()).sum();
    tf / (1.0 + (subtree_size as f64).ln().max(0.0))
}

/// Score one built result.
pub fn score(doc: &Document, result: &QueryResult) -> f64 {
    score_counts(result.matches.iter().map(Vec::len), result.size(doc))
}

/// Score the result rooted at `root` **without building it**: per keyword,
/// count the postings inside the root's ID interval (two binary searches
/// each). `lists` holds the query's posting lists in query order. Equal,
/// bit for bit, to [`score`] of [`QueryResult::build`] for the same root.
pub fn score_root<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L], root: NodeId) -> f64 {
    let end = doc.subtree_end(root);
    score_counts(
        lists.iter().map(|l| postings_within(l.as_ref(), root, end).len()),
        doc.subtree_size(root),
    )
}

/// Find the XSeek result roots of `query` in one document and hand each to
/// `emit` with its score, in document order — the search + scoring half of
/// every ranked entry point. No [`QueryResult`] is built: callers decide
/// which roots are worth one after they have seen every score.
pub fn scored_roots<'i>(
    doc: &Document,
    index: &'i XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    scratch: &mut RootsScratch<'i>,
    mut emit: impl FnMut(NodeId, f64),
) {
    xseek::result_roots_with(doc, index, model, query, RootPolicy::Entity, scratch);
    for &root in scratch.roots() {
        emit(root, score_root(doc, scratch.lists(), root));
    }
}

/// The ranking order on scores: higher first. A total order (scores are
/// finite and non-negative), so sorts and selections on it are
/// deterministic once ties are broken by position.
pub fn by_score_desc(a: f64, b: f64) -> std::cmp::Ordering {
    b.total_cmp(&a)
}

/// Search one document with the XSeek engine and return **every** result,
/// built and in rank order (score descending, ties toward the earlier
/// root). Roots are scored by counting and sorted as `(score, root)` pairs;
/// a [`QueryResult`] is built per root only once its place is known.
pub fn ranked_results(
    doc: &Document,
    index: &XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
) -> Vec<RankedResult> {
    let mut scored: Vec<(f64, NodeId)> = Vec::new();
    scored_roots(doc, index, model, query, &mut RootsScratch::default(), |root, score| {
        scored.push((score, root));
    });
    scored.sort_unstable_by(|a, b| by_score_desc(a.0, b.0).then_with(|| a.1.cmp(&b.1)));
    scored
        .into_iter()
        .map(|(score, root)| RankedResult { result: QueryResult::build(doc, index, query, root), score })
        .collect()
}

/// Rank results by descending score; ties break toward the earlier root in
/// document order, so the ordering is total and deterministic.
pub fn rank(doc: &Document, results: Vec<QueryResult>) -> Vec<RankedResult> {
    let mut ranked: Vec<RankedResult> = results
        .into_iter()
        .map(|result| RankedResult { score: score(doc, &result), result })
        .collect();
    ranked.sort_by(|a, b| {
        by_score_desc(a.score, b.score).then_with(|| a.result.root.cmp(&b.result.root))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::KeywordQuery;
    use extract_index::XmlIndex;
    use extract_xml::Document;

    #[test]
    fn more_matches_rank_higher() {
        let doc = Document::parse_str(
            "<r>\
             <s><t>k</t><t>k</t><t>k</t></s>\
             <s><t>k</t></s>\
             </r>",
        )
        .unwrap();
        let index = XmlIndex::build(&doc);
        let q = KeywordQuery::parse("k");
        let stores = doc.elements_with_label("s");
        let results: Vec<QueryResult> =
            stores.iter().map(|&s| QueryResult::build(&doc, &index, &q, s)).collect();
        let ranked = rank(&doc, results);
        assert_eq!(ranked[0].result.root, stores[0]);
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn smaller_results_rank_higher_at_equal_matches() {
        let doc = Document::parse_str(
            "<r>\
             <s><t>k</t><pad1/><pad2/><pad3/><pad4/><pad5/><pad6/></s>\
             <s><t>k</t></s>\
             </r>",
        )
        .unwrap();
        let index = XmlIndex::build(&doc);
        let q = KeywordQuery::parse("k");
        let stores = doc.elements_with_label("s");
        let results: Vec<QueryResult> =
            stores.iter().map(|&s| QueryResult::build(&doc, &index, &q, s)).collect();
        let ranked = rank(&doc, results);
        assert_eq!(ranked[0].result.root, stores[1], "the compact result wins");
    }

    #[test]
    fn ties_break_by_document_order() {
        let doc = Document::parse_str("<r><s><t>k</t></s><s><t>k</t></s></r>").unwrap();
        let index = XmlIndex::build(&doc);
        let q = KeywordQuery::parse("k");
        let stores = doc.elements_with_label("s");
        let results: Vec<QueryResult> = stores
            .iter()
            .rev() // feed them in reverse to prove sorting normalizes
            .map(|&s| QueryResult::build(&doc, &index, &q, s))
            .collect();
        let ranked = rank(&doc, results);
        assert_eq!(ranked[0].result.root, stores[0]);
    }
}
