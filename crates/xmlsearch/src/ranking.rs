//! A simple deterministic relevance ranking for query results.
//!
//! The demo treats ranking as orthogonal ("eXtract can be used on top of
//! any XML keyword search engine" with its own ranking, §3/§4); this module
//! provides a reasonable default so the end-to-end pipeline and the demo
//! example can order results: more keyword matches are better, tighter
//! (smaller) results are better.

use std::sync::LazyLock;

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::query::KeywordQuery;
use crate::result::{postings_within, QueryResult};
use crate::xseek::{self, RootPolicy, RootsBuffers};

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
///
/// Both logarithms are [`ln_1p`]'s over `table` ([`LN_1P`], which a sweep
/// reads once): the numerator's `ln(1 + n)` directly, the denominator's
/// `ln(size)` as `ln(1 + (size − 1))` — the same `f64` argument, since
/// sizes are integers far below 2⁵³ (a size of 0, which no subtree has,
/// maps to `ln 1 = 0`, what `ln 0 = −∞` clamps to).
fn score_counts(
    table: &[f64],
    match_counts: impl Iterator<Item = usize>,
    subtree_size: usize,
) -> f64 {
    let tf: f64 = match_counts.map(|n| ln_1p(table, n)).sum();
    tf / (1.0 + ln_1p(table, subtree_size.saturating_sub(1)).max(0.0))
}

/// How many `ln(1 + n)` values [`ln_1p`] keeps at hand: every match count
/// and entity size a result page sees in practice.
const LN_1P_TABLE: usize = 1024;

/// `(1.0 + n as f64).ln()` for every `n` below [`LN_1P_TABLE`], each entry
/// computed by that expression.
static LN_1P: LazyLock<Box<[f64]>> =
    LazyLock::new(|| (0..LN_1P_TABLE).map(|n| (1.0 + n as f64).ln()).collect());

/// `(1.0 + n as f64).ln()`: from `table` ([`LN_1P`]) for small `n`, by
/// that expression otherwise — the same bits either way.
fn ln_1p(table: &[f64], n: usize) -> f64 {
    table.get(n).copied().unwrap_or_else(|| (1.0 + n as f64).ln())
}

/// Score one built result.
pub fn score(doc: &Document, result: &QueryResult) -> f64 {
    score_counts(&LN_1P, result.matches.iter().map(Vec::len), result.size(doc))
}

/// Score the result rooted at `root` **without building it**: per keyword,
/// count the postings inside the root's ID interval (two binary searches
/// each). `lists` holds the query's posting lists in query order. Equal,
/// bit for bit, to [`score`] of [`QueryResult::build`] for the same root.
/// The reference [`sweep_scores`] is tested against, one root at a time
/// and in any order; serving keeps the sweep's scores and never recounts.
// xlint: allow(L10, "crates/xmlsearch/tests/proptests.rs checks sweep_scores against it")
pub fn score_root<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L], root: NodeId) -> f64 {
    let end = doc.subtree_end(root);
    score_counts(
        &LN_1P,
        lists.iter().map(|l| postings_within(l.as_ref(), root, end).len()),
        doc.subtree_size(root),
    )
}

/// The first position at or after `from` in a `list` sorted by `before`
/// (true, then false) where `before` is false — `from` plus the
/// [`slice::partition_point`] of the tail, found by galloping: test the
/// entry under the cursor, then the 2nd, 4th, 8th, … from it until one
/// fails, then binary-search the last step. A cursor that moves a short way
/// pays for that distance, not for the list.
fn gallop<T>(list: &[T], from: usize, mut before: impl FnMut(&T) -> bool) -> usize {
    let tail = list.get(from..).unwrap_or_default();
    if !tail.first().is_some_and(&mut before) {
        return from;
    }
    let mut step = 2;
    while tail.get(step - 1).is_some_and(&mut before) {
        step *= 2;
    }
    let lo = step / 2;
    let probed = tail.get(lo..step.min(tail.len())).unwrap_or_default();
    from + lo + probed.partition_point(before)
}

/// Score `roots` — disjoint and in document order — in one forward sweep
/// over `lists` (the query's posting lists, query order), handing each
/// root and its score to `emit` in order. Since no root starts before the
/// previous one ends, one cursor per list only ever moves forward: it
/// gallops to the root, then to the end of its interval, and the distance
/// between the two is the root's match count. `cursors` is the caller's
/// buffer for them. Each score is [`score_root`]'s, to the bit: the same
/// counts through the same arithmetic, keywords in query order.
// xlint: allow(L10, "crates/xmlsearch/tests/proptests.rs drives it root by root against score_root")
pub fn sweep_scores<L: AsRef<[NodeId]>>(
    doc: &Document,
    lists: &[L],
    roots: &[NodeId],
    cursors: &mut Vec<usize>,
    mut emit: impl FnMut(NodeId, f64),
) {
    cursors.clear();
    cursors.resize(lists.len(), 0);
    let table: &[f64] = &LN_1P;
    for &root in roots {
        let end = doc.subtree_end(root);
        let counts = lists.iter().zip(cursors.iter_mut()).map(|(list, at)| {
            let list = list.as_ref();
            let start = gallop(list, *at, |&n| n < root);
            *at = gallop(list, start, |&n| n < end);
            *at - start
        });
        emit(root, score_counts(table, counts, doc.subtree_size(root)));
    }
}

/// Find the XSeek result roots of a query in one document, from its
/// posting lists there (`lists`, one per keyword in query order), and hand
/// each to `emit` with its score, in document order — the search + scoring
/// half of every ranked entry point. The roots are scored by
/// [`sweep_scores`], one merge over the same lists; no [`QueryResult`] is
/// built: callers decide which roots are worth one after they have seen
/// every score.
pub fn scored_roots(
    doc: &Document,
    model: &EntityModel,
    lists: &[&[NodeId]],
    buffers: &mut RootsBuffers,
    emit: impl FnMut(NodeId, f64),
) {
    xseek::result_roots_in(doc, model, lists, RootPolicy::Entity, buffers);
    let RootsBuffers { roots, cursors, .. } = buffers;
    sweep_scores(doc, lists, roots, cursors, emit);
}

/// The ranking order on scores: higher first. A total order (scores are
/// finite and non-negative), so sorts and selections on it are
/// deterministic once ties are broken by position.
// xlint: allow(L10, "the window oracles in the tests of src/session.rs sort with it")
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
    let lists = query.lists(index);
    scored_roots(doc, model, &lists, &mut RootsBuffers::default(), |root, score| {
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

    /// The table is the expression: the formula as it was written before
    /// any table, `ln` called on every term, gives the same bits on every
    /// count and size across the table's edge.
    #[test]
    fn tabled_logarithms_are_the_expressions_bits() {
        let direct = |counts: &[usize], size: usize| {
            let tf: f64 = counts.iter().map(|&n| (1.0 + n as f64).ln()).sum();
            tf / (1.0 + (size as f64).ln().max(0.0))
        };
        for n in 0..LN_1P_TABLE + 64 {
            assert_eq!(ln_1p(&LN_1P, n).to_bits(), (1.0 + n as f64).ln().to_bits(), "ln(1 + {n})");
            for size in [0, 1, 2, n, n + 1, 40_000] {
                let counts = [n, 0, 3 * n + 1, n];
                assert_eq!(
                    score_counts(&LN_1P, counts.iter().copied(), size).to_bits(),
                    direct(&counts, size).to_bits(),
                    "counts {counts:?}, size {size}"
                );
            }
        }
    }

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
