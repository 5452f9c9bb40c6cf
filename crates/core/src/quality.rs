//! Objective quality proxies for the paper's four snippet goals.
//!
//! The companion paper validates snippet quality with a user study we
//! cannot re-run; these metrics quantify the same four goals of §1
//! mechanically, so eXtract and the baselines can be compared (E9):
//!
//! * **coverage / weighted coverage** — how much of the IList (the
//!   information the paper argues *should* be in a snippet) made it in,
//!   optionally rank-discounted;
//! * **key presence** — distinguishability: is the result key shown?
//! * **dominant-feature recall** — representativeness;
//! * **keyword recall** — are the query keywords visible?
//! * **entity annotation** — self-containment: are shown values attached
//!   to named entities (1.0 for ancestor-closed trees, 0.0 for flat text);
//! * **distinguishability across results** — fraction of snippet pairs
//!   with distinct rendered content.

use extract_xml::{Document, NodeId};

use crate::baselines::BaselineContent;
use crate::ilist::{IList, IListItem};
use crate::snippet::Snippet;

/// Quality metrics of one snippet against its IList.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Covered fraction of all IList items.
    pub coverage: f64,
    /// Rank-discounted coverage: item at rank *r* (0-based) weighs
    /// `1/log2(r+2)`.
    pub weighted_coverage: f64,
    /// Is the result key present?
    pub key_present: bool,
    /// Covered fraction of dominant-feature items.
    pub feature_recall: f64,
    /// Covered fraction of keyword items.
    pub keyword_recall: f64,
    /// Self-containment: 1.0 when every shown value sits under its named
    /// entity (tree snippets), 0.0 for structure-free text.
    pub entity_annotation: f64,
    /// Snippet size in edges (trees) or words (text).
    pub size: usize,
}

/// Evaluate an eXtract snippet (tree-based, instance-level coverage).
pub fn evaluate_snippet(doc: &Document, ilist: &IList, snippet: &Snippet) -> QualityReport {
    let covered: Vec<bool> = ilist
        .items()
        .iter()
        .map(|ranked| ranked.instances.iter().any(|n| snippet.nodes.contains(n)))
        .collect();
    report_from_flags(doc, ilist, &covered, 1.0, snippet.edges)
}

/// Evaluate a baseline by *content*: an item counts as covered when its
/// display text appears in the rendered output (tree baselines also accept
/// instance-level coverage).
pub fn evaluate_baseline(
    doc: &Document,
    ilist: &IList,
    content: &BaselineContent,
) -> QualityReport {
    match content {
        BaselineContent::Tree { nodes, edges } => {
            let covered: Vec<bool> = ilist
                .items()
                .iter()
                .map(|ranked| ranked.instances.iter().any(|n| nodes.contains(n)))
                .collect();
            report_from_flags(doc, ilist, &covered, 1.0, *edges)
        }
        BaselineContent::Text(text) => {
            let lower = text.to_lowercase();
            let covered: Vec<bool> = ilist
                .items()
                .iter()
                .map(|ranked| {
                    let needle = ranked.item.display_text(doc).to_lowercase();
                    !needle.is_empty() && lower.contains(&needle)
                })
                .collect();
            report_from_flags(doc, ilist, &covered, 0.0, text.split_whitespace().count())
        }
    }
}

fn report_from_flags(
    _doc: &Document,
    ilist: &IList,
    covered: &[bool],
    entity_annotation: f64,
    size: usize,
) -> QualityReport {
    let total = ilist.len().max(1) as f64;
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / total;

    let mut weight_sum = 0.0;
    let mut weighted = 0.0;
    let mut key_present = false;
    let mut features = (0usize, 0usize);
    let mut keywords = (0usize, 0usize);
    for (rank, (ranked, &cov)) in ilist.items().iter().zip(covered).enumerate() {
        let w = 1.0 / ((rank + 2) as f64).log2();
        weight_sum += w;
        if cov {
            weighted += w;
        }
        match &ranked.item {
            IListItem::ResultKey { .. } => key_present |= cov,
            IListItem::Feature { .. } => {
                features.1 += 1;
                features.0 += cov as usize;
            }
            IListItem::Keyword(_) => {
                keywords.1 += 1;
                keywords.0 += cov as usize;
            }
            IListItem::EntityName { .. } => {}
        }
    }
    QualityReport {
        coverage,
        weighted_coverage: if weight_sum > 0.0 { weighted / weight_sum } else { 0.0 },
        key_present,
        feature_recall: ratio(features),
        keyword_recall: ratio(keywords),
        entity_annotation,
        size,
    }
}

fn ratio((num, den): (usize, usize)) -> f64 {
    if den == 0 {
        1.0 // vacuously perfect
    } else {
        num as f64 / den as f64
    }
}

/// Fraction of snippet pairs with distinct rendered content — the
/// "differentiate them from one another" goal measured across the result
/// list. 1.0 when all snippets differ (or with fewer than two snippets).
pub fn distinguishability(rendered: &[String]) -> f64 {
    let n = rendered.len();
    if n < 2 {
        return 1.0;
    }
    let mut distinct_pairs = 0usize;
    let mut total_pairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total_pairs += 1;
            if rendered[i] != rendered[j] {
                distinct_pairs += 1;
            }
        }
    }
    distinct_pairs as f64 / total_pairs as f64
}

/// Convenience: instance-level coverage of an arbitrary node set (used by
/// tests comparing selectors).
// xlint: allow(L10, "crates/core/tests/proptests.rs measures selector coverage with it")
pub fn items_covered_by(ilist: &IList, nodes: &[NodeId]) -> usize {
    ilist
        .items()
        .iter()
        .filter(|r| r.instances.iter().any(|n| nodes.contains(n)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BaselineStrategy, BfsPrefix, TextWindows};
    use crate::ilist::build_ilist;
    use crate::selector::greedy_select;
    use crate::snippet::Snippet;
    use extract_analyzer::{EntityModel, KeyCatalog};
    use extract_index::XmlIndex;
    use extract_search::{KeywordQuery, QueryResult};

    fn setup() -> (Document, IList, QueryResult) {
        let doc = Document::parse_str(
            "<stores><store><name>Levis</name><state>Texas</state>\
             <merchandises>\
               <clothes><category>jeans</category></clothes>\
               <clothes><category>jeans</category></clothes>\
               <clothes><category>hats</category></clothes>\
             </merchandises></store>\
             <store><name>Gap</name><state>Ohio</state>\
             <merchandises><clothes><category>shirts</category></clothes></merchandises></store>\
             </stores>",
        )
        .unwrap();
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        let index = XmlIndex::build(&doc);
        let q = KeywordQuery::parse("store texas");
        let root = doc.elements_with_label("store")[0];
        let result = QueryResult::build(&doc, &index, &q, root);
        let il = build_ilist(&doc, &model, &catalog, &q, &result, &Default::default());
        (doc, il, result)
    }

    #[test]
    fn generous_bound_gives_full_marks() {
        let (doc, il, result) = setup();
        let outcome = greedy_select(&doc, &il, result.root, 100);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        let q = evaluate_snippet(&doc, &il, &snip);
        assert_eq!(q.coverage, 1.0);
        assert_eq!(q.weighted_coverage, 1.0);
        assert!(q.key_present);
        assert_eq!(q.feature_recall, 1.0);
        assert_eq!(q.keyword_recall, 1.0);
        assert_eq!(q.entity_annotation, 1.0);
    }

    #[test]
    fn tight_bound_degrades_gracefully() {
        let (doc, il, result) = setup();
        let outcome = greedy_select(&doc, &il, result.root, 2);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        let q = evaluate_snippet(&doc, &il, &snip);
        assert!(q.coverage < 1.0);
        assert!(q.coverage > 0.0);
        // Weighted coverage favors the high-rank items the greedy covers
        // first.
        assert!(q.weighted_coverage >= q.coverage);
    }

    #[test]
    fn text_baseline_scores_zero_on_entity_annotation() {
        let (doc, il, result) = setup();
        let content = TextWindows.generate(&doc, &result, 10);
        let q = evaluate_baseline(&doc, &il, &content);
        assert_eq!(q.entity_annotation, 0.0);
    }

    #[test]
    fn bfs_baseline_misses_deep_features_at_small_bounds() {
        let (doc, il, result) = setup();
        let content = BfsPrefix.generate(&doc, &result, 3);
        let q_bfs = evaluate_baseline(&doc, &il, &content);
        let outcome = greedy_select(&doc, &il, result.root, 3);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        let q_ex = evaluate_snippet(&doc, &il, &snip);
        assert!(
            q_ex.weighted_coverage >= q_bfs.weighted_coverage,
            "eXtract {:?} vs BFS {:?}",
            q_ex.weighted_coverage,
            q_bfs.weighted_coverage
        );
    }

    #[test]
    fn distinguishability_extremes() {
        assert_eq!(distinguishability(&[]), 1.0);
        assert_eq!(distinguishability(&["a".into()]), 1.0);
        assert_eq!(distinguishability(&["a".into(), "a".into()]), 0.0);
        assert_eq!(distinguishability(&["a".into(), "b".into()]), 1.0);
        let mixed = distinguishability(&["a".into(), "a".into(), "b".into()]);
        assert!((mixed - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn items_covered_by_counts_instances() {
        let (doc, il, result) = setup();
        let outcome = greedy_select(&doc, &il, result.root, 100);
        assert_eq!(items_covered_by(&il, &outcome.nodes), il.len());
        assert!(items_covered_by(&il, &[result.root]) >= 1, "root-matching items count");
    }
}
