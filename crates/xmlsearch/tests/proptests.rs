//! Property tests: the indexed SLCA/ELCA algorithms must agree with their
//! brute-force oracles on arbitrary documents and queries, and structural
//! invariants of results must hold.

use extract_index::XmlIndex;
use extract_search::slca::{slca_bruteforce, slca_indexed_lookup, slca_scan_eager};
use extract_search::elca::{elca_bruteforce, elca_stack};
use extract_search::ranking::{self, ranked_results, score_root};
use extract_search::result::postings_within;
use extract_search::xseek::{self, RootPolicy};
use extract_search::{Algorithm, Engine, KeywordQuery, QueryResult};
use extract_xml::{DocBuilder, Document, NodeId};
use proptest::prelude::*;

/// Random tree with labels/values drawn from a tiny vocabulary so keyword
/// collisions (the interesting cases) are common.
#[derive(Debug, Clone)]
struct SpecNode {
    label: usize,
    value: Option<usize>,
    children: Vec<SpecNode>,
}

const LABELS: [&str; 5] = ["store", "item", "name", "city", "tag"];
const VALUES: [&str; 5] = ["texas", "houston", "jeans", "man", "red"];

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..LABELS.len(), proptest::option::of(0usize..VALUES.len()))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 48, 5, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..5)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

fn build(spec: &SpecNode) -> Document {
    let mut b = DocBuilder::new("root");
    push(&mut b, spec);
    b.build()
}

fn push(b: &mut DocBuilder, s: &SpecNode) {
    b.begin(LABELS[s.label]);
    if let Some(v) = s.value {
        b.text(VALUES[v]);
    }
    for c in &s.children {
        push(b, c);
    }
    b.end();
}

fn keyword_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..LABELS.len()).prop_map(|i| LABELS[i].to_string()),
            (0usize..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        ],
        1..4,
    )
    .prop_map(|mut ks| {
        ks.dedup();
        ks
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn slca_algorithms_agree_with_bruteforce(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let index = XmlIndex::build(&doc);
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        let oracle = slca_bruteforce(&doc, &lists);
        prop_assert_eq!(&slca_indexed_lookup(&doc, &lists), &oracle);
        prop_assert_eq!(&slca_scan_eager(&doc, &lists), &oracle);
    }

    #[test]
    fn elca_stack_agrees_with_bruteforce(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let index = XmlIndex::build(&doc);
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        prop_assert_eq!(elca_stack(&doc, &lists), elca_bruteforce(&doc, &lists));
    }

    #[test]
    fn every_slca_is_an_elca(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let index = XmlIndex::build(&doc);
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        let slcas = slca_bruteforce(&doc, &lists);
        let elcas = elca_stack(&doc, &lists);
        for s in &slcas {
            prop_assert!(elcas.contains(s), "SLCA {s} not an ELCA");
        }
    }

    #[test]
    fn slcas_are_incomparable_and_cover_all_keywords(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let index = XmlIndex::build(&doc);
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        let slcas = slca_indexed_lookup(&doc, &lists);
        // Pairwise: no SLCA is an ancestor of another.
        for (i, &a) in slcas.iter().enumerate() {
            for &b in &slcas[i + 1..] {
                prop_assert!(!doc.is_ancestor_or_self(a, b));
                prop_assert!(!doc.is_ancestor_or_self(b, a));
            }
        }
        // Each SLCA's subtree contains all keywords.
        for &s in &slcas {
            for list in &lists {
                prop_assert!(list.iter().any(|&m| doc.is_ancestor_or_self(s, m)));
            }
        }
    }

    #[test]
    fn xseek_results_cover_all_keywords_and_are_disjoint(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let engine = Engine::new(&doc);
        let q = KeywordQuery::from_keywords(keywords.clone());
        let results = engine.search(&q, Algorithm::XSeek);
        for r in &results {
            prop_assert!(r.covers_all_keywords());
        }
        for (i, a) in results.iter().enumerate() {
            for b in &results[i + 1..] {
                prop_assert!(!doc.is_ancestor_or_self(a.root, b.root));
                prop_assert!(!doc.is_ancestor_or_self(b.root, a.root));
            }
        }
    }

    /// Ranking by counting: a root's score from the number of postings in
    /// its ID interval is the score of its built result, to the bit — and
    /// the interval slice is exactly the ancestor-filtered posting list.
    #[test]
    fn counting_scores_equal_built_scores_bit_for_bit(
        spec in spec_strategy(),
        keywords in keyword_strategy(),
    ) {
        let doc = build(&spec);
        let engine = Engine::new(&doc);
        let (index, model) = (engine.index(), engine.model());
        let q = KeywordQuery::from_keywords(keywords.clone());
        let lists: Vec<&[NodeId]> = q.keywords().iter().map(|k| index.postings(k)).collect();
        // Every element is a legitimate root to score, not just the
        // query's own results.
        for root in doc.subtree_elements(doc.root()) {
            for list in &lists {
                let by_walk: Vec<NodeId> = list
                    .iter()
                    .copied()
                    .filter(|&n| doc.is_ancestor_or_self(root, n))
                    .collect();
                prop_assert_eq!(postings_within(list, root, doc.subtree_end(root)), &by_walk[..]);
            }
            let built = QueryResult::build(&doc, index, &q, root);
            prop_assert_eq!(
                score_root(&doc, &lists, root).to_bits(),
                ranking::score(&doc, &built).to_bits()
            );
        }
        // The ranked entry point is the old pipeline — build every result,
        // score it, stable-sort — in results, scores and order.
        let reference =
            ranking::rank(&doc, xseek::search(&doc, index, model, &q, RootPolicy::Entity));
        let ranked = ranked_results(&doc, index, model, &q);
        prop_assert_eq!(ranked.len(), reference.len());
        for (got, want) in ranked.iter().zip(&reference) {
            prop_assert_eq!(&got.result, &want.result);
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
        }
    }
}
