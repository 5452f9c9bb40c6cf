//! Property tests for the snippet generator: structural invariants that
//! must hold for any document, query and bound.

use extract_core::ilist::{build_ilist, IList, IListOptions, IListScratch};
use extract_core::quality::items_covered_by;
use extract_core::selector::{exact_select, greedy_select, ExactLimits};
use extract_core::{Extract, ExtractConfig};
use extract_search::{Algorithm, KeywordQuery, QueryResult};
use extract_xml::{DocBuilder, Document, NodeId};
use proptest::prelude::*;

const LABELS: [&str; 5] = ["store", "clothes", "name", "city", "tag"];
const VALUES: [&str; 6] = ["texas", "houston", "jeans", "man", "casual", "red"];

#[derive(Debug, Clone)]
struct SpecNode {
    label: usize,
    value: Option<usize>,
    children: Vec<SpecNode>,
}

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..LABELS.len(), proptest::option::of(0usize..VALUES.len()))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 40, 5, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..5)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

fn build(spec: &SpecNode) -> Document {
    let mut b = DocBuilder::new("db");
    push(&mut b, spec);
    // A second sibling subtree so entity inference sees repetition
    // sometimes and the root is never the only candidate.
    b.begin("store");
    b.leaf("name", "anchor");
    b.end();
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

fn query_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..LABELS.len()).prop_map(|i| LABELS[i].to_string()),
            (0usize..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        ],
        1..4,
    )
}

/// Everything an IList says, comparably: each item with its instances,
/// the return entities and the result key.
fn said(ilist: &IList, doc: &Document) -> impl PartialEq + std::fmt::Debug {
    let items: Vec<_> = ilist
        .items()
        .iter()
        .map(|r| (r.item.clone(), r.item.display_text(doc), r.instances.clone()))
        .collect();
    let returns = &ilist.return_entities;
    let returns = (returns.label, returns.reason, returns.instances.clone());
    (items, returns, ilist.result_key.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The document-root result and one child entity of the root, served
    /// twice through one reused engine and scratch (first as bytes, then as
    /// an owned IList and snippet), under the default config and a capped
    /// one: each IList equals, item for item, the one `build_ilist` builds
    /// from the model and catalog alone, and each snippet's bytes equal
    /// what a fresh engine writes on a fresh scratch — whatever the engine
    /// remembered of an earlier result, on the root or off it.
    #[test]
    fn whole_document_results_equal_a_fresh_engine(
        spec in spec_strategy(),
        keywords in query_strategy(),
        bound in 0usize..20,
        cap in 0usize..4,
    ) {
        let doc = build(&spec);
        let extract = Extract::new(&doc);
        let query = KeywordQuery::from_keywords(keywords);
        let lists = query.lists(extract.index());
        let model = extract.model();
        let child = doc.children(doc.root()).find(|&c| model.is_entity(c));
        let roots: Vec<NodeId> = std::iter::once(doc.root()).chain(child).collect();
        let configs = [
            ExtractConfig::with_bound(bound),
            ExtractConfig { max_dominant_features: Some(cap), ..ExtractConfig::with_bound(bound) },
        ];
        let mut scratch = IListScratch::default();
        for pass in 0..2 {
            for config in &configs {
                for &root in &roots {
                    let at = format!("pass {pass}, root {root:?}, cap {:?}", config.max_dominant_features);
                    let served = extract.snippet_xml(&query, &lists, root, config, &mut scratch).to_string();
                    let result = QueryResult::build(&doc, extract.index(), &query, root);
                    let owned = extract.snippet_of(&query, result.clone(), config, &mut scratch);
                    let options = IListOptions { max_dominant_features: config.max_dominant_features };
                    let want = build_ilist(&doc, model, extract.keys(), &query, &result, &options);
                    prop_assert_eq!(said(&owned.ilist, &doc), said(&want, &doc), "{}", at);
                    let fresh = Extract::new(&doc);
                    let bytes = fresh
                        .snippet_xml(&query, &lists, root, config, &mut IListScratch::default())
                        .to_string();
                    prop_assert_eq!(&served, &bytes, "{}", at);
                    prop_assert_eq!(owned.snippet.to_xml(), bytes, "{}", at);
                }
            }
        }
    }

    /// The four hard invariants of a snippet: bound respected, tree is
    /// ancestor-closed, tree is inside the result, covered items really
    /// have an included instance.
    #[test]
    fn snippet_invariants(
        spec in spec_strategy(),
        keywords in query_strategy(),
        bound in 0usize..20,
    ) {
        let doc = build(&spec);
        let extract = Extract::new(&doc);
        let query = KeywordQuery::from_keywords(keywords);
        for result in extract.search(&query, Algorithm::XSeek) {
            let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(bound));
            // Bound.
            prop_assert!(out.snippet.edges <= bound);
            // Element-edge accounting matches the materialized tree.
            prop_assert_eq!(
                out.snippet.tree().element_edges(out.snippet.tree().root()),
                out.snippet.edges
            );
            // Ancestor closure within the result subtree.
            for &n in &out.snippet.nodes {
                prop_assert!(doc.is_ancestor_or_self(result.root, n));
                if n != result.root {
                    prop_assert!(out.snippet.nodes.contains(&doc.parent(n).unwrap()));
                }
            }
            // Coverage accounting.
            prop_assert_eq!(
                out.snippet.coverage(),
                items_covered_by(&out.ilist, &out.snippet.nodes)
            );
            prop_assert_eq!(out.snippet.coverage() + out.snippet.skipped.len(), out.ilist.len());
        }
    }

    /// Greedy never beats the exact optimum, and both respect the bound.
    #[test]
    fn greedy_is_bounded_by_exact(
        spec in spec_strategy(),
        keywords in query_strategy(),
        bound in 0usize..10,
    ) {
        let doc = build(&spec);
        let extract = Extract::new(&doc);
        let query = KeywordQuery::from_keywords(keywords);
        for result in extract.search(&query, Algorithm::XSeek).into_iter().take(3) {
            let ilist = extract.ilist(&query, &result, &ExtractConfig::default());
            let greedy = greedy_select(&doc, &ilist, result.root, bound);
            let Some(exact) =
                exact_select(&doc, &ilist, result.root, bound, ExactLimits { max_states: 200_000 })
            else {
                continue; // search too large for the cap — skip this case
            };
            prop_assert!(greedy.coverage() <= exact.coverage());
            prop_assert!(exact.edges <= bound);
            prop_assert!(greedy.edges <= bound);
        }
    }

    /// Coverage is monotone in the bound: the exact optimum's in size, the
    /// greedy selector's in IList rank order. The greedy picks an item's
    /// instance by its cost alone, and the bound only says whether it fits,
    /// so a larger bound takes the items a smaller one takes up to the first
    /// the smaller one skips — and takes that one. Its item count may still
    /// fall: an item taken there can crowd out cheaper ones after it.
    #[test]
    fn greedy_coverage_monotone_in_bound(
        spec in spec_strategy(),
        keywords in query_strategy(),
    ) {
        let doc = build(&spec);
        let extract = Extract::new(&doc);
        let query = KeywordQuery::from_keywords(keywords);
        let limits = ExactLimits { max_states: 200_000 };
        for result in extract.search(&query, Algorithm::XSeek).into_iter().take(2) {
            let ilist = extract.ilist(&query, &result, &ExtractConfig::default());
            let mut last: Option<(Vec<usize>, Option<usize>)> = None;
            for bound in [0usize, 2, 4, 8, 16, 32] {
                let covered = greedy_select(&doc, &ilist, result.root, bound).covered;
                let exact = exact_select(&doc, &ilist, result.root, bound, limits)
                    .map(|out| out.coverage());
                if let Some((before, exact_before)) = &last {
                    let first_change =
                        (0..ilist.len()).find(|i| before.contains(i) != covered.contains(i));
                    if let Some(item) = first_change {
                        prop_assert!(covered.contains(&item), "bound {bound} drops item {item}");
                    }
                    if let (Some(before), Some(now)) = (exact_before, exact) {
                        prop_assert!(now >= *before, "bound {bound}: exact {before} → {now}");
                    }
                }
                last = Some((covered, exact));
            }
        }
    }

    /// A generous bound covers every IList item (everything in the IList
    /// exists in the result by construction).
    #[test]
    fn generous_bound_covers_everything(
        spec in spec_strategy(),
        keywords in query_strategy(),
    ) {
        let doc = build(&spec);
        let extract = Extract::new(&doc);
        let query = KeywordQuery::from_keywords(keywords);
        for result in extract.search(&query, Algorithm::XSeek) {
            let bound = doc.element_edges(result.root);
            let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(bound));
            prop_assert_eq!(
                out.snippet.coverage(),
                out.ilist.len(),
                "IList: {:?}",
                out.ilist.display(&doc)
            );
        }
    }

    /// Dominance-score arithmetic: per feature type, the scores of all
    /// values weighted by their counts average to exactly D(e,a)·N/N = D…
    /// i.e. Σ_v N(e,a,v)·D/N over values equals D, and every score is
    /// positive.
    #[test]
    fn dominance_scores_sum_to_domain_size(spec in spec_strategy()) {
        use extract_analyzer::{EntityModel, ResultStats};
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        for ftype in stats.feature_types() {
            let d = stats.d_type(ftype) as f64;
            let n = stats.n_type(ftype) as f64;
            let sum: f64 = stats
                .value_table(ftype)
                .iter()
                .map(|row| row.count as f64 * d / n)
                .sum();
            prop_assert!((sum - d).abs() < 1e-9, "type sums to D: {sum} vs {d}");
        }
    }
}
