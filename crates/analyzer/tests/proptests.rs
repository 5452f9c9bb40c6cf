//! Property tests for the Data Analyzer: classification totality, entity
//! resolution consistency, statistics identities, and key-mining soundness.

use extract_analyzer::{EntityModel, KeyCatalog, NodeCategory, ResultStats};
use extract_xml::{DocBuilder, Document, NodeId};
use proptest::prelude::*;

const LABELS: [&str; 6] = ["store", "clothes", "name", "city", "merch", "tag"];
const VALUES: [&str; 5] = ["texas", "houston", "jeans", "man", "red"];

#[derive(Debug, Clone)]
struct SpecNode {
    label: usize,
    value: Option<usize>,
    children: Vec<SpecNode>,
}

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..LABELS.len(), proptest::option::of(0usize..VALUES.len()))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 48, 6, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..6)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

fn build(spec: &SpecNode) -> Document {
    let mut b = DocBuilder::new("db");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every element gets exactly one category, and the category honours
    /// the definitions: entities repeat (or are DTD-starred), attributes
    /// never have element children, connection nodes are the rest.
    #[test]
    fn classification_is_total_and_consistent(spec in spec_strategy()) {
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        for n in doc.subtree_elements(doc.root()) {
            let cat = model.category(n);
            match cat {
                NodeCategory::Attribute => {
                    // Attributes never have element children anywhere on
                    // their path (path-level classification).
                    prop_assert!(doc.element_children(n).next().is_none()
                        || !model.schema().info(model.path_of(n)).has_element_child);
                }
                NodeCategory::Entity => {
                    // Starred by the schema.
                    prop_assert!(model.schema().info(model.path_of(n)).starred);
                }
                NodeCategory::Connection => {
                    prop_assert!(!model.schema().info(model.path_of(n)).starred);
                }
            }
        }
    }

    /// `entity_of` returns an ancestor-or-self entity, and the nearest one
    /// — for every node, text nodes included, exactly the element the
    /// reference walk over labels and categories finds.
    #[test]
    fn entity_of_is_nearest_ancestor_entity(spec in spec_strategy()) {
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        for n in doc.all_nodes() {
            let reference =
                doc.ancestors_or_self(n).find(|&a| doc.is_element(a) && model.is_entity(a));
            prop_assert_eq!(model.entity_of(&doc, n), reference, "entity of {}", n);
            if doc.is_text(n) {
                continue;
            }
            match model.entity_of(&doc, n) {
                Some(e) => {
                    prop_assert!(doc.is_ancestor_or_self(e, n));
                    prop_assert!(model.is_entity(e));
                    // No entity strictly between e and n.
                    for a in doc.ancestors_or_self(n) {
                        if a == e {
                            break;
                        }
                        prop_assert!(!model.is_entity(a));
                    }
                }
                None => {
                    // No ancestor-or-self may be an entity.
                    for a in doc.ancestors_or_self(n) {
                        prop_assert!(!model.is_entity(a));
                    }
                }
            }
        }
    }

    /// Highest entities are entities, pairwise incomparable, and every
    /// entity in the subtree is below (or equal to) one of them.
    #[test]
    fn highest_entities_cover_all_entities(spec in spec_strategy()) {
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let mut highest = Vec::new();
        model.highest_entities_into(&doc, doc.root(), &mut highest);
        for (i, &a) in highest.iter().enumerate() {
            prop_assert!(model.is_entity(a));
            for &b in &highest[i + 1..] {
                prop_assert!(!doc.is_ancestor_or_self(a, b));
                prop_assert!(!doc.is_ancestor_or_self(b, a));
            }
        }
        for e in model.entities_in(&doc, doc.root()) {
            prop_assert!(
                highest.iter().any(|&h| doc.is_ancestor_or_self(h, e)),
                "entity {e} not under any highest entity"
            );
        }
    }

    /// Statistics identities: N(e,a) = Σ_v N(e,a,v); D = number of distinct
    /// values; occurrence lists have exactly N(e,a,v) entries, all
    /// attribute nodes carrying the value.
    #[test]
    fn result_stats_identities(spec in spec_strategy()) {
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let stats = ResultStats::compute(&doc, &model, doc.root());
        for ft in stats.feature_types() {
            let table = stats.value_table(ft);
            let sum: u32 = table.iter().map(|r| r.count).sum();
            prop_assert_eq!(sum, stats.n_type(ft));
            prop_assert_eq!(table.len() as u32, stats.d_type(ft));
            for row in &table {
                let occ = stats.occurrences(ft, &row.value);
                prop_assert_eq!(occ.len() as u32, row.count);
                for &n in occ {
                    prop_assert_eq!(doc.text_of(n), Some(row.value.as_str()));
                    prop_assert!(model.is_attribute(n));
                }
            }
        }
    }

    /// Subtree stats see a subset of the document's attribute occurrences.
    /// (Type-level counts are *not* comparable across scopes: an attribute
    /// above every entity is attributed to the result root's label, which
    /// changes with the root — per-result statistics are intentionally
    /// relative, like the paper's. The node-level containment is the real
    /// invariant.)
    #[test]
    fn subtree_occurrences_are_a_subset_of_document_occurrences(spec in spec_strategy()) {
        use std::collections::HashSet;
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let whole = ResultStats::compute(&doc, &model, doc.root());
        // Every attribute occurrence node known to the whole-document stats,
        // keyed by (attribute label, value).
        let mut whole_nodes: HashSet<extract_xml::NodeId> = HashSet::new();
        for ft in whole.feature_types() {
            for row in whole.value_table(ft) {
                whole_nodes.extend(whole.occurrences(ft, &row.value));
            }
        }
        let inner: Option<extract_xml::NodeId> = doc.subtree_elements(doc.root()).nth(1);
        if let Some(inner) = inner {
            let sub = ResultStats::compute(&doc, &model, inner);
            for ft in sub.feature_types() {
                for row in sub.value_table(ft) {
                    for &n in sub.occurrences(ft, &row.value) {
                        prop_assert!(
                            whole_nodes.contains(&n),
                            "occurrence {n} unknown to whole-document stats"
                        );
                        prop_assert!(doc.is_ancestor_or_self(inner, n));
                    }
                }
            }
        }
    }

    /// Mined keys are sound: within an entity path, a perfect key's values
    /// are unique across instances.
    #[test]
    fn mined_keys_are_unique_within_entity_path(spec in spec_strategy()) {
        use std::collections::HashSet;
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        // Group entity instances by path and check key-value uniqueness.
        let mut by_path: std::collections::HashMap<_, Vec<NodeId>> =
            std::collections::HashMap::new();
        for n in doc.subtree_elements(doc.root()) {
            if model.is_entity(n) {
                by_path.entry(model.path_of(n)).or_default().push(n);
            }
        }
        for (path, instances) in by_path {
            let Some(key) = catalog.key_of(path) else { continue };
            if key.quality != extract_analyzer::keys::KeyQuality::Perfect {
                continue;
            }
            let mut seen = HashSet::new();
            for inst in instances {
                let value = catalog
                    .key_node(&doc, &model, inst)
                    .and_then(|n| doc.text_of(n))
                    .expect("perfect keys exist on every instance");
                prop_assert!(seen.insert(value.to_string()), "duplicate key {value}");
            }
        }
    }
}
