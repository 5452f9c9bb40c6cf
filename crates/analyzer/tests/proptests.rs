//! Property tests for the Data Analyzer: classification totality, entity
//! resolution consistency, statistics identities, key-mining soundness, and
//! the schema and mined keys against a reference that counts with a map
//! per node.

use std::collections::{HashMap, HashSet};

use extract_analyzer::keys::KeyQuality;
use extract_analyzer::{EntityModel, KeyCatalog, NodeCategory, ResultStats};
use extract_xml::{DocBuilder, Document, NodeId, PathId, Schema, Symbol};
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

/// Value `v`: one of [`VALUES`], or past them a distinct `k{v}` — so an
/// attribute can be a perfect key.
fn value_text(v: usize) -> String {
    VALUES.get(v).map_or_else(|| format!("k{v}"), |word| word.to_string())
}

fn push(b: &mut DocBuilder, s: &SpecNode) {
    b.begin(LABELS[s.label]);
    if let Some(v) = s.value {
        b.text(&value_text(v));
    }
    for c in &s.children {
        push(b, c);
    }
    b.end();
}

/// Documents whose values are mostly distinct: the key-mining shape.
fn keyed_spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..LABELS.len(), proptest::option::of(0usize..VALUES.len() + 40))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 48, 6, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..6)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

/// A DTD that declares some of [`LABELS`] repeatable and some not, so
/// starredness comes from it where it speaks and from the data elsewhere.
const DTD: &str = "<!DOCTYPE db [\
    <!ELEMENT store (name, city?, clothes*, merch)>\
    <!ELEMENT merch (tag*, name)>\
    <!ELEMENT clothes (#PCDATA)>\
    ]>";

/// One label path as the reference records it.
#[derive(Debug, Clone, PartialEq)]
struct ReferencePath {
    parent: Option<usize>,
    label: Symbol,
    depth: u32,
    instance_count: u32,
    max_siblings: u32,
    has_element_child: bool,
    has_text_child: bool,
    starred: bool,
}

/// The schema and each node's path, inferred the map-per-node way: a
/// `(parent path, label)` map to intern paths, and a fresh label → count
/// map at every element for its children.
fn reference_schema(doc: &Document) -> (Vec<ReferencePath>, Vec<usize>) {
    let mut paths: Vec<ReferencePath> = Vec::new();
    let mut lookup: HashMap<(Option<usize>, Symbol), usize> = HashMap::new();
    let mut intern = |paths: &mut Vec<ReferencePath>, parent: Option<usize>, label: Symbol| {
        *lookup.entry((parent, label)).or_insert_with(|| {
            let depth = parent.map_or(0, |p| paths[p].depth + 1);
            paths.push(ReferencePath {
                parent,
                label,
                depth,
                instance_count: 0,
                max_siblings: 0,
                has_element_child: false,
                has_text_child: false,
                starred: false,
            });
            paths.len() - 1
        })
    };
    let mut node_paths = vec![0; doc.len()];
    let root = doc.root();
    let root_path = intern(&mut paths, None, doc.label(root).expect("an element root"));
    node_paths[root.index()] = root_path;
    paths[root_path].instance_count = 1;
    paths[root_path].max_siblings = 1;
    for node in doc.all_nodes() {
        if doc.is_text(node) {
            continue;
        }
        let here = node_paths[node.index()];
        let mut counts: HashMap<Symbol, u32> = HashMap::new();
        for child in doc.children(node) {
            let Some(label) = doc.label(child) else {
                paths[here].has_text_child = true;
                node_paths[child.index()] = here;
                continue;
            };
            paths[here].has_element_child = true;
            let path = intern(&mut paths, Some(here), label);
            node_paths[child.index()] = path;
            paths[path].instance_count += 1;
            *counts.entry(label).or_default() += 1;
        }
        for (label, count) in counts {
            let path = intern(&mut paths, Some(here), label);
            paths[path].max_siblings = paths[path].max_siblings.max(count);
        }
    }
    for i in 0..paths.len() {
        let Some(parent) = paths[i].parent else { continue };
        let (parent_label, label) = (doc.resolve(paths[parent].label), doc.resolve(paths[i].label));
        paths[i].starred = doc
            .dtd()
            .and_then(|dtd| dtd.is_repeatable(parent_label, label))
            .unwrap_or(paths[i].max_siblings >= 2);
    }
    (paths, node_paths)
}

/// The name preference of key mining: identifiers, then names, then the
/// rest.
fn name_preference(label: &str) -> i32 {
    let lower = label.to_lowercase();
    if lower == "id" || lower == "key" || lower.ends_with("id") {
        3
    } else if lower == "name" || lower == "title" {
        2
    } else if lower.contains("name") || lower.contains("title") {
        1
    } else {
        0
    }
}

/// The key mined for each entity path as `(attribute path, quality,
/// distinct ratio)`, counted the map-per-node way: a fresh attribute path
/// → count map at every entity, and a set of value strings per (entity
/// path, attribute path).
fn reference_keys(
    doc: &Document,
    model: &EntityModel,
) -> HashMap<PathId, (PathId, KeyQuality, f64)> {
    #[derive(Default)]
    struct Stats<'d> {
        instances_with: u32,
        multi_valued: bool,
        values: HashSet<&'d str>,
        value_count: u32,
    }
    let mut stats: HashMap<(PathId, PathId), Stats<'_>> = HashMap::new();
    for node in doc.all_nodes() {
        if !doc.is_element(node) || !model.is_entity(node) {
            continue;
        }
        let entity_path = model.path_of(node);
        let mut seen_here: HashMap<PathId, u32> = HashMap::new();
        for child in doc.element_children(node) {
            if !model.is_attribute(child) {
                continue;
            }
            let attribute_path = model.path_of(child);
            *seen_here.entry(attribute_path).or_default() += 1;
            if let Some(value) = doc.text_of(child) {
                let s = stats.entry((entity_path, attribute_path)).or_default();
                s.values.insert(value);
                s.value_count += 1;
            }
        }
        for (attribute_path, count) in seen_here {
            let s = stats.entry((entity_path, attribute_path)).or_default();
            s.instances_with += 1;
            s.multi_valued |= count > 1;
        }
    }
    let schema = model.schema();
    let mut keys: HashMap<PathId, ((PathId, KeyQuality, f64), i32)> = HashMap::new();
    for ((entity_path, attribute_path), s) in &stats {
        if s.multi_valued {
            continue;
        }
        let entity_count = schema.info(*entity_path).instance_count;
        let ratio = if s.value_count == 0 {
            0.0
        } else {
            s.values.len() as f64 / s.value_count as f64
        };
        let perfect = s.instances_with == entity_count && s.value_count == entity_count && ratio == 1.0;
        let name = name_preference(doc.resolve(schema.info(*attribute_path).label));
        let score = if perfect { 1000 + name } else { name };
        let quality = if perfect { KeyQuality::Perfect } else { KeyQuality::BestEffort };
        let candidate = ((*attribute_path, quality, ratio), score);
        let better = keys.get(entity_path).is_none_or(|&((path, _, r), best)| {
            score > best
                || (score == best
                    && (ratio, std::cmp::Reverse(*attribute_path)) > (r, std::cmp::Reverse(path)))
        });
        if better {
            keys.insert(*entity_path, candidate);
        }
    }
    keys.into_iter().map(|(path, (key, _))| (path, key)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Schema::infer` and `KeyCatalog::mine` equal the map-per-node
    /// reference: every node's path, every path's fields, and every entity
    /// path's key — with and without a DTD.
    #[test]
    fn schema_and_keys_equal_the_map_per_node_reference(
        spec in keyed_spec_strategy(),
        with_dtd in any::<bool>(),
    ) {
        let built = build(&spec);
        let doc = if with_dtd {
            Document::parse_str(&format!("{DTD}{}", built.to_xml_string())).expect("well-formed")
        } else {
            built
        };
        let (schema, node_paths) = Schema::infer(&doc);
        let (expected, expected_nodes) = reference_schema(&doc);
        let nodes: Vec<usize> = node_paths.iter().map(|p| p.index()).collect();
        prop_assert_eq!(nodes, expected_nodes);
        prop_assert_eq!(schema.path_count(), expected.len());
        for (id, info) in schema.paths() {
            let actual = ReferencePath {
                parent: info.parent.map(PathId::index),
                label: info.label,
                depth: info.depth,
                instance_count: info.instance_count,
                max_siblings: info.max_siblings,
                has_element_child: info.has_element_child,
                has_text_child: info.has_text_child,
                starred: info.starred,
            };
            prop_assert_eq!(&actual, &expected[id.index()], "path {}", id.index());
        }

        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        let expected = reference_keys(&doc, &model);
        prop_assert_eq!(catalog.len(), expected.len());
        for (path, _) in schema.paths() {
            let actual = catalog
                .key_of(path)
                .map(|k| (k.attribute_path, k.quality, k.distinct_ratio));
            prop_assert_eq!(actual, expected.get(&path).copied(), "entity path {}", path.index());
        }
    }

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
        let doc = build(&spec);
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        // Group entity instances by path and check key-value uniqueness.
        let mut by_path: HashMap<_, Vec<NodeId>> = HashMap::new();
        for n in doc.subtree_elements(doc.root()) {
            if model.is_entity(n) {
                by_path.entry(model.path_of(n)).or_default().push(n);
            }
        }
        for (path, instances) in by_path {
            let Some(key) = catalog.key_of(path) else { continue };
            if key.quality != KeyQuality::Perfect {
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
