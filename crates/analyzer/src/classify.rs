//! Entity / attribute / connection classification (paper §2.1).
//!
//! Classification is computed **per label path** (context-sensitive: `name`
//! under `retailer` and under `store` are classified independently) and
//! cached densely, so per-node queries are O(1).
//!
//! # One column per node
//!
//! The model keeps one `u32` per node. Most entries name the node's label
//! path, which is all classification reads. A *valued attribute* — an
//! attribute element whose only child is its text — names its **feature**
//! instead: the `(entity label, attribute label, value)` triple of §2.3,
//! numbered once per document so that numeric order *is* the order the
//! statistics list values in (type, then value by first eight bytes,
//! length, bytes — see [`crate::FeatureTables`]). A result's feature table
//! is then a count over the ids in its interval, and no numbered value is
//! read. The attribute's own path is still one load away: its text child's
//! entry records it. Key mining counts an attribute's distinct values by
//! the same ids.
//!
//! An attribute with no entity above it anywhere belongs to whichever
//! result root counts it (§2.3's statistics name that root's label as its
//! entity), so it has no id: its entry only marks it, and the statistics
//! order its value by text under each root that counts it. Every entry is
//! one `u32`, so the model grows with the document's nodes, whatever their
//! depth.
//!
//! # One entity bit per node
//!
//! Lifting a search result to its entity ([`EntityModel::entity_of`]) asks
//! one question at every ancestor step: is this element an entity? The
//! model answers it from a bit set built with the column — one bit a node,
//! set on the entity elements — so the walk reads the document's
//! navigation column and that bit, not the label, the column entry and the
//! category table.

use std::cmp::Ordering;

use extract_xml::{Document, NodeId, PathId, Schema, Symbol};

use crate::features::{inline_key, FeatureType};

/// The top two bits of a column entry say what its low 30 bits are.
const KIND: u32 = 0b11 << 30;
/// An element's label path.
const ELEMENT: u32 = 0;
/// A text node's label path: its parent's.
const TEXT: u32 = 0b01 << 30;
/// A valued attribute's feature id.
const FEATURE: u32 = 0b10 << 30;
/// A valued attribute with no entity above it.
const ORPHAN: u32 = 0b11 << 30;

/// The column entry of `kind` holding `value`.
///
/// # Panics
/// On a value of 2³⁰ or more: a document with that many label paths or
/// features cannot be represented, and truncating would alias them.
fn entry(kind: u32, value: usize) -> u32 {
    match u32::try_from(value) {
        Ok(v) if v & KIND == 0 => kind | v,
        _ => panic!("{value} label paths or features exceed the entity model's 2^30"),
    }
}

/// One node as the model's column records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// An element that is not a valued attribute, on this path.
    Element(PathId),
    /// A text node, on its parent's path.
    Text(PathId),
    /// A valued attribute with an entity above it: its feature id.
    Feature(u32),
    /// A valued attribute with no entity above it: its entity is the
    /// result root's label, so its feature depends on the result.
    Orphan,
}

impl Slot {
    fn of(entry: u32) -> Slot {
        let value = entry & !KIND;
        match entry & KIND {
            ELEMENT => Slot::Element(PathId::from_index(value as usize)),
            TEXT => Slot::Text(PathId::from_index(value as usize)),
            FEATURE => Slot::Feature(value),
            _ => Slot::Orphan,
        }
    }
}

/// The three node categories of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCategory {
    /// A `*`-node: represents a real-world entity.
    Entity,
    /// A non-`*` node whose content is a text value; together with the
    /// value it represents an attribute of its nearest entity.
    Attribute,
    /// Neither entity nor attribute (structural glue).
    Connection,
}

impl std::fmt::Display for NodeCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeCategory::Entity => write!(f, "entity"),
            NodeCategory::Attribute => write!(f, "attribute"),
            NodeCategory::Connection => write!(f, "connection"),
        }
    }
}

/// The classified structural model of one document: the inferred
/// [`Schema`], a category per label path, and one column per node that
/// names its path or, on a valued attribute, its feature (module docs).
#[derive(Debug, Clone)]
pub struct EntityModel {
    schema: Schema,
    /// Indexed by `PathId::index()`.
    categories: Vec<NodeCategory>,
    /// One entry per node, by `NodeId::index()`.
    column: Vec<u32>,
    /// One bit per node, by `NodeId::index()`: set on entity elements.
    entities: Vec<u64>,
    /// Each feature type with the first id numbered under it, in id order.
    types: Vec<(FeatureType, u32)>,
    /// How many feature ids there are.
    features: usize,
}

/// A valued attribute's value, waiting for its feature id.
struct Numbering {
    /// The value's first eight bytes and its length ([`inline_key`]).
    prefix: u64,
    len: usize,
    /// The attribute, whose text is the value; its column entry takes the
    /// id.
    node: NodeId,
}

/// No feature type: a path that is not an attribute's, or an attribute's
/// with no entity above it.
const UNTYPED: u32 = u32::MAX;

impl EntityModel {
    /// Analyze `doc`: infer the schema (DTD-aware), classify every path,
    /// and number every valued attribute's feature.
    pub fn analyze(doc: &Document) -> EntityModel {
        let (schema, paths) = Schema::infer(doc);
        let categories = schema
            .paths()
            .map(|(_, info)| {
                if info.starred {
                    NodeCategory::Entity
                } else if !info.has_element_child && info.has_text_child {
                    NodeCategory::Attribute
                } else {
                    NodeCategory::Connection
                }
            })
            .collect();
        let column = paths
            .into_iter()
            .enumerate()
            .map(|(i, path)| {
                let kind = if doc.is_text(NodeId::from_index(i)) { TEXT } else { ELEMENT };
                entry(kind, path.index())
            })
            .collect();
        let mut model = EntityModel {
            schema,
            categories,
            column,
            entities: vec![0; doc.len().div_ceil(64)],
            types: Vec::new(),
            features: 0,
        };
        for node in doc.all_nodes() {
            if doc.is_element(node) && model.is_entity(node) {
                model.entities[node.index() / 64] |= 1 << (node.index() % 64);
            }
        }
        model.number_features(doc);
        model
    }

    /// Whether `node` is an entity element: its bit.
    fn entity_bit(&self, node: NodeId) -> bool {
        self.entities[node.index() / 64] >> (node.index() % 64) & 1 != 0
    }

    /// Give every valued attribute its feature id: `(owner, attribute
    /// label, value)`, the owner being the label of the nearest entity
    /// above it, numbered in statistics order — equal triples share an id.
    /// One with no entity above it is only marked [`Slot::Orphan`].
    ///
    /// The owner and the attribute label are both fixed by the attribute's
    /// label path, so the types are ranked once a path: the attributes are
    /// grouped by their type's rank, and each group sorted by value. Many
    /// short sorts on a value key cost less than one sort on a
    /// (type, value) key (BASELINES "PR 39").
    fn number_features(&mut self, doc: &Document) {
        let paths = self.schema.path_count();
        // By path: the label of the nearest entity path at or above it. A
        // parent path is interned before its children.
        let mut owners: Vec<Option<Symbol>> = Vec::with_capacity(paths);
        let mut typed: Vec<(FeatureType, PathId)> = Vec::new();
        for (path, info) in self.schema.paths() {
            let above = info.parent.and_then(|p| owners[p.index()]);
            let category = self.category_of_path(path);
            if let (NodeCategory::Attribute, Some(entity)) = (category, above) {
                typed.push((FeatureType { entity, attribute: info.label }, path));
            }
            owners.push((category == NodeCategory::Entity).then_some(info.label).or(above));
        }
        // By path: its feature type's rank in type order, or `UNTYPED`.
        typed.sort_unstable();
        let mut ranks = vec![UNTYPED; paths];
        let mut ftypes: Vec<FeatureType> = Vec::new();
        for (ftype, path) in typed {
            if ftypes.last() != Some(&ftype) {
                ftypes.push(ftype);
            }
            ranks[path.index()] = entry(0, ftypes.len() - 1);
        }

        // Every valued attribute under its type's rank, grouped by rank.
        let mut pending: Vec<(u32, Numbering)> = Vec::new();
        for node in doc.all_nodes() {
            let Slot::Element(path) = self.slot(node) else { continue };
            if self.category_of_path(path) != NodeCategory::Attribute || doc.parent(node).is_none() {
                continue;
            }
            let Some(value) = doc.text_of(node) else { continue };
            let rank = ranks[path.index()];
            if rank == UNTYPED {
                self.column[node.index()] = ORPHAN;
                continue;
            }
            let (prefix, len) = inline_key(value);
            pending.push((rank, Numbering { prefix, len, node }));
        }
        pending.sort_unstable_by_key(|&(rank, _)| rank);

        let text = |n: &Numbering| doc.text_of(n.node).unwrap_or_default();
        let order = |a: &Numbering, b: &Numbering| {
            (a.prefix, a.len).cmp(&(b.prefix, b.len)).then_with(|| {
                // Eight bytes and the length spell out a short value.
                if a.len <= 8 {
                    Ordering::Equal
                } else {
                    text(a).cmp(text(b))
                }
            })
        };
        let mut id = 0;
        for bucket in pending.chunk_by_mut(|(a, _), (b, _)| a == b) {
            let Some(&(rank, _)) = bucket.first() else { continue };
            bucket.sort_unstable_by(|(_, a), (_, b)| order(a, b));
            if !self.types.is_empty() {
                id += 1;
            }
            self.types.push((ftypes[rank as usize], entry(0, id)));
            let mut previous: Option<&Numbering> = None;
            for (_, n) in bucket.iter() {
                if previous.is_some_and(|p| order(p, n) != Ordering::Equal) {
                    id += 1;
                }
                self.column[n.node.index()] = entry(FEATURE, id);
                previous = Some(n);
            }
        }
        self.features = if self.types.is_empty() { 0 } else { id + 1 };
    }

    /// The underlying structural summary.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Category of a label path.
    pub fn category_of_path(&self, path: PathId) -> NodeCategory {
        self.categories[path.index()]
    }

    /// The column entry of a node.
    fn slot(&self, node: NodeId) -> Slot {
        Slot::of(self.column[node.index()])
    }

    /// The label path of a node (for text nodes, the parent element's path).
    pub fn path_of(&self, node: NodeId) -> PathId {
        match self.slot(node) {
            Slot::Element(path) | Slot::Text(path) => path,
            // A valued attribute's only child is its text, on its path.
            Slot::Feature(_) | Slot::Orphan => {
                match self.slot(NodeId::from_index(node.index() + 1)) {
                    Slot::Text(path) => path,
                    _ => unreachable!("a valued attribute's next node is its text"),
                }
            }
        }
    }

    /// Category of an element node (for text nodes: the parent's category).
    pub fn category(&self, node: NodeId) -> NodeCategory {
        match self.slot(node) {
            Slot::Element(path) | Slot::Text(path) => self.category_of_path(path),
            Slot::Feature(_) | Slot::Orphan => NodeCategory::Attribute,
        }
    }

    /// The column entries of the nodes `from..to` (by index), in order.
    pub(crate) fn slots(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = Slot> + '_ {
        self.column.get(from.index()..to.index()).unwrap_or_default().iter().map(|&e| Slot::of(e))
    }

    /// The feature id of a valued attribute with an entity above it.
    pub(crate) fn feature_of(&self, node: NodeId) -> Option<u32> {
        match self.slot(node) {
            Slot::Feature(id) => Some(id),
            _ => None,
        }
    }

    /// How many feature ids the document has: every id is below it.
    pub(crate) fn feature_count(&self) -> usize {
        self.features
    }

    /// Every feature type with the first id numbered under it, in id order:
    /// a type's ids run up to the next type's first.
    pub(crate) fn feature_types(&self) -> &[(FeatureType, u32)] {
        &self.types
    }

    /// Whether the element node is an entity.
    pub fn is_entity(&self, node: NodeId) -> bool {
        self.category(node) == NodeCategory::Entity
    }

    /// Whether the element node is an attribute.
    pub fn is_attribute(&self, node: NodeId) -> bool {
        self.category(node) == NodeCategory::Attribute
    }

    /// The nearest ancestor-or-self of `node` that is an entity element,
    /// if any: a parent walk testing each step's entity bit.
    pub fn entity_of(&self, doc: &Document, node: NodeId) -> Option<NodeId> {
        doc.ancestors_or_self(node).find(|&n| self.entity_bit(n))
    }

    /// Entities in the subtree of `root` that have no ancestor entity
    /// strictly inside the subtree — the paper's "highest entities", used
    /// as the default return entity (§2.2). If `root` itself is an entity,
    /// it is the single highest entity. They are appended to `out`.
    pub fn highest_entities_into(&self, doc: &Document, root: NodeId, out: &mut Vec<NodeId>) {
        if self.entity_bit(root) {
            out.push(root);
            return;
        }
        // Scan the root's ID interval, jumping over the subtree of every
        // entity found: what is left are entities with none above them.
        let mut descendants = doc.subtree(root).skip(1);
        while let Some(n) = descendants.next() {
            if self.entity_bit(n) {
                out.push(n);
                if let Some(inside) = doc.subtree_size(n).checked_sub(2) {
                    descendants.nth(inside);
                }
            }
        }
    }

    /// All entity nodes in the subtree of `root`, in document order.
    pub fn entities_in(&self, doc: &Document, root: NodeId) -> Vec<NodeId> {
        doc.subtree(root).filter(|&n| self.entity_bit(n)).collect()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn retailer_doc() -> Document {
        // Two stores ⇒ store is a *-node by inference; two clothes under one
        // merchandises ⇒ clothes is a *-node; everything else singleton.
        Document::parse_str(
            "<retailer><name>BB</name><product>apparel</product>\
             <store><name>Galleria</name><city>Houston</city>\
               <merchandises>\
                 <clothes><category>suit</category></clothes>\
                 <clothes><category>outwear</category></clothes>\
               </merchandises>\
             </store>\
             <store><name>West Village</name><city>Austin</city>\
               <merchandises><clothes><category>skirt</category></clothes></merchandises>\
             </store></retailer>",
        )
        .unwrap()
    }

    #[test]
    fn classifies_the_paper_example() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let store = d.first_element_with_label("store").unwrap();
        let clothes = d.first_element_with_label("clothes").unwrap();
        let merch = d.first_element_with_label("merchandises").unwrap();
        let city = d.first_element_with_label("city").unwrap();
        assert_eq!(m.category(store), NodeCategory::Entity);
        assert_eq!(m.category(clothes), NodeCategory::Entity);
        assert_eq!(m.category(city), NodeCategory::Attribute);
        assert_eq!(m.category(merch), NodeCategory::Connection);
        assert_eq!(m.category(d.root()), NodeCategory::Connection);
    }

    #[test]
    fn dtd_driven_classification_beats_inference() {
        // One store in the data, but the DTD declares store*.
        let d = Document::parse_str(
            "<!DOCTYPE retailer [\
               <!ELEMENT retailer (store*)>\
               <!ELEMENT store (name)>\
               <!ELEMENT name (#PCDATA)>\
             ]>\
             <retailer><store><name>solo</name></store></retailer>",
        )
        .unwrap();
        let m = EntityModel::analyze(&d);
        let store = d.first_element_with_label("store").unwrap();
        assert_eq!(m.category(store), NodeCategory::Entity);
    }

    #[test]
    fn entity_of_walks_upward() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let category = d.first_element_with_label("category").unwrap();
        let clothes = d.first_element_with_label("clothes").unwrap();
        assert_eq!(m.entity_of(&d, category), Some(clothes));
        assert_eq!(m.entity_of(&d, clothes), Some(clothes), "ancestor-or-self");
        let store = d.first_element_with_label("store").unwrap();
        assert_eq!(m.entity_of(&d, d.parent(clothes).unwrap()), Some(store), "strict ancestor");
        // Retailer's name has no entity ancestor (retailer is a connection
        // node here — single retailer, no DTD).
        let name = d.first_element_with_label("name").unwrap();
        assert_eq!(m.entity_of(&d, name), None);
    }

    #[test]
    fn highest_entities_stop_at_first_entity() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let highest = |root| {
            let mut out = Vec::new();
            m.highest_entities_into(&d, root, &mut out);
            out
        };
        let stores = d.elements_with_label("store");
        assert_eq!(highest(d.root()), stores, "stores, not the clothes inside them");
        // From a store root, the store itself is the highest entity.
        assert_eq!(highest(stores[0]), vec![stores[0]]);
    }

    #[test]
    fn entities_and_attributes_in_subtree() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let store1 = d.elements_with_label("store")[0];
        let entities = m.entities_in(&d, store1);
        assert_eq!(entities.len(), 3); // store1 + 2 clothes
        let attrs: Vec<NodeId> =
            d.subtree_elements(store1).filter(|&n| m.is_attribute(n)).collect();
        // name, city, 2 categories
        assert_eq!(attrs.len(), 4);
    }

    #[test]
    fn attribute_children_of_entity() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let store1 = d.elements_with_label("store")[0];
        let labels: Vec<&str> = d
            .element_children(store1)
            .filter(|&c| m.is_attribute(c))
            .map(|a| d.label_str(a).unwrap())
            .collect();
        assert_eq!(labels, vec!["name", "city"]);
    }

    #[test]
    fn empty_leaf_is_connection() {
        let d = Document::parse_str("<a><b/><c>text</c></a>").unwrap();
        let m = EntityModel::analyze(&d);
        let b = d.first_element_with_label("b").unwrap();
        let c = d.first_element_with_label("c").unwrap();
        assert_eq!(m.category(b), NodeCategory::Connection);
        assert_eq!(m.category(c), NodeCategory::Attribute);
    }

    #[test]
    fn repeated_text_leaves_are_entities_not_attributes() {
        // Multi-valued text children repeat ⇒ they are *-nodes.
        let d = Document::parse_str(
            "<paper><author>A</author><author>B</author><title>T</title></paper>",
        )
        .unwrap();
        let m = EntityModel::analyze(&d);
        let author = d.first_element_with_label("author").unwrap();
        let title = d.first_element_with_label("title").unwrap();
        assert_eq!(m.category(author), NodeCategory::Entity);
        assert_eq!(m.category(title), NodeCategory::Attribute);
    }

    /// A chain of distinct labels with distinct valued leaves at its
    /// bottom: nothing repeats, so nothing is an entity, and every leaf is
    /// an attribute whose entity is whichever ancestor roots a result. The
    /// model still holds one entry a node and a category a path, whatever
    /// the depth.
    #[test]
    fn a_deep_document_without_entities_builds_a_model_linear_in_nodes() {
        const DEPTH: usize = 1_000;
        const LEAVES: usize = 500;
        let mut b = extract_xml::DocBuilder::new("l0");
        for i in 1..DEPTH {
            b.begin(&format!("l{i}"));
        }
        for i in 0..LEAVES {
            b.begin(&format!("x{i}")).text(&format!("v{i}")).end();
        }
        for _ in 1..DEPTH {
            b.end();
        }
        let d = b.build();
        assert_eq!(d.len(), DEPTH + 2 * LEAVES);
        let m = EntityModel::analyze(&d);
        let leaf = d.first_element_with_label("x0").unwrap();
        assert_eq!(m.category(leaf), NodeCategory::Attribute);
        assert_eq!(m.slot(leaf), Slot::Orphan);
        assert_eq!(m.path_of(leaf), m.path_of(d.children(leaf).next().unwrap()));
        assert_eq!(m.column.len(), d.len());
        assert!(m.entities.len() * 64 < d.len() + 64, "at most one entity bit a node");
        assert_eq!(m.categories.len(), DEPTH + LEAVES);
        assert_eq!((m.features, m.types.len()), (0, 0), "no leaf has an entity to number under");
    }

    #[test]
    fn display_of_categories() {
        assert_eq!(NodeCategory::Entity.to_string(), "entity");
        assert_eq!(NodeCategory::Attribute.to_string(), "attribute");
        assert_eq!(NodeCategory::Connection.to_string(), "connection");
    }
}
