//! Entity / attribute / connection classification (paper §2.1).
//!
//! Classification is computed **per label path** (context-sensitive: `name`
//! under `retailer` and under `store` are classified independently) and
//! cached densely, so per-node queries are O(1).

use extract_xml::{Document, NodeId, PathId, Schema};

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
/// [`Schema`] plus a category per label path.
#[derive(Debug, Clone)]
pub struct EntityModel {
    schema: Schema,
    /// Indexed by `PathId::index()`.
    categories: Vec<NodeCategory>,
}

impl EntityModel {
    /// Analyze `doc`: infer the schema (DTD-aware) and classify every path.
    pub fn analyze(doc: &Document) -> EntityModel {
        let schema = Schema::infer(doc);
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
        EntityModel { schema, categories }
    }

    /// The underlying structural summary.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Category of a label path.
    pub fn category_of_path(&self, path: PathId) -> NodeCategory {
        self.categories[path.index()]
    }

    /// Category of an element node (for text nodes: the parent's category).
    pub fn category(&self, node: NodeId) -> NodeCategory {
        self.category_of_path(self.schema.path_of(node))
    }

    /// Whether the element node is an entity.
    pub fn is_entity(&self, node: NodeId) -> bool {
        self.category(node) == NodeCategory::Entity
    }

    /// Whether the element node is an attribute.
    pub fn is_attribute(&self, node: NodeId) -> bool {
        self.category(node) == NodeCategory::Attribute
    }

    /// The nearest ancestor-or-self of `node` that is an entity, if any.
    pub fn entity_of(&self, doc: &Document, node: NodeId) -> Option<NodeId> {
        doc.ancestors_or_self(node)
            .find(|&n| doc.is_element(n) && self.is_entity(n))
    }

    /// The nearest **strict** ancestor entity of `node`, if any.
    pub fn ancestor_entity_of(&self, doc: &Document, node: NodeId) -> Option<NodeId> {
        doc.ancestors(node).find(|&n| self.is_entity(n))
    }

    /// Entities in the subtree of `root` that have no ancestor entity
    /// strictly inside the subtree — the paper's "highest entities", used
    /// as the default return entity (§2.2). If `root` itself is an entity,
    /// it is the single highest entity.
    pub fn highest_entities(&self, doc: &Document, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.highest_entities_into(doc, root, &mut out);
        out
    }

    /// [`EntityModel::highest_entities`], appended to `out`.
    pub fn highest_entities_into(&self, doc: &Document, root: NodeId, out: &mut Vec<NodeId>) {
        if doc.is_element(root) && self.is_entity(root) {
            out.push(root);
            return;
        }
        // Scan the root's ID interval, jumping over the subtree of every
        // entity found: what is left are entities with none above them.
        let mut descendants = doc.subtree(root).skip(1);
        while let Some(n) = descendants.next() {
            if doc.is_element(n) && self.is_entity(n) {
                out.push(n);
                if let Some(inside) = doc.subtree_size(n).checked_sub(2) {
                    descendants.nth(inside);
                }
            }
        }
    }

    /// All entity nodes in the subtree of `root`, in document order.
    pub fn entities_in(&self, doc: &Document, root: NodeId) -> Vec<NodeId> {
        doc.subtree_elements(root).filter(|&n| self.is_entity(n)).collect()
    }

    /// All attribute nodes in the subtree of `root`, in document order.
    pub fn attributes_in(&self, doc: &Document, root: NodeId) -> Vec<NodeId> {
        doc.subtree_elements(root).filter(|&n| self.is_attribute(n)).collect()
    }

    /// The attribute children of an element (typically of an entity).
    pub fn attribute_children(&self, doc: &Document, node: NodeId) -> Vec<NodeId> {
        doc.element_children(node).filter(|&c| self.is_attribute(c)).collect()
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
        assert_eq!(m.ancestor_entity_of(&d, clothes), Some(store));
        // Retailer's name has no entity ancestor (retailer is a connection
        // node here — single retailer, no DTD).
        let name = d.first_element_with_label("name").unwrap();
        assert_eq!(m.entity_of(&d, name), None);
    }

    #[test]
    fn highest_entities_stop_at_first_entity() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let highest = m.highest_entities(&d, d.root());
        let stores = d.elements_with_label("store");
        assert_eq!(highest, stores, "stores, not the clothes inside them");
        // From a store root, the store itself is the highest entity.
        assert_eq!(m.highest_entities(&d, stores[0]), vec![stores[0]]);
    }

    #[test]
    fn entities_and_attributes_in_subtree() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let store1 = d.elements_with_label("store")[0];
        let entities = m.entities_in(&d, store1);
        assert_eq!(entities.len(), 3); // store1 + 2 clothes
        let attrs = m.attributes_in(&d, store1);
        // name, city, 2 categories
        assert_eq!(attrs.len(), 4);
    }

    #[test]
    fn attribute_children_of_entity() {
        let d = retailer_doc();
        let m = EntityModel::analyze(&d);
        let store1 = d.elements_with_label("store")[0];
        let attrs = m.attribute_children(&d, store1);
        let labels: Vec<&str> = attrs.iter().map(|&a| d.label_str(a).unwrap()).collect();
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

    #[test]
    fn display_of_categories() {
        assert_eq!(NodeCategory::Entity.to_string(), "entity");
        assert_eq!(NodeCategory::Attribute.to_string(), "attribute");
        assert_eq!(NodeCategory::Connection.to_string(), "connection");
    }
}
