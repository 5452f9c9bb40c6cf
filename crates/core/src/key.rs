//! Query-result key identification (paper §2.2).
//!
//! "To make a snippet distinguishable … we propose to include the key of a
//! query result into the snippet, which resembles the title of a text
//! document." The key of the result is the value of the mined key attribute
//! of the (first) return-entity instance.

use std::ops::Range;

use extract_analyzer::{EntityModel, KeyCatalog};
use extract_xml::{Document, NodeId, Symbol};

use crate::return_entity::ReturnEntities;

/// The identified key of one query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultKey {
    /// The return entity's label.
    pub entity: Symbol,
    /// The key attribute's label.
    pub attribute: Symbol,
    /// The key value (e.g. "Brook Brothers").
    pub value: String,
    /// The attribute node instances carrying the key — one per return
    /// entity instance that has the key attribute.
    pub instances: Vec<NodeId>,
}

/// A result key as the snippet kernel keeps it: the value is the text of
/// `node`, the instances a range of the caller's arena.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KeyAt {
    pub(crate) entity: Symbol,
    pub(crate) attribute: Symbol,
    /// The first return entity's key node.
    pub(crate) node: NodeId,
    pub(crate) instances: Range<usize>,
}

/// Identify the result key given the return entities. Returns `None` when
/// the return entity type has no mined key, or no instance carries a value.
pub fn identify(
    doc: &Document,
    model: &EntityModel,
    catalog: &KeyCatalog,
    return_entities: &ReturnEntities,
) -> Option<ResultKey> {
    let mut instances = Vec::new();
    let at = identify_into(doc, model, catalog, return_entities, &mut instances)?;
    let value = doc.text_of(at.node)?.to_string();
    Some(ResultKey { entity: at.entity, attribute: at.attribute, value, instances })
}

/// [`identify`], appending the key's instances to `arena`.
pub(crate) fn identify_into(
    doc: &Document,
    model: &EntityModel,
    catalog: &KeyCatalog,
    return_entities: &ReturnEntities,
    arena: &mut Vec<NodeId>,
) -> Option<KeyAt> {
    let entity = return_entities.label?;
    let first = *return_entities.instances.first()?;
    let node = catalog.key_node(doc, model, first)?;
    let value = doc.text_of(node)?;
    let attribute = doc.label(node)?;
    // The key of *the result* is the first instance's value; record every
    // return-entity instance whose key carries the same value (normally
    // exactly one, keys being unique).
    let start = arena.len();
    arena.extend(
        return_entities
            .instances
            .iter()
            .filter_map(|&e| catalog.key_node(doc, model, e))
            .filter(|&n| doc.text_of(n) == Some(value)),
    );
    Some(KeyAt { entity, attribute, node, instances: start..arena.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::return_entity;
    use extract_index::XmlIndex;
    use extract_search::{KeywordQuery, QueryResult};

    const STORES: &str = "<stores>\
        <store><name>Levis</name><state>Texas</state></store>\
        <store><name>ESprit</name><state>Texas</state></store>\
        </stores>";

    fn setup(xml: &str) -> (Document, EntityModel, KeyCatalog, XmlIndex) {
        let doc = Document::parse_str(xml).unwrap();
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        let index = XmlIndex::build(&doc);
        (doc, model, catalog, index)
    }

    #[test]
    fn key_of_store_result_is_its_name() {
        let (doc, model, catalog, index) = setup(STORES);
        let q = KeywordQuery::parse("store texas");
        let store2 = doc.elements_with_label("store")[1];
        let result = QueryResult::build(&doc, &index, &q, store2);
        let re = return_entity::identify(&doc, &model, &q, &result);
        let key = identify(&doc, &model, &catalog, &re).expect("store has a key");
        assert_eq!(doc.resolve(key.entity), "store");
        assert_eq!(doc.resolve(key.attribute), "name");
        assert_eq!(key.value, "ESprit");
        assert_eq!(key.instances.len(), 1);
        assert_eq!(doc.text_of(key.instances[0]), Some("ESprit"));
    }

    #[test]
    fn no_key_when_entity_has_none() {
        let (doc, model, catalog, index) =
            setup("<r><e><x/></e><e><x/></e></r>");
        let q = KeywordQuery::parse("e");
        let result = QueryResult::build(&doc, &index, &q, doc.root());
        let re = return_entity::identify(&doc, &model, &q, &result);
        assert!(identify(&doc, &model, &catalog, &re).is_none());
    }

    #[test]
    fn no_key_for_entityless_results() {
        let (doc, model, catalog, index) = setup("<a><b>k</b></a>");
        let q = KeywordQuery::parse("k");
        let result = QueryResult::build(&doc, &index, &q, doc.root());
        let re = return_entity::identify(&doc, &model, &q, &result);
        assert!(identify(&doc, &model, &catalog, &re).is_none());
    }

    #[test]
    fn first_instance_decides_the_value() {
        let (doc, model, catalog, index) = setup(STORES);
        let q = KeywordQuery::parse("store");
        // Result rooted at <stores> has two store instances; Levis is first.
        let result = QueryResult::build(&doc, &index, &q, doc.root());
        let re = return_entity::identify(&doc, &model, &q, &result);
        let key = identify(&doc, &model, &catalog, &re).unwrap();
        assert_eq!(key.value, "Levis");
    }
}
