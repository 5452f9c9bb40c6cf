//! Return-entity identification (paper §2.2).
//!
//! "Each query has a search goal": the entities a user is looking for
//! (**return entities**) versus the entities that merely describe them
//! (**supporting entities**). The paper's heuristics, implemented here:
//!
//! 1. an entity type in the result is a return-entity type if its *name*
//!    matches a query keyword;
//! 2. otherwise, if one of its *attribute names* matches a keyword;
//! 3. otherwise the *highest* entities of the result (no ancestor entity)
//!    are the default.
//!
//! Name matching uses the same tokenization as the index (`open_auction`
//! matches keyword `auction`).

use extract_analyzer::EntityModel;
use extract_index::tokenize::contains_token;
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId, Symbol};

/// Why an entity type was chosen as the return entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnEntityReason {
    /// The entity's name matches a query keyword.
    NameMatch,
    /// One of the entity's attribute names matches a query keyword.
    AttributeNameMatch,
    /// Fallback: the highest entities of the result.
    HighestEntity,
}

/// The identified return entities of one query result.
#[derive(Debug, Clone)]
pub struct ReturnEntities {
    /// The chosen entity label (`None` when the result has no entities at
    /// all — then `instances` falls back to the result root).
    pub label: Option<Symbol>,
    /// Why this type was chosen.
    pub reason: ReturnEntityReason,
    /// Instances of the chosen type inside the result, document order.
    pub instances: Vec<NodeId>,
}

/// Identify the return entities of `result` for `query`.
pub fn identify(
    doc: &Document,
    model: &EntityModel,
    query: &KeywordQuery,
    result: &QueryResult,
) -> ReturnEntities {
    identify_among(doc, model, query, result.root, &model.entities_in(doc, result.root))
}

/// [`identify`] for a caller that already holds the entity nodes of the
/// result rooted at `root` (`entities`, document order).
pub fn identify_among(
    doc: &Document,
    model: &EntityModel,
    query: &KeywordQuery,
    root: NodeId,
    entities: &[NodeId],
) -> ReturnEntities {
    if entities.is_empty() {
        return ReturnEntities {
            label: None,
            reason: ReturnEntityReason::HighestEntity,
            instances: vec![root],
        };
    }

    // Entity types present, in order of first instance (document order).
    let mut types: Vec<Symbol> = Vec::new();
    for label in entities.iter().filter_map(|&e| doc.label(e)) {
        if !types.contains(&label) {
            types.push(label);
        }
    }

    // Rule 1: entity name matches a keyword.
    for &label in &types {
        let name = doc.resolve(label);
        if query.keywords().iter().any(|k| contains_token(name, k)) {
            return chosen(doc, entities, label, ReturnEntityReason::NameMatch);
        }
    }

    // Rule 2: an attribute name of the entity matches a keyword.
    for &label in &types {
        let attr_match = entities.iter().filter(|&&e| doc.label(e) == Some(label)).any(|&e| {
            doc.element_children(e).filter(|&a| model.is_attribute(a)).any(|a| {
                let attr_name = doc.label_str(a).unwrap_or_default();
                query.keywords().iter().any(|k| contains_token(attr_name, k))
            })
        });
        if attr_match {
            return chosen(doc, entities, label, ReturnEntityReason::AttributeNameMatch);
        }
    }

    // Rule 3: the highest entities.
    let highest = model.highest_entities(doc, root);
    ReturnEntities {
        label: highest.first().and_then(|&h| doc.label(h)),
        reason: ReturnEntityReason::HighestEntity,
        instances: highest,
    }
}

fn chosen(
    doc: &Document,
    entities: &[NodeId],
    label: Symbol,
    reason: ReturnEntityReason,
) -> ReturnEntities {
    ReturnEntities {
        label: Some(label),
        reason,
        instances: entities
            .iter()
            .copied()
            .filter(|&e| doc.label(e) == Some(label))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_index::XmlIndex;

    fn setup(xml: &str) -> (Document, EntityModel, XmlIndex) {
        let doc = Document::parse_str(xml).unwrap();
        let model = EntityModel::analyze(&doc);
        let index = XmlIndex::build(&doc);
        (doc, model, index)
    }

    const RETAILER: &str = "<retailers>\
        <retailer><name>BB</name>\
          <store><name>G</name><city>Houston</city>\
            <merchandises><clothes><category>suit</category></clothes>\
            <clothes><category>skirt</category></clothes></merchandises>\
          </store>\
          <store><name>W</name><city>Austin</city>\
            <merchandises><clothes><category>hat</category></clothes></merchandises>\
          </store>\
        </retailer>\
        <retailer><name>Other</name><store><name>X</name><city>Plano</city>\
          <merchandises><clothes><category>socks</category></clothes></merchandises></store>\
        </retailer>\
        </retailers>";

    fn result_for(doc: &Document, index: &XmlIndex, q: &KeywordQuery, root: NodeId) -> QueryResult {
        QueryResult::build(doc, index, q, root)
    }

    #[test]
    fn name_match_wins() {
        let (doc, model, index) = setup(RETAILER);
        let q = KeywordQuery::parse("houston retailer");
        let bb = doc.elements_with_label("retailer")[0];
        let r = result_for(&doc, &index, &q, bb);
        let re = identify(&doc, &model, &q, &r);
        assert_eq!(re.reason, ReturnEntityReason::NameMatch);
        assert_eq!(doc.resolve(re.label.unwrap()), "retailer");
        assert_eq!(re.instances, vec![bb]);
    }

    #[test]
    fn attribute_name_match_is_second() {
        let (doc, model, index) = setup(RETAILER);
        // "category" is an attribute name of clothes; no entity is *named*
        // category.
        let q = KeywordQuery::parse("category houston");
        let bb = doc.elements_with_label("retailer")[0];
        let r = result_for(&doc, &index, &q, bb);
        let re = identify(&doc, &model, &q, &r);
        assert_eq!(re.reason, ReturnEntityReason::AttributeNameMatch);
        assert_eq!(doc.resolve(re.label.unwrap()), "clothes");
    }

    #[test]
    fn fallback_is_highest_entity() {
        let (doc, model, index) = setup(RETAILER);
        let q = KeywordQuery::parse("houston suit");
        let bb = doc.elements_with_label("retailer")[0];
        let r = result_for(&doc, &index, &q, bb);
        let re = identify(&doc, &model, &q, &r);
        assert_eq!(re.reason, ReturnEntityReason::HighestEntity);
        // Result root is the retailer — itself an entity ⇒ highest.
        assert_eq!(doc.resolve(re.label.unwrap()), "retailer");
        assert_eq!(re.instances, vec![bb]);
    }

    #[test]
    fn name_match_beats_attribute_match_even_for_later_types() {
        let (doc, model, index) = setup(RETAILER);
        // "clothes" names an entity; "name" is an attribute of retailer —
        // the *name* rule must win even though retailer comes first.
        let q = KeywordQuery::parse("clothes name");
        let bb = doc.elements_with_label("retailer")[0];
        let r = result_for(&doc, &index, &q, bb);
        let re = identify(&doc, &model, &q, &r);
        assert_eq!(re.reason, ReturnEntityReason::NameMatch);
        assert_eq!(doc.resolve(re.label.unwrap()), "clothes");
        assert_eq!(re.instances.len(), 3, "all clothes inside the BB result");
    }

    #[test]
    fn entityless_result_falls_back_to_root() {
        let (doc, model, index) = setup("<a><b><c>k</c></b></a>");
        let q = KeywordQuery::parse("k");
        let r = result_for(&doc, &index, &q, doc.root());
        let re = identify(&doc, &model, &q, &r);
        assert!(re.label.is_none());
        assert_eq!(re.instances, vec![doc.root()]);
    }

    #[test]
    fn tokenized_label_matching() {
        let (doc, model, index) = setup(
            "<site><open_auction><seller>alice</seller><price>10</price></open_auction>\
             <open_auction><seller>bob</seller><price>20</price></open_auction></site>",
        );
        let q = KeywordQuery::parse("auction alice");
        let r = result_for(&doc, &index, &q, doc.root());
        let re = identify(&doc, &model, &q, &r);
        assert_eq!(re.reason, ReturnEntityReason::NameMatch);
        assert_eq!(doc.resolve(re.label.unwrap()), "open_auction");
    }
}
