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

use std::ops::Range;

use extract_analyzer::EntityModel;
use extract_index::tokenize::contains_token;
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId, Symbol};

/// Why an entity type was chosen as the return entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReturnEntityReason {
    /// The entity's name matches a query keyword.
    NameMatch,
    /// One of the entity's attribute names matches a query keyword.
    AttributeNameMatch,
    /// Fallback: the highest entities of the result.
    #[default]
    HighestEntity,
}

/// The identified return entities of one query result.
#[derive(Debug, Clone, Default)]
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
    let (mut by_label, mut runs) = (Vec::new(), Vec::new());
    group_by_label(doc, entities, &mut by_label, &mut runs);
    let mut out = ReturnEntities::default();
    identify_into(doc, model, query, root, (&by_label, &runs), &mut Vec::new(), &mut out);
    out
}

/// A result's entities grouped by type, as [`group_by_label`] leaves
/// them: the `(label, node)` pairs, sorted, and one `(label, range of the
/// pairs)` run per type.
pub(crate) type EntityRuns<'a> = (&'a [(Symbol, NodeId)], &'a [(Symbol, Range<usize>)]);

/// Group entity nodes by label: `by_label` is `(label, node)` sorted, so
/// each type's instances are one run in document order, and `runs` holds
/// one `(label, range of by_label)` per type.
pub(crate) fn group_by_label(
    doc: &Document,
    entities: &[NodeId],
    by_label: &mut Vec<(Symbol, NodeId)>,
    runs: &mut Vec<(Symbol, Range<usize>)>,
) {
    by_label.clear();
    by_label.extend(entities.iter().filter_map(|&e| Some((doc.label(e)?, e))));
    by_label.sort_unstable();
    runs.clear();
    let mut start = 0;
    for run in by_label.chunk_by(|a, b| a.0 == b.0) {
        if let Some(&(label, _)) = run.first() {
            runs.push((label, start..start + run.len()));
        }
        start += run.len();
    }
}

/// The §2.2 rules over the result's entity types, into `out`: `by_label`
/// and `runs` come from [`group_by_label`] (runs in any order). The rules
/// look at types in order of their first instance, so "the first type, in
/// that order, that matches" is the matching run whose first node is
/// smallest. `names` is a buffer for which attribute labels match a
/// keyword, so each distinct label is tokenized once.
pub(crate) fn identify_into(
    doc: &Document,
    model: &EntityModel,
    query: &KeywordQuery,
    root: NodeId,
    (by_label, runs): EntityRuns<'_>,
    names: &mut Vec<(Symbol, bool)>,
    out: &mut ReturnEntities,
) {
    out.label = None;
    out.reason = ReturnEntityReason::HighestEntity;
    out.instances.clear();
    if runs.is_empty() {
        out.instances.push(root);
        return;
    }
    let nodes = |run: &Range<usize>| by_label.get(run.clone()).unwrap_or_default();
    let first = |run: &Range<usize>| nodes(run).first().map(|&(_, n)| n);
    let matches = |name: &str| query.keywords().iter().any(|k| contains_token(name, k));

    // Rule 1: entity name matches a keyword.
    let named = runs
        .iter()
        .filter(|(label, _)| matches(doc.resolve(*label)))
        .min_by_key(|(_, run)| first(run));
    if let Some((label, run)) = named {
        return chosen(out, *label, ReturnEntityReason::NameMatch, nodes(run));
    }

    // Rule 2: an attribute name of the entity matches a keyword. A type
    // whose first instance comes after the best so far cannot win, so it
    // is not checked.
    names.clear();
    let mut named = |label: Symbol| match names.iter().find(|&&(l, _)| l == label) {
        Some(&(_, hit)) => hit,
        None => {
            let hit = matches(doc.resolve(label));
            names.push((label, hit));
            hit
        }
    };
    let mut best: Option<(NodeId, Symbol, &Range<usize>)> = None;
    for (label, run) in runs {
        let Some(start) = first(run) else { continue };
        if best.is_some_and(|(at, _, _)| at < start) {
            continue;
        }
        let attr_match = nodes(run).iter().any(|&(_, e)| {
            doc.element_children(e)
                .filter(|&a| model.is_attribute(a))
                .any(|a| doc.label(a).is_some_and(&mut named))
        });
        if attr_match {
            best = Some((start, *label, run));
        }
    }
    if let Some((_, label, run)) = best {
        return chosen(out, label, ReturnEntityReason::AttributeNameMatch, nodes(run));
    }

    // Rule 3: the highest entities.
    model.highest_entities_into(doc, root, &mut out.instances);
    out.label = out.instances.first().and_then(|&h| doc.label(h));
}

fn chosen(
    out: &mut ReturnEntities,
    label: Symbol,
    reason: ReturnEntityReason,
    instances: &[(Symbol, NodeId)],
) {
    out.label = Some(label);
    out.reason = reason;
    out.instances.extend(instances.iter().map(|&(_, e)| e));
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
