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
    let (mut by_label, mut runs) = (Vec::new(), Vec::new());
    group_by_label(doc, &model.entities_in(doc, result.root), &mut by_label, &mut runs);
    let nodes: Vec<NodeId> = by_label.iter().map(|&(_, e)| e).collect();
    let mut out = ReturnEntities::default();
    let matches = |i: usize| result.matches.get(i).map(Vec::as_slice).unwrap_or_default();
    let types = EntityTypes { nodes: &nodes, runs: &runs };
    identify_into(doc, model, query, result.root, matches, types, &mut out);
    out
}

/// A result's entity nodes grouped by type: `nodes` is [`group_by_label`]'s
/// pairs with the labels dropped — one run per type, each in document
/// order — and `runs` names each type's label and run, in any order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntityTypes<'a> {
    pub(crate) nodes: &'a [NodeId],
    pub(crate) runs: &'a [(Symbol, Range<usize>)],
}

impl<'a> EntityTypes<'a> {
    /// The instances of the type `label`, document order.
    fn instances(self, label: Symbol) -> &'a [NodeId] {
        let run = self.runs.iter().find(|(l, _)| *l == label);
        run.and_then(|(_, run)| self.nodes.get(run.clone())).unwrap_or_default()
    }
}

/// An entity node as a grouping holds it: alone, or beside its label.
trait EntityNode: Copy {
    fn node(self) -> NodeId;
}

impl EntityNode for NodeId {
    fn node(self) -> NodeId {
        self
    }
}

impl EntityNode for (Symbol, NodeId) {
    fn node(self) -> NodeId {
        self.1
    }
}

/// Group entity nodes by label: `by_label` is `(label, node)` sorted, so
/// each type's instances are one run in document order, and `runs` holds
/// one `(label, range of by_label)` per type, in label order — one sort
/// of the pairs, O(n log n) whatever the mix of types.
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

/// The §2.2 rules over the entity types of the result rooted at `root`,
/// into `out`: `types` holds its entity nodes grouped by type, and
/// `matches(i)` is keyword `i`'s matches inside the result. The rules look
/// at types in order of their first instance, so "the first type, in that
/// order, that matches" is the matching type whose first node is smallest.
///
/// A label that says a keyword makes its element a match of that keyword
/// (the index posts an element under its label's tokens as under its
/// text's), so the two name rules read only the matches: an entity match
/// whose label says its keyword names its type (rule 1), an attribute
/// match whose label says it, a child of an entity, names that entity's
/// type (rule 2). Nothing else of the result is walked.
pub(crate) fn identify_into<'m>(
    doc: &Document,
    model: &EntityModel,
    query: &KeywordQuery,
    root: NodeId,
    matches: impl Fn(usize) -> &'m [NodeId],
    types: EntityTypes<'_>,
    out: &mut ReturnEntities,
) {
    out.label = None;
    out.reason = ReturnEntityReason::HighestEntity;
    out.instances.clear();
    if types.nodes.is_empty() {
        out.instances.push(root);
        return;
    }
    // The matches of each keyword that are of `kind` and whose label says
    // the keyword.
    let matches = &matches;
    let named = |kind: fn(&EntityModel, NodeId) -> bool| {
        (0..query.len()).flat_map(move |i| {
            let keyword = query.keywords().get(i).map_or("", String::as_str);
            matches(i).iter().copied().filter(move |&m| {
                kind(model, m)
                    && doc.label(m).is_some_and(|l| contains_token(doc.resolve(l), keyword))
            })
        })
    };
    let instances = |label: Symbol| types.instances(label);

    // Rule 1: entity name matches a keyword. Every instance of such a
    // type is a match, so the smallest match names the first type.
    let first = named(EntityModel::is_entity).min();
    if let Some(label) = first.and_then(|e| doc.label(e)) {
        return chosen(out, label, ReturnEntityReason::NameMatch, instances(label));
    }

    // Rule 2: an attribute name of the entity matches a keyword: the
    // type whose first instance is smallest among those holding one.
    let holders = named(EntityModel::is_attribute)
        .filter(|&a| a != root)
        .filter_map(|a| doc.parent(a).filter(|&e| model.is_entity(e)))
        .filter_map(|e| doc.label(e));
    let best = holders.min_by_key(|&label| instances(label).first().copied());
    if let Some(label) = best {
        return chosen(out, label, ReturnEntityReason::AttributeNameMatch, instances(label));
    }

    // Rule 3: the highest entities.
    model.highest_entities_into(doc, root, &mut out.instances);
    out.label = out.instances.first().and_then(|&h| doc.label(h));
}

fn chosen(
    out: &mut ReturnEntities,
    label: Symbol,
    reason: ReturnEntityReason,
    instances: &[impl EntityNode],
) {
    out.label = Some(label);
    out.reason = reason;
    out.instances.extend(instances.iter().map(|&e| e.node()));
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

    mod walk {
        //! The rules as first written: every entity type's label checked,
        //! every instance's attribute children walked, the highest
        //! entities found by a scan of the result.

        use super::*;

        pub(super) fn identify(
            doc: &Document,
            model: &EntityModel,
            query: &KeywordQuery,
            root: NodeId,
        ) -> ReturnEntities {
            let entities = model.entities_in(doc, root);
            let (mut by_label, mut runs) = (Vec::new(), Vec::new());
            group_by_label(doc, &entities, &mut by_label, &mut runs);
            let mut out = ReturnEntities::default();
            if runs.is_empty() {
                out.instances.push(root);
                return out;
            }
            let nodes = |run: &Range<usize>| &by_label[run.clone()];
            let first = |run: &Range<usize>| nodes(run)[0].1;
            let matches = |name: &str| query.keywords().iter().any(|k| contains_token(name, k));
            let named = runs
                .iter()
                .filter(|(label, _)| matches(doc.resolve(*label)))
                .min_by_key(|(_, run)| first(run));
            if let Some((label, run)) = named {
                chosen(&mut out, *label, ReturnEntityReason::NameMatch, nodes(run));
                return out;
            }
            let attributed = runs
                .iter()
                .filter(|(_, run)| {
                    nodes(run).iter().any(|&(_, e)| {
                        doc.element_children(e)
                            .filter(|&a| model.is_attribute(a))
                            .any(|a| matches(doc.label_str(a).unwrap()))
                    })
                })
                .min_by_key(|(_, run)| first(run));
            if let Some((label, run)) = attributed {
                chosen(&mut out, *label, ReturnEntityReason::AttributeNameMatch, nodes(run));
                return out;
            }
            let highest: Vec<NodeId> = entities
                .iter()
                .copied()
                .filter(|&e| {
                    e == root || !doc.ancestors_or_self(e).skip(1).take_while(|&a| a >= root).any(|a| model.is_entity(a))
                })
                .collect();
            out.label = highest.first().and_then(|&h| doc.label(h));
            out.instances = highest;
            out
        }
    }

    const WORDS: [&str; 8] =
        ["store", "name", "open_auction", "auction", "city", "Texas", "item", "name_id"];

    #[derive(Debug, Clone)]
    struct Spec {
        label: usize,
        value: Option<usize>,
        children: Vec<Spec>,
    }

    fn spec() -> impl proptest::strategy::Strategy<Value = Spec> {
        use proptest::prelude::*;
        let leaf = (0..WORDS.len(), proptest::option::of(0..WORDS.len()))
            .prop_map(|(label, value)| Spec { label, value, children: Vec::new() });
        leaf.prop_recursive(3, 32, 4, |inner| {
            (0..WORDS.len(), proptest::collection::vec(inner, 0..4))
                .prop_map(|(label, children)| Spec { label, value: None, children })
        })
    }

    fn build_spec(b: &mut extract_xml::DocBuilder, s: &Spec) {
        b.begin(WORDS[s.label]);
        if let Some(v) = s.value {
            b.text(WORDS[v]);
        }
        for c in &s.children {
            build_spec(b, c);
        }
        b.end();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Reading the rules off the keyword matches picks what walking
        /// every entity type and attribute does, at every element root.
        #[test]
        fn the_rules_read_from_matches_equal_the_walk(
            specs in proptest::collection::vec(spec(), 1..4),
            words in proptest::collection::vec(0..WORDS.len(), 1..4),
        ) {
            let mut b = extract_xml::DocBuilder::new("db");
            for s in &specs {
                build_spec(&mut b, s);
                build_spec(&mut b, s);
            }
            let (doc, model, index) = {
                let doc = b.build();
                let model = EntityModel::analyze(&doc);
                let index = XmlIndex::build(&doc);
                (doc, model, index)
            };
            let q = KeywordQuery::from_keywords(words.iter().map(|&w| WORDS[w]));
            for root in (0..doc.len()).map(NodeId::from_index).filter(|&n| doc.label(n).is_some()) {
                let got = identify(&doc, &model, &q, &result_for(&doc, &index, &q, root));
                let want = walk::identify(&doc, &model, &q, root);
                proptest::prop_assert_eq!(
                    (got.label, got.reason, got.instances),
                    (want.label, want.reason, want.instances)
                );
            }
        }
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
