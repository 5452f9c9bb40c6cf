//! XSeek-style result roots (Liu & Chen, SIGMOD 2007, as used by the demo).
//!
//! Plain SLCA roots can be connection nodes (e.g. `merchandises`), which
//! make poor semantic results. XSeek returns *meaningful* units: we lift
//! each SLCA to its nearest ancestor-or-self **entity** node, deduplicate,
//! and return the full subtree of each lifted root as the query result —
//! matching the paper's Figure 1, where the result of "Texas apparel
//! retailer" is the whole `retailer` subtree.

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::query::KeywordQuery;
use crate::result::QueryResult;
use crate::slca::{slca_auto_with, SlcaScratch};

/// How result roots are derived from SLCA nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RootPolicy {
    /// Use SLCA nodes verbatim.
    Slca,
    /// Lift each SLCA to its nearest ancestor-or-self entity (XSeek).
    #[default]
    Entity,
}

/// Reusable buffers for [`result_roots_with`]: one instance serves every
/// candidate document of a request (`'i` is the borrow of their indexes),
/// so a corpus query allocates for its largest document, not once per
/// document.
#[derive(Debug, Default)]
pub struct RootsScratch<'i> {
    /// The query's posting lists in the current document, query order.
    lists: Vec<&'i [NodeId]>,
    slca: SlcaScratch,
    slcas: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl<'i> RootsScratch<'i> {
    /// The posting lists (one per query keyword, query order) of the
    /// document the last [`result_roots_with`] call ran on — what a
    /// scorer restricts to each root's interval.
    pub fn lists(&self) -> &[&'i [NodeId]] {
        &self.lists
    }

    /// The result roots the last [`result_roots_with`] call found, in
    /// document order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }
}

/// Compute result roots for `query` under `policy`.
pub fn result_roots(
    doc: &Document,
    index: &XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    policy: RootPolicy,
) -> Vec<NodeId> {
    let mut scratch = RootsScratch::default();
    result_roots_with(doc, index, model, query, policy, &mut scratch);
    scratch.roots
}

/// [`result_roots`] into caller-owned buffers: the roots land in
/// [`RootsScratch::roots`], and nothing allocates once `scratch` has
/// warmed up.
pub fn result_roots_with<'i>(
    doc: &Document,
    index: &'i XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    policy: RootPolicy,
    scratch: &mut RootsScratch<'i>,
) {
    let RootsScratch { lists, slca, slcas, roots } = scratch;
    lists.clear();
    lists.extend(query.keywords().iter().map(|k| index.postings(k)));
    match policy {
        RootPolicy::Slca => slca_auto_with(doc, lists, slca, roots),
        RootPolicy::Entity => {
            slca_auto_with(doc, lists, slca, slcas);
            roots.clear();
            roots.extend(slcas.iter().map(|&n| model.entity_of(doc, n).unwrap_or(n)));
            roots.sort_unstable();
            roots.dedup();
            // Lifting can create nesting (one lifted root inside another);
            // keep the highest so results stay disjoint. In document order
            // a root is nested iff it starts before the last kept one ends.
            let mut covered = None;
            roots.retain(|&r| {
                if covered.is_some_and(|end| r < end) {
                    return false;
                }
                covered = Some(doc.subtree_end(r));
                true
            });
        }
    }
}

/// Full XSeek search: roots under `policy`, then per-root match scoping.
pub fn search(
    doc: &Document,
    index: &XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    policy: RootPolicy,
) -> Vec<QueryResult> {
    result_roots(doc, index, model, query, policy)
        .into_iter()
        .map(|root| QueryResult::build(doc, index, query, root))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(xml: &str) -> (Document, XmlIndex, EntityModel) {
        let doc = Document::parse_str(xml).unwrap();
        let index = XmlIndex::build(&doc);
        let model = EntityModel::analyze(&doc);
        (doc, index, model)
    }

    #[test]
    fn lifts_connection_slca_to_entity() {
        // SLCA of (jeans, man) is the clothes node — an entity already; but
        // SLCA of (levis, jeans) is the store (name and merchandises are
        // siblings)… make a case where the SLCA is a connection node:
        // matches inside merchandises only.
        let (doc, index, model) = setup(
            "<stores>\
             <store><name>Levis</name>\
               <merchandises>\
                 <clothes><category>jeans</category></clothes>\
                 <clothes><category>skirt</category></clothes>\
               </merchandises>\
             </store>\
             <store><name>Gap</name>\
               <merchandises><clothes><category>jeans</category></clothes></merchandises>\
             </store>\
             </stores>",
        );
        let q = KeywordQuery::parse("jeans skirt");
        let slca_roots = result_roots(&doc, &index, &model, &q, RootPolicy::Slca);
        assert_eq!(slca_roots.len(), 1);
        assert_eq!(doc.label_str(slca_roots[0]), Some("merchandises"));
        let entity_roots = result_roots(&doc, &index, &model, &q, RootPolicy::Entity);
        assert_eq!(entity_roots.len(), 1);
        assert_eq!(doc.label_str(entity_roots[0]), Some("store"));
    }

    #[test]
    fn distinct_slcas_lifting_to_same_entity_merge() {
        let (doc, index, model) = setup(
            "<stores>\
             <store><name>Levis</name>\
               <merchandises>\
                 <clothes><category>jeans</category><fitting>man</fitting></clothes>\
                 <clothes><category>jeans</category><fitting>woman</fitting></clothes>\
               </merchandises>\
             </store>\
             <store><name>X</name>\
               <merchandises><clothes><category>hat</category></clothes></merchandises>\
             </store>\
             </stores>",
        );
        let q = KeywordQuery::parse("jeans");
        let slca_roots = result_roots(&doc, &index, &model, &q, RootPolicy::Slca);
        assert_eq!(slca_roots.len(), 2, "each jeans clothes is its own SLCA");
        let entity_roots = result_roots(&doc, &index, &model, &q, RootPolicy::Entity);
        // Both clothes are entities themselves, so they stay distinct...
        assert_eq!(entity_roots.len(), 2);
        assert!(entity_roots.iter().all(|&n| doc.label_str(n) == Some("clothes")));
    }

    #[test]
    fn no_entity_ancestor_keeps_slca() {
        let (doc, index, model) = setup("<a><b><c>k1</c><d>k2</d></b></a>");
        let q = KeywordQuery::parse("k1 k2");
        let roots = result_roots(&doc, &index, &model, &q, RootPolicy::Entity);
        assert_eq!(roots.len(), 1);
        assert_eq!(doc.label_str(roots[0]), Some("b"), "no entities anywhere; SLCA kept");
    }

    #[test]
    fn nested_lifted_roots_are_deduplicated_to_the_highest() {
        // Both an item and its containing store become roots after lifting;
        // the store (higher) must absorb the item.
        let (doc, index, model) = setup(
            "<r>\
             <store><name>tex</name>\
               <item><tag>tex</tag></item>\
               <item><tag>other</tag></item>\
             </store>\
             <store><name>o</name><item><tag>x</tag></item><item><tag>y</tag></item></store>\
             </r>",
        );
        let q = KeywordQuery::parse("tex");
        let roots = result_roots(&doc, &index, &model, &q, RootPolicy::Entity);
        assert_eq!(roots.len(), 1);
        assert_eq!(doc.label_str(roots[0]), Some("store"));
    }

    #[test]
    fn search_returns_scoped_results() {
        let (doc, index, model) = setup(
            "<stores>\
             <store><name>Levis</name><state>Texas</state></store>\
             <store><name>ESprit</name><state>Texas</state></store>\
             <store><name>Gap</name><state>Ohio</state></store>\
             </stores>",
        );
        let q = KeywordQuery::parse("store texas");
        let results = search(&doc, &index, &model, &q, RootPolicy::Entity);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(doc.label_str(r.root), Some("store"));
            assert!(r.covers_all_keywords());
        }
    }

    #[test]
    fn empty_query_has_no_results() {
        let (doc, index, model) = setup("<a>x</a>");
        let q = KeywordQuery::parse("");
        assert!(search(&doc, &index, &model, &q, RootPolicy::Entity).is_empty());
    }
}
