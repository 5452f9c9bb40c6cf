//! XSeek-style result roots (Liu & Chen, SIGMOD 2007, as used by the demo).
//!
//! Plain SLCA roots can be connection nodes (e.g. `merchandises`), which
//! make poor semantic results. XSeek returns *meaningful* units: we lift
//! each SLCA to its nearest ancestor-or-self **entity** node, keep the
//! highest of any nested lifted roots, and return the full subtree of each
//! as the query result — matching the paper's Figure 1, where the result
//! of "Texas apparel retailer" is the whole `retailer` subtree.
//!
//! SLCA hands its nodes over in document order as it finds them, and each
//! is lifted on arrival onto a keep-highest stack: a lifted root that
//! starts at or before the last kept one is its ancestor and pops it. The
//! roots come out disjoint and in document order with no SLCA buffer, sort
//! or deduplication.
//!
//! The search reads the query's posting lists, one per keyword in query
//! order, and nothing else of the index: [`result_roots`] resolves them by
//! string ([`KeywordQuery::lists`]), and a caller that holds them already
//! (a routed page miss) runs [`result_roots_in`] on them.

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::{Document, NodeId};

use crate::query::KeywordQuery;
use crate::slca::{slca_auto_each, SlcaScratch};

/// How result roots are derived from SLCA nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RootPolicy {
    /// Use SLCA nodes verbatim.
    Slca,
    /// Lift each SLCA to its nearest ancestor-or-self entity (XSeek).
    #[default]
    Entity,
}

/// Reusable buffers for [`result_roots_in`]: SLCA's cursors, the result
/// roots, and the scoring sweep's cursors. One instance serves every
/// candidate document of a request, and a worker keeps it warm from one
/// request to the next, so a query allocates for its largest document
/// once, not per document or per request.
#[derive(Debug, Default)]
pub struct RootsBuffers {
    slca: SlcaScratch,
    pub(crate) roots: Vec<NodeId>,
    /// One forward-only position per posting list, for the scoring sweep
    /// ([`crate::ranking::sweep_scores`]) over `roots`.
    pub(crate) cursors: Vec<usize>,
}

/// Compute result roots for `query` under `policy`.
pub fn result_roots(
    doc: &Document,
    index: &XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    policy: RootPolicy,
) -> Vec<NodeId> {
    let mut buffers = RootsBuffers::default();
    result_roots_in(doc, model, &query.lists(index), policy, &mut buffers);
    buffers.roots
}

/// [`result_roots`] over the query's posting lists (`lists`, one per
/// keyword in query order), into caller-owned buffers: the roots, in
/// document order, are returned from `buffers`, and nothing allocates once
/// they have warmed up.
pub fn result_roots_in<'b>(
    doc: &Document,
    model: &EntityModel,
    lists: &[&[NodeId]],
    policy: RootPolicy,
    buffers: &'b mut RootsBuffers,
) -> &'b [NodeId] {
    let RootsBuffers { slca, roots, .. } = buffers;
    roots.clear();
    match policy {
        RootPolicy::Slca => slca_auto_each(doc, lists, slca, |s| roots.push(s)),
        RootPolicy::Entity => slca_auto_each(doc, lists, slca, |s| {
            lift_onto(doc, roots, model.entity_of(doc, s).unwrap_or(s));
        }),
    }
    roots
}

/// Push the lifted root `r` of the next SLCA in document order onto
/// `kept`, the highest lifted roots so far (disjoint, in document order).
/// `r` holds its SLCA, which lies past every kept root's SLCA, so a kept
/// root that `r` starts at or before is `r` or inside it: it is popped.
/// What is left ends before `r` or holds it — then `r` is dropped.
fn lift_onto(doc: &Document, kept: &mut Vec<NodeId>, r: NodeId) {
    while kept.last().is_some_and(|&last| r <= last) {
        kept.pop();
    }
    if kept.last().is_none_or(|&last| r >= doc.subtree_end(last)) {
        kept.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{search, Algorithm};

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
    fn a_lifted_root_over_two_kept_roots_pops_both() {
        // SLCAs in order: the two tags, then the name. The tags lift to
        // their items and are kept; the name lifts to the store holding
        // both items, which pops the two.
        let (doc, index, model) = setup(
            "<r>\
             <store><item><tag>k</tag></item><item><tag>k</tag></item><name>k</name></store>\
             <store><item><tag>x</tag></item><item><tag>y</tag></item><name>z</name></store>\
             </r>",
        );
        let q = KeywordQuery::parse("k");
        let slcas = result_roots(&doc, &index, &model, &q, RootPolicy::Slca);
        let labels = |roots: &[NodeId]| -> Vec<&str> {
            roots.iter().map(|&n| doc.label_str(n).unwrap()).collect()
        };
        assert_eq!(labels(&slcas), ["tag", "tag", "name"]);
        let lifted: Vec<NodeId> =
            slcas.iter().map(|&s| model.entity_of(&doc, s).unwrap()).collect();
        assert_eq!(labels(&lifted), ["item", "item", "store"]);
        let roots = result_roots(&doc, &index, &model, &q, RootPolicy::Entity);
        assert_eq!(roots, [lifted[2]]);
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
        let results = search(&doc, &index, &model, &q, Algorithm::XSeek);
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
        assert!(search(&doc, &index, &model, &q, Algorithm::XSeek).is_empty());
    }
}
