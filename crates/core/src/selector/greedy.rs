//! The greedy instance selector (paper §2.4).

use extract_xml::{Document, NodeId};

use crate::selector::{Candidates, SelectionOutcome, SnippetTree};

/// How the greedy chooses among an item's instances. The paper's intuition
/// — "we should select instances of each item such that they are close to
/// each other, so as to occupy a small space" — corresponds to
/// [`CheapestInstance`](InstancePolicy::CheapestInstance); the ablation
/// policy [`FirstInstance`](InstancePolicy::FirstInstance) ignores the
/// growing snippet and always takes the first instance in document order
/// (experiment E13 quantifies the difference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstancePolicy {
    /// Fewest new edges; ties toward the earliest instance (the paper).
    #[default]
    CheapestInstance,
    /// Always the first instance in document order (ablation).
    FirstInstance,
}

/// Greedy selection with the paper's cheapest-instance policy: items in
/// IList rank order; per item, the instance adding the fewest new edges,
/// ties broken toward the earliest instance in document order. Items whose
/// chosen instance exceeds the remaining budget are skipped; later items
/// are still attempted.
pub fn greedy_select<C: Candidates + ?Sized>(
    doc: &Document,
    ilist: &C,
    root: NodeId,
    bound: usize,
) -> SelectionOutcome {
    greedy_select_with_policy(doc, ilist, root, bound, InstancePolicy::CheapestInstance)
}

/// [`greedy_select`] with an explicit instance policy.
pub fn greedy_select_with_policy<C: Candidates + ?Sized>(
    doc: &Document,
    ilist: &C,
    root: NodeId,
    bound: usize,
    policy: InstancePolicy,
) -> SelectionOutcome {
    let mut out = SelectionOutcome::default();
    greedy_into(doc, ilist, root, bound, policy, &mut out);
    out
}

/// [`greedy_select_with_policy`] into `out`, whose buffers are reused: a
/// warm outcome allocates nothing.
pub(crate) fn greedy_into<C: Candidates + ?Sized>(
    doc: &Document,
    ilist: &C,
    root: NodeId,
    bound: usize,
    policy: InstancePolicy,
    out: &mut SelectionOutcome,
) {
    out.covered.clear();
    out.skipped.clear();
    let mut tree = SnippetTree::reusing(doc, root, std::mem::take(&mut out.nodes));
    for idx in 0..ilist.item_count() {
        let budget = bound.saturating_sub(tree.edges());
        let mut best: Option<(usize, NodeId)> = None;
        for &inst in ilist.instances(idx) {
            let Some(cost) = tree.cost(inst) else {
                continue; // outside the result subtree
            };
            match policy {
                InstancePolicy::CheapestInstance => {
                    // Strictly-less keeps the earliest instance on ties
                    // (instances arrive in document order).
                    if best.map(|(c, _)| cost < c).unwrap_or(true) {
                        best = Some((cost, inst));
                        if cost == 0 {
                            break; // cannot do better
                        }
                    }
                }
                InstancePolicy::FirstInstance => {
                    best = Some((cost, inst));
                    break; // take the first in-subtree instance, whatever it costs
                }
            }
        }
        match best {
            Some((cost, inst)) if cost <= budget => {
                tree.add(inst);
                out.covered.push(idx);
            }
            _ => out.skipped.push(idx),
        }
    }
    out.edges = tree.edges();
    out.nodes = tree.into_nodes();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilist::{IList, IListItem, RankedItem};
    use crate::return_entity::{ReturnEntities, ReturnEntityReason};
    use extract_xml::Document;

    /// Hand-build an IList from (display, instances) pairs — unit tests for
    /// the selector shouldn't depend on the full pipeline.
    fn fake_ilist(doc: &Document, entries: Vec<Vec<NodeId>>) -> IList {
        let items = entries
            .into_iter()
            .enumerate()
            .map(|(i, instances)| RankedItem {
                item: IListItem::Keyword(format!("item{i}")),
                instances,
            })
            .collect::<Vec<_>>();
        IList::from_parts_for_tests(
            items,
            ReturnEntities {
                label: None,
                reason: ReturnEntityReason::HighestEntity,
                instances: vec![doc.root()],
            },
            None,
        )
    }

    fn label(doc: &Document, l: &str) -> NodeId {
        doc.first_element_with_label(l).unwrap()
    }

    #[test]
    fn picks_cheapest_instance() {
        // item0 can be covered at `cheap` (depth 1) or `deep` (depth 3).
        let doc = Document::parse_str("<r><cheap/><x><y><deep/></y></x></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![label(&doc, "cheap"), label(&doc, "deep")]]);
        let out = greedy_select(&doc, &il, doc.root(), 10);
        assert_eq!(out.covered, vec![0]);
        assert_eq!(out.edges, 1);
        assert!(out.nodes.contains(&label(&doc, "cheap")));
        assert!(!out.nodes.contains(&label(&doc, "deep")));
    }

    #[test]
    fn document_order_breaks_ties() {
        let doc = Document::parse_str("<r><a/><b/></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![label(&doc, "a"), label(&doc, "b")]]);
        let out = greedy_select(&doc, &il, doc.root(), 10);
        assert!(out.nodes.contains(&label(&doc, "a")));
        assert!(!out.nodes.contains(&label(&doc, "b")));
    }

    #[test]
    fn prefers_instances_inside_the_existing_tree() {
        // After covering item0 at /r/s1/p, item1's instance under s1 is
        // cheaper than the one under s2.
        let doc = Document::parse_str(
            "<r><s1><p/><q1/></s1><s2><q2/></s2></r>",
        )
        .unwrap();
        let il = fake_ilist(
            &doc,
            vec![
                vec![label(&doc, "p")],
                vec![label(&doc, "q1"), label(&doc, "q2")],
            ],
        );
        let out = greedy_select(&doc, &il, doc.root(), 10);
        assert!(out.nodes.contains(&label(&doc, "q1")));
        assert!(!out.nodes.contains(&label(&doc, "s2")));
        assert_eq!(out.edges, 3); // s1, p, q1
    }

    #[test]
    fn skips_unaffordable_items_but_takes_later_cheap_ones() {
        let doc = Document::parse_str(
            "<r><deep1><deep2><deep3><costly/></deep3></deep2></deep1><cheap/></r>",
        )
        .unwrap();
        let il = fake_ilist(
            &doc,
            vec![vec![label(&doc, "costly")], vec![label(&doc, "cheap")]],
        );
        let out = greedy_select(&doc, &il, doc.root(), 2);
        assert_eq!(out.covered, vec![1], "costly (4 edges) skipped, cheap taken");
        assert_eq!(out.skipped, vec![0]);
        assert_eq!(out.edges, 1);
    }

    #[test]
    fn zero_budget_covers_only_free_items() {
        let doc = Document::parse_str("<r><a/></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![doc.root()], vec![label(&doc, "a")]]);
        let out = greedy_select(&doc, &il, doc.root(), 0);
        assert_eq!(out.covered, vec![0], "the root item is free");
        assert_eq!(out.edges, 0);
    }

    #[test]
    fn shared_ancestors_are_paid_once() {
        let doc = Document::parse_str("<r><s><a/><b/></s></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![label(&doc, "a")], vec![label(&doc, "b")]]);
        let out = greedy_select(&doc, &il, doc.root(), 10);
        assert_eq!(out.edges, 3, "s is shared: s+a+b");
        assert_eq!(out.covered, vec![0, 1]);
    }

    #[test]
    fn items_without_instances_are_skipped() {
        let doc = Document::parse_str("<r><a/></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![], vec![label(&doc, "a")]]);
        let out = greedy_select(&doc, &il, doc.root(), 10);
        assert_eq!(out.covered, vec![1]);
        assert_eq!(out.skipped, vec![0]);
    }

    #[test]
    fn instances_outside_the_root_are_ignored() {
        let doc = Document::parse_str("<r><s1><a/></s1><s2><b/></s2></r>").unwrap();
        let s1 = label(&doc, "s1");
        let il = fake_ilist(&doc, vec![vec![label(&doc, "b"), label(&doc, "a")]]);
        let out = greedy_select(&doc, &il, s1, 10);
        // b is outside s1; a (inside) is chosen even though b precedes it.
        assert_eq!(out.covered, vec![0]);
        assert!(out.nodes.contains(&label(&doc, "a")));
    }

    #[test]
    fn first_instance_policy_ignores_cost() {
        // item0 coverable at cheap `a` (1 edge) or deep `x` (3 edges);
        // first-instance takes whatever comes first in document order.
        let doc = Document::parse_str("<r><p><q><x/></q></p><a/></r>").unwrap();
        let x = label(&doc, "x");
        let a = label(&doc, "a");
        let il = fake_ilist(&doc, vec![vec![x, a]]);
        let first = greedy_select_with_policy(
            &doc,
            &il,
            doc.root(),
            10,
            InstancePolicy::FirstInstance,
        );
        assert!(first.nodes.contains(&x), "took the doc-order-first instance");
        assert_eq!(first.edges, 3);
        let cheap = greedy_select(&doc, &il, doc.root(), 10);
        assert!(cheap.nodes.contains(&a));
        assert_eq!(cheap.edges, 1);
    }

    #[test]
    fn first_instance_policy_still_respects_bound() {
        let doc = Document::parse_str("<r><p><q><x/></q></p><a/></r>").unwrap();
        let il = fake_ilist(&doc, vec![vec![label(&doc, "x")], vec![label(&doc, "a")]]);
        let out = greedy_select_with_policy(
            &doc,
            &il,
            doc.root(),
            2,
            InstancePolicy::FirstInstance,
        );
        assert_eq!(out.covered, vec![1], "x (3 edges) skipped under bound 2");
        assert!(out.edges <= 2);
    }

    #[test]
    fn first_instance_skips_out_of_subtree_instances() {
        let doc = Document::parse_str("<r><s1><a/></s1><s2><b/></s2></r>").unwrap();
        let s2 = label(&doc, "s2");
        // Instance list starts with a node outside s2.
        let il = fake_ilist(&doc, vec![vec![label(&doc, "a"), label(&doc, "b")]]);
        let out =
            greedy_select_with_policy(&doc, &il, s2, 10, InstancePolicy::FirstInstance);
        assert_eq!(out.covered, vec![0]);
        assert!(out.nodes.contains(&label(&doc, "b")));
    }

    #[test]
    fn never_exceeds_bound() {
        let doc = Document::parse_str(
            "<r><a><x/></a><b><y/></b><c><z/></c></r>",
        )
        .unwrap();
        let il = fake_ilist(
            &doc,
            vec![
                vec![label(&doc, "x")],
                vec![label(&doc, "y")],
                vec![label(&doc, "z")],
            ],
        );
        for bound in 0..8 {
            let out = greedy_select(&doc, &il, doc.root(), bound);
            assert!(out.edges <= bound, "bound {bound} violated: {}", out.edges);
        }
    }
}
