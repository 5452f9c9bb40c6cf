//! The growing snippet tree: an ancestor-closed set of element nodes under
//! a result root, with O(depth) marginal-cost queries.

use std::collections::HashSet;

use extract_xml::{Document, NodeId};

/// A snippet tree under construction.
#[derive(Debug, Clone)]
pub struct SnippetTree<'d> {
    doc: &'d Document,
    root: NodeId,
    included: HashSet<NodeId>,
    edges: usize,
}

impl<'d> SnippetTree<'d> {
    /// Start a tree containing only `root` (zero edges).
    pub fn new(doc: &'d Document, root: NodeId) -> SnippetTree<'d> {
        let mut included = HashSet::with_capacity(32);
        included.insert(root);
        SnippetTree { doc, root, included, edges: 0 }
    }

    /// The result root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Current number of element edges.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Whether `node` is already included.
    pub fn contains(&self, node: NodeId) -> bool {
        self.included.contains(&node)
    }

    /// Number of **new** edges that including `node` (and its ancestors up
    /// to the nearest included node) would add; `None` if `node` is not in
    /// the root's subtree.
    pub fn cost(&self, node: NodeId) -> Option<usize> {
        for (cost, a) in self.doc.ancestors_or_self(node).enumerate() {
            if self.included.contains(&a) {
                return Some(cost);
            }
        }
        // Fell off the document root without meeting an included node (the
        // snippet root at the latest): `node` lies outside the result
        // subtree.
        None
    }

    /// Include `node` and its ancestors up to the nearest included node.
    /// Returns the number of edges added.
    ///
    /// # Panics
    /// Panics if `node` is outside the root's subtree.
    pub fn add(&mut self, node: NodeId) -> usize {
        let added = self
            .cost(node)
            .unwrap_or_else(|| panic!("node {node} is outside the snippet root's subtree"));
        self.included.extend(self.doc.ancestors_or_self(node).take(added));
        self.edges += added;
        added
    }

    /// The included node set (ancestor-closed, root included).
    pub fn nodes(&self) -> &HashSet<NodeId> {
        &self.included
    }

    /// Consume into the node set.
    pub fn into_nodes(self) -> HashSet<NodeId> {
        self.included
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
            "<r><a><b><c>x</c></b></a><d><e>y</e></d></r>",
        )
        .unwrap()
    }

    #[test]
    fn starts_with_root_only() {
        let d = doc();
        let t = SnippetTree::new(&d, d.root());
        assert_eq!(t.edges(), 0);
        assert!(t.contains(d.root()));
        assert_eq!(t.cost(d.root()), Some(0));
    }

    #[test]
    fn cost_counts_uncovered_ancestors() {
        let d = doc();
        let t = SnippetTree::new(&d, d.root());
        let c = d.first_element_with_label("c").unwrap();
        assert_eq!(t.cost(c), Some(3)); // a, b, c
        let a = d.first_element_with_label("a").unwrap();
        assert_eq!(t.cost(a), Some(1));
    }

    #[test]
    fn add_updates_costs_and_edges() {
        let d = doc();
        let mut t = SnippetTree::new(&d, d.root());
        let b = d.first_element_with_label("b").unwrap();
        assert_eq!(t.add(b), 2);
        assert_eq!(t.edges(), 2);
        let c = d.first_element_with_label("c").unwrap();
        assert_eq!(t.cost(c), Some(1), "only c itself is new now");
        assert_eq!(t.add(c), 1);
        assert_eq!(t.edges(), 3);
        assert_eq!(t.add(c), 0, "re-adding is free");
    }

    #[test]
    fn costs_relative_to_inner_root() {
        let d = doc();
        let a = d.first_element_with_label("a").unwrap();
        let t = SnippetTree::new(&d, a);
        let c = d.first_element_with_label("c").unwrap();
        assert_eq!(t.cost(c), Some(2)); // b, c
        // e is outside a's subtree.
        let e = d.first_element_with_label("e").unwrap();
        assert_eq!(t.cost(e), None);
    }

    #[test]
    fn nodes_are_ancestor_closed() {
        let d = doc();
        let mut t = SnippetTree::new(&d, d.root());
        let c = d.first_element_with_label("c").unwrap();
        t.add(c);
        for &n in t.nodes() {
            if let Some(p) = d.parent(n) {
                if n != t.root() {
                    assert!(t.nodes().contains(&p), "parent of {n} missing");
                }
            }
        }
    }
}
