//! The growing snippet tree: an ancestor-closed set of element nodes under
//! a result root, with O(depth) marginal-cost queries.
//!
//! The set is a sorted `Vec` — a snippet tree holds at most `bound + 1`
//! nodes, so a binary search beats hashing, the set is already in the
//! document order the XML writer walks, and the buffer can be handed in
//! warm ([`SnippetTree::reusing`]).

use extract_xml::{Document, NodeId};

/// A snippet tree under construction.
#[derive(Debug, Clone)]
pub struct SnippetTree<'d> {
    doc: &'d Document,
    root: NodeId,
    /// Sorted.
    included: Vec<NodeId>,
    edges: usize,
}

impl<'d> SnippetTree<'d> {
    /// Start a tree containing only `root` (zero edges).
    pub fn new(doc: &'d Document, root: NodeId) -> SnippetTree<'d> {
        SnippetTree::reusing(doc, root, Vec::new())
    }

    /// [`SnippetTree::new`] over a buffer from an earlier tree
    /// ([`SnippetTree::into_nodes`]): its contents are discarded, its
    /// capacity kept.
    pub(crate) fn reusing(
        doc: &'d Document,
        root: NodeId,
        mut buffer: Vec<NodeId>,
    ) -> SnippetTree<'d> {
        buffer.clear();
        buffer.push(root);
        SnippetTree { doc, root, included: buffer, edges: 0 }
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
        self.included.binary_search(&node).is_ok()
    }

    /// Number of **new** edges that including `node` (and its ancestors up
    /// to the nearest included node) would add; `None` if `node` is not in
    /// the root's subtree.
    pub fn cost(&self, node: NodeId) -> Option<usize> {
        if !self.doc.is_ancestor_or_self(self.root, node) {
            return None;
        }
        // The walk meets the root at the latest.
        self.doc.ancestors_or_self(node).position(|a| self.contains(a))
    }

    /// Include `node` and its ancestors up to the nearest included node.
    /// Returns the number of edges added — none for a node outside the
    /// root's subtree, which is left out.
    pub fn add(&mut self, node: NodeId) -> usize {
        let Some(added) = self.cost(node) else {
            return 0;
        };
        for a in self.doc.ancestors_or_self(node).take(added) {
            let at = self.included.partition_point(|&n| n < a);
            self.included.insert(at, a);
        }
        self.edges += added;
        added
    }

    /// The included node set (sorted, ancestor-closed, root included).
    pub fn nodes(&self) -> &[NodeId] {
        &self.included
    }

    /// Consume into the node set.
    pub fn into_nodes(self) -> Vec<NodeId> {
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
                    assert!(t.contains(p), "parent of {n} missing");
                }
            }
        }
        assert!(t.nodes().windows(2).all(|w| w[0] < w[1]), "sorted: {:?}", t.nodes());
    }

    #[test]
    fn outside_nodes_add_nothing_and_buffers_are_reused() {
        let d = doc();
        let a = d.first_element_with_label("a").unwrap();
        let e = d.first_element_with_label("e").unwrap();
        let mut t = SnippetTree::new(&d, a);
        assert_eq!(t.add(e), 0, "e is outside a's subtree");
        assert_eq!((t.nodes(), t.edges()), (&[a][..], 0));
        let c = d.first_element_with_label("c").unwrap();
        t.add(c);
        let buffer = t.into_nodes();
        let capacity = buffer.capacity();
        let t = SnippetTree::reusing(&d, d.root(), buffer);
        assert_eq!((t.nodes(), t.edges()), (&[d.root()][..], 0));
        assert_eq!(t.into_nodes().capacity(), capacity);
    }
}
