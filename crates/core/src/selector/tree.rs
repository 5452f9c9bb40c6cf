//! The growing snippet tree: an ancestor-closed set of element nodes under
//! a result root, with O(depth) marginal-cost queries.
//!
//! The set is kept twice: as a sorted `Vec` — a snippet tree holds at most
//! `bound + 1` nodes, it is already in the document order the XML writer
//! walks, and the buffer can be handed in warm ([`SnippetTree::reusing`]) —
//! and as one bit per node of the root's interval, so asking whether a
//! node is included, at every step of every cost walk, is one bit test.

use extract_xml::{Document, NodeId};

/// A snippet tree under construction.
#[derive(Debug, Clone)]
pub struct SnippetTree<'d> {
    doc: &'d Document,
    root: NodeId,
    /// Sorted.
    included: Vec<NodeId>,
    /// Bit `i` says whether node `root + i` is included.
    marks: Vec<u64>,
    edges: usize,
}

impl<'d> SnippetTree<'d> {
    /// Start a tree containing only `root` (zero edges).
    pub fn new(doc: &'d Document, root: NodeId) -> SnippetTree<'d> {
        SnippetTree::reusing(doc, root, (Vec::new(), Vec::new()))
    }

    /// [`SnippetTree::new`] over the buffers of an earlier tree
    /// ([`SnippetTree::into_parts`]): their contents are discarded, their
    /// capacity kept.
    pub(crate) fn reusing(
        doc: &'d Document,
        root: NodeId,
        (mut included, mut marks): (Vec<NodeId>, Vec<u64>),
    ) -> SnippetTree<'d> {
        included.clear();
        marks.clear();
        marks.resize(doc.subtree_size(root).div_ceil(64), 0);
        let mut tree = SnippetTree { doc, root, included, marks, edges: 0 };
        tree.include(root);
        tree
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
        let Some(at) = node.index().checked_sub(self.root.index()) else {
            return false;
        };
        self.marks.get(at / 64).is_some_and(|word| word >> (at % 64) & 1 != 0)
    }

    /// Number of **new** edges that including `node` (and its ancestors up
    /// to the nearest included node) would add; `None` if `node` is not in
    /// the root's subtree.
    pub fn cost(&self, node: NodeId) -> Option<usize> {
        self.cost_below(node, usize::MAX)
    }

    /// [`SnippetTree::cost`] when it is below `limit`, else `None`: the
    /// walk up stops after `limit` steps.
    pub(crate) fn cost_below(&self, node: NodeId, limit: usize) -> Option<usize> {
        if !self.doc.is_ancestor_or_self(self.root, node) {
            return None;
        }
        // The walk meets the root at the latest.
        self.doc.ancestors_or_self(node).take(limit).position(|a| self.contains(a))
    }

    /// Include `node` and its ancestors up to the nearest included node.
    /// Returns the number of edges added — none for a node outside the
    /// root's subtree, which is left out.
    pub fn add(&mut self, node: NodeId) -> usize {
        let Some(added) = self.cost(node) else {
            return 0;
        };
        let doc = self.doc;
        for a in doc.ancestors_or_self(node).take(added) {
            self.include(a);
        }
        self.edges += added;
        added
    }

    /// Put `node`, a node of the root's interval, in both sets.
    fn include(&mut self, node: NodeId) {
        let at = self.included.partition_point(|&n| n < node);
        self.included.insert(at, node);
        let bit = node.index().wrapping_sub(self.root.index());
        if let Some(word) = self.marks.get_mut(bit / 64) {
            *word |= 1 << (bit % 64);
        }
    }

    /// The included node set (sorted, ancestor-closed, root included).
    pub fn nodes(&self) -> &[NodeId] {
        &self.included
    }

    /// Consume into the node set.
    pub fn into_nodes(self) -> Vec<NodeId> {
        self.included
    }

    /// Consume into the node set and the buffer of its bits, for
    /// [`SnippetTree::reusing`].
    pub(crate) fn into_parts(self) -> (Vec<NodeId>, Vec<u64>) {
        (self.included, self.marks)
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
        let buffers = t.into_parts();
        let capacity = buffers.0.capacity();
        let t = SnippetTree::reusing(&d, d.root(), buffers);
        assert_eq!((t.nodes(), t.edges()), (&[d.root()][..], 0));
        assert!(!t.contains(c), "the bits of the earlier tree are cleared");
        assert_eq!(t.into_nodes().capacity(), capacity);
    }
}
