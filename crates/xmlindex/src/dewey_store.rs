//! A dense `NodeId → Dewey` store.
//!
//! [`extract_xml::Document::dewey`] recomputes a label by walking to the
//! root (O(depth) per call). The search algorithms compare Dewey labels
//! millions of times, so this store materializes all labels once in a
//! struct-of-arrays layout: one flat component vector plus an offset table —
//! no per-node heap allocation, cache-friendly sequential build. Next to
//! them sits each node's subtree end (preorder IDs make a subtree the
//! interval `[n, subtree_end(n))`), so containment questions need neither
//! the labels nor the document.

use extract_xml::{Dewey, Document, NodeId};

/// Flattened Dewey labels for every node of one document.
#[derive(Debug, Clone)]
pub struct DeweyStore {
    /// `offsets[n]..offsets[n+1]` indexes `components` for node `n`.
    offsets: Vec<u32>,
    components: Vec<u32>,
    /// One past the last node of each node's subtree.
    subtree_end: Vec<NodeId>,
}

impl DeweyStore {
    /// Materialize labels for every node (elements **and** text nodes) of
    /// `doc` in one preorder pass.
    pub fn build(doc: &Document) -> DeweyStore {
        let n = doc.len();
        let mut offsets = vec![0u32; n + 1];
        // First pass: depths give exact component counts.
        let mut depths = vec![0u32; n];
        for node in doc.all_nodes() {
            if let Some(p) = doc.parent(node) {
                depths[node.index()] = depths[p.index()] + 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] = offsets[i] + depths[i];
        }
        let mut components = vec![0u32; offsets[n] as usize];
        // Second pass: parent prefix + own rank. Parents precede children in
        // ID order, so their components are already final.
        for node in doc.all_nodes() {
            let Some(p) = doc.parent(node) else { continue };
            let (ps, pe) = (offsets[p.index()] as usize, offsets[p.index() + 1] as usize);
            let (s, e) = (offsets[node.index()] as usize, offsets[node.index() + 1] as usize);
            let plen = pe - ps;
            components.copy_within(ps..pe, s);
            components[s + plen] = doc.node(node).rank();
            debug_assert_eq!(e - s, plen + 1);
        }
        let subtree_end = doc.all_nodes().map(|node| doc.subtree_end(node)).collect();
        DeweyStore { offsets, components, subtree_end }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Dewey components of `node` as a slice.
    pub fn components(&self, node: NodeId) -> &[u32] {
        let s = self.offsets[node.index()] as usize;
        let e = self.offsets[node.index() + 1] as usize;
        &self.components[s..e]
    }

    /// The depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.components(node).len()
    }

    /// An owned [`Dewey`] for `node`.
    pub fn dewey(&self, node: NodeId) -> Dewey {
        Dewey::from_components(self.components(node).to_vec())
    }

    /// Document-order comparison via Dewey components.
    pub fn compare(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        self.components(a).cmp(self.components(b))
    }

    /// One past the last node in the subtree of `node`.
    pub fn subtree_end(&self, node: NodeId) -> NodeId {
        self.subtree_end[node.index()]
    }

    /// True iff `a` is an ancestor-or-self of `b`: `b` lies in `a`'s
    /// interval.
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a <= b && b < self.subtree_end(a)
    }

    /// Length of the longest common prefix of the labels of `a` and `b` —
    /// the depth of their LCA.
    pub fn lca_depth(&self, a: NodeId, b: NodeId) -> usize {
        self.components(a)
            .iter()
            .zip(self.components(b).iter())
            .take_while(|(x, y)| x == y)
            .count()
    }

    /// Estimated heap footprint in bytes, counting **allocated capacity**
    /// (not just live length) of the three vectors. The build sizes each
    /// exactly, so capacity equals length and the footprint is
    /// `(2 · nodes + 1 + Σ depth(n)) * 4`.
    pub fn memory_footprint(&self) -> usize {
        (self.offsets.capacity() + self.components.capacity() + self.subtree_end.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
            "<a><b><c>x</c><c>y</c></b><d><e/></d></a>",
        )
        .unwrap()
    }

    #[test]
    fn matches_document_dewey_for_every_node() {
        let d = doc();
        let store = DeweyStore::build(&d);
        for n in d.all_nodes() {
            assert_eq!(store.components(n), d.dewey(n).components(), "node {n}");
            assert_eq!(store.depth(n), d.depth(n));
        }
    }

    #[test]
    fn compare_agrees_with_id_order() {
        let d = doc();
        let store = DeweyStore::build(&d);
        let nodes: Vec<NodeId> = d.all_nodes().collect();
        for w in nodes.windows(2) {
            assert_eq!(store.compare(w[0], w[1]), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn ancestor_test_agrees_with_document() {
        let d = doc();
        let store = DeweyStore::build(&d);
        for a in d.all_nodes() {
            for b in d.all_nodes() {
                assert_eq!(
                    store.is_ancestor_or_self(a, b),
                    d.is_ancestor_or_self(a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn lca_depth_matches_tree_lca() {
        let d = doc();
        let store = DeweyStore::build(&d);
        for a in d.all_nodes() {
            for b in d.all_nodes() {
                let lca = d.lca(a, b);
                assert_eq!(store.lca_depth(a, b), d.depth(lca));
            }
        }
    }

    #[test]
    fn single_node_document() {
        let d = Document::parse_str("<only/>").unwrap();
        let store = DeweyStore::build(&d);
        assert_eq!(store.len(), 1);
        assert!(store.components(d.root()).is_empty());
    }

    #[test]
    fn footprint_is_positive_and_scales() {
        let small = DeweyStore::build(&Document::parse_str("<a/>").unwrap());
        let big = DeweyStore::build(&doc());
        assert!(big.memory_footprint() > small.memory_footprint());
    }

    #[test]
    fn memory_footprint_arithmetic_is_pinned() {
        let d = doc();
        let store = DeweyStore::build(&d);
        // offsets: one u32 per node plus the sentinel; components: one u32
        // per Dewey component, i.e. the sum of all node depths; subtree
        // ends: one u32 per node.
        let total_components: usize = d.all_nodes().map(|n| d.depth(n)).sum();
        let expected = (d.len() + 1) * 4 + total_components * 4 + d.len() * 4;
        assert_eq!(store.memory_footprint(), expected);
    }
}
