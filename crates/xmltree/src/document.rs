//! The arena DOM: a flat, index-addressed XML tree.
//!
//! Nodes live in one `Vec<Node>` and are addressed by [`NodeId`]; element
//! labels are interned in a [`SymbolTable`]. The design follows the arena /
//! newtype-index idioms: tree links are indexes, not reference-counted
//! pointers, there is no interior mutability, traversal is cache-friendly,
//! and IDs are dense array keys for downstream crates (indexes, search
//! engines, the snippet selector). The only shared ownership is of what a
//! [projection](Document::project) has in common with its source — the
//! label table and the text values — so a snippet tree owns its nodes and
//! nothing else.
//!
//! # Invariant: IDs are in document order, so a subtree is an ID interval
//!
//! Construction (parser, [`crate::builder::DocBuilder`], [`Document::project`])
//! assigns [`NodeId`]s in preorder, so comparing raw IDs compares document
//! positions — and the subtree of node `n` is exactly the contiguous ID
//! range `[n, subtree_end(n))`. Every constructor records that end in a
//! vector parallel to the node arena when it closes the element, which
//! makes [`Document::subtree_size`] and [`Document::is_ancestor_or_self`]
//! two loads and a compare, and [`Document::subtree`] a range scan with no
//! stack. [`Document::debug_validate`] checks both invariants along with
//! parent/child consistency.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use crate::dewey::Dewey;
use crate::id32;
use crate::symbol::{Symbol, SymbolTable};

/// Index of a node within its [`Document`]'s arena.
///
/// IDs are assigned in document (preorder) order, so `a < b` means node `a`
/// starts before node `b` in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an ID from a raw index (must come from the same document).
    pub fn from_index(index: usize) -> Self {
        NodeId(id32(index))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The two kinds of tree node. XML-syntax attributes are materialized as
/// child elements by default (see [`crate::parser::ParseOptions`]), matching
/// the paper's uniform node model where an "attribute" is an element with a
/// single text child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node with a label and children.
    Element,
    /// A text node carrying character data.
    Text,
}

/// A node's child IDs. Most XML nodes have a handful of children — an
/// attribute element has one, its text — so up to [`Children::INLINE`] of
/// them live in the node itself and only wider nodes own a heap list. A
/// snippet tree is mostly narrow nodes: it allocates (and, when its cache
/// entry is evicted, frees) per wide node, not per element.
#[derive(Debug, Clone)]
pub(crate) enum Children {
    Inline { len: u8, ids: [NodeId; Children::INLINE] },
    Heap(Vec<NodeId>),
}

impl Children {
    const INLINE: usize = 3;

    const fn new() -> Children {
        Children::Inline { len: 0, ids: [NodeId(0); Children::INLINE] }
    }

    /// An empty list with room for `n` children.
    fn with_capacity(n: usize) -> Children {
        if n <= Children::INLINE {
            Children::new()
        } else {
            Children::Heap(Vec::with_capacity(n))
        }
    }

    fn push(&mut self, id: NodeId) {
        match self {
            Children::Inline { len, ids } => match ids.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = id;
                    *len += 1;
                }
                None => {
                    let mut heap = Vec::with_capacity(2 * Children::INLINE);
                    heap.extend_from_slice(ids);
                    heap.push(id);
                    *self = Children::Heap(heap);
                }
            },
            Children::Heap(heap) => heap.push(id),
        }
    }

    /// Bytes this list owns on the heap.
    fn heap_bytes(&self) -> usize {
        match self {
            Children::Inline { .. } => 0,
            Children::Heap(heap) => heap.capacity() * std::mem::size_of::<NodeId>(),
        }
    }
}

impl std::ops::Deref for Children {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Children::Inline { len, ids } => &ids[..usize::from(*len)],
            Children::Heap(heap) => heap,
        }
    }
}

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    /// Element label; unused (root symbol) for text nodes.
    pub(crate) label: Symbol,
    pub(crate) parent: Option<NodeId>,
    /// Rank of this node among its parent's children (0-based).
    pub(crate) rank: u32,
    pub(crate) children: Children,
    /// Character data for text nodes; `None` for elements. Shared with
    /// every projection that carries this node, so a snippet's values are
    /// refcount bumps, not copies.
    pub(crate) text: Option<Arc<str>>,
}

impl Node {
    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The interned label (meaningful only for elements).
    pub fn label(&self) -> Symbol {
        self.label
    }

    /// The parent, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// This node's rank among its parent's children.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Child IDs in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Text content for text nodes.
    pub fn text(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// Whether this is an element node.
    pub fn is_element(&self) -> bool {
        self.kind == NodeKind::Element
    }

    /// Whether this is a text node.
    pub fn is_text(&self) -> bool {
        self.kind == NodeKind::Text
    }
}

/// The part of a document that no projection changes: the label interner
/// and the DOCTYPE. A [`Document`] holds it behind an `Arc`, so
/// [`Document::project`] shares it with the source for one refcount bump
/// instead of deep-cloning a symbol table into every snippet tree.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shared {
    pub(crate) symbols: SymbolTable,
    /// Root element name declared in `<!DOCTYPE name ...>`, if any.
    pub(crate) doctype_name: Option<String>,
    /// Parsed internal DTD subset, if any.
    pub(crate) dtd: Option<crate::dtd::Dtd>,
}

/// The node arena under construction, shared by every constructor
/// (parser, builder, projection) so the preorder-ID and subtree-interval
/// invariants are established in one place.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    subtree_end: Vec<u32>,
}

impl Arena {
    pub(crate) fn with_capacity(n: usize) -> Arena {
        Arena { nodes: Vec::with_capacity(n), subtree_end: Vec::with_capacity(n) }
    }

    pub(crate) fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.subtree_end.reserve(n);
    }

    /// Append a node as the last child of `parent`. Its subtree is just
    /// itself until [`Arena::close`] says otherwise (text nodes and empty
    /// elements never need closing).
    pub(crate) fn push(
        &mut self,
        kind: NodeKind,
        label: Symbol,
        parent: Option<NodeId>,
        text: Option<Arc<str>>,
    ) -> NodeId {
        let id = NodeId(id32(self.nodes.len()));
        let rank = match parent {
            Some(p) => {
                let siblings = &mut self.nodes[p.index()].children;
                siblings.push(id);
                id32(siblings.len() - 1)
            }
            None => 0,
        };
        self.nodes.push(Node { kind, label, parent, rank, children: Children::new(), text });
        self.subtree_end.push(id.0 + 1);
        id
    }

    /// Close element `id`: every node pushed since it opened is its
    /// descendant.
    pub(crate) fn close(&mut self, id: NodeId) {
        self.subtree_end[id.index()] = id32(self.nodes.len());
    }

    pub(crate) fn finish(self, shared: Arc<Shared>, root: NodeId) -> Document {
        let doc = Document { shared, nodes: self.nodes, subtree_end: self.subtree_end, root };
        debug_assert_eq!(doc.debug_validate(), Ok(()));
        doc
    }
}

/// An immutable XML document tree.
#[derive(Debug, Clone)]
pub struct Document {
    shared: Arc<Shared>,
    nodes: Vec<Node>,
    /// Parallel to `nodes`: one past the last ID of each node's subtree.
    subtree_end: Vec<u32>,
    root: NodeId,
}

impl Document {
    /// Parse a document from a string with default [`crate::ParseOptions`].
    pub fn parse_str(source: &str) -> crate::Result<Document> {
        crate::parser::parse(source, &crate::parser::ParseOptions::default())
    }

    /// Parse with explicit options.
    pub fn parse_with(source: &str, options: &crate::parser::ParseOptions) -> crate::Result<Document> {
        crate::parser::parse(source, options)
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements + text).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document has no nodes (never true for parsed documents).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_element()).count()
    }

    /// Estimated heap footprint in bytes: the node arena and its parallel
    /// subtree-end vector (allocated capacity), every node's child list
    /// and text content, and the label
    /// interner (each distinct label stored twice — interner vector plus
    /// lookup-map key — at [`crate::SYMBOL_ENTRY_OVERHEAD`] bytes of fixed
    /// overhead per entry, the same estimate the index crates use for
    /// their token tables).
    pub fn memory_footprint(&self) -> usize {
        let arena = self.nodes.capacity() * std::mem::size_of::<Node>();
        let per_node: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.children.heap_bytes() + n.text.as_deref().map_or(0, str::len)
            })
            .sum();
        let symbols: usize = self
            .shared
            .symbols
            .iter()
            .map(|(_, s)| 2 * s.len() + crate::SYMBOL_ENTRY_OVERHEAD)
            .sum();
        let ends = self.subtree_end.capacity() * std::mem::size_of::<u32>();
        arena + ends + per_node + symbols
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds for this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The symbol table holding element labels.
    pub fn symbols(&self) -> &SymbolTable {
        &self.shared.symbols
    }

    /// Whether `self` and `other` share one label table and DOCTYPE — true
    /// of a document and its [projections](Document::project), which hold
    /// the same allocation rather than copies of it.
    pub fn shares_symbols_with(&self, other: &Document) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Intern a label (used by tests). Copy-on-write: a document whose
    /// label table is shared gets a private one first.
    pub fn intern(&mut self, s: &str) -> Symbol {
        Arc::make_mut(&mut self.shared).symbols.intern(s)
    }

    /// Resolve a label symbol to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.shared.symbols.resolve(sym)
    }

    /// The label symbol of an element node (`None` for text nodes).
    pub fn label(&self, id: NodeId) -> Option<Symbol> {
        let n = self.node(id);
        n.is_element().then_some(n.label)
    }

    /// The label string of an element node (`None` for text nodes).
    pub fn label_str(&self, id: NodeId) -> Option<&str> {
        self.label(id).map(|s| self.shared.symbols.resolve(s))
    }

    /// The declared DOCTYPE root name, if a DOCTYPE was present.
    pub fn doctype_name(&self) -> Option<&str> {
        self.shared.doctype_name.as_deref()
    }

    /// The parsed internal DTD subset, if present.
    pub fn dtd(&self) -> Option<&crate::dtd::Dtd> {
        self.shared.dtd.as_ref()
    }

    /// Parent of `id`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.iter().copied()
    }

    /// Element children only.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.node(c).is_element())
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: NodeId) -> usize {
        self.node(id).children.len()
    }

    /// For a text node: its content. For an element whose children are all
    /// text (at least one), the concatenated content — the "value" of an
    /// attribute-like element. Otherwise `None`.
    pub fn text_of(&self, id: NodeId) -> Option<&str> {
        let n = self.node(id);
        match n.kind {
            NodeKind::Text => n.text.as_deref(),
            NodeKind::Element => {
                if n.children.len() == 1 {
                    let c = self.node(n.children[0]);
                    if c.is_text() {
                        return c.text.as_deref();
                    }
                }
                None
            }
        }
    }

    /// Concatenated text of **all** text descendants of `id`, separated by
    /// single spaces (used by the structure-blind text baseline).
    pub fn concat_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.subtree(id) {
            if let Some(t) = self.node(n).text() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t);
            }
        }
        out
    }

    /// One past the last ID in the subtree of `id`: the subtree is exactly
    /// the ID interval `[id, subtree_end(id))`.
    pub fn subtree_end(&self, id: NodeId) -> NodeId {
        NodeId(self.subtree_end[id.index()])
    }

    /// Preorder iterator over the subtree rooted at `id`, including `id` —
    /// a scan of its ID interval.
    pub fn subtree(&self, id: NodeId) -> Subtree {
        Subtree { ids: id.0..self.subtree_end[id.index()] }
    }

    /// Preorder iterator over the **element** nodes of the subtree at `id`.
    pub fn subtree_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.subtree(id).filter(move |&n| self.node(n).is_element())
    }

    /// Number of nodes in the subtree at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        (self.subtree_end[id.index()] - id.0) as usize
    }

    /// Iterator over strict ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, current: self.node(id).parent }
    }

    /// Iterator over `id` then its ancestors, nearest first.
    pub fn ancestors_or_self(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, current: Some(id) }
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// True iff `a` is an ancestor of `b` or equal to it: `b` lies in
    /// `a`'s ID interval.
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a <= b && b.0 < self.subtree_end[a.index()]
    }

    /// The Dewey order label of `id`, computed by walking to the root
    /// (O(depth)). The `extract-index` crate caches these densely.
    pub fn dewey(&self, id: NodeId) -> Dewey {
        let mut comps: Vec<u32> = self.ancestors_or_self(id).map(|n| self.node(n).rank).collect();
        comps.pop(); // drop the root's meaningless rank
        comps.reverse();
        Dewey::from_components(comps)
    }

    /// Resolve a Dewey label back to a node, if it addresses one.
    pub fn node_by_dewey(&self, dewey: &Dewey) -> Option<NodeId> {
        let mut cur = self.root;
        for &rank in dewey.components() {
            cur = *self.node(cur).children.get(rank as usize)?;
        }
        Some(cur)
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let da = self.depth(a);
        let db = self.depth(b);
        let (mut x, mut y) = (a, b);
        // Lift the deeper node to the same depth, then walk up in lockstep.
        for _ in db..da {
            x = self.parent(x).expect("depth accounting");
        }
        for _ in da..db {
            y = self.parent(y).expect("depth accounting");
        }
        while x != y {
            x = self.parent(x).expect("nodes share a root");
            y = self.parent(y).expect("nodes share a root");
        }
        x
    }

    /// All element nodes with the given label, in document order.
    pub fn elements_with_label(&self, label: &str) -> Vec<NodeId> {
        let Some(sym) = self.shared.symbols.get(label) else {
            return Vec::new();
        };
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_element() && n.label == sym)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// First element with the given label in document order.
    pub fn first_element_with_label(&self, label: &str) -> Option<NodeId> {
        self.elements_with_label(label).into_iter().next()
    }

    /// Iterator over every node ID in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..id32(self.nodes.len())).map(NodeId)
    }

    /// Extract the subtree rooted at `root`, keeping only element nodes in
    /// `keep` (the set is ancestor-closed internally: ancestors of kept
    /// nodes up to `root` are always included, as is `root` itself).
    /// Text children of kept elements ride along, so attribute values are
    /// preserved. Returns the new document and the old→new ID mapping.
    ///
    /// The projection owns its nodes and nothing else: the label table
    /// and DOCTYPE are shared with `self`
    /// ([`Document::shares_symbols_with`]).
    pub fn project(
        &self,
        root: NodeId,
        keep: &HashSet<NodeId>,
    ) -> (Document, HashMap<NodeId, NodeId>) {
        // Close the keep set under ancestors (bounded by `root`), as marks
        // over `root`'s ID interval.
        let interval = root.index()..self.subtree_end[root.index()] as usize;
        let mut closed = vec![false; interval.len()];
        closed[0] = true;
        let mut kept = 1;
        for &n in keep {
            if !interval.contains(&n.index()) {
                continue;
            }
            for a in self.ancestors_or_self(n) {
                let mark = &mut closed[a.index() - interval.start];
                if std::mem::replace(mark, true) {
                    break;
                }
                kept += 1;
            }
        }

        let mut out = Arena::with_capacity(kept * 2);
        let mut mapping = HashMap::with_capacity(kept);
        self.project_rec(root, None, &closed, interval.start, &mut out, &mut mapping);
        (out.finish(Arc::clone(&self.shared), NodeId(0)), mapping)
    }

    fn project_rec(
        &self,
        node: NodeId,
        new_parent: Option<NodeId>,
        closed: &[bool],
        base: usize,
        out: &mut Arena,
        mapping: &mut HashMap<NodeId, NodeId>,
    ) {
        let src = self.node(node);
        let new_id = out.push(src.kind, src.label, new_parent, src.text.clone());
        mapping.insert(node, new_id);
        // Kept elements recurse; text children of a kept element ride
        // along so values stay attached to their attribute elements.
        let rides = |c: NodeId| self.node(c).is_text() || closed[c.index() - base];
        let riders = src.children.iter().filter(|&&c| rides(c)).count();
        out.nodes[new_id.index()].children = Children::with_capacity(riders);
        for &c in src.children.iter() {
            if rides(c) {
                self.project_rec(c, Some(new_id), closed, base, out, mapping);
            }
        }
        out.close(new_id);
    }

    /// Number of element→element edges in the subtree at `root`. This is the
    /// paper's snippet size measure ("the number of edges in the tree",
    /// counting an attribute together with its value as one edge).
    pub fn element_edges(&self, root: NodeId) -> usize {
        self.subtree_elements(root).count().saturating_sub(1)
    }

    /// Reference for [`Document::subtree_size`]: a stack-driven DFS over
    /// the child lists, which the interval is tested against.
    #[cfg(test)]
    fn subtree_size_by_walk(&self, id: NodeId) -> usize {
        let mut stack = vec![id];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            stack.extend(self.node(n).children.iter().copied());
        }
        count
    }

    /// Reference for [`Document::is_ancestor_or_self`]: a parent-pointer
    /// walk, which the interval is tested against.
    #[cfg(test)]
    fn is_ancestor_or_self_by_walk(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors_or_self(b).any(|n| n == a)
    }

    /// Check structural invariants (parent/child symmetry, preorder ID
    /// assignment, rank consistency, subtree intervals). Used by tests and
    /// debug builds.
    pub fn debug_validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty document".into());
        }
        if self.subtree_end.len() != self.nodes.len() {
            return Err(format!(
                "{} subtree ends for {} nodes",
                self.subtree_end.len(),
                self.nodes.len()
            ));
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut order: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                return Err(format!("node {n} reachable twice"));
            }
            seen[n.index()] = true;
            order.push(n);
            let node = self.node(n);
            for (i, &c) in node.children.iter().enumerate() {
                let cn = &self.nodes[c.index()];
                if cn.parent != Some(n) {
                    return Err(format!("child {c} of {n} has parent {:?}", cn.parent));
                }
                if cn.rank as usize != i {
                    return Err(format!("child {c} of {n} has rank {} != {}", cn.rank, i));
                }
            }
            for &c in node.children.iter().rev() {
                stack.push(c);
            }
        }
        if seen.iter().any(|s| !s) {
            return Err("unreachable nodes in arena".into());
        }
        for w in order.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("IDs not in preorder: {} then {}", w[0], w[1]));
            }
        }
        // With preorder IDs a subtree ends where its last child's does (or
        // right after the node itself); children precede nothing they
        // contain, so one reverse pass checks every interval.
        for (i, node) in self.nodes.iter().enumerate().rev() {
            let want = match node.children.last() {
                Some(&last) => self.subtree_end[last.index()],
                None => id32(i + 1),
            };
            if self.subtree_end[i] != want {
                return Err(format!(
                    "subtree of {} ends at {} but its interval says {}",
                    NodeId::from_index(i),
                    want,
                    self.subtree_end[i]
                ));
            }
        }
        Ok(())
    }
}

/// Preorder subtree iterator: the subtree's ID interval. See
/// [`Document::subtree`].
#[derive(Debug, Clone)]
pub struct Subtree {
    ids: Range<u32>,
}

impl Iterator for Subtree {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.ids.next().map(NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }

    /// Jumping ahead is arithmetic — how a scan steps over a whole nested
    /// subtree.
    fn nth(&mut self, n: usize) -> Option<NodeId> {
        self.ids.nth(n).map(NodeId)
    }
}

impl ExactSizeIterator for Subtree {}

/// Upward iterator. See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    current: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.current?;
        self.current = self.doc.node(n).parent;
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse_str(
            "<retailer><name>BB</name>\
             <store><city>Houston</city><city>Austin</city></store>\
             <store><city>Dallas</city></store></retailer>",
        )
        .unwrap()
    }

    #[test]
    fn navigation_basics() {
        let d = sample();
        let root = d.root();
        assert_eq!(d.label_str(root), Some("retailer"));
        assert_eq!(d.element_children(root).count(), 3);
        assert!(d.parent(root).is_none());
        let name = d.element_children(root).next().unwrap();
        assert_eq!(d.label_str(name), Some("name"));
        assert_eq!(d.text_of(name), Some("BB"));
        assert_eq!(d.parent(name), Some(root));
    }

    #[test]
    fn ids_are_preorder() {
        let d = sample();
        d.debug_validate().unwrap();
        let ids: Vec<NodeId> = d.subtree(d.root()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "preorder must equal ID order");
    }

    #[test]
    fn dewey_round_trip() {
        let d = sample();
        for n in d.all_nodes() {
            let dw = d.dewey(n);
            assert_eq!(d.node_by_dewey(&dw), Some(n), "dewey {dw} of {n}");
        }
    }

    #[test]
    fn dewey_of_root_is_empty() {
        let d = sample();
        assert!(d.dewey(d.root()).is_root());
    }

    #[test]
    fn lca_matches_dewey_lca() {
        let d = sample();
        let nodes: Vec<NodeId> = d.all_nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                let via_tree = d.lca(a, b);
                let via_dewey = d.node_by_dewey(&d.dewey(a).lca(&d.dewey(b))).unwrap();
                assert_eq!(via_tree, via_dewey);
            }
        }
    }

    #[test]
    fn ancestor_tests_agree_with_dewey() {
        let d = sample();
        let nodes: Vec<NodeId> = d.all_nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    d.is_ancestor_or_self(a, b),
                    d.dewey(a).is_ancestor_or_self_of(&d.dewey(b))
                );
            }
        }
    }

    #[test]
    fn elements_with_label_in_document_order() {
        let d = sample();
        let stores = d.elements_with_label("store");
        assert_eq!(stores.len(), 2);
        assert!(stores[0] < stores[1]);
        assert!(d.elements_with_label("warehouse").is_empty());
    }

    #[test]
    fn concat_text_flattens() {
        let d = sample();
        assert_eq!(d.concat_text(d.root()), "BB Houston Austin Dallas");
    }

    #[test]
    fn text_of_requires_single_text_child() {
        let d = sample();
        let root = d.root();
        assert_eq!(d.text_of(root), None, "root has element children");
        let store = d.elements_with_label("store")[0];
        assert_eq!(d.text_of(store), None);
        let city = d.elements_with_label("city")[0];
        assert_eq!(d.text_of(city), Some("Houston"));
    }

    #[test]
    fn subtree_sizes() {
        let d = sample();
        let store2 = d.elements_with_label("store")[1];
        // store2 + city + text
        assert_eq!(d.subtree_size(store2), 3);
        assert_eq!(d.subtree_elements(store2).count(), 2);
        assert_eq!(d.element_edges(store2), 1);
    }

    /// Interval answers agree with the pointer walks for every node pair.
    fn assert_intervals_match_walks(d: &Document) {
        d.debug_validate().unwrap();
        for a in d.all_nodes() {
            assert_eq!(d.subtree_size(a), d.subtree_size_by_walk(a), "size of {a}");
            assert_eq!(d.subtree(a).len(), d.subtree_size_by_walk(a));
            for b in d.all_nodes() {
                assert_eq!(
                    d.is_ancestor_or_self(a, b),
                    d.is_ancestor_or_self_by_walk(a, b),
                    "{a} over {b}"
                );
            }
        }
    }

    /// A document from a random program over the builder's operations.
    fn build_from_ops(ops: &[u8]) -> Document {
        let mut b = crate::DocBuilder::new("r");
        let mut depth = 0;
        for &op in ops {
            match op % 5 {
                0 => {
                    b.begin(["a", "b", "c"][usize::from(op / 5) % 3]);
                    depth += 1;
                }
                1 if depth > 0 => {
                    b.end();
                    depth -= 1;
                }
                2 => {
                    b.leaf("leaf", "v");
                }
                3 => {
                    b.text("t");
                }
                _ => {
                    b.empty("e");
                }
            }
        }
        for _ in 0..depth {
            b.end();
        }
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn subtree_intervals_equal_pointer_walks(
            ops in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..60),
            picks in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..6),
        ) {
            let built = build_from_ops(&ops);
            assert_intervals_match_walks(&built);
            // The parser closes elements on its own schedule (attributes,
            // self-closing tags, merged text).
            let parsed = Document::parse_str(&built.to_xml_string()).unwrap();
            assert_intervals_match_walks(&parsed);
            let pick = |p: u16| NodeId::from_index(usize::from(p) % built.len());
            let keep: HashSet<NodeId> = picks.iter().skip(1).map(|&p| pick(p)).collect();
            let root = picks.first().map_or(built.root(), |&p| pick(p));
            let (projected, _) = built.project(root, &keep);
            assert_intervals_match_walks(&projected);
            proptest::prop_assert!(projected.shares_symbols_with(&built));
        }
    }

    #[test]
    fn narrow_child_lists_live_in_the_node() {
        // Inlining must not grow the node: the list is no bigger than the
        // `Vec` it stands in for.
        assert!(std::mem::size_of::<Children>() <= std::mem::size_of::<Vec<NodeId>>());
        let mut list = Children::new();
        for i in 0..8 {
            assert_eq!(list.len(), i);
            assert_eq!(list.heap_bytes() == 0, i <= Children::INLINE, "{i} children");
            list.push(NodeId::from_index(i));
            let want: Vec<NodeId> = (0..=i).map(NodeId::from_index).collect();
            assert_eq!(&list[..], &want[..]);
        }
        assert_eq!(Children::with_capacity(Children::INLINE).heap_bytes(), 0);
        assert!(Children::with_capacity(Children::INLINE + 1).heap_bytes() > 0);
    }

    #[test]
    fn attributes_and_self_closing_tags_close_their_intervals() {
        let d = Document::parse_str(r#"<a x="1"><b y="2"/>t<c><d/></c></a>"#).unwrap();
        assert_intervals_match_walks(&d);
        let b = d.first_element_with_label("b").unwrap();
        assert_eq!(d.subtree_size(b), 3, "b, its attribute element and the value");
    }

    #[test]
    fn validate_rejects_a_corrupted_interval() {
        let good = sample();
        for i in 0..good.len() {
            for wrong in [good.subtree_end[i] - 1, good.subtree_end[i] + 1] {
                let mut bad = good.clone();
                bad.subtree_end[i] = wrong;
                let err = bad.debug_validate().unwrap_err();
                assert!(err.contains("interval"), "{err}");
            }
        }
        let mut short = good.clone();
        short.subtree_end.pop();
        assert!(short.debug_validate().is_err());
    }

    #[test]
    fn project_keeps_requested_subset() {
        let d = sample();
        let root = d.root();
        let name = d.elements_with_label("name")[0];
        let city_dallas = d.elements_with_label("city")[2];
        let keep: HashSet<NodeId> = [name, city_dallas].into_iter().collect();
        let (snip, mapping) = d.project(root, &keep);
        snip.debug_validate().unwrap();
        // retailer, name+text, store2, city+text
        assert_eq!(snip.element_count(), 4);
        assert_eq!(snip.label_str(snip.root()), Some("retailer"));
        assert_eq!(snip.text_of(mapping[&name]), Some("BB"));
        assert_eq!(snip.text_of(mapping[&city_dallas]), Some("Dallas"));
        // Houston/Austin store was not kept.
        assert_eq!(snip.elements_with_label("store").len(), 1);
        assert_eq!(snip.elements_with_label("city").len(), 1);
    }

    #[test]
    fn project_from_inner_root_ignores_outside_nodes() {
        let d = sample();
        let store1 = d.elements_with_label("store")[0];
        let name = d.elements_with_label("name")[0]; // outside store1
        let austin = d.elements_with_label("city")[1];
        let keep: HashSet<NodeId> = [name, austin].into_iter().collect();
        let (snip, _) = d.project(store1, &keep);
        assert_eq!(snip.label_str(snip.root()), Some("store"));
        assert_eq!(snip.elements_with_label("name").len(), 0);
        assert_eq!(snip.elements_with_label("city").len(), 1);
    }

    #[test]
    fn project_empty_keep_yields_root_only() {
        let d = sample();
        let (snip, _) = d.project(d.root(), &HashSet::new());
        assert_eq!(snip.element_count(), 1);
        assert_eq!(snip.element_edges(snip.root()), 0);
    }
}
