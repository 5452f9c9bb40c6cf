//! The document: a structure-of-arrays XML tree.
//!
//! A node is its [`NodeId`] — its position in document (pre)order — and
//! one entry in each of four parallel `u32` columns:
//!
//! * `label` — an element's interned label ([`Symbol`]), or, with the high
//!   bit set, a text node's byte length: the node kind is folded into it;
//! * `parent` — the parent's id (`u32::MAX` for the root);
//! * `subtree_end` — one past the last id of the node's subtree;
//! * `text_start` — where a text node's content starts in the document's
//!   one text buffer (unused for elements).
//!
//! That is 16 bytes a node and no per-node allocation: a page miss touches
//! four dense arrays, not a 64-byte node each. The label interner, the text
//! buffer and the DOCTYPE live behind one `Arc` that a
//! [projection](Document::project) shares with its source, so a snippet
//! tree is four short columns and a refcount bump.
//!
//! # Invariant: IDs are in document order, so a subtree is an ID interval
//!
//! Every constructor (parser, [`crate::builder::DocBuilder`],
//! [`Document::project`]) appends nodes in preorder through one `Arena`,
//! so comparing raw IDs compares document positions and the subtree of `n`
//! is exactly the ID range `[n, subtree_end(n))`. Everything else is
//! derived from that: the first child of `n` is `n + 1` when it lies inside
//! the interval, the next sibling of a child `c` is `subtree_end(c)`, an
//! ancestor test is two compares, and a node's rank among its siblings and
//! its [`Dewey`] label are computed on demand. [`Document::debug_validate`]
//! checks the invariants against pointer walks.

use std::ops::Range;
use std::sync::Arc;

use crate::dewey::Dewey;
use crate::id32;
use crate::symbol::{Symbol, SymbolTable};

/// Index of a node within its [`Document`].
///
/// IDs are assigned in document (preorder) order, so `a < b` means node `a`
/// starts before node `b` in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
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

/// High bit of a `label` entry: the node is text, and the low bits are its
/// content's byte length.
const TEXT: u32 = 1 << 31;
/// The `parent` entry of the root.
const NO_PARENT: u32 = u32::MAX;

/// The part of a document no projection changes: the label interner, the
/// text buffer and the DOCTYPE. A [`Document`] holds it behind an `Arc`, so
/// [`Document::project`] shares it with the source for one refcount bump.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shared {
    pub(crate) symbols: SymbolTable,
    /// Every text node's content, back to back in document order.
    text: Box<str>,
    /// Root element name declared in `<!DOCTYPE name ...>`, if any.
    pub(crate) doctype_name: Option<String>,
    /// Parsed internal DTD subset, if any.
    pub(crate) dtd: Option<crate::dtd::Dtd>,
}

/// The columns under construction, shared by every constructor (parser,
/// builder, projection) so the preorder and interval invariants are
/// established in one place. Nodes are appended in preorder under an
/// already-appended parent; [`Arena::finish`] derives the subtree ends.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    label: Vec<u32>,
    parent: Vec<u32>,
    text_start: Vec<u32>,
    /// The text buffer: constructors write content here, then append the
    /// text node that covers it ([`Arena::push_text_from`]).
    pub(crate) text: String,
}

impl Arena {
    /// An arena with room for `nodes` nodes and `text` bytes of content.
    pub(crate) fn with_capacity(nodes: usize, text: usize) -> Arena {
        Arena {
            label: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            text_start: Vec::with_capacity(nodes),
            text: String::with_capacity(text),
        }
    }

    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.label.reserve(nodes);
        self.parent.reserve(nodes);
        self.text_start.reserve(nodes);
    }

    fn push(&mut self, label: u32, parent: Option<NodeId>, text_start: u32) -> NodeId {
        let id = NodeId(id32(self.label.len()));
        self.label.push(label);
        self.parent.push(parent.map_or(NO_PARENT, |p| p.0));
        self.text_start.push(text_start);
        id
    }

    /// Append an element as the last child of `parent` (`None`: the root).
    ///
    /// # Panics
    /// On a label symbol of 2³¹ or more, whose high bit the text kind takes.
    pub(crate) fn push_element(&mut self, label: Symbol, parent: Option<NodeId>) -> NodeId {
        assert!(label.0 < TEXT, "label table exceeds 2^31 entries");
        self.push(label.0, parent, 0)
    }

    /// Append text content `self.text[start..]`, already written, as the
    /// last child of `parent`. When that child is a text node already —
    /// whose content then ends at `start` — the content joins it instead
    /// (`merge`), so `text_of` sees one value.
    pub(crate) fn push_text_from(&mut self, start: usize, parent: NodeId, merge: bool) -> NodeId {
        if merge {
            if let Some(last) = self.last_text_child(parent) {
                let from = self.text_start[last.index()] as usize;
                debug_assert_eq!(from + (self.label[last.index()] & !TEXT) as usize, start);
                self.label[last.index()] = text_label(self.text.len() - from);
                return last;
            }
        }
        let label = text_label(self.text.len() - start);
        self.push(label, Some(parent), id32(start))
    }

    /// Append `content` as a new text node under `parent`.
    pub(crate) fn push_text(&mut self, content: &str, parent: NodeId) -> NodeId {
        let start = self.text.len();
        self.text.push_str(content);
        self.push_text_from(start, parent, false)
    }

    /// The last node appended, if it is a text child of `parent`: then it
    /// is `parent`'s last child (nothing after it can be) and its content
    /// is the tail of the buffer.
    fn last_text_child(&self, parent: NodeId) -> Option<NodeId> {
        let last = self.label.len().checked_sub(1)?;
        (self.label[last] & TEXT != 0 && self.parent[last] == parent.0)
            .then(|| NodeId::from_index(last))
    }

    /// The label of element `id` (`None` for text nodes and foreign ids).
    pub(crate) fn label_of(&self, id: NodeId) -> Option<Symbol> {
        let label = *self.label.get(id.index())?;
        (label & TEXT == 0).then_some(Symbol(label))
    }

    /// The document these columns make, owning the label table, the text
    /// buffer and the DOCTYPE.
    pub(crate) fn finish(
        mut self,
        symbols: SymbolTable,
        doctype_name: Option<String>,
        dtd: Option<crate::dtd::Dtd>,
    ) -> Document {
        let shared =
            Shared { symbols, text: std::mem::take(&mut self.text).into(), doctype_name, dtd };
        self.seal(Arc::new(shared))
    }

    /// Seal the columns over `shared` (owned, or a projection's source's).
    /// Subtree ends come from one reverse pass: a node's interval ends where
    /// its last descendant's does, and in preorder every descendant has a
    /// larger id than its ancestors.
    fn seal(mut self, shared: Arc<Shared>) -> Document {
        let n = self.label.len();
        let mut subtree_end: Vec<u32> = (1..=id32(n)).collect();
        for i in (1..n).rev() {
            let p = self.parent[i] as usize;
            subtree_end[p] = subtree_end[p].max(subtree_end[i]);
        }
        self.label.shrink_to_fit();
        self.parent.shrink_to_fit();
        self.text_start.shrink_to_fit();
        let doc = Document {
            shared,
            label: self.label,
            parent: self.parent,
            subtree_end,
            text_start: self.text_start,
        };
        debug_assert_eq!(doc.debug_validate(), Ok(()));
        doc
    }
}

/// The `label` entry of a text node of `len` bytes.
///
/// # Panics
/// On content of 2 GiB or more, which the 31-bit length cannot represent
/// (loud, like [`id32`]: truncating would corrupt the text silently).
fn text_label(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(len) if len < TEXT => TEXT | len,
        _ => panic!("text node of {len} bytes exceeds the 2 GiB limit"),
    }
}

/// An immutable XML document tree.
#[derive(Debug, Clone)]
pub struct Document {
    shared: Arc<Shared>,
    label: Vec<u32>,
    parent: Vec<u32>,
    subtree_end: Vec<u32>,
    text_start: Vec<u32>,
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

    /// The root element: the first node in document order.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (elements + text).
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// Whether the document has no nodes (never true for parsed documents).
    pub fn is_empty(&self) -> bool {
        self.label.is_empty()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.label.iter().filter(|&&l| l & TEXT == 0).count()
    }

    /// Estimated heap footprint in bytes: the four node columns (allocated
    /// capacity), the text buffer, and the label interner (each distinct
    /// label stored twice — interner vector plus lookup-map key — at
    /// [`crate::SYMBOL_ENTRY_OVERHEAD`] bytes of fixed overhead per entry,
    /// the same estimate the index crates use for their token tables). The
    /// buffer and the interner are counted whole even when a projection
    /// shares them with its source.
    pub fn memory_footprint(&self) -> usize {
        let columns = self.label.capacity()
            + self.parent.capacity()
            + self.subtree_end.capacity()
            + self.text_start.capacity();
        let symbols: usize = self
            .shared
            .symbols
            .iter()
            .map(|(_, s)| 2 * s.len() + crate::SYMBOL_ENTRY_OVERHEAD)
            .sum();
        columns * std::mem::size_of::<u32>() + self.shared.text.len() + symbols
    }

    /// The symbol table holding element labels.
    pub fn symbols(&self) -> &SymbolTable {
        &self.shared.symbols
    }

    /// Whether `self` and `other` share one label table, text buffer and
    /// DOCTYPE — true of a document and its
    /// [projections](Document::project), which hold the same allocation
    /// rather than copies of it.
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

    /// The kind of node `id`.
    ///
    /// # Panics
    /// Like every per-node accessor, if `id` is out of bounds for this
    /// document.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        if self.is_text(id) {
            NodeKind::Text
        } else {
            NodeKind::Element
        }
    }

    /// Whether `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.label[id.index()] & TEXT == 0
    }

    /// Whether `id` is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        !self.is_element(id)
    }

    /// The label symbol of an element node (`None` for text nodes).
    pub fn label(&self, id: NodeId) -> Option<Symbol> {
        let label = self.label[id.index()];
        (label & TEXT == 0).then_some(Symbol(label))
    }

    /// The label string of an element node (`None` for text nodes).
    pub fn label_str(&self, id: NodeId) -> Option<&str> {
        self.label(id).map(|s| self.shared.symbols.resolve(s))
    }

    /// The content of a text node (`None` for elements).
    pub fn text(&self, id: NodeId) -> Option<&str> {
        let label = self.label[id.index()];
        if label & TEXT == 0 {
            return None;
        }
        let start = self.text_start[id.index()] as usize;
        self.shared.text.get(start..start + (label & !TEXT) as usize)
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
        let p = self.parent[id.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Children of `id` in document order: `id + 1`, then each child's
    /// subtree end, while inside `id`'s interval.
    pub fn children(&self, id: NodeId) -> ChildNodes<'_> {
        ChildNodes { ends: &self.subtree_end, next: id.0 + 1, end: self.subtree_end[id.index()] }
    }

    /// Element children only.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Number of children of `id` (a walk over them).
    pub fn child_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// Rank of `id` among its parent's children (0-based; 0 for the
    /// root), counted by walking the preceding siblings.
    pub fn rank(&self, id: NodeId) -> u32 {
        match self.parent(id) {
            Some(p) => id32(self.children(p).take_while(|&c| c != id).count()),
            None => 0,
        }
    }

    /// For a text node: its content. For an element whose only child is a
    /// text node, that content — the "value" of an attribute-like element.
    /// Otherwise `None`.
    pub fn text_of(&self, id: NodeId) -> Option<&str> {
        if self.is_text(id) {
            return self.text(id);
        }
        // The only child is `id + 1`, and it is a leaf: the interval is two long.
        let only = NodeId(id.0 + 1);
        if self.subtree_end[id.index()] == id.0 + 2 {
            return self.text(only);
        }
        None
    }

    /// Concatenated text of **all** text descendants of `id`, separated by
    /// single spaces (used by the structure-blind text baseline).
    pub fn concat_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for t in self.subtree(id).filter_map(|n| self.text(n)) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t);
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
        self.subtree(id).filter(move |&n| self.is_element(n))
    }

    /// Number of nodes in the subtree at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        (self.subtree_end[id.index()] - id.0) as usize
    }

    /// Iterator over strict ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, current: self.parent(id) }
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

    /// The Dewey order label of `id`: the ranks on its root path, computed
    /// on demand (O(depth · siblings)).
    pub fn dewey(&self, id: NodeId) -> Dewey {
        let mut comps: Vec<u32> = self
            .ancestors_or_self(id)
            .filter(|&n| self.parent(n).is_some())
            .map(|n| self.rank(n))
            .collect();
        comps.reverse();
        Dewey::from_components(comps)
    }

    /// Resolve a Dewey label back to a node, if it addresses one.
    pub fn node_by_dewey(&self, dewey: &Dewey) -> Option<NodeId> {
        let mut cur = self.root();
        for &rank in dewey.components() {
            cur = self.children(cur).nth(rank as usize)?;
        }
        Some(cur)
    }

    /// Lowest common ancestor of two nodes: the nearest ancestor-or-self
    /// of `a` whose interval contains `b`.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        self.ancestors_or_self(a).find(|&x| self.is_ancestor_or_self(x, b)).unwrap_or(self.root())
    }

    /// All element nodes with the given label, in document order.
    pub fn elements_with_label(&self, label: &str) -> Vec<NodeId> {
        let Some(sym) = self.shared.symbols.get(label) else {
            return Vec::new();
        };
        self.all_nodes().filter(|&n| self.label[n.index()] == sym.0).collect()
    }

    /// First element with the given label in document order.
    pub fn first_element_with_label(&self, label: &str) -> Option<NodeId> {
        let sym = self.shared.symbols.get(label)?;
        self.label.iter().position(|&l| l == sym.0).map(NodeId::from_index)
    }

    /// Iterator over every node ID in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..id32(self.len())).map(NodeId)
    }

    /// Extract the subtree rooted at `root`, keeping only element nodes in
    /// `keep` (the set is ancestor-closed internally: ancestors of kept
    /// nodes up to `root` are always included, as is `root` itself).
    /// Text children of kept elements ride along, so attribute values are
    /// preserved. Nodes keep their document order.
    ///
    /// The projection owns its four columns, sized exactly, and nothing
    /// else: the label table, the text buffer and the DOCTYPE are shared
    /// with `self` ([`Document::shares_symbols_with`]). `keep` is any
    /// collection of node references (a sorted `Vec`, a `HashSet`, …), in
    /// any order. [`Document::write_xml_of`] writes the same projection's
    /// XML without building it.
    pub fn project<'k>(
        &self,
        root: NodeId,
        keep: impl IntoIterator<Item = &'k NodeId>,
    ) -> Document {
        // Over `root`'s interval: ABSENT, else in the keep set closed under
        // ancestors up to `root` — KEPT, then the element's new id.
        const ABSENT: u32 = u32::MAX;
        const KEPT: u32 = u32::MAX - 1;
        let (base, end) = (root.index(), self.subtree_end[root.index()] as usize);
        let mut new_id = vec![ABSENT; end - base];
        new_id[0] = KEPT;
        for &n in keep.into_iter().filter(|n| (base..end).contains(&n.index())) {
            for a in self.ancestors_or_self(n) {
                if std::mem::replace(&mut new_id[a.index() - base], KEPT) != ABSENT {
                    break;
                }
            }
        }
        // The next node from `i` on that rides along: the subtree of an
        // element outside the set is skipped whole, so every node reached
        // has a kept parent — kept elements and text nodes ride.
        let next = |new_id: &[u32], mut i: usize| {
            while i < end && self.label[i] & TEXT == 0 && new_id[i - base] == ABSENT {
                i = self.subtree_end[i] as usize;
            }
            i
        };
        let mut len = 0;
        let mut i = next(&new_id, base);
        while i < end {
            len += 1;
            i = next(&new_id, i + 1);
        }
        let mut out = Arena::with_capacity(len, 0);
        let mut i = next(&new_id, base);
        while i < end {
            let parent = (i != base).then(|| NodeId(new_id[self.parent[i] as usize - base]));
            let id = out.push(self.label[i], parent, self.text_start[i]);
            if self.label[i] & TEXT == 0 {
                new_id[i - base] = id.0;
            }
            i = next(&new_id, i + 1);
        }
        out.seal(Arc::clone(&self.shared))
    }

    /// Number of element→element edges in the subtree at `root`. This is the
    /// paper's snippet size measure ("the number of edges in the tree",
    /// counting an attribute together with its value as one edge).
    pub fn element_edges(&self, root: NodeId) -> usize {
        self.subtree_elements(root).count().saturating_sub(1)
    }

    /// Reference for [`Document::subtree_size`]: the nodes whose parent
    /// walk reaches `id`, which the interval is tested against.
    #[cfg(test)]
    fn subtree_size_by_walk(&self, id: NodeId) -> usize {
        self.all_nodes().filter(|&n| self.is_ancestor_or_self_by_walk(id, n)).count()
    }

    /// Reference for [`Document::is_ancestor_or_self`]: a parent-pointer
    /// walk, which the interval is tested against.
    #[cfg(test)]
    fn is_ancestor_or_self_by_walk(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors_or_self(b).any(|n| n == a)
    }

    /// Check structural invariants: equal column lengths, a single root at
    /// id 0, parents before their children, preorder contiguity and
    /// subtree intervals, text ranges inside the buffer. Used by tests and
    /// debug builds.
    pub fn debug_validate(&self) -> Result<(), String> {
        let n = self.label.len();
        if n == 0 {
            return Err("empty document".into());
        }
        for (name, len) in [
            ("parent", self.parent.len()),
            ("subtree end", self.subtree_end.len()),
            ("text start", self.text_start.len()),
        ] {
            if len != n {
                return Err(format!("{len} {name} entries for {n} nodes"));
            }
        }
        if self.parent[0] != NO_PARENT {
            return Err("node n0 has a parent".into());
        }
        // Preorder: a node's parent is open when it starts — the parent
        // precedes it and its interval, as the previous node's ancestry
        // left it, still reaches it. Intervals are then checked by one
        // reverse pass: a subtree ends where its last child's does.
        let mut want_end: Vec<u32> = (1..=id32(n)).collect();
        for i in 1..n {
            let p = self.parent[i];
            if p as usize >= i {
                return Err(format!("node n{i} has parent n{p}, not an earlier node"));
            }
            let prev = NodeId::from_index(i - 1);
            if !self.ancestors_or_self(prev).any(|a| a.0 == p) {
                return Err(format!("IDs not in preorder: n{i}'s parent n{p} is closed"));
            }
        }
        for i in (1..n).rev() {
            let p = self.parent[i] as usize;
            want_end[p] = want_end[p].max(want_end[i]);
        }
        for (i, (&got, &want)) in self.subtree_end.iter().zip(&want_end).enumerate() {
            if got != want {
                return Err(format!(
                    "subtree of {} ends at {} but its interval says {}",
                    NodeId::from_index(i),
                    want,
                    got
                ));
            }
        }
        for id in self.all_nodes() {
            if self.is_text(id) && self.text(id).is_none() {
                return Err(format!("text of {id} is outside the buffer"));
            }
        }
        Ok(())
    }
}

/// Children of a node: a hop from subtree end to subtree end. See
/// [`Document::children`].
#[derive(Debug, Clone)]
pub struct ChildNodes<'a> {
    ends: &'a [u32],
    next: u32,
    end: u32,
}

impl Iterator for ChildNodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next >= self.end {
            return None;
        }
        let child = self.next;
        self.next = self.ends[child as usize];
        Some(NodeId(child))
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
        self.current = self.doc.parent(n);
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        assert_eq!(d.kind(name), NodeKind::Element);
        let text = d.children(name).next().unwrap();
        assert_eq!((d.kind(text), d.text(text), d.label(text)), (NodeKind::Text, Some("BB"), None));
        assert_eq!(d.text(name), None);
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
        assert_eq!(d.first_element_with_label("store"), Some(stores[0]));
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
        // Mixed content: a text child beside an element is not a value.
        let mixed = Document::parse_str("<p>a<b/></p>").unwrap();
        assert_eq!(mixed.text_of(mixed.root()), None);
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

    #[test]
    fn children_and_ranks_come_from_intervals() {
        let d = sample();
        for n in d.all_nodes() {
            // Children are exactly the nodes whose parent is `n`, in order.
            let by_parent: Vec<NodeId> =
                d.all_nodes().filter(|&c| d.parent(c) == Some(n)).collect();
            assert_eq!(d.children(n).collect::<Vec<_>>(), by_parent, "children of {n}");
            assert_eq!(d.child_count(n), by_parent.len());
            for (rank, &c) in by_parent.iter().enumerate() {
                assert_eq!(d.rank(c) as usize, rank);
            }
        }
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
            let projected = built.project(root, &keep);
            assert_intervals_match_walks(&projected);
            proptest::prop_assert!(projected.shares_symbols_with(&built));
        }
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
        // A node whose parent closed before it started breaks preorder.
        let mut reparented = good.clone();
        let last = reparented.len() - 1;
        reparented.parent[last] = 1;
        assert!(reparented.debug_validate().unwrap_err().contains("preorder"));
    }

    #[test]
    fn memory_footprint_arithmetic_is_pinned() {
        let d = sample();
        // Four u32 columns sized exactly by `finish`, the text buffer, and
        // each distinct label twice plus the per-entry overhead.
        let text: usize = ["BB", "Houston", "Austin", "Dallas"].iter().map(|t| t.len()).sum();
        let labels: usize = ["retailer", "name", "store", "city"]
            .iter()
            .map(|l| 2 * l.len() + crate::SYMBOL_ENTRY_OVERHEAD)
            .sum();
        assert_eq!(d.len(), 11);
        assert_eq!(d.memory_footprint(), 4 * 4 * d.len() + text + labels);
        // A projection owns its columns only, but counts what it shares.
        let snip = d.project(d.root(), &HashSet::new());
        assert_eq!(snip.memory_footprint(), 4 * 4 * snip.len() + text + labels);
    }

    #[test]
    fn project_keeps_requested_subset() {
        let d = sample();
        let root = d.root();
        let name = d.elements_with_label("name")[0];
        let city_dallas = d.elements_with_label("city")[2];
        let keep: HashSet<NodeId> = [name, city_dallas].into_iter().collect();
        let snip = d.project(root, &keep);
        snip.debug_validate().unwrap();
        // retailer, name+text, store2, city+text — in document order.
        assert_eq!(
            snip.to_xml_string(),
            "<retailer><name>BB</name><store><city>Dallas</city></store></retailer>"
        );
        assert_eq!(snip.element_count(), 4);
        assert_eq!(snip.label_str(snip.root()), Some("retailer"));
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
        let snip = d.project(store1, &keep);
        assert_eq!(snip.label_str(snip.root()), Some("store"));
        assert_eq!(snip.elements_with_label("name").len(), 0);
        assert_eq!(snip.elements_with_label("city").len(), 1);
    }

    #[test]
    fn project_empty_keep_yields_root_only() {
        let d = sample();
        let snip = d.project(d.root(), &HashSet::new());
        assert_eq!(snip.element_count(), 1);
        assert_eq!(snip.element_edges(snip.root()), 0);
    }
}
