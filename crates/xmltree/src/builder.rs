//! Programmatic document construction.
//!
//! [`DocBuilder`] appends nodes to the same columns the parser fills, in
//! preorder, so built documents satisfy the same ID-order invariant as
//! parsed ones. The API is
//! stack-shaped (`begin`/`end`) with conveniences for the ubiquitous
//! "attribute" pattern (`leaf`) — exactly what the data generators need.
//!
//! ```
//! use extract_xml::DocBuilder;
//!
//! let mut b = DocBuilder::new("store");
//! b.leaf("name", "Levis");
//! b.begin("merchandises");
//! b.begin("clothes");
//! b.leaf("category", "jeans");
//! b.end(); // clothes
//! b.end(); // merchandises
//! let doc = b.build();
//! assert_eq!(doc.element_count(), 5);
//! ```

use crate::document::{Arena, Document, NodeId};
use crate::symbol::SymbolTable;

/// Builds a [`Document`] top-down.
#[derive(Debug)]
pub struct DocBuilder {
    symbols: SymbolTable,
    arena: Arena,
    stack: Vec<NodeId>,
}

impl DocBuilder {
    /// Start a document whose root element is `root_label`.
    pub fn new(root_label: &str) -> Self {
        let mut symbols = SymbolTable::with_capacity(32);
        let mut arena = Arena::default();
        let root = arena.push_element(symbols.intern(root_label), None);
        DocBuilder { symbols, arena, stack: vec![root] }
    }

    /// Pre-allocate space for roughly `n` nodes.
    pub fn reserve(&mut self, n: usize) -> &mut Self {
        self.arena.reserve(n);
        self
    }

    fn current(&self) -> NodeId {
        *self.stack.last().expect("builder stack never empty until build()")
    }

    fn push_element(&mut self, label: &str) -> NodeId {
        let parent = self.current();
        let sym = self.symbols.intern(label);
        self.arena.push_element(sym, Some(parent))
    }

    /// Open a child element; subsequent nodes attach under it until
    /// [`end`](Self::end).
    pub fn begin(&mut self, label: &str) -> &mut Self {
        let id = self.push_element(label);
        self.stack.push(id);
        self
    }

    /// Close the innermost open element.
    ///
    /// # Panics
    /// Panics if only the root is open.
    pub fn end(&mut self) -> &mut Self {
        assert!(self.stack.len() > 1, "end() called with no open child element");
        self.stack.pop();
        self
    }

    /// Add an element with a single text child — the paper's "attribute".
    pub fn leaf(&mut self, label: &str, text: &str) -> &mut Self {
        let id = self.push_element(label);
        self.arena.push_text(text, id);
        self
    }

    /// Add an empty element.
    pub fn empty(&mut self, label: &str) -> &mut Self {
        self.push_element(label);
        self
    }

    /// Add a text node under the current element.
    pub fn text(&mut self, content: &str) -> &mut Self {
        let parent = self.current();
        self.arena.push_text(content, parent);
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if `begin` calls are unbalanced.
    pub fn build(self) -> Document {
        self.try_build().expect("unbalanced begin()/end() in DocBuilder")
    }

    /// Finish building, returning `None` if `begin`/`end` are unbalanced.
    fn try_build(self) -> Option<Document> {
        (self.stack.len() == 1).then(|| self.arena.finish(self.symbols, None, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_figure_like_structure() {
        let mut b = DocBuilder::new("retailer");
        b.leaf("name", "Brook Brothers");
        b.leaf("product", "apparel");
        b.begin("store");
        b.leaf("state", "Texas");
        b.leaf("city", "Houston");
        b.end();
        let d = b.build();
        d.debug_validate().unwrap();
        assert_eq!(d.label_str(d.root()), Some("retailer"));
        let store = d.first_element_with_label("store").unwrap();
        let city = d.first_element_with_label("city").unwrap();
        assert!(d.is_ancestor_or_self(store, city));
        assert_eq!(d.text_of(city), Some("Houston"));
    }

    #[test]
    fn built_document_matches_parsed_equivalent() {
        let mut b = DocBuilder::new("a");
        b.begin("b");
        b.leaf("c", "x");
        b.end();
        b.empty("d");
        let built = b.build();
        let parsed = Document::parse_str("<a><b><c>x</c></b><d/></a>").unwrap();
        assert_eq!(built.to_xml_string(), parsed.to_xml_string());
    }

    #[test]
    fn current_id_tracks_open_element() {
        let mut b = DocBuilder::new("a");
        let root = b.current();
        b.begin("b");
        let bid = b.current();
        assert_ne!(root, bid);
        b.end();
        assert_eq!(b.current(), root);
    }

    #[test]
    #[should_panic(expected = "end() called")]
    fn end_at_root_panics() {
        let mut b = DocBuilder::new("a");
        b.end();
    }

    #[test]
    fn unbalanced_build_fails() {
        let mut b = DocBuilder::new("a");
        b.begin("b");
        assert!(b.try_build().is_none());
    }

    #[test]
    fn mixed_text_children() {
        let mut b = DocBuilder::new("p");
        b.text("hello ");
        b.begin("em");
        b.text("world");
        b.end();
        let d = b.build();
        assert_eq!(d.child_count(d.root()), 2);
        assert_eq!(d.to_xml_string(), "<p>hello <em>world</em></p>");
    }

    #[test]
    fn ids_are_preorder() {
        let mut b = DocBuilder::new("a");
        b.begin("b");
        b.leaf("c", "1");
        b.end();
        b.begin("d");
        b.leaf("e", "2");
        b.end();
        let d = b.build();
        let ids: Vec<NodeId> = d.subtree(d.root()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
}
