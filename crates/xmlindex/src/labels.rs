//! Label → elements index ("parent-children relationship and node category"
//! support structure of the paper's Index Builder).

use extract_xml::{Document, NodeId, Symbol};

/// For each interned label, the element nodes carrying it (document order).
#[derive(Debug, Default)]
pub struct LabelIndex {
    /// Indexed by `Symbol::index()`.
    by_label: Vec<Vec<NodeId>>,
}

impl LabelIndex {
    /// Build the index over all elements of `doc`.
    pub fn build(doc: &Document) -> LabelIndex {
        let mut by_label: Vec<Vec<NodeId>> = vec![Vec::new(); doc.symbols().len()];
        for node in doc.all_nodes() {
            if let Some(label) = doc.label(node) {
                by_label[label.index()].push(node);
            }
        }
        LabelIndex { by_label }
    }

    /// Elements with label `sym`, in document order.
    pub fn nodes(&self, sym: Symbol) -> &[NodeId] {
        self.by_label.get(sym.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Elements with the given label string.
    pub fn nodes_by_str(&self, doc: &Document, label: &str) -> &[NodeId] {
        match doc.symbols().get(label) {
            Some(sym) => self.nodes(sym),
            None => &[],
        }
    }

    /// Number of elements with label `sym`.
    pub fn count(&self, sym: Symbol) -> usize {
        self.nodes(sym).len()
    }

    /// Estimated heap footprint in bytes, counting allocated capacity of
    /// the outer table and every per-label list.
    pub fn memory_footprint(&self) -> usize {
        self.by_label.capacity() * std::mem::size_of::<Vec<NodeId>>()
            + self
                .by_label
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_labels_in_document_order() {
        let d = Document::parse_str("<a><b/><c/><b/></a>").unwrap();
        let idx = LabelIndex::build(&d);
        let bs = idx.nodes_by_str(&d, "b");
        assert_eq!(bs.len(), 2);
        assert!(bs[0] < bs[1]);
        assert_eq!(idx.nodes_by_str(&d, "c").len(), 1);
    }

    #[test]
    fn unknown_labels_are_empty() {
        let d = Document::parse_str("<a/>").unwrap();
        let idx = LabelIndex::build(&d);
        assert!(idx.nodes_by_str(&d, "zzz").is_empty());
    }

    #[test]
    fn text_symbol_has_no_element_entries() {
        let d = Document::parse_str("<a>hello</a>").unwrap();
        let idx = LabelIndex::build(&d);
        assert!(idx.nodes_by_str(&d, "#text").is_empty());
    }

    #[test]
    fn counts_match_elements_with_label() {
        let d = Document::parse_str("<r><s><s/></s><s/></r>").unwrap();
        let idx = LabelIndex::build(&d);
        assert_eq!(idx.nodes_by_str(&d, "s").len(), d.elements_with_label("s").len());
    }
}
