//! Serialization: compact XML, pretty-printed XML, and ASCII tree rendering
//! (the format used to display snippets, mirroring the paper's Figure 2).

use std::fmt::Write as _;

use crate::document::{Document, NodeId};
use crate::escape::{escape_text, escape_text_into};

impl Document {
    /// Serialize the whole document compactly (no added whitespace).
    pub fn to_xml_string(&self) -> String {
        let mut out = String::with_capacity(self.len() * 16);
        write_compact(self, self.root(), &mut out);
        out
    }

    /// Serialize the subtree at `node` compactly.
    pub fn subtree_to_xml(&self, node: NodeId) -> String {
        let mut out = String::new();
        write_compact(self, node, &mut out);
        out
    }

    /// Serialize with two-space indentation, one element per line.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::with_capacity(self.len() * 24);
        write_pretty(self, self.root(), 0, &mut out);
        out
    }

    /// Render the subtree at `node` as an ASCII tree, attribute-style
    /// elements shown as `label: value` on one line:
    ///
    /// ```text
    /// retailer
    /// ├─ name: Brook Brothers
    /// └─ store
    ///    └─ city: Houston
    /// ```
    pub fn to_ascii_tree(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.ascii_node(node, "", true, true, &mut out);
        out
    }

    fn ascii_node(&self, node: NodeId, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
        let connector = if is_root {
            String::new()
        } else {
            format!("{}{} ", prefix, if is_last { "└─" } else { "├─" })
        };
        let Some(label) = self.label_str(node) else {
            let _ = writeln!(out, "{}\"{}\"", connector, self.text(node).unwrap_or(""));
            return;
        };
        match self.text_of(node) {
            Some(value) if self.child_count(node) == 1 => {
                let _ = writeln!(out, "{connector}{label}: {value}");
            }
            _ => {
                let _ = writeln!(out, "{connector}{label}");
                let children: Vec<NodeId> = self.children(node).collect();
                let child_prefix = if is_root {
                    String::new()
                } else {
                    format!("{}{}  ", prefix, if is_last { " " } else { "│" })
                };
                for (i, &c) in children.iter().enumerate() {
                    self.ascii_node(c, &child_prefix, i + 1 == children.len(), false, out);
                }
            }
        }
    }
}

/// The subtree at `node`, one interval scan: after each node, close the
/// ancestors whose intervals end with it (no recursion, no stack).
fn write_compact(doc: &Document, node: NodeId, out: &mut String) {
    for n in doc.subtree(node) {
        let next = NodeId::from_index(n.index() + 1);
        match doc.label_str(n) {
            None => escape_text_into(out, doc.text(n).unwrap_or("")),
            Some(label) if doc.subtree_end(n) == next => {
                let _ = write!(out, "<{label}/>");
            }
            Some(label) => {
                let _ = write!(out, "<{label}>");
            }
        }
        for a in doc.ancestors(n).take_while(|&a| a >= node && doc.subtree_end(a) == next) {
            let _ = write!(out, "</{}>", doc.label_str(a).unwrap_or_default());
        }
    }
}

fn write_pretty(doc: &Document, node: NodeId, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let Some(label) = doc.label_str(node) else {
        let _ = writeln!(out, "{pad}{}", escape_text(doc.text(node).unwrap_or("")));
        return;
    };
    if doc.subtree_size(node) == 1 {
        let _ = writeln!(out, "{pad}<{label}/>");
        return;
    }
    // Attribute-style elements print on one line.
    if let Some(value) = doc.text_of(node) {
        if doc.child_count(node) == 1 {
            let _ = writeln!(out, "{pad}<{label}>{}</{label}>", escape_text(value));
            return;
        }
    }
    let _ = writeln!(out, "{pad}<{label}>");
    for c in doc.children(node) {
        write_pretty(doc, c, depth + 1, out);
    }
    let _ = writeln!(out, "{pad}</{label}>");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trips_structure() {
        let src = "<retailer><name>Brook Brothers</name><store><city>Houston</city></store></retailer>";
        let d = Document::parse_str(src).unwrap();
        assert_eq!(d.to_xml_string(), src);
    }

    #[test]
    fn compact_escapes_text() {
        let d = Document::parse_str("<a>x &amp; y &lt; z</a>").unwrap();
        assert_eq!(d.to_xml_string(), "<a>x &amp; y &lt; z</a>");
    }

    #[test]
    fn empty_elements_self_close() {
        let d = Document::parse_str("<a><b></b></a>").unwrap();
        assert_eq!(d.to_xml_string(), "<a><b/></a>");
    }

    #[test]
    fn reparse_of_serialization_is_identical() {
        let src = "<site><regions><item><name>gold watch</name><price>12</price></item><item><name>pen</name></item></regions></site>";
        let d1 = Document::parse_str(src).unwrap();
        let d2 = Document::parse_str(&d1.to_xml_string()).unwrap();
        assert_eq!(d1.to_xml_string(), d2.to_xml_string());
        assert_eq!(d1.len(), d2.len());
    }

    #[test]
    fn pretty_prints_attributes_inline() {
        let d = Document::parse_str("<store><name>Levis</name><m><c>jeans</c></m></store>").unwrap();
        let pretty = d.to_xml_pretty();
        assert!(pretty.contains("  <name>Levis</name>\n"), "{pretty}");
        assert!(pretty.contains("  <m>\n"), "{pretty}");
    }

    #[test]
    fn pretty_output_reparses_equal() {
        let src = "<a><b><c>x</c><c>y</c></b><d>z</d></a>";
        let d1 = Document::parse_str(src).unwrap();
        let d2 = Document::parse_str(&d1.to_xml_pretty()).unwrap();
        assert_eq!(d1.to_xml_string(), d2.to_xml_string());
    }

    #[test]
    fn ascii_tree_shows_attribute_values() {
        let d = Document::parse_str(
            "<retailer><name>BB</name><store><city>Houston</city></store></retailer>",
        )
        .unwrap();
        let tree = d.to_ascii_tree(d.root());
        assert!(tree.contains("retailer"), "{tree}");
        assert!(tree.contains("name: BB"), "{tree}");
        assert!(tree.contains("city: Houston"), "{tree}");
        assert!(tree.contains("└─"), "{tree}");
    }

    #[test]
    fn subtree_serialization() {
        let d = Document::parse_str("<a><b><c>x</c></b><d/></a>").unwrap();
        let b = d.first_element_with_label("b").unwrap();
        assert_eq!(d.subtree_to_xml(b), "<b><c>x</c></b>");
    }
}
