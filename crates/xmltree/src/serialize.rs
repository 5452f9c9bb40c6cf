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

    /// Append the compact XML of the projection of `root`'s subtree onto
    /// `nodes` — exactly what `self.project(root, nodes).to_xml_string()`
    /// returns, written straight from this document: no projected columns,
    /// no allocation beyond `out`'s growth. `nodes` must be sorted and
    /// closed under ancestors up to `root` (a snippet tree's node set);
    /// `root` itself is always kept, nodes outside its subtree are ignored,
    /// and text children of kept elements ride along.
    pub fn write_xml_of(&self, root: NodeId, nodes: &[NodeId], out: &mut String) {
        let end = self.subtree_end(root);
        let mut kept = nodes.iter().copied().peekable();
        // The next node from `i` on that the projection holds. Every node
        // reached has a kept parent — the subtree of an element outside the
        // set is skipped whole — so a text node rides, and an element rides
        // when it is in the set. The set is sorted and `i` only grows, so
        // one cursor over it answers every membership test.
        let mut next = |mut i: NodeId| {
            while i < end {
                if self.is_text(i) || i == root {
                    return i;
                }
                while kept.next_if(|&k| k < i).is_some() {}
                if kept.peek() == Some(&i) {
                    return i;
                }
                i = self.subtree_end(i);
            }
            end
        };
        let mut n = next(root);
        while n < end {
            let after = next(NodeId::from_index(n.index() + 1));
            // An element whose next projected node is outside its subtree
            // has no projected children; the ancestors whose subtrees do
            // not reach that node close here.
            match self.label_str(n) {
                None => escape_text_into(out, self.text(n).unwrap_or("")),
                Some(label) => {
                    out.push('<');
                    out.push_str(label);
                    out.push_str(if self.is_ancestor_or_self(n, after) { ">" } else { "/>" });
                }
            }
            let open = |a: &NodeId| *a >= root && !self.is_ancestor_or_self(*a, after);
            for a in self.ancestors(n).take_while(open) {
                out.push_str("</");
                out.push_str(self.label_str(a).unwrap_or_default());
                out.push('>');
            }
            n = after;
        }
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

    /// Every projection of a few documents: the writer and the projected
    /// document's serializer agree byte for byte.
    #[test]
    fn write_xml_of_is_the_projections_xml() {
        for src in [
            "<r><a><b>x</b><c/></a><d>y<e>z</e>w</d><f><g><h>deep</h></g></f></r>",
            "<retailer><name>BB &amp; Co</name><store><city>Houston</city><city>Austin</city>\
             </store><store><city>Dallas</city></store></retailer>",
        ] {
            let d = Document::parse_str(src).unwrap();
            let elements: Vec<NodeId> = d.all_nodes().filter(|&n| d.is_element(n)).collect();
            for &root in &elements {
                // Every ancestor-closed set generated by one or two picks.
                for &p in &elements {
                    for &q in &elements {
                        let mut keep: Vec<NodeId> = Vec::new();
                        for pick in [p, q] {
                            if d.is_ancestor_or_self(root, pick) {
                                keep.extend(d.ancestors_or_self(pick).take_while(|&a| a >= root));
                            }
                        }
                        keep.push(root);
                        keep.sort();
                        keep.dedup();
                        let mut written = String::from("prefix:");
                        d.write_xml_of(root, &keep, &mut written);
                        let projected = d.project(root, &keep).to_xml_string();
                        assert_eq!(written, format!("prefix:{projected}"), "root {root}, {keep:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn subtree_serialization() {
        let d = Document::parse_str("<a><b><c>x</c></b><d/></a>").unwrap();
        let b = d.first_element_with_label("b").unwrap();
        assert_eq!(d.subtree_to_xml(b), "<b><c>x</c></b>");
    }
}
