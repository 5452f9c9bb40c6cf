//! The snippet: a materialized, bounded subtree of a query result.

use extract_xml::{Document, NodeId};

use crate::ilist::{IList, IListItem};
use crate::selector::SelectionOutcome;

/// A generated result snippet.
#[derive(Debug, Clone)]
pub struct Snippet {
    /// The result root in the *original* document.
    pub result_root: NodeId,
    /// The included element nodes in the original document: sorted,
    /// ancestor-closed, starting with `result_root`.
    pub nodes: Vec<NodeId>,
    /// Element-edge count (the paper's size measure).
    pub edges: usize,
    /// Covered IList items, in rank order.
    pub covered: Vec<IListItem>,
    /// Skipped IList items, in rank order.
    pub skipped: Vec<IListItem>,
    /// The materialized snippet tree (a standalone document).
    tree: Document,
}

impl Snippet {
    /// Materialize a snippet from a selection outcome.
    pub fn from_selection(doc: &Document, ilist: &IList, outcome: SelectionOutcome) -> Snippet {
        // The sorted node set starts with the root every selection includes.
        let root = outcome.nodes.first().copied().unwrap_or(doc.root());
        let tree = doc.project(root, &outcome.nodes);
        let items = |indices: &[usize]| -> Vec<IListItem> {
            indices.iter().filter_map(|&i| ilist.items().get(i)).map(|r| r.item.clone()).collect()
        };
        Snippet {
            result_root: root,
            covered: items(&outcome.covered),
            skipped: items(&outcome.skipped),
            nodes: outcome.nodes,
            edges: outcome.edges,
            tree,
        }
    }

    /// The materialized snippet document.
    pub fn tree(&self) -> &Document {
        &self.tree
    }

    /// Compact XML rendering.
    pub fn to_xml(&self) -> String {
        self.tree.to_xml_string()
    }

    /// Pretty-printed XML rendering.
    pub fn to_xml_pretty(&self) -> String {
        self.tree.to_xml_pretty()
    }

    /// ASCII-tree rendering (the shape of the paper's Figure 2).
    pub fn to_ascii_tree(&self) -> String {
        self.tree.to_ascii_tree(self.tree.root())
    }

    /// One-line summary: root label plus the covered attribute values, the
    /// style of the demo UI's result rows (Figure 5).
    pub fn summary_line(&self, doc: &Document) -> String {
        let root_label = doc.label_str(self.result_root).unwrap_or("result");
        let values: Vec<String> = self
            .covered
            .iter()
            .filter_map(|item| match item {
                IListItem::ResultKey { value, .. } => Some(format!("“{value}”")),
                IListItem::Feature { value, .. } => Some(value.clone()),
                _ => None,
            })
            .collect();
        if values.is_empty() {
            root_label.to_string()
        } else {
            format!("{root_label}: {}", values.join(", "))
        }
    }

    /// Number of covered items.
    pub fn coverage(&self) -> usize {
        self.covered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilist::RankedItem;
    use crate::return_entity::{ReturnEntities, ReturnEntityReason};
    use crate::selector::greedy_select;

    fn setup() -> (Document, IList) {
        let doc = Document::parse_str(
            "<store><name>Levis</name><state>Texas</state><merchandises>\
             <clothes><category>jeans</category></clothes></merchandises></store>",
        )
        .unwrap();
        let name = doc.first_element_with_label("name").unwrap();
        let category = doc.first_element_with_label("category").unwrap();
        let store_sym = doc.symbols().get("store").unwrap();
        let name_sym = doc.symbols().get("name").unwrap();
        let cat_sym = doc.symbols().get("category").unwrap();
        let clothes_sym = doc.symbols().get("clothes").unwrap();
        let items = vec![
            RankedItem {
                item: IListItem::ResultKey {
                    entity: store_sym,
                    attribute: name_sym,
                    value: "Levis".into(),
                },
                instances: vec![name],
            },
            RankedItem {
                item: IListItem::Feature {
                    entity: clothes_sym,
                    attribute: cat_sym,
                    value: "jeans".into(),
                    score: 2.0,
                },
                instances: vec![category],
            },
        ];
        let il = IList::from_parts_for_tests(
            items,
            ReturnEntities {
                label: Some(store_sym),
                reason: ReturnEntityReason::NameMatch,
                instances: vec![doc.root()],
            },
            None,
        );
        (doc, il)
    }

    #[test]
    fn materializes_selected_subtree() {
        let (doc, il) = setup();
        let outcome = greedy_select(&doc, &il, doc.root(), 10);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        assert_eq!(snip.coverage(), 2);
        let xml = snip.to_xml();
        assert!(xml.contains("Levis"), "{xml}");
        assert!(xml.contains("jeans"), "{xml}");
        assert!(!xml.contains("Texas"), "state was never selected: {xml}");
        assert_eq!(snip.edges, 4); // name + merchandises + clothes + category
    }

    #[test]
    fn bound_truncates_coverage() {
        let (doc, il) = setup();
        let outcome = greedy_select(&doc, &il, doc.root(), 1);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        assert_eq!(snip.coverage(), 1, "only the key fits in one edge");
        assert_eq!(snip.skipped.len(), 1);
        assert!(snip.to_xml().contains("Levis"));
    }

    #[test]
    fn renderings_work() {
        let (doc, il) = setup();
        let outcome = greedy_select(&doc, &il, doc.root(), 10);
        let snip = Snippet::from_selection(&doc, &il, outcome);
        assert!(snip.to_ascii_tree().contains("name: Levis"));
        assert!(snip.to_xml_pretty().contains("<category>jeans</category>"));
        let line = snip.summary_line(&doc);
        assert!(line.contains("store"), "{line}");
        assert!(line.contains("Levis"), "{line}");
        assert!(line.contains("jeans"), "{line}");
    }
}
