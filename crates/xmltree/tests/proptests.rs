//! Property-based tests for the XML substrate: round-trips, Dewey algebra,
//! projection invariants.

use std::collections::HashSet;

use extract_xml::{Dewey, DocBuilder, Document, NodeId};
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..6, proptest::option::of("[a-z]{1,8}"))
        .prop_map(|(label, text)| SpecNode { label, text, children: Vec::new() });
    leaf.prop_recursive(4, 64, 6, |inner| {
        (0usize..6, proptest::collection::vec(inner, 0..6)).prop_map(|(label, children)| SpecNode {
            label,
            text: None,
            children,
        })
    })
}

#[derive(Debug, Clone)]
struct SpecNode {
    label: usize,
    text: Option<String>,
    children: Vec<SpecNode>,
}

const LABELS: [&str; 6] = ["store", "clothes", "name", "city", "merch", "item"];

fn build(spec: &SpecNode) -> Document {
    let mut b = DocBuilder::new(LABELS[spec.label]);
    for c in &spec.children {
        build_into(&mut b, c);
    }
    if let Some(t) = &spec.text {
        b.text(t);
    }
    b.build()
}

fn build_into(b: &mut DocBuilder, spec: &SpecNode) {
    match (&spec.text, spec.children.is_empty()) {
        (Some(t), true) => {
            b.leaf(LABELS[spec.label], t);
        }
        _ => {
            b.begin(LABELS[spec.label]);
            for c in &spec.children {
                build_into(b, c);
            }
            if let Some(t) = &spec.text {
                b.text(t);
            }
            b.end();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialize_parse_is_fixpoint(spec in spec_strategy()) {
        let doc = build(&spec);
        doc.debug_validate().unwrap();
        let xml = doc.to_xml_string();
        let reparsed = Document::parse_str(&xml).unwrap();
        prop_assert_eq!(reparsed.to_xml_string(), xml);
    }

    #[test]
    fn pretty_print_parses_to_same_compact_form(spec in spec_strategy()) {
        let doc = build(&spec);
        // Whitespace-only text may legitimately be dropped on reparse of the
        // pretty form; skip specs that contain such text values.
        let has_blank_text = doc.all_nodes().any(|n| {
            doc.text(n).is_some_and(|t| t.trim().is_empty())
        });
        prop_assume!(!has_blank_text);
        let reparsed = Document::parse_str(&doc.to_xml_pretty()).unwrap();
        prop_assert_eq!(reparsed.to_xml_string(), doc.to_xml_string());
    }

    #[test]
    fn dewey_round_trip_and_order(spec in spec_strategy()) {
        let doc = build(&spec);
        let nodes: Vec<NodeId> = doc.subtree(doc.root()).collect();
        let deweys: Vec<Dewey> = nodes.iter().map(|&n| doc.dewey(n)).collect();
        for (n, dw) in nodes.iter().zip(&deweys) {
            prop_assert_eq!(doc.node_by_dewey(dw), Some(*n));
        }
        // Dewey order must agree with preorder position, i.e. with ID order.
        for w in deweys.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn lca_agrees_with_dewey_prefix(spec in spec_strategy()) {
        let doc = build(&spec);
        let nodes: Vec<NodeId> = doc.all_nodes().collect();
        // Cap the quadratic check for big trees.
        let sample: Vec<NodeId> = nodes.iter().copied().take(20).collect();
        for &a in &sample {
            for &b in &sample {
                let lca = doc.lca(a, b);
                let dewey_lca = doc.dewey(a).lca(&doc.dewey(b));
                prop_assert_eq!(doc.dewey(lca), dewey_lca);
            }
        }
    }

    #[test]
    fn projection_is_ancestor_closed_and_bounded(spec in spec_strategy(), pick in proptest::collection::vec(any::<prop::sample::Index>(), 0..5)) {
        let doc = build(&spec);
        let elements: Vec<NodeId> = doc.subtree_elements(doc.root()).collect();
        let keep: HashSet<NodeId> = pick.iter().map(|i| *i.get(&elements)).collect();
        let snip = doc.project(doc.root(), &keep);
        snip.debug_validate().unwrap();
        // Exactly the kept nodes, their ancestors and the root appear, in
        // document order.
        let mut closed: Vec<NodeId> =
            keep.iter().flat_map(|&k| doc.ancestors_or_self(k)).chain([doc.root()]).collect();
        closed.sort();
        closed.dedup();
        let projected: Vec<&str> =
            snip.subtree_elements(snip.root()).map(|n| snip.label_str(n).unwrap()).collect();
        let expected: Vec<&str> = closed.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        prop_assert_eq!(projected, expected);
        // The projection never grows beyond the source subtree.
        prop_assert!(snip.element_count() <= doc.element_count());
        // Root label preserved.
        prop_assert_eq!(snip.label_str(snip.root()), doc.label_str(doc.root()));
    }

    #[test]
    fn ascii_tree_mentions_every_label(spec in spec_strategy()) {
        let doc = build(&spec);
        let art = doc.to_ascii_tree(doc.root());
        for n in doc.subtree_elements(doc.root()) {
            let label = doc.label_str(n).unwrap();
            prop_assert!(art.contains(label));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser must never panic, whatever bytes arrive — errors only.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = Document::parse_str(&input);
    }

    /// Same for inputs that look almost like XML.
    #[test]
    fn parser_never_panics_on_xmlish_input(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("</a>".to_string()),
                Just("<b c=\"d\">".to_string()),
                Just("text".to_string()),
                Just("<!-- x -->".to_string()),
                Just("<![CDATA[y]]>".to_string()),
                Just("&amp;".to_string()),
                Just("&bogus;".to_string()),
                Just("<!DOCTYPE r [<!ELEMENT r (a*)>]>".to_string()),
                Just("<?pi?>".to_string()),
                Just("<".to_string()),
                Just("]]>".to_string()),
            ],
            0..12,
        )
    ) {
        let input: String = parts.concat();
        let _ = Document::parse_str(&input);
    }
}
