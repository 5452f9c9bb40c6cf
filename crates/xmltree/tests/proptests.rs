//! Property-based tests for the XML substrate: round-trips, LCAs,
//! projection invariants, and the label interner against a reference model.

use std::collections::{HashMap, HashSet};

use extract_xml::{DocBuilder, Document, NodeId, Symbol, SymbolTable};
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

/// A node's Dewey label, read off its parent walk: the child ranks on the
/// path from the root.
fn dewey(doc: &Document, n: NodeId) -> Vec<u32> {
    let mut comps: Vec<u32> = doc
        .ancestors_or_self(n)
        .filter(|&x| doc.parent(x).is_some())
        .map(|x| doc.rank(x))
        .collect();
    comps.reverse();
    comps
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
        // IDs are preorder positions: what makes `lca` an interval test.
        doc.debug_validate().unwrap();
        let nodes: Vec<NodeId> = doc.subtree(doc.root()).collect();
        let deweys: Vec<Vec<u32>> = nodes.iter().map(|&n| dewey(&doc, n)).collect();
        for (n, dw) in nodes.iter().zip(&deweys) {
            let found =
                dw.iter().try_fold(doc.root(), |cur, &rank| doc.children(cur).nth(rank as usize));
            prop_assert_eq!(found, Some(*n));
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
        // Cap the quadratic check for big trees, sampling across the tree.
        let sample: Vec<NodeId> = nodes.iter().copied().step_by(nodes.len().div_ceil(20)).collect();
        for &a in &sample {
            let above_a: HashSet<NodeId> = doc.ancestors_or_self(a).collect();
            for &b in &sample {
                let (da, db) = (dewey(&doc, a), dewey(&doc, b));
                let common = da.iter().zip(&db).take_while(|(x, y)| x == y).count();
                prop_assert_eq!(dewey(&doc, doc.lca(a, b)), da[..common].to_vec());
                let walked = doc.ancestors_or_self(b).find(|n| above_a.contains(n));
                prop_assert_eq!(Some(doc.lca(a, b)), walked);
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

/// Words that stress an interner: the empty string, strings that are
/// prefixes of each other (so a string buffer without boundaries would
/// confuse them), non-ASCII ones, and a few thousand numbered ones whose
/// first occurrences drive the table through several growths.
fn word_strategy() -> impl Strategy<Value = String> {
    const TRICKY: [&str; 14] =
        ["", "a", "ab", "abc", "abcd", "b", "é", "éé", "ée", "日", "日本", "日本語", "\u{0}", " "];
    prop_oneof![
        (0usize..TRICKY.len()).prop_map(|i| TRICKY[i].to_string()),
        (0usize..3_000).prop_map(|n| format!("w{n}")),
        (0usize..3_000).prop_map(|n| format!("w{n}")),
        (0usize..11, 0usize..5)
            .prop_map(|(cut, umlauts)| format!("{}{}", &"abcdefghij"[..cut], "ü".repeat(umlauts))),
        "[a-cé]{0,4}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SymbolTable` against a reference model — a `Vec<String>` of the
    /// strings in first-occurrence order and a `HashMap` from string to
    /// position: every `intern` and `get` answers the model's symbol, and
    /// at the end `resolve`, `try_resolve` (of foreign ids too), `iter`
    /// order and `len` agree with it.
    #[test]
    fn symbol_table_equals_a_vec_and_map_model(
        ops in proptest::collection::vec((any::<bool>(), word_strategy()), 0..1_500),
    ) {
        let mut table = SymbolTable::new();
        let mut strings: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for (intern, word) in &ops {
            if *intern {
                let expected = *index.entry(word.clone()).or_insert_with(|| {
                    strings.push(word.clone());
                    strings.len() - 1
                });
                prop_assert_eq!(table.intern(word).index(), expected, "intern {:?}", word);
            } else {
                let expected = index.get(word).copied();
                prop_assert_eq!(table.get(word).map(|s| s.index()), expected, "get {:?}", word);
            }
            prop_assert_eq!(table.len(), strings.len());
        }
        prop_assert_eq!(table.is_empty(), strings.is_empty());
        for (i, s) in strings.iter().enumerate() {
            let sym = Symbol::from_index(i);
            prop_assert_eq!(table.resolve(sym), s.as_str());
            prop_assert_eq!(table.try_resolve(sym), Some(s.as_str()));
            prop_assert_eq!(table.get(s), Some(sym));
        }
        for foreign in [strings.len(), strings.len() + 1, strings.len() + 1_000] {
            prop_assert_eq!(table.try_resolve(Symbol::from_index(foreign)), None);
        }
        let iterated: Vec<(usize, &str)> = table.iter().map(|(s, t)| (s.index(), t)).collect();
        let modelled: Vec<(usize, &str)> =
            strings.iter().enumerate().map(|(i, s)| (i, s.as_str())).collect();
        prop_assert_eq!(iterated, modelled);
        // A clone answers the same, and keeps answering after both grow.
        let mut copy = table.clone();
        prop_assert_eq!(copy.intern("a fresh string").index(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(copy.get(s), Some(Symbol::from_index(i)));
        }
    }
}
