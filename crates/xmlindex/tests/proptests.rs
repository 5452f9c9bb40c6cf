//! Property tests: the indexes must be *exactly* consistent with the
//! document — complete (every true match is indexed) and sound (every
//! posting is a true match).

use extract_index::{tokenize, InvertedIndex, XmlIndex};
use extract_xml::{DocBuilder, Document, NodeId};
use proptest::prelude::*;

const LABELS: [&str; 5] = ["store", "item", "name", "city", "tag"];
const VALUES: [&str; 6] = ["texas", "houston", "gold watch", "red Fox", "a-1", ""];

#[derive(Debug, Clone)]
struct SpecNode {
    label: usize,
    value: Option<usize>,
    children: Vec<SpecNode>,
}

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (0usize..LABELS.len(), proptest::option::of(0usize..VALUES.len()))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 48, 6, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..6)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

fn build(spec: &SpecNode) -> Document {
    let mut b = DocBuilder::new("db");
    push(&mut b, spec);
    b.build()
}

fn push(b: &mut DocBuilder, s: &SpecNode) {
    b.begin(LABELS[s.label]);
    if let Some(v) = s.value {
        if !VALUES[v].is_empty() {
            b.text(VALUES[v]);
        }
    }
    for c in &s.children {
        push(b, c);
    }
    b.end();
}

/// Reference: does element `n` match `token` by label or direct text?
fn matches(doc: &Document, n: NodeId, token: &str) -> bool {
    if !doc.is_element(n) {
        return false;
    }
    if tokenize::contains_token(doc.label_str(n).unwrap_or(""), token) {
        return true;
    }
    doc.children(n).any(|c| doc.text(c).is_some_and(|t| tokenize::contains_token(t, token)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inverted_index_is_sound_and_complete(spec in spec_strategy()) {
        let doc = build(&spec);
        let index = InvertedIndex::build(&doc);
        // Tokens worth checking: all label tokens + all value tokens.
        let mut tokens: Vec<String> = Vec::new();
        for l in LABELS {
            tokens.extend(tokenize::tokenize(l));
        }
        for v in VALUES {
            tokens.extend(tokenize::tokenize(v));
        }
        tokens.push("zzz-not-there".into());
        tokens.sort();
        tokens.dedup();
        for token in &tokens {
            let postings = index.postings(token);
            // Sound: every posting matches.
            for &n in postings {
                prop_assert!(matches(&doc, n, token), "posting {n} does not match {token}");
            }
            // Complete: every matching element is in the postings.
            for n in doc.all_nodes() {
                if matches(&doc, n, token) {
                    prop_assert!(
                        postings.contains(&n),
                        "element {n} matching `{token}` missing from postings"
                    );
                }
            }
            // Sorted, unique.
            prop_assert!(postings.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn arena_index_matches_hashmap_reference_model(spec in spec_strategy()) {
        // Reference model: the pre-arena design — a HashMap from token to
        // per-token Vec, built by the same per-element dedup semantics.
        let doc = build(&spec);
        let mut reference: std::collections::HashMap<String, Vec<NodeId>> =
            std::collections::HashMap::new();
        for node in doc.all_nodes() {
            if !doc.is_element(node) {
                continue;
            }
            let mut toks: Vec<String> =
                tokenize::tokenize(doc.label_str(node).unwrap_or(""));
            for c in doc.children(node) {
                if let Some(t) = doc.text(c) {
                    toks.extend(tokenize::tokenize(t));
                }
            }
            toks.sort();
            toks.dedup();
            for t in toks {
                reference.entry(t).or_default().push(node);
            }
        }
        let index = InvertedIndex::build(&doc);
        prop_assert_eq!(index.vocabulary_size(), reference.len());
        prop_assert_eq!(
            index.total_postings(),
            reference.values().map(Vec::len).sum::<usize>()
        );
        // Every reference list is reachable by string AND by interned id.
        for (token, expected) in &reference {
            prop_assert_eq!(index.postings(token), expected.as_slice(), "token {}", token);
            let id = index.token_id(token).expect("token interned");
            prop_assert_eq!(index.postings_by_id(id), expected.as_slice());
            prop_assert_eq!(index.tokens().find(|&(t, _)| t == id), Some((id, token.as_str())));
        }
        // And iter() exposes exactly the reference's entries.
        for (token, list) in index.iter() {
            prop_assert_eq!(Some(list), reference.get(token).map(Vec::as_slice), "token {}", token);
        }
    }

    #[test]
    fn facade_footprint_and_consistency(spec in spec_strategy()) {
        let doc = build(&spec);
        let index = XmlIndex::build(&doc);
        prop_assert!(index.memory_footprint() > 0);
        // The facade's postings agree with a fresh inverted index.
        let fresh = InvertedIndex::build(&doc);
        for token in ["store", "texas", "gold"] {
            prop_assert_eq!(index.postings(token), fresh.postings(token));
        }
    }
}
