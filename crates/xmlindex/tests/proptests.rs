//! Property tests: the indexes must be *exactly* consistent with the
//! document — complete (every true match is indexed) and sound (every
//! posting is a true match) — and the tokenizer must split and lowercase
//! exactly as `split` on non-alphanumerics plus `str::to_lowercase` does.

use extract_index::{tokenize, tokens_of, InvertedIndex, XmlIndex};
use extract_xml::{DocBuilder, Document, NodeId};
use proptest::prelude::*;

const LABELS: [&str; 5] = ["store", "item", "name", "city", "tag"];
const VALUES: [&str; 6] = ["texas", "houston", "gold watch", "red Fox", "a-1", ""];

/// Pieces of random text: mixed-case ASCII, digits, separators, and
/// non-ASCII letters and digits — among them ones whose lowercase is
/// longer or shorter than they are (`İ` → `i̇`, `ẞ` → `ß`, the Kelvin
/// sign → `k`), a final-sigma case (`Σ` lowercases by position), a
/// titlecase digraph and a combining mark.
const FRAGMENTS: [&str; 30] = [
    "a", "Z", "Texas", "hOuSTon", "7", "042", " ", "-", "_", ".", ", ", "/", "İ", "ẞ", "ß",
    "Σ", "ΟΔΟΣ", "é", "É", "\u{212A}", "ǅ", "\u{345}", "٣", "½", "中", "🦀", "Straße", "İstanbul",
    "naïve", "\u{0307}",
];

/// A random string of up to `max` fragments.
fn text_strategy(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..max)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// A label or a value: one of the fixed words (so tokens repeat across
/// elements) or random text.
fn word_strategy(words: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..words.len()).prop_map(move |i| words[i].to_string()),
        text_strategy(6),
    ]
}

#[derive(Debug, Clone)]
struct SpecNode {
    label: String,
    value: Option<String>,
    children: Vec<SpecNode>,
}

fn spec_strategy() -> impl Strategy<Value = SpecNode> {
    let leaf = (word_strategy(&LABELS), proptest::option::of(word_strategy(&VALUES)))
        .prop_map(|(label, value)| SpecNode { label, value, children: Vec::new() });
    leaf.prop_recursive(4, 48, 6, |inner| {
        (word_strategy(&LABELS), proptest::collection::vec(inner, 0..6)).prop_map(
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
    b.begin(&s.label);
    if let Some(v) = &s.value {
        if !v.is_empty() {
            b.text(v);
        }
    }
    for c in &s.children {
        push(b, c);
    }
    b.end();
}

/// The tokenizer's definition: maximal runs of alphanumeric characters,
/// each lowercased by `str::to_lowercase`.
fn reference_tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|run| !run.is_empty())
        .map(str::to_lowercase)
        .collect()
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
        // Tokens worth checking: every label and text token + all the
        // fixed words' tokens.
        let mut tokens: Vec<String> = Vec::new();
        for n in doc.all_nodes() {
            tokens.extend(reference_tokens(doc.label_str(n).or(doc.text(n)).unwrap_or("")));
        }
        for word in LABELS.iter().chain(&VALUES) {
            tokens.extend(reference_tokens(word));
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
            let mut toks: Vec<String> = reference_tokens(doc.label_str(node).unwrap_or(""));
            for c in doc.children(node) {
                if let Some(t) = doc.text(c) {
                    toks.extend(reference_tokens(t));
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

    /// Every tokenizer entry point agrees with the definition on random
    /// text: `tokens_of` and `tokenize` yield its tokens in order,
    /// `contains_token` finds exactly them, and an index over one element
    /// with that label and text interns them in first-occurrence order.
    #[test]
    fn the_tokenizer_equals_split_and_lowercase(
        label in text_strategy(12),
        text in text_strategy(24),
    ) {
        for s in [&label, &text] {
            let expected = reference_tokens(s);
            prop_assert_eq!(&tokens_of(s).collect::<Vec<_>>(), &expected, "tokens_of {:?}", s);
            prop_assert_eq!(&tokenize(s), &expected, "tokenize {:?}", s);
            for token in expected.iter().map(String::as_str).chain(["i", "k", "σ", "ς", "ss", ""]) {
                prop_assert_eq!(
                    tokenize::contains_token(s, token),
                    expected.iter().any(|t| t == token),
                    "contains_token({:?}, {:?})", s, token
                );
            }
        }
        let mut b = DocBuilder::new(&label);
        if !text.is_empty() {
            b.text(&text);
        }
        let doc = b.build();
        let index = InvertedIndex::build(&doc);
        let mut first_seen: Vec<String> = Vec::new();
        for token in reference_tokens(&label).into_iter().chain(reference_tokens(&text)) {
            if !first_seen.contains(&token) {
                first_seen.push(token);
            }
        }
        let interned: Vec<&str> = index.tokens().map(|(_, t)| t).collect();
        prop_assert_eq!(interned, first_seen.iter().map(String::as_str).collect::<Vec<_>>());
        for token in &first_seen {
            prop_assert_eq!(index.postings(token), &[doc.root()][..], "token {}", token);
        }
    }
}
