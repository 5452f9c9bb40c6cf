//! Property tests: the corpus index must be **exactly** equivalent to
//! building every document standalone — same postings per `(DocId, token)`,
//! same vocabulary coverage, identical candidate sets whichever routing
//! strategy computes them — and a live corpus must equal a cold build over
//! its survivors after every single mutation.

use std::collections::BTreeMap;
use std::sync::Arc;

use extract_corpus::{Corpus, CorpusBuilder, DocId, FanIn, LiveCorpus};
use extract_index::{tokenize, InvertedIndex};
use extract_xml::{DocBuilder, Document};
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
    leaf.prop_recursive(3, 24, 5, |inner| {
        (0usize..LABELS.len(), proptest::collection::vec(inner, 0..5)).prop_map(
            |(label, children)| SpecNode { label, value: None, children },
        )
    })
}

fn corpus_strategy() -> impl Strategy<Value = Vec<SpecNode>> {
    proptest::collection::vec(spec_strategy(), 1..7)
}

fn build_doc(spec: &SpecNode) -> Document {
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

/// The same document as [`build_doc`], as the XML text `/ingest` takes.
fn spec_xml(spec: &SpecNode) -> String {
    fn write(s: &SpecNode, out: &mut String) {
        let label = LABELS[s.label];
        out.push_str(&format!("<{label}>"));
        if let Some(v) = s.value {
            out.push_str(VALUES[v]);
        }
        for c in &s.children {
            write(c, out);
        }
        out.push_str(&format!("</{label}>"));
    }
    let mut out = String::from("<db>");
    write(spec, &mut out);
    out.push_str("</db>");
    out
}

/// Every token the spec vocabulary can produce, plus a guaranteed miss.
fn probe_tokens() -> Vec<String> {
    let mut tokens: Vec<String> = Vec::new();
    for l in LABELS.iter().chain(["db"].iter()) {
        tokens.extend(tokenize::tokenize(l));
    }
    for v in VALUES {
        tokens.extend(tokenize::tokenize(v));
    }
    tokens.push("zzz-not-there".into());
    tokens.sort();
    tokens.dedup();
    tokens
}

/// One step of a live corpus's life. Names come from a pool of five, so
/// sequences update in place, delete what exists and what does not, and
/// reuse freed slots.
#[derive(Debug, Clone)]
enum Step {
    Ingest(usize, SpecNode),
    Delete(usize),
    Reject(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..5, spec_strategy()).prop_map(|(name, spec)| Step::Ingest(name, spec)),
        (0usize..5, spec_strategy()).prop_map(|(name, spec)| Step::Ingest(name, spec)),
        (0usize..5).prop_map(Step::Delete),
        (0usize..5).prop_map(Step::Reject),
    ]
}

/// Both routing strategies' answer for `query`, as document names.
fn candidates(corpus: &Corpus, query: &[&str]) -> Result<Vec<String>, TestCaseError> {
    let (mut by_directory, mut by_scan) = (Vec::new(), Vec::new());
    let mut fanin = FanIn::default();
    corpus.postings().candidate_docs(query, &mut by_directory, &mut fanin);
    corpus.postings().candidate_docs_by_scan(query, &mut by_scan, &mut fanin);
    prop_assert_eq!(&by_directory, &by_scan, "directory vs scan, query {:?}", query);
    Ok(by_directory.iter().map(|&id| corpus.name(id).to_string()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every `(document, token)`, the corpus's segments reproduce the
    /// standalone per-document `InvertedIndex` byte for byte.
    #[test]
    fn corpus_postings_equal_per_document_builds(specs in corpus_strategy()) {
        let docs: Vec<Document> = specs.iter().map(build_doc).collect();
        let mut builder = CorpusBuilder::new();
        for (i, d) in docs.iter().enumerate() {
            builder.add_parsed(&format!("doc-{i}"), d.clone());
        }
        let corpus = builder.finish();
        let sp = corpus.postings();
        let mut corpus_total = 0usize;
        let mut solo_total = 0usize;
        for (i, d) in docs.iter().enumerate() {
            let solo = InvertedIndex::build(d);
            solo_total += solo.total_postings();
            for token in probe_tokens() {
                let nodes = sp.postings_in_doc(&token, DocId::from_index(i));
                prop_assert_eq!(nodes, solo.postings(&token), "token {} doc {}", token, i);
                prop_assert_eq!(
                    sp.docs_for(&token).contains(&DocId::from_index(i)),
                    !nodes.is_empty(),
                    "directory entry of token {} for doc {}", token, i
                );
                corpus_total += nodes.len();
            }
        }
        // Coverage: the probes enumerate the whole generator vocabulary,
        // so summed per-doc slices must account for every posting.
        prop_assert_eq!(corpus_total, sp.total_postings());
        prop_assert_eq!(solo_total, sp.total_postings());
    }

    /// Candidate routing equivalence: the directory path, the
    /// no-directory scan baseline, and a from-scratch reference model all
    /// agree on which documents contain every keyword. (The fan-in
    /// *reduction* is a property of realistic corpora — long posting
    /// lists — and is measured by the corpus benchmark, not asserted on
    /// these tiny generated trees.)
    #[test]
    fn candidate_docs_agree_with_reference(specs in corpus_strategy()) {
        let docs: Vec<Document> = specs.iter().map(build_doc).collect();
        let mut builder = CorpusBuilder::new();
        for (i, d) in docs.iter().enumerate() {
            builder.add_parsed(&format!("doc-{i}"), d.clone());
        }
        let corpus = builder.finish();
        let sp = corpus.postings();
        let solo: Vec<InvertedIndex> = docs.iter().map(InvertedIndex::build).collect();
        let queries: Vec<Vec<&str>> = vec![
            vec!["store"],
            vec!["texas"],
            vec!["store", "texas"],
            vec!["city", "houston"],
            vec!["gold", "watch"],
            vec!["tag", "fox", "1"],
            vec!["db"],
        ];
        for q in queries {
            // Reference: docs where every keyword has standalone postings.
            let expected: Vec<DocId> = (0..docs.len())
                .filter(|&i| q.iter().all(|k| !solo[i].postings(k).is_empty()))
                .map(DocId::from_index)
                .collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut fa = FanIn::default();
            let mut fb = FanIn::default();
            sp.candidate_docs(&q, &mut a, &mut fa);
            sp.candidate_docs_by_scan(&q, &mut b, &mut fb);
            prop_assert_eq!(&a, &expected, "directory path, query {:?}", q);
            prop_assert_eq!(&b, &expected, "scan path, query {:?}", q);
            if !expected.is_empty() {
                prop_assert!(fa.directory_touched > 0, "routing did no work");
                prop_assert!(fb.postings_touched > 0, "scan did no work");
            }
        }
    }

    /// Streaming ingestion is order-insensitive in the only way that
    /// matters: a document's postings don't depend on what was ingested
    /// before it.
    #[test]
    fn per_document_postings_independent_of_ingestion_order(specs in corpus_strategy()) {
        let docs: Vec<Document> = specs.iter().map(build_doc).collect();
        let mut fwd = CorpusBuilder::new();
        for (i, d) in docs.iter().enumerate() {
            fwd.add_parsed(&format!("doc-{i}"), d.clone());
        }
        let mut rev = CorpusBuilder::new();
        for (i, d) in docs.iter().enumerate().rev() {
            rev.add_parsed(&format!("doc-{i}"), d.clone());
        }
        let (cf, cr) = (fwd.finish(), rev.finish());
        let n = docs.len();
        for (i, _) in docs.iter().enumerate() {
            for token in probe_tokens() {
                let a = cf.postings().postings_in_doc(&token, DocId::from_index(i));
                let b = cr.postings().postings_in_doc(&token, DocId::from_index(n - 1 - i));
                prop_assert_eq!(a, b, "token {} doc {}", token, i);
            }
        }
    }

    /// Live ≡ cold at every step: after each ingest, in-place update,
    /// delete or soft-rejected ingest, the published snapshot answers
    /// exactly like a `CorpusBuilder` cold build over the survivors —
    /// counts, vocabulary, every probe token and token pair through both
    /// routing strategies, every per-document posting list — and shares
    /// the segment of every document the step did not touch with the
    /// snapshot before it.
    #[test]
    fn live_corpus_equals_a_cold_build_after_every_step(
        seed in proptest::collection::vec(spec_strategy(), 0..3),
        steps in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let mut model: BTreeMap<String, Document> = BTreeMap::new();
        let mut builder = CorpusBuilder::new();
        for (i, spec) in seed.iter().enumerate() {
            let name = format!("doc-{i}");
            builder.add_document(&name, &spec_xml(spec)).expect("generated XML parses");
            model.insert(name, build_doc(spec));
        }
        let live = LiveCorpus::from_corpus(builder.finish());
        let tokens = probe_tokens();
        let mut rejected = 0;
        for step in &steps {
            let before = live.snapshot();
            let touched = match step {
                Step::Ingest(name, spec) => {
                    let name = format!("doc-{name}");
                    let mutation = live.ingest(&name, &spec_xml(spec)).expect("parses");
                    prop_assert_eq!(mutation.replaced.is_some(), model.contains_key(&name));
                    model.insert(name, build_doc(spec));
                    Some(mutation.id)
                }
                Step::Delete(name) => {
                    let name = format!("doc-{name}");
                    let mutation = live.delete(&name);
                    prop_assert_eq!(mutation.is_some(), model.remove(&name).is_some());
                    mutation.map(|m| m.id)
                }
                Step::Reject(name) => {
                    let name = format!("doc-{name}");
                    prop_assert!(live.ingest(&name, "<oops>").is_err());
                    rejected += 1;
                    None
                }
            };
            let snapshot = live.snapshot();
            prop_assert_eq!(snapshot.epoch() > before.epoch(), touched.is_some(), "{:?}", step);
            prop_assert_eq!(live.rejection_stats(), (rejected, 0));

            // The cold build over the survivors, in slot order.
            let mut cold = CorpusBuilder::new();
            for (_, name, doc) in snapshot.iter() {
                cold.add_parsed(name, doc.clone());
            }
            let cold = cold.finish();
            let mut names: Vec<&str> = snapshot.iter().map(|(_, name, _)| name).collect();
            names.sort_unstable();
            prop_assert_eq!(names, model.keys().map(String::as_str).collect::<Vec<_>>());
            prop_assert_eq!(snapshot.len(), cold.len());
            prop_assert_eq!(snapshot.total_nodes(), cold.total_nodes());
            let (sp, cp) = (snapshot.postings(), cold.postings());
            prop_assert_eq!(sp.doc_count(), cp.doc_count());
            prop_assert_eq!(sp.vocabulary_size(), cp.vocabulary_size());
            prop_assert_eq!(sp.total_postings(), cp.total_postings());

            for (i, a) in tokens.iter().enumerate() {
                prop_assert_eq!(candidates(&snapshot, &[a])?, candidates(&cold, &[a])?, "{}", a);
                for b in &tokens[i + 1..] {
                    prop_assert_eq!(
                        candidates(&snapshot, &[a, b])?,
                        candidates(&cold, &[a, b])?,
                        "{} {}", a, b
                    );
                }
            }
            for (id, name, _) in snapshot.iter() {
                let solo = InvertedIndex::build(&model[name]);
                prop_assert_eq!(snapshot.doc(id).len(), model[name].len(), "{}", name);
                for token in &tokens {
                    prop_assert_eq!(
                        sp.postings_in_doc(token, id), solo.postings(token),
                        "token {} of {}", token, name
                    );
                }
                if before.contains(id) {
                    prop_assert!(Some(id) != touched);
                    prop_assert!(
                        Arc::ptr_eq(before.segment(id), snapshot.segment(id)),
                        "{} was re-indexed by {:?}", name, step
                    );
                }
            }
        }
    }
}
