//! Property tests: the corpus index must be **exactly** equivalent to
//! building every document standalone — same postings per `(DocId, token)`,
//! same vocabulary coverage, identical candidate sets whichever routing
//! strategy computes them, routed token ids that read each candidate's own
//! posting lists — a live corpus must equal a cold build over
//! its survivors after every single mutation, and a cold build and a live
//! corpus fed the same adds must run the same fold to the same slot table.

use std::collections::BTreeMap;
use std::sync::Arc;

use extract_corpus::{Corpus, CorpusBuilder, DocId, FanIn, LiveCorpus, Routes};
use extract_index::{tokenize, InvertedIndex, TokenId};
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

/// The documents containing every token, the way a store with **no
/// directory** has to compute them: read every posting of every token in
/// every segment and intersect the document sets — the routing reference.
/// Returns the candidates in ascending [`DocId`] order and the postings
/// read.
fn candidate_docs_by_scan(corpus: &Corpus, tokens: &[&str]) -> (Vec<DocId>, u64) {
    let (mut out, mut read) = (Vec::new(), 0u64);
    for (i, token) in tokens.iter().enumerate() {
        let mut docs = Vec::new();
        for id in corpus.doc_ids() {
            let postings = corpus.engine(id).index().postings(token);
            read += postings.len() as u64;
            if !postings.is_empty() {
                docs.push(id);
            }
        }
        // `doc_ids` runs in slot order, which is `DocId` order.
        if i == 0 {
            out = docs;
        } else {
            out.retain(|d| docs.binary_search(d).is_ok());
        }
        if out.is_empty() {
            break;
        }
    }
    (out, read)
}

/// A routed candidate: its document's name and the query's token ids in
/// its segment.
type Routed = (String, Vec<TokenId>);

/// The routing answer for `query`: the directory's and the no-directory
/// scan's candidates must agree, [`Corpus::route`] must find the same ones,
/// and each candidate's routed ids must read exactly the keywords' posting
/// lists in its segment. Returned as names beside ids, so two corpora with
/// different slot tables compare.
fn candidates(corpus: &Corpus, query: &[&str]) -> Result<Vec<Routed>, TestCaseError> {
    let mut by_directory = Vec::new();
    corpus.postings().candidate_docs(query, &mut by_directory, &mut FanIn::default());
    let (by_scan, _) = candidate_docs_by_scan(corpus, query);
    prop_assert_eq!(&by_directory, &by_scan, "directory vs scan, query {:?}", query);
    let mut routes = Routes::default();
    corpus.route(query, &mut routes);
    prop_assert_eq!(routes.docs(), &by_directory[..], "route vs directory, query {:?}", query);
    let mut routed = Vec::new();
    for (doc, ids) in routes.iter() {
        let segment = corpus.engine(doc).index();
        prop_assert_eq!(ids.len(), query.len(), "query {:?}", query);
        for (keyword, &id) in query.iter().zip(ids) {
            let postings = segment.postings(keyword);
            prop_assert!(!postings.is_empty(), "{} routed to {} without it", keyword, doc);
            prop_assert_eq!(segment.postings_by_id(id), postings, "{} in {}", keyword, doc);
        }
        routed.push((corpus.name(doc).to_string(), ids.to_vec()));
    }
    Ok(routed)
}

/// The directory finds the scan's candidates and touches no more index
/// entries than the scan reads postings — fewer once a list is long.
#[test]
fn directory_fanin_is_lower_than_scan() {
    let mut builder = CorpusBuilder::new();
    let stores = "<stores><store><name>Levis</name><state>Texas</state></store>\
        <store><name>Gap</name><state>Ohio</state></store></stores>";
    builder.add_document("stores", stores).unwrap();
    let dblp = "<dblp><paper><title>texas keyword search</title><venue>VLDB</venue></paper></dblp>";
    builder.add_document("dblp", dblp).unwrap();
    let corpus = builder.finish();
    for q in [&["texas"][..], &["texas", "store"], &["ohio", "vldb"], &["zzz"], &[]] {
        let (by_directory, directory) = corpus.candidate_docs_str(q);
        let (by_scan, read) = candidate_docs_by_scan(&corpus, q);
        assert_eq!(by_directory, by_scan, "query {q:?}");
        assert!(directory.total() <= read, "{q:?}: {directory:?} vs {read} postings");
    }
    let (_, directory) = corpus.candidate_docs_str(&["texas", "store"]);
    let (_, read) = candidate_docs_by_scan(&corpus, &["texas", "store"]);
    assert!(directory.total() < read, "directory path must touch fewer entries: {directory:?} vs {read}");
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
                let nodes = corpus.engine(DocId::from_index(i)).index().postings(&token);
                prop_assert_eq!(nodes, solo.postings(&token), "token {} doc {}", token, i);
                prop_assert_eq!(
                    sp.entries_for(&token).iter().any(|e| e.doc == DocId::from_index(i)),
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
    /// lists — and is not asserted on these tiny generated trees; see
    /// `directory_fanin_is_lower_than_scan` for a fixed corpus.)
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
            let (mut a, mut fa) = (Vec::new(), FanIn::default());
            sp.candidate_docs(&q, &mut a, &mut fa);
            let (b, read) = candidate_docs_by_scan(&corpus, &q);
            prop_assert_eq!(&a, &expected, "directory path, query {:?}", q);
            prop_assert_eq!(&b, &expected, "scan path, query {:?}", q);
            if !expected.is_empty() {
                prop_assert!(fa.directory_touched > 0, "routing did no work");
                prop_assert!(read > 0, "scan did no work");
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
                let a = cf.engine(DocId::from_index(i)).index().postings(&token);
                let b = cr.engine(DocId::from_index(n - 1 - i)).index().postings(&token);
                prop_assert_eq!(a, b, "token {} doc {}", token, i);
            }
        }
    }

    /// One fold: the ingests of a step sequence (deletes and rejections
    /// skipped), added to a `CorpusBuilder` and ingested into an empty
    /// `LiveCorpus`, get the same ids one by one and end in the same slot
    /// table — every `(DocId, name)`, generations of in-place updates
    /// included — and the same directory.
    #[test]
    fn a_cold_build_and_a_live_corpus_run_one_fold(
        steps in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let mut builder = CorpusBuilder::new();
        let live = LiveCorpus::new();
        for step in &steps {
            if let Step::Ingest(name, spec) = step {
                let (name, xml) = (format!("doc-{name}"), spec_xml(spec));
                let cold_id = builder.add_document(&name, &xml).expect("parses");
                prop_assert_eq!(cold_id, live.ingest(&name, &xml).expect("parses").id);
            }
        }
        let (cold, live) = (builder.finish(), live.snapshot());
        let slots = |c: &Corpus| -> Vec<(DocId, String)> {
            c.iter().map(|(id, name, _)| (id, name.to_string())).collect()
        };
        prop_assert_eq!(slots(&cold), slots(&live));
        prop_assert_eq!(cold.slot_count(), live.slot_count());
        prop_assert_eq!(cold.total_nodes(), live.total_nodes());
        prop_assert_eq!(cold.postings(), live.postings());
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
        queries in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 1..5),
            1..6,
        ),
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
            prop_assert_eq!(sp.vocabulary_size(), cp.vocabulary_size());
            prop_assert_eq!(sp.total_postings(), cp.total_postings());

            // Random queries of one to four probe tokens, repeats allowed.
            for picks in &queries {
                let query: Vec<&str> =
                    picks.iter().map(|&p| tokens[p % tokens.len()].as_str()).collect();
                prop_assert_eq!(
                    candidates(&snapshot, &query)?,
                    candidates(&cold, &query)?,
                    "{:?}", query
                );
            }
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
                        snapshot.engine(id).index().postings(token), solo.postings(token),
                        "token {} of {}", token, name
                    );
                }
                if before.contains(id) {
                    prop_assert!(Some(id) != touched);
                    prop_assert!(
                        Arc::ptr_eq(before.engine(id).index(), snapshot.engine(id).index()),
                        "{} was re-indexed by {:?}", name, step
                    );
                }
            }
        }
    }
}
