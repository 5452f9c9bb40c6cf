//! The `query_throughput` workload (PR 2): cold vs cached vs threaded
//! query answering over the datagen retailer/dblp corpora, plus an
//! apples-to-apples comparison of the arena-backed inverted index against
//! the pre-arena `HashMap<String, Vec<NodeId>>` design.
//!
//! Shared by the `query_throughput` binary (which emits `BENCH_PR2.json`)
//! and the Criterion bench of the same name, so both measure the exact
//! same work.

use std::collections::HashMap;
use std::time::Duration;

use extract::prelude::*;
use extract_datagen::dblp::DblpConfig;
use extract_datagen::retailer::RetailerConfig;
use extract_index::{tokens_of, InvertedIndex};
use extract_search::slca::{
    slca_auto_with, slca_indexed_lookup_with, slca_scan_eager_with, SlcaScratch,
};
use extract_xml::Document;

use crate::median_time;

/// The pre-PR-2 inverted index design, kept verbatim as the cold-path
/// baseline: per-token `Vec` posting lists behind a string-keyed hash map,
/// with the linear-scan per-element dedup.
#[derive(Debug, Default)]
pub struct HashMapIndex {
    postings: HashMap<String, Vec<extract_xml::NodeId>>,
}

impl HashMapIndex {
    /// Build with the old algorithm (linear `seen.contains` dedup).
    pub fn build(doc: &Document) -> HashMapIndex {
        let mut postings: HashMap<String, Vec<extract_xml::NodeId>> = HashMap::new();
        let mut seen: Vec<String> = Vec::with_capacity(8);
        for node in doc.all_nodes() {
            let Some(label) = doc.label_str(node) else {
                continue;
            };
            seen.clear();
            for tok in tokens_of(label) {
                if !seen.contains(&tok) {
                    seen.push(tok);
                }
            }
            for child in doc.children(node) {
                if let Some(text) = doc.text(child) {
                    for tok in tokens_of(text) {
                        if !seen.contains(&tok) {
                            seen.push(tok);
                        }
                    }
                }
            }
            for tok in seen.drain(..) {
                postings.entry(tok).or_default().push(node);
            }
        }
        HashMapIndex { postings }
    }

    /// Posting list for `token` (old lookup path: hash the string).
    pub fn postings(&self, token: &str) -> &[extract_xml::NodeId] {
        self.postings.get(token).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Iterate over `(token, postings)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[extract_xml::NodeId])> {
        self.postings.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// One corpus of the workload: a generated document plus a realistic
/// keyword-query mix (rare anchors, broad scans, misses).
pub struct Corpus {
    /// Corpus name (`retailer` / `dblp`).
    pub name: &'static str,
    /// The generated document.
    pub doc: Document,
    /// The query mix.
    pub queries: Vec<&'static str>,
}

/// The retailer workload corpus.
pub fn retailer_corpus() -> Corpus {
    let doc = RetailerConfig {
        retailers: 50,
        stores_per_retailer: (3, 8),
        clothes_per_store: (10, 40),
        category_skew: 1.0,
        seed: 0xEB2,
    }
    .generate();
    Corpus {
        name: "retailer",
        doc,
        queries: vec![
            "texas apparel retailer",
            "houston jeans",
            "store texas",
            "woman outwear",
            "retailer clothes casual",
            "gap ohio",
            "man formal shirts",
            "zzz missing everywhere",
        ],
    }
}

/// The dblp workload corpus.
pub fn dblp_corpus() -> Corpus {
    let doc = DblpConfig {
        papers: 6_000,
        authors_per_paper: (1, 4),
        venue_skew: 1.2,
        seed: 0xDB2,
    }
    .generate();
    Corpus {
        name: "dblp",
        doc,
        queries: vec![
            "keyword search xml",
            "paper sigmod",
            "author vldb",
            "snippet ranking",
            "title semantics",
            "efficient holistic year",
            "venue icde author",
            "zzz missing everywhere",
        ],
    }
}

/// Build both workload corpora.
pub fn corpora() -> Vec<Corpus> {
    vec![retailer_corpus(), dblp_corpus()]
}

/// One measured scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Corpus name.
    pub corpus: &'static str,
    /// Scenario name.
    pub scenario: &'static str,
    /// Median nanoseconds per operation.
    pub median_ns: f64,
    /// What one operation is (`build`, `lookup`, `query`).
    pub unit: &'static str,
}

/// How many timed repetitions each scenario runs.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Median-of-N samples per scenario.
    pub samples: usize,
    /// Inner repetitions per sample for sub-microsecond operations.
    pub inner: usize,
}

impl Effort {
    /// The committed-numbers configuration.
    pub fn full() -> Effort {
        Effort { samples: 15, inner: 4 }
    }

    /// A fast smoke configuration for CI-adjacent runs.
    pub fn quick() -> Effort {
        Effort { samples: 5, inner: 1 }
    }
}

/// Cache capacity used by the cached/threaded scenarios: large enough to
/// hold the full working set (heavy queries return thousands of results,
/// one cache entry each).
pub const CACHE_CAPACITY: usize = 32_768;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Run every scenario of the throughput workload on one corpus.
pub fn run_corpus(corpus: &Corpus, effort: Effort) -> Vec<ScenarioResult> {
    let doc = &corpus.doc;
    let queries = &corpus.queries;
    let mut out = Vec::new();
    let mut push = |scenario: &'static str, median_ns: f64, unit: &'static str| {
        out.push(ScenarioResult { corpus: corpus.name, scenario, median_ns, unit });
    };

    // -- Index construction: arena vs the pre-PR HashMap design. ---------
    let build_arena = median_time(effort.samples, || {
        std::hint::black_box(InvertedIndex::build(doc));
    });
    push("index_build_arena", ns(build_arena), "build");
    let build_hashmap = median_time(effort.samples, || {
        std::hint::black_box(HashMapIndex::build(doc));
    });
    push("index_build_hashmap", ns(build_hashmap), "build");

    // -- Posting lookups: string-keyed on both, id-keyed on the arena. ----
    let index = XmlIndex::build(doc);
    let hashmap = HashMapIndex::build(doc);
    let keywords: Vec<String> = queries
        .iter()
        .flat_map(|q| KeywordQuery::parse(q).keywords().to_vec())
        .collect();
    let reps = 2_000 * effort.inner;
    let lookups = (reps * keywords.len()) as f64;
    let lookup_arena = median_time(effort.samples, || {
        for _ in 0..reps {
            for k in &keywords {
                std::hint::black_box(index.postings(k));
            }
        }
    });
    push("postings_lookup_arena", ns(lookup_arena) / lookups, "lookup");
    // Only resolvable keywords have an id; divide by the lookups actually
    // performed (misses are exercised by the string scenarios above).
    let ids: Vec<extract_index::TokenId> =
        keywords.iter().filter_map(|k| index.token_id(k)).collect();
    let id_lookups = (reps * ids.len()) as f64;
    let lookup_by_id = median_time(effort.samples, || {
        for _ in 0..reps {
            for &id in &ids {
                std::hint::black_box(index.postings_by_id(id));
            }
        }
    });
    push("postings_lookup_token_id", ns(lookup_by_id) / id_lookups, "lookup");
    let lookup_hashmap = median_time(effort.samples, || {
        for _ in 0..reps {
            for k in &keywords {
                std::hint::black_box(hashmap.postings(k));
            }
        }
    });
    push("postings_lookup_hashmap", ns(lookup_hashmap) / lookups, "lookup");

    // -- SLCA: the three eager variants over the whole query mix. ---------
    let parsed: Vec<KeywordQuery> =
        queries.iter().map(|q| KeywordQuery::parse(q)).collect();
    let per_query = (parsed.len() * effort.inner) as f64;
    let mut scratch = SlcaScratch::new();
    let mut roots = Vec::new();
    let mut slca_pass = |which: &'static str| {
        let scratch = &mut scratch;
        let roots = &mut roots;
        let d = median_time(effort.samples, || {
            for _ in 0..effort.inner {
                for q in &parsed {
                    let lists: Vec<&[NodeId]> =
                        q.keywords().iter().map(|k| index.postings(k)).collect();
                    match which {
                        "ile" => slca_indexed_lookup_with(doc, &lists, scratch, roots),
                        "se" => slca_scan_eager_with(doc, &lists, scratch, roots),
                        _ => slca_auto_with(doc, &lists, scratch, roots),
                    }
                    std::hint::black_box(roots.len());
                }
            }
        });
        ns(d) / per_query
    };
    let ile = slca_pass("ile");
    let se = slca_pass("se");
    let auto = slca_pass("auto");
    push("slca_indexed_lookup", ile, "query");
    push("slca_scan_eager", se, "query");
    push("slca_auto", auto, "query");

    // The pre-PR root computation, end to end: string-hashed lookups on
    // the HashMap index, per-query list copies, always Indexed Lookup,
    // fresh buffers per call.
    let prepr = median_time(effort.samples, || {
        for _ in 0..effort.inner {
            for q in &parsed {
                let lists: Vec<Vec<NodeId>> = q
                    .keywords()
                    .iter()
                    .map(|k| hashmap.postings(k).to_vec())
                    .collect();
                std::hint::black_box(extract_search::slca::slca_indexed_lookup(doc, &lists));
            }
        }
    });
    push("slca_prepr_path", ns(prepr) / per_query, "query");

    // -- End-to-end: cold vs cached vs threaded. --------------------------
    let config = ExtractConfig::with_bound(10);
    let extract = Extract::new(doc);
    let n_queries = queries.len() as f64;
    let cold = median_time(effort.samples, || {
        for q in queries {
            std::hint::black_box(extract.snippets_for_query(q, &config));
        }
    });
    push("query_cold", ns(cold) / n_queries, "query");

    let session = QuerySession::with_options(doc, 4, CACHE_CAPACITY);
    for q in queries {
        session.answer(q, &config); // warm the cache
    }
    let cached = median_time(effort.samples, || {
        for q in queries {
            std::hint::black_box(session.answer(q, &config));
        }
    });
    push("query_cached", ns(cached) / n_queries, "query");

    // Threaded: isolate the worker pool's contribution by disabling both
    // cache levels (capacity 0), so every query in the batch is computed
    // in full, concurrently. Comparing against query_cold measures pure
    // parallel speedup; cache benefits are reported separately above.
    let batch: Vec<&str> = queries
        .iter()
        .cycle()
        .take(queries.len() * 4)
        .copied()
        .collect();
    let threaded_session = QuerySession::with_options(doc, 4, 0);
    threaded_session.answer_batch(&batch, &config); // warm allocators/caches of the OS
    let threaded = median_time(effort.samples, || {
        std::hint::black_box(threaded_session.answer_batch(&batch, &config));
    });
    push("query_threaded_x4", ns(threaded) / batch.len() as f64, "query");

    out
}

/// Run the whole workload.
pub fn run_all(effort: Effort) -> Vec<ScenarioResult> {
    corpora().iter().flat_map(|c| run_corpus(c, effort)).collect()
}

/// Derived speedups the PR's acceptance criteria reference.
pub fn speedups(results: &[ScenarioResult]) -> Vec<(String, f64)> {
    let get = |corpus: &str, scenario: &str| {
        results
            .iter()
            .find(|r| r.corpus == corpus && r.scenario == scenario)
            .map(|r| r.median_ns)
    };
    let mut out = Vec::new();
    for corpus in ["retailer", "dblp"] {
        let pairs = [
            ("cache_hit_vs_cold", "query_cold", "query_cached"),
            ("threaded_vs_cold", "query_cold", "query_threaded_x4"),
            ("slca_cold_path_vs_prepr", "slca_prepr_path", "slca_auto"),
            ("arena_build_vs_hashmap", "index_build_hashmap", "index_build_arena"),
            ("arena_lookup_vs_hashmap", "postings_lookup_hashmap", "postings_lookup_arena"),
            (
                "token_id_lookup_vs_hashmap",
                "postings_lookup_hashmap",
                "postings_lookup_token_id",
            ),
        ];
        for (name, base, new) in pairs {
            if let (Some(b), Some(n)) = (get(corpus, base), get(corpus, new)) {
                if n > 0.0 {
                    out.push((format!("{corpus}/{name}"), b / n));
                }
            }
        }
    }
    out
}

/// Serialize results + speedups as the committed `BENCH_PR2.json` payload.
pub fn to_json(results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"query_throughput\",\n  \"pr\": 2,\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"corpus\": \"{}\", \"scenario\": \"{}\", \"median_ns_per_op\": {:.1}, \"unit\": \"{}\"}}{}\n",
            r.corpus,
            r.scenario,
            r.median_ns,
            r.unit,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n  \"speedups\": {\n");
    let sp = speedups(results);
    for (i, (name, x)) in sp.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {x:.2}{}\n",
            if i + 1 == sp.len() { "" } else { "," }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_reference_agrees_with_arena_index() {
        let corpus = &retailer_corpus();
        let arena = InvertedIndex::build(&corpus.doc);
        let hashmap = HashMapIndex::build(&corpus.doc);
        for q in &corpus.queries {
            for k in KeywordQuery::parse(q).keywords() {
                assert_eq!(arena.postings(k), hashmap.postings(k), "keyword {k}");
            }
        }
    }

    #[test]
    fn json_payload_is_well_formed_enough() {
        let results = vec![
            ScenarioResult {
                corpus: "retailer",
                scenario: "query_cold",
                median_ns: 1234.5,
                unit: "query",
            },
            ScenarioResult {
                corpus: "retailer",
                scenario: "query_cached",
                median_ns: 123.4,
                unit: "query",
            },
        ];
        let json = to_json(&results);
        assert!(json.contains("\"query_cold\""));
        assert!(json.contains("\"retailer/cache_hit_vs_cold\": 10.00"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
