//! The `corpus_scale` workload (PR 3): the streaming corpus build,
//! directory vs scan SLCA candidate fan-in, and corpus query throughput
//! over a DBLP-scale generated collection (200 documents, ~10^6 nodes).
//!
//! Shared by the `corpus_scale` binary (which emits `BENCH_PR3.json`) and
//! the Criterion bench of the same name, so both measure the same work.

use std::time::Instant;

use extract::prelude::*;
use extract_datagen::corpus::CorpusConfig;

use crate::throughput::{Effort, ScenarioResult};
use crate::median_time;

/// The corpus shape of the committed numbers: 200 mixed-flavour documents,
/// ~5.4k nodes each (≥ 10^6 total), matching the acceptance test in
/// `tests/corpus.rs`.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig { documents: 200, target_nodes_per_doc: 5_400, seed: 0xBEEF }
}

/// A scaled-down shape for smoke runs and the Criterion registration.
pub fn quick_corpus_config() -> CorpusConfig {
    CorpusConfig { documents: 48, target_nodes_per_doc: 2_000, seed: 0xBEEF }
}

/// Build a corpus from `cfg` through the streaming path.
pub fn build_corpus(cfg: &CorpusConfig) -> Corpus {
    let mut b = CorpusBuilder::new();
    for (name, doc) in cfg.documents() {
        b.add_parsed(&name, doc);
    }
    b.finish()
}

/// The query mix as normalized keyword lists, parsed once outside every
/// timed region.
pub fn keyword_lists(queries: &[&str]) -> Vec<Vec<String>> {
    queries.iter().map(|q| KeywordQuery::parse(q).keywords().to_vec()).collect()
}

/// Run every scenario of the corpus workload. `effort` controls sample
/// counts; the corpus shape is fixed by `cfg`.
pub fn run_all(cfg: &CorpusConfig, effort: Effort) -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    let mut push = |scenario: &'static str, median_ns: f64, unit: &'static str| {
        out.push(ScenarioResult { corpus: "mixed", scenario, median_ns, unit });
    };

    // -- Streaming build: generation excluded. ----------------------------
    // `add_parsed` takes ownership, so the timed work is exactly one index
    // build + directory fold per document, not arena clones.
    let docs: Vec<(String, Document)> = cfg.documents().collect();
    let t = Instant::now();
    let mut b = CorpusBuilder::new();
    for (name, doc) in docs {
        b.add_parsed(&name, doc);
    }
    let corpus = b.finish();
    push("corpus_build", t.elapsed().as_nanos() as f64, "build");
    push("corpus_total_nodes", corpus.total_nodes() as f64, "count");
    push("corpus_total_postings", corpus.postings().total_postings() as f64, "count");
    push("corpus_memory_footprint", corpus.memory_footprint() as f64, "bytes");

    // -- Candidate fan-in: directory routing vs the no-directory scan. ----
    // The acceptance metric: index entries touched to answer "which
    // documents must SLCA run on?" for the whole query mix.
    let queries = CorpusConfig::query_mix();
    let owned = keyword_lists(&queries);
    let mix: Vec<Vec<&str>> =
        owned.iter().map(|q| q.iter().map(String::as_str).collect()).collect();
    let postings = corpus.postings();
    let mut candidates = Vec::new();
    let mut fanin_directory = FanIn::default();
    let mut fanin_scan = FanIn::default();
    for q in &mix {
        postings.candidate_docs(q, &mut candidates, &mut fanin_directory);
        postings.candidate_docs_by_scan(q, &mut candidates, &mut fanin_scan);
    }
    push("candidate_fanin_directory", fanin_directory.total() as f64, "entries");
    push("candidate_fanin_scan", fanin_scan.total() as f64, "entries");

    // Wall-clock for the same routing work.
    let per_mix = effort.inner.max(1) as f64;
    let t_directory = median_time(effort.samples, || {
        for _ in 0..effort.inner.max(1) {
            let mut f = FanIn::default();
            for q in &mix {
                postings.candidate_docs(q, &mut candidates, &mut f);
            }
            std::hint::black_box(&candidates);
        }
    });
    push("candidate_time_directory", t_directory.as_nanos() as f64 / per_mix, "mix");
    let t_scan = median_time(effort.samples, || {
        for _ in 0..effort.inner.max(1) {
            let mut f = FanIn::default();
            for q in &mix {
                postings.candidate_docs_by_scan(q, &mut candidates, &mut f);
            }
            std::hint::black_box(&candidates);
        }
    });
    push("candidate_time_scan", t_scan.as_nanos() as f64 / per_mix, "mix");

    // -- Per-document posting extraction: one lookup in one segment. ------
    let t_probe = median_time(effort.samples, || {
        let mut f = FanIn::default();
        for q in &mix {
            postings.candidate_docs(q, &mut candidates, &mut f);
            for &d in candidates.iter().take(8) {
                for t in q {
                    std::hint::black_box(postings.postings_in_doc(t, d).len());
                }
            }
        }
    });
    push("postings_in_doc_probe", t_probe.as_nanos() as f64, "mix");

    // -- End-to-end corpus serving: cold vs routed-and-cached. ------------
    // Selective queries keep cold result sets bounded; the broad "name"
    // queries are exercised by the routing scenarios above. Cold and
    // cached are both measured with a **serial** loop so their ratio is
    // consistent (a 4-worker batch would deflate cold per-query cost by
    // the host's effective parallelism); the worker pool gets its own
    // scenario.
    let selective: Vec<&str> =
        queries.iter().copied().filter(|q| !q.contains("name")).collect();
    let config = ExtractConfig::with_bound(8);
    let cold_session = QuerySession::from_corpus_with_options(&corpus, 1, 0);
    let t = Instant::now();
    let mut results_total = 0usize;
    for q in &selective {
        results_total += cold_session.answer_corpus(q, &config).len();
    }
    push(
        "corpus_query_cold",
        t.elapsed().as_nanos() as f64 / selective.len() as f64,
        "query",
    );
    push("corpus_results_total", results_total as f64, "count");
    push("engines_built_selective", cold_session.engines_built() as f64, "count");

    let batch_session = QuerySession::from_corpus_with_options(&corpus, 4, 0);
    let t = Instant::now();
    std::hint::black_box(batch_session.answer_corpus_batch(&selective, &config));
    push(
        "corpus_query_cold_batch_x4",
        t.elapsed().as_nanos() as f64 / selective.len() as f64,
        "query",
    );

    let warm_session = QuerySession::from_corpus_with_options(&corpus, 1, 4096);
    for q in &selective {
        warm_session.answer_corpus(q, &config); // warm the caches serially
    }
    let cached = median_time(effort.samples, || {
        for q in &selective {
            std::hint::black_box(warm_session.answer_corpus(q, &config));
        }
    });
    push(
        "corpus_query_cached",
        cached.as_nanos() as f64 / selective.len() as f64,
        "query",
    );

    out
}

/// Derived ratios the PR's acceptance criteria reference.
pub fn reductions(results: &[ScenarioResult]) -> Vec<(String, f64)> {
    let get = |scenario: &str| {
        results
            .iter()
            .find(|r| r.corpus == "mixed" && r.scenario == scenario)
            .map(|r| r.median_ns)
    };
    let mut out = Vec::new();
    let pairs = [
        ("candidate_fanin_reduction", "candidate_fanin_scan", "candidate_fanin_directory"),
        ("candidate_time_reduction", "candidate_time_scan", "candidate_time_directory"),
        ("cache_hit_vs_cold", "corpus_query_cold", "corpus_query_cached"),
    ];
    for (name, base, new) in pairs {
        if let (Some(b), Some(n)) = (get(base), get(new)) {
            if n > 0.0 {
                out.push((format!("mixed/{name}"), b / n));
            }
        }
    }
    out
}

/// Serialize results + reductions as the committed `BENCH_PR3.json`
/// payload.
pub fn to_json(results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"corpus_scale\",\n  \"pr\": 3,\n  \"scenarios\": [\n");
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
    let sp = reductions(results);
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
    fn quick_workload_produces_consistent_scenarios() {
        let cfg = CorpusConfig { documents: 9, target_nodes_per_doc: 400, seed: 3 };
        let results = run_all(&cfg, Effort::quick());
        let names: Vec<&str> = results.iter().map(|r| r.scenario).collect();
        for expected in [
            "corpus_build",
            "candidate_fanin_directory",
            "candidate_fanin_scan",
            "corpus_query_cold",
            "corpus_query_cold_batch_x4",
            "corpus_query_cached",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
        let get = |s: &str| results.iter().find(|r| r.scenario == s).unwrap().median_ns;
        // The directory path must beat the flat scan even on small corpora
        // with realistic (generator) documents.
        assert!(
            get("candidate_fanin_directory") < get("candidate_fanin_scan"),
            "directory {} vs scan {}",
            get("candidate_fanin_directory"),
            get("candidate_fanin_scan"),
        );
        let json = to_json(&results);
        assert!(json.contains("\"mixed/candidate_fanin_reduction\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
