//! Criterion registration of the PR-3 corpus workload: streaming corpus
//! build, directory candidate routing vs the segment scan, and corpus query
//! answering (the `corpus_scale` binary covers the full matrix and emits
//! JSON).

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extract::prelude::*;
use extract_bench::corpus_scale::{build_corpus, keyword_lists, quick_corpus_config};
use extract_datagen::corpus::CorpusConfig;

fn bench_corpus_scale(c: &mut Criterion) {
    let cfg = quick_corpus_config();
    let corpus = build_corpus(&cfg);
    let queries: Vec<&str> = CorpusConfig::query_mix()
        .into_iter()
        .filter(|q| !q.contains("name"))
        .collect();
    let owned = keyword_lists(&queries);
    let mix: Vec<Vec<&str>> =
        owned.iter().map(|q| q.iter().map(String::as_str).collect()).collect();

    let mut group = c.benchmark_group("corpus_scale");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(15);

    group.bench_with_input(BenchmarkId::new("build-streaming", cfg.documents), &(), |b, _| {
        b.iter(|| black_box(build_corpus(&cfg)));
    });
    group.bench_with_input(BenchmarkId::new("route-directory", cfg.documents), &(), |b, _| {
        b.iter(|| {
            let mut docs = Vec::new();
            let mut fanin = FanIn::default();
            for q in &mix {
                corpus.postings().candidate_docs(q, &mut docs, &mut fanin);
                black_box(docs.len());
            }
            black_box(fanin.total())
        });
    });
    group.bench_with_input(BenchmarkId::new("route-segment-scan", cfg.documents), &(), |b, _| {
        b.iter(|| {
            let mut docs = Vec::new();
            let mut fanin = FanIn::default();
            for q in &mix {
                corpus.postings().candidate_docs_by_scan(q, &mut docs, &mut fanin);
                black_box(docs.len());
            }
            black_box(fanin.total())
        });
    });
    let session = QuerySession::from_corpus_with_options(&corpus, 4, 4096);
    let config = ExtractConfig::with_bound(8);
    session.answer_corpus_batch(&queries, &config); // warm caches + engines
    group.bench_with_input(BenchmarkId::new("answer-corpus-cached", cfg.documents), &(), |b, _| {
        b.iter(|| {
            for q in &queries {
                black_box(session.answer_corpus(q, &config));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_corpus_scale);
criterion_main!(benches);
