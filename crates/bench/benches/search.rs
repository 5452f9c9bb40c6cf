//! E11 — search engine latency: SLCA (indexed lookup vs scan eager), ELCA
//! and XSeek result-root construction.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extract_analyzer::EntityModel;
use extract_datagen::auction::AuctionConfig;
use extract_index::XmlIndex;
use extract_search::elca::elca_stack;
use extract_search::slca::{slca_indexed_lookup, slca_scan_eager};
use extract_search::xseek::{self, RootPolicy};
use extract_search::KeywordQuery;
use extract_xml::NodeId;
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let doc = AuctionConfig::with_target_nodes(100_000, 5).generate();
    let index = XmlIndex::build(&doc);
    let model = EntityModel::analyze(&doc);

    let mut group = c.benchmark_group("e11_search_algorithms");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(30);
    for query_str in ["gold watch", "person houston texas", "item cash painting"] {
        let query = KeywordQuery::parse(query_str);
        let lists: Vec<Vec<NodeId>> =
            query.keywords().iter().map(|k| index.postings(k).to_vec()).collect();
        group.bench_with_input(
            BenchmarkId::new("slca-ile", query_str),
            &query_str,
            |b, _| {
                b.iter(|| black_box(slca_indexed_lookup(&doc, &lists)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("slca-se", query_str),
            &query_str,
            |b, _| {
                b.iter(|| black_box(slca_scan_eager(&doc, &lists)));
            },
        );
        group.bench_with_input(BenchmarkId::new("elca", query_str), &query_str, |b, _| {
            b.iter(|| black_box(elca_stack(&doc, &lists)));
        });
        group.bench_with_input(BenchmarkId::new("xseek", query_str), &query_str, |b, _| {
            b.iter(|| {
                black_box(xseek::result_roots(&doc, &index, &model, &query, RootPolicy::Entity))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
