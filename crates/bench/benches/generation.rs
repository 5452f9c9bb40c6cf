//! E5 — snippet generation time vs. query result size.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use extract_bench::{scaled_retailer_db, scaled_retailer_root};
use extract_core::{Extract, ExtractConfig};
use extract_search::{KeywordQuery, QueryResult};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_generation_vs_result_size");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    let query = KeywordQuery::parse("texas apparel retailer");
    for target in [1_000usize, 5_000, 20_000, 80_000] {
        let doc = scaled_retailer_db(target);
        let extract = Extract::new(&doc);
        let root = scaled_retailer_root(&doc);
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        let nodes = doc.subtree_size(root);
        let config = ExtractConfig::with_bound(20);
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(extract.snippet(&query, &result, &config)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
