//! E6 — snippet generation time vs. snippet size bound.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extract_bench::{scaled_retailer_db, scaled_retailer_root};
use extract_core::{Extract, ExtractConfig};
use extract_search::{KeywordQuery, QueryResult};
use std::hint::black_box;

fn bench_size_bound(c: &mut Criterion) {
    let doc = scaled_retailer_db(20_000);
    let extract = Extract::new(&doc);
    let root = scaled_retailer_root(&doc);
    let query = KeywordQuery::parse("texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, root);

    let mut group = c.benchmark_group("e6_generation_vs_size_bound");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    for bound in [4usize, 8, 16, 32, 64, 100] {
        let config = ExtractConfig::with_bound(bound);
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bound, |b, _| {
            b.iter(|| black_box(extract.snippet(&query, &result, &config)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_size_bound);
criterion_main!(benches);
