//! E7 — snippet generation time vs. number of query keywords.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extract_bench::{scaled_retailer_db, scaled_retailer_root};
use extract_core::{Extract, ExtractConfig};
use extract_search::{KeywordQuery, QueryResult};
use std::hint::black_box;

fn bench_keywords(c: &mut Criterion) {
    let doc = scaled_retailer_db(20_000);
    let extract = Extract::new(&doc);
    let root = scaled_retailer_root(&doc);
    let all = ["retailer", "apparel", "texas", "houston", "man", "casual", "outwear", "store"];

    let mut group = c.benchmark_group("e7_generation_vs_keywords");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    for k in [1usize, 2, 4, 6, 8] {
        let query = KeywordQuery::from_keywords(all[..k].to_vec());
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        let config = ExtractConfig::with_bound(20);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(extract.snippet(&query, &result, &config)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_keywords);
criterion_main!(benches);
