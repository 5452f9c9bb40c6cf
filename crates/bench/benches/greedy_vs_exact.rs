//! E8 — greedy vs. exact instance selection on a small result.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extract_core::selector::{exact_select, greedy_select, ExactLimits};
use extract_core::{Extract, ExtractConfig};
use extract_datagen::retailer::demo_store_db;
use extract_search::{Algorithm, KeywordQuery};
use std::hint::black_box;

fn bench_selectors(c: &mut Criterion) {
    let doc = demo_store_db();
    let extract = Extract::new(&doc);
    let query = KeywordQuery::parse("store texas");
    let result = extract.search(&query, Algorithm::XSeek).remove(0);
    let ilist = extract.ilist(&query, &result, &ExtractConfig::default());

    let mut group = c.benchmark_group("e8_greedy_vs_exact");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for bound in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::new("greedy", bound), &bound, |b, &bound| {
            b.iter(|| black_box(greedy_select(&doc, &ilist, result.root, bound)));
        });
        group.bench_with_input(BenchmarkId::new("exact", bound), &bound, |b, &bound| {
            b.iter(|| {
                black_box(exact_select(
                    &doc,
                    &ilist,
                    result.root,
                    bound,
                    ExactLimits::default(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
