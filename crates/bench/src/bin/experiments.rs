//! Experiment driver: regenerates every figure of the paper (E1–E4) and
//! the performance/quality axes modeled on the companion paper (E5–E11).
//!
//! ```sh
//! cargo run --release -p extract-bench --bin experiments            # all
//! cargo run --release -p extract-bench --bin experiments -- e3 e8   # some
//! ```
//!
//! Each experiment prints paper-expected vs. measured values to stdout.

use std::collections::HashMap;
use std::time::Instant;

use extract_analyzer::{EntityModel, FeatureType, ResultStats};
use extract_bench::{fmt_duration, median_time, scaled_retailer_db, scaled_retailer_root, Table};
use extract_core::baselines::{BaselineStrategy, BfsPrefix, PathToMatches, TextWindows};
use extract_core::dominance::{dominance_score, dominant_features, features_by_raw_frequency};
use extract_core::quality::{distinguishability, evaluate_baseline, evaluate_snippet};
use extract_core::selector::{exact_select, greedy_select, greedy_select_with_policy, ExactLimits, InstancePolicy};
use extract_core::{Extract, ExtractConfig};
use extract_datagen::auction::AuctionConfig;
use extract_datagen::{movies, retailer};
use extract_index::XmlIndex;
use extract_search::elca::elca_stack;
use extract_search::slca::{slca_indexed_lookup, slca_scan_eager};
use extract_search::xseek::{self, RootPolicy};
use extract_search::{Algorithm, KeywordQuery, QueryResult};
use extract_xml::Document;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    println!("eXtract experiment suite — paper figures and evaluation axes\n");
    if want("e1") {
        e1_figure1_statistics();
    }
    if want("e2") {
        e2_figure2_snippet();
    }
    if want("e3") {
        e3_figure3_ilist();
    }
    if want("e4") {
        e4_figure5_demo();
    }
    if want("e5") {
        e5_time_vs_result_size();
    }
    if want("e6") {
        e6_time_vs_size_bound();
    }
    if want("e7") {
        e7_time_vs_keywords();
    }
    if want("e8") {
        e8_greedy_vs_exact();
    }
    if want("e9") {
        e9_quality_vs_baselines();
    }
    if want("e10") {
        e10_index_build();
    }
    if want("e11") {
        e11_search_engines();
    }
    if want("e12") {
        e12_ablation_dominance_normalization();
    }
    if want("e13") {
        e13_ablation_instance_policy();
    }
}

fn check(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "PASS" } else { "FAIL" });
}

fn ft(doc: &Document, e: &str, a: &str) -> FeatureType {
    FeatureType {
        entity: doc.symbols().get(e).unwrap(),
        attribute: doc.symbols().get(a).unwrap(),
    }
}

// ---------------------------------------------------------------------
// E1 — Figure 1
// ---------------------------------------------------------------------
fn e1_figure1_statistics() {
    println!("== E1 · Figure 1: query result statistics of \"Texas apparel retailer\" ==");
    let doc = retailer::figure1_db();
    let extract = Extract::new(&doc);
    let results = extract.search(&KeywordQuery::parse("Texas apparel retailer"), Algorithm::XSeek);
    check("exactly one query result (the Brook Brothers retailer)", results.len() == 1);
    let bb = retailer::figure1_result_root(&doc);
    let stats = ResultStats::compute(&doc, extract.model(), bb);

    let mut t = Table::new(["attribute", "value", "paper", "measured", "ok"]);
    let expected: &[(&str, &str, &str, u32)] = &[
        ("store", "city", "Houston", 6),
        ("store", "city", "Austin", 1),
        ("clothes", "fitting", "man", 600),
        ("clothes", "fitting", "woman", 360),
        ("clothes", "fitting", "children", 40),
        ("clothes", "situation", "casual", 700),
        ("clothes", "situation", "formal", 300),
        ("clothes", "category", "outwear", 220),
        ("clothes", "category", "suit", 120),
        ("clothes", "category", "skirt", 80),
        ("clothes", "category", "sweaters", 70),
    ];
    let mut all_ok = true;
    for &(e, a, v, paper) in expected {
        let measured = stats.n_value(ft(&doc, e, a), v);
        all_ok &= measured == paper;
        t.row([
            format!("({e}, {a})"),
            v.to_string(),
            paper.to_string(),
            measured.to_string(),
            if measured == paper { "✓".to_string() } else { "✗".to_string() },
        ]);
    }
    print!("{}", t.render());
    check("all Figure 1 occurrence counts match", all_ok);
    check(
        "other cities (3): 3",
        stats.n_type(ft(&doc, "store", "city")) == 10
            && stats.d_type(ft(&doc, "store", "city")) == 5,
    );
    check(
        "other categories (7): 580 over a domain of 11",
        stats.n_type(ft(&doc, "clothes", "category")) == 1070
            && stats.d_type(ft(&doc, "clothes", "category")) == 11,
    );
    println!();
}

// ---------------------------------------------------------------------
// E2 — Figure 2
// ---------------------------------------------------------------------
fn e2_figure2_snippet() {
    println!("== E2 · Figure 2: the snippet of the Figure 1 result (bound 13) ==");
    let doc = retailer::figure1_db();
    let extract = Extract::new(&doc);
    let bb = retailer::figure1_result_root(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);
    let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(13));
    print!("{}", out.snippet.to_ascii_tree());
    check("snippet uses exactly 13 edges", out.snippet.edges == 13);
    check("all 12 IList items covered", out.snippet.coverage() == 12);
    let xml = out.snippet.to_xml();
    for needle in [
        "Brook Brothers",
        "apparel",
        "<state>Texas</state>",
        "<city>Houston</city>",
        "<category>suit</category>",
        "<fitting>man</fitting>",
        "<category>outwear</category>",
        "<fitting>woman</fitting>",
        "<situation>casual</situation>",
    ] {
        check(&format!("snippet contains {needle}"), xml.contains(needle));
    }

    let mut t = Table::new(["bound", "edges used", "items covered (of 12)"]);
    for bound in [2usize, 4, 6, 8, 10, 13, 20] {
        let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(bound));
        t.row([
            bound.to_string(),
            out.snippet.edges.to_string(),
            out.snippet.coverage().to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

// ---------------------------------------------------------------------
// E3 — Figure 3
// ---------------------------------------------------------------------
fn e3_figure3_ilist() {
    println!("== E3 · Figure 3: the IList and the published dominance scores ==");
    let doc = retailer::figure1_db();
    let extract = Extract::new(&doc);
    let bb = retailer::figure1_result_root(&doc);
    let stats = ResultStats::compute(&doc, extract.model(), bb);

    let mut t = Table::new(["feature", "paper DS", "measured DS", "ok"]);
    let expected: &[(&str, &str, &str, f64)] = &[
        ("store", "city", "Houston", 3.0),
        ("clothes", "category", "outwear", 2.26),
        ("clothes", "fitting", "man", 1.8),
        ("clothes", "situation", "casual", 1.4),
        ("clothes", "category", "suit", 1.23),
        ("clothes", "fitting", "woman", 1.08),
    ];
    let mut all_ok = true;
    for &(e, a, v, paper) in expected {
        let ds = dominance_score(&stats, ft(&doc, e, a), v).unwrap();
        let ok = (ds - paper).abs() < 0.01;
        all_ok &= ok;
        t.row([
            v.to_string(),
            format!("{paper:.2}"),
            format!("{ds:.3}"),
            if ok { "✓".to_string() } else { "✗".to_string() },
        ]);
    }
    print!("{}", t.render());
    check("all published dominance scores reproduced", all_ok);

    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);
    let ilist = extract.ilist(&query, &result, &ExtractConfig::default());
    let measured = ilist.display(&doc);
    let expected = retailer::figure1_expected_ilist();
    println!("paper IList    : {}", expected.join(", "));
    println!("measured IList : {}", measured.join(", "));
    check("IList matches Figure 3 exactly", measured == expected);
    println!();
}

// ---------------------------------------------------------------------
// E4 — Figure 5
// ---------------------------------------------------------------------
fn e4_figure5_demo() {
    println!("== E4 · Figure 5: demo session — query \"store texas\", bound 6 ==");
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
    check("two results (Levis and ESprit)", out.len() == 2);
    let mut rendered = Vec::new();
    for s in &out {
        println!("{}", s.snippet.summary_line(&doc));
        print!("{}", s.snippet.to_ascii_tree());
        rendered.push(s.snippet.to_xml());
    }
    let levis = rendered.iter().find(|x| x.contains("Levis"));
    let esprit = rendered.iter().find(|x| x.contains("ESprit"));
    check(
        "Levis features jeans, especially for man",
        levis.map(|x| x.contains("jeans") && x.contains("man")).unwrap_or(false),
    );
    check(
        "ESprit focuses on outwear, mostly for woman",
        esprit.map(|x| x.contains("outwear") && x.contains("woman")).unwrap_or(false),
    );
    check("snippets are fully distinguishable", distinguishability(&rendered) == 1.0);
    check("all snippets within the bound", out.iter().all(|s| s.snippet.edges <= 6));
    println!();
}

// ---------------------------------------------------------------------
// E5 — generation time vs result size
// ---------------------------------------------------------------------
fn e5_time_vs_result_size() {
    println!("== E5 · snippet generation time vs. query result size (expect ~linear) ==");
    let mut t = Table::new(["result nodes", "ilist items", "snippet time", "ns/node"]);
    let query = KeywordQuery::parse("texas apparel retailer");
    let mut prev: Option<(usize, f64)> = None;
    let mut shape_ok = true;
    for target in [1_000usize, 5_000, 20_000, 80_000, 200_000] {
        let doc = scaled_retailer_db(target);
        let extract = Extract::new(&doc);
        let root = scaled_retailer_root(&doc);
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        let nodes = doc.subtree_size(root);
        let config = ExtractConfig::with_bound(20);
        let ilist_len = extract.ilist(&query, &result, &config).len();
        let d = median_time(5, || {
            std::hint::black_box(extract.snippet(&query, &result, &config));
        });
        let per_node = d.as_nanos() as f64 / nodes as f64;
        if let Some((pn, pt)) = prev {
            // Sub-quadratic: time ratio should not wildly exceed node ratio.
            let node_ratio = nodes as f64 / pn as f64;
            let time_ratio = d.as_nanos() as f64 / pt;
            shape_ok &= time_ratio < node_ratio * 3.0;
        }
        prev = Some((nodes, d.as_nanos() as f64));
        t.row([
            nodes.to_string(),
            ilist_len.to_string(),
            fmt_duration(d),
            format!("{per_node:.0}"),
        ]);
    }
    print!("{}", t.render());
    check("growth is near-linear in result size", shape_ok);
    println!();
}

// ---------------------------------------------------------------------
// E6 — generation time vs snippet size bound
// ---------------------------------------------------------------------
fn e6_time_vs_size_bound() {
    println!("== E6 · snippet generation time vs. size bound (fixed ~20k-node result) ==");
    let doc = scaled_retailer_db(20_000);
    let extract = Extract::new(&doc);
    let root = scaled_retailer_root(&doc);
    let query = KeywordQuery::parse("texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, root);
    let mut t = Table::new(["bound (edges)", "edges used", "items covered", "time"]);
    let bounds = [4usize, 8, 16, 32, 64, 100];
    let mut coverages = Vec::new();
    for bound in bounds {
        let config = ExtractConfig::with_bound(bound);
        let out = extract.snippet(&query, &result, &config);
        let d = median_time(5, || {
            std::hint::black_box(extract.snippet(&query, &result, &config));
        });
        coverages.push(out.snippet.coverage());
        t.row([
            bound.to_string(),
            out.snippet.edges.to_string(),
            format!("{}/{}", out.snippet.coverage(), out.ilist.len()),
            fmt_duration(d),
        ]);
    }
    print!("{}", t.render());
    check(
        "coverage grows with the bound (monotone)",
        coverages.windows(2).all(|w| w[0] <= w[1]),
    );
    println!();
}

// ---------------------------------------------------------------------
// E7 — generation time vs number of keywords
// ---------------------------------------------------------------------
fn e7_time_vs_keywords() {
    println!("== E7 · snippet generation time vs. number of query keywords ==");
    let doc = scaled_retailer_db(20_000);
    let extract = Extract::new(&doc);
    let root = scaled_retailer_root(&doc);
    let all = ["retailer", "apparel", "texas", "houston", "man", "casual", "outwear", "store"];
    let mut t = Table::new(["keywords", "ilist items", "time"]);
    for k in 1..=all.len() {
        let query = KeywordQuery::from_keywords(all[..k].to_vec());
        let result = QueryResult::build(extract.document(), extract.index(), &query, root);
        let config = ExtractConfig::with_bound(20);
        let items = extract.ilist(&query, &result, &config).len();
        let d = median_time(5, || {
            std::hint::black_box(extract.snippet(&query, &result, &config));
        });
        t.row([k.to_string(), items.to_string(), fmt_duration(d)]);
    }
    print!("{}", t.render());
    println!();
}

// ---------------------------------------------------------------------
// E8 — greedy vs exact
// ---------------------------------------------------------------------
fn e8_greedy_vs_exact() {
    println!("== E8 · greedy vs. exact coverage (NP-hard optimum on small results) ==");
    let mut t = Table::new([
        "workload", "bound", "greedy", "optimal", "ratio", "greedy time", "exact time",
    ]);
    let mut worst: f64 = 1.0;
    let mut cases: Vec<(&str, Document)> = Vec::new();
    cases.push(("demo-store", retailer::demo_store_db()));
    cases.push(("movies", movies::sample()));
    let small = retailer::RetailerConfig {
        retailers: 2,
        stores_per_retailer: (2, 3),
        clothes_per_store: (2, 5),
        ..Default::default()
    }
    .generate();
    cases.push(("retailer-rand", small));

    for (name, doc) in &cases {
        let extract = Extract::new(doc);
        let query = KeywordQuery::parse(match *name {
            "movies" => "western",
            "retailer-rand" => "retailer apparel",
            _ => "store texas",
        });
        let results = extract.search(&query, Algorithm::XSeek);
        let Some(result) = results.first() else { continue };
        for bound in [4usize, 8, 12, 16] {
            let ilist = extract.ilist(&query, result, &ExtractConfig::default());
            let g_time = median_time(5, || {
                std::hint::black_box(greedy_select(doc, &ilist, result.root, bound));
            });
            let greedy = greedy_select(doc, &ilist, result.root, bound);
            let e_start = Instant::now();
            let exact = exact_select(doc, &ilist, result.root, bound, ExactLimits::default());
            let e_time = e_start.elapsed();
            let Some(exact) = exact else {
                t.row([
                    name.to_string(),
                    bound.to_string(),
                    greedy.coverage().to_string(),
                    "(search cap)".to_string(),
                    "-".to_string(),
                    fmt_duration(g_time),
                    fmt_duration(e_time),
                ]);
                continue;
            };
            let ratio = if exact.coverage() == 0 {
                1.0
            } else {
                greedy.coverage() as f64 / exact.coverage() as f64
            };
            worst = worst.min(ratio);
            t.row([
                name.to_string(),
                bound.to_string(),
                greedy.coverage().to_string(),
                exact.coverage().to_string(),
                format!("{ratio:.2}"),
                fmt_duration(g_time),
                fmt_duration(e_time),
            ]);
        }
    }
    print!("{}", t.render());
    check(
        &format!("greedy stays within 75% of the optimum (worst ratio {worst:.2})"),
        worst >= 0.75,
    );
    println!();
}

// ---------------------------------------------------------------------
// E9 — quality vs baselines
// ---------------------------------------------------------------------
fn e9_quality_vs_baselines() {
    println!("== E9 · snippet quality vs. baselines (user-study proxy) ==");
    let workloads: Vec<(&str, Document, &str)> = vec![
        ("figure1", retailer::figure1_db(), "texas apparel retailer"),
        ("demo-store", retailer::demo_store_db(), "store texas"),
        (
            "movies",
            movies::MoviesConfig { movies: 60, ..Default::default() }.generate(),
            "movie western",
        ),
    ];
    let bound = 10usize;
    let mut t = Table::new([
        "workload", "strategy", "coverage", "weighted", "key", "feat-recall", "annotated",
    ]);
    // Aggregates across workloads, per strategy: (Σweighted, Σkey, count).
    let mut agg: HashMap<&str, (f64, f64, usize)> = HashMap::new();
    for (name, doc, query_str) in &workloads {
        let extract = Extract::new(doc);
        let out = extract.snippets_for_query(query_str, &ExtractConfig::with_bound(bound));
        let baselines: Vec<Box<dyn BaselineStrategy>> =
            vec![Box::new(BfsPrefix), Box::new(PathToMatches), Box::new(TextWindows)];
        let mut rows: Vec<(&str, f64, f64, f64, f64, f64)> = Vec::new();
        let n = out.len().max(1) as f64;
        let mut ex = (0.0, 0.0, 0.0, 0.0, 0.0);
        for s in &out {
            let q = evaluate_snippet(doc, &s.ilist, &s.snippet);
            ex.0 += q.coverage / n;
            ex.1 += q.weighted_coverage / n;
            ex.2 += (q.key_present as usize) as f64 / n;
            ex.3 += q.feature_recall / n;
            ex.4 += q.entity_annotation / n;
        }
        rows.push(("eXtract", ex.0, ex.1, ex.2, ex.3, ex.4));
        for b in &baselines {
            let mut m = (0.0, 0.0, 0.0, 0.0, 0.0);
            for s in &out {
                let content = b.generate(doc, &s.result, bound);
                let q = evaluate_baseline(doc, &s.ilist, &content);
                m.0 += q.coverage / n;
                m.1 += q.weighted_coverage / n;
                m.2 += (q.key_present as usize) as f64 / n;
                m.3 += q.feature_recall / n;
                m.4 += q.entity_annotation / n;
            }
            rows.push((b.name(), m.0, m.1, m.2, m.3, m.4));
        }
        for (strategy, c, w, k, f, a) in rows {
            let e = agg.entry(strategy).or_insert((0.0, 0.0, 0));
            e.0 += w;
            e.1 += k;
            e.2 += 1;
            t.row([
                name.to_string(),
                strategy.to_string(),
                format!("{:.0}%", c * 100.0),
                format!("{:.0}%", w * 100.0),
                format!("{:.0}%", k * 100.0),
                format!("{:.0}%", f * 100.0),
                format!("{:.0}%", a * 100.0),
            ]);
        }
    }
    print!("{}", t.render());
    let score = |s: &str| {
        let (w, k, n) = agg[s];
        (w / n as f64, k / n as f64)
    };
    let (ex_w, ex_k) = score("eXtract");
    let mut wins = true;
    for b in ["bfs-prefix", "match-paths", "text-windows"] {
        let (bw, bk) = score(b);
        wins &= ex_w >= bw && ex_k >= bk;
    }
    check("eXtract ≥ every baseline on weighted coverage and key presence", wins);
    println!();
}

// ---------------------------------------------------------------------
// E10 — index build
// ---------------------------------------------------------------------
fn e10_index_build() {
    println!("== E10 · index build time and size vs. document size (expect ~linear) ==");
    let mut t = Table::new(["doc nodes", "build time", "index KiB", "ns/node"]);
    let mut shape_ok = true;
    let mut prev: Option<(usize, f64)> = None;
    for target in [10_000usize, 50_000, 200_000, 600_000] {
        let doc = AuctionConfig::with_target_nodes(target, 3).generate();
        let nodes = doc.len();
        let d = median_time(3, || {
            std::hint::black_box(XmlIndex::build(&doc));
        });
        let index = XmlIndex::build(&doc);
        if let Some((pn, pt)) = prev {
            let node_ratio = nodes as f64 / pn as f64;
            let time_ratio = d.as_nanos() as f64 / pt;
            shape_ok &= time_ratio < node_ratio * 3.0;
        }
        prev = Some((nodes, d.as_nanos() as f64));
        t.row([
            nodes.to_string(),
            fmt_duration(d),
            (index.memory_footprint() / 1024).to_string(),
            format!("{:.0}", d.as_nanos() as f64 / nodes as f64),
        ]);
    }
    print!("{}", t.render());
    check("index build is near-linear in document size", shape_ok);
    println!();
}

// ---------------------------------------------------------------------
// E11 — search engines
// ---------------------------------------------------------------------
fn e11_search_engines() {
    println!("== E11 · search engine latency: SLCA (ILE vs SE), ELCA, XSeek ==");
    let mut t =
        Table::new(["doc nodes", "query", "slca-ile", "slca-se", "elca", "xseek", "results"]);
    for target in [20_000usize, 100_000, 400_000] {
        let doc = AuctionConfig::with_target_nodes(target, 5).generate();
        let index = XmlIndex::build(&doc);
        let model = EntityModel::analyze(&doc);
        for query_str in ["gold watch", "person houston texas", "item cash painting"] {
            let query = KeywordQuery::parse(query_str);
            let lists: Vec<Vec<_>> =
                query.keywords().iter().map(|k| index.postings(k).to_vec()).collect();
            let ile = median_time(5, || {
                std::hint::black_box(slca_indexed_lookup(&doc, &lists));
            });
            let se = median_time(5, || {
                std::hint::black_box(slca_scan_eager(&doc, &lists));
            });
            let el = median_time(5, || {
                std::hint::black_box(elca_stack(&doc, &lists));
            });
            let xs = median_time(5, || {
                std::hint::black_box(xseek::result_roots(
                    &doc,
                    &index,
                    &model,
                    &query,
                    RootPolicy::Entity,
                ));
            });
            let n_results =
                xseek::result_roots(&doc, &index, &model, &query, RootPolicy::Entity).len();
            t.row([
                doc.len().to_string(),
                query_str.to_string(),
                fmt_duration(ile),
                fmt_duration(se),
                fmt_duration(el),
                fmt_duration(xs),
                n_results.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!("  (expected shape: all grow with document size; ILE wins when one");
    println!("   keyword is rare; ELCA ≥ SLCA cost; XSeek adds lifting on top)");
    println!();
}

// ---------------------------------------------------------------------
// E12 — ablation: dominance normalization vs raw frequency
// ---------------------------------------------------------------------
fn e12_ablation_dominance_normalization() {
    println!("== E12 · ablation: dominance normalization (paper §2.3 argument) ==");
    println!("  The paper: \"though the number of occurrences of feature Houston is");
    println!("  much less than that of children, it should be considered as more");
    println!("  dominant\". Raw-frequency ranking buries Houston; DS surfaces it.");
    let doc = retailer::figure1_db();
    let model = EntityModel::analyze(&doc);
    let bb = retailer::figure1_result_root(&doc);
    let stats = ResultStats::compute(&doc, &model, bb);

    let ds = dominant_features(&doc, &stats);
    let ds_top: Vec<String> = ds
        .iter()
        .filter(|d| !d.trivial)
        .take(6)
        .map(|d| format!("{} ({:.2})", d.value, d.score))
        .collect();
    let raw = features_by_raw_frequency(&doc, &stats);
    let raw_top: Vec<String> = raw
        .iter()
        .take(6)
        .map(|d| format!("{} ({})", d.value, d.score as u64))
        .collect();

    let mut t = Table::new(["rank", "dominance score (paper)", "raw frequency (ablation)"]);
    for i in 0..6 {
        t.row([
            (i + 1).to_string(),
            ds_top.get(i).cloned().unwrap_or_default(),
            raw_top.get(i).cloned().unwrap_or_default(),
        ]);
    }
    print!("{}", t.render());

    let ds_values: Vec<&str> =
        ds.iter().filter(|d| !d.trivial).take(6).map(|d| d.value.as_str()).collect();
    let raw_values: Vec<&str> = raw.iter().take(6).map(|d| d.value.as_str()).collect();
    check("DS ranks Houston first", ds_values.first() == Some(&"Houston"));
    check("raw frequency drops Houston from the top 6", !raw_values.contains(&"Houston"));
    check(
        "raw frequency surfaces the non-dominant `children`-style bulk values",
        raw_values.contains(&"casual") && raw_values.contains(&"man"),
    );
    check(
        "raw top-6 even includes non-dominant `formal`",
        raw_values.contains(&"formal"),
    );
    println!();
}

// ---------------------------------------------------------------------
// E13 — ablation: instance selection policy
// ---------------------------------------------------------------------
fn e13_ablation_instance_policy() {
    println!("== E13 · ablation: cheapest-instance vs first-instance selection (§2.4) ==");
    println!("  The paper: \"we should select instances of each item such that they");
    println!("  are close to each other, so as to occupy a small space\". The ablation");
    println!("  always takes the first instance in document order instead.");
    let doc = extract_bench::scattered_anchor_db();
    let extract = Extract::new(&doc);
    let query = KeywordQuery::parse("retailer texas bayview");
    let results = extract.search(&query, Algorithm::XSeek);
    check("one query result (the retailer)", results.len() == 1);
    let result = &results[0];
    let ilist = extract.ilist(&query, result, &ExtractConfig::default());
    println!("  IList ({} items): {}", ilist.len(), ilist.display(&doc).join(", "));

    let mut t = Table::new(["bound", "cheapest (paper)", "first-instance", "exact optimum"]);
    let mut separated = false;
    for bound in [6usize, 9, 12, 15, 30] {
        let cheapest = greedy_select_with_policy(
            &doc,
            &ilist,
            result.root,
            bound,
            InstancePolicy::CheapestInstance,
        );
        let first = greedy_select_with_policy(
            &doc,
            &ilist,
            result.root,
            bound,
            InstancePolicy::FirstInstance,
        );
        let exact = exact_select(&doc, &ilist, result.root, bound, ExactLimits::default());
        separated |= cheapest.coverage() > first.coverage();
        t.row([
            bound.to_string(),
            format!("{}/{}", cheapest.coverage(), ilist.len()),
            format!("{}/{}", first.coverage(), ilist.len()),
            exact
                .map(|e| format!("{}/{}", e.coverage(), ilist.len()))
                .unwrap_or_else(|| "(cap)".to_string()),
        ]);
    }
    print!("{}", t.render());
    check("cheapest-instance strictly beats first-instance at tight bounds", separated);
    println!();
}
