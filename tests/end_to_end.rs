//! Cross-crate integration tests: the full pipeline on every generated
//! workload, exercised through the umbrella crate's public API.

use extract::analyzer::ResultStats;
use extract::core::quality::{distinguishability, evaluate_snippet};
use extract::datagen::{auction::AuctionConfig, movies, retailer};
use extract::prelude::*;

#[test]
fn retailer_pipeline_end_to_end() {
    let doc = retailer::figure1_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("texas apparel retailer", &ExtractConfig::with_bound(13));
    assert_eq!(out.len(), 1);
    let s = &out[0];
    assert_eq!(s.snippet.edges, 13);
    assert_eq!(s.snippet.coverage(), 12);
    let report = evaluate_snippet(&doc, &s.ilist, &s.snippet);
    assert_eq!(report.coverage, 1.0);
    assert!(report.key_present);
}

/// The tier-1 oracle for the whole pipeline: the paper's Figure-1 snippet
/// for "Texas apparel retailer" must have the shape eXtract promises —
/// rooted at the return *entity*, carrying the result *key*
/// (`name = Brook Brothers`), showing the *dominant* feature values
/// (Houston city, man fitting, casual situation, outwear category), and
/// staying within the size bound.
#[test]
fn figure1_snippet_shape() {
    let doc = retailer::figure1_db();
    let extract = Extract::new(&doc);
    let bound = 13;
    let out = extract.snippets_for_query("texas apparel retailer", &ExtractConfig::with_bound(bound));
    assert_eq!(out.len(), 1, "exactly one Texas apparel retailer");
    let s = &out[0];

    // (1) Entity: the snippet is rooted at the return entity node.
    assert!(extract.model().is_entity(s.result.root), "result root is an entity");
    let snip = s.snippet.tree();
    assert_eq!(snip.label_str(snip.root()), Some("retailer"), "snippet rooted at the entity");

    // (2) Key: the mined `name = Brook Brothers` key is in the IList and
    // survives into the rendered snippet.
    let key = s.ilist.result_key.as_ref().expect("retailer has a name key");
    assert_eq!(doc.symbols().resolve(key.attribute), "name");
    assert_eq!(key.value, "Brook Brothers");
    let xml = s.snippet.to_xml();
    assert!(xml.contains("<name>Brook Brothers</name>"), "key missing from {xml}");

    // (3) Dominant features: the paper's dominance ranking (Figure 3)
    // puts Houston, man, casual, and outwear in the snippet.
    for dominant in [
        "<city>Houston</city>",
        "<fitting>man</fitting>",
        "<situation>casual</situation>",
        "<category>outwear</category>",
    ] {
        assert!(xml.contains(dominant), "dominant feature {dominant} missing from {xml}");
    }
    // The snippet summarises — non-dominant values stay out.
    for minor in ["Austin", "children", "formal"] {
        assert!(!xml.contains(minor), "non-dominant {minor} leaked into {xml}");
    }

    // (4) Bound: edge count both as reported and as re-derived from the
    // rendered tree (nodes - 1 == edges of a tree).
    assert!(s.snippet.edges <= bound);
    let reparsed = Document::parse_str(&xml).unwrap();
    let tree_nodes = reparsed.element_count();
    assert_eq!(tree_nodes - 1, s.snippet.edges, "rendered tree matches reported edge count");
}

#[test]
fn demo_store_pipeline_end_to_end() {
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
    assert_eq!(out.len(), 2);
    let rendered: Vec<String> = out.iter().map(|s| s.snippet.to_xml()).collect();
    assert_eq!(distinguishability(&rendered), 1.0, "keys make snippets distinct");
}

#[test]
fn movie_sample_queries() {
    let doc = movies::sample();
    let extract = Extract::new(&doc);

    // "western texas" → only Lone Star Trail (Desert Storm is Arizona).
    let out = extract.snippets_for_query("western texas", &ExtractConfig::with_bound(6));
    assert_eq!(out.len(), 1);
    assert!(out[0].snippet.to_xml().contains("Lone Star Trail"));

    // "alice johnson western" → both westerns, distinguishable by title.
    let out = extract.snippets_for_query("alice johnson western", &ExtractConfig::with_bound(8));
    assert_eq!(out.len(), 2);
    let xmls: Vec<String> = out.iter().map(|s| s.snippet.to_xml()).collect();
    assert!(xmls.iter().any(|x| x.contains("Lone Star Trail")));
    assert!(xmls.iter().any(|x| x.contains("Desert Storm")));
}

#[test]
fn movie_snippets_include_title_keys() {
    let doc = movies::MoviesConfig { movies: 40, ..Default::default() }.generate();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("movie drama", &ExtractConfig::with_bound(5));
    assert!(!out.is_empty());
    for s in &out {
        // Every movie snippet should carry its key (the unique title).
        let key = s.ilist.result_key.as_ref().expect("movies have title keys");
        assert!(
            s.snippet.to_xml().contains(&key.value),
            "snippet misses key {}: {}",
            key.value,
            s.snippet.to_xml()
        );
    }
}

#[test]
fn auction_pipeline_at_scale() {
    let doc = AuctionConfig::with_target_nodes(60_000, 7).generate();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("gold watch", &ExtractConfig::with_bound(8));
    assert!(!out.is_empty());
    for s in &out {
        assert!(s.snippet.edges <= 8);
        assert!(s.snippet.coverage() > 0);
    }
}

#[test]
fn all_search_algorithms_feed_the_snippeter() {
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let query = KeywordQuery::parse("store texas");
    for algo in [
        Algorithm::SlcaIndexedLookup,
        Algorithm::SlcaScanEager,
        Algorithm::Elca,
        Algorithm::XSeek,
    ] {
        for result in extract.search(&query, algo) {
            let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(6));
            assert!(out.snippet.edges <= 6, "{algo:?}");
            assert!(out.snippet.coverage() > 0, "{algo:?}");
        }
    }
}

#[test]
fn statistics_scoped_to_each_result() {
    // Per-result dominance: Levis result is jeans/man; ESprit result is
    // outwear/woman — even though globally woman (12+) rivals man.
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let results = extract.search(&KeywordQuery::parse("store texas"), Algorithm::XSeek);
    let sym = |s: &str| doc.symbols().get(s).unwrap();
    let fitting = extract::analyzer::FeatureType { entity: sym("clothes"), attribute: sym("fitting") };

    let levis_stats = ResultStats::compute(&doc, extract.model(), results[0].root);
    assert!(levis_stats.n_value(fitting, "man") > levis_stats.n_value(fitting, "woman"));
    let esprit_stats = ResultStats::compute(&doc, extract.model(), results[1].root);
    assert!(esprit_stats.n_value(fitting, "woman") > esprit_stats.n_value(fitting, "man"));
}

#[test]
fn snippet_of_reparsed_snippet_is_stable() {
    // A snippet is itself a document; running the pipeline over it again
    // must not panic and keeps the bound.
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
    let snippet_doc = Document::parse_str(&out[0].snippet.to_xml()).unwrap();
    let extract2 = Extract::new(&snippet_doc);
    let out2 = extract2.snippets_for_query("texas", &ExtractConfig::with_bound(3));
    for s in &out2 {
        assert!(s.snippet.edges <= 3);
    }
}

#[test]
fn umbrella_prelude_compiles_and_works() {
    let mut b = DocBuilder::new("stores");
    b.begin("store");
    b.leaf("name", "A");
    b.end();
    b.begin("store");
    b.leaf("name", "B");
    b.end();
    let doc = b.build();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store", &ExtractConfig::default());
    assert_eq!(out.len(), 2);
}

#[test]
fn dblp_pipeline_end_to_end() {
    use extract::datagen::dblp;
    let doc = dblp::sample();
    let extract = Extract::new(&doc);
    // Paper titles are the mined keys; author is an entity (multi-valued).
    let out = extract.snippets_for_query("xml search snippet", &ExtractConfig::with_bound(8));
    assert_eq!(out.len(), 1);
    let s = &out[0];
    assert!(
        s.snippet.to_xml().contains("snippet generation for xml search"),
        "{}",
        s.snippet.to_xml()
    );
    // Generated corpus at scale: venue dominance shows up in snippets.
    let big = dblp::DblpConfig { papers: 150, ..Default::default() }.generate();
    let extract = Extract::new(&big);
    let out = extract.snippets_for_query("paper keyword", &ExtractConfig::with_bound(6));
    assert!(!out.is_empty());
    for s in &out {
        assert!(s.snippet.edges <= 6);
        let key = s.ilist.result_key.as_ref().expect("papers have title keys");
        assert!(s.snippet.to_xml().contains(&key.value));
    }
}

#[test]
fn html_and_json_renderers_cover_results() {
    use extract::core::render;
    let doc = retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
    let page = render::results_page(&doc, "store texas", &out);
    assert!(page.contains("Levis") && page.contains("ESprit"));
    for s in &out {
        let json = render::snippet_json(&doc, s);
        assert!(json.contains("\"edges\":"));
    }
}
