//! Reproduction of the paper's worked example: Figures 1, 2, 3 and the
//! Figure 5 demo session (experiments E1–E4 of DESIGN.md).

use extract_analyzer::{EntityModel, FeatureType, KeyCatalog, ResultStats};
use extract_core::dominance::{dominance_score, dominant_features};
use extract_core::{Extract, ExtractConfig};
use extract_datagen::retailer::{figure1_db, figure1_expected_ilist, figure1_result_root};
use extract_index::XmlIndex;
use extract_search::{Algorithm, KeywordQuery, QueryResult};
use extract_xml::Document;

fn ft(doc: &Document, e: &str, a: &str) -> FeatureType {
    FeatureType {
        entity: doc.symbols().get(e).unwrap(),
        attribute: doc.symbols().get(a).unwrap(),
    }
}

/// E1 — Figure 1: the query result of "Texas apparel retailer" and its
/// value-occurrence statistics.
#[test]
fn e1_figure1_statistics() {
    let doc = figure1_db();
    let extract = Extract::new(&doc);

    // The search engine must find exactly the Brook Brothers retailer.
    let results = extract.search(&KeywordQuery::parse("Texas apparel retailer"), Algorithm::XSeek);
    assert_eq!(results.len(), 1, "exactly one result");
    let bb = figure1_result_root(&doc);
    assert_eq!(results[0].root, bb);

    let stats = ResultStats::compute(&doc, extract.model(), bb);

    // city: Houston 6, Austin 1, other cities (3): 3.
    let city = ft(&doc, "store", "city");
    assert_eq!(stats.n_value(city, "Houston"), 6);
    assert_eq!(stats.n_value(city, "Austin"), 1);
    assert_eq!(stats.n_type(city), 10);
    assert_eq!(stats.d_type(city), 5);

    // fitting: Man 600, Woman 360, Children 40.
    let fitting = ft(&doc, "clothes", "fitting");
    assert_eq!(stats.n_value(fitting, "man"), 600);
    assert_eq!(stats.n_value(fitting, "woman"), 360);
    assert_eq!(stats.n_value(fitting, "children"), 40);
    assert_eq!(stats.n_type(fitting), 1000);
    assert_eq!(stats.d_type(fitting), 3);

    // situation: Casual 700, Formal 300.
    let situation = ft(&doc, "clothes", "situation");
    assert_eq!(stats.n_value(situation, "casual"), 700);
    assert_eq!(stats.n_value(situation, "formal"), 300);
    assert_eq!(stats.n_type(situation), 1000);
    assert_eq!(stats.d_type(situation), 2);

    // category: Outwear 220, Suit 120, Skirt 80, Sweaters 70, others 580.
    let category = ft(&doc, "clothes", "category");
    assert_eq!(stats.n_value(category, "outwear"), 220);
    assert_eq!(stats.n_value(category, "suit"), 120);
    assert_eq!(stats.n_value(category, "skirt"), 80);
    assert_eq!(stats.n_value(category, "sweaters"), 70);
    assert_eq!(stats.n_type(category), 1070);
    assert_eq!(stats.d_type(category), 11);
}

/// E3 — Figure 3 (checked before E2 since the IList drives the snippet):
/// dominance scores and the exact IList.
#[test]
fn e3_figure3_ilist_and_dominance_scores() {
    let doc = figure1_db();
    let model = EntityModel::analyze(&doc);
    let bb = figure1_result_root(&doc);
    let stats = ResultStats::compute(&doc, &model, bb);

    // The six dominance scores the paper reports.
    let city = ft(&doc, "store", "city");
    let fitting = ft(&doc, "clothes", "fitting");
    let situation = ft(&doc, "clothes", "situation");
    let category = ft(&doc, "clothes", "category");
    assert_eq!(dominance_score(&stats, city, "Houston"), Some(3.0));
    assert_eq!(dominance_score(&stats, fitting, "man"), Some(1.8));
    assert!((dominance_score(&stats, fitting, "woman").unwrap() - 1.08).abs() < 1e-9);
    assert!((dominance_score(&stats, situation, "casual").unwrap() - 1.4).abs() < 1e-9);
    assert!((dominance_score(&stats, category, "outwear").unwrap() - 2.2617).abs() < 1e-3);
    assert!((dominance_score(&stats, category, "suit").unwrap() - 1.2336).abs() < 1e-3);

    // Non-trivial dominant features in score order: Houston, outwear, man,
    // casual, suit, woman (plus trivially dominant domain-1 features that
    // the IList dedups against keywords/key).
    let doms = dominant_features(&doc, &stats);
    let nontrivial: Vec<&str> = doms
        .iter()
        .filter(|d| !d.trivial)
        .map(|d| d.value.as_str())
        .collect();
    assert_eq!(nontrivial, vec!["Houston", "outwear", "man", "casual", "suit", "woman"]);

    // The full IList of Figure 3.
    let extract = Extract::new(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);
    let ilist = extract.ilist(&query, &result, &ExtractConfig::default());
    assert_eq!(ilist.display(&doc), figure1_expected_ilist());
}

/// E2 — Figure 2: the snippet of the Figure 1 result. With bound 13 the
/// greedy covers all 12 IList items and produces exactly the published
/// tree.
#[test]
fn e2_figure2_snippet() {
    let doc = figure1_db();
    let extract = Extract::new(&doc);
    let bb = figure1_result_root(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);

    let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(13));
    assert_eq!(out.snippet.edges, 13);
    assert_eq!(out.snippet.coverage(), 12, "all IList items fit in 13 edges");
    assert!(out.snippet.skipped.is_empty());

    let expected = "<retailer><name>Brook Brothers</name><product>apparel</product>\
         <store><state>Texas</state><city>Houston</city><merchandises>\
         <clothes><fitting>man</fitting><category>suit</category></clothes>\
         <clothes><fitting>woman</fitting><situation>casual</situation><category>outwear</category></clothes>\
         </merchandises></store></retailer>";
    assert_eq!(out.snippet.to_xml(), expected.replace("         ", ""));
}

/// E2 continued: the snippet degrades gracefully below the Figure 2 bound
/// and the bound is always respected.
#[test]
fn e2_bound_sweep_respects_limit_and_monotone_coverage() {
    let doc = figure1_db();
    let extract = Extract::new(&doc);
    let bb = figure1_result_root(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);

    let mut last_coverage = 0;
    for bound in 0..=16 {
        let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(bound));
        assert!(out.snippet.edges <= bound, "bound {bound}");
        assert!(
            out.snippet.coverage() >= last_coverage,
            "coverage should not shrink when the bound grows (bound {bound})"
        );
        last_coverage = out.snippet.coverage();
    }
    assert_eq!(last_coverage, 12);
}

/// E4 — Figure 5: the demo session. Query "store texas" with bound 6 over
/// the demo store database: the Levis snippet shows jeans + man, the
/// ESprit snippet shows outwear + woman.
#[test]
fn e4_figure5_demo_session() {
    let doc = extract_datagen::retailer::demo_store_db();
    let extract = Extract::new(&doc);
    let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
    assert_eq!(out.len(), 2, "Levis and ESprit");

    let levis = out
        .iter()
        .find(|s| s.snippet.to_xml().contains("Levis"))
        .expect("Levis snippet");
    let xml = levis.snippet.to_xml();
    assert!(levis.snippet.edges <= 6);
    assert!(xml.contains("<category>jeans</category>"), "{xml}");
    assert!(xml.contains("<fitting>man</fitting>"), "{xml}");
    assert!(xml.contains("<state>Texas</state>"), "{xml}");

    let esprit = out
        .iter()
        .find(|s| s.snippet.to_xml().contains("ESprit"))
        .expect("ESprit snippet");
    let xml = esprit.snippet.to_xml();
    assert!(esprit.snippet.edges <= 6);
    assert!(xml.contains("<category>outwear</category>"), "{xml}");
    assert!(xml.contains("<fitting>woman</fitting>"), "{xml}");

    // The two snippets must be distinguishable (they carry distinct keys).
    assert_ne!(levis.snippet.to_xml(), esprit.snippet.to_xml());
}

/// The key identification behind Figures 2/3: "Brook Brothers" is the key
/// of the BB result because retailer is the return entity and name is its
/// mined key.
#[test]
fn figure_key_identification() {
    let doc = figure1_db();
    let model = EntityModel::analyze(&doc);
    let catalog = KeyCatalog::mine(&doc, &model);
    let index = XmlIndex::build(&doc);
    let bb = figure1_result_root(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");
    let result = QueryResult::build(&doc, &index, &query, bb);

    let re = extract_core::return_entity::identify(&doc, &model, &query, &result);
    assert_eq!(doc.resolve(re.label.unwrap()), "retailer");
    let key = extract_core::key::identify(&doc, &model, &catalog, &re).unwrap();
    assert_eq!(key.value, "Brook Brothers");
    assert_eq!(doc.resolve(key.attribute), "name");
}
