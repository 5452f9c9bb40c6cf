//! Search-engine integration tests on generated workloads (auction, dblp,
//! retailer) — cross-validation of the fast algorithms on realistic data
//! and semantic checks of result sets.

use extract_analyzer::EntityModel;
use extract_datagen::auction::AuctionConfig;
use extract_datagen::dblp::DblpConfig;
use extract_datagen::retailer;
use extract_index::XmlIndex;
use extract_search::elca::{elca_bruteforce, elca_stack};
use extract_search::slca::{slca_bruteforce, slca_indexed_lookup, slca_scan_eager};
use extract_search::ranking::rank;
use extract_search::{search, Algorithm, KeywordQuery};
use extract_xml::{Document, NodeId};

/// The offline artifacts [`search`] runs over.
fn build(doc: &Document) -> (XmlIndex, EntityModel) {
    (XmlIndex::build(doc), EntityModel::analyze(doc))
}

#[test]
fn algorithms_agree_on_auction_data() {
    let doc = AuctionConfig::with_target_nodes(30_000, 11).generate();
    let index = XmlIndex::build(&doc);
    for query in [
        "gold watch",
        "person houston",
        "item cash",
        "gold watch houston credit",
        "texas",
    ] {
        let q = KeywordQuery::parse(query);
        let lists: Vec<Vec<NodeId>> =
            q.keywords().iter().map(|k| index.postings(k).to_vec()).collect();
        let oracle = slca_bruteforce(&doc, &lists);
        assert_eq!(
            slca_indexed_lookup(&doc, &lists),
            oracle,
            "ILE on {query:?}"
        );
        assert_eq!(
            slca_scan_eager(&doc, &lists),
            oracle,
            "SE on {query:?}"
        );
        assert_eq!(elca_stack(&doc, &lists), elca_bruteforce(&doc, &lists), "ELCA on {query:?}");
    }
}

#[test]
fn auction_item_queries_return_items() {
    let doc = AuctionConfig::default().generate();
    let (index, model) = build(&doc);
    // "gold watch" hits item names; XSeek must lift to item entities.
    let q = KeywordQuery::parse("gold watch");
    let results = search(&doc, &index, &model, &q, Algorithm::XSeek);
    assert!(!results.is_empty());
    for r in &results {
        assert_eq!(doc.label_str(r.root), Some("item"), "results are item entities");
        assert!(r.covers_all_keywords());
    }
}

#[test]
fn dblp_author_queries_return_papers_or_authors() {
    let doc = DblpConfig { papers: 80, ..Default::default() }.generate();
    let (index, model) = build(&doc);
    let q = KeywordQuery::parse("paper sigmod keyword");
    let results = search(&doc, &index, &model, &q, Algorithm::XSeek);
    for r in &results {
        assert_eq!(doc.label_str(r.root), Some("paper"));
    }
    // Author-name query: results are the deepest entities containing the
    // name — author nodes.
    let q = KeywordQuery::parse("alice johnson");
    let results = search(&doc, &index, &model, &q, Algorithm::XSeek);
    assert!(!results.is_empty());
    for r in &results {
        let label = doc.label_str(r.root).unwrap();
        assert!(
            label == "author" || label == "paper",
            "unexpected result root {label}"
        );
    }
}

#[test]
fn figure1_query_is_exact_on_the_retailer_db() {
    let doc = retailer::figure1_db();
    let (index, model) = build(&doc);
    let expected = retailer::figure1_result_root(&doc);
    let query = KeywordQuery::parse("texas apparel retailer");
    let roots = |algo| -> Vec<NodeId> {
        search(&doc, &index, &model, &query, algo).iter().map(|r| r.root).collect()
    };
    // The SLCA family and XSeek: exactly the BB retailer.
    for algo in [
        Algorithm::SlcaIndexedLookup,
        Algorithm::SlcaScanEager,
        Algorithm::XSeek,
    ] {
        assert_eq!(roots(algo), vec![expected], "{algo:?}");
    }
    // ELCA additionally reports the database root: the two distractor
    // retailers provide independent witnesses for every keyword ("texas"
    // from Circuit Town, "apparel" from Golden Gate, "retailer" labels) —
    // a genuine semantic difference between ELCA and SLCA.
    assert_eq!(roots(Algorithm::Elca), vec![doc.root(), expected]);
}

#[test]
fn elca_supersets_slca_on_real_workloads() {
    let doc = AuctionConfig::with_target_nodes(15_000, 13).generate();
    let index = XmlIndex::build(&doc);
    for query in ["gold watch", "credit houston", "person texas"] {
        let q = KeywordQuery::parse(query);
        let lists: Vec<Vec<NodeId>> =
            q.keywords().iter().map(|k| index.postings(k).to_vec()).collect();
        let slcas = slca_indexed_lookup(&doc, &lists);
        let elcas = elca_stack(&doc, &lists);
        for s in &slcas {
            assert!(elcas.contains(s), "SLCA {s} missing from ELCA on {query:?}");
        }
    }
}

#[test]
fn ranking_prefers_tight_matches_on_dblp() {
    let doc = DblpConfig { papers: 60, ..Default::default() }.generate();
    let (index, model) = build(&doc);
    let q = KeywordQuery::parse("xml search");
    let ranked = rank(&doc, search(&doc, &index, &model, &q, Algorithm::XSeek));
    if ranked.len() >= 2 {
        // Scores are non-increasing and positive.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(ranked[0].score > 0.0);
    }
}

#[test]
fn rare_keyword_prunes_results() {
    let doc = retailer::figure1_db();
    let (index, model) = build(&doc);
    // "galleria" appears in exactly one store.
    let q = KeywordQuery::parse("galleria houston");
    let results = search(&doc, &index, &model, &q, Algorithm::XSeek);
    assert_eq!(results.len(), 1);
    assert_eq!(doc.label_str(results[0].root), Some("store"));
}
