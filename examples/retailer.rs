//! The paper's running example (Figures 1–3): query "Texas apparel
//! retailer" against the retailer database, print the Figure 1 statistics
//! panel, the Figure 3 IList with dominance scores, and the Figure 2
//! snippet.
//!
//! ```sh
//! cargo run --example retailer
//! ```

use extract::analyzer::{EntityModel, ResultStats};
use extract::core::dominance::dominant_features;
use extract::datagen::retailer::{figure1_db, figure1_result_root};
use extract::prelude::*;

fn main() {
    let doc = figure1_db();
    println!(
        "database: {} nodes, {} elements, {} retailers\n",
        doc.len(),
        doc.element_count(),
        doc.elements_with_label("retailer").len()
    );

    let extract = Extract::new(&doc);
    let query = KeywordQuery::parse("Texas apparel retailer");

    // Search: the Brook Brothers retailer is the only result.
    let engine = Engine::from_parts(&doc, XmlIndex::build(&doc), EntityModel::analyze(&doc));
    let results = engine.search(&query, Algorithm::XSeek);
    println!("query: {query} — {} result(s)", results.len());
    let bb = figure1_result_root(&doc);
    assert_eq!(results[0].root, bb);

    // ---- Figure 1 (right panel): value-occurrence statistics ----
    let model = EntityModel::analyze(&doc);
    let stats = ResultStats::compute(&doc, &model, bb);
    println!("\n== Figure 1: statistics of the query result ==");
    print!("{}", stats.statistics_panel(&doc));

    // ---- Figure 3: the IList ----
    let result = QueryResult::build(extract.document(), extract.index(), &query, bb);
    let config = ExtractConfig::default();
    let ilist = extract.ilist(&query, &result, &config);
    println!("\n== Figure 3: IList ==");
    println!("{}", ilist.display(&doc).join(", "));

    println!("\ndominance scores (paper: Houston 3.0, outwear 2.2, man 1.8, casual 1.4, suit 1.2, woman 1.1):");
    for d in dominant_features(&doc, &stats).iter().filter(|d| !d.trivial) {
        println!(
            "  DS({}, {}, {}) = {:.2}",
            doc.resolve(d.ftype.entity),
            doc.resolve(d.ftype.attribute),
            d.value,
            d.score
        );
    }

    // ---- Figure 2: the snippet (bound 13 covers all 12 items) ----
    let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(13));
    println!(
        "\n== Figure 2: snippet ({} edges, {}/{} items) ==",
        out.snippet.edges,
        out.snippet.coverage(),
        out.ilist.len()
    );
    print!("{}", out.snippet.to_ascii_tree());

    // And the same result under tighter bounds.
    for bound in [4, 8] {
        let out = extract.snippet(&query, &result, &ExtractConfig::with_bound(bound));
        println!(
            "\nwith bound {bound} ({} edges, {}/{} items):",
            out.snippet.edges,
            out.snippet.coverage(),
            out.ilist.len()
        );
        print!("{}", out.snippet.to_ascii_tree());
    }
}
