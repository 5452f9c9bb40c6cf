//! The demo's movie scenario (§4): keyword search + snippets over a movie
//! database, including a comparison of all result-semantics algorithms.
//!
//! ```sh
//! cargo run --example movies
//! ```

use extract::datagen::movies;
use extract::prelude::*;

fn main() {
    // A small fixed database plus a bigger generated one.
    let doc = movies::sample();
    println!("sample movie database:\n{}", doc.to_xml_pretty());

    let extract = Extract::new(&doc);

    for query_str in ["western texas", "alice johnson western", "drama"] {
        let query = KeywordQuery::parse(query_str);
        println!("── query: {query_str:?} ──");
        for algo in [
            Algorithm::SlcaIndexedLookup,
            Algorithm::Elca,
            Algorithm::XSeek,
        ] {
            let results = extract.search(&query, algo);
            let labels: Vec<&str> = results
                .iter()
                .map(|r| doc.label_str(r.root).unwrap_or("?"))
                .collect();
            println!("  {algo:?}: {} result root(s) {labels:?}", results.len());
        }

        let snippets = extract.snippets_for_query(query_str, &ExtractConfig::with_bound(5));
        for s in &snippets {
            println!(
                "  snippet [{}] {}",
                s.snippet.edges,
                s.snippet.summary_line(&doc)
            );
            for line in s.snippet.to_ascii_tree().lines() {
                println!("    {line}");
            }
        }
        println!();
    }

    // Scale up: generated database.
    let big = movies::MoviesConfig { movies: 200, ..Default::default() }.generate();
    let extract = Extract::new(&big);
    let out = extract.snippets_for_query("western", &ExtractConfig::with_bound(6));
    println!(
        "generated database: {} nodes; query \"western\" → {} results",
        big.len(),
        out.len()
    );
    if let Some(first) = out.first() {
        println!("first snippet:\n{}", first.snippet.to_ascii_tree());
    }
}
