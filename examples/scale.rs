//! Scale demonstration: build an XMark-flavoured auction document with
//! hundreds of thousands of nodes, index it, search it, and time snippet
//! generation — the shape of the performance evaluation (E5/E10/E11).
//!
//! ```sh
//! cargo run --release --example scale           # default 200k nodes
//! cargo run --release --example scale -- 500000 # custom target
//! ```

use std::time::Instant;

use extract::datagen::auction::AuctionConfig;
use extract::prelude::*;

fn main() {
    let target: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    let t = Instant::now();
    let doc = AuctionConfig::with_target_nodes(target, 42).generate();
    println!("generated {} nodes in {:?}", doc.len(), t.elapsed());

    let t = Instant::now();
    let extract = Extract::new(&doc);
    println!(
        "offline stages (index + entity model + keys) in {:?}; index ≈ {} KiB",
        t.elapsed(),
        extract.index().memory_footprint() / 1024
    );

    for query in ["gold watch houston", "person texas", "item cash painting"] {
        let t = Instant::now();
        let out = extract.snippets_for_query(query, &ExtractConfig::with_bound(12));
        let elapsed = t.elapsed();
        println!(
            "\nquery {query:?}: {} results, search+snippets in {elapsed:?}",
            out.len()
        );
        if let Some(first) = out.first() {
            println!(
                "  first result: {} nodes → snippet {} edges, {}/{} items",
                first.result.size(&doc),
                first.snippet.edges,
                first.snippet.coverage(),
                first.ilist.len()
            );
            for line in first.snippet.to_ascii_tree().lines().take(12) {
                println!("    {line}");
            }
        }
    }
}
