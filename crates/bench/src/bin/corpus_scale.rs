//! The PR-3 corpus-scale benchmark.
//!
//! Builds a 200-document mixed corpus (~10^6 nodes) through the streaming
//! path and measures:
//!
//! * corpus construction — one index segment per document plus the
//!   directory fold;
//! * **SLCA candidate fan-in** — index entries touched to route the query
//!   mix: doc-directory intersection vs reading every segment's postings
//!   (the acceptance metric);
//! * per-document posting extraction — one lookup in one segment;
//! * end-to-end `QuerySession::answer_corpus` batches — cold vs cached.
//!
//! ```text
//! corpus_scale [--json PATH] [--quick]
//! ```
//!
//! `--json PATH` writes the machine-readable payload committed as
//! `BENCH_PR3.json`; `--quick` shrinks the corpus and sample counts.

use std::time::Duration;

use extract_bench::corpus_scale::{corpus_config, quick_corpus_config, reductions, run_all, to_json};
use extract_bench::throughput::Effort;
use extract_bench::{fmt_duration, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut effort = Effort::full();
    let mut cfg = corpus_config();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json needs a path").clone());
            }
            "--quick" => {
                effort = Effort::quick();
                cfg = quick_corpus_config();
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: corpus_scale [--json PATH] [--quick]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "running corpus_scale ({} docs × ~{} nodes, samples={})…",
        cfg.documents, cfg.target_nodes_per_doc, effort.samples
    );
    let results = run_all(&cfg, effort);

    let mut table = Table::new(["corpus", "scenario", "median/op", "unit"]);
    for r in &results {
        let rendered = match r.unit {
            "bytes" => format!("{:.1} MiB", r.median_ns / (1024.0 * 1024.0)),
            "count" | "entries" => format!("{:.0}", r.median_ns),
            _ => fmt_duration(Duration::from_nanos(r.median_ns as u64)),
        };
        table.row([r.corpus.to_string(), r.scenario.to_string(), rendered, r.unit.to_string()]);
    }
    println!("{}", table.render());

    let mut sp = Table::new(["reduction", "x"]);
    for (name, x) in reductions(&results) {
        sp.row([name, format!("{x:.2}")]);
    }
    println!("{}", sp.render());

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&results)).expect("write json");
        eprintln!("wrote {path}");
    }
}
