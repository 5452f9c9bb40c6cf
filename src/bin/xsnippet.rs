//! `xsnippet` — the eXtract demo as a command-line tool.
//!
//! ```text
//! xsnippet <file.xml | --demo NAME> <keyword>... [options]
//!
//! options:
//!   --bound N        snippet size bound in tree edges (default 10)
//!   --algo A         xseek | slca | scan | elca      (default xseek)
//!   --format F       tree | xml | pretty | html | json (default tree)
//!   --exact          use the exact (branch-and-bound) selector
//!   --baseline       also print the structure-blind text baseline
//!   --stats          print the result's value-occurrence statistics
//!   --ilist          print the IList of each result
//!   --demo NAME      built-in data: retailer | stores | movies | dblp | auction
//!   -h, --help       print this usage on stdout and exit 0
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --bin xsnippet -- --demo stores store texas --bound 6 --baseline
//! cargo run --bin xsnippet -- --demo retailer texas apparel retailer --ilist --stats
//! cargo run --bin xsnippet -- data.xml some keywords --format pretty
//! ```

use std::process::ExitCode;

use extract::analyzer::ResultStats;
use extract::core::baselines::{BaselineStrategy, TextWindows};
use extract::core::pipeline::SelectorKind;
use extract::datagen::{auction::AuctionConfig, dblp, movies, retailer};
use extract::prelude::*;
use extract::search::rank;

struct Options {
    source: Source,
    keywords: Vec<String>,
    bound: usize,
    algo: Algorithm,
    format: Format,
    exact: bool,
    baseline: bool,
    stats: bool,
    ilist: bool,
}

enum Source {
    File(String),
    Demo(String),
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Tree,
    Xml,
    Pretty,
    Html,
    Json,
}

const USAGE: &str = "usage: xsnippet <file.xml | --demo NAME> <keyword>... \
    [--bound N] [--algo xseek|slca|scan|elca] [--format tree|xml|pretty|html|json] \
    [--exact] [--baseline] [--stats] [--ilist]\n\
    demos: retailer | stores | movies | dblp | auction";

/// A command line that cannot run: usage on stderr, exit 2.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1).peekable();
    let mut source: Option<Source> = None;
    let mut keywords = Vec::new();
    let mut bound = 10usize;
    let mut algo = Algorithm::XSeek;
    let mut format = Format::Tree;
    let mut exact = false;
    let mut baseline = false;
    let mut stats = false;
    let mut ilist = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bound" => {
                bound = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(usage)?;
            }
            "--algo" => {
                algo = match args.next().as_deref() {
                    Some("xseek") => Algorithm::XSeek,
                    Some("slca") => Algorithm::SlcaIndexedLookup,
                    Some("scan") => Algorithm::SlcaScanEager,
                    Some("elca") => Algorithm::Elca,
                    _ => return Err(usage()),
                };
            }
            "--format" => {
                format = match args.next().as_deref() {
                    Some("tree") => Format::Tree,
                    Some("xml") => Format::Xml,
                    Some("pretty") => Format::Pretty,
                    Some("html") => Format::Html,
                    Some("json") => Format::Json,
                    _ => return Err(usage()),
                };
            }
            "--demo" => {
                let name = args.next().ok_or_else(usage)?;
                source = Some(Source::Demo(name));
            }
            "--exact" => exact = true,
            "--baseline" => baseline = true,
            "--stats" => stats = true,
            "--ilist" => ilist = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other if other.starts_with("--") => return Err(usage()),
            other => {
                if source.is_none() {
                    source = Some(Source::File(other.to_string()));
                } else {
                    keywords.push(other.to_string());
                }
            }
        }
    }
    let source = source.ok_or_else(usage)?;
    if keywords.is_empty() {
        return Err(usage());
    }
    Ok(Options { source, keywords, bound, algo, format, exact, baseline, stats, ilist })
}

fn load(source: &Source) -> Result<Document, String> {
    match source {
        Source::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            Document::parse_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        Source::Demo(name) => match name.as_str() {
            "retailer" => Ok(retailer::figure1_db()),
            "stores" => Ok(retailer::demo_store_db()),
            "movies" => Ok(movies::MoviesConfig::default().generate()),
            "dblp" => Ok(dblp::DblpConfig::default().generate()),
            "auction" => Ok(AuctionConfig::default().generate()),
            other => Err(format!("unknown demo `{other}`")),
        },
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let doc = match load(&opts.source) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let extract = Extract::new(&doc);
    let query = KeywordQuery::from_keywords(opts.keywords.clone());
    let config = ExtractConfig {
        size_bound: opts.bound,
        selector: if opts.exact { SelectorKind::Exact } else { SelectorKind::Greedy },
        ..Default::default()
    };

    let ranked = rank(&doc, extract.search(&query, opts.algo));
    if opts.format == Format::Html {
        // One self-contained page for all results.
        let snippeted: Vec<_> = ranked
            .iter()
            .map(|r| extract.snippet(&query, &r.result, &config))
            .collect();
        print!("{}", extract::core::render::results_page(&doc, &query.to_string(), &snippeted));
        return ExitCode::SUCCESS;
    }
    println!(
        "{} result(s) for \"{query}\" (bound {}, {:?})\n",
        ranked.len(),
        opts.bound,
        opts.algo
    );
    for (i, r) in ranked.iter().enumerate() {
        let out = extract.snippet(&query, &r.result, &config);
        println!(
            "── result {} · score {:.3} · {} · {} nodes ──",
            i + 1,
            r.score,
            out.snippet.summary_line(&doc),
            r.result.size(&doc)
        );
        if opts.ilist {
            println!("IList: {}", out.ilist.display(&doc).join(", "));
        }
        if opts.stats {
            let stats = ResultStats::compute(&doc, extract.model(), r.result.root);
            print!("{}", stats.statistics_panel(&doc));
        }
        match opts.format {
            Format::Tree => print!("{}", out.snippet.to_ascii_tree()),
            Format::Xml => println!("{}", out.snippet.to_xml()),
            Format::Pretty => print!("{}", out.snippet.to_xml_pretty()),
            Format::Json => println!("{}", extract::core::render::snippet_json(&doc, &out)),
            Format::Html => unreachable!("handled above"),
        }
        if opts.baseline {
            let text = TextWindows.generate(&doc, &r.result, opts.bound);
            println!("text baseline: {}", text.rendered(&doc));
        }
        println!();
    }
    ExitCode::SUCCESS
}
