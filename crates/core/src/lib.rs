//! eXtract: snippet generation for XML keyword search — the primary
//! contribution of Huang, Liu & Chen (VLDB 2008).
//!
//! Given a keyword query, a query result (from any XML keyword search
//! engine) and a size bound, eXtract produces a **snippet**: a small subtree
//! of the result that is self-contained (organized around entities),
//! distinguishable (contains the result's key), representative (contains
//! the dominant features) and within the bound (§1). The pipeline follows
//! the paper's Figure 4:
//!
//! ```text
//! Data Analyzer ─ Index Builder ─┐
//!                                ├─► Return Entity Identifier
//!   query, results, size bound ──┤    Query Result Key Identifier
//!                                │    Dominant Feature Identifier
//!                                └─►  IList ─► Instance Selector ─► snippet
//! ```
//!
//! * [`ilist`] — the Snippet Information List: query keywords, entity
//!   names, the result key, then dominant features by decreasing dominance
//!   score (§2);
//! * [`return_entity`] — the search-goal heuristics of §2.2;
//! * [`key`] — the query-result key (§2.2), backed by the analyzer's mined
//!   key catalog;
//! * [`dominance`] — dominance scores `DS(f,R) = N(e,a,v)·D(e,a)/N(e,a)`
//!   and the `DS > 1` / domain-size-1 dominance rule (§2.3);
//! * [`selector`] — the instance selector (§2.4): covering a maximum
//!   number of IList items within the bound is NP-hard; a greedy algorithm
//!   picks, per item in rank order, the instance whose ancestor closure
//!   adds the fewest new edges. An exact branch-and-bound solver measures
//!   the greedy's optimality gap on small instances;
//! * [`snippet`] — the materialized snippet with rendering helpers;
//! * [`baselines`] — comparison strategies, including the structure-blind
//!   text snippet standing in for the Google Desktop comparison of §4;
//! * [`quality`] — objective proxies for the paper's four snippet goals;
//! * [`cache`] — the generic [`LruCache`] and the keys the serving layer's
//!   page and snippet caches file entries under (normalized query +
//!   document + result root + config, or + window + corpus epoch);
//! * [`render`] — HTML results page (the demo's web UI, Figure 5) and
//!   JSON export;
//! * [`pipeline`] — [`Extract`], the end-to-end system: search with any
//!   algorithm, then snippets.
//!
//! # Quick example
//!
//! ```
//! use extract_xml::Document;
//! use extract_core::{Extract, ExtractConfig};
//!
//! let doc = Document::parse_str(
//!     "<stores><store><name>Levis</name><state>Texas</state>\
//!      <merchandises><clothes><category>jeans</category></clothes>\
//!      <clothes><category>jeans</category></clothes></merchandises></store>\
//!      <store><name>Gap</name><state>Ohio</state></store></stores>").unwrap();
//! let extract = Extract::new(&doc);
//! let snippets = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
//! assert_eq!(snippets.len(), 1);
//! assert!(snippets[0].snippet.to_xml().contains("Levis"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod cache;
pub mod dominance;
pub mod ilist;
pub mod key;
pub mod pipeline;
pub mod quality;
pub mod render;
pub mod return_entity;
pub mod selector;
pub mod snippet;

pub use cache::{CacheKey, CacheStats, LruCache, PageKey, QueryText};
pub use dominance::{dominant_features, DominantFeature};
pub use ilist::{IList, IListItem, RankedItem};
pub use pipeline::{EngineParts, Extract, ExtractConfig, SelectorKind, SnippetedResult};
pub use selector::{exact_select, greedy_select, SelectionOutcome};
pub use snippet::Snippet;
