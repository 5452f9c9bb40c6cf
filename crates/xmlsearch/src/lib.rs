//! XML keyword search engines for the eXtract reproduction.
//!
//! The paper's snippet generator consumes query results "generated by any
//! XML keyword search engine" (§3); the authors run XSeek on top of SLCA
//! semantics, and cite XRANK (ELCA semantics) and the SLCA algorithms of Xu
//! & Papakonstantinou as alternatives. This crate implements all of them:
//!
//! * [`query`] — keyword query parsing and normalization;
//! * [`slca`] — **Smallest LCA** computation: brute-force reference,
//!   *Indexed Lookup Eager* (binary searches anchored on the rarest
//!   keyword's postings) and *Scan Eager* (monotone pointer advance),
//!   following Xu & Papakonstantinou, SIGMOD 2005;
//! * [`elca`] — **Exclusive LCA** computation with the Dewey-stack
//!   algorithm in the style of XRANK (Guo et al., SIGMOD 2003), plus a
//!   brute-force reference;
//! * [`result`] — [`QueryResult`]: a result root plus the per-keyword match
//!   nodes inside its subtree;
//! * [`xseek`] — XSeek-style result roots: SLCAs lifted to their nearest
//!   ancestor-or-self *entity*, so results are semantic units (the paper's
//!   Figure 1 result is the whole `retailer` subtree);
//! * [`ranking`] — a simple deterministic relevance ranking;
//! * [`engine`] — [`search`], which runs any [`Algorithm`] over a
//!   document's index and entity model (`extract_core::Extract` owns both).
//!
//! ```
//! use extract_analyzer::EntityModel;
//! use extract_index::XmlIndex;
//! use extract_search::{search, Algorithm, KeywordQuery};
//! use extract_xml::Document;
//!
//! let doc = Document::parse_str(
//!     "<stores><store><name>Levis</name><state>Texas</state></store>\
//!      <store><name>Gap</name><state>Ohio</state></store></stores>").unwrap();
//! let (index, model) = (XmlIndex::build(&doc), EntityModel::analyze(&doc));
//! let query = KeywordQuery::parse("store texas");
//! let results = search(&doc, &index, &model, &query, Algorithm::XSeek);
//! assert_eq!(results.len(), 1);
//! assert_eq!(doc.label_str(results[0].root), Some("store"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elca;
pub mod engine;
mod mask;
pub mod query;
pub mod ranking;
pub mod result;
pub mod slca;
pub mod xseek;

pub use engine::{search, Algorithm};
pub use query::KeywordQuery;
pub use ranking::{rank, RankedResult};
pub use result::QueryResult;
