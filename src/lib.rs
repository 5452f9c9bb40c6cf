//! # eXtract — snippet generation for XML keyword search
//!
//! A from-scratch Rust reproduction of *eXtract: A Snippet Generation
//! System for XML Search* (Huang, Liu & Chen, VLDB 2008), including every
//! substrate the system needs: an XML stack, indexes, the classic XML
//! keyword search engines (SLCA, ELCA, XSeek), the data analyzer, and the
//! snippet generator itself.
//!
//! This umbrella crate re-exports the public APIs of the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`xml`] | `extract-xml` | borrowed-token parser, structure-of-arrays DOM, Dewey labels, DTD, schema inference |
//! | [`index`] | `extract-index` | inverted keyword index, label index, per-document segments |
//! | [`search`] | `extract-search` | SLCA / ELCA / XSeek engines, ranking |
//! | [`analyzer`] | `extract-analyzer` | entity model, key mining, feature statistics |
//! | [`core`] | `extract-core` | IList, dominance, instance selectors, snippets, baselines |
//! | [`corpus`] | `extract-corpus` | multi-document corpus: streaming build, `DocId`s, per-document segments + directory |
//! | [`datagen`] | `extract-datagen` | retailer / movies / auction / dblp / corpus workload generators |
//!
//! # Quickstart
//!
//! ```
//! use extract::prelude::*;
//!
//! let doc = Document::parse_str(
//!     "<stores><store><name>Levis</name><state>Texas</state>\
//!      <merchandises><clothes><category>jeans</category></clothes>\
//!      <clothes><category>jeans</category></clothes></merchandises></store>\
//!      <store><name>Gap</name><state>Ohio</state></store></stores>").unwrap();
//!
//! // Offline: analyze + index + mine keys. Online: search + snippet.
//! let extract = Extract::new(&doc);
//! let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
//! assert_eq!(out.len(), 1);
//! println!("{}", out[0].snippet.to_ascii_tree());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// XML substrate: parsing, structure-of-arrays DOM, Dewey order labels, DTD, schema.
pub mod xml {
    pub use extract_xml::*;
}

/// Index Builder: inverted keyword index, label index, per-document segments.
pub mod index {
    pub use extract_index::*;
}

/// Keyword search engines: SLCA, ELCA, XSeek; ranking.
pub mod search {
    pub use extract_search::*;
}

/// Data Analyzer: node classification, key mining, feature statistics.
pub mod analyzer {
    pub use extract_analyzer::*;
}

/// The eXtract snippet generator.
pub mod core {
    pub use extract_core::*;
}

/// Multi-document corpus layer: streaming build, stable `DocId`s,
/// per-document index segments, query routing, live mutation.
pub mod corpus {
    pub use extract_corpus::*;
}

/// Synthetic workload generators.
pub mod datagen {
    pub use extract_datagen::*;
}

/// Concurrent query serving: [`QuerySession`](session::QuerySession), a
/// std-thread worker pool over shared immutable indexes (one document or a
/// whole corpus) with a snippet cache.
pub mod session;

/// The HTTP search application: routes `extract-serve` requests
/// (`/search`, `/stats`, …) to a [`QuerySession`](session::QuerySession)
/// and renders JSON result pages.
pub mod serve;

/// Live serving: mutation endpoints (`/ingest`, `/delete`) over an
/// epoch-swapped [`LiveCorpus`](corpus::LiveCorpus) — queries keep
/// answering on their snapshot while the corpus changes underneath.
pub mod live;

pub use session::{AnswerPage, CorpusAnswer, CorpusPage, CorpusTopK, QuerySession, SessionCaches};

/// The most common imports in one place.
pub mod prelude {
    pub use extract_analyzer::{EntityModel, KeyCatalog, ResultStats};
    pub use extract_core::{Extract, ExtractConfig, Snippet, SnippetCache, SnippetedResult};
    pub use extract_corpus::{Corpus, CorpusBuilder, DocId, FanIn, LiveCorpus, Mutation};
    pub use extract_index::XmlIndex;
    pub use extract_search::{Algorithm, Engine, KeywordQuery, QueryResult};
    pub use extract_xml::{DocBuilder, Document, NodeId};

    pub use crate::live::LiveSearchApp;
    pub use crate::serve::{SearchApp, SearchAppConfig};
    pub use crate::session::{
        AnswerPage, CorpusAnswer, CorpusPage, CorpusTopK, QuerySession, SessionCaches,
    };
}
