//! XML substrate for the eXtract reproduction.
//!
//! This crate is a self-contained XML stack built for tree-centric keyword
//! search workloads:
//!
//! * [`tokenizer`] — a borrowed-token XML lexer with precise error
//!   positions: tokens are slices of the input, nothing is allocated.
//! * [`parser`] — one fold from tokens to a [`Document`], with
//!   well-formedness checks and configurable handling of XML-syntax
//!   attributes and whitespace.
//! * [`Document`] — a structure-of-arrays tree: a node is a preorder
//!   [`NodeId`] (a `u32` newtype) into parallel label / parent /
//!   subtree-end / text-offset columns, text lives in one buffer and labels
//!   are interned in a [`SymbolTable`]. A subtree is an ID interval, so
//!   children, ancestor tests and LCAs are integer arithmetic.
//! * [`Dewey`] — Dewey order labels (the path of child ranks from the root)
//!   with document-order comparison, ancestor tests and longest-common-prefix
//!   (LCA) computation, computed on demand by [`Document::dewey`] (tests and
//!   oracles; the search algorithms run on intervals).
//! * [`dtd`] — an internal-subset DTD parser. Its main product is the set of
//!   `*`-nodes (elements that may repeat under a parent), which the paper's
//!   Data Analyzer uses to classify nodes into entities / attributes /
//!   connection nodes.
//! * [`schema`] — structural summary inference for documents without a DTD:
//!   a DataGuide-style path summary recording, per label path, whether
//!   siblings with that label ever repeat.
//! * [`serialize`] — compact and pretty printers.
//! * [`path`] — a tiny path-expression language (`/a/b`, `//label`, `*`)
//!   used by tests, examples and the data generators.
//! * [`builder`] — an ergonomic programmatic document builder.
//!
//! # Quick example
//!
//! ```
//! use extract_xml::Document;
//!
//! let doc = Document::parse_str(
//!     "<store><name>Levis</name><city>Austin</city></store>",
//! ).unwrap();
//! let root = doc.root();
//! assert_eq!(doc.label_str(root), Some("store"));
//! assert_eq!(doc.children(root).count(), 2);
//! let name = doc.children(root).next().unwrap();
//! assert_eq!(doc.text_of(name), Some("Levis"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod dewey;
pub mod document;
pub mod dtd;
pub mod error;
pub mod escape;
pub mod parser;
pub mod path;
pub mod schema;
pub mod serialize;
pub mod stats;
pub mod symbol;
pub mod tokenizer;

pub use builder::DocBuilder;
pub use dewey::Dewey;
pub use document::{ChildNodes, Document, NodeId, NodeKind};
pub use dtd::Dtd;
pub use error::{Error, Position, Result};
pub use parser::ParseOptions;
pub use schema::{PathId, Schema};
pub use symbol::{Symbol, SymbolTable, SYMBOL_ENTRY_OVERHEAD};

/// Dense-index → `u32` id, loud on overflow: nodes, labels and label paths
/// are addressed with `u32`, so a document past 4 billion of any of them
/// cannot be represented — truncating instead of panicking would alias
/// ids (and corrupt subtree intervals) silently.
pub(crate) fn id32(index: usize) -> u32 {
    u32::try_from(index).expect("dense id exceeds u32::MAX")
}
