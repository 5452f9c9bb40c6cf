//! Data Analyzer for the eXtract reproduction (paper §2.1–§2.3, Figure 4).
//!
//! "The Data Analyzer parses the input XML data and identifies the entities,
//! attributes and connection nodes." This crate implements that
//! classification plus the two analyses the snippet generator feeds on:
//!
//! * [`classify`] — the entity / attribute / connection node taxonomy of
//!   XSeek (Liu & Chen, SIGMOD 2007), driven by the DTD when present and by
//!   structural inference otherwise:
//!   - a node is an **entity** if it is a `*`-node (may repeat under its
//!     parent),
//!   - a non-`*` node whose children are text is an **attribute** (the node
//!     together with its value child),
//!   - everything else is a **connection** node;
//! * [`keys`] — key-attribute mining: for each entity type, find an
//!   attribute whose value uniquely identifies instances ("After mining the
//!   keys of entities in the data", §2.2);
//! * [`features`] — feature extraction and the per-result statistics
//!   `N(e,a,v)`, `N(e,a)`, `D(e,a)` that define dominance scores (§2.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classify;
pub mod features;
pub mod keys;

pub use classify::{EntityModel, NodeCategory};
pub use features::{FeatureTables, FeatureType, ResultStats, ValueCount, ValueStats};
pub use keys::KeyCatalog;
