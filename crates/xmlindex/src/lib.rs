//! Index Builder for the eXtract reproduction (paper §3, Figure 4).
//!
//! "The Index Builder builds indexes for efficiently retrieving matches to
//! user input keywords, as well as the information about node category, and
//! parent-children relationship." This crate provides:
//!
//! * [`tokenize`] — the keyword normalization shared by indexing and query
//!   parsing (lowercased alphanumeric runs);
//! * [`InvertedIndex`] — keyword → postings of matching **element** nodes in
//!   document order (an element matches a token if its label or the text it
//!   directly contains produces that token);
//! * [`XmlIndex`] — the facade bundling all of the above for one document;
//! * [`sharded`] — the corpus-scale layer consumed by `extract-corpus`:
//!   generational [`DocId`]s and the token → document directory over
//!   per-document segments, edited one document at a time.
//!
//! ```
//! use extract_xml::Document;
//! use extract_index::XmlIndex;
//!
//! let doc = Document::parse_str(
//!     "<store><name>Levis</name><city>Houston</city></store>").unwrap();
//! let index = XmlIndex::build(&doc);
//! assert_eq!(index.postings("levis").len(), 1);   // the <name> element
//! assert_eq!(index.postings("store").len(), 1);   // label match
//! assert!(index.postings("dallas").is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod inverted;
pub mod sharded;
pub mod tokenize;

pub use inverted::{InvertedIndex, TokenId};
pub use sharded::{DocId, FanIn, ShardedPostings, ShardedPostingsBuilder};
pub use tokenize::{tokenize, tokens_of};

use extract_xml::{Document, NodeId};

/// All per-document indexes bundled together. Structure — ancestry,
/// subtree intervals, LCAs — is the document's own (`extract_xml`'s
/// preorder ids and `subtree_end` column); the index holds only what
/// keyword lookups need (a label's tokens are keywords too).
#[derive(Debug)]
pub struct XmlIndex {
    inverted: InvertedIndex,
}

impl XmlIndex {
    /// Build the index for `doc`.
    pub fn build(doc: &Document) -> XmlIndex {
        XmlIndex { inverted: InvertedIndex::build(doc) }
    }

    /// The inverted keyword index.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Postings (matching element nodes, document order) for a normalized
    /// token. Returns an empty slice for unknown tokens.
    pub fn postings(&self, token: &str) -> &[NodeId] {
        self.inverted.postings(token)
    }

    /// Resolve a normalized token to its interned id (see
    /// [`InvertedIndex::token_id`]); later lookups through
    /// [`XmlIndex::postings_by_id`] skip string hashing entirely.
    pub fn token_id(&self, token: &str) -> Option<TokenId> {
        self.inverted.token_id(token)
    }

    /// Postings for an interned token id.
    pub fn postings_by_id(&self, id: TokenId) -> &[NodeId] {
        self.inverted.postings_by_id(id)
    }

    /// Estimated heap footprint in bytes (reported by the indexing
    /// experiment, E10).
    pub fn memory_footprint(&self) -> usize {
        self.inverted.memory_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_builds_all_indexes() {
        let doc = Document::parse_str(
            "<retailer><name>Brook Brothers</name><store><city>Houston</city></store></retailer>",
        )
        .unwrap();
        let idx = XmlIndex::build(&doc);
        assert_eq!(idx.postings("houston").len(), 1);
        assert_eq!(idx.postings("brook").len(), 1);
        assert_eq!(idx.postings("retailer").len(), 1);
        assert!(idx.memory_footprint() > 0);
    }
}
