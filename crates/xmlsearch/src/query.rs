//! Keyword query parsing.

use std::collections::HashSet;

use extract_index::{tokenize, tokens_of, XmlIndex};
use extract_xml::NodeId;

/// A parsed keyword query: normalized tokens, duplicates removed, original
/// order preserved. The order matters downstream — the IList is initialized
//  with the query keywords in this order (paper §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordQuery {
    keywords: Vec<String>,
}

/// Drop every token equal to an earlier one, keeping first positions:
/// one set lookup a token, so a client's 8 KiB query costs linear time,
/// not quadratic.
fn dedup_keep_first(tokens: &mut Vec<String>) {
    let keep: Vec<bool> = {
        let mut seen = HashSet::with_capacity(tokens.len());
        tokens.iter().map(|t| seen.insert(t.as_str())).collect()
    };
    let mut flags = keep.into_iter();
    tokens.retain(|_| flags.next().unwrap_or(false));
}

impl KeywordQuery {
    /// Parse free text like `"Texas, apparel, retailer"`.
    pub fn parse(text: &str) -> KeywordQuery {
        let mut keywords = tokenize(text);
        dedup_keep_first(&mut keywords);
        KeywordQuery { keywords }
    }

    /// Build from keywords supplied one per item (used by generators and
    /// tests). Each item runs through the same tokenizer as
    /// [`KeywordQuery::parse`], so an item like `"Brook Brothers"` or
    /// `"open_auction"` contributes its normalized tokens rather than one
    /// un-normalized pseudo-keyword — every constructor yields the same
    /// canonical form for the same keyword bag, which the snippet cache key
    /// relies on (it used to skip tokenization, so `["a b"]` aliased the
    /// two-keyword query `"a b"` in the cache while matching nothing in the
    /// index).
    pub fn from_keywords<I: IntoIterator<Item = S>, S: Into<String>>(iter: I) -> KeywordQuery {
        let mut keywords: Vec<String> = Vec::new();
        for k in iter {
            keywords.extend(tokens_of(&k.into()));
        }
        dedup_keep_first(&mut keywords);
        KeywordQuery { keywords }
    }

    /// The normalized keywords in query order.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// The keywords' posting lists in `index`, in query order (an empty
    /// list for a keyword the index lacks) — what every search stage
    /// reads.
    pub fn lists<'i>(&self, index: &'i XmlIndex) -> Vec<&'i [NodeId]> {
        self.keywords.iter().map(|k| index.postings(k)).collect()
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Whether the query has no keywords.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }
}

impl std::fmt::Display for KeywordQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, k) in self.keywords.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let q = KeywordQuery::parse("Texas, apparel, Retailer");
        assert_eq!(q.keywords(), &["texas", "apparel", "retailer"]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn duplicates_are_removed_keeping_first_position() {
        let q = KeywordQuery::parse("store texas Store");
        assert_eq!(q.keywords(), &["store", "texas"]);
    }

    #[test]
    fn empty_query() {
        let q = KeywordQuery::parse("  ,;  ");
        assert!(q.is_empty());
    }

    #[test]
    fn from_keywords_normalizes_too() {
        let q = KeywordQuery::from_keywords(["Store", "TEXAS", "store", ""]);
        assert_eq!(q.keywords(), &["store", "texas"]);
    }

    #[test]
    fn from_keywords_tokenizes_multiword_items() {
        // Regression: un-tokenized items used to survive verbatim, so
        // ["a b"] produced a query whose display form collided with the
        // genuinely two-keyword query "a b" in cache keys while matching
        // nothing in the index (postings are single tokens).
        let q = KeywordQuery::from_keywords(["Brook Brothers", "open_auction-1"]);
        assert_eq!(q.keywords(), &["brook", "brothers", "open", "auction", "1"]);
        assert_eq!(
            KeywordQuery::from_keywords(["store texas"]),
            KeywordQuery::parse("store texas")
        );
    }

    /// The deduplication every constructor ran before the set: a linear
    /// `contains` per token.
    fn contains_dedup(tokens: Vec<String>) -> Vec<String> {
        let mut keywords: Vec<String> = Vec::new();
        for tok in tokens {
            if !keywords.contains(&tok) {
                keywords.push(tok);
            }
        }
        keywords
    }

    #[test]
    fn a_large_query_dedups_like_the_linear_scan() {
        // ~8 KiB of text: 1 500 tokens drawn from 600 distinct words, in
        // mixed case and with non-ASCII ones, so most repeat and the first
        // position of each is somewhere in the middle.
        let words: Vec<String> = (0..600)
            .map(|i| match i % 3 {
                0 => format!("Word{i}"),
                1 => format!("wörd{i}"),
                _ => format!("W{i}X"),
            })
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let text: String = (0..1_500)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                format!("{} ", words[(state % 600) as usize])
            })
            .collect();
        let parsed = KeywordQuery::parse(&text);
        assert!(parsed.len() > 500 && parsed.len() < 600, "{}", parsed.len());
        assert_eq!(parsed.keywords(), contains_dedup(tokenize(&text)));
        let items: Vec<&str> = text.split(' ').collect();
        assert_eq!(KeywordQuery::from_keywords(items), parsed);
    }

    #[test]
    fn display_joins_with_spaces() {
        let q = KeywordQuery::parse("store texas");
        assert_eq!(q.to_string(), "store texas");
    }
}
