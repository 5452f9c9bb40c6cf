//! Keyword normalization shared by the index builder and the query parser.
//!
//! A *token* is a maximal run of alphanumeric characters, lowercased. This
//! is the usual bag-of-words model for XML keyword search: "Brook Brothers"
//! yields `brook` and `brothers`; the label `open_auction` yields `open`
//! and `auction`.

/// Iterate over the normalized tokens of `text` without allocating a vector.
pub fn tokens_of(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| s.to_lowercase())
}

/// Collect the normalized tokens of `text`.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens_of(text).collect()
}

/// True if any token of `text` equals the (already normalized) `token`.
/// ASCII runs — labels, on data-oriented XML — are compared in place; only
/// a non-ASCII run is lowercased into a `String` first.
pub fn contains_token(text: &str, token: &str) -> bool {
    text.split(|c: char| !c.is_alphanumeric()).filter(|run| !run.is_empty()).any(|run| {
        if run.is_ascii() {
            run.len() == token.len()
                && run.bytes().zip(token.bytes()).all(|(r, t)| r.to_ascii_lowercase() == t)
        } else {
            run.to_lowercase() == token
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumerics() {
        assert_eq!(tokenize("Brook Brothers"), vec!["brook", "brothers"]);
        assert_eq!(tokenize("open_auction-1"), vec!["open", "auction", "1"]);
        assert_eq!(tokenize("  Texas,apparel;retailer "), vec!["texas", "apparel", "retailer"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("HOUSTON"), vec!["houston"]);
        assert_eq!(tokenize("ESprit"), vec!["esprit"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ///").is_empty());
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(tokenize("IIS-0740129"), vec!["iis", "0740129"]);
    }

    #[test]
    fn contains_token_is_exact_on_tokens() {
        assert!(contains_token("Brook Brothers", "brook"));
        assert!(!contains_token("Brookline", "brook"), "no substring matching");
        assert!(contains_token("category: outwear", "outwear"));
    }

    #[test]
    fn contains_token_agrees_with_tokens_of() {
        let texts = ["Brook Brothers", "open_auction-1", "NAÏVE café", "ΟΔΟΣ", "", "a", "İ x"];
        let tokens = ["brook", "auction", "1", "naïve", "café", "οδος", "a", "A", "Brook", "i̇", "x"];
        for text in texts {
            for token in tokens {
                let reference = tokens_of(text).any(|t| t == token);
                assert_eq!(contains_token(text, token), reference, "{text:?} / {token:?}");
            }
        }
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }
}
