//! Keyword normalization shared by the index builder and the query parser.
//!
//! A *token* is a maximal run of alphanumeric characters, lowercased. This
//! is the usual bag-of-words model for XML keyword search: "Brook Brothers"
//! yields `brook` and `brothers`; the label `open_auction` yields `open`
//! and `auction`.
//!
//! There is one splitter (`runs`) and one lowercasing rule: an ASCII run
//! is lowered byte by byte, a run with any other character by
//! `str::to_lowercase` (which lowers a final `Σ` to `ς`, as no per-character
//! rule can). The index builder lowers into one reused buffer
//! (`TokenBuffer`), so a document's tokens cost no allocation unless they
//! are non-ASCII; [`tokens_of`] and [`tokenize`] hand out owned strings.

/// The alphanumeric runs of `text` in order, not yet lowercased.
fn runs(text: &str) -> Runs<'_> {
    Runs { text, at: 0 }
}

/// The iterator of [`runs`]: an ASCII byte is classified as it is, and
/// only a non-ASCII byte is decoded into its character. Equal to
/// `text.split(|c: char| !c.is_alphanumeric())` without the empty pieces.
struct Runs<'a> {
    text: &'a str,
    /// A character boundary: where the next run's search starts.
    at: usize,
}

impl Runs<'_> {
    /// Whether the character at `at` is alphanumeric, and its length;
    /// `None` at the end of the text.
    fn class_at(&self) -> Option<(bool, usize)> {
        let &byte = self.text.as_bytes().get(self.at)?;
        if byte.is_ascii() {
            return Some((byte.is_ascii_alphanumeric(), 1));
        }
        let c = self.text.get(self.at..)?.chars().next()?;
        Some((c.is_alphanumeric(), c.len_utf8()))
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        loop {
            let (alphanumeric, len) = self.class_at()?;
            if alphanumeric {
                break;
            }
            self.at += len;
        }
        let start = self.at;
        while let Some((true, len)) = self.class_at() {
            self.at += len;
        }
        self.text.get(start..self.at)
    }
}

/// A reused lowercasing buffer: the index builder's tokenizer.
#[derive(Debug, Default)]
pub(crate) struct TokenBuffer {
    lowered: String,
}

impl TokenBuffer {
    /// Call `f` with each normalized token of `text`, in order. An ASCII
    /// run without capitals is lent as it is, one with capitals is lowered
    /// in the buffer; only a non-ASCII run allocates.
    pub(crate) fn for_each(&mut self, text: &str, mut f: impl FnMut(&str)) {
        for run in runs(text) {
            if !run.is_ascii() {
                f(&run.to_lowercase());
            } else if run.bytes().any(|b| b.is_ascii_uppercase()) {
                self.lowered.clear();
                self.lowered.push_str(run);
                self.lowered.make_ascii_lowercase();
                f(&self.lowered);
            } else {
                f(run);
            }
        }
    }
}

/// Iterate over the normalized tokens of `text` without allocating a vector.
pub fn tokens_of(text: &str) -> impl Iterator<Item = String> + '_ {
    runs(text).map(str::to_lowercase)
}

/// Collect the normalized tokens of `text`.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens_of(text).collect()
}

/// True if any token of `text` equals the (already normalized) `token`.
/// ASCII runs — labels, on data-oriented XML — are compared in place; only
/// a non-ASCII run is lowercased into a `String` first.
pub fn contains_token(text: &str, token: &str) -> bool {
    runs(text).any(|run| {
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
    fn the_buffer_yields_what_tokens_of_does() {
        let mut buffer = TokenBuffer::default();
        for text in ["Brook Brothers", "open_auction-1", "ΟΔΟΣ İx ẞ", "", "a\u{212A}b", "ab CD ef"] {
            let mut tokens = Vec::new();
            buffer.for_each(text, |t| tokens.push(t.to_string()));
            assert_eq!(tokens, tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }
}
