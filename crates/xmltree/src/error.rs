//! Error types shared across the XML substrate.

use std::fmt;

/// A line/column position inside the input text (1-based), kept on every
/// syntax error so that malformed generated workloads are easy to debug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes within the line).
    pub column: u32,
    /// Absolute byte offset from the start of the input.
    pub offset: usize,
}

impl Position {
    /// The position of the very first byte.
    pub fn start() -> Self {
        Position { line: 1, column: 1, offset: 0 }
    }

    /// The position of byte `offset` of `source`: what [`Position::advance`]
    /// over every byte before it arrives at, computed only when an error
    /// needs it (line and column saturate at `u32::MAX`).
    pub fn locate(source: &str, offset: usize) -> Position {
        let before = source.as_bytes().get(..offset).unwrap_or(source.as_bytes());
        let newlines = before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let to_u32 = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Position {
            line: to_u32(newlines).saturating_add(1),
            column: to_u32(before.len() - line_start).saturating_add(1),
            offset: before.len(),
        }
    }

    /// Advance the position over one byte of input.
    pub fn advance(&mut self, byte: u8) {
        self.offset += 1;
        if byte == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Errors produced by the tokenizer, parser, DTD parser and path engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexical error: unexpected byte or malformed construct.
    Syntax {
        /// Human-readable description of what went wrong.
        message: String,
        /// Where in the input the problem was detected.
        position: Position,
    },
    /// A close tag did not match the innermost open tag.
    MismatchedTag {
        /// The element name that was open.
        expected: String,
        /// The element name found in the close tag.
        found: String,
        /// Where the close tag appeared.
        position: Position,
    },
    /// The input ended while constructs were still open.
    UnexpectedEof {
        /// Description of what was still expected.
        expected: String,
        /// Position of the end of input.
        position: Position,
    },
    /// The document has no root element, or text outside the root.
    NoRootElement,
    /// More than one top-level element.
    MultipleRoots {
        /// Position of the second root element.
        position: Position,
    },
    /// An unknown or malformed character/entity reference.
    BadReference {
        /// The raw reference text (without `&`/`;`).
        reference: String,
        /// Where the reference appeared.
        position: Position,
    },
    /// Element nesting exceeded the configured maximum depth.
    TooDeep {
        /// The configured limit that was exceeded.
        limit: usize,
        /// Where the limit was exceeded.
        position: Position,
    },
    /// Error inside a `<!DOCTYPE ...>` internal subset.
    Dtd {
        /// Human-readable description.
        message: String,
        /// Where in the DTD text the problem was detected.
        position: Position,
    },
    /// Malformed path expression passed to [`crate::path`].
    BadPath {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { message, position } => {
                write!(f, "XML syntax error at {position}: {message}")
            }
            Error::MismatchedTag { expected, found, position } => write!(
                f,
                "mismatched close tag at {position}: expected </{expected}>, found </{found}>"
            ),
            Error::UnexpectedEof { expected, position } => {
                write!(f, "unexpected end of input at {position}: expected {expected}")
            }
            Error::NoRootElement => write!(f, "document has no root element"),
            Error::MultipleRoots { position } => {
                write!(f, "second root element at {position}; documents must have one root")
            }
            Error::BadReference { reference, position } => {
                write!(f, "bad entity/character reference `&{reference};` at {position}")
            }
            Error::TooDeep { limit, position } => {
                write!(f, "element nesting exceeds the limit of {limit} at {position}")
            }
            Error::Dtd { message, position } => {
                write!(f, "DTD error at {position}: {message}")
            }
            Error::BadPath { message } => write!(f, "bad path expression: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T, E = Error> = std::result::Result<T, E>;

impl Error {
    /// Construct a syntax error at a position.
    pub fn syntax(message: impl Into<String>, position: Position) -> Self {
        Error::Syntax { message: message.into(), position }
    }

    /// Construct a DTD error at a position.
    pub fn dtd(message: impl Into<String>, position: Position) -> Self {
        Error::Dtd { message: message.into(), position }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_advances_over_newlines() {
        let mut p = Position::start();
        for b in b"ab\ncd" {
            p.advance(*b);
        }
        assert_eq!(p.line, 2);
        assert_eq!(p.column, 3);
        assert_eq!(p.offset, 5);
    }

    #[test]
    fn locate_agrees_with_advancing_byte_by_byte() {
        let src = "<a>\né\r\n\n  <b x='ü'/>\n</a>";
        let mut walked = Position::start();
        for (offset, &b) in src.as_bytes().iter().enumerate() {
            assert_eq!(Position::locate(src, offset), walked, "offset {offset}");
            walked.advance(b);
        }
        assert_eq!(Position::locate(src, src.len()), walked);
    }

    #[test]
    fn position_displays_line_colon_column() {
        let p = Position { line: 3, column: 14, offset: 99 };
        assert_eq!(p.to_string(), "3:14");
    }

    #[test]
    fn error_display_is_informative() {
        let e = Error::MismatchedTag {
            expected: "store".into(),
            found: "shop".into(),
            position: Position { line: 2, column: 5, offset: 40 },
        };
        let s = e.to_string();
        assert!(s.contains("</store>"), "{s}");
        assert!(s.contains("</shop>"), "{s}");
        assert!(s.contains("2:5"), "{s}");
    }

    #[test]
    fn syntax_helper_builds_variant() {
        let e = Error::syntax("oops", Position::start());
        assert!(matches!(e, Error::Syntax { .. }));
        assert!(e.to_string().contains("oops"));
    }
}
