//! A borrowed-token XML lexer.
//!
//! The tokenizer yields a flat sequence of [`Token`]s — start/end tags,
//! character data, comments, CDATA sections, processing instructions, and
//! the raw text of a `<!DOCTYPE ...>` declaration (handed to [`crate::dtd`]
//! for parsing). Every token borrows from the input: names, raw text and
//! attribute values are slices of it, so lexing allocates nothing and the
//! parser writes unescaped content straight into the document's text
//! buffer. Tokens carry the byte offset where they start; a line:column
//! [`Position`] is computed only when an error needs one.
//!
//! A start tag is lexed whole — every attribute checked, entity references
//! included — before it is returned, so a malformed tag is reported before
//! anything the parser would say about the element. The tag's
//! [`Attributes`] then replay the checked region.
//!
//! Scope: the subset of XML 1.0 used by data-oriented documents — no
//! external entities, no namespaces-aware processing (prefixed names are
//! kept verbatim as labels).

use crate::error::{Error, Position, Result};
use crate::escape::{unescape_into, Discard};

/// One lexical token of an XML document, borrowing from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: &'a str,
        /// Attributes in source order, values still escaped.
        attributes: Attributes<'a>,
        /// Whether the tag was self-closing (`<a/>`).
        self_closing: bool,
        /// Offset of the `<`.
        offset: usize,
    },
    /// `</name>`.
    EndTag {
        /// Element name.
        name: &'a str,
        /// Offset of the `<`.
        offset: usize,
    },
    /// Character data between tags, still escaped: resolve it with
    /// [`crate::escape::unescape_into`].
    Text {
        /// Raw text content.
        raw: &'a str,
        /// Offset of the first character.
        offset: usize,
    },
    /// `<!-- ... -->` (content without the delimiters).
    Comment {
        /// Comment body.
        content: &'a str,
        /// Offset of the `<`.
        offset: usize,
    },
    /// `<![CDATA[ ... ]]>` content, delivered verbatim.
    CData {
        /// Raw CDATA content.
        content: &'a str,
        /// Offset of the `<`.
        offset: usize,
    },
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target (e.g. `xml` for the declaration).
        target: &'a str,
        /// Everything between the target and `?>`, trimmed.
        data: &'a str,
        /// Offset of the `<`.
        offset: usize,
    },
    /// `<!DOCTYPE root [ ... ]>` — `name` is the declared root, `internal`
    /// the raw internal subset (may be empty).
    Doctype {
        /// Declared document element name.
        name: &'a str,
        /// Raw internal subset between `[` and `]`, if present.
        internal: &'a str,
        /// Offset of the `<`.
        offset: usize,
    },
}

impl Token<'_> {
    /// The byte offset at which the token starts.
    pub fn offset(&self) -> usize {
        match self {
            Token::StartTag { offset, .. }
            | Token::EndTag { offset, .. }
            | Token::Text { offset, .. }
            | Token::Comment { offset, .. }
            | Token::CData { offset, .. }
            | Token::ProcessingInstruction { offset, .. }
            | Token::Doctype { offset, .. } => *offset,
        }
    }
}

/// One attribute of a start tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name.
    pub name: &'a str,
    /// The value between the quotes, still escaped (its references were
    /// checked when the tag was lexed).
    pub value: &'a str,
    /// Offset of the value's first character.
    pub offset: usize,
}

/// The attributes of a start tag: a replay of the region the lexer already
/// checked, one [`Attribute`] at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attributes<'a> {
    cursor: Cursor<'a>,
    end: usize,
}

impl<'a> Iterator for Attributes<'a> {
    type Item = Result<Attribute<'a>>;

    fn next(&mut self) -> Option<Result<Attribute<'a>>> {
        self.cursor.skip_whitespace();
        (self.cursor.at < self.end).then(|| self.cursor.attribute())
    }
}

/// A byte position in the input. Markup is ASCII, so every position the
/// lexer stops at between tokens is a character boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor<'a> {
    src: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.at + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    /// The input from the cursor on.
    fn rest(&self) -> &'a str {
        self.src.get(self.at..).unwrap_or_default()
    }

    /// The input from `start` to the cursor.
    fn since(&self, start: usize) -> &'a str {
        self.src.get(start..self.at).unwrap_or_default()
    }

    fn eat(&mut self, s: &str) -> bool {
        let found = self.rest().starts_with(s);
        if found {
            self.at += s.len();
        }
        found
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn position(&self) -> Position {
        Position::locate(self.src, self.at)
    }

    fn syntax(&self, message: impl Into<String>) -> Error {
        Error::syntax(message, self.position())
    }

    fn eof(&self, expected: &str) -> Error {
        Error::UnexpectedEof { expected: expected.to_string(), position: self.position() }
    }

    /// The text up to `delim`, consuming the delimiter; at end of input
    /// without one, the cursor is left there and the error names `expected`.
    fn take_until(&mut self, delim: &str, expected: &str) -> Result<&'a str> {
        let start = self.at;
        match self.rest().find(delim) {
            Some(len) => {
                self.at += len;
                let content = self.since(start);
                self.at += delim.len();
                Ok(content)
            }
            None => {
                self.at = self.src.len();
                Err(self.eof(expected))
            }
        }
    }

    fn name(&mut self) -> Result<&'a str> {
        let start = self.at;
        if !self.peek().is_some_and(is_name_start) {
            return Err(self.syntax("expected a name"));
        }
        self.at += 1;
        while self.peek().is_some_and(is_name_char) {
            self.at += 1;
        }
        Ok(self.since(start))
    }

    /// A quoted value, its references checked; returns the raw value and
    /// its offset.
    fn quoted(&mut self) -> Result<(&'a str, usize)> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.syntax("expected a quoted value")),
        };
        self.at += 1;
        let start = self.at;
        match self.rest().bytes().position(|b| b == quote) {
            Some(len) => {
                self.at += len;
                let raw = self.since(start);
                self.at += 1;
                unescape_into(raw, &mut Discard).map_err(|reference| Error::BadReference {
                    reference,
                    position: Position::locate(self.src, start),
                })?;
                Ok((raw, start))
            }
            None => {
                self.at = self.src.len();
                Err(self.eof("closing quote"))
            }
        }
    }

    /// `name = "value"`.
    fn attribute(&mut self) -> Result<Attribute<'a>> {
        let name = self.name()?;
        self.skip_whitespace();
        if self.bump() != Some(b'=') {
            return Err(self.syntax(format!("expected `=` after attribute `{name}`")));
        }
        self.skip_whitespace();
        let (value, offset) = self.quoted()?;
        Ok(Attribute { name, value, offset })
    }
}

/// Streaming tokenizer over an input string.
pub struct Tokenizer<'a> {
    cursor: Cursor<'a>,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `source`.
    pub fn new(source: &'a str) -> Self {
        Tokenizer { cursor: Cursor { src: source, at: 0 } }
    }

    /// Tokenize the entire input into a vector.
    pub fn tokenize_all(source: &'a str) -> Result<Vec<Token<'a>>> {
        let mut t = Tokenizer::new(source);
        let mut out = Vec::new();
        while let Some(tok) = t.next_token()? {
            out.push(tok);
        }
        Ok(out)
    }

    /// Produce the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let c = &mut self.cursor;
        let offset = c.at;
        let token = match (c.peek(), c.peek_at(1)) {
            (None, _) => return Ok(None),
            (Some(b'<'), Some(b'/')) => {
                c.at += 2;
                let name = c.name()?;
                c.skip_whitespace();
                if c.bump() != Some(b'>') {
                    return Err(c.syntax("expected `>` in close tag"));
                }
                Token::EndTag { name, offset }
            }
            (Some(b'<'), Some(b'!')) => self.bang(offset)?,
            (Some(b'<'), Some(b'?')) => {
                c.at += 2;
                let target = c.name()?;
                let data = c.take_until("?>", "`?>`")?.trim();
                Token::ProcessingInstruction { target, data, offset }
            }
            (Some(b'<'), _) => {
                c.at += 1;
                self.start_tag(offset)?
            }
            (Some(_), _) => {
                c.at += c.rest().find('<').unwrap_or(c.rest().len());
                Token::Text { raw: c.since(offset), offset }
            }
        };
        Ok(Some(token))
    }

    fn start_tag(&mut self, offset: usize) -> Result<Token<'a>> {
        let c = &mut self.cursor;
        let name = c.name()?;
        let region = *c;
        loop {
            c.skip_whitespace();
            let self_closing = match c.peek() {
                None => return Err(c.eof("`>` to close the tag")),
                Some(b'>') => false,
                Some(b'/') => true,
                Some(_) => {
                    c.attribute()?;
                    continue;
                }
            };
            let attributes = Attributes { cursor: region, end: c.at };
            c.at += 1;
            if self_closing && c.bump() != Some(b'>') {
                return Err(c.syntax("expected `>` after `/`"));
            }
            return Ok(Token::StartTag { name, attributes, self_closing, offset });
        }
    }

    fn bang(&mut self, offset: usize) -> Result<Token<'a>> {
        let c = &mut self.cursor;
        if c.eat("<!--") {
            let content = c.take_until("-->", "`-->`")?;
            return Ok(Token::Comment { content, offset });
        }
        if c.eat("<![CDATA[") {
            let content = c.take_until("]]>", "`]]>`")?;
            return Ok(Token::CData { content, offset });
        }
        if c.eat("<!DOCTYPE") {
            c.skip_whitespace();
            let name = c.name()?;
            c.skip_whitespace();
            // Skip optional external-ID keywords; we do not fetch externals.
            while let Some(b) = c.peek() {
                match b {
                    b'[' | b'>' => break,
                    b'"' | b'\'' => {
                        c.quoted()?;
                    }
                    _ => c.at += 1,
                }
            }
            let mut internal = "";
            if c.peek() == Some(b'[') {
                c.at += 1;
                internal = c.take_until("]", "`]` to close the internal subset")?;
                c.skip_whitespace();
            }
            if c.bump() != Some(b'>') {
                return Err(c.syntax("expected `>` to close DOCTYPE"));
            }
            return Ok(Token::Doctype { name, internal, offset });
        }
        Err(Error::syntax("unrecognized markup after `<!`", Position::locate(c.src, offset)))
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token<'_>> {
        Tokenizer::tokenize_all(s).unwrap()
    }

    fn attributes<'a>(token: &Token<'a>) -> Vec<(&'a str, &'a str)> {
        match token {
            Token::StartTag { attributes, .. } => {
                attributes.clone().map(|a| a.map(|a| (a.name, a.value)).unwrap()).collect()
            }
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn simple_element() {
        let toks = lex("<a>hi</a>");
        assert_eq!(toks.len(), 3);
        assert!(matches!(&toks[0], Token::StartTag { name: "a", self_closing: false, .. }));
        assert!(matches!(&toks[1], Token::Text { raw: "hi", offset: 3 }));
        assert!(matches!(&toks[2], Token::EndTag { name: "a", offset: 5 }));
    }

    #[test]
    fn self_closing_and_attributes() {
        let toks = lex(r#"<store id="s1" city='Houston'/>"#);
        assert!(matches!(&toks[0], Token::StartTag { name: "store", self_closing: true, .. }));
        assert_eq!(attributes(&toks[0]), vec![("id", "s1"), ("city", "Houston")]);
    }

    #[test]
    fn attribute_values_are_unescaped() {
        let toks = lex(r#"<a v="x &amp; y"/>"#);
        let Token::StartTag { attributes, .. } = &toks[0] else { panic!("{:?}", toks[0]) };
        let value = attributes.clone().next().unwrap().unwrap();
        assert_eq!((value.value, value.offset), ("x &amp; y", 6));
        let mut out = String::new();
        unescape_into(value.value, &mut out).unwrap();
        assert_eq!(out, "x & y");
        // A bad reference fails the tag, at the value.
        let err = Tokenizer::tokenize_all("<a>\n<b v='&bogus;'/></a>").unwrap_err();
        assert!(matches!(
            err,
            Error::BadReference { position: Position { line: 2, column: 7, .. }, .. }
        ));
    }

    #[test]
    fn text_is_unescaped() {
        let toks = lex("<a>x &lt; y &#65;</a>");
        let Token::Text { raw, .. } = toks[1] else { panic!("{:?}", toks[1]) };
        let mut out = String::new();
        unescape_into(raw, &mut out).unwrap();
        assert_eq!(out, "x < y A");
    }

    #[test]
    fn comments_cdata_pi() {
        let toks = lex("<a><!-- note --><![CDATA[1<2]]><?php echo?></a>");
        assert!(matches!(&toks[1], Token::Comment { content: " note ", .. }));
        assert!(matches!(&toks[2], Token::CData { content: "1<2", .. }));
        assert!(matches!(
            &toks[3],
            Token::ProcessingInstruction { target: "php", data: "echo", .. }
        ));
    }

    #[test]
    fn xml_declaration_is_a_pi() {
        let toks = lex(r#"<?xml version="1.0"?><a/>"#);
        assert!(matches!(&toks[0], Token::ProcessingInstruction { target: "xml", .. }));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let toks = lex("<!DOCTYPE store [<!ELEMENT store (name)>]><store><name>x</name></store>");
        match &toks[0] {
            Token::Doctype { name, internal, .. } => {
                assert_eq!(*name, "store");
                assert!(internal.contains("<!ELEMENT store (name)>"));
            }
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn doctype_with_external_id_is_skipped() {
        let toks = lex(r#"<!DOCTYPE html PUBLIC "-//W3C//DTD" "http://x"><html/>"#);
        assert!(matches!(&toks[0], Token::Doctype { name: "html", internal: "", .. }));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = Tokenizer::tokenize_all("<a>\n<b oops></a>").unwrap_err();
        match err {
            Error::Syntax { position, .. } => {
                assert_eq!(position.line, 2);
            }
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(Tokenizer::tokenize_all("<a>text").is_ok()); // tag matching is the parser's job
        assert!(Tokenizer::tokenize_all("<!-- never closed").is_err());
        assert!(Tokenizer::tokenize_all("<![CDATA[ open").is_err());
        assert!(Tokenizer::tokenize_all("<a attr=\"unclosed>").is_err());
    }

    #[test]
    fn names_allow_xml_charset() {
        let toks = lex("<ns:open_auction-1.x/>");
        assert!(matches!(&toks[0], Token::StartTag { name: "ns:open_auction-1.x", .. }));
    }

    #[test]
    fn whitespace_inside_tags_is_flexible() {
        let toks = lex("<a  b = \"1\"  ></a >");
        assert_eq!(attributes(&toks[0]), vec![("b", "1")]);
        assert!(matches!(&toks[1], Token::EndTag { name: "a", .. }));
    }

    #[test]
    fn tokens_borrow_the_input_across_multibyte_text() {
        let src = "<é a='ü'>日本&amp;<b/>€</é>";
        let toks = lex(src);
        assert!(matches!(&toks[0], Token::StartTag { name: "é", .. }));
        assert_eq!(attributes(&toks[0]), vec![("a", "ü")]);
        assert!(matches!(&toks[1], Token::Text { raw: "日本&amp;", .. }));
        assert!(matches!(&toks[3], Token::Text { raw: "€", .. }));
        assert_eq!(toks.last().map(Token::offset), src.rfind("</"));
    }
}
