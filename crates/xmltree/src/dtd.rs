//! Internal-subset DTD parsing.
//!
//! The paper's Data Analyzer classifies nodes with the help of the DTD: "a
//! node is considered as an entity if it corresponds to a `*`-node in the
//! DTD" (§2.1). This module parses `<!ELEMENT ...>` declarations (content
//! models with `?`/`*`/`+`, sequences, choices, mixed content, `EMPTY`,
//! `ANY`) and answers the one question that matters downstream: *can child
//! label `c` occur more than once under parent label `p`?*
//! ([`Dtd::is_repeatable`]). `<!ATTLIST ...>` declarations are checked for
//! well-formedness and not kept: attributes play no part in that question.

use std::collections::HashMap;

use crate::error::{Error, Position, Result};

/// Maximum nesting depth of content-model groups. Real DTDs nest a
/// handful of levels; the limit exists so a malformed internal subset
/// (`((((…))))` with thousands of parens) surfaces as [`Error::Dtd`]
/// instead of exhausting the parser's call stack.
const MAX_PARTICLE_DEPTH: usize = 128;

/// Occurrence indicator on a content particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occurrence {
    /// Exactly once (no indicator).
    One,
    /// `?` — zero or one.
    Optional,
    /// `*` — zero or more.
    ZeroOrMore,
    /// `+` — one or more.
    OneOrMore,
}

impl Occurrence {
    /// Whether this indicator allows more than one occurrence.
    fn repeats(self) -> bool {
        matches!(self, Occurrence::ZeroOrMore | Occurrence::OneOrMore)
    }
}

/// A node of a content-model expression.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ParticleKind {
    /// A child element name.
    Name(String),
    /// `(a, b, c)` — sequence.
    Seq(Vec<ContentParticle>),
    /// `(a | b | c)` — choice.
    Choice(Vec<ContentParticle>),
}

/// A content particle with its occurrence indicator.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ContentParticle {
    /// The particle body.
    kind: ParticleKind,
    /// The trailing `?`/`*`/`+` (or none).
    occurrence: Occurrence,
}

/// The content model of an element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ContentModel {
    /// `EMPTY`.
    Empty,
    /// `ANY`.
    Any,
    /// `(#PCDATA)` or `(#PCDATA | a | b)*` — the listed element names may
    /// repeat freely.
    Mixed(Vec<String>),
    /// An element-content expression.
    Children(ContentParticle),
}

/// A parsed internal DTD subset.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    elements: HashMap<String, ContentModel>,
}

impl Dtd {
    /// Parse the internal subset text (the part between `[` and `]` of a
    /// DOCTYPE declaration).
    pub fn parse(internal: &str) -> Result<Dtd> {
        DtdParser::new(internal).parse()
    }

    /// Can `child` occur more than once under `parent`?
    ///
    /// Returns `None` if `parent` has no declaration (the analyzer then
    /// falls back to data-driven inference), `Some(true)` if the content
    /// model admits two or more `child` children, `Some(false)` otherwise.
    pub fn is_repeatable(&self, parent: &str, child: &str) -> Option<bool> {
        let model = self.elements.get(parent)?;
        Some(match model {
            ContentModel::Empty => false,
            ContentModel::Any => true,
            ContentModel::Mixed(names) => names.iter().any(|n| n == child),
            ContentModel::Children(p) => {
                let mut count = Count::Zero;
                max_occurrences(p, child, false, &mut count);
                count == Count::Many
            }
        })
    }
}

/// Saturating occurrence count: zero, exactly one, or more than one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Zero,
    One,
    Many,
}

impl Count {
    fn bump(&mut self) {
        *self = match *self {
            Count::Zero => Count::One,
            _ => Count::Many,
        };
    }
}

/// Walk the particle tree tracking whether an enclosing group repeats; any
/// occurrence of `target` inside a repeated context, or with its own `*`/`+`,
/// or appearing twice in a sequence, counts as "many".
fn max_occurrences(p: &ContentParticle, target: &str, enclosing_repeats: bool, count: &mut Count) {
    let repeats = enclosing_repeats || p.occurrence.repeats();
    match &p.kind {
        ParticleKind::Name(n) => {
            if n == target {
                if repeats {
                    *count = Count::Many;
                } else {
                    count.bump();
                }
            }
        }
        ParticleKind::Seq(parts) => {
            for part in parts {
                max_occurrences(part, target, repeats, count);
            }
        }
        ParticleKind::Choice(parts) => {
            // A choice contributes the maximum over its branches; evaluate
            // each branch from the current count and keep the worst case.
            let base = *count;
            let mut best = base;
            for part in parts {
                let mut branch = base;
                max_occurrences(part, target, repeats, &mut branch);
                if matches!(branch, Count::Many) || (branch == Count::One && best == Count::Zero) {
                    if branch == Count::Many {
                        best = Count::Many;
                    } else if best != Count::Many {
                        best = Count::One;
                    }
                }
            }
            *count = best;
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct DtdParser<'a> {
    input: &'a [u8],
    source: &'a str,
    pos: Position,
}

impl<'a> DtdParser<'a> {
    fn new(source: &'a str) -> Self {
        DtdParser { input: source.as_bytes(), source, pos: Position::start() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos.offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos.advance(b);
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos.offset..].starts_with(s.as_bytes())
    }

    fn consume_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::dtd(msg, self.pos)
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos.offset;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while let Some(b) = self.peek() {
            if is_name_char(b) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(self.source[start..self.pos.offset].to_string())
    }

    fn skip_until(&mut self, delim: u8) -> Result<()> {
        loop {
            match self.bump() {
                None => return Err(self.err(format!("expected `{}`", delim as char))),
                Some(b) if b == delim => return Ok(()),
                Some(b'"') => self.skip_quoted(b'"')?,
                Some(b'\'') => self.skip_quoted(b'\'')?,
                Some(_) => {}
            }
        }
    }

    fn skip_quoted(&mut self, quote: u8) -> Result<()> {
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated quoted literal")),
                Some(b) if b == quote => return Ok(()),
                Some(_) => {}
            }
        }
    }

    fn parse(mut self) -> Result<Dtd> {
        let mut dtd = Dtd::default();
        loop {
            self.skip_ws();
            if self.pos.offset >= self.input.len() {
                return Ok(dtd);
            }
            if self.consume_str("<!--") {
                // Comment inside the subset.
                loop {
                    if self.consume_str("-->") {
                        break;
                    }
                    if self.bump().is_none() {
                        return Err(self.err("unterminated comment"));
                    }
                }
                continue;
            }
            if self.consume_str("<!ELEMENT") {
                self.skip_ws();
                let name = self.read_name()?;
                self.skip_ws();
                let model = self.parse_content_model()?;
                self.skip_ws();
                if self.bump() != Some(b'>') {
                    return Err(self.err("expected `>` to close <!ELEMENT>"));
                }
                dtd.elements.insert(name, model);
                continue;
            }
            if self.consume_str("<!ATTLIST") {
                self.skip_ws();
                self.read_name()?;
                self.parse_attdefs()?;
                continue;
            }
            if self.consume_str("<!ENTITY") || self.consume_str("<!NOTATION") {
                self.skip_until(b'>')?;
                continue;
            }
            if self.consume_str("<?") {
                // Processing instruction in the subset.
                loop {
                    if self.consume_str("?>") {
                        break;
                    }
                    if self.bump().is_none() {
                        return Err(self.err("unterminated processing instruction"));
                    }
                }
                continue;
            }
            if self.peek() == Some(b'%') {
                // Parameter entity reference — skip to `;`.
                self.skip_until(b';')?;
                continue;
            }
            return Err(self.err("unrecognized declaration in internal subset"));
        }
    }

    fn parse_content_model(&mut self) -> Result<ContentModel> {
        if self.consume_str("EMPTY") {
            return Ok(ContentModel::Empty);
        }
        if self.consume_str("ANY") {
            return Ok(ContentModel::Any);
        }
        if self.peek() != Some(b'(') {
            return Err(self.err("expected `(`, EMPTY or ANY in content model"));
        }
        // Mixed content looks like `(#PCDATA ...)`; sniff ahead.
        let save = self.pos;
        self.bump(); // (
        self.skip_ws();
        if self.consume_str("#PCDATA") {
            let mut names = Vec::new();
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'|') => {
                        self.bump();
                        self.skip_ws();
                        names.push(self.read_name()?);
                    }
                    Some(b')') => {
                        self.bump();
                        // Optional trailing `*` (required when names listed).
                        if self.peek() == Some(b'*') {
                            self.bump();
                        } else if !names.is_empty() {
                            return Err(self.err("mixed content with names requires `)*`"));
                        }
                        return Ok(ContentModel::Mixed(names));
                    }
                    _ => return Err(self.err("expected `|` or `)` in mixed content")),
                }
            }
        }
        // Element content: rewind and parse the particle properly.
        self.pos = save;
        let particle = self.parse_particle(0)?;
        Ok(ContentModel::Children(particle))
    }

    fn parse_particle(&mut self, depth: usize) -> Result<ContentParticle> {
        // The particle grammar is recursive; a malformed subset like
        // `((((((…))))))` with thousands of parens must come back as a DTD
        // error, not blow the stack (this is reachable from
        // `Document::parse_str` through the DOCTYPE internal subset).
        if depth > MAX_PARTICLE_DEPTH {
            return Err(self.err(format!(
                "content model nests deeper than {MAX_PARTICLE_DEPTH} groups"
            )));
        }
        self.skip_ws();
        let kind = if self.peek() == Some(b'(') {
            self.bump();
            let first = self.parse_particle(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    let mut parts = vec![first];
                    while self.peek() == Some(b',') {
                        self.bump();
                        parts.push(self.parse_particle(depth + 1)?);
                        self.skip_ws();
                    }
                    if self.bump() != Some(b')') {
                        return Err(self.err("expected `)` after sequence"));
                    }
                    ParticleKind::Seq(parts)
                }
                Some(b'|') => {
                    let mut parts = vec![first];
                    while self.peek() == Some(b'|') {
                        self.bump();
                        parts.push(self.parse_particle(depth + 1)?);
                        self.skip_ws();
                    }
                    if self.bump() != Some(b')') {
                        return Err(self.err("expected `)` after choice"));
                    }
                    ParticleKind::Choice(parts)
                }
                Some(b')') => {
                    self.bump();
                    // Single-child group `(a)` — unwrap to a sequence of one.
                    ParticleKind::Seq(vec![first])
                }
                _ => return Err(self.err("expected `,`, `|` or `)` in content model")),
            }
        } else {
            ParticleKind::Name(self.read_name()?)
        };
        let occurrence = match self.peek() {
            Some(b'?') => {
                self.bump();
                Occurrence::Optional
            }
            Some(b'*') => {
                self.bump();
                Occurrence::ZeroOrMore
            }
            Some(b'+') => {
                self.bump();
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        };
        Ok(ContentParticle { kind, occurrence })
    }

    /// Check the attribute definitions of an `<!ATTLIST>` through its
    /// closing `>`: each is a name, a type (a name, an enumeration, or
    /// `NOTATION` and its enumeration) and a default declaration.
    fn parse_attdefs(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    return Ok(());
                }
                None => return Err(self.err("unterminated <!ATTLIST>")),
                _ => {}
            }
            self.read_name()?;
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.skip_until(b')')?;
            } else if self.read_name()? == "NOTATION" {
                self.skip_ws();
                if self.peek() == Some(b'(') {
                    self.skip_until(b')')?;
                }
            }
            self.skip_ws();
            if self.consume_str("#REQUIRED") || self.consume_str("#IMPLIED") {
                continue;
            }
            if self.consume_str("#FIXED") {
                self.skip_ws();
            }
            self.skip_literal()?;
        }
    }

    /// Skip a quoted default value.
    fn skip_literal(&mut self) -> Result<()> {
        let Some(quote @ (b'"' | b'\'')) = self.peek() else {
            return Err(self.err("expected a quoted default value"));
        };
        self.bump();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated default value")),
                Some(b) if b == quote => return Ok(()),
                Some(_) => {}
            }
        }
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

    const RETAILER_DTD: &str = "\
        <!ELEMENT retailer (name, product, store*)>\n\
        <!ELEMENT store (name, state, city, merchandises)>\n\
        <!ELEMENT merchandises (clothes+)>\n\
        <!ELEMENT clothes (fitting?, situation?, category*)>\n\
        <!ELEMENT name (#PCDATA)>\n\
        <!ELEMENT product (#PCDATA)>\n\
        <!ELEMENT state (#PCDATA)>\n\
        <!ELEMENT city (#PCDATA)>\n\
        <!ELEMENT fitting (#PCDATA)>\n\
        <!ELEMENT situation (#PCDATA)>\n\
        <!ELEMENT category (#PCDATA)>";

    #[test]
    fn parses_the_retailer_dtd() {
        let dtd = Dtd::parse(RETAILER_DTD).unwrap();
        assert!(dtd.elements.contains_key("retailer"));
        assert!(dtd.elements.contains_key("category"));
        assert_eq!(dtd.elements.len(), 11);
    }

    #[test]
    fn star_and_plus_children_are_repeatable() {
        let dtd = Dtd::parse(RETAILER_DTD).unwrap();
        assert_eq!(dtd.is_repeatable("retailer", "store"), Some(true));
        assert_eq!(dtd.is_repeatable("merchandises", "clothes"), Some(true));
        assert_eq!(dtd.is_repeatable("clothes", "category"), Some(true));
    }

    #[test]
    fn singleton_children_are_not_repeatable() {
        let dtd = Dtd::parse(RETAILER_DTD).unwrap();
        assert_eq!(dtd.is_repeatable("retailer", "name"), Some(false));
        assert_eq!(dtd.is_repeatable("store", "city"), Some(false));
        assert_eq!(dtd.is_repeatable("clothes", "fitting"), Some(false));
    }

    #[test]
    fn unknown_parent_returns_none() {
        let dtd = Dtd::parse(RETAILER_DTD).unwrap();
        assert_eq!(dtd.is_repeatable("warehouse", "anything"), None);
    }

    #[test]
    fn repeated_name_in_sequence_is_repeatable() {
        let dtd = Dtd::parse("<!ELEMENT a (b, c, b)>").unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "c"), Some(false));
    }

    #[test]
    fn repeated_group_makes_members_repeatable() {
        let dtd = Dtd::parse("<!ELEMENT a ((b | c)*, d)>").unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "c"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "d"), Some(false));
    }

    #[test]
    fn choice_does_not_double_count() {
        let dtd = Dtd::parse("<!ELEMENT a (b | b)>").unwrap();
        // Either branch yields one b; a choice is not a sequence.
        assert_eq!(dtd.is_repeatable("a", "b"), Some(false));
    }

    #[test]
    fn optional_is_not_repeatable() {
        let dtd = Dtd::parse("<!ELEMENT a (b?)>").unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(false));
    }

    #[test]
    fn mixed_content_names_are_repeatable() {
        let dtd = Dtd::parse("<!ELEMENT p (#PCDATA | em | strong)*>").unwrap();
        assert_eq!(dtd.is_repeatable("p", "em"), Some(true));
        assert_eq!(dtd.is_repeatable("p", "b"), Some(false));
    }

    #[test]
    fn pcdata_only_has_no_element_children() {
        let dtd = Dtd::parse("<!ELEMENT name (#PCDATA)>").unwrap();
        assert_eq!(dtd.is_repeatable("name", "x"), Some(false));
        assert!(matches!(dtd.elements.get("name"), Some(ContentModel::Mixed(v)) if v.is_empty()));
    }

    #[test]
    fn empty_and_any() {
        let dtd = Dtd::parse("<!ELEMENT e EMPTY><!ELEMENT a ANY>").unwrap();
        assert_eq!(dtd.is_repeatable("e", "x"), Some(false));
        assert_eq!(dtd.is_repeatable("a", "x"), Some(true));
    }

    #[test]
    fn an_element_declared_after_an_attlist_still_parses() {
        let dtd = Dtd::parse(
            "<!ATTLIST store id ID #REQUIRED\n\
                             city CDATA #IMPLIED\n\
                             kind (outlet|flagship) \"outlet\"\n\
                             code CDATA #FIXED 'x'>\n\
             <!ELEMENT store (item*)>",
        )
        .unwrap();
        assert_eq!(dtd.is_repeatable("store", "item"), Some(true));
    }

    #[test]
    fn malformed_attlists_stay_errors() {
        // The internal subset arrives with every /ingest body: an ATTLIST
        // the parser cannot read must be an error, whatever it keeps.
        let rejects = |subset: &str, why: &str| {
            let err = Dtd::parse(subset).unwrap_err();
            assert!(matches!(err, Error::Dtd { .. }), "{subset}: {err:?}");
            assert!(err.to_string().contains(why), "{subset}: {err}");
        };
        rejects("<!ATTLIST store id ID>", "expected a quoted default value");
        rejects("<!ATTLIST store kind CDATA \"outlet>", "unterminated default value");
        rejects("<!ATTLIST store id ID #REQUIRED", "unterminated <!ATTLIST>");
        rejects("<!ATTLIST store id ID #FIXED>", "expected a quoted default value");
        rejects("<!ATTLIST store kind (a|b \"a\">", "expected `)`");
        // A quoted `>` is part of its literal, not the declaration's end.
        rejects("<!ATTLIST store sign CDATA \"a > b\" oops>", "expected a name");
        let dtd = Dtd::parse("<!ATTLIST store sign CDATA 'a > b'><!ELEMENT store (x*)>")
            .unwrap();
        assert_eq!(dtd.is_repeatable("store", "x"), Some(true));
    }

    #[test]
    fn comments_entities_and_pe_refs_are_skipped() {
        let dtd = Dtd::parse(
            "<!-- the model -->\n\
             <!ENTITY % common \"id CDATA #IMPLIED\">\n\
             %common;\n\
             <!ELEMENT a (b*)>\n\
             <!ELEMENT b EMPTY>",
        )
        .unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(true));
    }

    #[test]
    fn nested_groups_parse() {
        let dtd = Dtd::parse("<!ELEMENT a ((b, (c | d)+)*, e?)>").unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "c"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "d"), Some(true));
        assert_eq!(dtd.is_repeatable("a", "e"), Some(false));
    }

    #[test]
    fn pathological_group_nesting_errors_instead_of_overflowing() {
        // Regression: the particle parser recursed once per `(`, so a
        // malformed subset with tens of thousands of parens crashed the
        // process with a stack overflow instead of returning Err. This is
        // reachable from `Document::parse_str` via the DOCTYPE subset.
        let deep = format!(
            "<!ELEMENT a {}b{}>",
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        let err = Dtd::parse(&deep).unwrap_err();
        assert!(matches!(err, Error::Dtd { .. }), "{err:?}");
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    #[test]
    fn reasonable_group_nesting_still_parses() {
        // Depth well under the limit keeps working.
        let depth = 32;
        let model = format!("{}b{}", "(".repeat(depth), ")".repeat(depth));
        let dtd = Dtd::parse(&format!("<!ELEMENT a {model}>")).unwrap();
        assert_eq!(dtd.is_repeatable("a", "b"), Some(false));
        // And just past the limit errors cleanly.
        let over = MAX_PARTICLE_DEPTH + 1;
        let model = format!("{}b{}", "(".repeat(over), ")".repeat(over));
        assert!(Dtd::parse(&format!("<!ELEMENT a {model}>")).is_err());
    }

    #[test]
    fn malformed_declarations_error() {
        assert!(Dtd::parse("<!ELEMENT a").is_err());
        assert!(Dtd::parse("<!ELEMENT a (b").is_err());
        assert!(Dtd::parse("<!BOGUS x>").is_err());
        assert!(Dtd::parse("<!ELEMENT a (#PCDATA | em)>").is_err(), "mixed with names needs )*");
    }
}
