//! Tree construction: one fold over the borrowed token stream, with
//! well-formedness checks.
//!
//! Each token lands in the document's columns as it is seen: start tags
//! intern their name and append an element, text is unescaped straight
//! into the text buffer (trimmed there, or dropped when blank), and the
//! subtree ends are derived once at the end. Nothing is allocated per node.

use crate::document::{Arena, Document, NodeId};
use crate::error::{Error, Position, Result};
use crate::escape::unescape_into;
use crate::symbol::SymbolTable;
use crate::tokenizer::{Token, Tokenizer};

/// Options controlling tree construction.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Materialize XML-syntax attributes (`<store city="Houston">`) as child
    /// elements with a single text child, placed before the element's other
    /// children. This matches the paper's uniform node model, where an
    /// *attribute* is an element with one text child (§2.1). Default: `true`.
    pub attributes_as_elements: bool,
    /// Keep whitespace-only text nodes. Default: `false` (they are
    /// formatting noise in data-oriented XML).
    pub keep_whitespace_text: bool,
    /// Trim leading/trailing whitespace from text content.
    /// Default: `true`.
    pub trim_text: bool,
    /// Maximum element nesting depth; guards against stack exhaustion in
    /// recursive consumers. Default: `1024`.
    pub max_depth: usize,
    /// Parse the internal DTD subset if a DOCTYPE is present.
    /// Default: `true`.
    pub parse_dtd: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            attributes_as_elements: true,
            keep_whitespace_text: false,
            trim_text: true,
            max_depth: 1024,
            parse_dtd: true,
        }
    }
}

/// Bytes of markup per node on data-oriented XML (≈13 on the generated
/// corpora): the node columns are sized from the input once, not grown.
const BYTES_PER_NODE: usize = 12;

/// Parse `source` into a [`Document`].
pub fn parse(source: &str, options: &ParseOptions) -> Result<Document> {
    let mut tokenizer = Tokenizer::new(source);
    let mut symbols = SymbolTable::with_capacity(64);
    let (mut doctype_name, mut dtd) = (None, None);
    let mut arena = Arena::with_capacity(source.len() / BYTES_PER_NODE + 1, source.len() / 3);
    // Stack of open elements.
    let mut stack: Vec<NodeId> = Vec::new();
    let mut has_root = false;
    let at = |offset: usize| Position::locate(source, offset);

    while let Some(token) = tokenizer.next_token()? {
        match token {
            Token::StartTag { name, attributes, self_closing, offset } => {
                if stack.is_empty() && has_root {
                    return Err(Error::MultipleRoots { position: at(offset) });
                }
                if stack.len() >= options.max_depth {
                    return Err(Error::TooDeep { limit: options.max_depth, position: at(offset) });
                }
                let id = arena.push_element(symbols.intern(name), stack.last().copied());
                has_root = true;
                if options.attributes_as_elements {
                    for attribute in attributes {
                        let attribute = attribute?;
                        let attr_id = arena.push_element(symbols.intern(attribute.name), Some(id));
                        let start = arena.text.len();
                        unescape_into(attribute.value, &mut arena.text)
                            .map_err(|reference| bad_reference(reference, at(attribute.offset)))?;
                        arena.push_text_from(start, attr_id, false);
                    }
                }
                if !self_closing {
                    stack.push(id);
                }
            }
            Token::EndTag { name, offset } => {
                let Some(open) = stack.pop() else {
                    return Err(Error::MismatchedTag {
                        expected: "(nothing open)".into(),
                        found: name.to_string(),
                        position: at(offset),
                    });
                };
                let open_label = label_str(&arena, &symbols, open);
                if open_label != name {
                    return Err(Error::MismatchedTag {
                        expected: open_label.to_string(),
                        found: name.to_string(),
                        position: at(offset),
                    });
                }
            }
            Token::Text { raw, offset } => {
                let start = arena.text.len();
                unescape_into(raw, &mut arena.text)
                    .map_err(|reference| bad_reference(reference, at(offset)))?;
                let blank = arena.text.get(start..).unwrap_or_default().trim().is_empty();
                match stack.last() {
                    Some(&parent) if !blank || options.keep_whitespace_text => {
                        if options.trim_text {
                            trim_tail(&mut arena.text, start);
                        }
                        arena.push_text_from(start, parent, true);
                    }
                    None if !blank => {
                        return Err(Error::syntax(
                            "character data outside the root element",
                            at(offset),
                        ));
                    }
                    _ => arena.text.truncate(start),
                }
            }
            Token::CData { content, .. } => {
                if let Some(&parent) = stack.last() {
                    let start = arena.text.len();
                    arena.text.push_str(content);
                    arena.push_text_from(start, parent, true);
                }
            }
            Token::Comment { .. } | Token::ProcessingInstruction { .. } => {}
            Token::Doctype { name, internal, offset } => {
                doctype_name = Some(name.to_string());
                if options.parse_dtd && !internal.trim().is_empty() {
                    let parsed = crate::dtd::Dtd::parse(internal).map_err(|e| match e {
                        Error::Dtd { message, .. } => Error::Dtd { message, position: at(offset) },
                        other => other,
                    })?;
                    dtd = Some(parsed);
                }
            }
        }
    }

    if let Some(&open) = stack.last() {
        return Err(Error::UnexpectedEof {
            expected: format!("</{}>", label_str(&arena, &symbols, open)),
            position: at(source.len()),
        });
    }
    if !has_root {
        return Err(Error::NoRootElement);
    }
    Ok(arena.finish(symbols, doctype_name, dtd))
}

fn bad_reference(reference: String, position: Position) -> Error {
    Error::BadReference { reference, position }
}

/// The label of open element `id`.
fn label_str<'s>(arena: &Arena, symbols: &'s SymbolTable, id: NodeId) -> &'s str {
    arena.label_of(id).and_then(|s| symbols.try_resolve(s)).unwrap_or_default()
}

/// Trim the whitespace around the content `text[start..]`, in place.
fn trim_tail(text: &mut String, start: usize) {
    let content = text.get(start..).unwrap_or_default();
    let lead = content.len() - content.trim_start().len();
    let kept = content.trim().len();
    text.truncate(start + lead + kept);
    if lead > 0 {
        text.replace_range(start..start + lead, "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let d = Document::parse_str("<a><b><c>x</c></b><b/></a>").unwrap();
        assert_eq!(d.label_str(d.root()), Some("a"));
        assert_eq!(d.elements_with_label("b").len(), 2);
        let c = d.first_element_with_label("c").unwrap();
        assert_eq!(d.text_of(c), Some("x"));
    }

    #[test]
    fn attributes_become_child_elements_by_default() {
        let d = Document::parse_str(r#"<store city="Houston"><name>L</name></store>"#).unwrap();
        let root = d.root();
        let kids: Vec<&str> = d.element_children(root).map(|c| d.label_str(c).unwrap()).collect();
        assert_eq!(kids, vec!["city", "name"], "attribute children come first");
        let city = d.first_element_with_label("city").unwrap();
        assert_eq!(d.text_of(city), Some("Houston"));
    }

    #[test]
    fn attributes_can_be_disabled() {
        let opts = ParseOptions { attributes_as_elements: false, ..Default::default() };
        let d = Document::parse_with(r#"<store city="Houston"/>"#, &opts).unwrap();
        assert_eq!(d.element_count(), 1);
    }

    #[test]
    fn whitespace_text_is_dropped_by_default() {
        let d = Document::parse_str("<a>\n  <b>x</b>\n</a>").unwrap();
        let root = d.root();
        assert_eq!(d.child_count(root), 1);
    }

    #[test]
    fn whitespace_can_be_kept() {
        let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
        let d = Document::parse_with("<a> <b>x</b> </a>", &opts).unwrap();
        assert_eq!(d.child_count(d.root()), 3);
    }

    #[test]
    fn text_is_trimmed_by_default() {
        let d = Document::parse_str("<a>  padded  </a>").unwrap();
        assert_eq!(d.text_of(d.root()), Some("padded"));
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let d = Document::parse_str("<a>one<![CDATA[ two]]></a>").unwrap();
        assert_eq!(d.text_of(d.root()), Some("one two"));
    }

    #[test]
    fn mismatched_tags_error() {
        let e = Document::parse_str("<a><b></a></b>").unwrap_err();
        assert!(matches!(e, Error::MismatchedTag { expected, found, .. }
            if expected == "b" && found == "a"));
    }

    #[test]
    fn unclosed_tag_errors() {
        let e = Document::parse_str("<a><b>").unwrap_err();
        assert!(matches!(e, Error::UnexpectedEof { expected, .. } if expected == "</b>"));
    }

    #[test]
    fn multiple_roots_error() {
        let e = Document::parse_str("<a/><b/>").unwrap_err();
        assert!(matches!(e, Error::MultipleRoots { .. }));
    }

    #[test]
    fn empty_input_is_no_root() {
        assert!(matches!(Document::parse_str(""), Err(Error::NoRootElement)));
        assert!(matches!(Document::parse_str("<!-- only a comment -->"), Err(Error::NoRootElement)));
    }

    #[test]
    fn text_outside_root_errors() {
        let e = Document::parse_str("<a/>stray").unwrap_err();
        assert!(matches!(e, Error::Syntax { .. }));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut s = String::new();
        for _ in 0..40 {
            s.push_str("<d>");
        }
        let opts = ParseOptions { max_depth: 32, ..Default::default() };
        let e = Document::parse_with(&s, &opts).unwrap_err();
        assert!(matches!(e, Error::TooDeep { limit: 32, .. }));
    }

    #[test]
    fn doctype_is_recorded_and_dtd_parsed() {
        let d = Document::parse_str(
            "<!DOCTYPE retailer [<!ELEMENT retailer (store*)><!ELEMENT store (#PCDATA)>]>\
             <retailer><store>x</store></retailer>",
        )
        .unwrap();
        assert_eq!(d.doctype_name(), Some("retailer"));
        let dtd = d.dtd().expect("dtd parsed");
        assert_eq!(dtd.is_repeatable("retailer", "store"), Some(true));
    }

    #[test]
    fn malformed_doctype_subset_fails_soft_not_fatal() {
        // A hostile internal subset must come back as Err from parse_str —
        // never a panic or stack overflow (corpus ingestion feeds whole
        // directories of unvetted files through this path).
        let deep = format!(
            "<!DOCTYPE a [<!ELEMENT a {}b{}>]><a/>",
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        assert!(matches!(Document::parse_str(&deep), Err(Error::Dtd { .. })));
        // Other malformed-input shapes keep erroring cleanly too.
        for bad in [
            "<a>&unknown;</a>",                  // bad entity reference
            "<a>&#xD800;</a>",                   // surrogate char reference
            "<a>&#xFFFFFFFFFF;</a>",             // overflowing char reference
            "<a b=c></a>",                       // unquoted attribute
            "<!DOCTYPE [<!ELEMENT a (b)>]><a/>", // DOCTYPE without a name
            "<a><![CDATA[never closed</a>",      // unterminated CDATA
        ] {
            assert!(Document::parse_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn xml_declaration_and_comments_are_ignored() {
        let d = Document::parse_str(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><!-- c --><a>v</a><!-- after -->",
        )
        .unwrap();
        assert_eq!(d.text_of(d.root()), Some("v"));
    }

    #[test]
    fn parsed_documents_validate() {
        let d = Document::parse_str(
            r#"<site><regions><africa><item id="i1"><name>gold</name></item></africa></regions></site>"#,
        )
        .unwrap();
        d.debug_validate().unwrap();
    }
}
