//! Escaping and unescaping of XML character data and entity references.

use std::fmt;

use crate::error::{Error, Position, Result};

/// Escape `s` for use as XML character data (text content).
///
/// Escapes `&`, `<`, `>`; leaves quotes alone (they are only special inside
/// attribute values).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s, false);
    out
}

/// Append `s` to `out` escaped as character data, as [`escape_text`].
pub(crate) fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// Escape `s` for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s, true);
    out
}

fn escape_into(out: &mut String, s: &str, attr: bool) {
    let mut rest = s;
    while let Some((i, b)) = rest
        .bytes()
        .enumerate()
        .find(|&(_, b)| matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"'))
    {
        out.push_str(rest.get(..i).unwrap_or_default());
        out.push_str(match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = rest.get(i + 1..).unwrap_or_default();
    }
    out.push_str(rest);
}

/// Resolve a single entity or character reference body (the text between
/// `&` and `;`).
///
/// Supports the five XML predefined entities plus decimal (`#123`) and
/// hexadecimal (`#x1F`) character references.
pub fn resolve_reference(body: &str, position: Position) -> Result<char> {
    resolve(body).ok_or_else(|| Error::BadReference { reference: body.to_string(), position })
}

fn resolve(body: &str) -> Option<char> {
    match body {
        "amp" => return Some('&'),
        "lt" => return Some('<'),
        "gt" => return Some('>'),
        "quot" => return Some('"'),
        "apos" => return Some('\''),
        _ => {}
    }
    let code = if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.strip_prefix('#')?.parse().ok()?
    };
    char::from_u32(code)
}

/// Write `raw` to `out` with entity and character references resolved —
/// straight into a document's text buffer, or into a sink that keeps
/// nothing to only check it. A malformed reference fails with its text (the body between
/// `&` and `;`, or the next 12 characters when `;` never comes); the
/// caller knows where it is.
pub fn unescape_into<W: fmt::Write>(raw: &str, out: &mut W) -> std::result::Result<(), String> {
    let mut rest = raw;
    while let Some((text, after)) = rest.split_once('&') {
        out.write_str(text).map_err(|_| String::new())?;
        let Some((body, tail)) = after.split_once(';') else {
            return Err(after.chars().take(12).collect());
        };
        let c = resolve(body).ok_or_else(|| body.to_string())?;
        out.write_char(c).map_err(|_| String::new())?;
        rest = tail;
    }
    out.write_str(rest).map_err(|_| String::new())
}

/// Unescape a string that may contain entity and character references.
pub fn unescape(s: &str, position: Position) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out).map_err(|reference| Error::BadReference { reference, position })?;
    Ok(out)
}

/// A [`fmt::Write`] sink that keeps nothing: validation without output.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Discard;

impl fmt::Write for Discard {
    fn write_str(&mut self, _: &str) -> fmt::Result {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_handles_specials() {
        assert_eq!(escape_text("a<b & c>d"), "a&lt;b &amp; c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
        // Quotes untouched in text context.
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn escape_attr_also_escapes_quotes() {
        assert_eq!(escape_attr(r#"a "b" & c"#), "a &quot;b&quot; &amp; c");
    }

    #[test]
    fn predefined_entities_resolve() {
        let p = Position::start();
        assert_eq!(resolve_reference("amp", p).unwrap(), '&');
        assert_eq!(resolve_reference("lt", p).unwrap(), '<');
        assert_eq!(resolve_reference("gt", p).unwrap(), '>');
        assert_eq!(resolve_reference("quot", p).unwrap(), '"');
        assert_eq!(resolve_reference("apos", p).unwrap(), '\'');
    }

    #[test]
    fn numeric_references_resolve() {
        let p = Position::start();
        assert_eq!(resolve_reference("#65", p).unwrap(), 'A');
        assert_eq!(resolve_reference("#x41", p).unwrap(), 'A');
        assert_eq!(resolve_reference("#x1F600", p).unwrap(), '😀');
    }

    #[test]
    fn bad_references_error() {
        let p = Position::start();
        assert!(resolve_reference("bogus", p).is_err());
        assert!(resolve_reference("#xZZ", p).is_err());
        // Surrogate code point is not a char.
        assert!(resolve_reference("#xD800", p).is_err());
    }

    #[test]
    fn unescape_round_trips_escape() {
        let p = Position::start();
        let original = r#"Brook & Brothers <"outwear">"#;
        let escaped = escape_attr(original);
        assert_eq!(unescape(&escaped, p).unwrap(), original);
    }

    #[test]
    fn unescape_detects_unterminated_reference() {
        assert!(unescape("a &amp b", Position::start()).is_err());
        assert_eq!(unescape_into("x &amp b and more", &mut Discard), Err("amp b and mo".into()));
        assert_eq!(unescape_into("&bogus;", &mut Discard), Err("bogus".into()));
    }

    #[test]
    fn unescape_into_appends() {
        let mut out = String::from("<");
        unescape_into("é &lt;&#x41;&#66;", &mut out).unwrap();
        assert_eq!(out, "<é <AB");
    }
}
