//! Escaping and unescaping of XML character data and entity references.

use std::fmt;

/// Escape `s` for use as XML character data (text content).
///
/// Escapes `&`, `<`, `>`; leaves quotes alone (they are only special inside
/// attribute values).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(&mut out, s);
    out
}

/// Append `s` to `out` escaped as character data, as [`escape_text`].
pub(crate) fn escape_text_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some((i, b)) =
        rest.bytes().enumerate().find(|&(_, b)| matches!(b, b'&' | b'<' | b'>'))
    {
        out.push_str(rest.get(..i).unwrap_or_default());
        out.push_str(match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&gt;",
        });
        rest = rest.get(i + 1..).unwrap_or_default();
    }
    out.push_str(rest);
}

/// Resolve a single entity or character reference body (the text between
/// `&` and `;`): the five XML predefined entities plus decimal (`#123`) and
/// hexadecimal (`#x1F`) character references.
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

    fn unescaped(s: &str) -> std::result::Result<String, String> {
        let mut out = String::new();
        unescape_into(s, &mut out).map(|()| out)
    }

    #[test]
    fn predefined_entities_resolve() {
        assert_eq!(unescaped("&amp;&lt;&gt;&quot;&apos;").unwrap(), "&<>\"'");
    }

    #[test]
    fn numeric_references_resolve() {
        assert_eq!(unescaped("&#65;&#x41;&#x1F600;").unwrap(), "AA😀");
    }

    #[test]
    fn bad_references_error() {
        assert!(unescaped("&bogus;").is_err());
        assert!(unescaped("&#xZZ;").is_err());
        // Surrogate code point is not a char.
        assert!(unescaped("&#xD800;").is_err());
    }

    #[test]
    fn unescape_round_trips_escape() {
        let original = r#"Brook & Brothers <"outwear">"#;
        assert_eq!(unescaped(&escape_text(original)).unwrap(), original);
    }

    #[test]
    fn unescape_detects_unterminated_reference() {
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
