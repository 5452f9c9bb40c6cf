//! A hand-rolled, escape-correct JSON writer and a small validating
//! parser.
//!
//! The daemon's wire format is JSON, but the workspace builds offline with
//! no registry access, so `serde` is off the table. [`JsonWriter`] covers
//! exactly what a response needs — objects, arrays, strings, numbers,
//! booleans — with comma placement tracked internally so call sites can't
//! emit trailing or missing separators. Escaping follows RFC 8259: `"` and
//! `\` are backslash-escaped, control characters below `U+0020` become the
//! short escapes (`\n`, `\t`, …) or `\u00XX`, and everything else
//! (including multi-byte UTF-8) passes through verbatim, which is valid
//! JSON.
//!
//! [`parse`] is the matching validator/decoder: a recursive-descent parser
//! producing a [`Value`] tree. The tests use it to prove the writer emits
//! only valid JSON (every write round-trips), and the load generator uses
//! it to read `/search` and `/stats` payloads without a JSON dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The largest integer every standard JSON consumer preserves exactly:
/// `2^53 − 1` (IEEE-754 double mantissa; JavaScript's
/// `Number.MAX_SAFE_INTEGER`). [`JsonWriter::num_u64`] clamps here so a
/// wire counter never silently loses precision downstream.
pub const MAX_SAFE_JSON_INT: u64 = (1 << 53) - 1;

/// Append the RFC 8259 escaping of `s` (without surrounding quotes) to
/// `out`. Only ASCII bytes are ever escaped, so the text between them is
/// copied a run at a time, and the scan for them skips eight plain bytes
/// per step.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let (mut copied, mut i) = (0, 0);
    while let Some(rest) = bytes.get(i..) {
        if let Some(word) = rest.first_chunk::<8>() {
            if !has_special(u64::from_le_bytes(*word)) {
                i += 8;
                continue;
            }
        }
        let Some(&b) = rest.first() else { break };
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            0x00..=0x1F => None,
            _ => {
                i += 1;
                continue;
            }
        };
        // `i` is an ASCII byte: a char boundary.
        out.push_str(s.get(copied..i).unwrap_or_default());
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        i += 1;
        copied = i;
    }
    out.push_str(s.get(copied..).unwrap_or_default());
}

/// Whether any of the eight bytes of `word` is one JSON escapes: below
/// `0x20`, `"` or `\`. (A byte-wise "less than" by borrow propagation: a
/// borrow can only mark bytes above one that really matched, so the
/// answer for the word is exact.)
fn has_special(word: u64) -> bool {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x & HIGH;
    (below(word, 0x20) | below(word ^ (ONES * 0x22), 1) | below(word ^ (ONES * 0x5C), 1)) != 0
}

/// A streaming JSON writer with internal comma/nesting bookkeeping.
///
/// ```
/// use extract_serve::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.obj_begin();
/// w.key("ok");
/// w.bool(true);
/// w.key("items");
/// w.arr_begin();
/// w.str("a\"b");
/// w.num_u64(7);
/// w.arr_end();
/// w.obj_end();
/// assert_eq!(w.finish(), r#"{"ok":true,"items":["a\"b",7]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One flag per open container: `true` once it holds an element (so
    /// the next element is comma-prefixed).
    has_elem: Vec<bool>,
    /// A key was just written; the next value attaches to it without a
    /// comma.
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer with room for `bytes` of output — for documents
    /// whose size is known up front, such as one about to splice in a
    /// pre-rendered value ([`JsonWriter::raw`]).
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter { buf: String::with_capacity(bytes), ..JsonWriter::default() }
    }

    fn comma(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has) = self.has_elem.last_mut() {
            if *has {
                self.buf.push(',');
            }
            *has = true;
        }
    }

    /// Open an object (`{`).
    pub fn obj_begin(&mut self) {
        self.comma();
        self.buf.push('{');
        self.has_elem.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn obj_end(&mut self) {
        self.has_elem.pop();
        self.buf.push('}');
    }

    /// Open an array (`[`).
    pub fn arr_begin(&mut self) {
        self.comma();
        self.buf.push('[');
        self.has_elem.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn arr_end(&mut self) {
        self.has_elem.pop();
        self.buf.push(']');
    }

    /// Write an object key; the next write is its value.
    pub fn key(&mut self, name: &str) {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
        self.pending_key = true;
    }

    /// Write a string value.
    pub fn str(&mut self, s: &str) {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
    }

    /// Write an unsigned integer value, clamped to `2^53 − 1`
    /// ([`MAX_SAFE_JSON_INT`]). Standard JSON consumers (JavaScript,
    /// anything parsing numbers as IEEE doubles) silently round larger
    /// integers; a counter that has genuinely reached 2^53 nanoseconds
    /// (~104 days of summed latency) saturates at the cap instead of
    /// appearing to jump by hundreds. Clamping — not stringifying —
    /// keeps the field a number for existing `/stats` aggregators.
    pub fn num_u64(&mut self, n: u64) {
        self.comma();
        let _ = write!(self.buf, "{}", n.min(MAX_SAFE_JSON_INT));
    }

    /// Write a float value. Non-finite floats have no JSON representation
    /// and are written as `null`.
    pub fn num_f64(&mut self, n: f64) {
        self.comma();
        if n.is_finite() {
            let _ = write!(self.buf, "{n}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Write a boolean value.
    pub fn bool(&mut self, b: bool) {
        self.comma();
        self.buf.push_str(if b { "true" } else { "false" });
    }

    /// Write a `null`.
    pub fn null(&mut self) {
        self.comma();
        self.buf.push_str("null");
    }

    /// Write a pre-rendered value verbatim: `json` must be one complete
    /// JSON value — in practice the [`JsonWriter::finish`]ed output of
    /// another writer, kept so the same bytes can be served again without
    /// re-escaping them. Comma placement is handled as for any value.
    pub fn raw(&mut self, json: &str) {
        self.comma();
        self.buf.push_str(json);
    }

    /// Write a pre-rendered value whose one unsigned-integer field is
    /// rewritten: the value's bytes are `head`, then `n` as
    /// [`JsonWriter::num_u64`] writes it, then `tail`. Together the three
    /// must be one complete JSON value — in practice an object another
    /// writer rendered, cut around the integer.
    pub fn raw_with_u64(&mut self, head: &str, n: u64, tail: &str) {
        self.comma();
        self.buf.push_str(head);
        let _ = write!(self.buf, "{}", n.min(MAX_SAFE_JSON_INT));
        self.buf.push_str(tail);
    }

    /// The finished document.
    ///
    /// # Panics
    /// If containers are still open (writer misuse is a caller bug).
    pub fn finish(self) -> String {
        assert!(self.has_elem.is_empty(), "unclosed JSON container");
        assert!(!self.pending_key, "key without value");
        self.buf
    }
}

/// A parsed JSON value (the validator's output).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are unique; a duplicate key is a parse error
    /// (stricter than RFC 8259, and the writer never produces one).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON document (surrounding whitespace allowed,
/// nothing else).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Nesting depth bound: deeper documents are rejected instead of
/// overflowing the stack (the daemon never emits anything close).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if map.insert(key, value).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (no quote, backslash, control).
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape_into(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start] == b'0'
            || int_digits > 1 && self.bytes[start] == b'-' && self.bytes[start + 1] == b'0'
        {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("unparseable number"))
    }

    fn digits(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        let mut w = JsonWriter::new();
        w.str(s);
        let doc = w.finish();
        match parse(&doc) {
            Ok(Value::Str(back)) => back,
            other => panic!("string {s:?} produced {doc:?} which parsed to {other:?}"),
        }
    }

    #[test]
    fn escaping_matches_the_char_by_char_rules() {
        let reference = |s: &str| -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        };
        let mut every: String = (0u8..0x80).map(char::from).collect();
        every.push_str("é日本€\u{7f}\u{10FFFF} tail");
        let mut cases: Vec<String> = ["", "plain", "\"", "é\"é", "<a x=\"1\">t&amp;</a>\n"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        cases.push(every);
        // Every ASCII byte at every offset of a word, and straddling two.
        for c in (0u8..0x80).map(char::from) {
            for at in 0..17 {
                let mut s: String = "é".repeat(at / 2) + &"x".repeat(at % 2);
                s.push(c);
                s.push_str("abcdefghij");
                cases.push(s);
            }
        }
        for s in &cases {
            let mut out = String::from("kept:");
            escape_into(&mut out, s);
            assert_eq!(out, format!("kept:{}", reference(s)), "{s:?}");
        }
    }

    #[test]
    fn strings_with_every_escape_class_roundtrip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nreturn\rtab\tbackspace\u{08}formfeed\u{0C}",
            "low controls \u{00}\u{01}\u{1f}",
            "non-ascii: é ß λ 中 🦀 \u{10FFFF}",
            "solidus / stays plain",
        ] {
            assert_eq!(roundtrip(s), s);
        }
    }

    #[test]
    fn writer_comma_placement() {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("a");
        w.arr_begin();
        w.arr_end();
        w.key("b");
        w.obj_begin();
        w.key("c");
        w.null();
        w.obj_end();
        w.key("d");
        w.num_f64(1.5);
        w.obj_end();
        assert_eq!(w.finish(), r#"{"a":[],"b":{"c":null},"d":1.5}"#);
    }

    #[test]
    fn raw_splices_a_finished_value_with_correct_commas() {
        let mut inner = JsonWriter::new();
        inner.arr_begin();
        inner.str("a\"b");
        inner.num_u64(7);
        inner.arr_end();
        let inner = inner.finish();
        let mut w = JsonWriter::with_capacity(inner.len() + 32);
        w.obj_begin();
        w.key("first");
        w.raw(&inner);
        w.key("again");
        w.arr_begin();
        w.raw(&inner);
        w.raw("null");
        w.arr_end();
        w.obj_end();
        let doc = w.finish();
        assert_eq!(doc, r#"{"first":["a\"b",7],"again":[["a\"b",7],null]}"#);
        parse(&doc).expect("spliced document is valid JSON");
    }

    #[test]
    fn raw_with_u64_rewrites_the_integer_a_value_was_cut_around() {
        let mut w = JsonWriter::new();
        w.arr_begin();
        w.raw_with_u64(r#"{"doc":"a","doc_id":"#, 12, r#","root":4}"#);
        w.raw_with_u64(r#"{"doc_id":"#, u64::MAX, "}");
        w.arr_end();
        assert_eq!(
            w.finish(),
            r#"[{"doc":"a","doc_id":12,"root":4},{"doc_id":9007199254740991}]"#
        );
    }

    #[test]
    fn u64s_above_the_double_mantissa_are_clamped() {
        // At the boundary: exact. One past it (and far past it): clamped
        // to the largest integer a double-parsing consumer reads back
        // unchanged — emitting 2^53 raw would round-trip as 2^53 but
        // 2^53 + 1 would silently read back as 2^53, a wire lie.
        let mut w = JsonWriter::new();
        w.arr_begin();
        w.num_u64(MAX_SAFE_JSON_INT);
        w.num_u64(MAX_SAFE_JSON_INT + 1);
        w.num_u64(u64::MAX);
        w.num_u64(7);
        w.arr_end();
        assert_eq!(
            w.finish(),
            "[9007199254740991,9007199254740991,9007199254740991,7]"
        );
        // The clamp point itself survives an f64 round-trip exactly.
        assert_eq!(MAX_SAFE_JSON_INT as f64 as u64, MAX_SAFE_JSON_INT);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.arr_begin();
        w.num_f64(f64::NAN);
        w.num_f64(f64::INFINITY);
        w.num_f64(0.0);
        w.arr_end();
        assert_eq!(w.finish(), "[null,null,0]");
    }

    #[test]
    fn parser_accepts_valid_documents() {
        for doc in [
            "null",
            " true ",
            "-12.5e3",
            "\"a\\u0041\\ud83e\\udd80b\"",
            "[1,[2,[3]],{}]",
            r#"{"k":"v","n":[null,false]}"#,
        ] {
            parse(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
        }
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap(), Value::Str("🦀".to_string()));
    }

    #[test]
    fn parser_rejects_invalid_documents() {
        for doc in [
            "",
            "tru",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"unpaired \\ud800\"",
            "01",
            "1 2",
            "\u{1}",
            "[\"raw \u{0} control\"]",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} must be rejected");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "over-deep nesting must be rejected");
    }

    #[test]
    fn value_accessors() {
        let v = parse(r#"{"n":3,"s":"x","a":[1.5],"b":true}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
    }
}
