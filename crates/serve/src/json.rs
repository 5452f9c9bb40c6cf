//! A hand-rolled, escape-correct JSON writer and one borrowed JSON
//! scanner.
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
//! [`Scanner`] is the workspace's one JSON grammar: a panic-free cursor
//! that validates strings, escapes, surrogates, numbers and literals,
//! walks objects and arrays through callbacks with one duplicate-key
//! stack and one [`MAX_DEPTH`] check, and skips what its caller does not
//! name. [`parse`] is a thin walk over it building a [`Value`] tree; the
//! router's shard-page reader is another walk over the same scanner, so
//! the two accept exactly the same documents.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The largest integer every standard JSON consumer preserves exactly:
/// `2^53 − 1` (IEEE-754 double mantissa; JavaScript's
/// `Number.MAX_SAFE_INTEGER`). [`JsonWriter::num_u64`] clamps here so a
/// wire counter never silently loses precision downstream.
// xlint: allow(L10, "crates/router/tests/merge.rs clamps its expected doc ids with it")
pub const MAX_SAFE_JSON_INT: u64 = (1 << 53) - 1;

/// Append the RFC 8259 escaping of `s` (without surrounding quotes) to
/// `out`. Only ASCII bytes are ever escaped, so the text between them is
/// copied a run at a time, found by the scanner's own `plain_run`.
fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut copied = 0;
    let mut i = plain_run(bytes);
    while let Some(&b) = bytes.get(i) {
        // `i` is an ASCII byte: a char boundary.
        out.push_str(s.get(copied..i).unwrap_or_default());
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
        i = copied + plain_run(bytes.get(copied..).unwrap_or_default());
    }
    out.push_str(s.get(copied..).unwrap_or_default());
}

/// How many leading bytes of `bytes` are plain string content — no
/// quote, no backslash, no control byte: what a string token holds
/// verbatim and what the writer copies without escaping. Snippets are
/// most of a page, so this is the inner loop of both: sixteen bytes a
/// step, two words tested by the exact "does any byte of this word
/// equal / lie below" bit tricks (a borrow can only mark bytes above one
/// that really matched), then bytewise to the offender.
#[inline]
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::MAX / 0xFF;
    const HIGH_BITS: u64 = ONES * 0x80;
    let special = |chunk: &[u8]| {
        let word = u64::from_le_bytes(<[u8; 8]>::try_from(chunk).unwrap_or_default());
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        (quote.wrapping_sub(ONES) & !quote)
            | (backslash.wrapping_sub(ONES) & !backslash)
            | (word.wrapping_sub(ONES * 0x20) & !word)
    };
    let mut run = 0;
    for pair in bytes.chunks_exact(16) {
        let (low, high) = pair.split_at(8);
        if (special(low) | special(high)) & HIGH_BITS != 0 {
            break;
        }
        run += 16;
    }
    let rest = bytes.get(run..).unwrap_or_default();
    let plain = |c: &u8| *c != b'"' && *c != b'\\' && *c >= 0x20;
    run + rest.iter().position(|c| !plain(c)).unwrap_or(rest.len())
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

    /// Empty the writer for its next document, keeping the room its
    /// buffers grew to: a writer reused a value at a time allocates only
    /// while its largest value grows.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.has_elem.clear();
        self.pending_key = false;
    }

    /// The document written so far — one complete value once every
    /// container is closed.
    pub fn as_str(&self) -> &str {
        &self.buf
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
        self.as_f64().and_then(whole_u64)
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
    scan(input, Scanner::tree)
}

/// Nesting depth bound: a value more than this many containers deep is
/// rejected instead of overflowing the stack (the daemon never emits
/// anything close).
// xlint: allow(L10, "crates/serve/tests/json_proptests.rs and crates/router/tests/merge.rs probe the bound")
pub const MAX_DEPTH: usize = 128;

/// What went wrong inside a [`Scanner`]; [`scan`] adds the position.
pub type Flaw = &'static str;

/// Run `document` over `src` as one complete JSON document: leading
/// whitespace is skipped before it, and only whitespace may follow what
/// it read.
#[inline]
pub fn scan<'a, T>(
    src: &'a str,
    document: impl FnOnce(&mut Scanner<'a>) -> Result<T, Flaw>,
) -> Result<T, ParseError> {
    let mut scanner = Scanner { src, pos: 0, depth: 0, keys: Vec::with_capacity(16) };
    scanner.skip_ws();
    let found = document(&mut scanner).and_then(|found| {
        scanner.skip_ws();
        if scanner.pos != src.len() {
            return Err("trailing data after document");
        }
        Ok(found)
    });
    found.map_err(|message| ParseError { at: scanner.pos, message: message.to_string() })
}

/// A cursor over one JSON text, borrowing it. Every byte it reads goes
/// through `get`, so hostile input yields a [`Flaw`], never a panic.
/// Callers walk the document with [`object`](Self::object) /
/// [`array`](Self::array) callbacks and read the leaves they name;
/// whatever they do not name they [`value`](Self::value)-skip, which
/// still validates it. The token readers and the walkers are
/// `#[inline]` so that a walk in another crate (the router's page read)
/// compiles into one function with its callbacks; as plain calls across
/// the crate boundary it measured ~15 % slower.
#[derive(Debug)]
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// How many containers enclose the value under the cursor.
    depth: usize,
    /// The keys of the objects being scanned, innermost object last —
    /// one stack for the whole document, so no object allocates its own.
    keys: Vec<Cow<'a, str>>,
}

impl<'a> Scanner<'a> {
    /// The byte offset of the cursor.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The source between two positions the scanner itself reported.
    #[inline]
    pub fn slice(&self, from: usize, to: usize) -> Result<&'a str, Flaw> {
        self.src.get(from..to).ok_or("scanner lost its place")
    }

    /// Run `scan`; if it fails, put the cursor back where it was — for a
    /// fast path that reads one exact spelling and leaves every other to
    /// the general walk.
    #[inline]
    pub fn attempt<T>(&mut self, scan: impl FnOnce(&mut Self) -> Result<T, Flaw>) -> Option<T> {
        let (pos, depth, keys) = (self.pos, self.depth, self.keys.len());
        let found = scan(self).ok();
        if found.is_none() {
            (self.pos, self.depth) = (pos, depth);
            self.keys.truncate(keys);
        }
        found
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, byte: u8, flaw: Flaw) -> Result<(), Flaw> {
        if self.peek() != Some(byte) {
            return Err(flaw);
        }
        self.pos += 1;
        Ok(())
    }

    /// Exactly the bytes of `word`.
    #[inline]
    pub fn literal(&mut self, word: &str) -> Result<(), Flaw> {
        let rest = self.src.as_bytes().get(self.pos..).unwrap_or_default();
        if !rest.starts_with(word.as_bytes()) {
            return Err("expected a literal");
        }
        self.pos += word.len();
        Ok(())
    }

    /// Step into a non-empty container: its elements sit one level
    /// deeper, and none may sit deeper than [`MAX_DEPTH`].
    #[inline]
    fn nest(&mut self) -> Result<(), Flaw> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep");
        }
        Ok(())
    }

    /// An object: `member` reads each value, told its (decoded) key. A
    /// repeated key is a flaw, however it is spelled.
    #[inline]
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), Flaw>,
    ) -> Result<(), Flaw> {
        self.eat(b'{', "expected an object")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.nest()?;
        let outer_keys = self.keys.len();
        loop {
            self.skip_ws();
            let key = self.string(true)?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            member(self, &key)?;
            self.keys.push(key);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return self.pop_keys(outer_keys);
                }
                _ => return Err("expected `,` or `}`"),
            }
        }
    }

    /// Drop the innermost object's keys (everything past `outer_keys`),
    /// failing if two of them are equal.
    fn pop_keys(&mut self, outer_keys: usize) -> Result<(), Flaw> {
        let keys = self.keys.get_mut(outer_keys..).unwrap_or_default();
        keys.sort_unstable();
        let repeated = keys.windows(2).any(|pair| pair.first() == pair.last());
        self.keys.truncate(outer_keys);
        if repeated {
            return Err("duplicate object key");
        }
        Ok(())
    }

    /// An array: `element` reads each element.
    #[inline]
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), Flaw>,
    ) -> Result<(), Flaw> {
        self.eat(b'[', "expected an array")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.nest()?;
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err("expected `,` or `]`"),
            }
        }
    }

    /// Any value, validated and skipped.
    pub fn value(&mut self) -> Result<(), Flaw> {
        match self.peek() {
            Some(b'{') => self.object(|scanner, _| scanner.value()),
            Some(b'[') => self.array(Self::value),
            Some(b'"') => self.string(false).map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err("expected a value"),
        }
    }

    /// Any value, as a [`Value`] tree: the [`parse`] walk.
    fn tree(&mut self) -> Result<Value, Flaw> {
        Ok(match self.peek() {
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.object(|scanner, key| {
                    scanner.tree().map(|value| drop(members.insert(key.to_string(), value)))
                })?;
                Value::Obj(members)
            }
            Some(b'[') => {
                let mut elements = Vec::new();
                self.array(|scanner| scanner.tree().map(|value| elements.push(value)))?;
                Value::Arr(elements)
            }
            Some(b'"') => Value::Str(self.string(true)?.into_owned()),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false))?,
            Some(b'n') => self.literal("null").map(|()| Value::Null)?,
            Some(b'-' | b'0'..=b'9') => Value::Num(self.number()?),
            _ => return Err("expected a value"),
        })
    }

    /// A string token, validated: its text between the quotes, borrowed
    /// from the source. With `decode` a token holding escapes yields its
    /// decoded text instead; without, the raw text is all a caller
    /// passing the token through needs.
    #[inline]
    pub fn string(&mut self, decode: bool) -> Result<Cow<'a, str>, Flaw> {
        self.eat(b'"', "expected a string")?;
        let open = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            self.pos += plain_run(self.src.as_bytes().get(run..).unwrap_or_default());
            if let Some(decoded) = decoded.as_mut() {
                decoded.push_str(self.slice(run, self.pos)?);
            }
            match self.peek() {
                Some(b'"') => {
                    let raw = self.slice(open, self.pos)?;
                    self.pos += 1;
                    return Ok(decoded.map_or(Cow::Borrowed(raw), Cow::Owned));
                }
                Some(b'\\') => {
                    if decode && decoded.is_none() {
                        decoded = Some(self.slice(open, self.pos)?.to_string());
                    }
                    self.pos += 1;
                    let escaped = self.escape()?;
                    if let Some(decoded) = decoded.as_mut() {
                        decoded.push(escaped);
                    }
                }
                Some(_) => return Err("raw control character in string"),
                None => return Err("unterminated string"),
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, Flaw> {
        let c = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    // A high surrogate must be followed by a low one.
                    0xD800..=0xDBFF => {
                        self.eat(b'\\', "unpaired high surrogate")?;
                        self.eat(b'u', "unpaired high surrogate")?;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err("invalid low surrogate");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err("unpaired low surrogate"),
                    _ => hi,
                };
                char::from_u32(code).ok_or("invalid code point")?
            }
            _ => return Err("invalid escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, Flaw> {
        let mut value = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| char::from(c).to_digit(16))
                .ok_or("invalid \\u escape")?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    #[inline]
    fn digits(&mut self) -> Result<usize, Flaw> {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err("expected digits");
        }
        Ok(self.pos - from)
    }

    /// A number token, checked against the JSON grammar, as the double
    /// every JSON consumer reads it as.
    #[inline]
    pub fn number(&mut self) -> Result<f64, Flaw> {
        let from = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        if self.digits()? > 1 && leading_zero {
            return Err("leading zero");
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
        self.slice(from, self.pos)?.parse().map_err(|_| "unparseable number")
    }

    /// A number that is a non-negative integer, as [`Value::as_u64`]
    /// reads one.
    #[inline]
    pub fn unsigned(&mut self) -> Result<u64, Flaw> {
        whole_u64(self.number()?).ok_or("expected a non-negative integer")
    }
}

/// `n` as a `u64` if it is a non-negative integer *by value* (`3.0` and
/// `1e2` count) that a `u64` holds: below 2^64, which is exactly
/// `u64::MAX as f64`, so no larger number saturates into range. Ids
/// beyond 2^53 are read through the double, so they round alike on every
/// path.
#[inline]
fn whole_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
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
        // 2^64 is one past `u64::MAX`: out of range, not saturated into it.
        // So is `u64::MAX` spelled out, which a double rounds up to 2^64;
        // the largest double below 2^64 is the largest `u64` read.
        let edges = "[18446744073709551616,18446744073709551615,18446744073709549568,1e19,-0]";
        let edges: Vec<_> =
            parse(edges).unwrap().as_arr().unwrap().iter().map(Value::as_u64).collect();
        assert_eq!(edges, [None, None, Some(u64::MAX - 2047), Some(10_u64.pow(19)), Some(0)]);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
    }
}
