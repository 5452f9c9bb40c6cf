//! Property tests for `extract_serve::json`.
//!
//! 1. Every string — printable, control-char-laden, or multi-byte —
//!    round-trips through the hand-rolled writer without ever producing
//!    invalid JSON. The `.{0,N}` strategy of the vendored proptest shim
//!    deliberately mixes raw control characters and wide UTF-8 (exactly
//!    what XML snippet text can contain).
//! 2. The grammar: `json::parse` runs on the one borrowed scanner the
//!    router's page reader also runs on, so the router's own tests can
//!    only compare that scanner with itself. The independent oracle is
//!    [`reference`], the recursive-descent parser `json::parse` used to
//!    be, kept verbatim. On hostile documents — writer output cut at
//!    every byte or with one byte flipped, duplicate keys however
//!    spelled, nesting at the depth bound, lone and reversed surrogates,
//!    the number grammar's edges — both give an equal `Value` or both
//!    give `Err`.

use extract_serve::json::{self, JsonWriter, Value, MAX_DEPTH};
use proptest::prelude::*;

/// The recursive-descent parser `json::parse` was before it moved onto
/// the shared scanner: a second, independent reading of the grammar.
mod reference {
    use std::collections::BTreeMap;

    use extract_serve::json::{ParseError, Value, MAX_DEPTH};

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
}

proptest! {
    #[test]
    fn arbitrary_strings_roundtrip_as_values(s in ".{0,120}") {
        let mut w = JsonWriter::new();
        w.str(&s);
        let doc = w.finish();
        let parsed = json::parse(&doc)
            .unwrap_or_else(|e| panic!("writer produced invalid JSON {doc:?}: {e}"));
        prop_assert_eq!(parsed, Value::Str(s));
    }

    #[test]
    fn arbitrary_strings_roundtrip_as_keys(key in ".{0,60}", value in ".{0,60}") {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key(&key);
        w.str(&value);
        w.obj_end();
        let doc = w.finish();
        let parsed = json::parse(&doc)
            .unwrap_or_else(|e| panic!("writer produced invalid JSON {doc:?}: {e}"));
        prop_assert_eq!(parsed.get(&key).and_then(Value::as_str), Some(value.as_str()));
    }

    #[test]
    fn mixed_documents_stay_valid(
        strings in proptest::collection::vec(".{0,40}", 0..8),
        int in 0u64..1_000_000,
        float_milli in -1_000_000i64..1_000_000,
        flag in proptest::arbitrary::any::<bool>(),
    ) {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("int");
        w.num_u64(int);
        w.key("float");
        w.num_f64(float_milli as f64 / 1000.0);
        w.key("flag");
        w.bool(flag);
        w.key("none");
        w.null();
        w.key("strings");
        w.arr_begin();
        for s in &strings {
            w.str(s);
        }
        w.arr_end();
        w.obj_end();
        let doc = w.finish();
        let parsed = json::parse(&doc)
            .unwrap_or_else(|e| panic!("writer produced invalid JSON {doc:?}: {e}"));
        prop_assert_eq!(parsed.get("int").and_then(Value::as_u64), Some(int));
        prop_assert_eq!(
            parsed.get("float").and_then(Value::as_f64),
            Some(float_milli as f64 / 1000.0)
        );
        let got: Vec<&str> = parsed
            .get("strings")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        let want: Vec<&str> = strings.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// The grammar: the scanner-backed parser ≡ the reference parser.
// ---------------------------------------------------------------------

/// Both parsers on `doc`: an equal `Value`, or `Err` from both.
fn assert_agree(doc: &str) {
    match (json::parse(doc), reference::parse(doc)) {
        (Ok(ours), Ok(theirs)) => assert_eq!(ours, theirs, "values differ on {doc:?}"),
        (Err(_), Err(_)) => {}
        (ours, theirs) => {
            panic!("verdicts differ on {doc:?}: scanner {ours:?}, reference {theirs:?}")
        }
    }
}

fn write_value(w: &mut JsonWriter, value: &Value) {
    match value {
        Value::Null => w.null(),
        Value::Bool(b) => w.bool(*b),
        Value::Num(n) => w.num_f64(*n),
        Value::Str(s) => w.str(s),
        Value::Arr(elements) => {
            w.arr_begin();
            elements.iter().for_each(|element| write_value(w, element));
            w.arr_end();
        }
        Value::Obj(members) => {
            w.obj_begin();
            for (key, member) in members {
                w.key(key);
                write_value(w, member);
            }
            w.obj_end();
        }
    }
}

fn any_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        proptest::arbitrary::any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64 / 64.0)),
        prop_oneof![Just(0.1), Just(-2.5e-7), Just(1e300), Just(9007199254740993.0)]
            .prop_map(Value::Num),
        ".{0,10}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 0, 0, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec((".{0,6}", inner), 0..4)
                .prop_map(|members| Value::Obj(members.into_iter().collect())),
        ]
    })
}

/// Bytes a one-byte edit puts into a document: structure, the starts of
/// every token kind, escapes, a control byte.
const FLIPS: &[u8] = b"{}[],:\"\\/u0-.eE+9tfn \x01";

/// Number spellings around the grammar's edges, valid and not.
const NUMBERS: &[&str] = &[
    "0", "-0", "-0.0e-0", "01", "-01", "00", "1.", "1.5", ".5", "-", "+1", "1e", "1e+", "1e-",
    "1E5", "1e+5", "2.5E-3", "1E999", "18446744073709551616", "9007199254740993",
];

/// String tokens, escapes and surrogates among them: paired, lone,
/// reversed, and followed by something that is not a low surrogate.
const STRINGS: &[&str] = &[
    r#""plain""#, r#""\u0061""#, r#""\ud83e\udd80""#, r#""\uD83E\uDD80""#, r#""\ud800""#,
    r#""\udc00""#, r#""\udc00\ud800""#, r#""\udd80\ud83e""#, r#""\ud800x""#,
    r#""\ud800\u0041""#, r#""\ud800\ud800""#, r#""\udbff\udfff""#, r#""\ud7ff\ue000""#,
    r#""\u12""#, r#""\uZZZZ""#, r#""\x""#, "\"raw \u{1}\"", r#""\/\b\f\n\r\t""#,
];

/// Key spellings, several pairs equal only once unescaped.
const KEYS: &[&str] = &[
    r#""a""#, r#""\u0061""#, r#""b""#, r#""ab""#, r#""a\u0062""#, r#""\u0041""#, r#""A""#,
    r#""🦀""#, r#""\ud83e\udd80""#, r#""""#,
];

fn hostile_leaf() -> impl Strategy<Value = String> {
    let pick = |tokens: &'static [&'static str]| {
        proptest::arbitrary::any::<prop::sample::Index>().prop_map(move |i| i.get(tokens).to_string())
    };
    prop_oneof![
        pick(NUMBERS),
        pick(STRINGS),
        pick(&["true", "false", "null", "tru", "nul", "nulll", "[]", "{}", "[,]", "{,}"]),
    ]
}

/// A small document over hostile leaves and duplicate-prone keys, under
/// a wrapper of `[` / `{"k":` that puts its inner values on either side
/// of [`MAX_DEPTH`] some of the time.
fn hostile_document() -> impl Strategy<Value = String> {
    let key = proptest::arbitrary::any::<prop::sample::Index>().prop_map(|i| *i.get(KEYS)).boxed();
    let tree = hostile_leaf().prop_recursive(3, 0, 0, move |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(|xs| format!("[{}]", xs.join(","))),
            prop::collection::vec((key.clone(), inner), 0..4).prop_map(|members| {
                let members: Vec<String> =
                    members.iter().map(|(key, value)| format!("{key}:{value}")).collect();
                format!("{{{}}}", members.join(","))
            }),
        ]
    });
    let wrap = prop_oneof![Just(0usize), MAX_DEPTH - 4..MAX_DEPTH + 2];
    (tree, wrap, proptest::arbitrary::any::<bool>()).prop_map(|(tree, depth, objects)| {
        let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
        format!("{}{tree}{}", open.repeat(depth), close.repeat(depth))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn writer_documents_cut_or_flipped_parse_like_the_reference(
        value in any_value(),
        flips in prop::collection::vec(
            (proptest::arbitrary::any::<prop::sample::Index>(), 0..FLIPS.len()),
            0..24,
        ),
    ) {
        let mut w = JsonWriter::new();
        write_value(&mut w, &value);
        let doc = w.finish();
        assert_agree(&doc);
        prop_assert_eq!(json::parse(&doc).ok(), Some(value));
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert_agree(&doc[..cut]);
        }
        // One ASCII byte replaced by another keeps the text UTF-8.
        for (at, flip) in flips {
            let at = at.index(doc.len());
            if doc.as_bytes()[at].is_ascii() {
                let mut flipped = doc.clone().into_bytes();
                flipped[at] = FLIPS[flip];
                assert_agree(&String::from_utf8(flipped).expect("ASCII for ASCII"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_documents_parse_like_the_reference(doc in hostile_document()) {
        assert_agree(&doc);
    }
}

#[test]
fn the_grammar_edges_parse_like_the_reference() {
    let mut docs: Vec<String> = Vec::new();
    for token in NUMBERS.iter().chain(STRINGS) {
        docs.extend([token.to_string(), format!("[{token}]"), format!(" {{\"k\":{token}}} ")]);
    }
    for (a, b) in [("a", "a"), ("a", "\\u0061"), ("\\u0061", "a"), ("ab", "a\\u0062"), ("a", "b")] {
        docs.push(format!(r#"{{"{a}":1,"{b}":2}}"#));
        docs.push(format!(r#"[{{"{a}":1}},{{"{b}":{{"{a}":2,"{b}":3}}}}]"#));
    }
    for key in STRINGS {
        docs.push(format!("{{{key}:0}}"));
    }
    for depth in MAX_DEPTH - 2..=MAX_DEPTH + 2 {
        for filling in ["", "1", "{}", "[]", r#"{"a":1}"#, r#""\ud800""#] {
            docs.push(format!("{}{filling}{}", "[".repeat(depth), "]".repeat(depth)));
            docs.push(format!("{}{filling}{}", r#"{"k":["#.repeat(depth / 2), "]}".repeat(depth / 2)));
        }
    }
    for doc in &docs {
        assert_agree(doc);
    }
}
