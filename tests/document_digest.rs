//! Pins the documents every constructor builds, node for node, so a change
//! of the `Document` layout can be checked against the one it replaces.
//!
//! Each case hashes (FNV-1a) two things: the compact serialization, and
//! every node's `(kind, label, parent, subtree_end, text)` in `NodeId`
//! order — the numbering the benchmark samples its queries by. The
//! committed values were computed on the pointer-arena `Document` (parent
//! of the structure-of-arrays swap); both layouts must produce them.
//!
//! Sources: the retailer / dblp / auction generators at fixed seeds
//! (`DocBuilder`), the same documents parsed back from their XML (the
//! parser), a benchmark-shaped corpus parsed from its XML, projections
//! and snippets of those (`Document::project`), and a table of hostile
//! inputs whose outcome — a digest, or the exact `Err` with its
//! `line:column` — is pinned too.

use extract::prelude::*;
use extract_datagen::auction::AuctionConfig;
use extract_datagen::corpus::CorpusConfig;
use extract_datagen::dblp::DblpConfig;
use extract_datagen::retailer::{self, RetailerConfig};
use extract_xml::ParseOptions;

/// 64-bit FNV-1a: deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).unwrap());
        self.bytes(s.as_bytes());
    }
}

fn xml_digest(xml: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(xml);
    h.0
}

/// Every node's `(kind, label, parent, subtree_end, text)`, in id order.
fn node_digest(doc: &Document) -> u64 {
    let mut h = Fnv::new();
    h.u32(u32::try_from(doc.len()).unwrap());
    h.u32(u32::try_from(doc.root().index()).unwrap());
    for id in doc.all_nodes() {
        match doc.label_str(id) {
            Some(label) => {
                h.bytes(b"E");
                h.str(label);
            }
            None => {
                h.bytes(b"T");
                h.str(doc.text_of(id).expect("a text node has text"));
            }
        }
        h.u32(doc.parent(id).map_or(u32::MAX, |p| u32::try_from(p.index()).unwrap()));
        h.u32(u32::try_from(doc.subtree_end(id).index()).unwrap());
    }
    h.0
}

fn digest(doc: &Document) -> String {
    doc.debug_validate().unwrap();
    format!("{:016x}/{:016x}", node_digest(doc), xml_digest(&doc.to_xml_string()))
}

/// A deterministic projection: every fifth element below an element
/// about a fortieth of the way into the document.
fn projection_digest(doc: &Document) -> String {
    let root = doc.all_nodes().filter(|&n| doc.label_str(n).is_some()).nth(doc.len() / 40);
    let root = root.unwrap_or(doc.root());
    let keep: Vec<NodeId> = doc.subtree_elements(root).step_by(5).collect();
    let projected = doc.project(root, &keep);
    assert!(projected.shares_symbols_with(doc));
    digest(&projected)
}

/// The top snippets of a few queries over `doc`.
fn snippet_digest(doc: &Document) -> String {
    let extract = Extract::new(doc);
    let config = ExtractConfig::default();
    let mut h = Fnv::new();
    for q in ["store texas", "paper sigmod", "item description", "name", "woman outwear"] {
        for snippet in extract.snippets_for_query(q, &config).iter().take(3) {
            h.str(&snippet.snippet.to_xml());
            h.u32(u32::try_from(node_digest(snippet.snippet.tree()) >> 32).unwrap());
        }
    }
    format!("{:016x}", h.0)
}

/// The generated sources: (name, document built by `DocBuilder`).
fn generated() -> Vec<(&'static str, Document)> {
    vec![
        ("retailer", RetailerConfig { seed: 21, ..RetailerConfig::default() }.generate()),
        ("dblp", DblpConfig { seed: 21, ..DblpConfig::default() }.generate()),
        ("auction", AuctionConfig::with_target_nodes(3_000, 21).generate()),
        ("figure1", retailer::figure1_db()),
        ("demo_stores", retailer::demo_store_db()),
    ]
}

/// Compare `actual` with `expected` pairwise, printing the whole actual
/// table on a mismatch so a deliberate change can be re-pinned at once.
fn check(actual: &[(String, String)], expected: &[(&str, &str)]) {
    let matches = actual.len() == expected.len()
        && actual.iter().zip(expected).all(|((an, av), (en, ev))| an == en && av == ev);
    if !matches {
        for (name, value) in actual {
            println!("    ({name:?}, {value:?}),");
        }
        for ((an, av), (en, ev)) in actual.iter().zip(expected) {
            assert_eq!((an.as_str(), av.as_str()), (*en, *ev), "first mismatch");
        }
        assert_eq!(actual.len(), expected.len(), "case count");
    }
}

#[test]
fn generated_and_parsed_documents_keep_their_digests() {
    let mut actual = Vec::new();
    for (name, built) in generated() {
        actual.push((format!("{name}/built"), digest(&built)));
        let parsed = Document::parse_str(&built.to_xml_string()).unwrap();
        actual.push((format!("{name}/parsed"), digest(&parsed)));
        actual.push((format!("{name}/projected"), projection_digest(&parsed)));
        actual.push((format!("{name}/snippets"), snippet_digest(&parsed)));
    }
    check(&actual, GENERATED);
}

#[test]
fn a_benchmark_shaped_corpus_keeps_its_digests() {
    let config = CorpusConfig { documents: 6, target_nodes_per_doc: 4_000, seed: 7 };
    let mut actual = Vec::new();
    for (name, built) in config.documents() {
        let parsed = Document::parse_str(&built.to_xml_string()).unwrap();
        assert_eq!(parsed.len(), parsed.all_nodes().count());
        actual.push((format!("{name}/parsed"), digest(&parsed)));
        actual.push((format!("{name}/projected"), projection_digest(&parsed)));
        actual.push((format!("{name}/snippets"), snippet_digest(&parsed)));
    }
    check(&actual, CORPUS);
}

fn outcome(source: &str, options: &ParseOptions) -> String {
    match extract_xml::parser::parse(source, options) {
        Ok(doc) => digest(&doc),
        Err(e) => format!("{e:?}"),
    }
}

/// Inputs on the lexer's edges: constructs cut off at end of input,
/// multi-byte UTF-8 next to markup, entity-bearing attribute values,
/// whitespace and merging rules, and the structural errors.
const HOSTILE: &[&str] = &[
    // cut off at end of input
    "<a>&amp",
    "<a>x &am",
    "<a>&#x4",
    "<a b=\"&amp",
    "<a b=\"v",
    "<a><!-- cut",
    "<a><!-- cut -",
    "<a><!-- cut --",
    "<a><![CDATA[cut",
    "<a><![CDATA[cut]]",
    "<a",
    "<a ",
    "<a b",
    "<a b=",
    "<a b=\"v\"",
    "<a/",
    "<",
    "</",
    "<a></a",
    "<a></",
    "<a><b>x</b>",
    "<?pi",
    "<?pi x ?",
    "<!",
    "<!x",
    "<!DOCTYPE",
    "<!DOCTYPE a [",
    "<!DOCTYPE a [<!ELEMENT a (b)>]",
    "",
    // multi-byte UTF-8 right before `<` or `&`
    "<a>é<b/>ü&amp;</a>",
    "<a>日本<b>語</b>€&lt;</a>",
    "<é>x</é>",
    "<a>\né\n<b x=\"ü&bad;\"/></a>",
    "<a>é&bad;</a>",
    "<a>\n\n  <b>é</b>\n  <c oops></c></a>",
    "<日本>x</本日>",
    "<a/>é",
    "é<a/>",
    "<a>\u{3000}x\u{3000}</a>",
    "<a>€\r\n<b>\r\n</b>\r\n</a>",
    // entity-bearing attribute values
    "<a b=\"x &lt;\"/>",
    "<a b='&bad;'/>",
    "<a b=\"&#xD800;\"/>",
    "<a b=\"1 &amp; 2\" c='&quot;q&quot;'/>",
    "<a b=\"&#60;tag&#62;\">t</a>",
    "<a b=\"\"/>",
    "<a b=\"&#32;\">x</a>",
    "<a x=\"1\" x=\"2\"/>",
    "<a\tb\n=\r'1'/>",
    "<a b=\"1\"c=\"2\"/>",
    "<a b=1/>",
    "<a/ >",
    "<!DOCTYPE a SYSTEM \"&bad;\"><a/>",
    "<a/><b x=\"&bad;\"/>",
    // text rules: trimming, blank text, merging, CDATA
    "<a> &#32; </a>",
    "<a>one<!--c-->two<![CDATA[three]]><?p?>four</a>",
    "<a>x<![CDATA[]]></a>",
    "<a><![CDATA[]]></a>",
    "<a>&#0;</a>",
    "<a>]]></a>",
    "<a>x > y</a>",
    "<p>hello <em>big</em> world</p>",
    // structure
    "<a>x</a><!-- c -->  <?pi?>",
    "<a>x</a>y",
    "<a></b>",
    "</a>",
    "<a></a >",
    "<a></a\n>",
    "<a></a x>",
    "<!DOCTYPE a PUBLIC 'x' 'y' [<!ELEMENT a (#PCDATA)>]><a>t</a>",
    "<!DOCTYPE a [<!ELEMENT a (b)> ]  ><a/>",
    "<!DOCTYPE a [<!ELEMENT a (b)> ] x><a/>",
    "<?xml version='1.0'?>\n<!DOCTYPE a>\n<a/>",
    "<a><!DOCTYPE b><b/></a>",
];

#[test]
fn hostile_inputs_keep_their_outcomes() {
    let variants = [
        ("default", ParseOptions::default()),
        ("no-attrs", ParseOptions { attributes_as_elements: false, ..ParseOptions::default() }),
        (
            "raw-text",
            ParseOptions {
                keep_whitespace_text: true,
                trim_text: false,
                ..ParseOptions::default()
            },
        ),
    ];
    let mut actual = Vec::new();
    for (i, source) in HOSTILE.iter().enumerate() {
        for (name, options) in &variants {
            actual.push((format!("{i}/{name}"), outcome(source, options)));
        }
    }
    // The nesting limit, at and just past it.
    let nested = |depth: usize| "<d>".repeat(depth) + &"</d>".repeat(depth);
    let default = ParseOptions::default();
    actual.push(("depth-1024".into(), outcome(&nested(1024), &default)));
    actual.push(("depth-1025".into(), outcome(&nested(1025), &default)));
    check(&actual, HOSTILE_OUTCOMES);
}

const GENERATED: &[(&str, &str)] = &[
    ("retailer/built", "d22337191030b50a/4edcb128ce93ad08"),
    ("retailer/parsed", "d22337191030b50a/4edcb128ce93ad08"),
    ("retailer/projected", "01aa10b13ebb4682/4d49489b7eff4cbf"),
    ("retailer/snippets", "b5240b4bfcccf04b"),
    ("dblp/built", "6926ef75d8d6e33d/477a159ef9dcde36"),
    ("dblp/parsed", "6926ef75d8d6e33d/477a159ef9dcde36"),
    ("dblp/projected", "c5ac4a0d31c9d29e/6cd74eab41584789"),
    ("dblp/snippets", "39974a445b028dfd"),
    ("auction/built", "9179bcb70cf4d61a/77aee2482d41b9a4"),
    ("auction/parsed", "9179bcb70cf4d61a/77aee2482d41b9a4"),
    ("auction/projected", "bed5e8071efdb06c/4f38e4bf1e810fc6"),
    ("auction/snippets", "41473b8f8cdfcb99"),
    ("figure1/built", "2ae70671ba0ff731/388305c2fc024178"),
    ("figure1/parsed", "2ae70671ba0ff731/388305c2fc024178"),
    ("figure1/projected", "71bd6713665e4002/1512cac8e9fe2d81"),
    ("figure1/snippets", "23577d52abd01077"),
    ("demo_stores/built", "87cd0933c207338e/5e056465c195e787"),
    ("demo_stores/parsed", "87cd0933c207338e/5e056465c195e787"),
    ("demo_stores/projected", "a1730da35bf6a174/ed48cd5ce59f74bb"),
    ("demo_stores/snippets", "e69ac4e51cbcd43f"),
];

const CORPUS: &[(&str, &str)] = &[
    ("dblp-0000/parsed", "4fdda0951c2e40d7/10efa819eeaa662c"),
    ("dblp-0000/projected", "5f1004c8a71d9603/b698867d8ec6a12e"),
    ("dblp-0000/snippets", "32a3f657d7d114c1"),
    ("retailer-0001/parsed", "7c22e136c81f66ba/3adebe6e04d3d1c9"),
    ("retailer-0001/projected", "763fd555ee8821aa/bd4f922aa00eb5be"),
    ("retailer-0001/snippets", "6333b94fb834ba6b"),
    ("auction-0002/parsed", "4852ad0eced38b2c/fb07194da88e4f26"),
    ("auction-0002/projected", "8442c8f7fe574ebd/673265349ae0809b"),
    ("auction-0002/snippets", "54d476efaa2f84c9"),
    ("dblp-0003/parsed", "1f44e2f07b06fbe6/32ad3b2492829529"),
    ("dblp-0003/projected", "861eede88f2c8214/3e0a52de580925a2"),
    ("dblp-0003/snippets", "de291282db8f3028"),
    ("retailer-0004/parsed", "9280f4cf9c31c0fa/ac61c38e3945fe4a"),
    ("retailer-0004/projected", "a6fec724d6985821/4b09b6234acc4e52"),
    ("retailer-0004/snippets", "086448648249ad6d"),
    ("auction-0005/parsed", "a170cb6db1530ac4/0a5839e3f1603f54"),
    ("auction-0005/projected", "a4699ba145074128/95c499148bfbdbc4"),
    ("auction-0005/snippets", "f6c360834654a1af"),
];

const HOSTILE_OUTCOMES: &[(&str, &str)] = &[
    ("0/default", "BadReference { reference: \"amp\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("0/no-attrs", "BadReference { reference: \"amp\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("0/raw-text", "BadReference { reference: \"amp\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("1/default", "BadReference { reference: \"am\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("1/no-attrs", "BadReference { reference: \"am\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("1/raw-text", "BadReference { reference: \"am\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("2/default", "BadReference { reference: \"#x4\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("2/no-attrs", "BadReference { reference: \"#x4\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("2/raw-text", "BadReference { reference: \"#x4\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("3/default", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("3/no-attrs", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("3/raw-text", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("4/default", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 8, offset: 7 } }"),
    ("4/no-attrs", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 8, offset: 7 } }"),
    ("4/raw-text", "UnexpectedEof { expected: \"closing quote\", position: Position { line: 1, column: 8, offset: 7 } }"),
    ("5/default", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("5/no-attrs", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("5/raw-text", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("6/default", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("6/no-attrs", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("6/raw-text", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("7/default", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 15, offset: 14 } }"),
    ("7/no-attrs", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 15, offset: 14 } }"),
    ("7/raw-text", "UnexpectedEof { expected: \"`-->`\", position: Position { line: 1, column: 15, offset: 14 } }"),
    ("8/default", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 16, offset: 15 } }"),
    ("8/no-attrs", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 16, offset: 15 } }"),
    ("8/raw-text", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 16, offset: 15 } }"),
    ("9/default", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 18, offset: 17 } }"),
    ("9/no-attrs", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 18, offset: 17 } }"),
    ("9/raw-text", "UnexpectedEof { expected: \"`]]>`\", position: Position { line: 1, column: 18, offset: 17 } }"),
    ("10/default", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("10/no-attrs", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("10/raw-text", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("11/default", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("11/no-attrs", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("11/raw-text", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("12/default", "Syntax { message: \"expected `=` after attribute `b`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("12/no-attrs", "Syntax { message: \"expected `=` after attribute `b`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("12/raw-text", "Syntax { message: \"expected `=` after attribute `b`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("13/default", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("13/no-attrs", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("13/raw-text", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("14/default", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("14/no-attrs", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("14/raw-text", "UnexpectedEof { expected: \"`>` to close the tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("15/default", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("15/no-attrs", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("15/raw-text", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("16/default", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 2, offset: 1 } }"),
    ("16/no-attrs", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 2, offset: 1 } }"),
    ("16/raw-text", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 2, offset: 1 } }"),
    ("17/default", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("17/no-attrs", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("17/raw-text", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 3, offset: 2 } }"),
    ("18/default", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("18/no-attrs", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("18/raw-text", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("19/default", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("19/no-attrs", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("19/raw-text", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 6, offset: 5 } }"),
    // Input 20 ends with `<a>` still open: the error names where the input
    // ends, like every other error names where it was found.
    ("20/default", "UnexpectedEof { expected: \"</a>\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("20/no-attrs", "UnexpectedEof { expected: \"</a>\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("20/raw-text", "UnexpectedEof { expected: \"</a>\", position: Position { line: 1, column: 12, offset: 11 } }"),
    ("21/default", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("21/no-attrs", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("21/raw-text", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("22/default", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("22/no-attrs", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("22/raw-text", "UnexpectedEof { expected: \"`?>`\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("23/default", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("23/no-attrs", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("23/raw-text", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("24/default", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("24/no-attrs", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("24/raw-text", "Syntax { message: \"unrecognized markup after `<!`\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("25/default", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("25/no-attrs", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("25/raw-text", "Syntax { message: \"expected a name\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("26/default", "UnexpectedEof { expected: \"`]` to close the internal subset\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("26/no-attrs", "UnexpectedEof { expected: \"`]` to close the internal subset\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("26/raw-text", "UnexpectedEof { expected: \"`]` to close the internal subset\", position: Position { line: 1, column: 14, offset: 13 } }"),
    ("27/default", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 31, offset: 30 } }"),
    ("27/no-attrs", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 31, offset: 30 } }"),
    ("27/raw-text", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 31, offset: 30 } }"),
    ("28/default", "NoRootElement"),
    ("28/no-attrs", "NoRootElement"),
    ("28/raw-text", "NoRootElement"),
    ("29/default", "bad4211b699708b1/f662d9f2ce9f15f3"),
    ("29/no-attrs", "bad4211b699708b1/f662d9f2ce9f15f3"),
    ("29/raw-text", "bad4211b699708b1/f662d9f2ce9f15f3"),
    ("30/default", "fa0aed2490a3b1c8/573725d48f958f8c"),
    ("30/no-attrs", "fa0aed2490a3b1c8/573725d48f958f8c"),
    ("30/raw-text", "fa0aed2490a3b1c8/573725d48f958f8c"),
    ("31/default", "d5da09f376185513/183cdcca1c9da57c"),
    ("31/no-attrs", "d5da09f376185513/183cdcca1c9da57c"),
    ("31/raw-text", "d5da09f376185513/183cdcca1c9da57c"),
    ("32/default", "BadReference { reference: \"bad\", position: Position { line: 3, column: 7, offset: 13 } }"),
    ("32/no-attrs", "BadReference { reference: \"bad\", position: Position { line: 3, column: 7, offset: 13 } }"),
    ("32/raw-text", "BadReference { reference: \"bad\", position: Position { line: 3, column: 7, offset: 13 } }"),
    ("33/default", "BadReference { reference: \"bad\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("33/no-attrs", "BadReference { reference: \"bad\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("33/raw-text", "BadReference { reference: \"bad\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("34/default", "Syntax { message: \"expected `=` after attribute `oops`\", position: Position { line: 4, column: 11, offset: 27 } }"),
    ("34/no-attrs", "Syntax { message: \"expected `=` after attribute `oops`\", position: Position { line: 4, column: 11, offset: 27 } }"),
    ("34/raw-text", "Syntax { message: \"expected `=` after attribute `oops`\", position: Position { line: 4, column: 11, offset: 27 } }"),
    ("35/default", "MismatchedTag { expected: \"日本\", found: \"本日\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("35/no-attrs", "MismatchedTag { expected: \"日本\", found: \"本日\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("35/raw-text", "MismatchedTag { expected: \"日本\", found: \"本日\", position: Position { line: 1, column: 10, offset: 9 } }"),
    ("36/default", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("36/no-attrs", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("36/raw-text", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("37/default", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("37/no-attrs", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("37/raw-text", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("38/default", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("38/no-attrs", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("38/raw-text", "7e8f29a2e11ca69f/459203091215d8a4"),
    ("39/default", "faf3572d32db4294/0e085bda281758df"),
    ("39/no-attrs", "faf3572d32db4294/0e085bda281758df"),
    ("39/raw-text", "128fb5f7b6f0a46f/70de96a21b6d1c2f"),
    ("40/default", "fe58a897ba30caf4/13857b95c9a89d40"),
    ("40/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("40/raw-text", "fe58a897ba30caf4/13857b95c9a89d40"),
    ("41/default", "BadReference { reference: \"bad\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("41/no-attrs", "BadReference { reference: \"bad\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("41/raw-text", "BadReference { reference: \"bad\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("42/default", "BadReference { reference: \"#xD800\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("42/no-attrs", "BadReference { reference: \"#xD800\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("42/raw-text", "BadReference { reference: \"#xD800\", position: Position { line: 1, column: 7, offset: 6 } }"),
    ("43/default", "d971ff578c14e1c9/7f40bce73e6bb646"),
    ("43/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("43/raw-text", "d971ff578c14e1c9/7f40bce73e6bb646"),
    ("44/default", "1cc76e97e8f81f3b/c2b7433ea96544ba"),
    ("44/no-attrs", "359a21edfd5a8d65/ac9d2299ccdc7f16"),
    ("44/raw-text", "1cc76e97e8f81f3b/c2b7433ea96544ba"),
    ("45/default", "430384077e3ec797/11d45f8420150d15"),
    ("45/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("45/raw-text", "430384077e3ec797/11d45f8420150d15"),
    ("46/default", "7848af192d796111/ca45223935eb98d1"),
    ("46/no-attrs", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("46/raw-text", "7848af192d796111/ca45223935eb98d1"),
    ("47/default", "4fcd9336986c7347/97a2a3d64925cee6"),
    ("47/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("47/raw-text", "4fcd9336986c7347/97a2a3d64925cee6"),
    ("48/default", "06477944d214d84d/825e5939c17de6a1"),
    ("48/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("48/raw-text", "06477944d214d84d/825e5939c17de6a1"),
    ("49/default", "6073f0e796e9bc24/76ad8039d6305200"),
    ("49/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("49/raw-text", "6073f0e796e9bc24/76ad8039d6305200"),
    ("50/default", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("50/no-attrs", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("50/raw-text", "Syntax { message: \"expected a quoted value\", position: Position { line: 1, column: 6, offset: 5 } }"),
    ("51/default", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("51/no-attrs", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("51/raw-text", "Syntax { message: \"expected `>` after `/`\", position: Position { line: 1, column: 5, offset: 4 } }"),
    ("52/default", "BadReference { reference: \"bad\", position: Position { line: 1, column: 21, offset: 20 } }"),
    ("52/no-attrs", "BadReference { reference: \"bad\", position: Position { line: 1, column: 21, offset: 20 } }"),
    ("52/raw-text", "BadReference { reference: \"bad\", position: Position { line: 1, column: 21, offset: 20 } }"),
    ("53/default", "BadReference { reference: \"bad\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("53/no-attrs", "BadReference { reference: \"bad\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("53/raw-text", "BadReference { reference: \"bad\", position: Position { line: 1, column: 11, offset: 10 } }"),
    ("54/default", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("54/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("54/raw-text", "2ea8d0c54cb6fddb/833dc2b41b44ce48"),
    ("55/default", "25d8fc5a29ee7d41/916bc7dd387f0c0a"),
    ("55/no-attrs", "25d8fc5a29ee7d41/916bc7dd387f0c0a"),
    ("55/raw-text", "25d8fc5a29ee7d41/916bc7dd387f0c0a"),
    ("56/default", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("56/no-attrs", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("56/raw-text", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("57/default", "1699e9aa37806fda/00b423223965f513"),
    ("57/no-attrs", "1699e9aa37806fda/00b423223965f513"),
    ("57/raw-text", "1699e9aa37806fda/00b423223965f513"),
    ("58/default", "1e962250f49e1649/96e4e842976fb372"),
    ("58/no-attrs", "1e962250f49e1649/96e4e842976fb372"),
    ("58/raw-text", "1e962250f49e1649/96e4e842976fb372"),
    ("59/default", "5a02649185f0f08b/81b2c874f97160f9"),
    ("59/no-attrs", "5a02649185f0f08b/81b2c874f97160f9"),
    ("59/raw-text", "5a02649185f0f08b/81b2c874f97160f9"),
    ("60/default", "4ad75e8ab808b344/a7cf283ae2ccc31a"),
    ("60/no-attrs", "4ad75e8ab808b344/a7cf283ae2ccc31a"),
    ("60/raw-text", "4ad75e8ab808b344/a7cf283ae2ccc31a"),
    ("61/default", "b8fc3eceb521710a/13c58ab5bf1ba9a6"),
    ("61/no-attrs", "b8fc3eceb521710a/13c58ab5bf1ba9a6"),
    ("61/raw-text", "e156e639a9a28974/54226eb9997ec05e"),
    ("62/default", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("62/no-attrs", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("62/raw-text", "4c9e218b06170481/2eb1cef31a3a359a"),
    ("63/default", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("63/no-attrs", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("63/raw-text", "Syntax { message: \"character data outside the root element\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("64/default", "MismatchedTag { expected: \"a\", found: \"b\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("64/no-attrs", "MismatchedTag { expected: \"a\", found: \"b\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("64/raw-text", "MismatchedTag { expected: \"a\", found: \"b\", position: Position { line: 1, column: 4, offset: 3 } }"),
    ("65/default", "MismatchedTag { expected: \"(nothing open)\", found: \"a\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("65/no-attrs", "MismatchedTag { expected: \"(nothing open)\", found: \"a\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("65/raw-text", "MismatchedTag { expected: \"(nothing open)\", found: \"a\", position: Position { line: 1, column: 1, offset: 0 } }"),
    ("66/default", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("66/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("66/raw-text", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("67/default", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("67/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("67/raw-text", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("68/default", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("68/no-attrs", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("68/raw-text", "Syntax { message: \"expected `>` in close tag\", position: Position { line: 1, column: 9, offset: 8 } }"),
    ("69/default", "359a21edfd5a8d65/ac9d2299ccdc7f16"),
    ("69/no-attrs", "359a21edfd5a8d65/ac9d2299ccdc7f16"),
    ("69/raw-text", "359a21edfd5a8d65/ac9d2299ccdc7f16"),
    ("70/default", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("70/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("70/raw-text", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("71/default", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 34, offset: 33 } }"),
    ("71/no-attrs", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 34, offset: 33 } }"),
    ("71/raw-text", "Syntax { message: \"expected `>` to close DOCTYPE\", position: Position { line: 1, column: 34, offset: 33 } }"),
    ("72/default", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("72/no-attrs", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("72/raw-text", "e67d7d8ee54068f4/e51343e3af61e80b"),
    ("73/default", "dd9dac428257b22a/1f348b7c8b742764"),
    ("73/no-attrs", "dd9dac428257b22a/1f348b7c8b742764"),
    ("73/raw-text", "dd9dac428257b22a/1f348b7c8b742764"),
    ("depth-1024", "37f57d38c9cbb953/b0bd2b7fa686227b"),
    ("depth-1025", "TooDeep { limit: 1024, position: Position { line: 1, column: 3073, offset: 3072 } }"),
];
