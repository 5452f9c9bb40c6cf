//! The byte-moving merge against the tree-building one it replaced.
//!
//! The reference below is the old `merge.rs`: `json::parse` the shard
//! body into a `Value` tree, pull typed fields out of it, clone every hit
//! into one vector, sort, window, re-render with `JsonWriter`. The
//! properties pin the scanner to it:
//!
//! 1. `parse_page` accepts and rejects exactly the bodies the reference
//!    does — daemon-rendered ones and hostile ones — and extracts equal
//!    `(total, doc, doc_id, root, score, snippet)`; `doc` and `snippet`
//!    are read back out of the rendered splice, so the byte ranges are
//!    checked with them.
//! 2. `render_search(merge_pages(…))` over three to five sorted shard
//!    pages with score ties is the reference's output byte for byte.

use extract_router::merge::{self, ShardTally};
use extract_serve::json::{self, JsonWriter, Value, MAX_DEPTH, MAX_SAFE_JSON_INT};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference: the tree-based page parser and clone-sort-render merge.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct RefHit {
    doc: String,
    doc_id: u64,
    root: u64,
    score: f64,
    snippet: String,
}

fn reference_page(body: &str) -> Result<(u64, Vec<RefHit>), String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let total = doc.get("total").and_then(Value::as_u64).ok_or("missing numeric 'total'")?;
    let results = doc.get("results").and_then(Value::as_arr).ok_or("missing 'results'")?;
    let mut hits = Vec::new();
    for result in results {
        let text = |key: &str| result.get(key).and_then(Value::as_str).map(str::to_string);
        let uint = |key: &str| result.get(key).and_then(Value::as_u64);
        hits.push(RefHit {
            doc: text("doc").ok_or("missing 'doc'")?,
            doc_id: uint("doc_id").ok_or("missing 'doc_id'")?,
            root: uint("root").ok_or("missing 'root'")?,
            score: result.get("score").and_then(Value::as_f64).ok_or("missing 'score'")?,
            snippet: text("snippet").ok_or("missing 'snippet'")?,
        });
    }
    Ok((total, hits))
}

fn reference_search(
    pages: &[Option<(u64, Vec<RefHit>)>],
    doc_bases: &[u64],
    q: &str,
    (k, offset, requested_k): (usize, usize, usize),
    tally: ShardTally,
) -> String {
    let (mut total, mut truncated, mut merged) = (0u64, false, Vec::new());
    for (index, page) in pages.iter().enumerate() {
        let Some((page_total, hits)) = page else { continue };
        total = total.saturating_add(*page_total);
        truncated |= (hits.len() as u64) < (requested_k as u64).min(*page_total);
        merged.extend(hits.iter().map(|hit| RefHit {
            doc_id: doc_bases[index].saturating_add(hit.doc_id),
            ..hit.clone()
        }));
    }
    merged.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.doc_id.cmp(&b.doc_id))
            .then_with(|| a.root.cmp(&b.root))
    });
    let hits: Vec<RefHit> = merged.into_iter().skip(offset).take(k).collect();
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("query");
    w.str(q);
    w.key("k");
    w.num_u64(k as u64);
    w.key("offset");
    w.num_u64(offset as u64);
    w.key("total");
    w.num_u64(total);
    w.key("count");
    w.num_u64(hits.len() as u64);
    w.key("results");
    w.arr_begin();
    for hit in &hits {
        write_hit(&mut w, hit);
    }
    w.arr_end();
    w.key("partial");
    w.bool(tally.answered < tally.queried || truncated);
    w.key("shards");
    w.obj_begin();
    w.key("queried");
    w.num_u64(tally.queried as u64);
    w.key("answered");
    w.num_u64(tally.answered as u64);
    w.obj_end();
    w.obj_end();
    w.finish()
}

fn write_hit(w: &mut JsonWriter, hit: &RefHit) {
    w.obj_begin();
    w.key("doc");
    w.str(&hit.doc);
    w.key("doc_id");
    w.num_u64(hit.doc_id);
    w.key("root");
    w.num_u64(hit.root);
    w.key("score");
    w.num_f64(hit.score);
    w.key("snippet");
    w.str(&hit.snippet);
    w.obj_end();
}

/// A shard `/search` body as the daemon renders it.
fn daemon_body(total: u64, hits: &[RefHit]) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("query");
    w.str("q \"x\"");
    w.key("k");
    w.num_u64(10);
    w.key("offset");
    w.num_u64(0);
    w.key("total");
    w.num_u64(total);
    w.key("count");
    w.num_u64(hits.len() as u64);
    w.key("results");
    w.arr_begin();
    for hit in hits {
        write_hit(&mut w, hit);
    }
    w.arr_end();
    w.obj_end();
    w.finish()
}

// ---------------------------------------------------------------------
// Property 1: scanner ≡ reference.
// ---------------------------------------------------------------------

/// Both parsers on `body`: same verdict, and on acceptance the same
/// page — keys compared directly, `doc` / `snippet` / the spliced
/// `doc_id` read back from the rendered router body.
fn assert_scanner_matches_reference(body: &str) {
    let reference = reference_page(body);
    let scanned = merge::parse_page(body);
    assert_eq!(
        reference.is_ok(),
        scanned.is_ok(),
        "verdicts differ on {body:?}: reference {reference:?}, scanner {scanned:?}"
    );
    let (Ok((total, hits)), Ok(page)) = (reference, scanned) else { return };
    assert_eq!(page.total, total, "{body:?}");
    let keys: Vec<_> = page.hits.iter().map(|h| (h.doc_id, h.root, h.score)).collect();
    let expected: Vec<_> = hits.iter().map(|h| (h.doc_id, h.root, h.score)).collect();
    assert_eq!(keys, expected, "{body:?}");
    let n = hits.len();
    let merged = merge::merge_pages(&[Some(page)], &[0], n, 0, n);
    let tally = ShardTally { queried: 1, answered: 1 };
    let rendered = merge::render_search("q", n, 0, &merged, false, tally);
    let tree = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("splice of {body:?} is not JSON: {e}\n{rendered}"));
    let results = tree.get("results").and_then(Value::as_arr).expect("results");
    assert_eq!(results.len(), n);
    for (result, hit) in results.iter().zip(&hits) {
        assert_eq!(result.get("doc").and_then(Value::as_str), Some(hit.doc.as_str()));
        assert_eq!(result.get("snippet").and_then(Value::as_str), Some(hit.snippet.as_str()));
        assert_eq!(
            result.get("doc_id").and_then(Value::as_u64),
            Some(hit.doc_id.min(MAX_SAFE_JSON_INT)),
            "{body:?}"
        );
    }
}

fn any_hit() -> impl Strategy<Value = RefHit> {
    (".{0,10}", 0u64..40, 0u64..2_000, 0u32..6, ".{0,24}").prop_map(
        |(doc, doc_id, root, score, snippet)| RefHit {
            doc,
            doc_id,
            root,
            score: f64::from(score) * 0.37,
            snippet,
        },
    )
}

/// `valid` nineteen times in twenty, else `invalid`: a hostile body
/// should mostly be flawed in one place, not everywhere at once, or
/// nothing is ever accepted and the extraction is never compared.
fn mostly<V, I>(valid: V, invalid: I) -> impl Strategy<Value = String>
where
    V: Strategy<Value = String>,
    I: Strategy<Value = &'static str>,
{
    (valid, invalid, 0u8..20).prop_map(|(valid, invalid, roll)| match roll {
        0 => invalid.to_string(),
        _ => valid,
    })
}

/// String tokens in every spelling a peer could send: writer-rendered
/// (all the escapes the daemon emits), the escapes it never emits, and
/// broken ones.
fn string_token() -> impl Strategy<Value = String> {
    let valid = prop_oneof![
        ".{0,12}".prop_map(|s| {
            let mut w = JsonWriter::new();
            w.str(&s);
            w.finish()
        }),
        prop_oneof![
            Just(r#""a\/b""#),
            Just(r#""\u00e9\u00E9""#),
            Just(r#""\ud83e\udd80 crab""#),
            Just(r#""\uD83E\uDD80""#),
            Just(r#""\ud800\udc00\udbff\udfff\ud7ff\ue000""#),
            Just(r#""\b\f\n\r\t\"\\""#),
            Just(r#""<a href=\"x\">é中🦀</a>""#),
        ]
        .prop_map(str::to_string),
    ];
    let invalid = prop_oneof![
        Just(r#""\ud83e""#),
        Just(r#""\ud83eA""#),
        Just(r#""\ud83e\u0041""#),
        Just(r#""\udd80""#),
        Just(r#""\udc00""#),
        Just(r#""\udfff""#),
        Just(r#""\ud800\ud800""#),
        Just(r#""\udbff\ue000""#),
        Just(r#""\x""#),
        Just(r#""\u12""#),
        Just("\"raw \u{1} control\""),
        Just(r#""unterminated"#),
        Just("null"),
        Just("7"),
    ];
    mostly(valid, invalid)
}

fn uint_token() -> impl Strategy<Value = String> {
    let valid = prop_oneof![
        (0u64..100).prop_map(|n| n.to_string()),
        prop_oneof![
            Just("1e2"),
            Just("3.0"),
            Just("-0"),
            Just("-0.0e3"),
            Just("999999999999999"),
            Just("1000000000000000"),
            Just("9007199254740993"),
            Just("18446744073709551615"),
            Just("18446744073709551616"),
            Just("1e19"),
        ]
        .prop_map(str::to_string),
    ];
    let invalid = prop_oneof![
        Just("12.5"),
        Just("-1"),
        Just("1e20"),
        Just("01"),
        Just("-01"),
        Just("1."),
        Just("1e"),
        Just("1e+"),
        Just("null"),
        Just("\"3\""),
        Just("[3]"),
    ];
    mostly(valid, invalid)
}

fn score_token() -> impl Strategy<Value = String> {
    let valid = prop_oneof![
        Just("0.5"),
        Just("1"),
        Just("1e-3"),
        Just("-2.5"),
        Just("0.19047437777882678"),
        Just("1E999"),
    ]
    .prop_map(str::to_string);
    mostly(valid, prop_oneof![Just("null"), Just("true"), Just("[1]"), Just("-"), Just(".5")])
}

/// A member the page format does not know: valid values of every kind,
/// and the invalid ones a validator must still catch inside them.
fn extra_member() -> impl Strategy<Value = String> {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let valid = prop_oneof![
        Just(r#""x":null"#.to_string()),
        Just(r#""x":{"a":{"b":[1,2,{"c":"\ud83e\udd80"}]},"d":-1.5e-3," ":[]}"#.to_string()),
        (MAX_DEPTH - 4..MAX_DEPTH + 4).prop_map(move |depth| format!("\"x\":{}", nest(depth))),
    ];
    let invalid = prop_oneof![
        Just(r#""x":{"a":1,"a":2}"#),
        Just(r#""x":{"a":1,"\u0061":2}"#),
        Just(r#""x":[1,]"#),
        Just(r#""x":tru"#),
        Just(r#""x":"\ud83e""#),
        Just(r#""doc":"twice""#),
        Just(r#""d\u006fc":"twice, escaped""#),
    ];
    mostly(valid, invalid)
}

fn whitespace() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just(""), Just(" "), Just("\n\t "), Just("\r")]
}

/// One hit object from free-form member tokens: `order` shuffles the
/// members, `shape` may leave one out or spell the `doc_id` key with an
/// escape.
fn hostile_hit() -> impl Strategy<Value = String> {
    let members = (string_token(), uint_token(), uint_token(), score_token(), string_token());
    let shape = (prop::collection::vec(0u8..=255, 6), 0usize..40, whitespace());
    (members, prop::option::of(extra_member()), shape).prop_map(
        |((doc, doc_id, root, score, snippet), extra, (order, shape, ws))| {
            let doc_id_key = if shape < 10 { r#""doc\u005fid""# } else { r#""doc_id""# };
            let mut members = vec![
                format!("\"doc\"{ws}:{ws}{doc}"),
                format!("{doc_id_key}:{ws}{doc_id}"),
                format!("\"root\":{root}{ws}"),
                format!("\"score\":{score}"),
                format!("{ws}\"snippet\":{snippet}"),
            ];
            if let Some(dropped) = shape.checked_sub(35) {
                members.remove(dropped);
            }
            members.extend(extra);
            let mut keyed: Vec<(u8, String)> = order.into_iter().zip(members).collect();
            keyed.sort();
            let members: Vec<String> = keyed.into_iter().map(|(_, member)| member).collect();
            format!("{{{ws}{}{ws}}}", members.join(","))
        },
    )
}

fn hostile_body() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(hostile_hit(), 0..4),
        uint_token(),
        prop::option::of(extra_member()),
        0usize..16,
        whitespace(),
        mostly(Just(String::new()), prop_oneof![Just("x"), Just("{}"), Just(","), Just("]")]),
    )
        .prop_map(|(hits, total, extra, shape, ws, trailer)| {
            let hits = hits.join(&format!("{ws},{ws}"));
            let results = format!("\"results\":{ws}[{ws}{hits}{ws}]");
            let total = format!("\"total\"{ws}:{total}");
            let mut members = match shape {
                0 => vec![total],
                1 => vec![results],
                2 => vec![total.clone(), results, total],
                3..=8 => vec![results, total],
                _ => vec![total, results],
            };
            members.insert(0, "\"query\":\"q\"".to_string());
            members.extend(extra);
            format!("{ws}{{{}}}{ws}{trailer}", members.join(","))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scanner_matches_the_tree_parser_on_daemon_bodies(
        hits in prop::collection::vec(any_hit(), 0..6),
        total in 0u64..1_000,
    ) {
        let body = daemon_body(total, &hits);
        assert_scanner_matches_reference(&body);
        prop_assert!(merge::parse_page(&body).is_ok(), "a daemon body must scan: {body:?}");
        // Cut anywhere, or followed by anything, it is no longer a page.
        for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
            assert_scanner_matches_reference(&body[..cut]);
        }
        for trailer in [" ", "\n", "x", "{}", "]"] {
            assert_scanner_matches_reference(&format!("{body}{trailer}"));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn scanner_matches_the_tree_parser_on_hostile_bodies(body in hostile_body()) {
        assert_scanner_matches_reference(&body);
    }
}

#[test]
fn scanner_matches_the_tree_parser_at_the_depth_bound() {
    // Nested extras inside a hit sit three levels down already.
    for depth in MAX_DEPTH - 5..MAX_DEPTH + 3 {
        for filling in ["", "1", "{}", "{\"a\":1}"] {
            let nest = format!("{}{filling}{}", "[".repeat(depth), "]".repeat(depth));
            assert_scanner_matches_reference(&format!(
                "{{\"total\":1,\"results\":[{{\"doc\":\"d\",\"doc_id\":0,\"root\":1,\
                 \"score\":1,\"snippet\":\"s\",\"x\":{nest}}}],\"y\":{nest}}}"
            ));
        }
    }
}

#[test]
fn scanner_matches_the_tree_parser_one_step_off_the_daemon_shape() {
    // The scanner reads a hit rendered exactly like the daemon's straight
    // through and everything else the general way: each variant here
    // leaves the straight path at a different member.
    let members =
        [r#""doc":"d""#, r#""doc_id":7"#, r#""root":3"#, r#""score":0.5"#, r#""snippet":"<s/>""#];
    let mut variants = vec![members.join(",")];
    for at in 0..=members.len() {
        for extra in [r#""x":[{"y":null}]"#, r#""doc":"again""#, r#""snippet":1"#] {
            let mut with_extra = members.to_vec();
            with_extra.insert(at, extra);
            variants.push(with_extra.join(","));
        }
    }
    for at in 0..members.len() {
        let mut without = members.to_vec();
        without.remove(at);
        variants.push(without.join(","));
        let mut swapped = members.to_vec();
        swapped.swap(at, (at + 1) % members.len());
        variants.push(swapped.join(","));
        for spaced in [format!(" {}", members[at]), members[at].replacen(':', " : ", 1)] {
            let mut with_space = members.to_vec();
            with_space[at] = &spaced;
            variants.push(with_space.join(","));
            variants.push(with_space.join(" , ") + " ");
        }
    }
    for (from, to) in [
        ("7", "1e1"),
        ("7", "-0"),
        ("7", "9007199254740993"),
        ("7", "7.5"),
        ("3", "\"3\""),
        ("3", "3.5"),
        ("3", "-3"),
        ("3", "3e0"),
        ("\"d\"", "7"),
        ("\"<s/>\"", "1"),
        ("\"<s/>\"", "[\"<s/>\"]"),
        ("0.5", "null"),
        ("0.5", "1E400"),
        ("\"d\"", "\"\\ud83e\""),
        ("\"<s/>\"", "\"\\\"q\\\" \\ud83e\\udd80\""),
        ("\"doc_id\"", "\"doc\\u005fid\""),
    ] {
        variants.push(members.join(",").replacen(from, to, 1));
    }
    for hit in &variants {
        for results in [format!("{{{hit}}}"), format!("{{{hit}}},{{{hit}}}"), format!("{{{hit}}},")] {
            assert_scanner_matches_reference(&format!("{{\"total\":2,\"results\":[{results}]}}"));
        }
    }
}

// ---------------------------------------------------------------------
// Property 2: splice-merge ≡ clone-sort-render, byte for byte.
// ---------------------------------------------------------------------

/// One shard's page the way a shard builds it: hits unique per
/// `(doc_id, root)`, sorted by the session rule, scores from a small set
/// so ties within and across shards are the common case.
fn sorted_shard_hits() -> impl Strategy<Value = Vec<RefHit>> {
    prop::collection::vec(any_hit(), 0..8).prop_map(|mut hits| {
        hits.sort_by_key(|h| (h.doc_id, h.root));
        hits.dedup_by_key(|h| (h.doc_id, h.root));
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then_with(|| (a.doc_id, a.root).cmp(&(b.doc_id, b.root)))
        });
        hits
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn splice_merge_renders_the_reference_bytes(
        shards in prop::collection::vec(
            (prop::option::of(sorted_shard_hits()), 0u64..4, 40u64..60),
            3..6,
        ),
        q in ".{0,8}",
        k in 1usize..8,
        offset in 0usize..8,
    ) {
        // A shard's `total` may exceed its page (`extra` more matches it
        // did not send): that is what flags a truncated window.
        let bodies: Vec<Option<String>> = shards
            .iter()
            .map(|(hits, extra, _)| {
                hits.as_ref().map(|hits| daemon_body(hits.len() as u64 + extra, hits))
            })
            .collect();
        let doc_bases: Vec<u64> = shards
            .iter()
            .scan(0u64, |base, (_, _, documents)| {
                let mine = *base;
                *base += documents;
                Some(mine)
            })
            .collect();
        let window = (k, offset, k + offset);
        let tally = ShardTally {
            queried: bodies.len(),
            answered: bodies.iter().flatten().count(),
        };
        let reference_pages: Vec<Option<(u64, Vec<RefHit>)>> = bodies
            .iter()
            .map(|body| body.as_deref().map(|b| reference_page(b).expect("daemon body")))
            .collect();
        let expected = reference_search(&reference_pages, &doc_bases, &q, window, tally);

        let pages: Vec<Option<merge::ShardPage<'_>>> = bodies
            .iter()
            .map(|body| body.as_deref().map(|b| merge::parse_page(b).expect("daemon body")))
            .collect();
        let merged = merge::merge_pages(&pages, &doc_bases, k, offset, k + offset);
        let partial = tally.answered < tally.queried || merged.truncated;
        let rendered = merge::render_search(&q, k, offset, &merged, partial, tally);
        prop_assert_eq!(rendered, expected);
    }
}
