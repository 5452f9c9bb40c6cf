//! Reading shard `/search` pages and merging them into one global page
//! — by moving bytes, not building trees.
//!
//! A shard's `results` array is stored bytes on the shard (its page
//! cache keeps the rendered array), and the router's answer contains the
//! winning hits' objects unchanged but for one integer. So [`parse_page`]
//! is a walk over `extract_serve::json`'s one borrowed [`Scanner`] — the
//! same grammar `json::parse` runs on — that yields per hit only the
//! three merge keys plus the hit object's byte range, cut around its
//! `doc_id` value. What is specific to a page lives here: the `page` /
//! `results` / `hit` walk and the straight-through read of a hit spelled
//! exactly as the daemon writes it. [`merge_pages`] k-way-merges the
//! already-sorted pages without copying a hit's text, and
//! [`render_search`] splices each winner's bytes around the rewritten
//! `doc_id` — snippets pass through verbatim, never unescaped or
//! re-escaped.
//!
//! The merge must reproduce — exactly — what a single daemon over the
//! union corpus would have returned. Three rules make that hold:
//!
//! 1. **Doc-id remapping.** Each shard numbers its documents by slot
//!    from zero. The router assigns shard `i` the id range starting at
//!    `doc_bases[i]` (prefix sums of the shards' id spans — one past
//!    the highest live slot — in configured shard order, each read off
//!    the `X-Corpus-Slots` of the answer being merged), so a hit's
//!    global id is `base + local id` — the same id the document would
//!    carry in the concatenated corpus, where a slot freed below a live
//!    one stays taken too.
//! 2. **Ordering.** Hits sort by the session tier's documented rule:
//!    score descending, then global doc id ascending, then root node id
//!    ascending. Ties across shards are broken by the remapped ids, so
//!    the order is deterministic regardless of which shard answered
//!    first.
//! 3. **Windowing.** Each shard is over-fetched with `k' = k + offset`
//!    (and offset 0) so the global window `[offset, offset + k)` of the
//!    merged order is fully covered; the router then applies the offset
//!    once, globally.
//!
//! A shard that returns fewer than `min(k', total)` hits (its own
//! `--max-k` clamp, for instance) may be hiding rows that belong in the
//! global window — the merged page reports that as *truncated* and the
//! router surfaces `"partial": true`.

use std::cmp::Ordering;

use extract_serve::json::{self, Flaw, JsonWriter, Scanner};

/// One hit of a shard's `/search` page: the merge keys, and the hit
/// object's own bytes (borrowed from the shard body) cut around its
/// `doc_id` value — everything the router's answer needs, since every
/// other field goes out exactly as the shard wrote it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardHit<'a> {
    /// Document id: shard-local in a [`ShardPage`], global in a
    /// [`MergedPage`].
    pub doc_id: u64,
    /// Result root node id (document-local, no remapping needed).
    pub root: u64,
    /// Relevance score.
    pub score: f64,
    /// The hit object from its `{` up to the `doc_id` value…
    head: &'a str,
    /// …and from just after that value through its `}`.
    tail: &'a str,
}

/// One shard's scanned `/search` page.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPage<'a> {
    /// The shard's total match count for the query.
    pub total: u64,
    /// The hits, in the shard's (already correctly sorted) order.
    pub hits: Vec<ShardHit<'a>>,
}

/// Scan a shard `/search` body into a [`ShardPage`] borrowing from it.
///
/// Accepts exactly the bodies `json::parse` followed by a typed field
/// lookup would — the grammar is `json`'s one [`Scanner`]: one complete
/// JSON document, an object with a non-negative integer `total` and a
/// `results` array of objects each holding string `doc` / `snippet`,
/// non-negative integer `doc_id` / `root` and a numeric `score`. Key
/// order, extra keys and whitespace are free.
pub fn parse_page(body: &str) -> Result<ShardPage<'_>, String> {
    json::scan(body, page).map_err(|e| format!("shard page: {} at byte {}", e.message, e.at))
}

/// The page object.
fn page<'a>(scanner: &mut Scanner<'a>) -> Result<ShardPage<'a>, Flaw> {
    let (mut total, mut hits) = (None, None);
    scanner.object(|scanner, key| match key {
        "total" => scanner.unsigned().map(|n| total = Some(n)),
        "results" => results(scanner).map(|found| hits = Some(found)),
        _ => scanner.value(),
    })?;
    Ok(ShardPage {
        total: total.ok_or("missing 'total'")?,
        hits: hits.ok_or("missing 'results'")?,
    })
}

/// The `results` array: every element a hit object.
fn results<'a>(scanner: &mut Scanner<'a>) -> Result<Vec<ShardHit<'a>>, Flaw> {
    let mut hits = Vec::with_capacity(16);
    scanner.array(|scanner| hit(scanner).map(|hit| hits.push(hit)))?;
    Ok(hits)
}

/// One hit object, in any spelling.
fn hit<'a>(scanner: &mut Scanner<'a>) -> Result<ShardHit<'a>, Flaw> {
    if let Some(hit) = scanner.attempt(daemon_hit) {
        return Ok(hit);
    }
    let open = scanner.pos();
    let (mut doc, mut snippet) = (false, false);
    let (mut doc_id, mut root, mut score) = (None, None, None);
    scanner.object(|scanner, key| match key {
        "doc" => scanner.string(false).map(|_| doc = true),
        "snippet" => scanner.string(false).map(|_| snippet = true),
        "doc_id" => {
            let from = scanner.pos();
            scanner.unsigned().map(|n| doc_id = Some((n, from, scanner.pos())))
        }
        "root" => scanner.unsigned().map(|n| root = Some(n)),
        "score" => scanner.number().map(|n| score = Some(n)),
        _ => scanner.value(),
    })?;
    if !(doc && snippet) {
        return Err("hit without string 'doc' and 'snippet'");
    }
    let (doc_id, from, to) = doc_id.ok_or("hit without 'doc_id'")?;
    Ok(ShardHit {
        doc_id,
        root: root.ok_or("hit without 'root'")?,
        score: score.ok_or("hit without 'score'")?,
        head: scanner.slice(open, from)?,
        tail: scanner.slice(to, scanner.pos())?,
    })
}

/// A hit object exactly as the daemon renders it — its five members in
/// its order, no whitespace — read straight through, without the key
/// dispatch and duplicate bookkeeping of the general walk. Any other
/// spelling is a flaw *here* only: [`hit`] rescans it the general way
/// for the real verdict.
fn daemon_hit<'a>(scanner: &mut Scanner<'a>) -> Result<ShardHit<'a>, Flaw> {
    let open = scanner.pos();
    scanner.literal("{\"doc\":")?;
    scanner.string(false)?;
    scanner.literal(",\"doc_id\":")?;
    let from = scanner.pos();
    let doc_id = scanner.unsigned()?;
    let to = scanner.pos();
    scanner.literal(",\"root\":")?;
    let root = scanner.unsigned()?;
    scanner.literal(",\"score\":")?;
    let score = scanner.number()?;
    scanner.literal(",\"snippet\":")?;
    scanner.string(false)?;
    scanner.literal("}")?;
    let (head, tail) = (scanner.slice(open, from)?, scanner.slice(to, scanner.pos())?);
    Ok(ShardHit { doc_id, root, score, head, tail })
}

/// The globally merged page.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedPage<'a> {
    /// Union total across the shards that answered.
    pub total: u64,
    /// The requested window of the merged order, ids remapped global.
    pub hits: Vec<ShardHit<'a>>,
    /// Whether some answering shard clamped its page below what the
    /// window needed (the merged window may be missing rows).
    pub truncated: bool,
}

/// The session tier's ordering rule over remapped hits: score
/// descending, doc id ascending, root ascending. NaN scores compare
/// equal (no JSON number reads as one).
fn hit_order(a: &ShardHit<'_>, b: &ShardHit<'_>) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.doc_id.cmp(&b.doc_id))
        .then_with(|| a.root.cmp(&b.root))
}

/// Merge per-shard pages into the global `[offset, offset + k)` window.
///
/// `pages[i]` is `Some` when shard `i` answered; `doc_bases[i]` is the
/// shard's global id base; `requested_k` is the `k' = k + offset`
/// over-fetch each shard was asked for (used to detect truncation).
///
/// Every page arrives sorted by the very rule the merge applies (a
/// shard sorts by it over its local ids, and adding one base to all of
/// them keeps the order), so this is a k-way merge: walk the pages'
/// heads, always taking the best, and stop at the window's end. A full
/// tie goes to the earlier shard.
pub fn merge_pages<'a>(
    pages: &[Option<ShardPage<'a>>],
    doc_bases: &[u64],
    k: usize,
    offset: usize,
    requested_k: usize,
) -> MergedPage<'a> {
    let mut total: u64 = 0;
    let mut truncated = false;
    // Per answering shard: the hits not merged yet, and its id base.
    let mut rest: Vec<(&[ShardHit<'a>], u64)> = Vec::with_capacity(pages.len());
    for (index, page) in pages.iter().enumerate() {
        let Some(page) = page else { continue };
        total = total.saturating_add(page.total);
        let needed = (requested_k as u64).min(page.total);
        if (page.hits.len() as u64) < needed {
            truncated = true;
        }
        rest.push((&page.hits, doc_bases.get(index).copied().unwrap_or(0)));
    }
    let mut hits = Vec::new();
    for rank in 0..offset.saturating_add(k) {
        let mut best: Option<(ShardHit<'a>, &mut &[ShardHit<'a>])> = None;
        for (unmerged, base) in rest.iter_mut() {
            let Some(head) = unmerged.first() else { continue };
            let head = ShardHit { doc_id: base.saturating_add(head.doc_id), ..*head };
            if best.as_ref().is_none_or(|(b, _)| hit_order(&head, b) == Ordering::Less) {
                best = Some((head, unmerged));
            }
        }
        let Some((hit, unmerged)) = best else { break };
        *unmerged = unmerged.get(1..).unwrap_or_default();
        if rank >= offset {
            hits.push(hit);
        }
    }
    MergedPage { total, hits, truncated }
}

/// How many shards were asked and how many answered — rendered into the
/// response's `shards` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTally {
    /// Shards the scatter targeted (every configured shard).
    pub queried: usize,
    /// Shards that produced a usable page within the deadline.
    pub answered: usize,
}

/// Buffer room for what a router `/search` body holds besides the raw
/// query and the hits' bytes: nine keys, six integers, punctuation, and
/// per hit the rewritten id (a sizing hint, not a bound).
const HEADER_CAPACITY: usize = 192;
const DOC_ID_CAPACITY: usize = 20;

/// Render the router `/search` body. The prefix through `results` is
/// byte-identical to a single daemon's body over the union corpus (same
/// writer, same field order, each hit the shard's own bytes with the
/// global `doc_id` spliced in); the router appends its `partial` flag
/// and the `shards` tally after it.
pub fn render_search(
    q: &str,
    k: usize,
    offset: usize,
    page: &MergedPage<'_>,
    partial: bool,
    shards: ShardTally,
) -> String {
    let spliced: usize =
        page.hits.iter().map(|h| h.head.len() + DOC_ID_CAPACITY + h.tail.len() + 1).sum();
    let mut w = JsonWriter::with_capacity(HEADER_CAPACITY + q.len() + spliced);
    w.obj_begin();
    w.key("query");
    w.str(q);
    w.key("k");
    w.num_u64(k as u64);
    w.key("offset");
    w.num_u64(offset as u64);
    w.key("total");
    w.num_u64(page.total);
    w.key("count");
    w.num_u64(page.hits.len() as u64);
    w.key("results");
    w.arr_begin();
    for hit in page.hits.iter() {
        w.raw_with_u64(hit.head, hit.doc_id, hit.tail);
    }
    w.arr_end();
    w.key("partial");
    w.bool(partial);
    w.key("shards");
    w.obj_begin();
    w.key("queried");
    w.num_u64(shards.queried as u64);
    w.key("answered");
    w.num_u64(shards.answered as u64);
    w.obj_end();
    w.obj_end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon-shaped page body over `(doc_id, root, score)` hits.
    fn body(total: u64, hits: &[(u64, u64, f64)]) -> String {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("query");
        w.str("x");
        w.key("total");
        w.num_u64(total);
        w.key("results");
        w.arr_begin();
        for (doc_id, root, score) in hits {
            w.obj_begin();
            w.key("doc");
            w.str(&format!("doc-{doc_id}"));
            w.key("doc_id");
            w.num_u64(*doc_id);
            w.key("root");
            w.num_u64(*root);
            w.key("score");
            w.num_f64(*score);
            w.key("snippet");
            w.str("<r/>");
            w.obj_end();
        }
        w.arr_end();
        w.obj_end();
        w.finish()
    }

    #[test]
    fn parse_page_scans_a_daemon_body_and_cuts_hits_around_doc_id() {
        let body = "{\"query\":\"x\",\"k\":2,\"offset\":0,\"total\":3,\"count\":2,\
                    \"results\":[{\"doc\":\"a.xml\",\"doc_id\":0,\"root\":4,\
                    \"score\":1.5,\"snippet\":\"<a/>\"},{\"doc\":\"b.xml\",\
                    \"doc_id\":1,\"root\":7,\"score\":0.25,\"snippet\":\"<b/>\"}]}";
        let page = parse_page(body).expect("parses");
        assert_eq!(page.total, 3);
        assert_eq!(page.hits.len(), 2);
        let first = page.hits.first().expect("hit");
        assert_eq!((first.doc_id, first.root, first.score), (0, 4, 1.5));
        assert_eq!(first.head, "{\"doc\":\"a.xml\",\"doc_id\":");
        assert_eq!(first.tail, ",\"root\":4,\"score\":1.5,\"snippet\":\"<a/>\"}");
        assert!(parse_page("{\"total\":1}").is_err(), "missing results must not parse");
        // 2^64 is not a `u64`, as a `total` or as a `doc_id`.
        let total = body.replacen("\"total\":3", "\"total\":18446744073709551616", 1);
        assert!(parse_page(&total).is_err(), "a 2^64 total must not parse");
        let doc_id = body.replacen("\"doc_id\":1", "\"doc_id\":18446744073709551616", 1);
        assert!(parse_page(&doc_id).is_err(), "a 2^64 doc_id must not parse");
        assert!(parse_page("not json").is_err());
    }

    #[test]
    fn merge_remaps_ids_sorts_and_windows() {
        let (shard0, shard1) =
            (body(2, &[(0, 1, 0.9), (1, 2, 0.4)]), body(2, &[(0, 3, 0.7), (1, 9, 0.4)]));
        let pages = vec![parse_page(&shard0).ok(), parse_page(&shard1).ok()];
        let merged = merge_pages(&pages, &[0, 2], 10, 0, 10);
        assert_eq!(merged.total, 4);
        assert!(!merged.truncated);
        let order: Vec<(u64, f64)> = merged.hits.iter().map(|h| (h.doc_id, h.score)).collect();
        // Score desc; the 0.4 tie breaks by remapped global doc id (1 < 3).
        assert_eq!(order, vec![(0, 0.9), (2, 0.7), (1, 0.4), (3, 0.4)]);
        // Windowing applies globally after the merge.
        let window = merge_pages(&pages, &[0, 2], 2, 1, 10);
        let ids: Vec<u64> = window.hits.iter().map(|h| h.doc_id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn merge_flags_truncated_shard_pages() {
        // The shard says total=5 but returned only 1 hit against a
        // requested k' of 3: rows the window needs may be missing.
        let short = body(5, &[(0, 1, 0.9)]);
        let merged = merge_pages(&[parse_page(&short).ok()], &[0], 3, 0, 3);
        assert!(merged.truncated);
        // A shard with fewer matches than k' is complete, not truncated.
        let small = body(1, &[(0, 1, 0.9)]);
        let merged = merge_pages(&[parse_page(&small).ok()], &[0], 3, 0, 3);
        assert!(!merged.truncated);
    }

    #[test]
    fn absent_pages_are_skipped_not_counted() {
        let page = body(1, &[(0, 1, 0.5)]);
        let merged = merge_pages(&[None, parse_page(&page).ok()], &[0, 10], 5, 0, 5);
        assert_eq!(merged.total, 1);
        let ids: Vec<u64> = merged.hits.iter().map(|h| h.doc_id).collect();
        assert_eq!(ids, vec![10], "the answering shard's base still applies");
    }

    #[test]
    fn render_matches_daemon_shape_with_router_suffix() {
        let shard = body(1, &[(1, 4, 1.25)]);
        let merged = merge_pages(&[parse_page(&shard).ok()], &[2], 5, 0, 5);
        let body =
            render_search("q", 5, 0, &merged, false, ShardTally { queried: 2, answered: 2 });
        assert_eq!(
            body,
            "{\"query\":\"q\",\"k\":5,\"offset\":0,\"total\":1,\"count\":1,\
             \"results\":[{\"doc\":\"doc-1\",\"doc_id\":3,\"root\":4,\"score\":1.25,\
             \"snippet\":\"<r/>\"}],\"partial\":false,\
             \"shards\":{\"queried\":2,\"answered\":2}}"
        );
    }
}
