//! Smallest LCA (SLCA) computation.
//!
//! A node `v` is an **SLCA** of posting lists `S₁ … S_k` iff the subtree of
//! `v` contains at least one node from every list and no proper descendant
//! of `v` does the same. Three implementations:
//!
//! * [`slca_bruteforce`] — O(doc) bitmask propagation, the testing oracle;
//! * [`slca_indexed_lookup`] — *Indexed Lookup Eager*: anchored on the
//!   shortest list, finds each anchor's closest match in every other list
//!   by binary search (Xu & Papakonstantinou, SIGMOD 2005). Runs in
//!   `O(k · |S₁| · d · log |S_max|)`; the method of choice when one keyword
//!   is rare;
//! * [`slca_scan_eager`] — *Scan Eager*: the same per-anchor computation
//!   with monotone pointers instead of binary searches, `O(k·d·Σ|S_i|)`;
//!   better when list sizes are comparable.
//!
//! [`slca_auto`] picks between the two eager algorithms from the list-length
//! ratios (see [`choose_strategy`]), so callers on the hot query path don't
//! have to.
//!
//! All implementations run on the preorder-ID invariant: `NodeId` order
//! *is* document order and a subtree is the interval `[n, subtree_end(n))`,
//! so an ancestor test is two integer compares and an LCA is a walk up the
//! parent column to the first interval holding the other node — no Dewey
//! labels anywhere.
//!
//! Both eager algorithms emit SLCAs in document order as they scan, with
//! no sort: each anchor's candidate meets the one pending candidate before
//! it, which it either is an ancestor of (dropped), lies inside (replaces)
//! or lies past (makes final) — the one-slot filter of Indexed Lookup
//! Eager.
//!
//! # Buffers
//!
//! Each algorithm has an emit-callback core that hands every SLCA to a
//! closure as the scan finds it; the public functions collect them into a
//! vector. Scan Eager's monotone pointers live in a [`SlcaScratch`] that
//! the search stage keeps across queries ([`crate::xseek::RootsBuffers`]),
//! so the per-anchor path allocates nothing and no candidate is ever
//! buffered. List arguments are generic over `AsRef<[NodeId]>`: pass
//! `&[Vec<NodeId>]` (owned lists) or `&[&[NodeId]]` (borrowed straight
//! from the inverted index, zero copies).

use extract_xml::{Document, NodeId};

use crate::mask::Mask;

/// Reusable buffers for the eager SLCA algorithms. One instance per thread
/// (or per query loop); `Default::default()` starts empty and the buffers
/// grow to the high-water mark of the queries they serve.
#[derive(Debug, Default)]
pub(crate) struct SlcaScratch {
    /// Monotone per-list cursors (Scan Eager only).
    pointers: Vec<usize>,
}

/// Which eager SLCA algorithm [`slca_auto`] would run for given lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlcaStrategy {
    /// Binary-search lookups anchored on the rarest keyword.
    IndexedLookup,
    /// Monotone pointer scan over all lists.
    ScanEager,
}

/// Pick the cheaper eager algorithm from list lengths alone. Indexed
/// Lookup costs roughly `(k−1) · |S_min| · log₂ |S_max|` comparisons while
/// Scan Eager walks every list once (`Σ|S_i|`); we compare the two
/// estimates. With a rare anchor (the common interactive case) Indexed
/// Lookup wins; with comparable list sizes Scan Eager's linear pointers
/// beat repeated binary searches.
fn choose_strategy<L: AsRef<[NodeId]>>(lists: &[L]) -> SlcaStrategy {
    let k = lists.len();
    if k < 2 {
        return SlcaStrategy::ScanEager;
    }
    let min = lists.iter().map(|l| l.as_ref().len()).min().unwrap_or(0);
    let max = lists.iter().map(|l| l.as_ref().len()).max().unwrap_or(0);
    let total: usize = lists.iter().map(|l| l.as_ref().len()).sum();
    let log_max = (usize::BITS - max.leading_zeros()) as usize; // ⌈log₂(max+1)⌉
    let indexed_cost = (k - 1).saturating_mul(min).saturating_mul(log_max.max(1));
    if indexed_cost < total {
        SlcaStrategy::IndexedLookup
    } else {
        SlcaStrategy::ScanEager
    }
}

/// Compute SLCAs by brute force (testing oracle). `lists` holds the match
/// nodes per keyword; an empty keyword list makes the result empty. Any
/// keyword count is supported (k ≤ 64 runs on inlined `u64` masks, wider
/// queries on boxed masks — the old 64-list `assert!` made a degenerate
/// many-keyword query a library panic).
// xlint: allow(L10, "the oracle of crates/xmlsearch/tests/workloads.rs, crates/xmlsearch/tests/proptests.rs and the tests of elca.rs")
pub fn slca_bruteforce<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.as_ref().is_empty()) {
        return Vec::new();
    }
    if lists.len() <= 64 {
        slca_bruteforce_impl::<u64, L>(doc, lists)
    } else {
        slca_bruteforce_impl::<Box<[u64]>, L>(doc, lists)
    }
}

fn slca_bruteforce_impl<M: Mask, L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let k = lists.len();
    // Dense per-node keyword masks (NodeIds are dense preorder indexes, so
    // flat vectors beat HashMaps here).
    let mut mask: Vec<M> = vec![M::empty(k); doc.len()];
    for (i, list) in lists.iter().enumerate() {
        for &n in list.as_ref() {
            mask[n.index()].or_assign(&M::single(k, i));
        }
    }
    // Propagate masks upward. Iterating IDs in reverse visits children
    // before parents (preorder invariant).
    let mut subtree_mask: Vec<M> = vec![M::empty(k); doc.len()];
    let mut has_full_descendant: Vec<bool> = vec![false; doc.len()];
    let mut out = Vec::new();
    for idx in (0..doc.len()).rev() {
        let n = NodeId::from_index(idx);
        let mut m = mask[idx].clone();
        let mut full_desc = false;
        for c in doc.children(n) {
            let cm = &subtree_mask[c.index()];
            full_desc |= has_full_descendant[c.index()] || cm.is_full(k);
            m.or_assign(cm);
        }
        if m.is_full(k) && !full_desc && doc.is_element(n) {
            out.push(n);
        }
        subtree_mask[idx] = m;
        has_full_descendant[idx] = full_desc;
    }
    out.reverse();
    out
}

/// Indexed Lookup Eager. `lists` must be sorted in document order (as the
/// inverted index produces them).
pub fn slca_indexed_lookup<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let mut out = Vec::new();
    indexed_lookup_each(doc, lists, |n| out.push(n));
    out
}

/// Indexed Lookup Eager, handing each SLCA to `emit` in document order.
fn indexed_lookup_each<L: AsRef<[NodeId]>>(
    doc: &Document,
    lists: &[L],
    emit: impl FnMut(NodeId),
) {
    let Some(anchor_idx) = prepare(lists) else {
        return;
    };
    let mut pending = Pending::new(emit);
    for &v in lists[anchor_idx].as_ref() {
        let mut u = v;
        for (li, list) in lists.iter().enumerate() {
            if li == anchor_idx {
                continue;
            }
            let list = list.as_ref();
            u = deepest_lca(doc, list, list.partition_point(|&n| n < u), u);
        }
        pending.offer(doc, u);
    }
    pending.finish();
}

/// Scan Eager. `lists` must be sorted in document order.
pub fn slca_scan_eager<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let mut out = Vec::new();
    scan_eager_each(doc, lists, &mut SlcaScratch::default(), |n| out.push(n));
    out
}

/// Scan Eager, handing each SLCA to `emit` in document order.
fn scan_eager_each<L: AsRef<[NodeId]>>(
    doc: &Document,
    lists: &[L],
    scratch: &mut SlcaScratch,
    emit: impl FnMut(NodeId),
) {
    let Some(anchor_idx) = prepare(lists) else {
        return;
    };
    // One monotone pointer per non-anchor list.
    scratch.pointers.clear();
    scratch.pointers.resize(lists.len(), 0);
    let mut pending = Pending::new(emit);
    for &v in lists[anchor_idx].as_ref() {
        let mut u = v;
        for (li, list) in lists.iter().enumerate() {
            if li == anchor_idx {
                continue;
            }
            let list = list.as_ref();
            // Advance to the first node ≥ the *anchor* (not the shrinking
            // lca) so the pointer stays monotone across anchors.
            let p = &mut scratch.pointers[li];
            while *p < list.len() && list[*p] < v {
                *p += 1;
            }
            u = deepest_lca(doc, list, *p, u);
        }
        pending.offer(doc, u);
    }
    pending.finish();
}

/// Eager SLCA with the algorithm chosen by [`choose_strategy`].
pub fn slca_auto<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let mut out = Vec::new();
    slca_auto_each(doc, lists, &mut SlcaScratch::default(), |n| out.push(n));
    out
}

/// [`slca_auto`], handing each SLCA to `emit` in document order as the
/// scan finds it — what a caller that transforms every SLCA (entity
/// lifting) reads instead of a buffer.
pub(crate) fn slca_auto_each<L: AsRef<[NodeId]>>(
    doc: &Document,
    lists: &[L],
    scratch: &mut SlcaScratch,
    emit: impl FnMut(NodeId),
) {
    match choose_strategy(lists) {
        SlcaStrategy::IndexedLookup => indexed_lookup_each(doc, lists, emit),
        SlcaStrategy::ScanEager => scan_eager_each(doc, lists, scratch, emit),
    }
}

/// Shared validation: non-empty lists; returns the index of the shortest
/// list (the anchor).
fn prepare<L: AsRef<[NodeId]>>(lists: &[L]) -> Option<usize> {
    if lists.is_empty() || lists.iter().any(|l| l.as_ref().is_empty()) {
        return None;
    }
    lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.as_ref().len())
        .map(|(i, _)| i)
}

/// The deeper of `u`'s LCAs with `list[p-1]` and `list[p]` — the two
/// matches around `u` in document order, the only candidates for the
/// closest one. Both LCAs are ancestors-or-self of `u`, on one root path,
/// so one walk up from `u` meets the deeper first: the first interval that
/// holds either match.
fn deepest_lca(doc: &Document, list: &[NodeId], p: usize, u: NodeId) -> NodeId {
    let pred = p.checked_sub(1).and_then(|i| list.get(i)).copied();
    let succ = list.get(p).copied();
    let holds = |x: NodeId, m: Option<NodeId>| m.is_some_and(|m| doc.is_ancestor_or_self(x, m));
    doc.ancestors_or_self(u).find(|&x| holds(x, pred) || holds(x, succ)).unwrap_or(u)
}

/// The eager algorithms' ancestor filter: the one candidate not yet known
/// to be an SLCA, fed the candidates in anchor order. Each candidate is an
/// ancestor-or-self of its anchor and holds a match of every keyword, so
/// against the pending candidate `p` a new one `c`
///
/// * that starts at or before `p` is `p` or an ancestor of it — it holds a
///   later anchor than `p`, which lies past `p`'s start — and is dropped;
/// * that starts inside `p`'s interval is a descendant of `p`, so `p` is
///   no SLCA: `c` replaces it;
/// * that starts past `p`'s end leaves `p` final: every later candidate
///   holds a later anchor still, so it is `p`'s ancestor or past `p` too.
///
/// The pending candidate only ever moves forward, so the SLCAs come out in
/// document order, each once, with no buffer and no sort.
struct Pending<F> {
    /// The pending candidate and its subtree's end.
    at: Option<(NodeId, NodeId)>,
    emit: F,
}

impl<F: FnMut(NodeId)> Pending<F> {
    fn new(emit: F) -> Pending<F> {
        Pending { at: None, emit }
    }

    fn offer(&mut self, doc: &Document, c: NodeId) {
        match self.at {
            Some((p, _)) if c <= p => return,
            Some((p, end)) if c >= end => (self.emit)(p),
            _ => {}
        }
        self.at = Some((c, doc.subtree_end(c)));
    }

    fn finish(mut self) {
        if let Some((p, _)) = self.at {
            (self.emit)(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_index::XmlIndex;

    fn setup(xml: &str) -> (Document, XmlIndex) {
        let doc = Document::parse_str(xml).unwrap();
        let index = XmlIndex::build(&doc);
        (doc, index)
    }

    fn lists(index: &XmlIndex, keywords: &[&str]) -> Vec<Vec<NodeId>> {
        keywords.iter().map(|k| index.postings(k).to_vec()).collect()
    }

    fn all_three(doc: &Document, index: &XmlIndex, keywords: &[&str]) -> Vec<NodeId> {
        let ls = lists(index, keywords);
        let brute = slca_bruteforce(doc, &ls);
        let ile = slca_indexed_lookup(doc, &ls);
        let se = slca_scan_eager(doc, &ls);
        let auto = slca_auto(doc, &ls);
        assert_eq!(brute, ile, "indexed lookup disagrees with brute force");
        assert_eq!(brute, se, "scan eager disagrees with brute force");
        assert_eq!(brute, auto, "auto disagrees with brute force");
        // Borrowed-slice lists must produce the same answer with zero copies.
        let borrowed: Vec<&[NodeId]> =
            keywords.iter().map(|k| index.postings(k)).collect();
        assert_eq!(brute, slca_auto(doc, &borrowed));
        brute
    }

    #[test]
    fn single_result_under_shared_store() {
        let (doc, index) = setup(
            "<stores>\
             <store><name>Levis</name><state>Texas</state></store>\
             <store><name>Gap</name><state>Ohio</state></store>\
             </stores>",
        );
        let r = all_three(&doc, &index, &["levis", "texas"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("store"));
    }

    #[test]
    fn two_independent_results() {
        let (doc, index) = setup(
            "<stores>\
             <store><name>Levis</name><state>Texas</state></store>\
             <store><name>ESprit</name><state>Texas</state></store>\
             <store><name>Gap</name><state>Ohio</state></store>\
             </stores>",
        );
        let r = all_three(&doc, &index, &["store", "texas"]);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&n| doc.label_str(n) == Some("store")));
    }

    #[test]
    fn lca_floats_to_root_when_matches_are_spread() {
        let (doc, index) = setup(
            "<r><a><x>k1</x></a><b><y>k2</y></b></r>",
        );
        let r = all_three(&doc, &index, &["k1", "k2"]);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], doc.root());
    }

    #[test]
    fn slca_excludes_ancestor_of_deeper_slca() {
        // Inner node contains both keywords; the root also does (via the
        // inner node plus its own copy) but is not smallest.
        let (doc, index) = setup(
            "<r><inner><p>k1</p><q>k2</q></inner><extra>k1</extra></r>",
        );
        let r = all_three(&doc, &index, &["k1", "k2"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("inner"));
    }

    #[test]
    fn single_keyword_slca_is_deepest_matches() {
        let (doc, index) = setup("<a><b>k</b><c><d>k</d></c></a>");
        let r = all_three(&doc, &index, &["k"]);
        // b and d match; neither has a matching descendant.
        assert_eq!(r.len(), 2);
        let labels: Vec<_> = r.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["b", "d"]);
    }

    #[test]
    fn keyword_matching_label_and_value() {
        let (doc, index) = setup(
            "<stores><store><state>Texas</state></store><store><state>Ohio</state></store></stores>",
        );
        let r = all_three(&doc, &index, &["store", "texas"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("store"));
    }

    #[test]
    fn missing_keyword_yields_empty() {
        let (doc, index) = setup("<a><b>k1</b></a>");
        assert!(all_three(&doc, &index, &["k1", "zzz"]).is_empty());
    }

    #[test]
    fn nested_matches_on_one_path() {
        // Matches are ancestor/descendant of each other.
        let (doc, index) = setup("<k1><mid><k2>x</k2></mid></k1>");
        let r = all_three(&doc, &index, &["k1", "k2"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("k1"));
    }

    #[test]
    fn same_node_matches_all_keywords() {
        let (doc, index) = setup("<r><item>red fox</item><item>red</item></r>");
        let r = all_three(&doc, &index, &["red", "fox"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("item"));
    }

    #[test]
    fn three_keywords() {
        let (doc, index) = setup(
            "<retailers><retailer><state>Texas</state><product>apparel</product></retailer>\
             <retailer><state>Texas</state><product>food</product></retailer></retailers>",
        );
        let r = all_three(&doc, &index, &["texas", "apparel", "retailer"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("retailer"));
    }

    #[test]
    fn results_are_in_document_order() {
        let (doc, index) = setup(
            "<r><s><a>k</a></s><s><a>k</a></s><s><a>k</a></s></r>",
        );
        let r = all_three(&doc, &index, &["a", "k"]);
        assert_eq!(r.len(), 3);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }

    /// Both eager algorithms on `keywords`, which must anchor on `k1`:
    /// each must equal `expected` (labels, in document order) and the
    /// oracle.
    fn eager_both(doc: &Document, index: &XmlIndex, keywords: &[&str], expected: &[&str]) {
        let ls = lists(index, keywords);
        assert_eq!(ls[0], index.postings("k1"), "k1 must be the anchor list");
        assert!(ls[1..].iter().all(|l| l.len() > ls[0].len()), "k1 must be the shortest list");
        let labels = |r: Vec<NodeId>| -> Vec<&str> {
            r.into_iter().map(|n| doc.label_str(n).unwrap()).collect()
        };
        assert_eq!(labels(slca_bruteforce(doc, &ls)), expected, "oracle");
        assert_eq!(labels(slca_indexed_lookup(doc, &ls)), expected, "indexed lookup");
        assert_eq!(labels(slca_scan_eager(doc, &ls)), expected, "scan eager");
    }

    #[test]
    fn a_candidate_before_the_pending_one_is_its_ancestor_and_dropped() {
        // Anchor 1 (in `a`) has `a` as its candidate; anchor 2 (in `b`)
        // finds its nearest k2s in `a` and `c`, so its candidate is the
        // root — which starts before the pending `a`.
        let (doc, index) = setup(
            "<r><a><x>k1</x><y>k2</y></a><b><x>k1</x></b><c><y>k2</y><y>k2</y></c></r>",
        );
        eager_both(&doc, &index, &["k1", "k2"], &["a"]);
    }

    #[test]
    fn a_candidate_inside_the_pending_one_replaces_it() {
        // Anchor 1 (in `a`) has no k2 nearer than `b`: its candidate is
        // the root. Anchor 2's candidate is `b`, inside the root.
        let (doc, index) = setup(
            "<r><a><x>k1</x></a><b><x>k1</x><y>k2</y></b><c><y>k2</y><y>k2</y></c></r>",
        );
        eager_both(&doc, &index, &["k1", "k2"], &["b"]);
    }

    #[test]
    fn a_candidate_past_the_pending_one_makes_it_final() {
        // `a` is pending when anchor 2's candidate `b` starts past its end:
        // `a` is emitted, then `b` at the end of the scan.
        let (doc, index) = setup(
            "<r><a><x>k1</x><y>k2</y></a><b><x>k1</x><y>k2</y></b><c><y>k2</y></c></r>",
        );
        eager_both(&doc, &index, &["k1", "k2"], &["a", "b"]);
    }

    #[test]
    fn empty_query_is_empty() {
        let (doc, index) = setup("<a>x</a>");
        assert!(all_three(&doc, &index, &[]).is_empty());
        let _ = index;
        let _ = doc;
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        // Run two different queries through the same scratch/output buffers
        // and check the second result carries nothing over from the first.
        let (doc, index) = setup(
            "<stores>\
             <store><name>Levis</name><state>Texas</state></store>\
             <store><name>ESprit</name><state>Texas</state></store>\
             <store><name>Gap</name><state>Ohio</state></store>\
             </stores>",
        );
        let mut scratch = SlcaScratch::default();
        let mut out = Vec::new();
        let q1 = lists(&index, &["store", "texas"]);
        scan_eager_each(&doc, &q1, &mut scratch, |n| out.push(n));
        assert_eq!(out.len(), 2);
        out.clear();
        let q2 = lists(&index, &["gap", "ohio"]);
        scan_eager_each(&doc, &q2, &mut scratch, |n| out.push(n));
        assert_eq!(out, slca_bruteforce(&doc, &q2));
        out.clear();
        let q3 = lists(&index, &["levis"]);
        slca_auto_each(&doc, &q3, &mut scratch, |n| out.push(n));
        assert_eq!(out, slca_bruteforce(&doc, &q3));
        assert_eq!(slca_auto(&doc, &q3), out);
    }

    #[test]
    fn strategy_prefers_indexed_lookup_for_rare_anchor() {
        // One singleton list vs a huge list: binary searches win.
        let rare = vec![NodeId::from_index(5)];
        let common: Vec<NodeId> = (0..10_000).map(NodeId::from_index).collect();
        assert_eq!(
            choose_strategy(&[rare, common]),
            SlcaStrategy::IndexedLookup
        );
    }

    #[test]
    fn degenerate_empty_posting_list_yields_empty_everywhere() {
        // One keyword with no matches: every variant (collected or
        // emitting on a scratch) must return empty without touching the
        // other lists.
        let (doc, index) = setup("<a><b>k1</b><c>k2</c></a>");
        let lists: Vec<Vec<NodeId>> =
            vec![index.postings("k1").to_vec(), Vec::new(), index.postings("k2").to_vec()];
        assert!(slca_bruteforce(&doc, &lists).is_empty());
        assert!(slca_indexed_lookup(&doc, &lists).is_empty());
        assert!(slca_scan_eager(&doc, &lists).is_empty());
        assert!(slca_auto(&doc, &lists).is_empty());
        let mut emitted = 0;
        slca_auto_each(&doc, &lists, &mut SlcaScratch::default(), |_| emitted += 1);
        assert_eq!(emitted, 0);
    }

    #[test]
    fn degenerate_single_keyword_all_variants_agree() {
        let (doc, index) = setup("<a><b>k</b><c><d>k</d><e><f>k</f></e></c></a>");
        let r = all_three(&doc, &index, &["k"]);
        // Deepest matches only: b, d, f.
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|&n| !doc
            .children(n)
            .any(|c| r.contains(&c))));
    }

    #[test]
    fn degenerate_identical_lists_pick_the_deepest_matches() {
        // All lists identical (e.g. the same keyword repeated through
        // from_keywords aliases, or two keywords matching the same nodes):
        // SLCA must equal the single-list answer, whichever list anchors.
        let (doc, index) = setup("<a><b>k</b><c><d>k</d></c></a>");
        let one = lists(&index, &["k"]);
        let three: Vec<Vec<NodeId>> = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let expected = slca_bruteforce(&doc, &one);
        assert_eq!(slca_bruteforce(&doc, &three), expected);
        assert_eq!(slca_indexed_lookup(&doc, &three), expected);
        assert_eq!(slca_scan_eager(&doc, &three), expected);
        assert_eq!(slca_auto(&doc, &three), expected);
    }

    #[test]
    fn bruteforce_handles_more_than_64_keywords() {
        // Regression: the oracle used to `assert!(lists.len() <= 64)`, so a
        // degenerate many-keyword query was a library panic. Build a
        // document whose root is the only node containing all 70 keywords.
        let body: String = (0..70).map(|i| format!("<w>t{i}</w>")).collect();
        let (doc, index) = setup(&format!("<r>{body}</r>"));
        let keywords: Vec<String> = (0..70).map(|i| format!("t{i}")).collect();
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        assert_eq!(lists.len(), 70);
        let brute = slca_bruteforce(&doc, &lists);
        assert_eq!(brute, vec![doc.root()]);
        // The eager algorithms never had the cap; they must still agree.
        assert_eq!(slca_indexed_lookup(&doc, &lists), brute);
        assert_eq!(slca_scan_eager(&doc, &lists), brute);
        assert_eq!(slca_auto(&doc, &lists), brute);
    }

    #[test]
    fn bruteforce_at_exactly_64_keywords_boundary() {
        let body: String = (0..64).map(|i| format!("<w>t{i}</w>")).collect();
        let (doc, index) = setup(&format!("<r>{body}</r>"));
        let lists: Vec<Vec<NodeId>> =
            (0..64).map(|i| index.postings(&format!("t{i}")).to_vec()).collect();
        assert_eq!(slca_bruteforce(&doc, &lists), vec![doc.root()]);
    }

    #[test]
    fn strategy_prefers_scan_eager_for_comparable_lists() {
        let a: Vec<NodeId> = (0..1_000).map(NodeId::from_index).collect();
        let b: Vec<NodeId> = (0..1_200).map(NodeId::from_index).collect();
        assert_eq!(choose_strategy(&[a, b]), SlcaStrategy::ScanEager);
        // Single-list queries have no lookups to do at all.
        let single: Vec<NodeId> = (0..10).map(NodeId::from_index).collect();
        assert_eq!(choose_strategy(&[single]), SlcaStrategy::ScanEager);
    }
}
