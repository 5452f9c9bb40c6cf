//! Exclusive LCA (ELCA) computation — the result semantics of XRANK.
//!
//! A node `v` is an **ELCA** of posting lists `S₁ … S_k` iff the subtree of
//! `v` still contains at least one node of every list *after pruning the
//! subtrees of all descendants of `v` that themselves contain every list*.
//! Every SLCA is an ELCA; ELCAs additionally include ancestors that have
//! their own, independent witnesses for each keyword.
//!
//! [`elca_stack`] implements the single-pass Dewey-stack algorithm in the
//! style of XRANK's DIL (Guo et al., SIGMOD 2003): match nodes stream in
//! document order; a stack mirrors the root-to-current path carrying, per
//! path node, (a) the keyword mask *countable* for it (matches not hidden
//! below a fully-matched descendant) and (b) whether some descendant
//! already contained all keywords. [`elca_bruteforce`] is the oracle.

use std::collections::HashMap;

use extract_xml::{Document, NodeId};

use crate::mask::Mask;

/// Brute-force ELCA (testing oracle): quadratic in the worst case. Any
/// keyword count is supported (see [`crate::mask`]).
// xlint: allow(L10, "the oracle of crates/xmlsearch/tests/workloads.rs and crates/xmlsearch/tests/proptests.rs")
pub fn elca_bruteforce<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.as_ref().is_empty()) {
        return Vec::new();
    }
    if lists.len() <= 64 {
        elca_bruteforce_impl::<u64, L>(doc, lists)
    } else {
        elca_bruteforce_impl::<Box<[u64]>, L>(doc, lists)
    }
}

fn elca_bruteforce_impl<M: Mask, L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let k = lists.len();
    let mut own: HashMap<NodeId, M> = HashMap::new();
    for (i, list) in lists.iter().enumerate() {
        for &n in list.as_ref() {
            own.entry(n).or_insert_with(|| M::empty(k)).or_assign(&M::single(k, i));
        }
    }
    // subtree_mask[v]: all keywords under v (no exclusion).
    let mut subtree_mask: Vec<M> = vec![M::empty(k); doc.len()];
    for idx in (0..doc.len()).rev() {
        let n = NodeId::from_index(idx);
        let mut m = own.get(&n).cloned().unwrap_or_else(|| M::empty(k));
        for c in doc.children(n) {
            m.or_assign(&subtree_mask[c.index()]);
        }
        subtree_mask[idx] = m;
    }
    // countable_mask[v]: own mask plus child masks, where a child whose
    // subtree contains all keywords contributes nothing (its whole subtree
    // is pruned — recursively, pruning the *highest* full descendants).
    let mut countable: Vec<M> = vec![M::empty(k); doc.len()];
    for idx in (0..doc.len()).rev() {
        let n = NodeId::from_index(idx);
        let mut m = own.get(&n).cloned().unwrap_or_else(|| M::empty(k));
        for c in doc.children(n) {
            if !subtree_mask[c.index()].is_full(k) {
                let cm = countable[c.index()].clone();
                m.or_assign(&cm);
            }
        }
        countable[idx] = m;
    }
    (0..doc.len())
        .map(NodeId::from_index)
        .filter(|&n| doc.is_element(n) && countable[n.index()].is_full(k))
        .collect()
}

#[derive(Debug)]
struct StackEntry<M> {
    node: NodeId,
    /// Keywords countable for this node so far.
    mask: M,
    /// Whether some descendant's subtree contained all keywords.
    full_under: bool,
}

/// Single-pass Dewey-stack ELCA. Any keyword count is supported (k ≤ 64
/// runs on inlined `u64` masks, wider queries on boxed masks).
pub fn elca_stack<L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.as_ref().is_empty()) {
        return Vec::new();
    }
    if lists.len() <= 64 {
        elca_stack_impl::<u64, L>(doc, lists)
    } else {
        elca_stack_impl::<Box<[u64]>, L>(doc, lists)
    }
}

fn elca_stack_impl<M: Mask, L: AsRef<[NodeId]>>(doc: &Document, lists: &[L]) -> Vec<NodeId> {
    let k = lists.len();
    // Merge the lists into one document-ordered stream of (node, mask).
    // NodeId order is document order, so a k-way merge by NodeId suffices;
    // equal nodes combine their masks.
    let mut stream: Vec<(NodeId, usize)> =
        Vec::with_capacity(lists.iter().map(|l| l.as_ref().len()).sum());
    for (i, list) in lists.iter().enumerate() {
        for &n in list.as_ref() {
            stream.push((n, i));
        }
    }
    stream.sort_unstable_by_key(|(n, _)| *n);
    // Combine duplicate nodes.
    let mut merged: Vec<(NodeId, M)> = Vec::with_capacity(stream.len());
    for (n, i) in stream {
        let single = M::single(k, i);
        match merged.last_mut() {
            Some((last, lm)) if *last == n => lm.or_assign(&single),
            _ => merged.push((n, single)),
        }
    }

    let mut stack: Vec<StackEntry<M>> = Vec::new();
    let mut results: Vec<NodeId> = Vec::new();

    for (node, mask) in merged {
        // Root-to-node path of the incoming match.
        let mut path: Vec<NodeId> = doc.ancestors_or_self(node).collect();
        path.reverse();
        // Longest common prefix with the current stack.
        let mut lcp = 0;
        while lcp < stack.len() && lcp < path.len() && stack[lcp].node == path[lcp] {
            lcp += 1;
        }
        // Close everything below the common prefix.
        while stack.len() > lcp {
            pop_entry(&mut stack, k, &mut results);
        }
        // Open the remaining path with empty masks.
        for &n in &path[lcp..] {
            stack.push(StackEntry { node: n, mask: M::empty(k), full_under: false });
        }
        let top = stack.last_mut().expect("path is never empty");
        debug_assert_eq!(top.node, node);
        top.mask.or_assign(&mask);
    }
    while !stack.is_empty() {
        pop_entry(&mut stack, k, &mut results);
    }
    results.sort_unstable();
    results
}

/// Pop the top entry: report it if its countable mask is full; propagate
/// *nothing* upward when its subtree contained all keywords (exclusion),
/// its mask otherwise.
fn pop_entry<M: Mask>(stack: &mut Vec<StackEntry<M>>, k: usize, results: &mut Vec<NodeId>) {
    let e = stack.pop().expect("pop on empty stack");
    let self_full = e.mask.is_full(k);
    if self_full {
        results.push(e.node);
    }
    if let Some(parent) = stack.last_mut() {
        if self_full || e.full_under {
            parent.full_under = true;
        } else {
            parent.mask.or_assign(&e.mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slca::slca_bruteforce;
    use extract_index::XmlIndex;

    fn setup(xml: &str) -> (Document, XmlIndex) {
        let doc = Document::parse_str(xml).unwrap();
        let index = XmlIndex::build(&doc);
        (doc, index)
    }

    fn both(doc: &Document, index: &XmlIndex, keywords: &[&str]) -> Vec<NodeId> {
        let lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        let brute = elca_bruteforce(doc, &lists);
        let stack = elca_stack(doc, &lists);
        assert_eq!(brute, stack, "stack ELCA disagrees with brute force");
        brute
    }

    #[test]
    fn elca_includes_ancestor_with_independent_witnesses() {
        // inner has k1,k2; root additionally has its own k1 and k2.
        let (doc, index) = setup("<r><inner><p>k1</p><q>k2</q></inner><a>k1</a><b>k2</b></r>");
        let r = both(&doc, &index, &["k1", "k2"]);
        assert_eq!(r.len(), 2);
        assert_eq!(doc.label_str(r[0]), Some("r"));
        assert_eq!(doc.label_str(r[1]), Some("inner"));
    }

    #[test]
    fn ancestor_without_independent_witness_is_not_elca() {
        // root sees k1 outside inner, but its only k2 sits inside inner.
        let (doc, index) = setup("<r><inner><p>k1</p><q>k2</q></inner><a>k1</a></r>");
        let r = both(&doc, &index, &["k1", "k2"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("inner"));
    }

    #[test]
    fn full_descendant_blocks_partial_propagation() {
        // u contains a full child w plus its own k1; u's matches countable
        // for v are *none* (u's subtree is full ⇒ pruned for v).
        let (doc, index) = setup(
            "<v><u><w><a>k1</a><b>k2</b></w><c>k1</c></u><d>k2</d></v>",
        );
        let r = both(&doc, &index, &["k1", "k2"]);
        // w is full (ELCA); u not (own countable = k1 only); v's countable
        // = d's k2 only (everything under u pruned) ⇒ not ELCA.
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("w"));
    }

    #[test]
    fn every_slca_is_an_elca() {
        let (doc, index) = setup(
            "<r><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s><x>k1</x><y>k2</y></r>",
        );
        let lists: Vec<Vec<NodeId>> =
            ["k1", "k2"].iter().map(|k| index.postings(k).to_vec()).collect();
        let slcas = slca_bruteforce(&doc, &lists);
        let elcas = both(&doc, &index, &["k1", "k2"]);
        for s in slcas {
            assert!(elcas.contains(&s), "SLCA {s} missing from ELCAs");
        }
        // Root is an extra ELCA thanks to x and y.
        assert!(elcas.contains(&doc.root()));
    }

    #[test]
    fn single_keyword_elcas_are_the_match_nodes() {
        let (doc, index) = setup("<a><b>k</b><c><d>k</d></c></a>");
        let r = both(&doc, &index, &["k"]);
        let labels: Vec<_> = r.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["b", "d"]);
    }

    #[test]
    fn missing_keyword_yields_empty() {
        let (doc, index) = setup("<a><b>k1</b></a>");
        assert!(both(&doc, &index, &["k1", "zzz"]).is_empty());
    }

    #[test]
    fn match_on_inner_element_label() {
        let (doc, index) = setup("<shop><item><price>9</price></item></shop>");
        let r = both(&doc, &index, &["item", "9"]);
        assert_eq!(r.len(), 1);
        assert_eq!(doc.label_str(r[0]), Some("item"));
    }

    #[test]
    fn deep_chain_of_elcas() {
        // Nested nodes each with their own pair of witnesses.
        let (doc, index) = setup(
            "<r><a>k1</a><b>k2</b><m><c>k1</c><d>k2</d><n><e>k1</e><f>k2</f></n></m></r>",
        );
        let r = both(&doc, &index, &["k1", "k2"]);
        let labels: Vec<_> = r.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["r", "m", "n"]);
    }

    #[test]
    fn more_than_64_keywords_run_on_wide_masks() {
        // Regression: both ELCA implementations used to panic past 64
        // lists; `elca_stack` is reachable from `crate::search` with a
        // user-supplied query, so that was a query-path panic.
        let body: String = (0..70).map(|i| format!("<w>t{i}</w>")).collect();
        let (doc, index) = setup(&format!("<r>{body}</r>"));
        let keywords: Vec<String> = (0..70).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        let r = both(&doc, &index, &refs);
        assert_eq!(r, vec![doc.root()]);
        // 65 lists where one keyword is missing → empty, not a panic.
        let mut lists: Vec<Vec<NodeId>> =
            keywords.iter().map(|k| index.postings(k).to_vec()).collect();
        lists.push(Vec::new());
        assert!(elca_bruteforce(&doc, &lists).is_empty());
        assert!(elca_stack(&doc, &lists).is_empty());
    }

    #[test]
    fn exactly_64_keywords_boundary() {
        let body: String = (0..64).map(|i| format!("<w>t{i}</w>")).collect();
        let (doc, index) = setup(&format!("<r>{body}</r>"));
        let keywords: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        assert_eq!(both(&doc, &index, &refs), vec![doc.root()]);
    }

    #[test]
    fn results_sorted_in_document_order() {
        let (doc, index) = setup(
            "<r><s><a>k1</a><b>k2</b></s><t><a>k1</a><b>k2</b></t></r>",
        );
        let r = both(&doc, &index, &["k1", "k2"]);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }
}
