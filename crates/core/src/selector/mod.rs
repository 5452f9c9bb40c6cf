//! The Instance Selector (paper §2.4).
//!
//! Given the ranked IList, a result root and a size bound *B* (element
//! edges), select one instance per item so that the snippet tree — the
//! ancestor closure of the chosen instances under the root — covers as many
//! items as possible within *B* edges.
//!
//! **Hardness.** Maximizing the number of covered items within a bounded
//! tree is NP-hard (the companion SIGMOD 2008 paper proves it; the
//! intuition is a reduction from Maximum Coverage: items are sets, the
//! shared ancestor paths let instances "pay once" for covering several
//! items, and the edge budget plays the role of the cover budget).
//!
//! **Greedy** ([`greedy_select`]): walk items in rank order; for each item
//! pick the instance whose ancestor closure adds the fewest new edges to
//! the current snippet (ties: the earliest instance in document order —
//! instances of already-included subtrees therefore cluster, which is
//! exactly the paper's "choose instances close to each other" intuition).
//! Items that do not fit within the remaining budget are skipped; later,
//! cheaper items may still fit.
//!
//! **Exact** ([`exact_select`]): depth-first branch-and-bound over
//! per-item instance choices, used by experiment E8 to measure the greedy's
//! optimality gap on small inputs.

mod exact;
mod greedy;
mod tree;

pub use exact::{exact_select, ExactLimits};
pub use greedy::{greedy_select, greedy_select_with_policy, InstancePolicy};
pub(crate) use greedy::greedy_into;
pub use tree::SnippetTree;

use extract_xml::NodeId;

/// What a selector reads of an IList: how many items it has and each
/// item's candidate instances. Implemented by the owned [`crate::IList`]
/// and by the IList a [`crate::ilist::IListScratch`] has just built, so
/// the library and the serving path run the same selector.
pub trait Candidates {
    /// Number of items.
    fn item_count(&self) -> usize;

    /// The instances of item `item`, in document order (empty past the
    /// end).
    fn instances(&self, item: usize) -> &[NodeId];
}

/// The outcome of instance selection.
#[derive(Debug, Clone, Default)]
pub struct SelectionOutcome {
    /// Indices (into the IList) of covered items, in rank order.
    pub covered: Vec<usize>,
    /// Indices of items that were skipped (did not fit or had no instance).
    pub skipped: Vec<usize>,
    /// The chosen element nodes, sorted (document order), ancestor-closed
    /// and including the root — at most `bound + 1` of them.
    pub nodes: Vec<NodeId>,
    /// Number of element edges in the snippet tree.
    pub edges: usize,
}

impl SelectionOutcome {
    /// Number of covered items.
    pub fn coverage(&self) -> usize {
        self.covered.len()
    }
}
