//! Structural summary ("DataGuide") inference and `*`-node resolution.
//!
//! Every element node is mapped to a **label path** — the sequence of labels
//! from the root (e.g. `/retailer/store/city`). For each distinct path the
//! summary records instance counts and, crucially, whether siblings with
//! that label ever repeat under one parent instance. Combined with the DTD
//! (when present), this answers the paper's `*`-node question per path:
//!
//! * if the parent element has a DTD declaration, the DTD decides
//!   ([`crate::dtd::Dtd::is_repeatable`]);
//! * otherwise a path is a `*`-node iff some parent instance in the data has
//!   two or more children with that label.
//!
//! The analyzer crate layers the entity/attribute/connection classification
//! of the paper's Data Analyzer on top of this summary.

use std::collections::HashMap;

use crate::document::Document;
use crate::symbol::Symbol;

/// Index of a label path in a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from a raw index (must come from the same schema).
    pub fn from_index(index: usize) -> PathId {
        PathId(crate::id32(index))
    }
}

/// Per-path summary data.
#[derive(Debug, Clone)]
pub struct PathInfo {
    /// Parent path (`None` for the root path).
    pub parent: Option<PathId>,
    /// The last label of the path.
    pub label: Symbol,
    /// Depth of the path (root path = 0).
    pub depth: u32,
    /// Number of element instances with this path.
    pub instance_count: u32,
    /// Maximum number of same-label siblings observed under one parent
    /// instance.
    pub max_siblings: u32,
    /// Whether any instance has an element child.
    pub has_element_child: bool,
    /// Whether any instance has a text child.
    pub has_text_child: bool,
    /// Resolved `*`-node status (DTD first, data otherwise).
    pub starred: bool,
}

/// A structural summary of one document: its label paths. Which path each
/// node is on is a per-node column the caller keeps (the second half of
/// [`Schema::infer`]); the analyzer folds it into its entity model's one
/// column instead of holding a second.
#[derive(Debug, Clone)]
pub struct Schema {
    paths: Vec<PathInfo>,
    /// (parent path, child label) → child path.
    lookup: HashMap<(Option<PathId>, Symbol), PathId>,
}

impl Schema {
    /// Infer the summary for `doc`, resolving `*`-nodes against the DTD when
    /// one was parsed, and every node's path by [`crate::NodeId::index`] (a
    /// text node is on its parent's path).
    pub fn infer(doc: &Document) -> (Schema, Vec<PathId>) {
        let mut schema = Schema { paths: Vec::new(), lookup: HashMap::new() };
        let mut node_paths = vec![PathId(0); doc.len()];

        // Pass 1: assign paths in preorder and collect counts.
        let root = doc.root();
        // A document is rooted at an element; a projection of a lone text
        // node has no label to summarize and gets a placeholder path.
        let root_label = doc.label(root).unwrap_or(Symbol::from_index(0));
        let root_path = schema.intern_path(None, root_label);
        node_paths[root.index()] = root_path;
        schema.paths[root_path.index()].instance_count = 1;
        schema.paths[root_path.index()].max_siblings = 1;

        // Same-label children per parent instance, counted by child path
        // (under one parent path a label is one child path) into one
        // scratch for the whole walk: `siblings[path]` counts the current
        // element's children on `path`, and `touched` lists the paths to
        // fold into `max_siblings` and reset when the element is done.
        let mut siblings: Vec<u32> = Vec::new();
        let mut touched: Vec<PathId> = Vec::new();
        // By label symbol: the last (parent path, child path) it was
        // interned under. A label mostly sits under one parent path, so
        // this answers most children without hashing (98 % of the
        // children of the benchmark's 48 documents; BASELINES "PR 39"
        // times it); a miss asks `lookup`.
        let mut last_path: Vec<Option<(PathId, PathId)>> = vec![None; doc.symbols().len()];
        for node in doc.subtree(root) {
            if doc.is_text(node) {
                if let Some(p) = doc.parent(node) {
                    node_paths[node.index()] = node_paths[p.index()];
                }
                continue;
            }
            let node_path = node_paths[node.index()];
            for child in doc.children(node) {
                let Some(label) = doc.label(child) else {
                    schema.paths[node_path.index()].has_text_child = true;
                    node_paths[child.index()] = node_path;
                    continue;
                };
                schema.paths[node_path.index()].has_element_child = true;
                let child_path = match last_path.get(label.index()) {
                    Some(&Some((parent, child))) if parent == node_path => child,
                    _ => {
                        let child = schema.intern_path(Some(node_path), label);
                        if let Some(slot) = last_path.get_mut(label.index()) {
                            *slot = Some((node_path, child));
                        }
                        child
                    }
                };
                node_paths[child.index()] = child_path;
                schema.paths[child_path.index()].instance_count += 1;
                if siblings.len() <= child_path.index() {
                    siblings.resize(schema.paths.len(), 0);
                }
                let count = &mut siblings[child_path.index()];
                if *count == 0 {
                    touched.push(child_path);
                }
                *count += 1;
            }
            for path in touched.drain(..) {
                let count = std::mem::take(&mut siblings[path.index()]);
                let info = &mut schema.paths[path.index()];
                info.max_siblings = info.max_siblings.max(count);
            }
        }

        // Pass 2: resolve starredness.
        for i in 0..schema.paths.len() {
            let (parent, label, max_siblings) = {
                let p = &schema.paths[i];
                (p.parent, p.label, p.max_siblings)
            };
            let starred = match parent {
                None => false, // the root is never a *-node
                Some(parent_path) => {
                    let parent_label = doc.resolve(schema.paths[parent_path.index()].label);
                    let child_label = doc.resolve(label);
                    match doc.dtd().and_then(|d| d.is_repeatable(parent_label, child_label)) {
                        Some(answer) => answer,
                        None => max_siblings >= 2,
                    }
                }
            };
            schema.paths[i].starred = starred;
        }
        (schema, node_paths)
    }

    fn intern_path(&mut self, parent: Option<PathId>, label: Symbol) -> PathId {
        if let Some(&p) = self.lookup.get(&(parent, label)) {
            return p;
        }
        let id = PathId(crate::id32(self.paths.len()));
        let depth = parent.map(|p| self.paths[p.index()].depth + 1).unwrap_or(0);
        self.paths.push(PathInfo {
            parent,
            label,
            depth,
            instance_count: 0,
            max_siblings: 0,
            has_element_child: false,
            has_text_child: false,
            starred: false,
        });
        self.lookup.insert((parent, label), id);
        id
    }

    /// Summary data for a path.
    pub fn info(&self, path: PathId) -> &PathInfo {
        &self.paths[path.index()]
    }

    /// Number of distinct label paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Iterate over all paths.
    pub fn paths(&self) -> impl Iterator<Item = (PathId, &PathInfo)> {
        self.paths.iter().enumerate().map(|(i, p)| (PathId(crate::id32(i)), p))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn doc_no_dtd() -> Document {
        Document::parse_str(
            "<retailer><name>BB</name>\
             <store><city>Houston</city></store>\
             <store><city>Austin</city></store></retailer>",
        )
        .unwrap()
    }

    /// The label path of the first element labelled `label` (each label in
    /// these documents is on one path).
    fn path(d: &Document, paths: &[PathId], label: &str) -> PathId {
        paths[d.first_element_with_label(label).unwrap().index()]
    }

    #[test]
    fn repeated_siblings_are_starred_without_dtd() {
        let d = doc_no_dtd();
        let (s, paths) = Schema::infer(&d);
        let store = path(&d, &paths, "store");
        assert!(s.info(store).starred);
        let name = path(&d, &paths, "name");
        assert!(!s.info(name).starred);
        let city = path(&d, &paths, "city");
        assert!(!s.info(city).starred, "one city per store in the data");
    }

    #[test]
    fn dtd_overrides_data_inference() {
        // Data shows one store, but the DTD says store may repeat.
        let d = Document::parse_str(
            "<!DOCTYPE retailer [\
              <!ELEMENT retailer (name, store*)>\
              <!ELEMENT store (city)>\
              <!ELEMENT name (#PCDATA)>\
              <!ELEMENT city (#PCDATA)>\
             ]>\
             <retailer><name>BB</name><store><city>Houston</city></store></retailer>",
        )
        .unwrap();
        let (s, paths) = Schema::infer(&d);
        let store = path(&d, &paths, "store");
        assert!(s.info(store).starred, "DTD star wins over single instance");
        let city = path(&d, &paths, "city");
        assert!(!s.info(city).starred);
    }

    #[test]
    fn instance_counts_and_siblings() {
        let d = doc_no_dtd();
        let (s, paths) = Schema::infer(&d);
        let store = path(&d, &paths, "store");
        assert_eq!(s.info(store).instance_count, 2);
        assert_eq!(s.info(store).max_siblings, 2);
        let city = path(&d, &paths, "city");
        assert_eq!(s.info(city).instance_count, 2);
        assert_eq!(s.info(city).max_siblings, 1);
    }

    #[test]
    fn node_paths_are_context_sensitive() {
        // `name` under retailer vs under store are different paths.
        let d = Document::parse_str(
            "<retailer><name>BB</name><store><name>Galleria</name></store></retailer>",
        )
        .unwrap();
        let (s, paths) = Schema::infer(&d);
        let path_of = |n: NodeId| paths[n.index()];
        let names = d.elements_with_label("name");
        assert_ne!(path_of(names[0]), path_of(names[1]));
        let store = d.first_element_with_label("store").unwrap();
        assert_eq!(s.info(path_of(names[0])).parent, Some(path_of(d.root())));
        assert_eq!(s.info(path_of(names[1])).parent, Some(path_of(store)));
    }

    #[test]
    fn text_nodes_map_to_parent_path() {
        let d = doc_no_dtd();
        let (_, paths) = Schema::infer(&d);
        let name = d.first_element_with_label("name").unwrap();
        let text = d.children(name).next().unwrap();
        assert_eq!(paths[text.index()], paths[name.index()]);
    }

    #[test]
    fn has_text_and_element_child_flags() {
        let d = doc_no_dtd();
        let (s, paths) = Schema::infer(&d);
        let retailer = paths[d.root().index()];
        assert!(s.info(retailer).has_element_child);
        assert!(!s.info(retailer).has_text_child);
        let name = path(&d, &paths, "name");
        assert!(s.info(name).has_text_child);
        assert!(!s.info(name).has_element_child);
    }

    #[test]
    fn root_is_never_starred() {
        let d = doc_no_dtd();
        let (s, paths) = Schema::infer(&d);
        assert!(!s.info(paths[d.root().index()]).starred);
    }

    #[test]
    fn path_count_matches_distinct_paths() {
        let d = doc_no_dtd();
        let (s, _) = Schema::infer(&d);
        // /retailer, /retailer/name, /retailer/store, /retailer/store/city
        assert_eq!(s.path_count(), 4);
    }
}
