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

use crate::document::{Document, NodeId};
use crate::symbol::Symbol;

/// Index of a label path in a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
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

/// A structural summary of one document.
#[derive(Debug, Clone)]
pub struct Schema {
    paths: Vec<PathInfo>,
    /// (parent path, child label) → child path.
    lookup: HashMap<(Option<PathId>, Symbol), PathId>,
    /// NodeId → PathId for element nodes (dense; text nodes map to their
    /// parent's path).
    node_paths: Vec<PathId>,
    root_path: PathId,
}

impl Schema {
    /// Infer the summary for `doc`, resolving `*`-nodes against the DTD when
    /// one was parsed.
    pub fn infer(doc: &Document) -> Schema {
        let mut schema = Schema {
            paths: Vec::new(),
            lookup: HashMap::new(),
            node_paths: vec![PathId(0); doc.len()],
            root_path: PathId(0),
        };

        // Pass 1: assign paths in preorder and collect counts.
        let root = doc.root();
        // A document is rooted at an element; a projection of a lone text
        // node has no label to summarize and gets a placeholder path.
        let root_label = doc.label(root).unwrap_or(Symbol::from_index(0));
        let root_path = schema.intern_path(None, root_label);
        schema.root_path = root_path;
        schema.node_paths[root.index()] = root_path;
        schema.paths[root_path.index()].instance_count = 1;
        schema.paths[root_path.index()].max_siblings = 1;

        for node in doc.subtree(root) {
            if doc.is_text(node) {
                if let Some(p) = doc.parent(node) {
                    schema.node_paths[node.index()] = schema.node_paths[p.index()];
                }
                continue;
            }
            let node_path = schema.node_paths[node.index()];
            // Count same-label children per this parent instance.
            let mut sibling_counts: HashMap<Symbol, u32> = HashMap::new();
            for child in doc.children(node) {
                let Some(label) = doc.label(child) else {
                    schema.paths[node_path.index()].has_text_child = true;
                    schema.node_paths[child.index()] = node_path;
                    continue;
                };
                schema.paths[node_path.index()].has_element_child = true;
                let child_path = schema.intern_path(Some(node_path), label);
                schema.node_paths[child.index()] = child_path;
                schema.paths[child_path.index()].instance_count += 1;
                *sibling_counts.entry(label).or_insert(0) += 1;
            }
            for (label, count) in sibling_counts {
                let child_path = schema.lookup[&(Some(node_path), label)];
                let info = &mut schema.paths[child_path.index()];
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
        schema
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

    /// The path of the document root.
    pub fn root_path(&self) -> PathId {
        self.root_path
    }

    /// The path of a node (for text nodes, the parent element's path).
    pub fn path_of(&self, node: NodeId) -> PathId {
        self.node_paths[node.index()]
    }

    /// Summary data for a path.
    pub fn info(&self, path: PathId) -> &PathInfo {
        &self.paths[path.index()]
    }

    /// Whether `path` is a `*`-node (may repeat under its parent).
    pub fn is_starred(&self, path: PathId) -> bool {
        self.paths[path.index()].starred
    }

    /// Whether the **node** sits on a starred path.
    pub fn node_is_starred(&self, node: NodeId) -> bool {
        self.is_starred(self.path_of(node))
    }

    /// Number of distinct label paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Iterate over all paths.
    pub fn paths(&self) -> impl Iterator<Item = (PathId, &PathInfo)> {
        self.paths.iter().enumerate().map(|(i, p)| (PathId(crate::id32(i)), p))
    }

    /// Render a path as `/a/b/c`.
    pub fn path_string(&self, path: PathId, doc: &Document) -> String {
        let mut labels = Vec::new();
        let mut cur = Some(path);
        while let Some(p) = cur {
            let info = &self.paths[p.index()];
            labels.push(doc.resolve(info.label));
            cur = info.parent;
        }
        labels.reverse();
        let mut out = String::new();
        for l in labels {
            out.push('/');
            out.push_str(l);
        }
        out
    }

    /// Find a path by its `/a/b/c` string.
    pub fn path_by_string(&self, s: &str, doc: &Document) -> Option<PathId> {
        let mut cur: Option<PathId> = None;
        for part in s.split('/').filter(|p| !p.is_empty()) {
            let sym = doc.symbols().get(part)?;
            cur = Some(*self.lookup.get(&(cur, sym))?);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_no_dtd() -> Document {
        Document::parse_str(
            "<retailer><name>BB</name>\
             <store><city>Houston</city></store>\
             <store><city>Austin</city></store></retailer>",
        )
        .unwrap()
    }

    #[test]
    fn repeated_siblings_are_starred_without_dtd() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        let store = s.path_by_string("/retailer/store", &d).unwrap();
        assert!(s.is_starred(store));
        let name = s.path_by_string("/retailer/name", &d).unwrap();
        assert!(!s.is_starred(name));
        let city = s.path_by_string("/retailer/store/city", &d).unwrap();
        assert!(!s.is_starred(city), "one city per store in the data");
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
        let s = Schema::infer(&d);
        let store = s.path_by_string("/retailer/store", &d).unwrap();
        assert!(s.is_starred(store), "DTD star wins over single instance");
        let city = s.path_by_string("/retailer/store/city", &d).unwrap();
        assert!(!s.is_starred(city));
    }

    #[test]
    fn instance_counts_and_siblings() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        let store = s.path_by_string("/retailer/store", &d).unwrap();
        assert_eq!(s.info(store).instance_count, 2);
        assert_eq!(s.info(store).max_siblings, 2);
        let city = s.path_by_string("/retailer/store/city", &d).unwrap();
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
        let s = Schema::infer(&d);
        let names = d.elements_with_label("name");
        assert_ne!(s.path_of(names[0]), s.path_of(names[1]));
        assert_eq!(s.path_string(s.path_of(names[0]), &d), "/retailer/name");
        assert_eq!(s.path_string(s.path_of(names[1]), &d), "/retailer/store/name");
    }

    #[test]
    fn text_nodes_map_to_parent_path() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        let name = d.first_element_with_label("name").unwrap();
        let text = d.children(name).next().unwrap();
        assert_eq!(s.path_of(text), s.path_of(name));
    }

    #[test]
    fn has_text_and_element_child_flags() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        let retailer = s.root_path();
        assert!(s.info(retailer).has_element_child);
        assert!(!s.info(retailer).has_text_child);
        let name = s.path_by_string("/retailer/name", &d).unwrap();
        assert!(s.info(name).has_text_child);
        assert!(!s.info(name).has_element_child);
    }

    #[test]
    fn root_is_never_starred() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        assert!(!s.is_starred(s.root_path()));
    }

    #[test]
    fn path_by_string_rejects_unknown() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        assert!(s.path_by_string("/retailer/warehouse", &d).is_none());
        assert!(s.path_by_string("/store", &d).is_none());
    }

    #[test]
    fn path_count_matches_distinct_paths() {
        let d = doc_no_dtd();
        let s = Schema::infer(&d);
        // /retailer, /retailer/name, /retailer/store, /retailer/store/city
        assert_eq!(s.path_count(), 4);
    }
}
