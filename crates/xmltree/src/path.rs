//! A tiny path-expression language for navigation in tests, examples and
//! generators.
//!
//! Supported grammar (a small XPath subset, absolute or relative):
//!
//! ```text
//! path      := step+
//! step      := "/" name | "//" name | "/" "*" | "//" "*"
//! name      := XML name
//! ```
//!
//! `/a/b` selects `b` children of `a`; `//x` selects descendants named `x`;
//! `*` matches any element label. Results are in document order without
//! duplicates.

use crate::document::{Document, NodeId};
use crate::error::{Error, Result};

/// One step of a compiled path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// `/name` or `/*` — children matching the test.
    Child(NameTest),
    /// `//name` or `//*` — descendants matching the test.
    Descendant(NameTest),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NameTest {
    Any,
    Named(String),
}

impl NameTest {
    fn matches(&self, doc: &Document, node: NodeId) -> bool {
        match self {
            NameTest::Any => doc.is_element(node),
            NameTest::Named(n) => doc.label_str(node) == Some(n.as_str()),
        }
    }
}

/// A compiled path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    steps: Vec<Step>,
}

impl Path {
    /// Compile a path expression.
    pub fn compile(expr: &str) -> Result<Path> {
        let mut steps = Vec::new();
        let mut rest = expr.trim();
        if rest.is_empty() {
            return Err(Error::BadPath { message: "empty expression".into() });
        }
        if !rest.starts_with('/') {
            return Err(Error::BadPath {
                message: format!("expected `/` or `//` at the start of `{expr}`"),
            });
        }
        while !rest.is_empty() {
            let descendant = if rest.starts_with("//") {
                rest = &rest[2..];
                true
            } else if rest.starts_with('/') {
                rest = &rest[1..];
                false
            } else {
                return Err(Error::BadPath {
                    message: format!("expected `/` before `{rest}`"),
                });
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let name = &rest[..end];
            rest = &rest[end..];
            if name.is_empty() {
                return Err(Error::BadPath { message: "empty step name".into() });
            }
            let test = if name == "*" {
                NameTest::Any
            } else if name.chars().all(|c| c.is_alphanumeric() || "_-.:".contains(c)) {
                NameTest::Named(name.to_string())
            } else {
                return Err(Error::BadPath { message: format!("bad step name `{name}`") });
            };
            steps.push(if descendant { Step::Descendant(test) } else { Step::Child(test) });
        }
        Ok(Path { steps })
    }

    /// Evaluate against the document root. The **first step is matched
    /// against the root element itself** (so `/retailer/store` selects
    /// stores of a `retailer` root).
    pub fn select(&self, doc: &Document) -> Vec<NodeId> {
        let root = doc.root();
        let mut current: Vec<NodeId> = match self.steps.first() {
            None => return Vec::new(),
            Some(Step::Child(test)) => {
                if test.matches(doc, root) {
                    vec![root]
                } else {
                    Vec::new()
                }
            }
            Some(Step::Descendant(test)) => doc
                .subtree(root)
                .filter(|&n| test.matches(doc, n))
                .collect(),
        };
        for step in &self.steps[1..] {
            current = apply_step(doc, &current, step);
        }
        current
    }

    /// Evaluate relative to `context` (the first step matches children /
    /// descendants of `context`).
    pub fn select_from(&self, doc: &Document, context: NodeId) -> Vec<NodeId> {
        let mut current = vec![context];
        for step in &self.steps {
            current = apply_step(doc, &current, step);
        }
        current
    }
}

fn apply_step(doc: &Document, current: &[NodeId], step: &Step) -> Vec<NodeId> {
    let mut out = Vec::new();
    match step {
        Step::Child(test) => {
            for &n in current {
                for c in doc.children(n) {
                    if test.matches(doc, c) {
                        out.push(c);
                    }
                }
            }
        }
        Step::Descendant(test) => {
            for &n in current {
                for d in doc.subtree(n).skip(1) {
                    if test.matches(doc, d) {
                        out.push(d);
                    }
                }
            }
        }
    }
    // Document order + dedup (IDs are preorder, so sort + dedup suffices).
    out.sort_unstable();
    out.dedup();
    out
}

/// Convenience: compile and select in one call.
pub fn select(doc: &Document, expr: &str) -> Result<Vec<NodeId>> {
    Ok(Path::compile(expr)?.select(doc))
}

/// Convenience: select and return the first match.
pub fn select_first(doc: &Document, expr: &str) -> Result<Option<NodeId>> {
    Ok(select(doc, expr)?.into_iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
            "<retailer><name>BB</name>\
             <store><name>Galleria</name><city>Houston</city></store>\
             <store><name>West Village</name><city>Austin</city></store></retailer>",
        )
        .unwrap()
    }

    #[test]
    fn absolute_child_path() {
        let d = doc();
        let cities = select(&d, "/retailer/store/city").unwrap();
        assert_eq!(cities.len(), 2);
        assert_eq!(d.text_of(cities[0]), Some("Houston"));
        assert_eq!(d.text_of(cities[1]), Some("Austin"));
    }

    #[test]
    fn first_step_matches_root() {
        let d = doc();
        assert_eq!(select(&d, "/retailer").unwrap(), vec![d.root()]);
        assert!(select(&d, "/shop").unwrap().is_empty());
    }

    #[test]
    fn descendant_step() {
        let d = doc();
        let names = select(&d, "//name").unwrap();
        assert_eq!(names.len(), 3);
        // Document order: retailer's name first.
        assert_eq!(d.text_of(names[0]), Some("BB"));
    }

    #[test]
    fn descendant_then_child() {
        let d = doc();
        let names = select(&d, "//store/name").unwrap();
        assert_eq!(names.len(), 2);
        assert_eq!(d.text_of(names[0]), Some("Galleria"));
    }

    #[test]
    fn wildcard() {
        let d = doc();
        let kids = select(&d, "/retailer/*").unwrap();
        assert_eq!(kids.len(), 3);
        let all = select(&d, "//*").unwrap();
        assert_eq!(all.len(), d.element_count());
    }

    #[test]
    fn relative_selection() {
        let d = doc();
        let store2 = d.elements_with_label("store")[1];
        let p = Path::compile("/name").unwrap();
        let names = p.select_from(&d, store2);
        assert_eq!(names.len(), 1);
        assert_eq!(d.text_of(names[0]), Some("West Village"));
    }

    #[test]
    fn results_are_in_document_order_without_duplicates() {
        let d = doc();
        let r = select(&d, "//store//*").unwrap();
        let mut sorted = r.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(r, sorted);
    }

    #[test]
    fn bad_expressions_are_rejected() {
        assert!(Path::compile("").is_err());
        assert!(Path::compile("store").is_err());
        assert!(Path::compile("/sto re").is_err());
        assert!(Path::compile("/a//").is_err());
    }

    #[test]
    fn select_first_helper() {
        let d = doc();
        let n = select_first(&d, "//city").unwrap().unwrap();
        assert_eq!(d.text_of(n), Some("Houston"));
        assert!(select_first(&d, "//warehouse").unwrap().is_none());
    }
}
