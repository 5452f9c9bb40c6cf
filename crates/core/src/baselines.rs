//! Baseline snippet strategies for the quality comparison (experiment E9).
//!
//! The demo contrasts eXtract with Google Desktop's structure-blind text
//! snippets (§4: "Since Google is a text document search engine and ignores
//! XML tags and all structural information, the advantages of developing an
//! XML-specific snippet generation system can be clearly demonstrated").
//! [`TextWindows`] reproduces that baseline; [`BfsPrefix`] and
//! [`PathToMatches`] are natural structure-aware strawmen.

use std::collections::HashSet;

use extract_xml::{Document, NodeId};

use extract_search::QueryResult;

/// Output of a baseline: either a node-set tree (comparable to eXtract's
/// snippet) or flat text.
#[derive(Debug, Clone)]
pub enum BaselineContent {
    /// A bounded subtree, as an ancestor-closed node set plus edge count.
    Tree {
        /// Included element nodes.
        nodes: HashSet<NodeId>,
        /// Element-edge count.
        edges: usize,
    },
    /// Structure-free text.
    Text(String),
}

impl BaselineContent {
    /// Render for display / substring-based quality checks.
    pub fn rendered(&self, doc: &Document) -> String {
        match self {
            BaselineContent::Tree { nodes, .. } => {
                let root = nodes.iter().copied().min().expect("tree has a root");
                let tree = doc.project(root, nodes);
                tree.to_xml_string()
            }
            BaselineContent::Text(t) => t.clone(),
        }
    }
}

/// A baseline snippet strategy.
pub trait BaselineStrategy {
    /// Short identifier used in experiment tables.
    fn name(&self) -> &'static str;
    /// Generate a snippet for `result` within `bound` edges (text baselines
    /// convert the bound to a character budget).
    fn generate(&self, doc: &Document, result: &QueryResult, bound: usize) -> BaselineContent;
}

/// Breadth-first prefix of the result tree: take element nodes in BFS
/// order until the bound is reached. Blind to keywords and statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct BfsPrefix;

impl BaselineStrategy for BfsPrefix {
    fn name(&self) -> &'static str {
        "bfs-prefix"
    }

    fn generate(&self, doc: &Document, result: &QueryResult, bound: usize) -> BaselineContent {
        let mut nodes = HashSet::with_capacity(bound + 1);
        nodes.insert(result.root);
        let mut edges = 0usize;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(result.root);
        'outer: while let Some(n) = queue.pop_front() {
            for c in doc.element_children(n) {
                if edges >= bound {
                    break 'outer;
                }
                nodes.insert(c);
                edges += 1;
                queue.push_back(c);
            }
        }
        BaselineContent::Tree { nodes, edges }
    }
}

/// Root-to-match paths: add the path to the first match of each keyword
/// (cheapest first), stopping when the budget is exhausted. Keyword-aware
/// but statistics-blind.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathToMatches;

impl BaselineStrategy for PathToMatches {
    fn name(&self) -> &'static str {
        "match-paths"
    }

    fn generate(&self, doc: &Document, result: &QueryResult, bound: usize) -> BaselineContent {
        let mut nodes: HashSet<NodeId> = HashSet::new();
        nodes.insert(result.root);
        let mut edges = 0usize;
        for matches in &result.matches {
            let Some(&first) = matches.first() else { continue };
            // Cost of the path from `first` up to the included region.
            let mut path = Vec::new();
            for a in doc.ancestors_or_self(first) {
                if nodes.contains(&a) {
                    break;
                }
                path.push(a);
            }
            if edges + path.len() > bound {
                continue;
            }
            edges += path.len();
            nodes.extend(path);
        }
        BaselineContent::Tree { nodes, edges }
    }
}

/// Structure-blind keyword-window text snippets in the style of a text
/// search engine (the Google Desktop comparison). The result subtree is
/// flattened to text; a window of words is cut around the first occurrence
/// of each keyword; windows are joined with ellipses. The edge bound is
/// converted to a word budget (`bound × WORDS_PER_EDGE`).
#[derive(Debug, Default, Clone, Copy)]
pub struct TextWindows;

/// One tree edge buys roughly this many words of text snippet, so the text
/// baseline gets a comparable information budget.
const WORDS_PER_EDGE: usize = 3;

impl BaselineStrategy for TextWindows {
    fn name(&self) -> &'static str {
        "text-windows"
    }

    fn generate(&self, doc: &Document, result: &QueryResult, bound: usize) -> BaselineContent {
        let flat = doc.concat_text(result.root);
        let words: Vec<&str> = flat.split_whitespace().collect();
        let budget = bound * WORDS_PER_EDGE;
        let keywords: Vec<String> = result
            .matches
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| i)
            .filter_map(|i| {
                // Recover the keyword text from the match node's content:
                // cheaper to just use the index in result — we don't have
                // the query here, so fall back to match-node values.
                result.matches[i].first().map(|&n| {
                    doc.text_of(n).unwrap_or_else(|| doc.label_str(n).unwrap_or("")).to_string()
                })
            })
            .collect();

        let mut picked: Vec<(usize, usize)> = Vec::new(); // word ranges
        let mut used = 0usize;
        for kw in &keywords {
            if used >= budget {
                break;
            }
            let kw_lower = kw.to_lowercase();
            let hit = words.iter().position(|w| {
                let w = w.to_lowercase();
                kw_lower.split_whitespace().any(|part| w.contains(part))
            });
            if let Some(pos) = hit {
                let half = (budget - used).min(6) / 2;
                let start = pos.saturating_sub(half);
                let end = (pos + half + 1).min(words.len());
                picked.push((start, end));
                used += end - start;
            }
        }
        if picked.is_empty() && !words.is_empty() {
            picked.push((0, budget.min(words.len())));
        }
        picked.sort_unstable();
        let mut out = String::new();
        let mut last_end = 0usize;
        for (start, end) in picked {
            if start > last_end || !out.is_empty() {
                out.push_str(" … ");
            }
            out.push_str(&words[start.max(last_end)..end.max(last_end)].join(" "));
            last_end = last_end.max(end);
        }
        BaselineContent::Text(out.trim().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_index::XmlIndex;
    use extract_search::KeywordQuery;

    fn setup() -> (Document, QueryResult) {
        let doc = Document::parse_str(
            "<store><name>Levis</name><state>Texas</state>\
             <merchandises>\
               <clothes><category>jeans</category><fitting>man</fitting></clothes>\
               <clothes><category>hats</category><fitting>woman</fitting></clothes>\
             </merchandises></store>",
        )
        .unwrap();
        let index = XmlIndex::build(&doc);
        let q = KeywordQuery::parse("store texas");
        let result = QueryResult::build(&doc, &index, &q, doc.root());
        (doc, result)
    }

    #[test]
    fn bfs_prefix_respects_bound_and_is_closed() {
        let (doc, result) = setup();
        for bound in 0..12 {
            let BaselineContent::Tree { nodes, edges } =
                BfsPrefix.generate(&doc, &result, bound)
            else {
                panic!("tree expected")
            };
            assert!(edges <= bound);
            for &n in &nodes {
                if n != result.root {
                    assert!(nodes.contains(&doc.parent(n).unwrap()));
                }
            }
        }
    }

    #[test]
    fn bfs_prefix_takes_shallow_nodes_first() {
        let (doc, result) = setup();
        let BaselineContent::Tree { nodes, .. } = BfsPrefix.generate(&doc, &result, 3) else {
            panic!()
        };
        let name = doc.first_element_with_label("name").unwrap();
        let category = doc.first_element_with_label("category").unwrap();
        assert!(nodes.contains(&name));
        assert!(!nodes.contains(&category), "depth-2 node can't precede depth-1 nodes");
    }

    #[test]
    fn match_paths_contains_keyword_matches() {
        let (doc, result) = setup();
        let BaselineContent::Tree { nodes, edges } =
            PathToMatches.generate(&doc, &result, 10)
        else {
            panic!()
        };
        let state = doc.first_element_with_label("state").unwrap();
        assert!(nodes.contains(&state), "texas match included");
        assert!(nodes.contains(&result.root));
        assert!(edges <= 10);
    }

    #[test]
    fn match_paths_skips_unaffordable_paths() {
        let (doc, result) = setup();
        let BaselineContent::Tree { edges, .. } = PathToMatches.generate(&doc, &result, 0)
        else {
            panic!()
        };
        assert_eq!(edges, 0, "nothing fits in a zero budget");
    }

    #[test]
    fn text_windows_mentions_keywords() {
        let (doc, result) = setup();
        let BaselineContent::Text(t) = TextWindows.generate(&doc, &result, 6) else {
            panic!("text expected")
        };
        assert!(t.to_lowercase().contains("texas"), "{t}");
    }

    #[test]
    fn text_windows_budget_scales_with_bound() {
        let (doc, result) = setup();
        let BaselineContent::Text(small) = TextWindows.generate(&doc, &result, 1) else {
            panic!()
        };
        let BaselineContent::Text(large) = TextWindows.generate(&doc, &result, 20) else {
            panic!()
        };
        assert!(large.split_whitespace().count() >= small.split_whitespace().count());
    }

    #[test]
    fn rendered_output_is_displayable() {
        let (doc, result) = setup();
        let tree = BfsPrefix.generate(&doc, &result, 4).rendered(&doc);
        assert!(tree.starts_with("<store>"), "{tree}");
        let text = TextWindows.generate(&doc, &result, 4).rendered(&doc);
        assert!(!text.contains('<'), "text baseline has no markup: {text}");
    }
}
