//! Whole-document statistics, used by examples and the benchmark harness to
//! report workload sizes.

use std::collections::HashMap;
use std::fmt;

use crate::document::Document;

/// Summary statistics of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentStats {
    /// Total nodes (elements + text).
    pub total_nodes: usize,
    /// Element nodes.
    pub elements: usize,
    /// Text nodes.
    pub text_nodes: usize,
    /// Distinct element labels.
    pub distinct_labels: usize,
    /// Maximum element depth (root = 0).
    pub max_depth: usize,
    /// Mean element depth.
    pub avg_depth: f64,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Per-label element counts, sorted by descending count then label.
    pub label_histogram: Vec<(String, usize)>,
}

impl DocumentStats {
    /// Compute statistics for `doc`.
    pub fn compute(doc: &Document) -> DocumentStats {
        let mut elements = 0usize;
        let mut text_nodes = 0usize;
        let mut text_bytes = 0usize;
        let mut depth_sum = 0usize;
        let mut max_depth = 0usize;
        let mut counts: HashMap<&str, usize> = HashMap::new();

        // Depths in one pass over the parent column: parents come first.
        let mut depths: Vec<usize> = Vec::with_capacity(doc.len());
        for n in doc.all_nodes() {
            let depth = doc.parent(n).map_or(0, |p| depths[p.index()] + 1);
            depths.push(depth);
            match doc.label_str(n) {
                Some(label) => {
                    elements += 1;
                    depth_sum += depth;
                    max_depth = max_depth.max(depth);
                    *counts.entry(label).or_insert(0) += 1;
                }
                None => {
                    text_nodes += 1;
                    text_bytes += doc.text(n).map_or(0, str::len);
                }
            }
        }

        let mut label_histogram: Vec<(String, usize)> =
            counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        label_histogram.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        DocumentStats {
            total_nodes: elements + text_nodes,
            elements,
            text_nodes,
            distinct_labels: label_histogram.len(),
            max_depth,
            avg_depth: if elements > 0 { depth_sum as f64 / elements as f64 } else { 0.0 },
            text_bytes,
            label_histogram,
        }
    }
}

impl fmt::Display for DocumentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} nodes ({} elements, {} text), {} labels, depth max {} avg {:.1}, {} text bytes",
            self.total_nodes,
            self.elements,
            self.text_nodes,
            self.distinct_labels,
            self.max_depth,
            self.avg_depth,
            self.text_bytes
        )?;
        for (label, count) in self.label_histogram.iter().take(12) {
            writeln!(f, "  {label:<20} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let d = Document::parse_str(
            "<retailer><name>BB</name><store><city>Houston</city></store><store><city>Austin</city></store></retailer>",
        )
        .unwrap();
        let s = DocumentStats::compute(&d);
        assert_eq!(s.elements, 6);
        assert_eq!(s.text_nodes, 3);
        assert_eq!(s.total_nodes, d.len());
        assert_eq!(s.distinct_labels, 4);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.text_bytes, "BB".len() + "Houston".len() + "Austin".len());
    }

    #[test]
    fn histogram_is_sorted_desc() {
        let d = Document::parse_str("<a><b/><b/><b/><c/><c/></a>").unwrap();
        let s = DocumentStats::compute(&d);
        assert_eq!(s.label_histogram[0], ("b".to_string(), 3));
        assert_eq!(s.label_histogram[1], ("c".to_string(), 2));
    }

    #[test]
    fn display_does_not_panic() {
        let d = Document::parse_str("<a><b>x</b></a>").unwrap();
        let text = DocumentStats::compute(&d).to_string();
        assert!(text.contains("elements"));
    }

    #[test]
    fn single_element_document() {
        let d = Document::parse_str("<a/>").unwrap();
        let s = DocumentStats::compute(&d);
        assert_eq!(s.elements, 1);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.avg_depth, 0.0);
    }
}
