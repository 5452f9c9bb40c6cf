//! Benchmark harness utilities: controlled workloads, timing helpers and
//! table rendering shared by the `experiments` binary and the Criterion
//! benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus_scale;
pub mod router_throughput;
pub mod serve_throughput;
pub mod throughput;

use std::time::{Duration, Instant};

use extract_datagen::vocab;
use extract_xml::{DocBuilder, Document, NodeId};

/// Build a retailer database containing **one** big retailer whose subtree
/// (the query result of "texas apparel retailer") has roughly
/// `target_result_nodes` nodes, plus a distractor. Used by E5–E7 where the
/// *result* size must be the controlled variable.
pub fn scaled_retailer_db(target_result_nodes: usize) -> Document {
    // One store ≈ 9 nodes of scaffolding; one clothes ≈ 7 nodes.
    let clothes_total = (target_result_nodes.saturating_sub(40) / 7).max(4);
    let stores = (clothes_total / 100).clamp(1, 50);
    let per_store = clothes_total / stores;

    let mut b = DocBuilder::new("retailers");
    b.reserve(target_result_nodes + 64);
    b.begin("retailer");
    b.leaf("name", "Brook Brothers");
    b.leaf("product", "apparel");
    let mut serial = 0usize;
    for s in 0..stores {
        b.begin("store");
        b.leaf("name", &format!("{} #{s}", vocab::STORE_NAMES[s % vocab::STORE_NAMES.len()]));
        b.leaf("state", "Texas");
        // Skewed cities: 60% Houston.
        b.leaf("city", if s % 5 < 3 { "Houston" } else { vocab::CITIES[s % vocab::CITIES.len()] });
        b.begin("merchandises");
        for _ in 0..per_store {
            serial += 1;
            b.begin("clothes");
            b.leaf("fitting", vocab::FITTINGS[weighted3(serial)]);
            b.leaf("situation", if serial % 10 < 7 { "casual" } else { "formal" });
            b.leaf("category", vocab::CATEGORIES[zipfish(serial, vocab::CATEGORIES.len())]);
            b.end();
        }
        b.end();
        b.end();
    }
    b.end();

    // Distractor retailer so `retailer` postings are not a single node.
    b.begin("retailer");
    b.leaf("name", "Circuit Town");
    b.leaf("product", "electronics");
    b.begin("store");
    b.leaf("name", "Northgate Solo");
    b.leaf("state", "Ohio");
    b.leaf("city", "Chicago");
    b.end();
    b.end();
    b.build()
}

/// 60/30/10 split over the three fittings.
fn weighted3(i: usize) -> usize {
    match i % 10 {
        0..=5 => 0,
        6..=8 => 1,
        _ => 2,
    }
}

/// Deterministic Zipf-ish rank: rank 0 gets ~1/2 the mass, rank 1 ~1/6…
fn zipfish(i: usize, n: usize) -> usize {
    let x = i % 60;
    let mut acc = 0usize;
    for r in 0..n {
        acc += 30 / (r + 1).min(30);
        if x < acc {
            return r;
        }
    }
    i % n
}

/// The Brook Brothers root of [`scaled_retailer_db`].
pub fn scaled_retailer_root(doc: &Document) -> NodeId {
    doc.elements_with_label("retailer")[0]
}

/// An adversarial workload for the instance-policy ablation (E13): the
/// query result is a retailer whose *anchor* store ("Bayview", matched by
/// the query keywords) carries one clothes with **all six** dominant
/// attribute values together, while each value's *first* occurrence in
/// document order sits alone in a separate scatter store. The paper's
/// cheapest-instance greedy clusters everything at the anchor (1 edge per
/// feature); the first-instance ablation pays a full store path (4 edges)
/// per feature and runs out of budget.
pub fn scattered_anchor_db() -> Document {
    // Six attribute types, each with a dominant value v_t (count 2: one
    // scatter + one anchor occurrence) and two filler values (count 1) so
    // DS(v_t) = 2·3/4 = 1.5 > 1 and fillers are 0.75.
    const ATTRS: [&str; 6] = ["category", "fitting", "situation", "fabric", "color", "brand"];
    const DOMINANT: [&str; 6] = ["vcat", "vfit", "vsit", "vfab", "vcol", "vbra"];

    let mut b = DocBuilder::new("retailers");
    b.begin("retailer");
    b.leaf("name", "Brook Brothers");
    b.leaf("product", "apparel");

    // Scatter stores: store t holds the first occurrence of DOMINANT[t],
    // plus one filler occurrence of the *next* attribute's type so every
    // type reaches N=4, D=3.
    for (t, (&attr, &val)) in ATTRS.iter().zip(DOMINANT.iter()).enumerate() {
        b.begin("store");
        b.leaf("name", &format!("Scatter {t}"));
        b.begin("merchandises");
        b.begin("clothes");
        b.leaf(attr, val);
        // Fillers for the two neighbouring types.
        let n1 = (t + 1) % ATTRS.len();
        let n2 = (t + 2) % ATTRS.len();
        b.leaf(ATTRS[n1], &format!("filler-{t}-a"));
        b.leaf(ATTRS[n2], &format!("filler-{t}-b"));
        b.end();
        b.end();
        b.end();
    }

    // The anchor store: matched by the query, carries every dominant value
    // on one clothes.
    b.begin("store");
    b.leaf("name", "Bayview");
    b.leaf("state", "Texas");
    b.begin("merchandises");
    b.begin("clothes");
    for (&attr, &val) in ATTRS.iter().zip(DOMINANT.iter()) {
        b.leaf(attr, val);
    }
    b.end();
    b.end();
    b.end();

    b.end(); // retailer
    // Distractor retailer.
    b.begin("retailer");
    b.leaf("name", "Other");
    b.leaf("product", "electronics");
    b.begin("store");
    b.leaf("name", "Elsewhere");
    b.leaf("state", "Ohio");
    b.end();
    b.end();
    b.build()
}

/// Median wall-clock time of `f` over `iters` runs (after one warmup).
pub fn median_time<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    f(); // warmup
    let mut samples: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Format a duration compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A fixed-width text table writer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append one row (must match the header count).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - c.chars().count();
                line.push_str(c);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_retailer_hits_target_sizes() {
        for target in [2_000usize, 10_000, 50_000] {
            let doc = scaled_retailer_db(target);
            let root = scaled_retailer_root(&doc);
            let actual = doc.subtree_size(root);
            assert!(
                actual > target / 2 && actual < target * 2,
                "target {target}: got {actual}"
            );
        }
    }

    #[test]
    fn scaled_retailer_has_dominant_values() {
        let doc = scaled_retailer_db(10_000);
        let houston = doc
            .elements_with_label("city")
            .iter()
            .filter(|&&c| doc.text_of(c) == Some("Houston"))
            .count();
        let cities = doc.elements_with_label("city").len();
        assert!(houston * 2 > cities, "Houston should dominate: {houston}/{cities}");
    }

    #[test]
    fn scattered_anchor_db_is_valid_and_shaped() {
        let doc = scattered_anchor_db();
        doc.debug_validate().unwrap();
        // 6 scatter + 1 anchor + 1 distractor store.
        assert_eq!(doc.elements_with_label("store").len(), 8);
        // Each dominant value occurs exactly twice.
        for val in ["vcat", "vfit", "vsit", "vfab", "vcol", "vbra"] {
            let count = doc
                .all_nodes()
                .filter(|&n| doc.text(n) == Some(val))
                .count();
            assert_eq!(count, 2, "{val}");
        }
    }

    #[test]
    fn median_time_is_sane() {
        let d = median_time(3, || {
            std::hint::black_box(42);
        });
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["col", "value"]);
        t.row(["a", "1"]);
        t.row(["long-cell", "2"]);
        let s = t.render();
        assert!(s.contains("col"), "{s}");
        assert!(s.lines().count() == 4, "{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
