//! Feature extraction and per-result statistics (paper §2.3).
//!
//! A **feature** is a triple `(entity name e, attribute name a, value v)`:
//! entity `e` has attribute `a` with value `v`. `(e, a)` is the feature
//! *type*. For a query result `R`, [`ResultStats`] computes
//!
//! * `N(e,a,v)` — occurrences of the value,
//! * `N(e,a)` — total value occurrences of the type,
//! * `D(e,a)` — the domain size (number of distinct values),
//!
//! plus, for each value, the list of attribute node instances — exactly
//! what the Dominant Feature Identifier and the Instance Selector consume.
//! Feature types are keyed by **names** (labels), not label paths, matching
//! the paper's definition.

use std::collections::HashMap;

use extract_xml::{Document, NodeId, Symbol};

use crate::classify::EntityModel;

/// A feature type `(entity label, attribute label)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureType {
    /// Entity label.
    pub entity: Symbol,
    /// Attribute label.
    pub attribute: Symbol,
}

/// One value of a feature type with its occurrence count (a row of the
/// paper's Figure 1 statistics panel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueCount {
    /// The attribute value.
    pub value: String,
    /// `N(e,a,v)`.
    pub count: u32,
}

/// One `(type, value)` pair of a result.
#[derive(Debug, Clone)]
struct ValueStats<'d> {
    ftype: FeatureType,
    value: &'d str,
    /// `N(e,a,v)`.
    count: u32,
    /// This value's instances are `occurrences[end - count..end]`.
    end: u32,
}

/// Per-type totals.
#[derive(Debug, Clone, Copy, Default)]
struct TypeStats {
    /// `N(e,a)`.
    total: u32,
    /// `D(e,a)`.
    distinct: u32,
}

/// Feature statistics for one query result (the subtree at a result root).
///
/// Values are `&str`s borrowed from the document (`'d`) and every value's
/// instance list is a slice of one shared vector, so computing the
/// statistics of a result allocates a handful of tables — not a `String`
/// and a `Vec` per distinct value.
#[derive(Debug, Clone, Default)]
pub struct ResultStats<'d> {
    types: HashMap<FeatureType, TypeStats>,
    /// `(type, value)` → index into `values`.
    index: HashMap<(FeatureType, &'d str), usize>,
    /// Distinct `(type, value)` pairs in order of first occurrence.
    values: Vec<ValueStats<'d>>,
    /// Attribute nodes grouped by value, document order within a value.
    occurrences: Vec<NodeId>,
}

impl<'d> ResultStats<'d> {
    /// Compute statistics over the subtree rooted at `root`.
    ///
    /// Every attribute node in the subtree contributes one occurrence of
    /// `(entity-of-attribute, attribute label, value)`. The owning entity
    /// is the nearest strict ancestor entity; attributes above every entity
    /// (e.g. attributes of a connection-node root) are attributed to the
    /// result root's label, so no feature is silently dropped.
    pub fn compute(doc: &'d Document, model: &EntityModel, root: NodeId) -> ResultStats<'d> {
        let mut stats = ResultStats::default();
        // A text node has no attributes below it.
        let Some(root_label) = doc.label(root) else {
            return stats;
        };
        // One scan of the root's ID interval. Attributes arrive in document
        // order, so consecutive ones usually share a parent: remember the
        // last parent's owner instead of re-walking to it.
        let mut last_owner: Option<(NodeId, Symbol)> = None;
        // Which value each attribute node carries, in document order.
        let mut seen: Vec<(usize, NodeId)> = Vec::new();
        for node in doc.subtree_elements(root).skip(1) {
            if !model.is_attribute(node) {
                continue;
            }
            let (Some(value), Some(parent), Some(attribute)) =
                (doc.text_of(node), doc.parent(node), doc.label(node))
            else {
                continue;
            };
            let owner = match last_owner {
                Some((p, owner)) if p == parent => owner,
                _ => model
                    .entity_of(doc, parent)
                    .and_then(|entity| doc.label(entity))
                    .unwrap_or(root_label),
            };
            last_owner = Some((parent, owner));
            let ftype = FeatureType { entity: owner, attribute };
            let ts = stats.types.entry(ftype).or_default();
            ts.total += 1;
            let values = &mut stats.values;
            let slot = *stats.index.entry((ftype, value)).or_insert_with(|| {
                ts.distinct += 1;
                values.push(ValueStats { ftype, value, count: 0, end: 0 });
                values.len() - 1
            });
            values[slot].count += 1;
            seen.push((slot, node));
        }
        // Lay the instance lists out back to back: each value's range
        // starts where the previous one's ends, and filling in document
        // order keeps every list sorted.
        let mut start = 0;
        for vs in &mut stats.values {
            vs.end = start;
            start += vs.count;
        }
        stats.occurrences = vec![root; seen.len()];
        for (slot, node) in seen {
            let vs = &mut stats.values[slot];
            stats.occurrences[vs.end as usize] = node;
            vs.end += 1;
        }
        stats
    }

    fn value_stats(&self, ft: FeatureType, value: &str) -> Option<&ValueStats<'d>> {
        self.values.get(*self.index.get(&(ft, value))?)
    }

    /// `N(e,a)` — total value occurrences of a type.
    pub fn n_type(&self, ft: FeatureType) -> u32 {
        self.types.get(&ft).map_or(0, |t| t.total)
    }

    /// `D(e,a)` — domain size of a type.
    pub fn d_type(&self, ft: FeatureType) -> u32 {
        self.types.get(&ft).map_or(0, |t| t.distinct)
    }

    /// `N(e,a,v)` — occurrences of one value.
    pub fn n_value(&self, ft: FeatureType, value: &str) -> u32 {
        self.value_stats(ft, value).map_or(0, |v| v.count)
    }

    /// Attribute node instances carrying `(ft, value)`, in document order.
    pub fn occurrences(&self, ft: FeatureType, value: &str) -> &[NodeId] {
        self.value_stats(ft, value)
            .and_then(|v| self.occurrences.get((v.end - v.count) as usize..v.end as usize))
            .unwrap_or(&[])
    }

    /// All feature types present in the result.
    pub fn feature_types(&self) -> impl Iterator<Item = FeatureType> + '_ {
        self.types.keys().copied()
    }

    /// Every `(type, value, N(e,a,v))` of the result, in order of first
    /// occurrence; the values are borrowed from the document.
    pub fn value_counts(&self) -> impl Iterator<Item = (FeatureType, &'d str, u32)> + '_ {
        self.values.iter().map(|v| (v.ftype, v.value, v.count))
    }

    /// Values of one type sorted by descending count, then value — the
    /// statistics panel of the paper's Figure 1.
    pub fn value_table(&self, ft: FeatureType) -> Vec<ValueCount> {
        let mut rows: Vec<ValueCount> = self
            .value_counts()
            .filter(|&(ftype, _, _)| ftype == ft)
            .map(|(_, value, count)| ValueCount { value: value.to_string(), count })
            .collect();
        rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.value.cmp(&b.value)));
        rows
    }

    /// Render the full statistics panel (every type), types sorted by name.
    pub fn statistics_panel(&self, doc: &Document) -> String {
        let mut types: Vec<FeatureType> = self.types.keys().copied().collect();
        types.sort_by_key(|ft| {
            (doc.resolve(ft.entity).to_string(), doc.resolve(ft.attribute).to_string())
        });
        let mut out = String::new();
        for ft in types {
            out.push_str(&format!(
                "({}, {}): N={} D={}\n",
                doc.resolve(ft.entity),
                doc.resolve(ft.attribute),
                self.n_type(ft),
                self.d_type(ft)
            ));
            for row in self.value_table(ft) {
                out.push_str(&format!("  {}: {}\n", row.value, row.count));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Document, EntityModel) {
        let d = Document::parse_str(
            "<retailer><name>BB</name>\
             <store><city>Houston</city>\
               <merchandises>\
                 <clothes><fitting>man</fitting><category>suit</category></clothes>\
                 <clothes><fitting>woman</fitting><category>outwear</category></clothes>\
               </merchandises>\
             </store>\
             <store><city>Houston</city>\
               <merchandises><clothes><fitting>man</fitting></clothes></merchandises>\
             </store>\
             <store><city>Austin</city>\
               <merchandises><clothes><fitting>man</fitting></clothes></merchandises>\
             </store></retailer>",
        )
        .unwrap();
        let m = EntityModel::analyze(&d);
        (d, m)
    }

    fn ft(d: &Document, e: &str, a: &str) -> FeatureType {
        FeatureType {
            entity: d.symbols().get(e).unwrap(),
            attribute: d.symbols().get(a).unwrap(),
        }
    }

    #[test]
    fn counts_match_the_data() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        let city = ft(&d, "store", "city");
        assert_eq!(stats.n_type(city), 3);
        assert_eq!(stats.d_type(city), 2);
        assert_eq!(stats.n_value(city, "Houston"), 2);
        assert_eq!(stats.n_value(city, "Austin"), 1);
        let fitting = ft(&d, "clothes", "fitting");
        assert_eq!(stats.n_type(fitting), 4);
        assert_eq!(stats.d_type(fitting), 2);
        assert_eq!(stats.n_value(fitting, "man"), 3);
    }

    #[test]
    fn attributes_attach_to_nearest_entity() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        // fitting belongs to clothes, not to store (merchandises is a
        // connection node in between, city belongs to store).
        assert_eq!(stats.n_type(ft(&d, "store", "fitting")), 0);
        assert_eq!(stats.n_type(ft(&d, "clothes", "fitting")), 4);
    }

    #[test]
    fn root_attributes_use_root_label() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        // <name> under the (connection) retailer root.
        assert_eq!(stats.n_value(ft(&d, "retailer", "name"), "BB"), 1);
    }

    #[test]
    fn occurrences_are_attribute_nodes_in_document_order() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        let occ = stats.occurrences(ft(&d, "store", "city"), "Houston");
        assert_eq!(occ.len(), 2);
        assert!(occ[0] < occ[1]);
        for &n in occ {
            assert_eq!(d.label_str(n), Some("city"));
            assert_eq!(d.text_of(n), Some("Houston"));
        }
    }

    #[test]
    fn subtree_scoping_restricts_counts() {
        let (d, m) = setup();
        let store1 = d.elements_with_label("store")[0];
        let stats = ResultStats::compute(&d, &m, store1);
        assert_eq!(stats.n_type(ft(&d, "store", "city")), 1);
        assert_eq!(stats.n_type(ft(&d, "clothes", "fitting")), 2);
        assert_eq!(stats.n_value(ft(&d, "clothes", "category"), "suit"), 1);
    }

    #[test]
    fn value_table_sorted_by_count_desc() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        let rows = stats.value_table(ft(&d, "store", "city"));
        assert_eq!(rows[0], ValueCount { value: "Houston".into(), count: 2 });
        assert_eq!(rows[1], ValueCount { value: "Austin".into(), count: 1 });
    }

    #[test]
    fn unknown_types_are_zero() {
        let (d, m) = setup();
        let mut d2 = d.clone();
        let bogus = d2.intern("bogus");
        let stats = ResultStats::compute(&d, &m, d.root());
        let ft = FeatureType { entity: bogus, attribute: bogus };
        assert_eq!(stats.n_type(ft), 0);
        assert_eq!(stats.d_type(ft), 0);
        assert!(stats.occurrences(ft, "x").is_empty());
    }

    #[test]
    fn statistics_panel_renders() {
        let (d, m) = setup();
        let stats = ResultStats::compute(&d, &m, d.root());
        let panel = stats.statistics_panel(&d);
        assert!(panel.contains("(store, city): N=3 D=2"), "{panel}");
        assert!(panel.contains("Houston: 2"), "{panel}");
    }

    #[test]
    fn multi_valued_attribute_counts_each_occurrence() {
        // category repeats inside one clothes ⇒ category is an entity by
        // the star rule... unless the DTD says otherwise. Use a DTD that
        // declares category as a singleton in general — then repeated
        // instances still produce one occurrence each.
        let d = Document::parse_str(
            "<r><c><cat>a</cat></c><c><cat>b</cat></c><c><cat>a</cat></c></r>",
        )
        .unwrap();
        let m = EntityModel::analyze(&d);
        let stats = ResultStats::compute(&d, &m, d.root());
        let ft = FeatureType {
            entity: d.symbols().get("c").unwrap(),
            attribute: d.symbols().get("cat").unwrap(),
        };
        assert_eq!(stats.n_type(ft), 3);
        assert_eq!(stats.d_type(ft), 2);
        assert_eq!(stats.n_value(ft, "a"), 2);
    }
}
