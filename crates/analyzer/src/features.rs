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
//!
//! The statistics are one scan and one sort: every attribute occurrence of
//! the result becomes a `(type, node)` row, the rows are sorted by `(type,
//! value, node)`, and the runs of that order *are* the table — a type's run
//! holds its values' runs, a value's run is its instance list in document
//! order. No value string is hashed or copied, and the tables
//! ([`FeatureTables`]) can be handed back and refilled, so a warm caller
//! computes statistics without allocating.

use extract_xml::{Document, NodeId, Symbol};

use crate::classify::{EntityModel, NodeCategory};

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

/// One `(type, value)` of a result with the counts its dominance score is
/// made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueStats<'d> {
    /// The feature type `(e, a)`.
    pub ftype: FeatureType,
    /// The value `v`, borrowed from the document.
    pub value: &'d str,
    /// `N(e,a,v)`.
    pub count: u32,
    /// `N(e,a)`.
    pub type_total: u32,
    /// `D(e,a)`.
    pub type_distinct: u32,
}

/// One value's run of the sorted occurrences.
#[derive(Debug, Clone, Copy)]
struct ValueRun {
    ftype: FeatureType,
    /// The run is `nodes[start..end]`.
    start: usize,
    end: usize,
    /// Its type's entry in `types`.
    type_index: usize,
}

/// One type's run: `N(e,a)` and `D(e,a)`.
#[derive(Debug, Clone, Copy)]
struct TypeRun {
    ftype: FeatureType,
    total: u32,
    distinct: u32,
}

/// One attribute occurrence, keyed for the sort: the value's length and
/// leading bytes sit inline, so rows sort as integers and the text is read
/// only to split values that share both.
#[derive(Debug, Clone, Copy)]
struct Row {
    ftype: FeatureType,
    /// The value's first eight bytes, big-endian, zero-padded.
    prefix: u64,
    /// The value's length in bytes.
    len: usize,
    node: NodeId,
}

/// A value's `(prefix, len)` key.
fn inline_key(value: &str) -> (u64, usize) {
    let mut head = [0; 8];
    let bytes = value.as_bytes();
    let n = bytes.len().min(8);
    if let (Some(to), Some(from)) = (head.get_mut(..n), bytes.get(..n)) {
        to.copy_from_slice(from);
    }
    (u64::from_be_bytes(head), bytes.len())
}

impl Row {
    /// The integer part of the sort key.
    fn key(&self) -> (FeatureType, u64, usize) {
        (self.ftype, self.prefix, self.len)
    }

    /// [`Row::key`] then the node, packed into three words: the order the
    /// first sort pass puts rows in, compared without branching on fields.
    fn packed(&self) -> (u64, u64, u64) {
        let FeatureType { entity, attribute } = self.ftype;
        let ftype = (entity.index() as u64) << 32 | attribute.index() as u64;
        (ftype, self.prefix, (self.len as u64) << 32 | self.node.index() as u64)
    }

    /// Whether the key alone decides the value: it holds all of its bytes.
    fn inline(&self) -> bool {
        self.len <= 8
    }
}

/// The buffers [`ResultStats`] are computed into, reusable across results
/// ([`ResultStats::compute_with`], [`ResultStats::into_tables`]).
///
/// Values are ordered by `(prefix, length, bytes)` — a total order on
/// strings, cheaper than byte order because most values are told apart
/// by their first eight bytes and length, and equal ones are never
/// compared byte by byte unless they are longer than that.
#[derive(Debug, Clone, Default)]
pub struct FeatureTables {
    /// Every attribute occurrence, sorted by `(type, value, node)`.
    rows: Vec<Row>,
    /// The same nodes in the same order: each value's run is a slice.
    nodes: Vec<NodeId>,
    /// Distinct `(type, value)` pairs, sorted.
    values: Vec<ValueRun>,
    /// Distinct types, sorted.
    types: Vec<TypeRun>,
    /// The result's entities, document order.
    entities: Vec<NodeId>,
}

/// A count as the statistics store it.
fn count32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl FeatureTables {
    /// Refill the tables with the statistics of the subtree at `root`.
    fn fill(&mut self, doc: &Document, model: &EntityModel, root: NodeId) {
        let FeatureTables { rows, nodes, values, types, entities } = self;
        rows.clear();
        nodes.clear();
        values.clear();
        types.clear();
        entities.clear();
        // A text node has no attributes below it.
        let Some(root_label) = doc.label(root) else {
            return;
        };
        // One scan of the root's ID interval, which also collects the
        // entities. Attributes arrive in document order, so consecutive
        // ones usually share a parent: remember the last parent's owner
        // instead of re-walking to it.
        let mut last_owner: Option<(NodeId, Symbol)> = None;
        for node in doc.subtree_elements(root) {
            match model.category(node) {
                NodeCategory::Entity => {
                    entities.push(node);
                    continue;
                }
                // The root's own value describes no entity below it.
                NodeCategory::Attribute if node != root => {}
                _ => continue,
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
            let (prefix, len) = inline_key(value);
            rows.push(Row { ftype: FeatureType { entity: owner, attribute }, prefix, len, node });
        }
        // Sort by the integer key, then by node; then split the runs whose
        // key does not decide the value by the text — unless, as is usual,
        // the whole run holds one value, which is already in node order.
        // `(type, value, node)` is a total order: a node occurs once.
        let value = |row: &Row| doc.text_of(row.node).unwrap_or_default();
        rows.sort_unstable_by_key(Row::packed);
        for run in rows.chunk_by_mut(|a, b| a.key() == b.key()) {
            let mixed = match run.split_first() {
                Some((first, rest)) if !first.inline() => {
                    rest.iter().any(|row| value(row) != value(first))
                }
                _ => false,
            };
            if mixed {
                run.sort_unstable_by(|a, b| value(a).cmp(value(b)).then(a.node.cmp(&b.node)));
            }
        }
        nodes.extend(rows.iter().map(|row| row.node));
        let same_value =
            |a: &Row, b: &Row| a.key() == b.key() && (a.inline() || value(a) == value(b));
        let mut start = 0;
        for of_type in rows.chunk_by(|a, b| a.ftype == b.ftype) {
            let Some(&Row { ftype, .. }) = of_type.first() else { continue };
            let type_index = types.len();
            let mut distinct = 0;
            for run in of_type.chunk_by(same_value) {
                values.push(ValueRun { ftype, start, end: start + run.len(), type_index });
                start += run.len();
                distinct += 1;
            }
            types.push(TypeRun { ftype, total: count32(of_type.len()), distinct });
        }
    }
}

/// Feature statistics for one query result (the subtree at a result root).
///
/// Values are `&str`s borrowed from the document (`'d`) and every value's
/// instance list is a slice of one shared vector, so computing the
/// statistics of a result fills a handful of tables — not a `String` and a
/// `Vec` per distinct value, and no hash of any value.
#[derive(Debug, Clone)]
pub struct ResultStats<'d> {
    doc: &'d Document,
    tables: FeatureTables,
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
        ResultStats::compute_with(doc, model, root, FeatureTables::default())
    }

    /// [`ResultStats::compute`] into `tables` (from an earlier
    /// [`ResultStats::into_tables`]): warm tables allocate nothing.
    pub fn compute_with(
        doc: &'d Document,
        model: &EntityModel,
        root: NodeId,
        mut tables: FeatureTables,
    ) -> ResultStats<'d> {
        tables.fill(doc, model, root);
        ResultStats { doc, tables }
    }

    /// Give the tables back for the next [`ResultStats::compute_with`].
    pub fn into_tables(self) -> FeatureTables {
        self.tables
    }

    fn type_run(&self, ft: FeatureType) -> Option<&TypeRun> {
        let types = &self.tables.types;
        types.binary_search_by(|t| t.ftype.cmp(&ft)).ok().and_then(|i| types.get(i))
    }

    /// The text of a value run.
    fn text(&self, run: &ValueRun) -> &'d str {
        self.tables.nodes.get(run.start).and_then(|&n| self.doc.text_of(n)).unwrap_or_default()
    }

    fn value_run(&self, ft: FeatureType, value: &str) -> Option<&ValueRun> {
        let values = &self.tables.values;
        let (prefix, len) = inline_key(value);
        let at = values
            .binary_search_by(|v| {
                let text = self.text(v);
                let (p, l) = inline_key(text);
                (v.ftype, p, l).cmp(&(ft, prefix, len)).then_with(|| text.cmp(value))
            })
            .ok()?;
        values.get(at)
    }

    /// `N(e,a)` — total value occurrences of a type.
    pub fn n_type(&self, ft: FeatureType) -> u32 {
        self.type_run(ft).map_or(0, |t| t.total)
    }

    /// `D(e,a)` — domain size of a type.
    pub fn d_type(&self, ft: FeatureType) -> u32 {
        self.type_run(ft).map_or(0, |t| t.distinct)
    }

    /// `N(e,a,v)` — occurrences of one value.
    pub fn n_value(&self, ft: FeatureType, value: &str) -> u32 {
        self.value_run(ft, value).map_or(0, |v| count32(v.end - v.start))
    }

    /// Attribute node instances carrying `(ft, value)`, in document order.
    pub fn occurrences(&self, ft: FeatureType, value: &str) -> &[NodeId] {
        self.value_run(ft, value)
            .and_then(|v| self.tables.nodes.get(v.start..v.end))
            .unwrap_or(&[])
    }

    /// All feature types present in the result, sorted.
    pub fn feature_types(&self) -> impl Iterator<Item = FeatureType> + '_ {
        self.tables.types.iter().map(|t| t.ftype)
    }

    /// Every `(type, value)` of the result with its counts, sorted by type,
    /// then value (in [`FeatureTables`]' value order).
    /// [`ResultStats::instances`] takes the same positions.
    pub fn values(&self) -> impl Iterator<Item = ValueStats<'d>> + '_ {
        (0..self.tables.values.len()).filter_map(|i| self.value(i))
    }

    /// The value at position `index` of [`ResultStats::values`].
    pub fn value(&self, index: usize) -> Option<ValueStats<'d>> {
        let run = self.tables.values.get(index)?;
        let of_type = self.tables.types.get(run.type_index)?;
        Some(ValueStats {
            ftype: run.ftype,
            value: self.text(run),
            count: count32(run.end - run.start),
            type_total: of_type.total,
            type_distinct: of_type.distinct,
        })
    }

    /// The result's entity nodes (the root included when it is one), in
    /// document order — collected by the same scan.
    pub fn entities(&self) -> &[NodeId] {
        &self.tables.entities
    }

    /// The instances of the value at position `index` of
    /// [`ResultStats::values`], in document order.
    pub fn instances(&self, index: usize) -> &[NodeId] {
        self.tables
            .values
            .get(index)
            .and_then(|v| self.tables.nodes.get(v.start..v.end))
            .unwrap_or(&[])
    }

    /// Values of one type sorted by descending count, then value — the
    /// statistics panel of the paper's Figure 1.
    pub fn value_table(&self, ft: FeatureType) -> Vec<ValueCount> {
        let mut rows: Vec<ValueCount> = self
            .values()
            .filter(|v| v.ftype == ft)
            .map(|v| ValueCount { value: v.value.to_string(), count: v.count })
            .collect();
        rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.value.cmp(&b.value)));
        rows
    }

    /// Render the full statistics panel (every type), types sorted by name.
    pub fn statistics_panel(&self, doc: &Document) -> String {
        let mut types: Vec<FeatureType> = self.feature_types().collect();
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

    /// Values that share their first eight bytes and their length are
    /// split by their text; equal long values stay one run.
    #[test]
    fn long_values_sharing_a_prefix_are_told_apart() {
        let d = Document::parse_str(
            "<r><p><t>keyword search 13</t></p><p><t>keyword search 12</t></p>\
             <p><t>keyword search 13</t></p><p><t>keyword search 123</t></p>\
             <p><t>keyword</t></p><p><t>keyword\u{e9}</t></p></r>",
        )
        .unwrap();
        let m = EntityModel::analyze(&d);
        let stats = ResultStats::compute(&d, &m, d.root());
        let t = ft(&d, "p", "t");
        assert_eq!((stats.n_type(t), stats.d_type(t)), (6, 5));
        assert_eq!(stats.n_value(t, "keyword search 13"), 2);
        assert_eq!(stats.n_value(t, "keyword search 12"), 1);
        assert_eq!(stats.n_value(t, "keyword search 1"), 0);
        assert_eq!(stats.n_value(t, "keyword\u{e9}"), 1);
        let thirteen = stats.occurrences(t, "keyword search 13");
        assert!(thirteen[0] < thirteen[1], "instances in document order");
        // `values` and `instances` agree, position for position.
        for (i, v) in stats.values().enumerate() {
            assert_eq!(stats.instances(i).len() as u32, v.count);
            assert!(stats.instances(i).iter().all(|&n| d.text_of(n) == Some(v.value)));
        }
    }

    /// Refilling handed-back tables gives what fresh tables give.
    #[test]
    fn tables_refill_to_the_same_answer() {
        let (d, m) = setup();
        let stores = d.elements_with_label("store");
        let mut tables = FeatureTables::default();
        for &root in stores.iter().chain([d.root()].iter()).chain(stores.iter()) {
            let reused = ResultStats::compute_with(&d, &m, root, tables);
            let fresh = ResultStats::compute(&d, &m, root);
            assert_eq!(reused.values().collect::<Vec<_>>(), fresh.values().collect::<Vec<_>>());
            assert_eq!(reused.entities(), fresh.entities());
            assert_eq!(reused.entities(), m.entities_in(&d, root));
            tables = reused.into_tables();
        }
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
