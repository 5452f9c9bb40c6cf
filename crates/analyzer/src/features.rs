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
//! The statistics are one scan and a count. The entity model numbers
//! every attribute occurrence's `(type, value)` once per document, in the
//! order the tables list values ([`crate::EntityModel`]'s column), so a
//! result's table is: count each id in the result's interval, sort the
//! distinct ids it holds, and place each occurrence after the ones before
//! its id. A type's run of ids holds its values, a value's run of nodes is
//! its instance list in document order. No value is read, hashed or
//! compared — except for an attribute with no entity above it anywhere,
//! whose entity is the result root's label and which so has no id: those
//! few are sorted by their text and merged into the runs. The tables
//! ([`FeatureTables`]) can be handed back and refilled, so a warm caller
//! computes statistics without allocating.

use extract_xml::{Document, NodeId, Symbol};

use crate::classify::{EntityModel, NodeCategory, Slot};

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

/// One value's run of the placed occurrences.
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

/// A value's first eight bytes, big-endian and zero-padded, and its length:
/// the integer part of the value order.
pub(crate) fn inline_key(value: &str) -> (u64, usize) {
    let mut head = [0; 8];
    let bytes = value.as_bytes();
    let n = bytes.len().min(8);
    if let (Some(to), Some(from)) = (head.get_mut(..n), bytes.get(..n)) {
        to.copy_from_slice(from);
    }
    (u64::from_be_bytes(head), bytes.len())
}

/// The buffers [`ResultStats`] are computed into, reusable across results
/// and documents ([`ResultStats::compute_with`],
/// [`ResultStats::into_tables`]).
///
/// Values are ordered by `(prefix, length, bytes)` — a total order on
/// strings, which the entity model numbers features in once per document;
/// most values are told apart by their first eight bytes and length.
#[derive(Debug, Clone, Default)]
pub struct FeatureTables {
    /// The result's attribute occurrences as `(feature id, node)`, in
    /// document order.
    occurrences: Vec<(u32, NodeId)>,
    /// By feature id: how often the result holds it, then, while nodes are
    /// placed, where its next one goes. All zero between fills.
    counts: Vec<u32>,
    /// The feature ids the result holds, each once with its first node;
    /// sorted by id before use.
    present: Vec<(u32, NodeId)>,
    /// The result's attributes with no entity above them (they have no
    /// id), with their type under this root; sorted by type and value.
    orphans: Vec<(FeatureType, NodeId)>,
    /// The occurrences' nodes by `(type, value, node)`: each value's run is
    /// a slice.
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

/// Append the run of `n` nodes from `start`, one value of `ftype`, to the
/// tables.
fn push_run(
    types: &mut Vec<TypeRun>,
    values: &mut Vec<ValueRun>,
    ftype: FeatureType,
    start: usize,
    n: usize,
) {
    if types.last().is_none_or(|t| t.ftype != ftype) {
        types.push(TypeRun { ftype, total: 0, distinct: 0 });
    }
    let type_index = types.len() - 1;
    if let Some(t) = types.last_mut() {
        t.total += count32(n);
        t.distinct += 1;
    }
    values.push(ValueRun { ftype, start, end: start + n, type_index });
}

impl FeatureTables {
    /// Refill the tables with the statistics of the subtree at `root`.
    fn fill(&mut self, doc: &Document, model: &EntityModel, root: NodeId) {
        let FeatureTables { occurrences, counts, present, orphans, nodes, values, types, entities } =
            self;
        occurrences.clear();
        present.clear();
        orphans.clear();
        nodes.clear();
        values.clear();
        types.clear();
        entities.clear();
        // A text node has no attributes below it.
        let Some(root_label) = doc.label(root) else { return };
        if counts.len() < model.feature_count() {
            counts.resize(model.feature_count(), 0);
        }
        // One scan of the root's ID interval in the model's column, which
        // also collects the entities.
        let slots = model.slots(root, doc.subtree_end(root));
        for (node, slot) in (root.index()..).map(NodeId::from_index).zip(slots) {
            let feature = match slot {
                Slot::Element(path) => {
                    if model.category_of_path(path) == NodeCategory::Entity {
                        entities.push(node);
                    }
                    continue;
                }
                Slot::Text(_) => continue,
                // The root's own value describes no entity below it.
                _ if node == root => continue,
                Slot::Feature(id) => id,
                // Above every entity: the root's label is its entity.
                Slot::Orphan => {
                    if let Some(attribute) = doc.label(node) {
                        orphans.push((FeatureType { entity: root_label, attribute }, node));
                    }
                    continue;
                }
            };
            let Some(count) = counts.get_mut(feature as usize) else { continue };
            if *count == 0 {
                present.push((feature, node));
            }
            *count += 1;
            occurrences.push((feature, node));
        }
        // Ids in order are values in order, grouped by type. The few
        // attributes with no id are sorted by their text and merged in: a
        // value equal to a counted one joins its run.
        let key = |(ftype, node): (FeatureType, NodeId)| {
            let value = doc.text_of(node).unwrap_or_default();
            let (prefix, len) = inline_key(value);
            (ftype, prefix, len, value)
        };
        present.sort_unstable_by_key(|&(feature, _)| feature);
        orphans.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(a.1.cmp(&b.1)));
        nodes.resize(occurrences.len() + orphans.len(), root);
        // Move the orphans of the `(type, value)` at the head of `queue` to
        // `nodes` from `at`: how many there are.
        let mut rest = orphans.as_slice();
        let mut take = |queue: &mut &[(FeatureType, NodeId)], at: usize| {
            let Some(&first) = queue.first() else { return 0 };
            let same = queue.iter().take_while(|&&o| key(o) == key(first)).count();
            let (group, later) = queue.split_at(same);
            for (to, &(_, node)) in nodes.iter_mut().skip(at).zip(group) {
                *to = node;
            }
            *queue = later;
            same
        };
        // Walk the ids beside the model's type table, turning each count
        // into the position its value's run starts at.
        let kinds = model.feature_types();
        let mut kind = 0;
        let mut start = 0;
        for &(feature, node) in present.iter() {
            while kinds.get(kind + 1).is_some_and(|&(_, first)| first <= feature) {
                kind += 1;
            }
            let (Some(&(ftype, _)), Some(count)) =
                (kinds.get(kind), counts.get_mut(feature as usize))
            else {
                continue;
            };
            // Orphan values before this one are runs of their own; one
            // equal to it joins its run.
            while let Some(&(orphan_type, _)) =
                rest.first().filter(|&&o| key(o) < key((ftype, node)))
            {
                let n = take(&mut rest, start);
                push_run(types, values, orphan_type, start, n);
                start += n;
            }
            let mut n = *count as usize;
            *count = count32(start);
            if rest.first().is_some_and(|&o| key(o) == key((ftype, node))) {
                n += take(&mut rest, start + n);
            }
            push_run(types, values, ftype, start, n);
            start += n;
        }
        while let Some(&(orphan_type, _)) = rest.first() {
            let n = take(&mut rest, start);
            push_run(types, values, orphan_type, start, n);
            start += n;
        }
        // Place every counted occurrence after the ones before its id; a
        // run fills in document order, and one an orphan joined is sorted.
        for &(feature, node) in occurrences.iter() {
            if let Some(next) = counts.get_mut(feature as usize) {
                if let Some(at) = nodes.get_mut(*next as usize) {
                    *at = node;
                }
                *next += 1;
            }
        }
        if !orphans.is_empty() {
            for run in values.iter() {
                if let Some(run) = nodes.get_mut(run.start..run.end) {
                    run.sort_unstable();
                }
            }
        }
        for &(feature, _) in present.iter() {
            if let Some(count) = counts.get_mut(feature as usize) {
                *count = 0;
            }
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
    // xlint: allow(L10, "crates/analyzer/tests/proptests.rs checks value tables against it")
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
        let (count, type_total, type_distinct) = self.counts(index)?;
        let run = self.tables.values.get(index)?;
        let (ftype, value) = (run.ftype, self.text(run));
        Some(ValueStats { ftype, value, count, type_total, type_distinct })
    }

    /// The feature type of the value at position `index` of
    /// [`ResultStats::values`], read without its counts or text.
    pub fn value_type(&self, index: usize) -> Option<FeatureType> {
        self.tables.values.get(index).map(|run| run.ftype)
    }

    /// The text of the value at position `index` of [`ResultStats::values`].
    pub fn value_text(&self, index: usize) -> Option<&'d str> {
        self.tables.values.get(index).map(|run| self.text(run))
    }

    /// `(N(e,a,v), N(e,a), D(e,a))` of the value at position `index` of
    /// [`ResultStats::values`]: its [`ResultStats::value`] counts, read
    /// without its text.
    pub fn counts(&self, index: usize) -> Option<(u32, u32, u32)> {
        let run = self.tables.values.get(index)?;
        let of_type = self.tables.types.get(run.type_index)?;
        Some((count32(run.end - run.start), of_type.total, of_type.distinct))
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
    // xlint: allow(L10, "the tests of crates/core/src/dominance.rs, crates/core/tests/proptests.rs and crates/analyzer/tests/proptests.rs read it")
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

    /// An attribute with no entity above it takes the root's label as its
    /// entity, so under the root `x` it shares `(x, a, 1)` with the `a`
    /// of an `x` entity below: one run, its instances in document order.
    #[test]
    fn an_attribute_above_every_entity_joins_the_run_of_its_value() {
        let d = Document::parse_str("<x><a>1</a><y><x><a>1</a></x><x><a>2</a></x></y><b>0</b></x>")
            .unwrap();
        let m = EntityModel::analyze(&d);
        let [outer, inner, _] = d.elements_with_label("a")[..] else { panic!("three a") };
        assert!(!m.is_entity(d.root()) && m.entity_of(&d, outer).is_none());
        let stats = ResultStats::compute(&d, &m, d.root());
        let (a, b) = (ft(&d, "x", "a"), ft(&d, "x", "b"));
        assert_eq!((stats.n_type(a), stats.d_type(a)), (3, 2));
        assert_eq!(stats.occurrences(a, "1"), &[outer, inner]);
        assert_eq!(stats.n_value(b, "0"), 1);
        let y = d.first_element_with_label("y").unwrap();
        let below = ResultStats::compute(&d, &m, y);
        assert_eq!(below.occurrences(a, "1"), &[inner], "no orphan below y");
    }

    /// Under every root of a deep chain with no entities, its leaves'
    /// entity is that root's label.
    #[test]
    fn a_deep_chain_counts_its_leaves_under_every_root() {
        // One leaf a level from depth 100 on: no label repeats under a
        // parent, ten attribute labels share seven values.
        let mut b = extract_xml::DocBuilder::new("l0");
        for i in 1..200 {
            if i > 100 {
                b.begin(&format!("x{}", i % 10)).text(&format!("v{}", i % 7)).end();
            }
            b.begin(&format!("l{i}"));
        }
        for _ in 1..200 {
            b.end();
        }
        let d = b.build();
        let m = EntityModel::analyze(&d);
        let mut tables = FeatureTables::default();
        for depth in [0, 1, 120, 199] {
            let root = d.first_element_with_label(&format!("l{depth}")).unwrap();
            let stats = ResultStats::compute_with(&d, &m, root, tables);
            let (values, entities) = sorted_reference(&d, root);
            assert_eq!(stats.values().count(), values.len());
            for (i, (t, value, nodes)) in values.iter().enumerate() {
                assert_eq!(t.entity, d.label(root).unwrap());
                assert_eq!(stats.value(i).map(|v| (v.ftype, v.value)), Some((*t, *value)));
                assert_eq!(stats.instances(i), &nodes[..]);
            }
            assert_eq!(stats.entities(), &entities[..]);
            tables = stats.into_tables();
        }
    }

    /// Every `(type, value)` of a result in table order, with its instances.
    type Table<'d> = Vec<(FeatureType, &'d str, Vec<NodeId>)>;

    /// The statistics as one sort of `(type, value, node)` rows — how they
    /// were computed before the entity model numbered features, kept as the
    /// reference the counting pass is checked against: the result's table
    /// and its entities. It classifies from the schema itself and walks up
    /// to each attribute's entity, so it shares nothing with the model's
    /// column.
    fn sorted_reference(doc: &Document, root: NodeId) -> (Table<'_>, Vec<NodeId>) {
        let (schema, paths) = extract_xml::Schema::infer(doc);
        let category = |n: NodeId| {
            let info = schema.info(paths[n.index()]);
            if info.starred {
                NodeCategory::Entity
            } else if !info.has_element_child && info.has_text_child {
                NodeCategory::Attribute
            } else {
                NodeCategory::Connection
            }
        };
        let (mut rows, mut entities) = (Vec::new(), Vec::new());
        let Some(root_label) = doc.label(root) else { return (Vec::new(), entities) };
        for node in doc.subtree_elements(root) {
            match category(node) {
                NodeCategory::Entity => {
                    entities.push(node);
                    continue;
                }
                NodeCategory::Attribute if node != root => {}
                _ => continue,
            }
            let (Some(value), Some(parent), Some(attribute)) =
                (doc.text_of(node), doc.parent(node), doc.label(node))
            else {
                continue;
            };
            let owner = doc
                .ancestors_or_self(parent)
                .find(|&a| category(a) == NodeCategory::Entity)
                .and_then(|e| doc.label(e))
                .unwrap_or(root_label);
            rows.push((FeatureType { entity: owner, attribute }, value, node));
        }
        rows.sort_by_key(|&(ftype, value, node)| {
            let (prefix, len) = inline_key(value);
            (ftype, prefix, len, value, node)
        });
        let mut values = Table::new();
        for (ftype, value, node) in rows {
            match values.last_mut() {
                Some((t, v, nodes)) if *t == ftype && *v == value => nodes.push(node),
                _ => values.push((ftype, value, vec![node])),
            }
        }
        (values, entities)
    }

    mod counted {
        use super::*;
        use extract_xml::DocBuilder;
        use proptest::prelude::*;

        const LABELS: [&str; 5] = ["store", "clothes", "city", "merch", "tag"];
        /// Short values, long ones sharing their first eight bytes and
        /// length, one that only its length tells apart, non-ASCII.
        const VALUES: [&str; 8] = [
            "man",
            "houston",
            "keyword search 13",
            "keyword search 12",
            "keyword search 123",
            "keyword",
            "keyword\u{e9}",
            "",
        ];

        #[derive(Debug, Clone)]
        struct Spec {
            label: usize,
            value: Option<usize>,
            children: Vec<Spec>,
        }

        fn spec() -> impl Strategy<Value = Spec> {
            let leaf = (0..LABELS.len(), proptest::option::of(0..VALUES.len()))
                .prop_map(|(label, value)| Spec { label, value, children: Vec::new() });
            leaf.prop_recursive(4, 64, 6, |inner| {
                (0..LABELS.len(), proptest::collection::vec(inner, 0..6))
                    .prop_map(|(label, children)| Spec { label, value: None, children })
            })
        }

        fn push(b: &mut DocBuilder, s: &Spec) {
            b.begin(LABELS[s.label]);
            if let Some(v) = s.value {
                b.text(VALUES[v]);
            }
            for c in &s.children {
                push(b, c);
            }
            b.end();
        }

        fn build(specs: &[Spec]) -> Document {
            let mut b = DocBuilder::new("db");
            for s in specs {
                push(&mut b, s);
            }
            b.build()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// On every interval of random documents — every node as the
            /// result root, text nodes included — counting the model's
            /// feature ids gives the sort's tables: the same `(type,
            /// value)`s in the same order, the same instances, `N(e,a)` and
            /// `D(e,a)`, and the same entities. One set of tables serves
            /// every root of both documents, so a fill that left a count
            /// behind, or sized its counts for the wrong document, shows.
            #[test]
            fn counted_statistics_equal_the_sorted_reference(
                first in proptest::collection::vec(spec(), 1..4),
                second in proptest::collection::vec(spec(), 1..4),
            ) {
                let mut tables = FeatureTables::default();
                for doc in [build(&first), build(&second)] {
                    let model = EntityModel::analyze(&doc);
                    for root in doc.all_nodes() {
                        let stats = ResultStats::compute_with(&doc, &model, root, tables);
                        let (values, entities) = sorted_reference(&doc, root);
                        let counted: Table<'_> = stats
                            .values()
                            .enumerate()
                            .map(|(i, v)| (v.ftype, v.value, stats.instances(i).to_vec()))
                            .collect();
                        prop_assert_eq!(&counted, &values, "root {}", root);
                        prop_assert_eq!(stats.entities(), &entities[..]);
                        for v in stats.values() {
                            let of_type = values.iter().filter(|(t, _, _)| *t == v.ftype);
                            let total: usize = of_type.clone().map(|(_, _, n)| n.len()).sum();
                            prop_assert_eq!(v.type_total as usize, total);
                            prop_assert_eq!(v.type_distinct as usize, of_type.count());
                        }
                        tables = stats.into_tables();
                    }
                }
            }
        }
    }
}
