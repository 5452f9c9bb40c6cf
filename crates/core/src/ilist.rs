//! The Snippet Information List (IList, paper §2).
//!
//! "Such information is placed in the Snippet Information List … in the
//! order of their importances": first the query keywords, then the names of
//! the entities involved in the result, then the key of the result, then
//! the dominant features in decreasing dominance-score order (Figure 3).
//! Duplicates are suppressed case-insensitively — e.g. for the query
//! "Texas apparel retailer" the entity name `retailer` and the trivially
//! dominant feature `(store, state, Texas)` never appear twice. Two texts
//! are the same when `str::to_lowercase` makes them equal (so `K`, the
//! Kelvin sign, says `k`, and `ΟΔΟΣ` says `οδος` but not `οδοσ`); an item
//! is looked up among the listed ones by the hash of its lowercased bytes,
//! and its text is compared only with an entry whose hash it shares.
//!
//! Every item carries its **instances**: the element nodes of the query
//! result that contain the item's information, which is exactly what the
//! Instance Selector chooses among (§2.4).
//!
//! The list is built in an [`IListScratch`] — the snippet kernel's one
//! working memory. There an item is a *source* (a keyword's position in
//! the query, a label, or the node whose text is its value) and a range of
//! one instance arena, so building a result's IList copies no text and,
//! warm, allocates nothing. The owned [`IList`] is read out of the scratch
//! afterwards, for callers that keep it.
//!
//! A result's entity types and dominant features depend on its subtree
//! alone, not on the query (§2.1, §2.3), so for a result rooted at the
//! document root they are one answer per document: its [`Summary`], kept
//! as the document's root record by the first snippet of a whole-document
//! result and read by every later one in place of the statistics scan.

use std::ops::Range;
use std::sync::OnceLock;

use extract_analyzer::{EntityModel, FeatureTables, FeatureType, KeyCatalog, ResultStats};
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId, Symbol};

use crate::dominance::{self, Ranked};
use crate::key::{self, KeyAt, ResultKey};
use crate::return_entity::{self, EntityTypes, ReturnEntities};
use crate::selector::{Candidates, SelectionOutcome};

/// One kind of information worth showing in a snippet.
#[derive(Debug, Clone, PartialEq)]
pub enum IListItem {
    /// A query keyword (normalized).
    Keyword(String),
    /// The name of an entity involved in the result (self-containment,
    /// §2.1).
    EntityName {
        /// The entity label.
        label: Symbol,
    },
    /// The key of the query result (distinguishability, §2.2).
    ResultKey {
        /// Return entity label.
        entity: Symbol,
        /// Key attribute label.
        attribute: Symbol,
        /// Key value.
        value: String,
    },
    /// A dominant feature (representativeness, §2.3).
    Feature {
        /// Entity label.
        entity: Symbol,
        /// Attribute label.
        attribute: Symbol,
        /// Feature value.
        value: String,
        /// Dominance score.
        score: f64,
    },
}

impl IListItem {
    /// The human-readable text of the item (what Figure 3 prints),
    /// borrowed from the item or the document's label table.
    pub fn text<'a>(&'a self, doc: &'a Document) -> &'a str {
        match self {
            IListItem::Keyword(k) => k,
            IListItem::EntityName { label } => doc.resolve(*label),
            IListItem::ResultKey { value, .. } | IListItem::Feature { value, .. } => value,
        }
    }

    /// [`IListItem::text`], owned.
    pub fn display_text(&self, doc: &Document) -> String {
        self.text(doc).to_string()
    }
}

/// An IList item with its rank and candidate instances.
#[derive(Debug, Clone)]
pub struct RankedItem {
    /// The item.
    pub item: IListItem,
    /// Element nodes of the result containing this item's information, in
    /// document order. Empty when nothing in the result carries it.
    pub instances: Vec<NodeId>,
}

/// The Snippet Information List of one query result.
#[derive(Debug, Clone)]
pub struct IList {
    items: Vec<RankedItem>,
    /// The return entities identified along the way (exposed for
    /// diagnostics and tests).
    pub return_entities: ReturnEntities,
    /// The identified result key, if any.
    pub result_key: Option<ResultKey>,
}

impl IList {
    /// Assemble an IList from raw parts, for tests that need hand-crafted
    /// item/instance layouts.
    #[cfg(test)]
    pub(crate) fn from_parts_for_tests(
        items: Vec<RankedItem>,
        return_entities: ReturnEntities,
        result_key: Option<ResultKey>,
    ) -> IList {
        IList { items, return_entities, result_key }
    }

    /// The ranked items.
    pub fn items(&self) -> &[RankedItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The display texts in rank order (the paper's Figure 3 rendering).
    pub fn display(&self, doc: &Document) -> Vec<String> {
        self.items.iter().map(|r| r.item.display_text(doc)).collect()
    }
}

impl Candidates for IList {
    fn item_count(&self) -> usize {
        self.items.len()
    }

    fn instances(&self, item: usize) -> &[NodeId] {
        self.items.get(item).map_or(&[], |r| &r.instances)
    }
}

/// Options for IList construction.
#[derive(Debug, Clone, Default)]
pub struct IListOptions {
    /// Keep at most this many dominant features (`None` = all).
    pub max_dominant_features: Option<usize>,
}

/// Where a built item's text is read from — the query or the document;
/// nothing is copied.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Keyword `i` of the query.
    Keyword(usize),
    /// An entity label.
    EntityName(Symbol),
    /// The result key; its value is the text of `node`.
    ResultKey { entity: Symbol, attribute: Symbol, node: NodeId },
    /// A dominant feature; its value is the text of `node`.
    Feature { ftype: FeatureType, node: NodeId, score: f64 },
}

impl Source {
    fn text<'a>(&self, doc: &'a Document, query: &'a KeywordQuery) -> &'a str {
        match *self {
            Source::Keyword(i) => query.keywords().get(i).map_or("", String::as_str),
            Source::EntityName(label) => doc.resolve(label),
            Source::ResultKey { node, .. } | Source::Feature { node, .. } => {
                doc.text_of(node).unwrap_or_default()
            }
        }
    }

    fn to_item(self, doc: &Document, query: &KeywordQuery) -> IListItem {
        let value = || self.text(doc, query).to_string();
        match self {
            Source::Keyword(_) => IListItem::Keyword(value()),
            Source::EntityName(label) => IListItem::EntityName { label },
            Source::ResultKey { entity, attribute, .. } => {
                IListItem::ResultKey { entity, attribute, value: value() }
            }
            Source::Feature { ftype, score, .. } => IListItem::Feature {
                entity: ftype.entity,
                attribute: ftype.attribute,
                value: value(),
                score,
            },
        }
    }
}

/// One built item: its source and its instances' range of the arena.
#[derive(Debug, Clone)]
struct Entry {
    source: Source,
    /// Whether its text is ASCII, which [`same_text`] decides in place.
    ascii: bool,
    /// [`folded_hash`] of its text.
    hash: u64,
    instances: Range<usize>,
}

/// The hash of `text` lowercased by `str::to_lowercase`, so any two texts
/// [`same_text`] calls equal hash alike. An ASCII text is lowered byte by
/// byte as it is hashed; any other is lowercased first (`K`, U+212A, is
/// `k` then, and a final `Σ` is `ς`: no per-character fold gets either
/// right). Not keyed: a collision costs one text compare, and a list
/// crafted to collide costs what comparing against every entry did.
fn folded_hash(text: &str) -> u64 {
    if text.is_ascii() {
        hash_lowered(text.as_bytes())
    } else {
        hash_lowered(text.to_lowercase().as_bytes())
    }
}

/// Hash `bytes` with every ASCII capital lowered. The bytes of a
/// lowercased text pass unchanged, so both arms of [`folded_hash`] agree.
fn hash_lowered(bytes: &[u8]) -> u64 {
    bytes.iter().fold(bytes.len() as u64, |hash, &b| {
        let byte = u64::from(b.to_ascii_lowercase());
        (hash.rotate_left(5) ^ byte).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// What steps 2 and 4 of a result's IList read: its entity types, ordered
/// by instance count (label text read only among equal counts), and its
/// dominant features, ordered by score (likewise), every one of them — a
/// function of the result's subtree alone. For the document root it is the
/// root record; otherwise the scratch fills one per result.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    /// The result's entity nodes, one run per type, each in document order.
    entities: Vec<NodeId>,
    /// One `entities` run per entity type, in IList order.
    types: Vec<(Symbol, Range<usize>)>,
    /// The dominant features, in IList order, uncapped.
    dominant: Vec<Dominant>,
    /// Their instances, back to back.
    instances: Vec<NodeId>,
}

/// A dominant feature as a [`Summary`] keeps it: its type, its score and
/// the range of its instances.
#[derive(Debug, Clone)]
struct Dominant {
    ftype: FeatureType,
    score: f64,
    instances: Range<usize>,
}

/// The buffers [`Summary::fill`] works in: the statistics tables, the
/// entity nodes keyed by label, and the ranked features.
type SummaryScratch<'a> =
    (&'a mut FeatureTables, &'a mut Vec<(Symbol, NodeId)>, &'a mut Vec<Ranked>);

impl Summary {
    /// The entity types and dominant features of the result rooted at
    /// `root`, from its statistics: entity instances are grouped by label,
    /// and types are ordered by descending instance count (more instances
    /// ⇒ more of the result is about them), ties alphabetically — this
    /// reproduces Figure 3's "…, clothes, store, …"; features by
    /// descending dominance score. Only tied counts and scores read text.
    fn fill(
        &mut self,
        (doc, model, root): (&Document, &EntityModel, NodeId),
        (tables, by_label, ranked): SummaryScratch<'_>,
    ) {
        let stats = ResultStats::compute_with(doc, model, root, std::mem::take(tables));
        return_entity::group_by_label(doc, stats.entities(), by_label, &mut self.types);
        self.entities.clear();
        self.entities.extend(by_label.iter().map(|&(_, e)| e));
        dominance::sort_ties_by_text(
            &mut self.types,
            |a, b| b.1.len().cmp(&a.1.len()),
            |a, b| dominance::label_order(doc, a.0, b.0),
        );
        dominance::dominant_into(doc, &stats, ranked);
        self.dominant.clear();
        self.instances.clear();
        for d in ranked.iter() {
            if let Some(ftype) = stats.value_type(d.value) {
                let nodes = stats.instances(d.value).iter().copied();
                let instances = append(&mut self.instances, nodes);
                self.dominant.push(Dominant { ftype, score: d.score, instances });
            }
        }
        *tables = stats.into_tables();
    }

    /// Its entity nodes, grouped by type.
    fn entity_types(&self) -> EntityTypes<'_> {
        EntityTypes { nodes: &self.entities, runs: &self.types }
    }

    /// The heap bytes it holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entities.capacity() * size_of::<NodeId>()
            + self.types.capacity() * size_of::<(Symbol, Range<usize>)>()
            + self.dominant.capacity() * size_of::<Dominant>()
            + self.instances.capacity() * size_of::<NodeId>()
    }
}

/// The snippet kernel's working memory, reused from one result to the
/// next: the result's feature statistics and [`Summary`] (unless the
/// document's root record stands in for it), its return entities and key,
/// the IList built from them (items as sources and ranges of one instance
/// arena, each with the hash of its lowercased text for the duplicate
/// check), the selected snippet tree and its XML.
/// Every buffer keeps its capacity between calls, so a warm scratch builds
/// and renders a snippet without allocating. Drive it through
/// [`crate::Extract::snippet_xml`] (the served bytes) or
/// [`crate::Extract::snippet_of`] (an owned
/// [`SnippetedResult`](crate::SnippetedResult) read out of it).
#[derive(Debug, Default)]
pub struct IListScratch {
    /// The result's feature statistics.
    features: FeatureTables,
    /// Its features ranked, as positions in the statistics.
    ranked: Vec<Ranked>,
    /// The result's entity nodes keyed and sorted by label: one run per
    /// entity type.
    by_label: Vec<(Symbol, NodeId)>,
    /// The result's entity types and dominant features.
    summary: Summary,
    /// The return entities.
    returns: ReturnEntities,
    /// The result key, its instances in `arena`.
    key: Option<KeyAt>,
    /// The IList, in rank order.
    entries: Vec<Entry>,
    /// Every item's instances, back to back.
    arena: Vec<NodeId>,
    /// The last selection over `entries`.
    selection: SelectionOutcome,
    /// The bits of its snippet tree.
    marks: Vec<u64>,
    /// The last rendered snippet.
    xml: String,
}

/// The items of an [`IListScratch`], as the selectors read them.
pub(crate) struct Items<'a> {
    entries: &'a [Entry],
    arena: &'a [NodeId],
}

impl Candidates for Items<'_> {
    fn item_count(&self) -> usize {
        self.entries.len()
    }

    fn instances(&self, item: usize) -> &[NodeId] {
        self.entries.get(item).and_then(|e| self.arena.get(e.instances.clone())).unwrap_or(&[])
    }
}

/// Whether two item texts say the same thing: equal once lowercased.
/// Decided in place when both are ASCII (all of them, on data-oriented
/// XML), so checking an item against the list builds no strings.
fn same_text((a, a_ascii): (&str, bool), (b, b_ascii): (&str, bool)) -> bool {
    a.eq_ignore_ascii_case(b) || (!(a_ascii && b_ascii) && a.to_lowercase() == b.to_lowercase())
}

/// Append `source` unless an item saying what it says is on the list
/// already (the earlier, more important item wins): the list is scanned
/// by hash, and only an entry with the same hash has its text compared.
/// `instances` puts the item's instances in the arena and says where; it
/// runs only for an item that makes it onto the list.
fn push(
    (entries, arena): (&mut Vec<Entry>, &mut Vec<NodeId>),
    (doc, query): (&Document, &KeywordQuery),
    source: Source,
    instances: impl FnOnce(&mut Vec<NodeId>) -> Range<usize>,
) {
    let text = source.text(doc, query);
    let (ascii, hash) = (text.is_ascii(), folded_hash(text));
    let said = |e: &Entry| {
        e.hash == hash && same_text((e.source.text(doc, query), e.ascii), (text, ascii))
    };
    if !entries.iter().any(said) {
        entries.push(Entry { source, ascii, hash, instances: instances(arena) });
    }
}

/// Append `nodes` to `arena`: their range of it.
fn append(arena: &mut Vec<NodeId>, nodes: impl IntoIterator<Item = NodeId>) -> Range<usize> {
    let start = arena.len();
    arena.extend(nodes);
    start..arena.len()
}

impl IListScratch {
    /// Build the IList of the result rooted at `root` for `query` (paper
    /// §2.1–§2.3); `matches(i)` is keyword `i`'s matches inside the
    /// result, document order. `record` is the document's root record for
    /// a result rooted at the document root: read if built, else built
    /// here from the statistics and kept.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build<'m>(
        &mut self,
        doc: &Document,
        model: &EntityModel,
        catalog: &KeyCatalog,
        query: &KeywordQuery,
        root: NodeId,
        matches: impl Fn(usize) -> &'m [NodeId],
        options: &IListOptions,
        record: Option<&OnceLock<Summary>>,
    ) {
        let IListScratch {
            features,
            ranked,
            by_label,
            summary,
            returns,
            key: key_at,
            entries,
            arena,
            ..
        } = self;

        // Entity types (§2.1) and dominant features (§2.3) first: together
        // with the keywords and the key they bound the list's length.
        let result = (doc, model, root);
        let summary: &Summary = match record {
            Some(record) => record.get_or_init(|| {
                summary.fill(result, (features, by_label, ranked));
                summary.clone()
            }),
            None => {
                summary.fill(result, (features, by_label, ranked));
                summary
            }
        };

        entries.clear();
        arena.clear();
        let at = (doc, query);

        // 1. Query keywords, in query order ("IList is initialized with the
        //    query keywords", §2).
        for i in 0..query.len() {
            let list = (&mut *entries, &mut *arena);
            push(list, at, Source::Keyword(i), |arena| append(arena, matches(i).iter().copied()));
        }

        // 2. Entity names.
        for (label, run) in &summary.types {
            let nodes = summary.entities.get(run.clone()).unwrap_or_default();
            let list = (&mut *entries, &mut *arena);
            let instances = |arena: &mut Vec<NodeId>| append(arena, nodes.iter().copied());
            push(list, at, Source::EntityName(*label), instances);
        }

        // 3. The result key (§2.2) — identified, with its instances, even
        //    when a keyword already says it: the owned IList records it.
        let types = summary.entity_types();
        return_entity::identify_into(doc, model, query, root, &matches, types, returns);
        *key_at = key::identify_into(doc, model, catalog, returns, arena);
        if let Some(k) = key_at {
            let source =
                Source::ResultKey { entity: k.entity, attribute: k.attribute, node: k.node };
            let list = (&mut *entries, &mut *arena);
            push(list, at, source, |_| k.instances.clone());
        }

        // 4. Dominant features in decreasing dominance score.
        let cap = options.max_dominant_features.unwrap_or(usize::MAX);
        for d in summary.dominant.iter().take(cap) {
            let instances = summary.instances.get(d.instances.clone()).unwrap_or_default();
            let Some(&node) = instances.first() else {
                continue;
            };
            let source = Source::Feature { ftype: d.ftype, node, score: d.score };
            let list = (&mut *entries, &mut *arena);
            push(list, at, source, |arena| append(arena, instances.iter().copied()));
        }
    }

    /// The built items for a selector, and the outcome it writes with the
    /// buffer of its tree's bits.
    pub(crate) fn items_and_selection(
        &mut self,
    ) -> (Items<'_>, (&mut SelectionOutcome, &mut Vec<u64>)) {
        let items = Items { entries: &self.entries, arena: &self.arena };
        (items, (&mut self.selection, &mut self.marks))
    }

    /// The last selection.
    pub(crate) fn selection(&self) -> &SelectionOutcome {
        &self.selection
    }

    /// Render the last selection under `root` as compact XML, in the
    /// scratch's buffer.
    pub(crate) fn render(&mut self, doc: &Document, root: NodeId) -> &str {
        self.xml.clear();
        doc.write_xml_of(root, &self.selection.nodes, &mut self.xml);
        &self.xml
    }

    /// The built IList, owned.
    pub(crate) fn to_ilist(&self, doc: &Document, query: &KeywordQuery) -> IList {
        let instances = |range: &Range<usize>| self.arena.get(range.clone()).unwrap_or_default();
        let items = self
            .entries
            .iter()
            .map(|e| RankedItem {
                item: e.source.to_item(doc, query),
                instances: instances(&e.instances).to_vec(),
            })
            .collect();
        let result_key = self.key.as_ref().and_then(|k| {
            Some(ResultKey {
                entity: k.entity,
                attribute: k.attribute,
                value: doc.text_of(k.node)?.to_string(),
                instances: instances(&k.instances).to_vec(),
            })
        });
        IList { items, return_entities: self.returns.clone(), result_key }
    }
}

/// Build the IList of `result` for `query` (paper §2.1–§2.3).
pub fn build_ilist(
    doc: &Document,
    model: &EntityModel,
    catalog: &KeyCatalog,
    query: &KeywordQuery,
    result: &QueryResult,
    options: &IListOptions,
) -> IList {
    let mut scratch = IListScratch::default();
    scratch.build(doc, model, catalog, query, result.root, matches_of(result), options, None);
    scratch.to_ilist(doc, query)
}

/// Keyword `i`'s matches in `result`, as [`IListScratch::build`] reads them.
pub(crate) fn matches_of<'r>(result: &'r QueryResult) -> impl Fn(usize) -> &'r [NodeId] {
    |i| result.matches.get(i).map(Vec::as_slice).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_index::XmlIndex;

    const STORES: &str = "<stores>\
        <store><name>Levis</name><state>Texas</state><city>Austin</city>\
          <merchandises>\
            <clothes><fitting>man</fitting><category>jeans</category></clothes>\
            <clothes><fitting>man</fitting><category>jeans</category></clothes>\
            <clothes><fitting>woman</fitting><category>hats</category></clothes>\
          </merchandises>\
        </store>\
        <store><name>Gap</name><state>Ohio</state><city>Chicago</city>\
          <merchandises><clothes><fitting>man</fitting><category>shirts</category></clothes></merchandises>\
        </store>\
        </stores>";

    fn setup() -> (Document, EntityModel, KeyCatalog, XmlIndex) {
        let doc = Document::parse_str(STORES).unwrap();
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        let index = XmlIndex::build(&doc);
        (doc, model, catalog, index)
    }

    fn ilist_for(q: &str, root_label_idx: usize) -> (Document, IList) {
        let (doc, model, catalog, index) = setup();
        let query = KeywordQuery::parse(q);
        let root = doc.elements_with_label("store")[root_label_idx];
        let result = QueryResult::build(&doc, &index, &query, root);
        let il = build_ilist(&doc, &model, &catalog, &query, &result, &Default::default());
        (doc, il)
    }

    #[test]
    fn order_is_keywords_entities_key_features() {
        let (doc, il) = ilist_for("store texas", 0);
        let display = il.display(&doc);
        // keywords: store, texas; entities: clothes (3) then store(dup);
        // key: Levis; features: man (2/3 of D=2 ⇒ DS 1.33), jeans (DS 1.33),
        // Texas (trivial, dup), Austin (trivial city? D(city)=1 within this
        // result ⇒ trivial dominant).
        assert_eq!(display[0], "store");
        assert_eq!(display[1], "texas");
        assert_eq!(display[2], "clothes");
        assert_eq!(display[3], "Levis");
        assert!(display.contains(&"man".to_string()));
        assert!(display.contains(&"jeans".to_string()));
        // "texas" must appear exactly once (keyword wins over the trivial
        // state feature).
        assert_eq!(display.iter().filter(|s| s.to_lowercase() == "texas").count(), 1);
        // "store" appears once (keyword wins over entity name).
        assert_eq!(display.iter().filter(|s| s.as_str() == "store").count(), 1);
    }

    #[test]
    fn every_item_has_instances_inside_the_result() {
        let (doc, il) = ilist_for("store texas", 0);
        let root = doc.elements_with_label("store")[0];
        for ranked in il.items() {
            assert!(
                !ranked.instances.is_empty(),
                "item {:?} has no instances",
                ranked.item.display_text(&doc)
            );
            for &n in &ranked.instances {
                assert!(doc.is_ancestor_or_self(root, n));
            }
        }
    }

    #[test]
    fn feature_instances_are_attribute_nodes_with_the_value() {
        let (doc, il) = ilist_for("store texas", 0);
        let jeans = il
            .items()
            .iter()
            .find(|r| matches!(&r.item, IListItem::Feature { value, .. } if value == "jeans"))
            .expect("jeans is dominant");
        assert_eq!(jeans.instances.len(), 2);
        for &n in &jeans.instances {
            assert_eq!(doc.label_str(n), Some("category"));
            assert_eq!(doc.text_of(n), Some("jeans"));
        }
    }

    #[test]
    fn result_key_recorded() {
        let (_, il) = ilist_for("store texas", 0);
        let key = il.result_key.as_ref().expect("store has a name key");
        assert_eq!(key.value, "Levis");
    }

    #[test]
    fn keyword_dedup_is_case_insensitive() {
        let (doc, model, catalog, index) = setup();
        let query = KeywordQuery::parse("levis store");
        let root = doc.elements_with_label("store")[0];
        let result = QueryResult::build(&doc, &index, &query, root);
        let il = build_ilist(&doc, &model, &catalog, &query, &result, &Default::default());
        let display = il.display(&doc);
        // The key value "Levis" duplicates the keyword "levis" ⇒ suppressed.
        assert_eq!(
            display.iter().filter(|s| s.to_lowercase() == "levis").count(),
            1
        );
    }

    #[test]
    fn max_dominant_features_caps_the_tail() {
        let (doc, model, catalog, index) = setup();
        let query = KeywordQuery::parse("store texas");
        let root = doc.elements_with_label("store")[0];
        let result = QueryResult::build(&doc, &index, &query, root);
        let full =
            build_ilist(&doc, &model, &catalog, &query, &result, &Default::default());
        let capped = build_ilist(
            &doc,
            &model,
            &catalog,
            &query,
            &result,
            &IListOptions { max_dominant_features: Some(1) },
        );
        assert!(capped.len() < full.len());
    }

    #[test]
    fn entity_types_ordered_by_instance_count() {
        let (doc, model, catalog, index) = setup();
        let query = KeywordQuery::parse("texas");
        let root = doc.elements_with_label("store")[0];
        let result = QueryResult::build(&doc, &index, &query, root);
        let il = build_ilist(&doc, &model, &catalog, &query, &result, &Default::default());
        let display = il.display(&doc);
        let clothes_pos = display.iter().position(|s| s == "clothes").unwrap();
        let store_pos = display.iter().position(|s| s == "store").unwrap();
        assert!(clothes_pos < store_pos, "3 clothes beat 1 store: {display:?}");
    }

    /// The IList of the whole document for `q`, by display text.
    fn display_of(xml: &str, q: &str) -> Vec<String> {
        let doc = Document::parse_str(xml).unwrap();
        let model = EntityModel::analyze(&doc);
        let catalog = KeyCatalog::mine(&doc, &model);
        let index = XmlIndex::build(&doc);
        let query = KeywordQuery::parse(q);
        let result = QueryResult::build(&doc, &index, &query, doc.root());
        build_ilist(&doc, &model, &catalog, &query, &result, &Default::default()).display(&doc)
    }

    #[test]
    fn equal_count_entity_types_sort_by_label_text_not_interning_order() {
        // `zeta` is interned before `alpha`, so its symbol is smaller; two
        // instances each, so only the text can order them.
        let display = display_of(
            "<r><zeta><v>1</v></zeta><alpha><w>2</w></alpha>\
             <zeta><v>3</v></zeta><alpha><w>4</w></alpha></r>",
            "nothing",
        );
        let alpha = display.iter().position(|s| s == "alpha").unwrap();
        let zeta = display.iter().position(|s| s == "zeta").unwrap();
        assert!(alpha < zeta, "equal counts order by text: {display:?}");
    }

    #[test]
    fn equal_score_features_sort_by_label_text_not_interning_order() {
        // Every type is trivially dominant (one value, score 1): the order
        // is by (entity, attribute, value) text, although `zeta`, `zz` and
        // `mm` are interned before `alpha` and `aa`. (The key of the first
        // `zeta`, `x`, comes before the features.)
        let display = display_of(
            "<r><zeta><zz>x</zz><mm>w</mm><aa>y</aa></zeta><zeta><zz>x</zz><mm>w</mm><aa>y</aa></zeta>\
             <alpha><zz>u</zz></alpha><alpha><zz>u</zz></alpha></r>",
            "nothing",
        );
        assert_eq!(display, ["nothing", "alpha", "zeta", "x", "u", "y", "w"]);
    }

    /// A document over `K` (U+212A KELVIN SIGN), Greek with a final sigma,
    /// a dotted capital I and a sharp s: which texts say the same thing is
    /// decided by `str::to_lowercase`, not char by char.
    const UNICODE: &str = "<r>\
        <rec><v>\u{212A}</v><w>\u{39F}\u{394}\u{39F}\u{3A3}</w><x>\u{130}stanbul</x><y>Stra\u{DF}e</y></rec>\
        <rec><v>\u{212A}</v><w>\u{39F}\u{394}\u{39F}\u{3A3}</w><x>\u{130}stanbul</x><y>Stra\u{DF}e</y></rec>\
        </r>";

    #[test]
    fn kelvin_sign_is_said_by_the_keyword_k() {
        // `K`.to_lowercase() is ASCII `k`: the trivially dominant feature
        // is the keyword's duplicate.
        let display = display_of(UNICODE, "k");
        assert_eq!(display.iter().filter(|s| s.to_lowercase() == "k").count(), 1, "{display:?}");
        assert_eq!(display[0], "k");
    }

    #[test]
    fn a_final_sigma_matches_its_lowercase_word_only() {
        // `ΟΔΟΣ` lowercases to `οδος` (final sigma), never to `οδοσ`.
        let upper = "\u{39F}\u{394}\u{39F}\u{3A3}";
        let display = display_of(UNICODE, "\u{3BF}\u{3B4}\u{3BF}\u{3C2}");
        assert!(!display.iter().any(|s| s == upper), "said by the keyword: {display:?}");
        let display = display_of(UNICODE, "\u{3BF}\u{3B4}\u{3BF}\u{3C3}");
        assert!(display.iter().any(|s| s == upper), "a medial sigma differs: {display:?}");
    }

    #[test]
    fn dotted_capital_i_and_sharp_s_are_not_folded_further() {
        // `İstanbul` lowercases to `i̇stanbul` (with U+0307), and `ß` stays
        // `ß`: neither is the ASCII keyword's duplicate.
        let display = display_of(UNICODE, "istanbul strasse");
        assert!(display.iter().any(|s| s == "\u{130}stanbul"), "{display:?}");
        assert!(display.iter().any(|s| s == "Stra\u{DF}e"), "{display:?}");
        // Spelled as the document spells them, they are duplicates.
        let display = display_of(UNICODE, "\u{130}stanbul stra\u{DF}e");
        assert!(!display.iter().any(|s| s == "\u{130}stanbul"), "{display:?}");
        assert!(!display.iter().any(|s| s == "Stra\u{DF}e"), "{display:?}");
    }

    #[test]
    fn unicode_labels_dedupe_against_values_and_keywords() {
        // Entity labels `STRASSE` and `οδος`; values `strasse` and `ΟΔΟΣ`
        // under them. The label comes first and wins; the values repeat it.
        let display = display_of(
            "<r><STRASSE><n>strasse</n></STRASSE><STRASSE><n>strasse</n></STRASSE>\
             <\u{3BF}\u{3B4}\u{3BF}\u{3C2}><n>\u{39F}\u{394}\u{39F}\u{3A3}</n></\u{3BF}\u{3B4}\u{3BF}\u{3C2}>\
             <\u{3BF}\u{3B4}\u{3BF}\u{3C2}><n>\u{39F}\u{394}\u{39F}\u{3A3}</n></\u{3BF}\u{3B4}\u{3BF}\u{3C2}></r>",
            "nothing",
        );
        assert_eq!(display, ["nothing", "STRASSE", "\u{3BF}\u{3B4}\u{3BF}\u{3C2}"]);
    }

    mod reference {
        //! The IList as the paper orders it, built from the statistics
        //! with text sorts and the quadratic case-insensitive dedup the
        //! kernel shipped with: the oracle for the kernel's own order and
        //! dedup.

        use super::*;
        use crate::{key, return_entity};
        use extract_analyzer::ResultStats;

        /// Whether two texts say the same thing: equal once lowercased.
        fn same_text(a: &str, b: &str) -> bool {
            a.eq_ignore_ascii_case(b) || a.to_lowercase() == b.to_lowercase()
        }

        /// Keep each candidate no earlier kept one says: a scan of the list.
        fn unlisted(kept: &[(String, Vec<NodeId>)], text: &str) -> bool {
            !kept.iter().any(|(t, _)| same_text(t, text))
        }

        /// `(display text, instances)` of every item, in rank order.
        pub(super) fn ilist(
            doc: &Document,
            model: &EntityModel,
            catalog: &KeyCatalog,
            query: &KeywordQuery,
            result: &QueryResult,
        ) -> Vec<(String, Vec<NodeId>)> {
            let stats = ResultStats::compute(doc, model, result.root);
            let mut candidates: Vec<(String, Vec<NodeId>)> = Vec::new();
            for (i, k) in query.keywords().iter().enumerate() {
                candidates.push((k.clone(), result.matches.get(i).cloned().unwrap_or_default()));
            }
            let mut types: Vec<(&str, Vec<NodeId>)> = Vec::new();
            for &e in stats.entities() {
                let label = doc.label_str(e).unwrap();
                match types.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, nodes)) => nodes.push(e),
                    None => types.push((label, vec![e])),
                }
            }
            types.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
            candidates.extend(types.into_iter().map(|(l, nodes)| (l.to_string(), nodes)));
            let returns = return_entity::identify(doc, model, query, result);
            if let Some(k) = key::identify(doc, model, catalog, &returns) {
                candidates.push((k.value, k.instances));
            }
            let mut features: Vec<(f64, (&str, &str, &str), usize)> = Vec::new();
            for (i, v) in stats.values().enumerate() {
                let (count, total, distinct) =
                    (f64::from(v.count), f64::from(v.type_total), f64::from(v.type_distinct));
                let score = count * distinct / total;
                if score > 1.0 || v.type_distinct == 1 {
                    let labels =
                        (doc.resolve(v.ftype.entity), doc.resolve(v.ftype.attribute), v.value);
                    features.push((score, labels, i));
                }
            }
            features.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, (_, _, value), i) in features {
                candidates.push((value.to_string(), stats.instances(i).to_vec()));
            }
            let mut kept: Vec<(String, Vec<NodeId>)> = Vec::new();
            for (text, instances) in candidates {
                if unlisted(&kept, &text) {
                    kept.push((text, instances));
                }
            }
            kept
        }
    }

    /// Labels and values the random documents draw from: ASCII, and texts
    /// whose case folding is not char by char.
    const ALPHABET: [&str; 14] = [
        "k", "K", "\u{212A}", "\u{39F}\u{394}\u{39F}\u{3A3}", "\u{3BF}\u{3B4}\u{3BF}\u{3C2}",
        "\u{3BF}\u{3B4}\u{3BF}\u{3C3}", "\u{130}stanbul", "istanbul", "Stra\u{DF}e", "STRASSE",
        "strasse", "zeta", "alpha", "Alpha",
    ];

    #[derive(Debug, Clone)]
    struct Spec {
        label: usize,
        value: Option<usize>,
        children: Vec<Spec>,
    }

    fn spec() -> impl Strategy<Value = Spec> {
        use proptest::prelude::*;
        let leaf = (0..ALPHABET.len(), proptest::option::of(0..ALPHABET.len()))
            .prop_map(|(label, value)| Spec { label, value, children: Vec::new() });
        leaf.prop_recursive(3, 32, 4, |inner| {
            (0..ALPHABET.len(), proptest::collection::vec(inner, 0..4))
                .prop_map(|(label, children)| Spec { label, value: None, children })
        })
    }

    fn build_spec(b: &mut extract_xml::DocBuilder, s: &Spec) {
        b.begin(ALPHABET[s.label]);
        if let Some(v) = s.value {
            b.text(ALPHABET[v]);
        }
        for c in &s.children {
            build_spec(b, c);
        }
        b.end();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every element's IList, for random queries over the alphabet,
        /// equals the reference: the same items in the same order with
        /// the same instances — so dedup agrees with the quadratic
        /// `to_lowercase` scan and every tie is broken by text.
        #[test]
        fn the_ilist_equals_the_text_sorted_quadratic_reference(
            specs in proptest::collection::vec(spec(), 1..4),
            words in proptest::collection::vec(0..ALPHABET.len(), 1..4),
        ) {
            let mut b = extract_xml::DocBuilder::new("db");
            for s in &specs {
                build_spec(&mut b, s);
                build_spec(&mut b, s);
            }
            let doc = b.build();
            let model = EntityModel::analyze(&doc);
            let catalog = KeyCatalog::mine(&doc, &model);
            let index = XmlIndex::build(&doc);
            let query = KeywordQuery::from_keywords(words.iter().map(|&w| ALPHABET[w]));
            let options = IListOptions::default();
            for root in (0..doc.len()).map(NodeId::from_index).filter(|&n| doc.label(n).is_some()) {
                let result = QueryResult::build(&doc, &index, &query, root);
                let il = build_ilist(&doc, &model, &catalog, &query, &result, &options);
                let got: Vec<(String, Vec<NodeId>)> = il
                    .items()
                    .iter()
                    .map(|r| (r.item.display_text(&doc), r.instances.clone()))
                    .collect();
                let want = reference::ilist(&doc, &model, &catalog, &query, &result);
                prop_assert_eq!(got, want);
            }
        }
    }
}
