//! The Snippet Information List (IList, paper §2).
//!
//! "Such information is placed in the Snippet Information List … in the
//! order of their importances": first the query keywords, then the names of
//! the entities involved in the result, then the key of the result, then
//! the dominant features in decreasing dominance-score order (Figure 3).
//! Duplicates are suppressed case-insensitively — e.g. for the query
//! "Texas apparel retailer" the entity name `retailer` and the trivially
//! dominant feature `(store, state, Texas)` never appear twice.
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

use std::ops::Range;

use extract_analyzer::{EntityModel, FeatureTables, FeatureType, KeyCatalog, ResultStats};
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId, Symbol};

use crate::dominance::{self, Ranked};
use crate::key::{self, KeyAt, ResultKey};
use crate::return_entity::{self, ReturnEntities};
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
    /// Assemble an IList from raw parts. Intended for tests and benchmarks
    /// that need hand-crafted item/instance layouts.
    #[doc(hidden)]
    pub fn from_parts_for_tests(
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
    instances: Range<usize>,
}

/// The snippet kernel's working memory, reused from one result to the
/// next: the result's feature statistics, its entity types, return
/// entities and key, the IList built from them (items as sources and
/// ranges of one instance arena), the selected snippet tree and its XML.
/// Every buffer keeps its capacity between calls, so a warm scratch builds
/// and renders a snippet without allocating. Drive it through
/// [`crate::Extract::snippet_xml`] (the served bytes) or
/// [`crate::Extract::snippet_of`] (an owned
/// [`SnippetedResult`](crate::SnippetedResult) read out of it).
#[derive(Debug, Default)]
pub struct IListScratch {
    /// The result's feature statistics.
    features: FeatureTables,
    /// Its dominant features, IList order.
    dominant: Vec<Ranked>,
    /// The result's entity nodes keyed and sorted by label: one run per
    /// entity type.
    by_label: Vec<(Symbol, NodeId)>,
    /// One `by_label` run per entity type, in IList order.
    types: Vec<(Symbol, Range<usize>)>,
    /// Attribute labels known to match a keyword, or not.
    names: Vec<(Symbol, bool)>,
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

/// `None` when an item saying what `source` says is on the list already
/// (the earlier, more important item wins); otherwise whether its text is
/// ASCII, for the entry that will list it.
fn unlisted(
    entries: &[Entry],
    doc: &Document,
    query: &KeywordQuery,
    source: &Source,
) -> Option<bool> {
    let text = source.text(doc, query);
    let ascii = text.is_ascii();
    let said = |e: &Entry| same_text((e.source.text(doc, query), e.ascii), (text, ascii));
    (!entries.iter().any(said)).then_some(ascii)
}

/// Append `source` if it is [`unlisted`]. Instances are only collected for
/// items that make it onto the list.
fn push(
    entries: &mut Vec<Entry>,
    arena: &mut Vec<NodeId>,
    (doc, query): (&Document, &KeywordQuery),
    source: Source,
    instances: impl IntoIterator<Item = NodeId>,
) {
    if let Some(ascii) = unlisted(entries, doc, query, &source) {
        let start = arena.len();
        arena.extend(instances);
        entries.push(Entry { source, ascii, instances: start..arena.len() });
    }
}

impl IListScratch {
    /// Build the IList of the result rooted at `root` for `query` (paper
    /// §2.1–§2.3); `matches(i)` is keyword `i`'s match nodes inside the
    /// result, document order.
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
    ) {
        let stats = ResultStats::compute_with(doc, model, root, std::mem::take(&mut self.features));
        let IListScratch {
            dominant, by_label, types, names, returns, key: key_at, entries, arena, ..
        } = self;

        // Entity types (§2.1) and dominant features (§2.3) first: together
        // with the keywords and the key they bound the list's length. Entity
        // instances are grouped by label; types are ordered by descending
        // instance count (more instances ⇒ more of the result is about
        // them), ties alphabetically — this reproduces Figure 3's "…,
        // clothes, store, …".
        return_entity::group_by_label(doc, stats.entities(), by_label, types);
        types.sort_unstable_by(|a, b| {
            b.1.len().cmp(&a.1.len()).then_with(|| doc.resolve(a.0).cmp(doc.resolve(b.0)))
        });
        dominance::dominant_into(doc, &stats, dominant);
        if let Some(cap) = options.max_dominant_features {
            dominant.truncate(cap);
        }

        entries.clear();
        arena.clear();
        let at = (doc, query);

        // 1. Query keywords, in query order ("IList is initialized with the
        //    query keywords", §2).
        for i in 0..query.len() {
            push(entries, arena, at, Source::Keyword(i), matches(i).iter().copied());
        }

        // 2. Entity names.
        for (label, run) in types.iter() {
            let nodes = by_label.get(run.clone()).unwrap_or_default();
            push(entries, arena, at, Source::EntityName(*label), nodes.iter().map(|&(_, e)| e));
        }

        // 3. The result key (§2.2) — identified, with its instances, even
        //    when a keyword already says it: the owned IList records it.
        let runs = (by_label.as_slice(), types.as_slice());
        return_entity::identify_into(doc, model, query, root, runs, names, returns);
        *key_at = key::identify_into(doc, model, catalog, returns, arena);
        if let Some(k) = key_at {
            let source =
                Source::ResultKey { entity: k.entity, attribute: k.attribute, node: k.node };
            if let Some(ascii) = unlisted(entries, doc, query, &source) {
                entries.push(Entry { source, ascii, instances: k.instances.clone() });
            }
        }

        // 4. Dominant features in decreasing dominance score.
        for d in dominant.iter() {
            let instances = stats.instances(d.value);
            let (Some(v), Some(&node)) = (stats.value(d.value), instances.first()) else {
                continue;
            };
            let source = Source::Feature { ftype: v.ftype, node, score: d.score };
            push(entries, arena, at, source, instances.iter().copied());
        }

        self.features = stats.into_tables();
    }

    /// The built items for a selector, and the outcome it writes.
    pub(crate) fn items_and_selection(&mut self) -> (Items<'_>, &mut SelectionOutcome) {
        (Items { entries: &self.entries, arena: &self.arena }, &mut self.selection)
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
    scratch.build(doc, model, catalog, query, result.root, matches_of(result), options);
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
}
