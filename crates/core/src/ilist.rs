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

use std::ops::Range;

use extract_analyzer::{EntityModel, KeyCatalog, ResultStats};
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId, Symbol};

use crate::dominance::dominant_features;
use crate::key::{self, ResultKey};
use crate::return_entity::{self, ReturnEntities};

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

    /// Whether two items say the same thing: their texts are equal once
    /// lowercased. Decided in place for ASCII texts (all of them, on
    /// data-oriented XML), so checking an item against the list builds no
    /// strings.
    fn duplicates(&self, other: &IListItem, doc: &Document) -> bool {
        let (a, b) = (self.text(doc), other.text(doc));
        if a.is_ascii() && b.is_ascii() {
            a.eq_ignore_ascii_case(b)
        } else {
            a.to_lowercase() == b.to_lowercase()
        }
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

/// Options for IList construction.
#[derive(Debug, Clone, Default)]
pub struct IListOptions {
    /// Keep at most this many dominant features (`None` = all).
    pub max_dominant_features: Option<usize>,
}

/// Reusable working buffers for IList construction. One query produces one
/// IList per result; threading a scratch through the loop keeps the
/// entity-grouping buffers alive across results instead of reallocating
/// them per call.
#[derive(Debug, Default)]
pub struct IListScratch {
    /// The result's entity nodes, document order.
    entities: Vec<NodeId>,
    /// The same nodes keyed and sorted by label: one run per entity type.
    by_label: Vec<(Symbol, NodeId)>,
    /// One `by_label` run per entity type, in IList order.
    types: Vec<(Symbol, Range<usize>)>,
}

/// Append `item` unless an item already on the list says the same thing
/// (case-insensitively — the earlier, more important item wins). Instances
/// are only collected for items that make it onto the list.
fn push(
    items: &mut Vec<RankedItem>,
    doc: &Document,
    item: IListItem,
    instances: impl FnOnce() -> Vec<NodeId>,
) {
    if !items.iter().any(|pushed| pushed.item.duplicates(&item, doc)) {
        items.push(RankedItem { item, instances: instances() });
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
    let stats = ResultStats::compute(doc, model, result.root);
    build_ilist_with_stats(doc, model, catalog, query, result, &stats, options)
}

/// [`build_ilist`] with precomputed statistics (lets callers reuse them).
pub fn build_ilist_with_stats(
    doc: &Document,
    model: &EntityModel,
    catalog: &KeyCatalog,
    query: &KeywordQuery,
    result: &QueryResult,
    stats: &ResultStats<'_>,
    options: &IListOptions,
) -> IList {
    let mut scratch = IListScratch::default();
    build_ilist_with_scratch(doc, model, catalog, query, result, stats, options, &mut scratch)
}

/// [`build_ilist_with_stats`] with caller-owned scratch buffers (the hot
/// query path reuses one [`IListScratch`] across all results of a query).
#[allow(clippy::too_many_arguments)]
pub fn build_ilist_with_scratch(
    doc: &Document,
    model: &EntityModel,
    catalog: &KeyCatalog,
    query: &KeywordQuery,
    result: &QueryResult,
    stats: &ResultStats<'_>,
    options: &IListOptions,
    scratch: &mut IListScratch,
) -> IList {
    // Entity types (§2.1) and dominant features (§2.3) first: together
    // with the keywords and the key they bound the list's length. Entity
    // instances are grouped by label; types are ordered by descending
    // instance count (more instances ⇒ more of the result is about them),
    // ties alphabetically — this reproduces Figure 3's "…, clothes,
    // store, …".
    let IListScratch { entities, by_label, types } = scratch;
    entities.clear();
    entities.extend(doc.subtree_elements(result.root).filter(|&n| model.is_entity(n)));
    by_label.clear();
    by_label.extend(entities.iter().filter_map(|&e| Some((doc.label(e)?, e))));
    by_label.sort_unstable();
    types.clear();
    for (i, &(label, _)) in by_label.iter().enumerate() {
        match types.last_mut() {
            Some((last, run)) if *last == label => run.end = i + 1,
            _ => types.push((label, i..i + 1)),
        }
    }
    types.sort_by(|a, b| {
        b.1.len().cmp(&a.1.len()).then_with(|| doc.resolve(a.0).cmp(doc.resolve(b.0)))
    });
    let mut doms = dominant_features(doc, stats);
    if let Some(cap) = options.max_dominant_features {
        doms.truncate(cap);
    }

    let mut items: Vec<RankedItem> =
        Vec::with_capacity(query.len() + types.len() + 1 + doms.len());

    // 1. Query keywords, in query order ("IList is initialized with the
    //    query keywords", §2).
    for (i, k) in query.keywords().iter().enumerate() {
        push(&mut items, doc, IListItem::Keyword(k.clone()), || {
            result.matches.get(i).cloned().unwrap_or_default()
        });
    }

    // 2. Entity names.
    for (label, run) in types.iter() {
        push(&mut items, doc, IListItem::EntityName { label: *label }, || {
            by_label.get(run.clone()).unwrap_or_default().iter().map(|&(_, e)| e).collect()
        });
    }

    // 3. The result key (§2.2).
    let return_entities = return_entity::identify_among(doc, model, query, result.root, entities);
    let result_key = key::identify(doc, model, catalog, &return_entities);
    if let Some(k) = &result_key {
        let item = IListItem::ResultKey {
            entity: k.entity,
            attribute: k.attribute,
            value: k.value.clone(),
        };
        push(&mut items, doc, item, || k.instances.clone());
    }

    // 4. Dominant features in decreasing dominance score.
    for d in doms {
        let instances = stats.occurrences(d.ftype, &d.value);
        let item = IListItem::Feature {
            entity: d.ftype.entity,
            attribute: d.ftype.attribute,
            value: d.value,
            score: d.score,
        };
        push(&mut items, doc, item, || instances.to_vec());
    }

    IList { items, return_entities, result_key }
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
