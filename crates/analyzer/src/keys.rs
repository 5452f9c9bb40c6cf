//! Key-attribute mining (paper §2.2).
//!
//! "After mining the keys of entities in the data, eXtract adds the value of
//! the key attribute of [the return entity] to IList." A key of an entity
//! type is an attribute that uniquely identifies its instances. We mine keys
//! over the whole database:
//!
//! * a **perfect key** is an attribute child path that occurs exactly once
//!   in every instance and whose values are pairwise distinct;
//! * when several qualify, name heuristics break ties (`id`-like beats
//!   `name`-like beats the rest), then document order;
//! * when none qualifies, the attribute with the highest distinct-value
//!   ratio among single-occurrence attributes is used as a best-effort key
//!   (flagged [`KeyQuality::BestEffort`]).

use extract_xml::{Document, NodeId, PathId};

use crate::classify::EntityModel;

/// How trustworthy a mined key is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyQuality {
    /// Unique value in every instance.
    Perfect,
    /// Single-valued but not globally unique; best distinct ratio.
    BestEffort,
}

/// A mined key for one entity path.
#[derive(Debug, Clone)]
pub struct MinedKey {
    /// The attribute path serving as the key.
    pub attribute_path: PathId,
    /// Perfect or best-effort.
    pub quality: KeyQuality,
    /// Fraction of instances with a distinct value (1.0 for perfect keys).
    pub distinct_ratio: f64,
}

/// Keys for every entity path of a document.
#[derive(Debug, Clone, Default)]
pub struct KeyCatalog {
    /// Indexed by `PathId::index()`: a lookup on the query path is one
    /// bounds check, not a hash.
    keys: Vec<Option<MinedKey>>,
}

impl KeyCatalog {
    /// Mine keys for every entity path in `doc`.
    ///
    /// An entity's attribute child is on a child path of the entity's
    /// path, so the attribute path alone names the (entity path, attribute
    /// path) pair, and every count below is a table indexed by path — one
    /// scratch for the whole walk, not a map per entity.
    pub fn mine(doc: &Document, model: &EntityModel) -> KeyCatalog {
        let schema = model.schema();
        let paths = schema.path_count();
        // Per attribute path: the number of owning instances that contain
        // it, whether any instance has it twice, and its values. Under one
        // attribute path a valued attribute's feature id stands for its
        // value: equal ids, equal values.
        #[derive(Clone, Default)]
        struct AttrStats {
            instances_with: u32,
            multi_valued: bool,
            value_count: u32,
            distinct_values: u32,
        }
        let mut stats = vec![AttrStats::default(); paths];
        // Every (attribute path, feature id) seen; sorted, it counts each
        // path's distinct values.
        let mut values: Vec<(PathId, u32)> = Vec::new();
        // One entity's attribute children per path, and the paths it had.
        let mut here = vec![0u32; paths];
        let mut touched: Vec<PathId> = Vec::new();

        for node in doc.all_nodes() {
            if !doc.is_element(node) || !model.is_entity(node) {
                continue;
            }
            for child in doc.element_children(node) {
                if !model.is_attribute(child) {
                    continue;
                }
                let attr_path = model.path_of(child);
                let count = &mut here[attr_path.index()];
                if *count == 0 {
                    touched.push(attr_path);
                }
                *count += 1;
                if let Some(value) = model.feature_of(child) {
                    values.push((attr_path, value));
                    stats[attr_path.index()].value_count += 1;
                }
            }
            for attr_path in touched.drain(..) {
                let count = std::mem::take(&mut here[attr_path.index()]);
                let s = &mut stats[attr_path.index()];
                s.instances_with += 1;
                s.multi_valued |= count > 1;
            }
        }
        values.sort_unstable();
        values.dedup();
        for (attr_path, _) in values {
            stats[attr_path.index()].distinct_values += 1;
        }

        // Score candidates per entity path.
        let mut keys: Vec<Option<MinedKey>> = vec![None; paths];
        let mut scores = vec![0i32; paths];
        for (attr_path, info) in schema.paths() {
            let s = &stats[attr_path.index()];
            let Some(entity_path) = info.parent else { continue };
            if s.instances_with == 0 || s.multi_valued {
                continue;
            }
            let entity_count = schema.info(entity_path).instance_count;
            let covers_all = s.instances_with == entity_count;
            let distinct_ratio = if s.value_count == 0 {
                0.0
            } else {
                s.distinct_values as f64 / s.value_count as f64
            };
            let perfect = covers_all && s.value_count == entity_count && distinct_ratio == 1.0;
            let name_score = name_preference(doc.resolve(info.label));
            // Perfect keys always beat best-effort ones; among equals the
            // name preference, then distinct ratio, then path order decide.
            let score = if perfect { 1000 + name_score } else { name_score };
            let candidate = MinedKey {
                attribute_path: attr_path,
                quality: if perfect { KeyQuality::Perfect } else { KeyQuality::BestEffort },
                distinct_ratio,
            };
            let (slot, best) = (&mut keys[entity_path.index()], &mut scores[entity_path.index()]);
            let better = match slot {
                Some(existing) => {
                    score > *best
                        || (score == *best
                            && (candidate.distinct_ratio, std::cmp::Reverse(attr_path))
                                > (existing.distinct_ratio, std::cmp::Reverse(existing.attribute_path)))
                }
                None => true,
            };
            if better {
                *slot = Some(candidate);
                *best = score;
            }
        }
        KeyCatalog { keys }
    }

    /// The mined key for an entity path.
    // xlint: allow(L10, "crates/analyzer/tests/proptests.rs checks mined keys by path")
    pub fn key_of(&self, entity_path: PathId) -> Option<&MinedKey> {
        self.keys.get(entity_path.index())?.as_ref()
    }

    /// Number of entity paths with a mined key.
    pub fn len(&self) -> usize {
        self.keys.iter().flatten().count()
    }

    /// Whether no keys were mined.
    pub fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }

    /// Resolve the key **node** of one entity instance: the attribute child
    /// on the key path.
    pub fn key_node(
        &self,
        doc: &Document,
        model: &EntityModel,
        entity_instance: NodeId,
    ) -> Option<NodeId> {
        let entity_path = model.path_of(entity_instance);
        let key = self.key_of(entity_path)?;
        doc.element_children(entity_instance)
            .find(|&c| model.path_of(c) == key.attribute_path)
    }
}

/// Name heuristics: identifiers beat names beat everything else.
fn name_preference(label: &str) -> i32 {
    let lower = label.to_lowercase();
    if lower == "id" || lower == "key" || lower.ends_with("_id") || lower.ends_with("id") {
        3
    } else if lower == "name" || lower == "title" {
        2
    } else if lower.contains("name") || lower.contains("title") {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(doc: &Document) -> EntityModel {
        EntityModel::analyze(doc)
    }

    /// The label path of the first element labelled `label` (each label in
    /// these documents is on one path).
    fn path(d: &Document, m: &EntityModel, label: &str) -> PathId {
        m.path_of(d.first_element_with_label(label).unwrap())
    }

    #[test]
    fn unique_name_is_a_perfect_key() {
        let d = Document::parse_str(
            "<stores>\
             <store><name>Levis</name><city>Houston</city></store>\
             <store><name>ESprit</name><city>Houston</city></store>\
             </stores>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let store_path = path(&d, &m, "store");
        let key = catalog.key_of(store_path).expect("store has a key");
        assert_eq!(key.quality, KeyQuality::Perfect);
        let name_path = path(&d, &m, "name");
        assert_eq!(key.attribute_path, name_path, "city repeats, name does not");
    }

    #[test]
    fn id_beats_name_when_both_perfect() {
        let d = Document::parse_str(
            "<ss>\
             <s><id>1</id><name>A</name></s>\
             <s><id>2</id><name>B</name></s>\
             </ss>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let s_path = path(&d, &m, "s");
        let key = catalog.key_of(s_path).unwrap();
        let id_path = path(&d, &m, "id");
        assert_eq!(key.attribute_path, id_path);
    }

    #[test]
    fn duplicate_values_fall_back_to_best_effort() {
        let d = Document::parse_str(
            "<ss>\
             <s><name>A</name><kind>x</kind></s>\
             <s><name>A</name><kind>y</kind></s>\
             <s><name>B</name><kind>x</kind></s>\
             </ss>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let s_path = path(&d, &m, "s");
        let key = catalog.key_of(s_path).unwrap();
        assert_eq!(key.quality, KeyQuality::BestEffort);
        // name: 2 distinct of 3; kind: 2 distinct of 3 — name wins on the
        // name-preference heuristic.
        let name_path = path(&d, &m, "name");
        assert_eq!(key.attribute_path, name_path);
    }

    #[test]
    fn missing_in_some_instances_is_not_perfect() {
        let d = Document::parse_str(
            "<ss>\
             <s><name>A</name></s>\
             <s><kind>k</kind></s>\
             </ss>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let s_path = path(&d, &m, "s");
        let key = catalog.key_of(s_path).unwrap();
        assert_eq!(key.quality, KeyQuality::BestEffort);
    }

    #[test]
    fn multi_valued_attributes_are_never_keys() {
        // color repeats inside one instance ⇒ it is an entity by the star
        // rule, so it is not even an attribute candidate; serial is the key.
        let d = Document::parse_str(
            "<ss>\
             <s><color>red</color><color>blue</color><serial>1</serial></s>\
             <s><serial>2</serial></s>\
             </ss>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let s_path = path(&d, &m, "s");
        let key = catalog.key_of(s_path).unwrap();
        let serial_path = path(&d, &m, "serial");
        assert_eq!(key.attribute_path, serial_path);
    }

    #[test]
    fn key_node_and_value_resolve_per_instance() {
        let d = Document::parse_str(
            "<stores>\
             <store><name>Levis</name></store>\
             <store><name>ESprit</name></store>\
             </stores>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let stores = d.elements_with_label("store");
        let value = |store| catalog.key_node(&d, &m, store).and_then(|n| d.text_of(n));
        assert_eq!(value(stores[0]), Some("Levis"));
        assert_eq!(value(stores[1]), Some("ESprit"));
        let key_node = catalog.key_node(&d, &m, stores[1]).unwrap();
        assert_eq!(d.label_str(key_node), Some("name"));
    }

    #[test]
    fn entity_without_attributes_has_no_key() {
        let d = Document::parse_str("<r><e><sub/></e><e><sub/></e></r>").unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let e_path = path(&d, &m, "e");
        assert!(catalog.key_of(e_path).is_none());
    }

    #[test]
    fn nested_entities_get_independent_keys() {
        let d = Document::parse_str(
            "<r>\
             <store><name>A</name>\
               <item><sku>1</sku></item><item><sku>2</sku></item>\
             </store>\
             <store><name>B</name>\
               <item><sku>3</sku></item>\
             </store>\
             </r>",
        )
        .unwrap();
        let m = model_of(&d);
        let catalog = KeyCatalog::mine(&d, &m);
        let store_path = path(&d, &m, "store");
        let item_path = path(&d, &m, "item");
        assert!(catalog.key_of(store_path).is_some());
        let item_key = catalog.key_of(item_path).unwrap();
        assert_eq!(item_key.quality, KeyQuality::Perfect);
        let sku_path = path(&d, &m, "sku");
        assert_eq!(item_key.attribute_path, sku_path);
    }
}
