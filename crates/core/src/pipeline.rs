//! The end-to-end eXtract system (paper Figure 4).
//!
//! [`Extract::new`] runs the offline stages — Data Analyzer (entity model),
//! Index Builder, key mining — once per document. Each query then flows
//! through Return Entity Identifier → Query Result Key Identifier →
//! Dominant Feature Identifier → IList → Instance Selector.
//!
//! That query-time half is one pass over an [`IListScratch`], with two
//! outputs: the snippet's XML, written straight from the source document
//! into the scratch ([`Extract::snippet_xml`] — what a server sends), or
//! an owned [`SnippetedResult`] read out of the scratch
//! ([`Extract::snippet_of`] — what a library caller keeps).

use std::sync::Arc;

use extract_analyzer::{EntityModel, KeyCatalog};
use extract_index::XmlIndex;
use extract_search::ranking::{self, RankedResult};
use extract_search::result::postings_within;
use extract_search::{KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId};

use crate::cache::{CacheKey, SnippetCache};
use crate::ilist::{build_ilist, matches_of, IList, IListOptions, IListScratch};
use crate::selector::{exact_select, greedy_into, ExactLimits, InstancePolicy};
use crate::snippet::Snippet;

/// Which instance selector to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectorKind {
    /// The paper's greedy algorithm (default).
    #[default]
    Greedy,
    /// Exact branch-and-bound (small inputs only; falls back to greedy when
    /// the search budget is exceeded).
    Exact,
}

/// Snippet generation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractConfig {
    /// Maximum snippet size in element edges (the demo UI's "snippet size
    /// upper bound … defined as the number of edges in the tree").
    pub size_bound: usize,
    /// Cap on dominant features entering the IList (`None` = all).
    pub max_dominant_features: Option<usize>,
    /// Greedy or exact selection.
    pub selector: SelectorKind,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig { size_bound: 20, max_dominant_features: None, selector: SelectorKind::Greedy }
    }
}

impl ExtractConfig {
    /// A config with the given size bound and defaults elsewhere.
    pub fn with_bound(size_bound: usize) -> ExtractConfig {
        ExtractConfig { size_bound, ..Default::default() }
    }
}

/// A query result paired with its generated snippet.
#[derive(Debug, Clone)]
pub struct SnippetedResult {
    /// The query result.
    pub result: QueryResult,
    /// The IList that drove snippet generation.
    pub ilist: IList,
    /// The snippet.
    pub snippet: Snippet,
}

/// The IList options a snippet config asks for.
fn options(config: &ExtractConfig) -> IListOptions {
    IListOptions { max_dominant_features: config.max_dominant_features }
}

/// The offline artifacts of one document — index, entity model, mined
/// keys — behind `Arc`s so many [`Extract`] engines (e.g. one per query
/// snapshot of a live corpus) can share one build. Cloning is three
/// refcount bumps.
#[derive(Debug, Clone)]
pub struct EngineParts {
    index: Arc<XmlIndex>,
    model: Arc<EntityModel>,
    keys: Arc<KeyCatalog>,
}

impl EngineParts {
    /// Run the offline stages for `doc`.
    pub fn build(doc: &Document) -> EngineParts {
        EngineParts::with_index(doc, Arc::new(XmlIndex::build(doc)))
    }

    /// Run the offline stages for `doc` around an index somebody already
    /// built from it — a corpus hands over the document's segment, so the
    /// document is not tokenized a second time.
    pub fn with_index(doc: &Document, index: Arc<XmlIndex>) -> EngineParts {
        let model = EntityModel::analyze(doc);
        let keys = KeyCatalog::mine(doc, &model);
        EngineParts { index, model: Arc::new(model), keys: Arc::new(keys) }
    }

    /// The shared index.
    pub fn index(&self) -> &Arc<XmlIndex> {
        &self.index
    }

    /// The shared entity model.
    pub fn model(&self) -> &Arc<EntityModel> {
        &self.model
    }
}

/// The eXtract system bound to one document. The offline artifacts are
/// `Arc`-shared ([`EngineParts`]), so cloning an engine — or building one
/// from cached parts via [`Extract::with_parts`] — is cheap; only the
/// `Document` itself is borrowed.
#[derive(Debug, Clone)]
pub struct Extract<'d> {
    doc: &'d Document,
    parts: EngineParts,
}

impl<'d> Extract<'d> {
    /// Run the offline stages for `doc`.
    pub fn new(doc: &'d Document) -> Extract<'d> {
        Extract { doc, parts: EngineParts::build(doc) }
    }

    /// Assemble from pre-built components.
    pub fn from_parts(
        doc: &'d Document,
        index: XmlIndex,
        model: EntityModel,
        keys: KeyCatalog,
    ) -> Extract<'d> {
        Extract {
            doc,
            parts: EngineParts {
                index: Arc::new(index),
                model: Arc::new(model),
                keys: Arc::new(keys),
            },
        }
    }

    /// Bind shared offline artifacts (from [`EngineParts::build`] on the
    /// same document) to a borrow of that document.
    pub fn with_parts(doc: &'d Document, parts: EngineParts) -> Extract<'d> {
        Extract { doc, parts }
    }

    /// The shared offline artifacts (an `Arc` clone per component).
    pub fn parts(&self) -> EngineParts {
        self.parts.clone()
    }

    /// The document.
    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// The index.
    pub fn index(&self) -> &XmlIndex {
        &self.parts.index
    }

    /// The entity model.
    pub fn model(&self) -> &EntityModel {
        &self.parts.model
    }

    /// The mined key catalog.
    pub fn keys(&self) -> &KeyCatalog {
        &self.parts.keys
    }

    /// Build the IList of one query result (§2.1–§2.3).
    pub fn ilist(&self, query: &KeywordQuery, result: &QueryResult, config: &ExtractConfig) -> IList {
        build_ilist(self.doc, &self.parts.model, &self.parts.keys, query, result, &options(config))
    }

    /// Generate the snippet of one query result (§2.4).
    pub fn snippet(
        &self,
        query: &KeywordQuery,
        result: &QueryResult,
        config: &ExtractConfig,
    ) -> SnippetedResult {
        self.snippet_with_scratch(query, result, config, &mut IListScratch::default())
    }

    /// [`Extract::snippet`] reusing caller-owned kernel scratch (one
    /// scratch serves every result of a query).
    pub fn snippet_with_scratch(
        &self,
        query: &KeywordQuery,
        result: &QueryResult,
        config: &ExtractConfig,
        scratch: &mut IListScratch,
    ) -> SnippetedResult {
        self.snippet_of(query, result.clone(), config, scratch)
    }

    /// [`Extract::snippet_with_scratch`] for a caller that built `result`
    /// for this snippet alone: the result moves into the answer instead of
    /// being cloned into it. The IList and the snippet are read out of the
    /// scratch the kernel ran in.
    pub fn snippet_of(
        &self,
        query: &KeywordQuery,
        result: QueryResult,
        config: &ExtractConfig,
        scratch: &mut IListScratch,
    ) -> SnippetedResult {
        self.run(query, result.root, matches_of(&result), config, scratch);
        let ilist = scratch.to_ilist(self.doc, query);
        let snippet = Snippet::from_selection(self.doc, &ilist, scratch.selection().clone());
        SnippetedResult { result, ilist, snippet }
    }

    /// The snippet of the result rooted at `root` as the bytes a server
    /// sends: its compact XML, written from the document into `scratch`
    /// and borrowed from it — byte-identical to
    /// [`Extract::snippet_of`]`(..).snippet.to_xml()`, with no owned IList,
    /// snippet tree or `QueryResult` in between (the keyword matches are
    /// read from the index in place). On a warm scratch this allocates
    /// nothing.
    pub fn snippet_xml<'s>(
        &self,
        query: &KeywordQuery,
        root: NodeId,
        config: &ExtractConfig,
        scratch: &'s mut IListScratch,
    ) -> &'s str {
        let (index, end) = (&*self.parts.index, self.doc.subtree_end(root));
        let matches = |i: usize| {
            let postings = query.keywords().get(i).map(|k| index.postings(k)).unwrap_or_default();
            postings_within(postings, root, end)
        };
        self.run(query, root, matches, config, scratch);
        scratch.render(self.doc, root)
    }

    /// The kernel: build the IList into `scratch`, then select over it.
    fn run<'m>(
        &self,
        query: &KeywordQuery,
        root: NodeId,
        matches: impl Fn(usize) -> &'m [NodeId],
        config: &ExtractConfig,
        scratch: &mut IListScratch,
    ) {
        let (doc, model, keys) = (self.doc, &*self.parts.model, &*self.parts.keys);
        scratch.build(doc, model, keys, query, root, matches, &options(config));
        let (items, selection) = scratch.items_and_selection();
        let bound = config.size_bound;
        let exact = match config.selector {
            SelectorKind::Greedy => None,
            SelectorKind::Exact => exact_select(doc, &items, root, bound, ExactLimits::default()),
        };
        match exact {
            Some(outcome) => *selection = outcome,
            None => {
                greedy_into(doc, &items, root, bound, InstancePolicy::CheapestInstance, selection)
            }
        }
    }

    /// Run the built-in XSeek-style engine on `query` and rank the results
    /// (the shared front half of every end-to-end entry point).
    pub fn ranked_results(&self, query: &KeywordQuery) -> Vec<RankedResult> {
        ranking::ranked_results(self.doc, &self.parts.index, &self.parts.model, query)
    }

    /// End-to-end: run the built-in XSeek-style engine on `query_str`, then
    /// generate a snippet per result (ranked result order).
    pub fn snippets_for_query(&self, query_str: &str, config: &ExtractConfig) -> Vec<SnippetedResult> {
        let query = KeywordQuery::parse(query_str);
        let mut scratch = IListScratch::default();
        self.ranked_results(&query)
            .into_iter()
            .map(|r| self.snippet_with_scratch(&query, &r.result, config, &mut scratch))
            .collect()
    }

    /// [`Extract::snippets_for_query`] backed by a [`SnippetCache`]: each
    /// (query, result root, config) triple is computed at most once while
    /// it stays resident. Search and ranking still run (they determine
    /// *which* roots to show); the expensive IList + selection work is
    /// what the cache skips.
    pub fn snippets_for_query_cached(
        &self,
        query_str: &str,
        config: &ExtractConfig,
        cache: &mut SnippetCache,
    ) -> Vec<SnippetedResult> {
        let query = KeywordQuery::parse(query_str);
        let mut scratch = IListScratch::default();
        self.ranked_results(&query)
            .into_iter()
            .map(|r| {
                let key = CacheKey::new(&query, r.result.root, config);
                if let Some(hit) = cache.get(&key) {
                    return hit;
                }
                let computed =
                    self.snippet_with_scratch(&query, &r.result, config, &mut scratch);
                cache.insert(key, computed.clone());
                computed
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_search::xseek::{self, RootPolicy};

    const STORES: &str = "<stores>\
        <store><name>Levis</name><state>Texas</state>\
          <merchandises>\
            <clothes><fitting>man</fitting><category>jeans</category></clothes>\
            <clothes><fitting>man</fitting><category>jeans</category></clothes>\
            <clothes><fitting>woman</fitting><category>hats</category></clothes>\
          </merchandises>\
        </store>\
        <store><name>ESprit</name><state>Texas</state>\
          <merchandises>\
            <clothes><fitting>woman</fitting><category>outwear</category></clothes>\
            <clothes><fitting>woman</fitting><category>outwear</category></clothes>\
            <clothes><fitting>man</fitting><category>socks</category></clothes>\
          </merchandises>\
        </store>\
        <store><name>Gap</name><state>Ohio</state>\
          <merchandises><clothes><fitting>man</fitting><category>shirts</category></clothes></merchandises>\
        </store>\
        </stores>";

    #[test]
    fn end_to_end_produces_one_snippet_per_result() {
        let doc = Document::parse_str(STORES).unwrap();
        let extract = Extract::new(&doc);
        let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(6));
        assert_eq!(out.len(), 2);
        for s in &out {
            assert!(s.snippet.edges <= 6);
            assert!(s.snippet.coverage() > 0);
        }
        // Each snippet carries its store's key, making them distinguishable.
        let xmls: Vec<String> = out.iter().map(|s| s.snippet.to_xml()).collect();
        assert!(xmls.iter().any(|x| x.contains("Levis")));
        assert!(xmls.iter().any(|x| x.contains("ESprit")));
        assert_ne!(xmls[0], xmls[1]);
    }

    #[test]
    fn snippets_show_dominant_features() {
        let doc = Document::parse_str(STORES).unwrap();
        let extract = Extract::new(&doc);
        let out = extract.snippets_for_query("store texas", &ExtractConfig::with_bound(8));
        let levis = out
            .iter()
            .find(|s| s.snippet.to_xml().contains("Levis"))
            .expect("levis result");
        let xml = levis.snippet.to_xml();
        assert!(xml.contains("jeans"), "dominant category: {xml}");
        assert!(xml.contains("man"), "dominant fitting: {xml}");
        let esprit = out
            .iter()
            .find(|s| s.snippet.to_xml().contains("ESprit"))
            .expect("esprit result");
        let xml = esprit.snippet.to_xml();
        assert!(xml.contains("outwear"), "{xml}");
        assert!(xml.contains("woman"), "{xml}");
    }

    #[test]
    fn exact_selector_is_at_least_as_good() {
        let doc = Document::parse_str(STORES).unwrap();
        let extract = Extract::new(&doc);
        let query = KeywordQuery::parse("store texas");
        let results = xseek::search(
            &doc,
            extract.index(),
            extract.model(),
            &query,
            RootPolicy::Entity,
        );
        for result in &results {
            for bound in [2, 4, 6, 8] {
                let greedy = extract.snippet(
                    &query,
                    result,
                    &ExtractConfig { size_bound: bound, ..Default::default() },
                );
                let exact = extract.snippet(
                    &query,
                    result,
                    &ExtractConfig {
                        size_bound: bound,
                        selector: SelectorKind::Exact,
                        ..Default::default()
                    },
                );
                assert!(exact.snippet.coverage() >= greedy.snippet.coverage());
            }
        }
    }

    #[test]
    fn empty_query_yields_no_snippets() {
        let doc = Document::parse_str(STORES).unwrap();
        let extract = Extract::new(&doc);
        assert!(extract.snippets_for_query("", &Default::default()).is_empty());
        assert!(extract
            .snippets_for_query("zzz qqq", &Default::default())
            .is_empty());
    }

    #[test]
    fn config_defaults() {
        let c = ExtractConfig::default();
        assert_eq!(c.size_bound, 20);
        assert_eq!(c.selector, SelectorKind::Greedy);
        assert_eq!(ExtractConfig::with_bound(7).size_bound, 7);
    }
}
