//! The end-to-end eXtract system (paper Figure 4).
//!
//! [`Extract::new`] runs the offline stages — Data Analyzer (entity model),
//! Index Builder, key mining — once per document. The same engine answers
//! the query with any search [`Algorithm`] ([`Extract::search`]) and builds
//! each result's snippet: Return Entity Identifier → Query Result Key
//! Identifier → Dominant Feature Identifier → IList → Instance Selector.
//!
//! That query-time half is one pass over an [`IListScratch`], with two
//! outputs: the snippet's XML, written straight from the source document
//! into the scratch ([`Extract::snippet_xml`] — what a server sends, from
//! the query's posting lists it already holds), or an owned
//! [`SnippetedResult`] read out of the scratch ([`Extract::snippet_of`] —
//! what a library caller keeps, from a built [`QueryResult`]).

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use extract_analyzer::{EntityModel, KeyCatalog};
use extract_index::XmlIndex;
use extract_search::ranking::{self, RankedResult};
use extract_search::result::postings_within;
use extract_search::{Algorithm, KeywordQuery, QueryResult};
use extract_xml::{Document, NodeId};

use crate::ilist::{build_ilist, matches_of, IList, IListOptions, IListScratch, Summary};
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
///
/// Beside the keys sits the document's **root record**: the entity types
/// and dominant features of the result rooted at the document root, which
/// depend on the document alone. The first snippet of that result builds
/// it, every later one reads it in place of the statistics scan, and every
/// clone of the parts shares it; a build makes none.
#[derive(Debug, Clone)]
pub struct EngineParts {
    index: Arc<XmlIndex>,
    model: Arc<EntityModel>,
    keys: Arc<Keys>,
}

/// The mined keys, and the root record beside them.
#[derive(Debug)]
struct Keys {
    catalog: KeyCatalog,
    root: OnceLock<Summary>,
}

impl EngineParts {
    /// Run the offline stages for `doc`.
    pub fn build(doc: &Document) -> EngineParts {
        let index = XmlIndex::build(doc);
        let model = EntityModel::analyze(doc);
        let catalog = KeyCatalog::mine(doc, &model);
        let keys = Keys { catalog, root: OnceLock::new() };
        EngineParts { index: Arc::new(index), model: Arc::new(model), keys: Arc::new(keys) }
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

/// The eXtract system bound to one document. The offline artifacts
/// ([`EngineParts`]) are owned ([`Extract::new`], [`Extract::with_parts`])
/// or borrowed from wherever they live ([`Extract::borrowing`] — what a
/// served snippet uses, so it touches no refcount); the `Document` itself
/// is always borrowed.
#[derive(Debug, Clone)]
pub struct Extract<'d> {
    doc: &'d Document,
    parts: Cow<'d, EngineParts>,
}

impl<'d> Extract<'d> {
    /// Run the offline stages for `doc`.
    pub fn new(doc: &'d Document) -> Extract<'d> {
        Extract { doc, parts: Cow::Owned(EngineParts::build(doc)) }
    }

    /// Bind shared offline artifacts (from [`EngineParts::build`] on the
    /// same document) to a borrow of that document.
    pub fn with_parts(doc: &'d Document, parts: EngineParts) -> Extract<'d> {
        Extract { doc, parts: Cow::Owned(parts) }
    }

    /// Bind a borrow of offline artifacts (from [`EngineParts::build`] on
    /// the same document) to a borrow of that document: no clone, no
    /// refcount.
    pub fn borrowing(doc: &'d Document, parts: &'d EngineParts) -> Extract<'d> {
        Extract { doc, parts: Cow::Borrowed(parts) }
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
        &self.parts.keys.catalog
    }

    /// Run `algorithm` for `query` over this engine's index and entity
    /// model ([`extract_search::search`]): unranked, in document order.
    pub fn search(&self, query: &KeywordQuery, algorithm: Algorithm) -> Vec<QueryResult> {
        extract_search::search(self.doc, &self.parts.index, &self.parts.model, query, algorithm)
    }

    /// Build the IList of one query result (§2.1–§2.3).
    pub fn ilist(&self, query: &KeywordQuery, result: &QueryResult, config: &ExtractConfig) -> IList {
        build_ilist(self.doc, &self.parts.model, self.keys(), query, result, &options(config))
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
    // xlint: allow(L10, "tests/snippet_digest.rs and tests/alloc_budget.rs pin the owned IList and snippet it returns")
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
    /// snippet tree or `QueryResult` in between: each keyword's matches are
    /// read in place from `lists`, the query's posting lists in this
    /// engine's index (one per keyword, query order —
    /// [`KeywordQuery::lists`], or what routing resolved). On a warm
    /// scratch this allocates nothing.
    pub fn snippet_xml<'s>(
        &self,
        query: &KeywordQuery,
        lists: &[&[NodeId]],
        root: NodeId,
        config: &ExtractConfig,
        scratch: &'s mut IListScratch,
    ) -> &'s str {
        let end = self.doc.subtree_end(root);
        let matches = |i: usize| {
            postings_within(lists.get(i).copied().unwrap_or_default(), root, end)
        };
        self.run(query, root, matches, config, scratch);
        scratch.render(self.doc, root)
    }

    /// The kernel: build the IList into `scratch` (a result rooted at the
    /// document root reads or builds the root record), then select over it.
    fn run<'m>(
        &self,
        query: &KeywordQuery,
        root: NodeId,
        matches: impl Fn(usize) -> &'m [NodeId],
        config: &ExtractConfig,
        scratch: &mut IListScratch,
    ) {
        let (doc, model, keys) = (self.doc, &*self.parts.model, &*self.parts.keys);
        let record = (root == doc.root()).then_some(&keys.root);
        scratch.build(doc, model, &keys.catalog, query, root, matches, &options(config), record);
        let (items, selection) = scratch.items_and_selection();
        let bound = config.size_bound;
        let exact = match config.selector {
            SelectorKind::Greedy => None,
            SelectorKind::Exact => exact_select(doc, &items, root, bound, ExactLimits::default()),
        };
        match exact {
            Some(outcome) => *selection.0 = outcome,
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let results = extract.search(&query, Algorithm::XSeek);
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
    fn the_first_whole_document_snippet_builds_the_root_record_every_clone_reads() {
        let doc = Document::parse_str(STORES).unwrap();
        let parts = EngineParts::build(&doc);
        let twin = parts.clone();
        assert!(parts.keys.root.get().is_none(), "a build makes no record");
        let extract = Extract::borrowing(&doc, &parts);
        let query = KeywordQuery::parse("texas jeans");
        let lists = query.lists(extract.index());
        let config = ExtractConfig::with_bound(8);
        let mut scratch = IListScratch::default();
        let store = doc.elements_with_label("store")[0];
        extract.snippet_xml(&query, &lists, store, &config, &mut scratch);
        assert!(twin.keys.root.get().is_none(), "a result below the root builds none");
        let first = extract.snippet_xml(&query, &lists, doc.root(), &config, &mut scratch);
        let first = first.to_string();
        let record = twin.keys.root.get().expect("built once, and shared by every clone");
        // The entity nodes and the dominant features' instances: no
        // statistics tables.
        assert!(record.heap_bytes() <= 8 * doc.len(), "{} bytes", record.heap_bytes());
        let again = Extract::borrowing(&doc, &twin);
        let read = again.snippet_xml(&query, &lists, doc.root(), &config, &mut scratch);
        assert_eq!(read, first, "read back, the record gives the bytes the scan gave");
        assert!(std::ptr::eq(twin.keys.root.get().unwrap(), record), "and is not rebuilt");
    }

    #[test]
    fn config_defaults() {
        let c = ExtractConfig::default();
        assert_eq!(c.size_bound, 20);
        assert_eq!(c.selector, SelectorKind::Greedy);
        assert_eq!(ExtractConfig::with_bound(7).size_bound, 7);
    }
}
