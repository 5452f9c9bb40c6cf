//! One entry point over every implemented search algorithm: the result
//! semantics a caller picks ([`Algorithm`]) and the function that runs it
//! over a document's offline artifacts ([`search`]).

use extract_analyzer::EntityModel;
use extract_index::XmlIndex;
use extract_xml::Document;

use crate::elca::elca_stack;
use crate::query::KeywordQuery;
use crate::result::QueryResult;
use crate::slca::{slca_auto, slca_indexed_lookup, slca_scan_eager};
use crate::xseek::{self, RootPolicy, RootsBuffers};

/// The available search algorithms / result semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// SLCA via Indexed Lookup Eager (Xu & Papakonstantinou).
    SlcaIndexedLookup,
    /// SLCA via Scan Eager (Xu & Papakonstantinou).
    SlcaScanEager,
    /// SLCA with the eager algorithm picked per query from list-length
    /// ratios (see [`crate::slca::choose_strategy`]).
    SlcaAuto,
    /// ELCA via the Dewey stack (XRANK semantics).
    Elca,
    /// SLCA lifted to entity roots (XSeek semantics — the engine the demo
    /// runs on, and the default).
    XSeek,
}

/// Run `algorithm` for `query` over `doc`'s index and entity model: the
/// result roots in document order, each with its per-keyword matches.
/// The query's posting lists are resolved once and borrowed straight from
/// the index — no per-query copies.
pub fn search(
    doc: &Document,
    index: &XmlIndex,
    model: &EntityModel,
    query: &KeywordQuery,
    algorithm: Algorithm,
) -> Vec<QueryResult> {
    let lists = query.lists(index);
    let roots = match algorithm {
        Algorithm::SlcaIndexedLookup => slca_indexed_lookup(doc, &lists),
        Algorithm::SlcaScanEager => slca_scan_eager(doc, &lists),
        Algorithm::SlcaAuto => slca_auto(doc, &lists),
        Algorithm::Elca => elca_stack(doc, &lists),
        Algorithm::XSeek => {
            let mut buffers = RootsBuffers::default();
            xseek::result_roots_in(doc, model, &lists, RootPolicy::Entity, &mut buffers);
            buffers.roots
        }
    };
    roots.into_iter().map(|root| QueryResult::build(doc, index, query, root)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::rank;

    const XML: &str = "<stores>\
        <store><name>Levis</name><state>Texas</state>\
          <merchandises><clothes><category>jeans</category><fitting>man</fitting></clothes></merchandises>\
        </store>\
        <store><name>ESprit</name><state>Texas</state>\
          <merchandises><clothes><category>outwear</category><fitting>woman</fitting></clothes></merchandises>\
        </store>\
        <store><name>Gap</name><state>Ohio</state>\
          <merchandises><clothes><category>shirt</category></clothes></merchandises>\
        </store>\
        </stores>";

    /// `(doc, index, model)` for `xml`.
    fn setup(xml: &str) -> (Document, XmlIndex, EntityModel) {
        let doc = Document::parse_str(xml).unwrap();
        let index = XmlIndex::build(&doc);
        let model = EntityModel::analyze(&doc);
        (doc, index, model)
    }

    #[test]
    fn all_algorithms_agree_on_the_store_query() {
        let (doc, index, model) = setup(XML);
        let q = KeywordQuery::parse("store texas");
        for algo in [
            Algorithm::SlcaIndexedLookup,
            Algorithm::SlcaScanEager,
            Algorithm::SlcaAuto,
            Algorithm::XSeek,
        ] {
            let results = search(&doc, &index, &model, &q, algo);
            assert_eq!(results.len(), 2, "{algo:?}");
            assert!(results.iter().all(|r| doc.label_str(r.root) == Some("store")));
        }
        // ELCA additionally sees no extra roots here (stores nest nothing
        // that independently covers both keywords).
        let elca = search(&doc, &index, &model, &q, Algorithm::Elca);
        assert_eq!(elca.len(), 2);
    }

    #[test]
    fn ranked_search_is_ordered() {
        let (doc, index, model) = setup(XML);
        let q = KeywordQuery::parse("texas");
        let ranked = rank(&doc, search(&doc, &index, &model, &q, Algorithm::XSeek));
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].score >= ranked[1].score);
    }

    #[test]
    fn many_keyword_queries_do_not_panic_any_algorithm() {
        // Regression: ELCA panicked past 64 keywords; a pasted paragraph
        // of a query is exactly how a user reaches that path.
        let body: String = (0..70).map(|i| format!("<w>t{i}</w>")).collect();
        let (doc, index, model) = setup(&format!("<r>{body}</r>"));
        let text: String =
            (0..70).map(|i| format!("t{i} ")).collect();
        let q = KeywordQuery::parse(&text);
        assert_eq!(q.len(), 70);
        for algo in [
            Algorithm::SlcaIndexedLookup,
            Algorithm::SlcaScanEager,
            Algorithm::SlcaAuto,
            Algorithm::Elca,
            Algorithm::XSeek,
        ] {
            let results = search(&doc, &index, &model, &q, algo);
            assert!(!results.is_empty(), "{algo:?}");
        }
    }
}
