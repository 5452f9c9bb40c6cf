//! Pins the bytes `/search` serves, result for result, so a rewrite of
//! the snippet path (statistics, IList, selector, XML writer, caches) can
//! be checked against the one it replaces.
//!
//! For ~30 queries over four corpora — the retailer, dblp and auction
//! generators and a benchmark-shaped `CorpusConfig` corpus — and the
//! windows `k ∈ {1, 10}` × `offset ∈ {0, 10, 40}`, one FNV-1a digest per
//! (corpus, query) covers:
//!
//! * every served result's `(document, root, score bits, snippet XML)`,
//!   the window's `total`, and the `/search` body [`search_body`] makes of
//!   it;
//! * for the same results, what [`Extract::snippet_of`] builds: the IList
//!   display, every covered and skipped item (kind, text, score bits), the
//!   edge count and the snippet XML.
//!
//! The committed values were computed before the snippet kernel was
//! rewritten; both versions must produce them. On a mismatch the whole
//! actual table is printed, so a deliberate change can be re-pinned at
//! once. A proptest adds the three-way identity on random windows: the
//! served snippet, the library's `to_xml()` and `Document::project` over
//! the selected nodes serialize to the same bytes.

use std::sync::{Arc, OnceLock};

use extract::core::IListItem;
use extract::prelude::*;
use extract::serve::search_body;
use extract_datagen::auction::AuctionConfig;
use extract_datagen::corpus::CorpusConfig;
use extract_datagen::dblp::DblpConfig;
use extract_datagen::retailer::RetailerConfig;

/// 64-bit FNV-1a: deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Queries across the three vocabularies, broad and narrow, plus misses.
const QUERIES: [&str; 31] = [
    "store texas",
    "houston jeans",
    "woman outwear",
    "texas apparel retailer",
    "retailer apparel",
    "clothes man",
    "city houston",
    "store name",
    "casual children",
    "dallas suit",
    "state ohio",
    "paper sigmod",
    "author vldb",
    "keyword search xml",
    "query ranking",
    "title query",
    "year 2005",
    "venue icde",
    "author name",
    "open auction item",
    "gold watch seller",
    "item description",
    "person name",
    "bidder date",
    "silver coin",
    "location houston",
    "payment cash",
    "name",
    "search name",
    "texas",
    "zzz missing everywhere",
];

/// `(k, offset)` windows.
const WINDOWS: [(usize, usize); 6] = [(1, 0), (1, 10), (1, 40), (10, 0), (10, 10), (10, 40)];

/// A corpus under test and the snippet config it is served with.
struct Case {
    name: &'static str,
    corpus: Corpus,
    config: ExtractConfig,
}

fn corpus_of(docs: Vec<(String, Document)>) -> Corpus {
    let mut builder = CorpusBuilder::new();
    for (name, doc) in docs {
        builder.add_parsed(&name, doc);
    }
    builder.finish()
}

/// The four corpora, built once per test binary.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let retailer = |seed| RetailerConfig { seed, ..RetailerConfig::default() }.generate();
        let dblp = |seed| DblpConfig { seed, ..DblpConfig::default() }.generate();
        let auction = |seed| AuctionConfig::with_target_nodes(3_000, seed).generate();
        let bench = CorpusConfig { documents: 12, target_nodes_per_doc: 4_000, seed: 7 };
        vec![
            Case {
                name: "retailer",
                corpus: corpus_of(vec![("r21".into(), retailer(21)), ("r22".into(), retailer(22))]),
                config: ExtractConfig::default(),
            },
            Case {
                name: "dblp",
                corpus: corpus_of(vec![("d21".into(), dblp(21)), ("d22".into(), dblp(22))]),
                config: ExtractConfig::default(),
            },
            Case {
                name: "auction",
                corpus: corpus_of(vec![("a21".into(), auction(21)), ("a22".into(), auction(22))]),
                config: ExtractConfig::with_bound(6),
            },
            Case {
                name: "bench",
                corpus: corpus_of(bench.documents().collect()),
                config: ExtractConfig::with_bound(10),
            },
        ]
    })
}

/// What the library builds for one served result.
fn library_snippet(
    corpus: &Corpus,
    query: &KeywordQuery,
    doc: DocId,
    root: NodeId,
    config: &ExtractConfig,
) -> SnippetedResult {
    let document = corpus.doc(doc);
    let extract = Extract::with_parts(document, corpus.engine(doc).clone());
    let result = QueryResult::build(document, extract.index(), query, root);
    let mut scratch = extract::core::ilist::IListScratch::default();
    extract.snippet_of(query, result, config, &mut scratch)
}

/// An IList item as kind, text and (for a feature) score bits.
fn hash_item(h: &mut Fnv, item: &IListItem, doc: &Document) {
    let (kind, score) = match item {
        IListItem::Keyword(_) => ("keyword", 0.0),
        IListItem::EntityName { .. } => ("entity", 0.0),
        IListItem::ResultKey { .. } => ("key", 0.0),
        IListItem::Feature { score, .. } => ("feature", *score),
    };
    h.str(kind);
    h.str(&item.display_text(doc));
    h.u64(score.to_bits());
}

/// The two digests of one (corpus, query): served bytes, library output.
fn digests(case: &Case, q: &str) -> (String, String) {
    let corpus = &case.corpus;
    let caches = Arc::new(SessionCaches::new(4096));
    let query = KeywordQuery::parse(q);
    let (mut served, mut library) = (Fnv::new(), Fnv::new());
    for (k, offset) in WINDOWS {
        let session = QuerySession::for_snapshot(corpus, 1, Arc::clone(&caches));
        let page = session.answer_corpus_topk(q, &case.config, k, offset);
        served.u64(page.total as u64);
        served.u64(page.results.len() as u64);
        for answer in page.results.iter() {
            let root = answer.root;
            served.str(corpus.name(answer.doc));
            served.u64(root.index() as u64);
            served.u64(answer.score.to_bits());
            served.str(&answer.snippet);

            let doc = corpus.doc(answer.doc);
            let snippeted = library_snippet(corpus, &query, answer.doc, root, &case.config);
            for text in snippeted.ilist.display(doc) {
                library.str(&text);
            }
            library.u64(snippeted.snippet.covered.len() as u64);
            for item in &snippeted.snippet.covered {
                hash_item(&mut library, item, doc);
            }
            library.u64(snippeted.snippet.skipped.len() as u64);
            for item in &snippeted.snippet.skipped {
                hash_item(&mut library, item, doc);
            }
            library.u64(snippeted.snippet.edges as u64);
            library.str(&snippeted.snippet.to_xml());
        }
        // The wire body over the same (now cached) page.
        served.str(&search_body(&session, &case.config, q, k, offset));
    }
    (format!("{:016x}", served.0), format!("{:016x}", library.0))
}

/// Compare `actual` with `expected` pairwise, printing the whole actual
/// table on a mismatch so a deliberate change can be re-pinned at once.
fn check(actual: &[(String, String)], expected: &[(&str, &str)]) {
    let matches = actual.len() == expected.len()
        && actual.iter().zip(expected).all(|((an, av), (en, ev))| an == en && av == ev);
    if !matches {
        for (name, value) in actual {
            println!("    ({name:?}, {value:?}),");
        }
        for ((an, av), (en, ev)) in actual.iter().zip(expected) {
            assert_eq!((an.as_str(), av.as_str()), (*en, *ev), "first mismatch");
        }
        assert_eq!(actual.len(), expected.len(), "case count");
    }
}

#[test]
fn served_snippets_and_their_ilists_keep_their_digests() {
    let (mut served, mut library) = (Vec::new(), Vec::new());
    for case in cases() {
        for q in QUERIES {
            let (s, l) = digests(case, q);
            served.push((format!("{}/{q}", case.name), s));
            library.push((format!("{}/{q}", case.name), l));
        }
    }
    check(&served, SERVED);
    check(&library, LIBRARY);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// On any window, the served snippet, the library's rendering of the
    /// same result and a projection over the selected nodes are one
    /// string.
    #[test]
    fn a_served_snippet_is_the_librarys_and_the_projections_xml(
        case in 0usize..4,
        query in 0usize..QUERIES.len(),
        k in 1usize..12,
        offset in 0usize..30,
        cached in proptest::prelude::any::<bool>(),
    ) {
        let case = &cases()[case];
        let q = QUERIES[query];
        let caches = Arc::new(SessionCaches::new(if cached { 4096 } else { 0 }));
        let session = QuerySession::for_snapshot(&case.corpus, 1, caches);
        let page = session.answer_corpus_topk(q, &case.config, k, offset);
        let parsed = KeywordQuery::parse(q);
        for answer in page.results.iter() {
            let root = answer.root;
            let served: &str = &answer.snippet;
            let library = library_snippet(&case.corpus, &parsed, answer.doc, root, &case.config);
            proptest::prop_assert_eq!(served, library.snippet.to_xml());
            let projected =
                case.corpus.doc(answer.doc).project(root, &library.snippet.nodes).to_xml_string();
            proptest::prop_assert_eq!(served, projected);
        }
    }
}

const SERVED: &[(&str, &str)] = &[
    ("retailer/store texas", "585b385092615fea"),
    ("retailer/houston jeans", "eade8926823fca75"),
    ("retailer/woman outwear", "36b2fb209d064edb"),
    ("retailer/texas apparel retailer", "2fd8eb396cb5853c"),
    ("retailer/retailer apparel", "05e38a2ade207da0"),
    ("retailer/clothes man", "5a1977b7ae89cd13"),
    ("retailer/city houston", "a06369fd1fd8aa74"),
    ("retailer/store name", "dead745dcdfe0875"),
    ("retailer/casual children", "0c9af221609523a4"),
    ("retailer/dallas suit", "3544ea25f51856df"),
    ("retailer/state ohio", "c253d2169fee9cb0"),
    ("retailer/paper sigmod", "d8ff34c2c7e074f6"),
    ("retailer/author vldb", "ded9295756fc14ac"),
    ("retailer/keyword search xml", "21fc9d2282e08000"),
    ("retailer/query ranking", "e54fe58d31ce7268"),
    ("retailer/title query", "d593efb49f73bb9c"),
    ("retailer/year 2005", "6ce898bd981f78c8"),
    ("retailer/venue icde", "a725de4de2a4cca8"),
    ("retailer/author name", "17f095cfdf17135c"),
    ("retailer/open auction item", "0c9baadf99d89e00"),
    ("retailer/gold watch seller", "29d4b503c44d9018"),
    ("retailer/item description", "65f9476db1f1621e"),
    ("retailer/person name", "b1f99af65a889194"),
    ("retailer/bidder date", "9e064d84900dfb34"),
    ("retailer/silver coin", "8c38e8de884cab9c"),
    ("retailer/location houston", "ca40f503cb0434f6"),
    ("retailer/payment cash", "fd2aa294415c879e"),
    ("retailer/name", "0fb6bd73855e0488"),
    ("retailer/search name", "b6026f329d4d825c"),
    ("retailer/texas", "d6a27d2db6b31ce5"),
    ("retailer/zzz missing everywhere", "e572a751b1a845dc"),
    ("dblp/store texas", "72db2a01a87ed238"),
    ("dblp/houston jeans", "2aee2be5a924e808"),
    ("dblp/woman outwear", "932a15c2ccf63810"),
    ("dblp/texas apparel retailer", "142bb5ef5c686704"),
    ("dblp/retailer apparel", "aefc38d65126c15e"),
    ("dblp/clothes man", "ef044a446b44c0f0"),
    ("dblp/city houston", "e7da92a403b4aade"),
    ("dblp/store name", "5adcdbf94f000634"),
    ("dblp/casual children", "734b17698770dfc4"),
    ("dblp/dallas suit", "13a2b726d13c8520"),
    ("dblp/state ohio", "b5afa83e743fba38"),
    ("dblp/paper sigmod", "0c63904f5e5d980a"),
    ("dblp/author vldb", "cab8a1f1f6909654"),
    ("dblp/keyword search xml", "a4d326ee7fd7d371"),
    ("dblp/query ranking", "33b5d5e69cbbf173"),
    ("dblp/title query", "16fcd21204166096"),
    ("dblp/year 2005", "6872d78106adbebe"),
    ("dblp/venue icde", "aa00ad89e474e746"),
    ("dblp/author name", "ca35d40e285cf3ae"),
    ("dblp/open auction item", "0c9baadf99d89e00"),
    ("dblp/gold watch seller", "29d4b503c44d9018"),
    ("dblp/item description", "65f9476db1f1621e"),
    ("dblp/person name", "b1f99af65a889194"),
    ("dblp/bidder date", "9e064d84900dfb34"),
    ("dblp/silver coin", "8c38e8de884cab9c"),
    ("dblp/location houston", "ca40f503cb0434f6"),
    ("dblp/payment cash", "fd2aa294415c879e"),
    ("dblp/name", "737ed5cb5a5ba493"),
    ("dblp/search name", "47a5ab3778caba9d"),
    ("dblp/texas", "9a75d8ac1cf893f0"),
    ("dblp/zzz missing everywhere", "e572a751b1a845dc"),
    ("auction/store texas", "72db2a01a87ed238"),
    ("auction/houston jeans", "2aee2be5a924e808"),
    ("auction/woman outwear", "932a15c2ccf63810"),
    ("auction/texas apparel retailer", "142bb5ef5c686704"),
    ("auction/retailer apparel", "aefc38d65126c15e"),
    ("auction/clothes man", "ef044a446b44c0f0"),
    ("auction/city houston", "88b6d8cdf066abaf"),
    ("auction/store name", "5adcdbf94f000634"),
    ("auction/casual children", "734b17698770dfc4"),
    ("auction/dallas suit", "13a2b726d13c8520"),
    ("auction/state ohio", "d3bdfe09956fb6d0"),
    ("auction/paper sigmod", "d8ff34c2c7e074f6"),
    ("auction/author vldb", "ded9295756fc14ac"),
    ("auction/keyword search xml", "21fc9d2282e08000"),
    ("auction/query ranking", "e54fe58d31ce7268"),
    ("auction/title query", "d593efb49f73bb9c"),
    ("auction/year 2005", "6ce898bd981f78c8"),
    ("auction/venue icde", "a725de4de2a4cca8"),
    ("auction/author name", "17f095cfdf17135c"),
    ("auction/open auction item", "ab04bca3b5718ced"),
    ("auction/gold watch seller", "f79ab3f2b40c74ef"),
    ("auction/item description", "4b9e646ffda79357"),
    ("auction/person name", "bb07668eba42b93a"),
    ("auction/bidder date", "6cf6fe7404cc7b34"),
    ("auction/silver coin", "69ee339970143cab"),
    ("auction/location houston", "6c0a6f10cb62c37f"),
    ("auction/payment cash", "33908f791d5a64c9"),
    ("auction/name", "534e2c15503791c0"),
    ("auction/search name", "b6026f329d4d825c"),
    ("auction/texas", "7469dd730dddecbd"),
    ("auction/zzz missing everywhere", "e572a751b1a845dc"),
    ("bench/store texas", "a932db92938f2693"),
    ("bench/houston jeans", "698b731b99a893b9"),
    ("bench/woman outwear", "0abf08dd3cd0afd2"),
    ("bench/texas apparel retailer", "8ffa2774e4bef1e0"),
    ("bench/retailer apparel", "c71485d14e77c41c"),
    ("bench/clothes man", "2c86321777e81e4a"),
    ("bench/city houston", "02ac289f2083aded"),
    ("bench/store name", "ef04bf79c5d033f0"),
    ("bench/casual children", "720bd17d023b0797"),
    ("bench/dallas suit", "65b8ba2ce2cf2f80"),
    ("bench/state ohio", "a8d2ac16e1e058e7"),
    ("bench/paper sigmod", "385b6586e44cb4fb"),
    ("bench/author vldb", "36050a42d955724d"),
    ("bench/keyword search xml", "a34634f3ce243b50"),
    ("bench/query ranking", "b6830477ec035882"),
    ("bench/title query", "cede7ccf82510858"),
    ("bench/year 2005", "5cb67f47a4360e4d"),
    ("bench/venue icde", "ead03c2274f9795e"),
    ("bench/author name", "9c4db289bf53a4b2"),
    ("bench/open auction item", "5071755f02380024"),
    ("bench/gold watch seller", "73c23d8fe2ceaebe"),
    ("bench/item description", "5afb4136de0be5e8"),
    ("bench/person name", "fb21dce5d5ee304f"),
    ("bench/bidder date", "68ce4fcbf6191fbd"),
    ("bench/silver coin", "6357eccbbcc6ed14"),
    ("bench/location houston", "4463783c55dd2c29"),
    ("bench/payment cash", "4e1228babff7275e"),
    ("bench/name", "8999b452fa6478bf"),
    ("bench/search name", "9e280ef955fed781"),
    ("bench/texas", "9e781431c3feecb9"),
    ("bench/zzz missing everywhere", "e572a751b1a845dc"),
];

const LIBRARY: &[(&str, &str)] = &[
    ("retailer/store texas", "394f000116114133"),
    ("retailer/houston jeans", "771cb4889ceb2dba"),
    ("retailer/woman outwear", "19655edb3fff3b92"),
    ("retailer/texas apparel retailer", "61cad6df2e2118e9"),
    ("retailer/retailer apparel", "88413f9b2c8d3b8c"),
    ("retailer/clothes man", "c8de0fe7f6347571"),
    ("retailer/city houston", "767e83ea1f6ac1cb"),
    ("retailer/store name", "c288176b8ff430de"),
    ("retailer/casual children", "a8f797801ab91367"),
    ("retailer/dallas suit", "a6b27de79c745feb"),
    ("retailer/state ohio", "73c735df9d8bd2e6"),
    ("retailer/paper sigmod", "cbf29ce484222325"),
    ("retailer/author vldb", "cbf29ce484222325"),
    ("retailer/keyword search xml", "cbf29ce484222325"),
    ("retailer/query ranking", "cbf29ce484222325"),
    ("retailer/title query", "cbf29ce484222325"),
    ("retailer/year 2005", "cbf29ce484222325"),
    ("retailer/venue icde", "cbf29ce484222325"),
    ("retailer/author name", "cbf29ce484222325"),
    ("retailer/open auction item", "cbf29ce484222325"),
    ("retailer/gold watch seller", "cbf29ce484222325"),
    ("retailer/item description", "cbf29ce484222325"),
    ("retailer/person name", "cbf29ce484222325"),
    ("retailer/bidder date", "cbf29ce484222325"),
    ("retailer/silver coin", "cbf29ce484222325"),
    ("retailer/location houston", "cbf29ce484222325"),
    ("retailer/payment cash", "cbf29ce484222325"),
    ("retailer/name", "ace9510c211fbbfd"),
    ("retailer/search name", "cbf29ce484222325"),
    ("retailer/texas", "a3179a7c7eb5f6d9"),
    ("retailer/zzz missing everywhere", "cbf29ce484222325"),
    ("dblp/store texas", "cbf29ce484222325"),
    ("dblp/houston jeans", "cbf29ce484222325"),
    ("dblp/woman outwear", "cbf29ce484222325"),
    ("dblp/texas apparel retailer", "cbf29ce484222325"),
    ("dblp/retailer apparel", "cbf29ce484222325"),
    ("dblp/clothes man", "cbf29ce484222325"),
    ("dblp/city houston", "cbf29ce484222325"),
    ("dblp/store name", "cbf29ce484222325"),
    ("dblp/casual children", "cbf29ce484222325"),
    ("dblp/dallas suit", "cbf29ce484222325"),
    ("dblp/state ohio", "cbf29ce484222325"),
    ("dblp/paper sigmod", "9028abe9e58bd97f"),
    ("dblp/author vldb", "548fd8ade482e8cb"),
    ("dblp/keyword search xml", "416998617e18aee5"),
    ("dblp/query ranking", "b6f9c1033cfae2fe"),
    ("dblp/title query", "9e976a5da0170ae5"),
    ("dblp/year 2005", "45f3f5c638874929"),
    ("dblp/venue icde", "55dba7df8f19b31d"),
    ("dblp/author name", "66c3cdf2a0b51d0d"),
    ("dblp/open auction item", "cbf29ce484222325"),
    ("dblp/gold watch seller", "cbf29ce484222325"),
    ("dblp/item description", "cbf29ce484222325"),
    ("dblp/person name", "cbf29ce484222325"),
    ("dblp/bidder date", "cbf29ce484222325"),
    ("dblp/silver coin", "cbf29ce484222325"),
    ("dblp/location houston", "cbf29ce484222325"),
    ("dblp/payment cash", "cbf29ce484222325"),
    ("dblp/name", "28c77f705353089c"),
    ("dblp/search name", "4cb63af476525038"),
    ("dblp/texas", "cbf29ce484222325"),
    ("dblp/zzz missing everywhere", "cbf29ce484222325"),
    ("auction/store texas", "cbf29ce484222325"),
    ("auction/houston jeans", "cbf29ce484222325"),
    ("auction/woman outwear", "cbf29ce484222325"),
    ("auction/texas apparel retailer", "cbf29ce484222325"),
    ("auction/retailer apparel", "cbf29ce484222325"),
    ("auction/clothes man", "cbf29ce484222325"),
    ("auction/city houston", "6dee07319bce474c"),
    ("auction/store name", "cbf29ce484222325"),
    ("auction/casual children", "cbf29ce484222325"),
    ("auction/dallas suit", "cbf29ce484222325"),
    ("auction/state ohio", "0d1b6a818408c3c6"),
    ("auction/paper sigmod", "cbf29ce484222325"),
    ("auction/author vldb", "cbf29ce484222325"),
    ("auction/keyword search xml", "cbf29ce484222325"),
    ("auction/query ranking", "cbf29ce484222325"),
    ("auction/title query", "cbf29ce484222325"),
    ("auction/year 2005", "cbf29ce484222325"),
    ("auction/venue icde", "cbf29ce484222325"),
    ("auction/author name", "cbf29ce484222325"),
    ("auction/open auction item", "735f636b4957d508"),
    ("auction/gold watch seller", "d1b9f2a1f7f3cba4"),
    ("auction/item description", "d9033174571b7f1b"),
    ("auction/person name", "8f119930716a9dc1"),
    ("auction/bidder date", "44b57ede7b72d95b"),
    ("auction/silver coin", "801f17826e303bfa"),
    ("auction/location houston", "1d93b78ec56917f9"),
    ("auction/payment cash", "f60ce5496c1b571e"),
    ("auction/name", "6106b719df247c98"),
    ("auction/search name", "cbf29ce484222325"),
    ("auction/texas", "a8d55b55db0306e1"),
    ("auction/zzz missing everywhere", "cbf29ce484222325"),
    ("bench/store texas", "25dcaae4a5b85685"),
    ("bench/houston jeans", "5933eb897ae38bc2"),
    ("bench/woman outwear", "99cd1b80569073c0"),
    ("bench/texas apparel retailer", "8cedc75de5a26e09"),
    ("bench/retailer apparel", "df08587b965741fc"),
    ("bench/clothes man", "9c4714c21169cb7f"),
    ("bench/city houston", "2f0dce9f88238a26"),
    ("bench/store name", "17d75672a4da461c"),
    ("bench/casual children", "c3912cf686dcc6f4"),
    ("bench/dallas suit", "98cb3842379bbe01"),
    ("bench/state ohio", "4f4554f4f0965487"),
    ("bench/paper sigmod", "1de61fc88ab2766b"),
    ("bench/author vldb", "c850916e04f1b0b1"),
    ("bench/keyword search xml", "f612824fe52026a7"),
    ("bench/query ranking", "e54b979797d663d0"),
    ("bench/title query", "a5b266f2be39e8b4"),
    ("bench/year 2005", "ebe29e7ac2ed18d5"),
    ("bench/venue icde", "81591e7350074685"),
    ("bench/author name", "3ec8d812c49a97a0"),
    ("bench/open auction item", "57fa48f4051a6360"),
    ("bench/gold watch seller", "9720d6ee85a5a24e"),
    ("bench/item description", "891cc7ee44b3eeef"),
    ("bench/person name", "214f627e1ac0d276"),
    ("bench/bidder date", "67741d00d41e1094"),
    ("bench/silver coin", "b8983b70563b5f07"),
    ("bench/location houston", "0220440b67f92c48"),
    ("bench/payment cash", "4a05d255accc04cb"),
    ("bench/name", "99c3c33faad50089"),
    ("bench/search name", "5630acb5b01b9083"),
    ("bench/texas", "38a99f373f6570b9"),
    ("bench/zzz missing everywhere", "cbf29ce484222325"),
];
