//! Everything a run is made of. Two seeds, as in YCSB-style benchmarks:
//! the **dataset** seed fixes the corpus and the key sets (what is
//! served and what can be asked), `--seed` makes the **traffic** (the
//! order keys are asked in, the zipf draws, the documents the writer
//! ingests). Same seeds ⇒ byte-identical inputs. Keeping the dataset
//! fixed keeps the work per request equal across `--seed`s, so the
//! spread between runs is the box's noise, not the luck of a corpus.

use extract_datagen::corpus::CorpusConfig;
use extract_datagen::rng::{seeded, Zipf};
use extract_index::tokens_of;
use extract_serve::http::{percent_encode, MAX_BODY};
use extract_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// Sizes of the generated inputs. The shipped benchmark uses
/// [`Shape::SHIPPED`]; the unit tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Documents in the served corpus.
    pub documents: usize,
    /// Node target per document.
    pub nodes_per_doc: usize,
    /// Distinct hot keys: must fit the daemon's 128-entry page cache.
    pub hot_keys: usize,
    /// Non-overlapping result windows of the miss workload: more than the
    /// page cache (128) and, at ten snippets each, more than the
    /// snippet cache (4 096) can hold, so round-robin never hits.
    pub miss_windows: usize,
    /// Keys the mixed replay's zipf stream draws from.
    pub mixed_keys: usize,
}

impl Shape {
    /// What `BENCHMARK.json` measures.
    pub const SHIPPED: Shape = Shape {
        documents: 48,
        nodes_per_doc: 4_000,
        hot_keys: 32,
        miss_windows: 1_024,
        mixed_keys: 512,
    };
}

/// Page size of every hot and miss key (the daemon's default `k`).
pub const PAGE: usize = 10;
/// Most windows one query contributes to the miss universe, so a single
/// broad query cannot dominate it.
const WINDOWS_PER_QUERY: usize = 16;
/// Length of the pre-drawn zipf stream (cycled by the reader).
const ZIPF_STREAM: usize = 1 << 15;
/// Distinct XML bodies the writer rotates through.
const INGEST_POOL: usize = 6;
/// Stands where a mutation's unique marker token goes in a pooled body.
const MARKER_SLOT: &str = "zzbenchslot";

/// One generated document as it goes to disk and over the wire.
#[derive(Debug, Clone)]
pub struct GeneratedDoc {
    /// File stem = document name inside the daemon.
    pub name: String,
    /// The serialized document.
    pub xml: String,
}

fn corpus_config(seed: u64, shape: &Shape) -> CorpusConfig {
    CorpusConfig {
        documents: shape.documents,
        target_nodes_per_doc: shape.nodes_per_doc,
        seed,
    }
}

/// The served corpus. Names are `NNNN-flavor`, so the daemon's sorted
/// directory walk ingests them in generation order and a split by index
/// is a split by name.
pub fn corpus_docs(seed: u64, shape: &Shape) -> Vec<(GeneratedDoc, Document)> {
    let config = corpus_config(seed, shape);
    (0..shape.documents)
        .map(|i| {
            let (_, doc) = config.document(i);
            let name = format!("{i:04}-{}", config.flavor_of(i).name());
            (
                GeneratedDoc {
                    name,
                    xml: doc.to_xml_string(),
                },
                doc,
            )
        })
        .collect()
}

/// The documents the writer ingests: a small pool of bodies, each with a
/// slot for a per-mutation marker token. A body must fit the daemon's
/// request-body cap ([`MAX_BODY`]), so the node target is halved until
/// it does — the "fresh ~4 k-node document" of the issue does not fit
/// 64 KiB, which is a limit of the program, not of the benchmark.
#[derive(Debug, Clone)]
pub struct IngestPool {
    bodies: Vec<String>,
}

impl IngestPool {
    /// Build the pool for `seed`.
    pub fn new(seed: u64, shape: &Shape) -> IngestPool {
        let bodies = (0..INGEST_POOL)
            .map(|i| {
                let mut nodes = shape.nodes_per_doc;
                loop {
                    let config = CorpusConfig {
                        documents: usize::MAX,
                        target_nodes_per_doc: nodes,
                        seed: seed ^ 0x1A6E_57ED,
                    };
                    let xml = config.document(shape.documents + i).1.to_xml_string();
                    let cut = xml
                        .rfind("</")
                        .expect("a generated document has a root element");
                    let body = format!(
                        "{}<benchmarker>{MARKER_SLOT}</benchmarker>{}",
                        &xml[..cut],
                        &xml[cut..]
                    );
                    // Leave room for the marker's digits.
                    if body.len() + 24 <= MAX_BODY || nodes <= 64 {
                        break body;
                    }
                    nodes /= 2;
                }
            })
            .collect();
        IngestPool { bodies }
    }

    /// Name of the `n`-th ingested document.
    pub fn name(n: usize) -> String {
        format!("bench-ingest-{n}")
    }

    /// The token only the `n`-th ingested document contains.
    pub fn marker(n: usize) -> String {
        format!("zzbench{n}")
    }

    /// The XML body of the `n`-th ingested document.
    pub fn body(&self, n: usize) -> String {
        self.bodies[n % self.bodies.len()].replace(MARKER_SLOT, &IngestPool::marker(n))
    }

    /// Size of the largest pooled body, in bytes.
    #[cfg(test)]
    fn max_body_bytes(&self) -> usize {
        self.bodies.iter().map(String::len).max().unwrap_or(0)
    }
}

/// One `/search` request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// The keyword query.
    pub q: String,
    /// Page size.
    pub k: usize,
    /// Rank of the first served result.
    pub offset: usize,
}

impl Key {
    /// The request target.
    pub fn target(&self) -> String {
        format!(
            "/search?q={}&k={}&offset={}",
            percent_encode(&self.q),
            self.k,
            self.offset
        )
    }
}

/// Queries sampled from the documents themselves: two tokens that
/// co-occur under one element (an entity's label with one of its values,
/// or two of its values), single tokens, plus datagen's fixed query mix.
/// Sorted and de-duplicated, so the result does not depend on sampling
/// order.
pub fn candidate_queries(docs: &[Document], seed: u64, samples: usize) -> Vec<String> {
    let mut rng = seeded(seed ^ 0x5EED_0F51);
    let mut out: Vec<String> = CorpusConfig::query_mix()
        .into_iter()
        .map(str::to_string)
        .collect();
    for _ in 0..samples {
        let doc = &docs[rng.random_range(0..docs.len())];
        if let Some(q) = sample_query(doc, &mut rng) {
            out.push(q);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn sample_query(doc: &Document, rng: &mut StdRng) -> Option<String> {
    // A random node's parent element with text-bearing children: an
    // "entity" whose values co-occur.
    let node = NodeId::from_index(rng.random_range(0..doc.len()));
    let entity = doc.ancestors_or_self(node).find(|&n| {
        doc.element_children(n)
            .filter(|&c| doc.text_of(c).is_some())
            .count()
            >= 2
    })?;
    let fields: Vec<NodeId> = doc
        .element_children(entity)
        .filter(|&c| doc.text_of(c).is_some())
        .collect();
    let pick_token = |field: NodeId, rng: &mut StdRng| -> Option<String> {
        let tokens: Vec<String> = tokens_of(doc.text_of(field)?).collect();
        (!tokens.is_empty()).then(|| tokens[rng.random_range(0..tokens.len())].clone())
    };
    let a = fields[rng.random_range(0..fields.len())];
    let first = pick_token(a, rng)?;
    match rng.random_range(0..3u32) {
        // value + value of the same entity
        0 => {
            let b = fields[rng.random_range(0..fields.len())];
            let second = pick_token(b, rng)?;
            (second != first).then(|| format!("{first} {second}"))
        }
        // entity label + value
        1 => {
            let label = tokens_of(doc.label_str(entity)?).next()?;
            (label != first).then(|| format!("{label} {first}"))
        }
        _ => Some(first),
    }
}

/// The query universe of one seed: the key sets the four workloads and
/// the in-process pass draw from.
#[derive(Debug, Clone)]
pub struct Universe {
    /// `shard_hot` / `router_hot`: full first pages of distinct queries.
    pub hot: Vec<Key>,
    /// `shard_miss`: non-overlapping full windows, shuffled.
    pub miss: Vec<Key>,
    /// `mixed_replay`: keys in zipf rank order.
    pub mixed: Vec<Key>,
}

impl Universe {
    /// Choose the key sets from `queries`, given each query's exact
    /// result total over the corpus (`total_of`). `Err` names what the
    /// corpus could not supply.
    pub fn build(
        seed: u64,
        shape: &Shape,
        queries: &[String],
        mut total_of: impl FnMut(&str) -> usize,
    ) -> Result<Universe, String> {
        let mut rng = seeded(seed ^ 0x0B5E_55ED);
        let totals: Vec<(String, usize)> =
            queries.iter().map(|q| (q.clone(), total_of(q))).collect();

        // Full pages only: every hot or miss request renders PAGE
        // snippets, so the work per request does not hinge on how many
        // thin queries a seed happened to draw.
        let mut full: Vec<&(String, usize)> = totals.iter().filter(|(_, t)| *t >= PAGE).collect();
        shuffle(&mut full, &mut rng);
        if full.len() < shape.hot_keys {
            return Err(format!(
                "only {} queries fill a page of {PAGE}; {} hot keys needed",
                full.len(),
                shape.hot_keys
            ));
        }
        let hot = full[..shape.hot_keys]
            .iter()
            .map(|(q, _)| Key {
                q: q.clone(),
                k: PAGE,
                offset: 0,
            })
            .collect();

        let mut miss = Vec::new();
        for (q, total) in full.iter() {
            for j in 0..(total / PAGE).min(WINDOWS_PER_QUERY) {
                miss.push(Key {
                    q: q.clone(),
                    k: PAGE,
                    offset: PAGE * j,
                });
            }
        }
        if miss.len() < shape.miss_windows {
            return Err(format!(
                "only {} full windows; {} needed",
                miss.len(),
                shape.miss_windows
            ));
        }
        shuffle(&mut miss, &mut rng);
        miss.truncate(shape.miss_windows);

        let answered: Vec<&(String, usize)> = totals.iter().filter(|(_, t)| *t >= 1).collect();
        let mut mixed = Vec::with_capacity(shape.mixed_keys);
        let mut seen = std::collections::BTreeSet::new();
        let mut tries = 0;
        while mixed.len() < shape.mixed_keys {
            tries += 1;
            if tries > shape.mixed_keys * 64 {
                return Err(format!(
                    "{} answered queries cannot make {} distinct mixed keys",
                    answered.len(),
                    shape.mixed_keys
                ));
            }
            let (q, _) = answered[rng.random_range(0..answered.len())];
            let key = Key {
                q: q.clone(),
                k: [5, 10, 20][rng.random_range(0..3usize)],
                offset: [0, 10, 20][rng.random_range(0..3usize)],
            };
            if seen.insert(key.clone()) {
                mixed.push(key);
            }
        }
        Ok(Universe { hot, miss, mixed })
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The order in which connection `conn` of `conns` walks `keys` keys on
/// the hot workloads: its own seeded permutation, cycled.
pub fn hot_stream(seed: u64, conn: usize, keys: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys as u32).collect();
    shuffle(&mut order, &mut seeded(seed ^ (0xC0_44 + conn as u64)));
    order
}

/// The miss workload's round-robin: a seeded order of all windows. The
/// warm-up walks it too, so when the window starts the cycle over, what
/// the caches still hold is what will be asked for last.
pub fn miss_order(seed: u64, windows: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..windows as u32).collect();
    shuffle(&mut order, &mut seeded(seed ^ 0x0001_55ED));
    order
}

/// [`miss_order`] dealt across connections — connection `conn` owns every
/// `conns`-th window — so no window is requested twice within one cycle
/// of the whole universe.
pub fn miss_stream(seed: u64, conn: usize, conns: usize, windows: usize) -> Vec<u32> {
    miss_order(seed, windows)
        .into_iter()
        .skip(conn)
        .step_by(conns)
        .collect()
}

/// The mixed replay's read stream: zipf(1.0) ranks over `keys` keys.
pub fn zipf_stream(seed: u64, keys: usize) -> Vec<u32> {
    let zipf = Zipf::new(keys, 1.0);
    let mut rng = seeded(seed ^ 0x21_BF);
    (0..ZIPF_STREAM)
        .map(|_| zipf.sample(&mut rng) as u32)
        .collect()
}

/// One step of the writer's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `POST /ingest` of harness document `n`.
    Ingest(usize),
    /// `POST /delete` of harness document `n`.
    Delete(usize),
}

/// The writer's script: ingest document 0, then alternate "ingest the
/// next, delete the oldest", so one or two harness documents are live at
/// any time, the corpus size stays level, and when the writer stops the
/// last ingested document is live while the last deleted one is gone.
pub fn mutation_at(step: usize) -> Mutation {
    if step == 0 {
        Mutation::Ingest(0)
    } else if step % 2 == 1 {
        Mutation::Ingest(step.div_ceil(2))
    } else {
        Mutation::Delete(step / 2 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        documents: 6,
        nodes_per_doc: 600,
        hot_keys: 4,
        miss_windows: 24,
        mixed_keys: 16,
    };

    fn universe(seed: u64) -> Universe {
        let docs: Vec<Document> = corpus_docs(seed, &SMALL)
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        let queries = candidate_queries(&docs, seed, 200);
        // A stand-in for the corpus search: a deterministic total per query.
        Universe::build(seed, &SMALL, &queries, |q| 10 + q.len() * 7).expect("universe")
    }

    #[test]
    fn same_seed_same_script() {
        let (a, b) = (universe(7), universe(7));
        assert_eq!(a.hot, b.hot);
        assert_eq!(a.miss, b.miss);
        assert_eq!(a.mixed, b.mixed);
        assert_eq!(zipf_stream(7, 16), zipf_stream(7, 16));
        assert_eq!(hot_stream(7, 1, 32), hot_stream(7, 1, 32));
        let docs = |s| -> Vec<String> {
            corpus_docs(s, &SMALL)
                .into_iter()
                .map(|(d, _)| d.xml)
                .collect()
        };
        assert_eq!(docs(7), docs(7));
        assert_eq!(
            IngestPool::new(7, &SMALL).body(3),
            IngestPool::new(7, &SMALL).body(3)
        );
    }

    #[test]
    fn different_seed_different_script() {
        let (a, b) = (universe(7), universe(8));
        assert_ne!(a.hot, b.hot);
        assert_ne!(a.miss, b.miss);
        assert_ne!(a.mixed, b.mixed);
        assert_ne!(zipf_stream(7, 16), zipf_stream(8, 16));
        assert_ne!(hot_stream(7, 0, 32), hot_stream(8, 0, 32));
        assert_ne!(
            hot_stream(7, 0, 32),
            hot_stream(7, 1, 32),
            "connections walk differently"
        );
    }

    #[test]
    fn zipf_stream_is_skewed_and_in_range() {
        let stream = zipf_stream(3, 512);
        assert_eq!(stream.len(), ZIPF_STREAM);
        assert!(stream.iter().all(|&r| r < 512));
        let top = stream.iter().filter(|&&r| r == 0).count();
        let mid = stream.iter().filter(|&&r| r == 100).count();
        assert!(
            top > 20 * mid.max(1),
            "rank 0 drawn {top}×, rank 100 {mid}×"
        );
    }

    #[test]
    fn universe_shapes_hold() {
        let u = universe(11);
        assert_eq!(u.hot.len(), SMALL.hot_keys);
        assert_eq!(u.miss.len(), SMALL.miss_windows);
        assert_eq!(u.mixed.len(), SMALL.mixed_keys);
        let distinct: std::collections::BTreeSet<_> = u.miss.iter().collect();
        assert_eq!(distinct.len(), u.miss.len(), "miss windows never repeat");
        assert!(u.miss.iter().all(|k| k.k == PAGE && k.offset % PAGE == 0));
        let hot_queries: std::collections::BTreeSet<_> = u.hot.iter().map(|k| &k.q).collect();
        assert_eq!(
            hot_queries.len(),
            u.hot.len(),
            "hot keys are distinct queries"
        );
    }

    #[test]
    fn miss_streams_partition_the_universe() {
        let (a, b) = (miss_stream(5, 0, 2, 9), miss_stream(5, 1, 2, 9));
        assert_eq!((a.len(), b.len()), (5, 4));
        let mut all: Vec<u32> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..9).collect::<Vec<u32>>(),
            "every window exactly once per cycle"
        );
        assert_ne!(miss_stream(5, 0, 2, 64), miss_stream(6, 0, 2, 64));
    }

    #[test]
    fn writer_script_keeps_the_corpus_level() {
        use Mutation::{Delete, Ingest};
        let steps: Vec<Mutation> = (0..7).map(mutation_at).collect();
        assert_eq!(
            steps,
            [
                Ingest(0),
                Ingest(1),
                Delete(0),
                Ingest(2),
                Delete(1),
                Ingest(3),
                Delete(2)
            ]
        );
        // Wherever the writer stops, every delete names an earlier ingest
        // and at most two harness documents are live.
        let mut live = std::collections::BTreeSet::new();
        for step in 0..200 {
            match mutation_at(step) {
                Ingest(n) => assert!(live.insert(n)),
                Delete(n) => assert!(live.remove(&n)),
            }
            assert!((1..=2).contains(&live.len()));
        }
    }

    #[test]
    fn ingest_bodies_fit_the_daemon_cap_and_carry_their_marker() {
        let pool = IngestPool::new(5, &Shape::SHIPPED);
        assert!(pool.max_body_bytes() + 24 <= MAX_BODY);
        for n in [0, 1, 7, 1234] {
            let body = pool.body(n);
            assert!(body.contains(&IngestPool::marker(n)));
            assert!(!body.contains(MARKER_SLOT));
            assert!(Document::parse_str(&body).is_ok());
        }
    }

    #[test]
    fn key_targets_are_percent_encoded() {
        let key = Key {
            q: "store texas".into(),
            k: 10,
            offset: 20,
        };
        assert_eq!(key.target(), "/search?q=store%20texas&k=10&offset=20");
    }
}
