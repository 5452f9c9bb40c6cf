//! The reference every loopback answer is checked against: an
//! in-process [`LiveSearchApp`] over the same documents, ingested in the
//! same order and configured like the `serve` binary's defaults, so a
//! daemon's `/search` body must equal the oracle's byte for byte.

use std::sync::Arc;

use extract::live::LiveSearchApp;
use extract::serve::SearchAppConfig;
use extract::QuerySession;
use extract_core::ExtractConfig;
use extract_corpus::{CorpusBuilder, LiveCorpus};
use extract_serve::Request;

use crate::script::{GeneratedDoc, Key};

/// Cache capacity every daemon runs with (`--cache 4096`).
pub const CACHE: usize = 4096;

/// The `serve` binary's default application config.
pub fn app_config() -> SearchAppConfig {
    SearchAppConfig {
        snippet: ExtractConfig::with_bound(10),
        default_k: 10,
        max_k: 100,
    }
}

/// A `GET /search` request as the HTTP layer would hand it to the app.
pub fn search_request(key: &Key) -> Request {
    Request {
        method: "GET".to_string(),
        path: "/search".to_string(),
        query: vec![
            ("q".to_string(), key.q.clone()),
            ("k".to_string(), key.k.to_string()),
            ("offset".to_string(), key.offset.to_string()),
        ],
        http11: true,
        keep_alive: true,
        trace_id: None,
        body: Vec::new(),
    }
}

/// The in-process reference app.
#[derive(Debug)]
pub struct Oracle {
    /// The app; the in-process pass also times calls into it.
    pub app: LiveSearchApp,
}

impl Oracle {
    /// Build over `docs` the way `serve --corpus DIR` does: names sorted,
    /// XML parsed by the corpus builder.
    pub fn build(docs: &[GeneratedDoc]) -> Result<Oracle, String> {
        let mut sorted: Vec<&GeneratedDoc> = docs.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut builder = CorpusBuilder::new();
        for doc in sorted {
            builder
                .add_document(&doc.name, &doc.xml)
                .map_err(|e| format!("oracle: {e}"))?;
        }
        let live = LiveCorpus::from_corpus(builder.finish());
        Ok(Oracle {
            app: LiveSearchApp::new(live, app_config(), CACHE),
        })
    }

    /// The exact number of results `q` has over the corpus.
    pub fn total(&self, q: &str) -> usize {
        let snapshot = self.app.corpus().snapshot();
        let session = QuerySession::for_snapshot(&snapshot, 1, Arc::clone(self.app.caches()));
        session
            .answer_corpus_topk(q, &app_config().snippet, 1, 0)
            .total
    }

    /// The body a single daemon over the whole corpus must answer `key` with.
    pub fn body(&self, key: &Key) -> Vec<u8> {
        self.app.handle(&search_request(key)).body
    }
}

/// The body the router must answer with, given the union daemon's: the
/// same bytes up to the closing brace, then the router's own
/// `partial` / `shards` fields saying every shard answered.
pub fn router_body(union: &[u8], shards: usize) -> Vec<u8> {
    let mut out = union.strip_suffix(b"}").unwrap_or(union).to_vec();
    out.extend_from_slice(
        format!(",\"partial\":false,\"shards\":{{\"queried\":{shards},\"answered\":{shards}}}}}")
            .as_bytes(),
    );
    out
}

/// The leading bytes of any `/search` body for `key`, whatever the
/// corpus epoch: enough to tell a right answer to the wrong question.
pub fn body_prefix(key: &Key) -> Vec<u8> {
    let mut w = extract_serve::JsonWriter::new();
    w.obj_begin();
    w.key("query");
    w.str(&key.q);
    w.key("k");
    w.num_u64(key.k as u64);
    w.key("offset");
    w.num_u64(key.offset as u64);
    w.key("total");
    w.num_u64(0);
    w.obj_end();
    let text = w.finish();
    // Keep everything up to and including `"total":`.
    let cut = text
        .rfind("\"total\":")
        .map_or(text.len(), |at| at + "\"total\":".len());
    text.as_bytes()[..cut].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_body_appends_the_shard_tally() {
        let union = br#"{"query":"x","k":10,"offset":0,"total":0,"count":0,"results":[]}"#;
        assert_eq!(
            router_body(union, 2),
            br#"{"query":"x","k":10,"offset":0,"total":0,"count":0,"results":[],"partial":false,"shards":{"queried":2,"answered":2}}"#
        );
    }

    #[test]
    fn oracle_answers_and_prefix_agree() {
        let docs = vec![
            GeneratedDoc {
                name: "0001-b".into(),
                xml: "<stores><store><name>Levis</name><state>Texas</state></store></stores>"
                    .into(),
            },
            GeneratedDoc {
                name: "0000-a".into(),
                xml: "<dblp><paper><title>texas \"snippets\"</title></paper></dblp>".into(),
            },
        ];
        let oracle = Oracle::build(&docs).expect("builds");
        assert_eq!(oracle.total("texas"), 2);
        assert_eq!(oracle.total("zzz"), 0);
        let key = Key {
            q: "texas".into(),
            k: 10,
            offset: 0,
        };
        let body = oracle.body(&key);
        assert!(
            body.starts_with(&body_prefix(&key)),
            "{}",
            String::from_utf8_lossy(&body)
        );
        let text = String::from_utf8(body).unwrap();
        // Sorted ingestion: 0000-a is doc 0.
        assert!(text.contains("\"doc\":\"0000-a\",\"doc_id\":0"), "{text}");
    }
}
