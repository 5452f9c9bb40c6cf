//! Reading the daemons' own instruments from outside: the Prometheus
//! text exposition on `/metrics` and the JSON counters on `/stats`.
//! Per-layer metrics are deltas between two scrapes around the window.

use extract_serve::json::{self, Value};

/// One sample line of a Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (with `_sum` / `_count` / `_bucket` suffixes as written).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed `/metrics` body.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
}

impl Exposition {
    /// Parse exposition text. Comment lines and lines that do not parse
    /// are skipped: a scrape must never take the harness down.
    pub fn parse(text: &str) -> Exposition {
        Exposition {
            samples: text.lines().filter_map(parse_sample).collect(),
        }
    }

    /// The value of the sample called `name` whose labels include every
    /// pair in `labels` (0 when absent: a histogram that never sampled a
    /// stage writes no line for it).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map_or(0.0, |s| s.value)
    }
}

fn parse_sample(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other.parse().ok()?,
    };
    let (name, labels) = match series.split_once('{') {
        None => (series, Vec::new()),
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes inside values.
fn parse_labels(mut rest: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            let (at, c) = chars.next()?;
            match c {
                '"' => break at,
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                other => value.push(other),
            }
        };
        labels.push((key.trim().to_string(), value));
        rest = after[end + 1..].trim_start_matches(',');
    }
    Some(labels)
}

/// A parsed `/stats` body.
#[derive(Debug, Clone)]
pub struct Stats(Value);

impl Stats {
    /// Parse a `/stats` JSON body.
    pub fn parse(body: &str) -> Result<Stats, String> {
        json::parse(body)
            .map(Stats)
            .map_err(|e| format!("/stats: {e}"))
    }

    /// The unsigned counter at `path` (0 when the path is absent).
    pub fn u64(&self, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(&self.0, |value, key| value.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `serve --gen-docs 6` after a handful of searches
    /// (abridged to the families the harness reads).
    const METRICS: &str = "\
# HELP extract_server_shed_queue_full_total Requests shed with 503 (queue full).
# TYPE extract_server_shed_queue_full_total counter
extract_server_shed_queue_full_total 0
# HELP extract_server_served_ok_total Requests answered 2xx.
# TYPE extract_server_served_ok_total counter
extract_server_served_ok_total 17
# TYPE extract_request_stage_duration_seconds histogram
extract_request_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.000016384\"} 12
extract_request_stage_duration_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 17
extract_request_stage_duration_seconds_sum{stage=\"parse\"} 0.000204113
extract_request_stage_duration_seconds_count{stage=\"parse\"} 17
extract_request_stage_duration_seconds_sum{stage=\"search\"} 0.004512
extract_request_stage_duration_seconds_count{stage=\"search\"} 5
extract_request_stage_quantile_seconds{stage=\"parse\",quantile=\"0.5\"} 0.000016384
extract_cache_events_total{cache=\"corpus_page_cache\",event=\"hit\"} 9
extract_cache_events_total{cache=\"corpus_page_cache\",event=\"miss\"} 5
extract_corpus_epoch 3
weird{label=\"a \\\"quoted\\\" value, with comma\",other=\"x\"} 1.5
this line is not a sample
";

    #[test]
    fn exposition_samples_are_found_by_name_and_labels() {
        let expo = Exposition::parse(METRICS);
        assert_eq!(expo.samples.len(), 13);
        assert_eq!(expo.get("extract_server_served_ok_total", &[]), 17.0);
        assert_eq!(
            expo.get(
                "extract_request_stage_duration_seconds_sum",
                &[("stage", "parse")]
            ),
            0.000204113
        );
        assert_eq!(
            expo.get(
                "extract_request_stage_duration_seconds_count",
                &[("stage", "search")]
            ),
            5.0
        );
        assert_eq!(
            expo.get(
                "extract_cache_events_total",
                &[("cache", "corpus_page_cache"), ("event", "miss")]
            ),
            5.0
        );
        assert_eq!(
            expo.get(
                "extract_request_stage_duration_seconds_bucket",
                &[("le", "+Inf")]
            ),
            17.0
        );
        assert_eq!(expo.get("extract_corpus_epoch", &[]), 3.0);
        // Absent series read 0 (a stage that never ran writes no sum).
        assert_eq!(
            expo.get(
                "extract_request_stage_duration_seconds_sum",
                &[("stage", "snippet")]
            ),
            0.0
        );
        assert_eq!(
            expo.get("weird", &[("label", "a \"quoted\" value, with comma")]),
            1.5
        );
    }

    /// Captured from the same daemon's `/stats` (abridged).
    const STATS: &str = r#"{"server":{"accepted":4,"admitted":17,"shed_queue_full":0,
        "shed_per_client":0,"served_ok":17},"session":{"engines_cached":6,
        "page_cache":{"hits":0,"misses":0,"evictions":0},
        "corpus_page_cache":{"hits":9,"misses":5,"evictions":2},
        "snippet_cache":{"hits":11,"misses":30,"evictions":0}},
        "corpus":{"documents":6,"total_nodes":12345,"rejected":0,"rejected_dropped":0,"epoch":3}}"#;

    #[test]
    fn stats_counters_are_read_by_path() {
        let stats = Stats::parse(STATS).expect("parses");
        assert_eq!(stats.u64(&["session", "corpus_page_cache", "hits"]), 9);
        assert_eq!(stats.u64(&["session", "corpus_page_cache", "evictions"]), 2);
        assert_eq!(stats.u64(&["corpus", "epoch"]), 3);
        assert_eq!(stats.u64(&["server", "shed_queue_full"]), 0);
        assert_eq!(stats.u64(&["router", "retries"]), 0, "absent paths read 0");
        assert!(Stats::parse("not json").is_err());
    }
}
