//! Noise tooling: a **set** is the end-to-end metrics of several runs of
//! each workload (`--repeat N --save FILE`); `--compare A.json B.json`
//! lines two sets up, per (workload, metric), against the regression
//! bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use extract_serve::json::{self, JsonWriter, Value};

use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats;

/// The end-to-end metrics of repeated runs: workload → metric → one
/// value per run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl Set {
    /// Add one run's value of `metric` on `workload`.
    pub fn push(&mut self, workload: &str, metric: &str, value: f64) {
        self.values
            .entry(workload.to_string())
            .or_default()
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    /// Every run's value of `metric` on `workload`.
    pub fn get(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }

    /// Serialize: `{"workload": {"metric": [v, …]}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_begin();
        for (workload, metrics) in &self.values {
            w.key(workload);
            w.obj_begin();
            for (metric, values) in metrics {
                w.key(metric);
                w.arr_begin();
                values.iter().for_each(|v| w.num_f64(*v));
                w.arr_end();
            }
            w.obj_end();
        }
        w.obj_end();
        w.finish()
    }

    /// Parse what [`Set::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<Set, String> {
        let Value::Obj(workloads) = json::parse(text).map_err(|e| e.to_string())? else {
            return Err("a set file is a JSON object".into());
        };
        let mut set = Set::default();
        for (workload, metrics) in &workloads {
            let Value::Obj(metrics) = metrics else {
                continue;
            };
            for (metric, values) in metrics {
                for value in values
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Value::as_f64)
                {
                    set.push(workload, metric, value);
                }
            }
        }
        Ok(set)
    }
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let spec = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// How set B stands against set A on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own spread.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's spread is wider than the bound: the pair cannot be judged.
    Unresolved,
    /// Within the bound either way.
    Same,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// Judge B against A. `worse` is the share of A's median by which B's is
/// worse (negative when better), in the metric's own direction. The
/// driver judges every metric's spread but the set-up time's; so does
/// this when told the metric's `spread_counts`.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: &str,
    bound: f64,
    spread_counts: bool,
) -> (f64, Verdict) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let change = if med_a == 0.0 {
        0.0
    } else {
        (med_b - med_a) / med_a
    };
    let worse = if better == "higher" { -change } else { change };
    let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
    let verdict = if spread_counts && spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread_a {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse, verdict)
}

/// The comparison table of two sets; returns the text and whether any
/// pair regressed or could not be resolved.
pub fn table(a: &Set, b: &Set, bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = format!(
        "{:<13} {:<26} {:>2} {:>11} {:>11} {:>11} {:>7} | {:>2} {:>11} {:>7} | {:>7} {:>6}  verdict\n",
        "workload", "metric", "n", "A.median", "A.q1", "A.q3", "A.sprd", "n", "B.median", "B.sprd",
        "worse", "bound"
    );
    let mut flagged = false;
    for workload in WORKLOADS {
        for &(metric, _, better) in END_TO_END.iter() {
            let (va, vb) = (a.get(workload, metric), b.get(workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let (worse, verdict) = judge(va, vb, better, bound, metric != "setup_s");
            flagged |= matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            let [q1, med, q3] = stats::quartiles(va);
            out.push_str(&format!(
                "{workload:<13} {metric:<26} {:>2} {med:>11.3} {q1:>11.3} {q3:>11.3} {:>6.1}% | {:>2} {:>11.3} {:>6.1}% | {:>+6.1}% {:>5.1}%  {}\n",
                va.len(),
                stats::spread(va) * 100.0,
                vb.len(),
                stats::median(vb),
                stats::spread(vb) * 100.0,
                worse * 100.0,
                bound * 100.0,
                verdict.name(),
            ));
        }
    }
    (out, flagged)
}

/// One set's own table: n, median, quartiles and spread per pair.
pub fn summary(set: &Set, bounds: &BTreeMap<String, f64>, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{:<13} {:<32} {:>2} {:>12} {:>12} {:>12} {:>7} {:>6}\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for workload in WORKLOADS {
        for &(metric, unit, _) in defs {
            let values = set.get(workload, metric);
            if values.is_empty() {
                continue;
            }
            let [q1, med, q3] = stats::quartiles(values);
            out.push_str(&format!(
                "{workload:<13} {:<32} {:>2} {med:>12.3} {q1:>12.3} {q3:>12.3} {:>6.1}% {:>5.1}%\n",
                format!("{metric} [{unit}]"),
                values.len(),
                stats::spread(values) * 100.0,
                bounds.get(metric).copied().unwrap_or(0.0) * 100.0,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_round_trip_through_json() {
        let mut set = Set::default();
        set.push("shard_hot", "throughput_rps", 61234.5);
        set.push("shard_hot", "throughput_rps", 60000.25);
        set.push("router_hot", "search_p50_us", 290.125);
        assert_eq!(Set::from_json(&set.to_json()).expect("parses"), set);
        assert_eq!(set.get("shard_hot", "throughput_rps").len(), 2);
        assert!(set.get("shard_miss", "throughput_rps").is_empty());
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let calm = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Latency up 20 % against a 10 % bound.
        let slow = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(
            judge(&calm, &slow, "lower", 0.10, true).1,
            Verdict::Regressed
        );
        // The same numbers as a throughput are an improvement.
        assert_eq!(judge(&calm, &slow, "higher", 0.10, true).1, Verdict::Better);
        // Down 20 % on a higher-is-better metric.
        assert_eq!(
            judge(&slow, &calm, "higher", 0.10, true).1,
            Verdict::Regressed
        );
        // Within the bound, and within the spread: same.
        let near = [101.0, 102.0, 100.0, 101.0, 101.5];
        assert_eq!(judge(&calm, &near, "lower", 0.10, true).1, Verdict::Same);
        // A set whose own spread exceeds the bound settles nothing.
        let wild = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(
            judge(&calm, &wild, "lower", 0.10, true).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&calm, &wild, "lower", 0.10, false).1, Verdict::Same);
        let (worse, _) = judge(&calm, &slow, "lower", 0.10, true);
        assert!((worse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let spec = r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1},
                       {"name":"throughput_rps","unit":"1/s","better":"higher","bound":0.05}]}"#;
        let bounds = bounds(spec).expect("parses");
        assert_eq!(bounds["setup_s"], 0.1);
        assert_eq!(bounds["throughput_rps"], 0.05);
        assert!(super::bounds("{}").is_err());
    }
}
