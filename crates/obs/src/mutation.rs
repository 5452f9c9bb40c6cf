//! What a corpus mutation cost, phase by phase — the write path's
//! counterpart of the per-request [`Stage`](crate::Stage) histograms.
//!
//! An ingest is *parse → index → publish → invalidate*; a delete neither
//! parses nor indexes. [`MutationObs`] keeps one [`Histogram`] per
//! `(op, phase)` pair that can occur and renders them as one family,
//! `extract_mutation_duration_seconds{op,phase}`.

use std::time::Duration;

use crate::{Histogram, PromWriter};

/// The kind of mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Add or update one document.
    Ingest,
    /// Remove one document.
    Delete,
}

/// One phase of a mutation, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationPhase {
    /// XML parse of the ingested document.
    Parse,
    /// Building the document's index segment.
    Index,
    /// Writer lock, slot bookkeeping, directory edit, snapshot swap.
    Publish,
    /// Purging the serving caches of what the mutation made stale.
    Invalidate,
}

/// Every `(op, phase)` series, in exposition order.
const SERIES: [(MutationOp, MutationPhase); 6] = [
    (MutationOp::Ingest, MutationPhase::Parse),
    (MutationOp::Ingest, MutationPhase::Index),
    (MutationOp::Ingest, MutationPhase::Publish),
    (MutationOp::Ingest, MutationPhase::Invalidate),
    (MutationOp::Delete, MutationPhase::Publish),
    (MutationOp::Delete, MutationPhase::Invalidate),
];

impl MutationOp {
    /// The `op` label value.
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::Ingest => "ingest",
            MutationOp::Delete => "delete",
        }
    }
}

impl MutationPhase {
    /// The `phase` label value.
    pub fn name(self) -> &'static str {
        match self {
            MutationPhase::Parse => "parse",
            MutationPhase::Index => "index",
            MutationPhase::Publish => "publish",
            MutationPhase::Invalidate => "invalidate",
        }
    }
}

/// Per-daemon mutation-cost histograms; one instance lives as long as the
/// app that applies the mutations.
#[derive(Debug)]
pub struct MutationObs {
    /// Parallel to [`SERIES`].
    durations: [Histogram; SERIES.len()],
}

impl Default for MutationObs {
    fn default() -> Self {
        MutationObs::new()
    }
}

impl MutationObs {
    /// Empty histograms.
    pub fn new() -> MutationObs {
        MutationObs { durations: std::array::from_fn(|_| Histogram::new()) }
    }

    /// Record that `phase` of one `op` took `took`. A pair that cannot
    /// occur (a delete's parse) is ignored.
    pub fn record(&self, op: MutationOp, phase: MutationPhase, took: Duration) {
        let series = SERIES.iter().position(|&s| s == (op, phase));
        if let Some(histogram) = series.and_then(|i| self.durations.get(i)) {
            histogram.record(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Emit `extract_mutation_duration_seconds` — every series, sampled or
    /// not, so a scrape can tell "no mutation yet" from "not exported".
    pub fn write_metrics(&self, w: &mut PromWriter) {
        const NAME: &str = "extract_mutation_duration_seconds";
        w.help(NAME, "Corpus mutation latency by operation and phase.");
        w.type_(NAME, "histogram");
        for ((op, phase), histogram) in SERIES.iter().zip(&self.durations) {
            let labels = [("op", op.name()), ("phase", phase.name())];
            w.histogram(NAME, &labels, &histogram.snapshot(), 1e-9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_phase_lands_in_its_own_series() {
        let obs = MutationObs::new();
        obs.record(MutationOp::Ingest, MutationPhase::Parse, Duration::from_micros(400));
        obs.record(MutationOp::Delete, MutationPhase::Publish, Duration::from_micros(90));
        obs.record(MutationOp::Delete, MutationPhase::Publish, Duration::from_micros(110));
        obs.record(MutationOp::Delete, MutationPhase::Parse, Duration::from_micros(1));
        let mut w = PromWriter::new();
        obs.write_metrics(&mut w);
        let body = w.finish();
        let count = |op: &str, phase: &str| {
            let line = format!(
                "extract_mutation_duration_seconds_count{{op=\"{op}\",phase=\"{phase}\"}} "
            );
            body.lines().find_map(|l| l.strip_prefix(&line).map(str::to_string))
        };
        assert_eq!(count("ingest", "parse").as_deref(), Some("1"));
        assert_eq!(count("ingest", "index").as_deref(), Some("0"), "exported before sampled");
        assert_eq!(count("delete", "publish").as_deref(), Some("2"));
        assert_eq!(count("delete", "parse"), None, "a delete never parses");
        assert_eq!(body.matches("# TYPE").count(), 1, "one family");
    }
}
