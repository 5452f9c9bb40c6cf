//! extract-obs — dependency-free observability for the eXtract serving
//! tier.
//!
//! Six pieces, each `std`-only and allocation-free on the hot path:
//!
//! - [`hist`] — lock-free log₂-bucketed latency [`Histogram`]s with
//!   mergeable [`Snapshot`]s and pinned quantile error bounds.
//! - [`stage`] — the per-request [`Stage`] pipeline and a thread-local
//!   span accumulator ([`time_stage`]) that lets the session/app layers
//!   report search/snippet/serialize spans without new plumbing.
//! - [`trace`] — [`TraceId`] minting, the `X-Trace-Id` wire contract
//!   and hex parsing, for following one request across the
//!   router → shard hop.
//! - [`flight`] — a preallocated ring of the last N [`TraceRecord`]s
//!   (the *flight recorder*) behind `/debug/traces`.
//! - [`expo`] — Prometheus text exposition (format 0.0.4) rendering
//!   for `/metrics` on both daemons.
//! - [`mutation`] — [`MutationObs`], the write path's histograms: what an
//!   ingest or a delete cost, by phase.
//!
//! [`RequestObs`] ties them together: one per daemon, fed a
//! [`TraceRecord`] per completed request; it maintains the stage and
//! total histograms, the flight recorder, and emits a structured
//! `key=value` log line for requests over the slow threshold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod flight;
pub mod hist;
pub mod mutation;
pub mod stage;
pub mod trace;

pub use expo::PromWriter;
pub use flight::{FlightRecorder, TraceRecord};
pub use hist::{Histogram, Snapshot};
pub use mutation::{MutationObs, MutationOp, MutationPhase};
pub use stage::{
    elapsed_ns, is_enabled, set_enabled, stage_add, time_stage, trace_begin, trace_take, Stage,
    STAGES,
};
pub use trace::{TraceId, TRACE_HEADER};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquire a mutex, recovering from poisoning instead of panicking. Every
/// mutex in the serving tier — caches, the live corpus's writer and
/// published snapshot, connection pools, breakers, the flight recorder —
/// guards state that is valid at every statement boundary, so whatever
/// panicked while holding the guard, the next request is better served by
/// the data as it stands than by a cascade of poisoned-lock panics. xlint's
/// lock-order lint knows this helper by name (`[lock-order] lock-fns`),
/// called bare or path-qualified.
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-daemon request observability: stage + total latency histograms,
/// the flight recorder, and slow-request logging. One instance lives
/// for the daemon's lifetime; [`observe`](RequestObs::observe) is called
/// once per completed request.
#[derive(Debug)]
pub struct RequestObs {
    /// One histogram per [`Stage`], indexed by [`Stage::index`].
    stages: [Histogram; STAGES],
    /// End-to-end request latency.
    total: Histogram,
    recorder: FlightRecorder,
    slow_threshold_ns: u64,
}

impl RequestObs {
    /// A fresh instance keeping the last `trace_capacity` traces and
    /// logging requests slower than `slow_threshold`.
    pub fn new(trace_capacity: usize, slow_threshold: std::time::Duration) -> RequestObs {
        RequestObs {
            stages: std::array::from_fn(|_| Histogram::new()),
            total: Histogram::new(),
            recorder: FlightRecorder::new(trace_capacity),
            slow_threshold_ns: u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Fold one completed request in: total + per-stage histograms (a
    /// stage that did not run — 0 ns — is not sampled, so mixed traffic
    /// like `/healthz` does not drag the search percentiles to zero),
    /// the flight recorder, and — above the slow threshold — one
    /// structured `key=value` line on stderr tagged with the trace ID.
    pub fn observe(&self, record: TraceRecord) {
        self.total.record(record.total_ns);
        for stage in Stage::ALL {
            let ns = record.stage(stage);
            if ns > 0 {
                if let Some(h) = self.stages.get(stage.index()) {
                    h.record(ns);
                }
            }
        }
        let seq = self.recorder.record(record);
        if record.total_ns >= self.slow_threshold_ns {
            let mut line = format!(
                "obs: slow_request trace={} seq={seq} route={} status={} total_ns={}",
                record.id, record.route, record.status, record.total_ns
            );
            for stage in Stage::ALL {
                let ns = record.stage(stage);
                if ns > 0 {
                    use std::fmt::Write as _;
                    let _ = write!(line, " {}_ns={ns}", stage.name());
                }
            }
            eprintln!("{line}");
        }
    }

    /// The latency histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        // The array is indexed by Stage::index, which is < STAGES by
        // construction; fall back to `total` rather than panicking.
        self.stages.get(stage.index()).unwrap_or(&self.total)
    }

    /// The end-to-end latency histogram.
    pub fn total_histogram(&self) -> &Histogram {
        &self.total
    }

    /// The flight recorder's current contents, oldest first.
    pub fn traces(&self) -> Vec<TraceRecord> {
        self.recorder.snapshot()
    }

    /// How many traces the flight recorder keeps.
    pub fn trace_capacity(&self) -> usize {
        self.recorder.capacity()
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Emit the request-latency metric families into `w` (both daemons'
    /// `/metrics` route): per-stage duration histograms, per-stage
    /// quantile gauges, and the end-to-end histogram — all in seconds.
    /// Each stage is snapshotted once, so its histogram and its
    /// quantiles describe the same point in time.
    pub fn write_metrics(&self, w: &mut PromWriter) {
        let stage_snaps: [Snapshot; STAGES] =
            std::array::from_fn(|i| match Stage::ALL.get(i) {
                Some(stage) => self.stage_histogram(*stage).snapshot(),
                None => Snapshot::default(),
            });
        let snap_of = |stage: Stage| {
            stage_snaps.get(stage.index()).copied().unwrap_or_default()
        };
        w.help(
            "extract_request_stage_duration_seconds",
            "Per-stage request latency (stages that did not run are not sampled).",
        );
        w.type_("extract_request_stage_duration_seconds", "histogram");
        for stage in Stage::ALL {
            w.histogram(
                "extract_request_stage_duration_seconds",
                &[("stage", stage.name())],
                &snap_of(stage),
                1e-9,
            );
        }
        w.help(
            "extract_request_stage_quantile_seconds",
            "Per-stage latency quantile estimates (log2-bucket upper bounds).",
        );
        w.type_("extract_request_stage_quantile_seconds", "gauge");
        for stage in Stage::ALL {
            let snap = snap_of(stage);
            for (label, q) in
                [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)]
            {
                if let Some(ns) = snap.quantile(q) {
                    w.sample_f64(
                        "extract_request_stage_quantile_seconds",
                        &[("stage", stage.name()), ("quantile", label)],
                        ns as f64 * 1e-9,
                    );
                }
            }
        }
        w.help("extract_request_duration_seconds", "End-to-end request latency.");
        w.type_("extract_request_duration_seconds", "histogram");
        w.histogram(
            "extract_request_duration_seconds",
            &[],
            &self.total.snapshot(),
            1e-9,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn observe_updates_histograms_and_flight_recorder() {
        let obs = RequestObs::new(4, Duration::from_secs(3600));
        let mut stage_ns = [0u64; STAGES];
        stage_ns[Stage::Search.index()] = 1000;
        stage_ns[Stage::Snippet.index()] = 500;
        obs.observe(TraceRecord {
            id: TraceId::mint(),
            seq: 0,
            route: "/search",
            status: 200,
            stage_ns,
            total_ns: 1600,
        });
        assert_eq!(obs.total_histogram().snapshot().count(), 1);
        assert_eq!(obs.stage_histogram(Stage::Search).snapshot().count(), 1);
        assert_eq!(obs.stage_histogram(Stage::Snippet).snapshot().count(), 1);
        // Stages that did not run are not sampled.
        assert!(obs.stage_histogram(Stage::Parse).snapshot().is_empty());
        let traces = obs.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces.first().map(|t| t.stage(Stage::Search)), Some(1000));
    }
}
