//! Per-request stage timing: the six spans of a request's life and the
//! thread-local accumulator that lets layers report spans without
//! threading a context object through every signature.
//!
//! The server owns the outer spans (`parse`, `queue`, `write`); the
//! application owns the inner ones (`search`, `snippet`, `serialize`)
//! and reports them by wrapping the work in [`time_stage`]. The server
//! calls [`trace_begin`] before invoking the handler and [`trace_take`]
//! after the response is written; whatever the handler's thread timed in
//! between lands in the same trace. This works because a handler runs
//! its stages on the worker thread that called it — work it fans out to
//! other threads (the router's scatter) is timed as one span by the
//! handler instead.
//!
//! Everything here is a `Cell` of plain `Copy` data: no allocation, no
//! `RefCell` borrow panics, nothing for the panic-free-request-path lint
//! to object to.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The stages of one request, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading + parsing the request off the socket.
    Parse,
    /// Waiting in the admission queue for a worker.
    Queue,
    /// Candidate routing, search and ranking (the router's scatter).
    Search,
    /// Snippet generation for the served window.
    Snippet,
    /// Rendering the response body (the router's merge + render).
    Serialize,
    /// Writing the response to the socket.
    Write,
}

/// How many stages exist.
pub const STAGES: usize = 6;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] =
        [Stage::Parse, Stage::Queue, Stage::Search, Stage::Snippet, Stage::Serialize, Stage::Write];

    /// The wire/metric label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Search => "search",
            Stage::Snippet => "snippet",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    /// The stage's slot in a `[u64; STAGES]` span array.
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Queue => 1,
            Stage::Search => 2,
            Stage::Snippet => 3,
            Stage::Serialize => 4,
            Stage::Write => 5,
        }
    }
}

/// Global kill switch: when off, [`time_stage`] runs its closure bare
/// and [`stage_add`] is a no-op, so the overhead benchmark can measure
/// instrumentation on vs off in one process. Defaults to on.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn stage timing on or off process-wide (see [`is_enabled`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether stage timing is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// This thread's span accumulator for the request currently being
    /// handled (one request per worker thread at a time).
    static SPANS: Cell<[u64; STAGES]> = const { Cell::new([0; STAGES]) };
}

/// Reset this thread's accumulator; the server calls this right before
/// invoking the handler.
pub fn trace_begin() {
    SPANS.with(|spans| spans.set([0; STAGES]));
}

/// Take (and reset) this thread's accumulated spans; the server calls
/// this after writing the response.
pub fn trace_take() -> [u64; STAGES] {
    SPANS.with(|spans| spans.replace([0; STAGES]))
}

/// Add `ns` to `stage` in this thread's accumulator.
fn stage_add(stage: Stage, ns: u64) {
    if !is_enabled() {
        return;
    }
    SPANS.with(|spans| {
        let mut current = spans.get();
        if let Some(slot) = current.get_mut(stage.index()) {
            *slot = slot.saturating_add(ns);
        }
        spans.set(current);
    });
}

/// Nanoseconds since `started`, saturating.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, crediting its wall time to `stage` in this thread's
/// accumulator. When timing is [disabled](set_enabled), runs `f` bare.
pub fn time_stage<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    stage_add(stage, elapsed_ns(started));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_thread_and_reset_on_take() {
        trace_begin();
        stage_add(Stage::Search, 100);
        stage_add(Stage::Search, 50);
        stage_add(Stage::Write, 7);
        let spans = trace_take();
        assert_eq!(spans[Stage::Search.index()], 150);
        assert_eq!(spans[Stage::Write.index()], 7);
        assert_eq!(trace_take(), [0; STAGES], "take resets");
        // Another thread's accumulator is independent.
        stage_add(Stage::Parse, 9);
        std::thread::spawn(|| {
            assert_eq!(trace_take(), [0; STAGES]);
        })
        .join()
        .expect("thread");
        assert_eq!(trace_take()[Stage::Parse.index()], 9);
    }

    #[test]
    fn time_stage_records_elapsed_time() {
        trace_begin();
        let out = time_stage(Stage::Snippet, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        let ns = trace_take()[Stage::Snippet.index()];
        assert!(ns >= 4_000_000, "{ns} ns is less than the 5 ms slept");
    }

    #[test]
    fn disabling_makes_timing_a_no_op() {
        trace_begin();
        set_enabled(false);
        let out = time_stage(Stage::Search, || 1);
        stage_add(Stage::Search, 999);
        set_enabled(true);
        assert_eq!(out, 1);
        assert_eq!(trace_take(), [0; STAGES]);
    }

    #[test]
    fn stage_names_and_indices_are_bijective() {
        let mut names = std::collections::HashSet::new();
        let mut indices = std::collections::HashSet::new();
        for stage in Stage::ALL {
            assert!(names.insert(stage.name()));
            assert!(indices.insert(stage.index()));
            assert!(stage.index() < STAGES);
        }
    }
}
