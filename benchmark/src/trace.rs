//! Harness-side spans: recorded around every call the harness makes
//! into a layer (a loopback exchange, a public function), kept in memory
//! and written out once the run ends. A span's **self time** is its
//! duration minus the part its children cover. Spans inside the program
//! are a later issue; what joins these to the daemons' own records is the
//! trace id sent as `X-Trace-Id`.

use std::collections::BTreeMap;
use std::time::Instant;

use extract_serve::json::JsonWriter;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (0 = none); spans of one request
    /// share it, and the daemons' flight recorders carry the same id.
    pub trace: u64,
    /// Layer-boundary name.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a fixed budget: once full, further spans
/// are counted but dropped, so a long window cannot grow without bound.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    /// Spans not recorded because the budget was spent.
    pub dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index (for use as a parent).
    pub fn record(
        &mut self,
        parent: Option<usize>,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Time a call as a child of `parent`.
    pub fn time<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(parent, 0, name, start, Instant::now());
        out
    }

    /// Move the end of an already recorded span (a root opened before
    /// its children, closed after them).
    pub fn close(&mut self, index: usize, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans (a second connection's), fixing
    /// up parent indices. Both must share a clock origin close enough
    /// for reading — durations and self times are unaffected.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.dropped += other.dropped;
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base);
            span.start_ns += shift;
            span.end_ns += shift;
            self.spans.push(span);
        }
    }
}

/// Per-span self time: duration minus the part of its interval that its
/// direct children cover (children are clipped to the parent and merged
/// where they overlap, so nothing is subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, µs.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// The span file: per-name totals, the joined daemon-side records, then
/// every span (`[parent, trace, name, start_ns, end_ns]`).
pub fn write_json(w: &mut JsonWriter, recorder: &Recorder, joined: &[JoinedTrace]) {
    w.obj_begin();
    w.key("dropped");
    w.num_u64(recorder.dropped);
    w.key("by_name");
    w.obj_begin();
    for (name, totals) in by_name(recorder.spans()) {
        w.key(name);
        w.obj_begin();
        w.key("count");
        w.num_u64(totals.count);
        w.key("total_us");
        w.num_f64(totals.total_ns as f64 / 1e3);
        w.key("self_us");
        w.num_f64(totals.self_ns as f64 / 1e3);
        w.key("mean_self_us");
        w.num_f64(totals.mean_self_us());
        w.obj_end();
    }
    w.obj_end();
    w.key("joined");
    w.arr_begin();
    for join in joined {
        w.obj_begin();
        w.key("trace");
        w.str(&format!("{:016x}", join.trace));
        w.key("daemon");
        w.str(&join.daemon);
        w.key("client_us");
        w.num_f64(join.client_ns as f64 / 1e3);
        w.key("daemon_total_us");
        w.num_f64(join.daemon_total_ns as f64 / 1e3);
        w.key("stages_us");
        w.obj_begin();
        for (stage, ns) in &join.stages_ns {
            w.key(stage);
            w.num_f64(*ns as f64 / 1e3);
        }
        w.obj_end();
        w.obj_end();
    }
    w.arr_end();
    w.key("spans");
    w.arr_begin();
    for span in recorder.spans() {
        w.arr_begin();
        match span.parent {
            Some(p) => w.num_u64(p as u64),
            None => w.null(),
        }
        w.str(&format!("{:016x}", span.trace));
        w.str(span.name);
        w.num_u64(span.start_ns);
        w.num_u64(span.end_ns);
        w.arr_end();
    }
    w.arr_end();
    w.obj_end();
}

/// A harness `request` span matched, by trace id, with the record a
/// daemon's flight recorder kept for the same request.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedTrace {
    /// The shared id.
    pub trace: u64,
    /// Which daemon's `/debug/traces` held it.
    pub daemon: String,
    /// The harness-side request span.
    pub client_ns: u64,
    /// The daemon's end-to-end figure for the request.
    pub daemon_total_ns: u64,
    /// The daemon's per-stage breakdown.
    pub stages_ns: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            trace: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(None, "request", 0, 100),
            span(Some(0), "send", 0, 10),
            span(Some(0), "await_first_byte", 10, 70),
            span(Some(0), "read_body", 70, 95),
        ];
        assert_eq!(self_times(&spans), [5, 10, 60, 25]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let spans = [
            span(None, "parent", 100, 200),
            span(Some(0), "a", 110, 150),
            span(Some(0), "b", 140, 160), // overlaps a by 10
            span(Some(0), "c", 190, 250), // overhangs the parent by 50
            span(Some(1), "grandchild", 120, 130),
        ];
        // covered = [110,160) + [190,200) = 60
        assert_eq!(self_times(&spans), [40, 30, 20, 60, 10]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span(None, "request", 0, 100),
            span(Some(0), "send", 0, 40),
            span(None, "request", 200, 260),
            span(Some(2), "send", 200, 220),
        ];
        let totals = by_name(&spans);
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 2,
                total_ns: 160,
                self_ns: 100
            }
        );
        assert_eq!(totals["send"].mean_self_us(), 0.03);
    }

    #[test]
    fn recorder_budget_drops_instead_of_growing() {
        let mut recorder = Recorder::new(2);
        let now = Instant::now();
        assert_eq!(recorder.record(None, 1, "a", now, now), Some(0));
        assert_eq!(recorder.record(Some(0), 1, "b", now, now), Some(1));
        assert_eq!(recorder.record(Some(0), 1, "c", now, now), None);
        assert_eq!((recorder.spans().len(), recorder.dropped), (2, 1));
    }
}
