//! The flight recorder: a fixed-capacity ring of the most recent
//! request traces, preallocated at startup and overwritten in place —
//! zero allocation in steady state, so keeping it always-on costs a
//! short mutex hold per request and nothing else.
//!
//! `/debug/traces` dumps the ring as JSON; the slow-request log line in
//! [`crate::RequestObs::observe`] is fed from the same [`TraceRecord`]s.

use std::sync::Mutex;

use crate::lock_unpoisoned;
use crate::stage::{Stage, STAGES};
use crate::trace::TraceId;

/// One completed request: identity, outcome and where its time went.
/// Plain `Copy` data so the ring can be a flat preallocated buffer.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// The request's trace ID (minted or adopted from `X-Trace-Id`).
    pub id: TraceId,
    /// Recorder-assigned sequence number, monotonically increasing;
    /// lets a reader order dumps and spot drops between scrapes.
    pub seq: u64,
    /// Coarse route tag (`"/search"`, `"/stats"`, `"other"`, …).
    pub route: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// Nanoseconds spent in each [`Stage`], indexed by [`Stage::index`].
    pub stage_ns: [u64; STAGES],
    /// End-to-end nanoseconds (parse start → write end).
    pub total_ns: u64,
}

impl TraceRecord {
    /// Nanoseconds spent in `stage`.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns.get(stage.index()).copied().unwrap_or(0)
    }
}

struct Ring {
    /// Preallocated storage; `len ≤ capacity` entries are live.
    slots: Vec<TraceRecord>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// Sequence number for the next record.
    next_seq: u64,
}

/// A bounded ring of the last `capacity` [`TraceRecord`]s.
pub struct FlightRecorder {
    capacity: usize,
    /// Lock order: `flight` is terminal — nothing else is ever acquired
    /// while holding it, and it is held only for a copy in/out.
    flight: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").field("capacity", &self.capacity).finish()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` traces (at least 1). The
    /// ring is allocated here, once.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            flight: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                head: 0,
                next_seq: 0,
            }),
        }
    }

    /// How many traces the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one trace, overwriting the oldest once full. Returns the
    /// sequence number assigned to it.
    pub fn record(&self, mut record: TraceRecord) -> u64 {
        let mut ring = lock_unpoisoned(&self.flight);
        let seq = ring.next_seq;
        ring.next_seq = ring.next_seq.wrapping_add(1);
        record.seq = seq;
        if ring.slots.len() < self.capacity {
            ring.slots.push(record);
        } else {
            let head = ring.head;
            if let Some(slot) = ring.slots.get_mut(head) {
                *slot = record;
            }
            ring.head = (head + 1) % self.capacity;
        }
        seq
    }

    /// The recorded traces, oldest first. Copies out under the lock;
    /// the one allocation is the caller's result vector.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let ring = lock_unpoisoned(&self.flight);
        let mut out = Vec::with_capacity(ring.slots.len());
        // Once full, `head` points at the oldest entry.
        out.extend(ring.slots.iter().skip(ring.head).copied());
        out.extend(ring.slots.iter().take(ring.head).copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(total_ns: u64) -> TraceRecord {
        TraceRecord {
            id: TraceId::mint(),
            seq: 0,
            route: "/search",
            status: 200,
            stage_ns: [0; STAGES],
            total_ns,
        }
    }

    #[test]
    fn keeps_the_last_capacity_traces_in_order() {
        let fr = FlightRecorder::new(3);
        assert_eq!(fr.capacity(), 3);
        for i in 0..5u64 {
            fr.record(rec(i));
        }
        let dump = fr.snapshot();
        assert_eq!(dump.iter().map(|r| r.total_ns).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(dump.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn partial_ring_dumps_only_live_entries() {
        let fr = FlightRecorder::new(8);
        fr.record(rec(1));
        fr.record(rec(2));
        let dump = fr.snapshot();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump.iter().map(|r| r.total_ns).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.record(rec(1));
        fr.record(rec(2));
        let dump = fr.snapshot();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump.first().map(|r| r.total_ns), Some(2));
    }

    #[test]
    fn concurrent_records_keep_distinct_seqs() {
        let fr = std::sync::Arc::new(FlightRecorder::new(256));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let fr = std::sync::Arc::clone(&fr);
                scope.spawn(move || {
                    for _ in 0..64 {
                        fr.record(rec(7));
                    }
                });
            }
        });
        let dump = fr.snapshot();
        assert_eq!(dump.len(), 256);
        let mut seqs: Vec<u64> = dump.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 256, "sequence numbers must be unique");
    }
}
