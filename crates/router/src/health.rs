//! Per-shard health: a consecutive-failure circuit breaker with
//! half-open probes. (Per-shard latency lives in the shard's
//! `extract_obs::Histogram`, which the hedging policy reads its
//! percentile from.)
//!
//! The breaker's job is to turn "this shard times out every request"
//! from a per-request discovery (each one burning its retry budget
//! against a dead socket) into shared state: after
//! [`threshold`](Breaker) consecutive failures the breaker *opens* and
//! the scatter path skips the shard outright. After a cooldown the
//! background prober moves it to *half-open* and risks one `/healthz`
//! probe; success closes the breaker, failure re-opens it for another
//! cooldown. Requests only ever flow to **closed** breakers — half-open
//! capacity is spent on probes, not user traffic.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use extract_obs::lock_unpoisoned;

/// The three breaker positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests skip this shard until the cooldown passes.
    Open,
    /// Cooldown passed: one probe decides between `Closed` and `Open`.
    HalfOpen,
}

impl BreakerState {
    /// The wire name (`/healthz`, `/stats`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// A consecutive-failure circuit breaker (see the module docs).
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    breaker: Mutex<BreakerInner>,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and re-probing after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            breaker: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    /// The current position.
    pub fn state(&self) -> BreakerState {
        lock_unpoisoned(&self.breaker).state
    }

    /// Whether user traffic may flow to this shard right now.
    pub fn allows_requests(&self) -> bool {
        self.state() == BreakerState::Closed
    }

    /// Record a successful exchange: failures reset, breaker closes
    /// (this is how a half-open probe heals the shard).
    pub fn on_success(&self) {
        let mut breaker = lock_unpoisoned(&self.breaker);
        breaker.state = BreakerState::Closed;
        breaker.consecutive_failures = 0;
        breaker.opened_at = None;
    }

    /// Record a failed exchange. Returns `true` when this failure is the
    /// one that *opened* the breaker (so the caller counts distinct
    /// opens, not every failure while open).
    pub fn on_failure(&self) -> bool {
        let mut breaker = lock_unpoisoned(&self.breaker);
        breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
        match breaker.state {
            BreakerState::Closed if breaker.consecutive_failures >= self.threshold => {
                breaker.state = BreakerState::Open;
                breaker.opened_at = Some(Instant::now());
                true
            }
            // A failed half-open probe re-opens for another full cooldown.
            BreakerState::HalfOpen => {
                breaker.state = BreakerState::Open;
                breaker.opened_at = Some(Instant::now());
                false
            }
            _ => false,
        }
    }

    /// Whether the prober should risk a probe now. Moves `Open` →
    /// `HalfOpen` when the cooldown has passed (so concurrent callers
    /// see the transition once); an already half-open breaker keeps
    /// asking for probes until one resolves it.
    pub fn probe_due(&self) -> bool {
        let mut breaker = lock_unpoisoned(&self.breaker);
        match breaker.state {
            BreakerState::Closed => false,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let elapsed =
                    breaker.opened_at.map(|at| at.elapsed()).unwrap_or(Duration::MAX);
                if elapsed >= self.cooldown {
                    breaker.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let b = Breaker::new(3, Duration::from_millis(50));
        assert!(b.allows_requests());
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.allows_requests(), "two failures stay under the threshold");
        assert!(b.on_failure(), "the third failure opens the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_requests());
        assert!(!b.on_failure(), "already open: not a fresh open");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = Breaker::new(2, Duration::from_millis(50));
        assert!(!b.on_failure());
        b.on_success();
        assert!(!b.on_failure(), "the streak restarted at zero");
        assert!(b.on_failure(), "two in a row now");
    }

    #[test]
    fn open_breaker_asks_for_a_probe_only_after_the_cooldown() {
        let b = Breaker::new(1, Duration::from_millis(40));
        assert!(b.on_failure());
        assert!(!b.probe_due(), "cooldown still running");
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.probe_due(), "cooldown passed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows_requests(), "half-open serves probes, not traffic");
        // A successful probe closes it.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_requests());
    }

    #[test]
    fn failed_half_open_probe_restarts_the_cooldown() {
        let b = Breaker::new(1, Duration::from_millis(40));
        assert!(b.on_failure());
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.probe_due());
        assert!(!b.on_failure(), "re-open is not a fresh open");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.probe_due(), "a fresh cooldown is running");
    }
}
