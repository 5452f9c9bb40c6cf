//! # extract-router — fault-tolerant scatter-gather front tier
//!
//! A single `extract-serve` daemon answers `/search` over one corpus.
//! This crate puts a router in front of N such daemons ("shards"), each
//! holding a partition of the corpus, and makes the ensemble look like
//! one daemon over the union corpus — including under partial failure.
//!
//! - [`config`] — every tuning knob ([`RouterConfig`], [`HedgeConfig`]).
//! - [`pool`] — per-shard pools of pooled keep-alive [`HttpClient`]
//!   connections ([`ClientPool`]).
//! - [`health`] — the per-shard circuit [`Breaker`]; the hedge delay is
//!   computed from each shard's `extract_obs` latency histogram.
//! - [`merge`] — the validating shard-page scanner (borrowed hits, no
//!   tree), doc-id remapping, the exact (score desc, doc asc, root asc)
//!   k-way merge, and response rendering by splicing the shards' bytes.
//! - [`router`] — [`RouterApp`] (routes, the inline scatter-gather and
//!   its escalation to retries and hedge races, probing, `/stats`
//!   aggregation) and [`serve_router`].
//!
//! The request path never panics: all fallible steps return `Result`s
//! and every client outcome is an HTTP response. A shard that is down,
//! slow, or lying produces `"partial": true` accounting, not a 5xx —
//! only zero answering shards do.
//!
//! [`HttpClient`]: extract_serve::HttpClient

pub mod config;
pub mod health;
pub mod merge;
pub mod pool;
pub mod router;

pub use config::{HedgeConfig, RouterConfig};
pub use health::{Breaker, BreakerState};
pub use merge::{MergedPage, ShardHit, ShardPage, ShardTally};
pub use pool::ClientPool;
pub use router::{serve_router, RouterApp, RouterCounters, Shard};

/// Everything a router binary or test needs.
pub mod prelude {
    pub use crate::config::{HedgeConfig, RouterConfig};
    pub use crate::health::{Breaker, BreakerState};
    pub use crate::merge::{MergedPage, ShardHit, ShardPage, ShardTally};
    pub use crate::pool::ClientPool;
    pub use crate::router::{serve_router, RouterApp, RouterCounters, Shard};
}
