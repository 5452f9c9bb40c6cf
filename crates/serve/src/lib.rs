//! # extract-serve — the dependency-free serving substrate
//!
//! eXtract (VLDB 2008) is a snippet generation **system**: it sits
//! between a search engine and its users and must survive real traffic.
//! This crate is the daemon substrate for that role, built from `std`
//! alone so the workspace keeps its vendored-only, no-tokio build:
//!
//! * [`json`] — an escape-correct JSON writer (the wire format) and a
//!   small validating parser (tests, load generator, `jsonv` bin);
//! * [`http`] — minimal HTTP/1.1 request parsing and response writing
//!   with explicit limits and keep-alive negotiation;
//! * [`event`] — socket readiness for parked keep-alive connections: a
//!   hand-rolled `epoll` wrapper (no `libc` crate);
//! * [`server`] — a blocking acceptor → bounded queue → worker pool with
//!   per-request admission control (`503` load-shedding), per-client
//!   fairness (`429`), HTTP/1.1 keep-alive with idle parking and
//!   eviction, live counters, and graceful drain-and-shutdown;
//! * [`client`] — the inter-tier HTTP client (keep-alive connections
//!   with absolute per-request deadlines, capped response bodies, and
//!   redial-with-backoff), which the scatter-gather router pools;
//! * [`fault`] — deterministic fault injection (per-route stalls,
//!   resets, error statuses, hard exits) so failure behavior is proven
//!   by exact tests instead of timing luck;
//! * [`obs_http`] — the shared `/metrics` (Prometheus text exposition)
//!   and `/debug/traces` (flight-recorder JSON) rendering both tiers'
//!   daemons mount, backed by [`extract_obs`]'s histograms and stage
//!   traces.
//!
//! The crate knows nothing about XML or snippets: [`Server::run`] takes
//! any `Fn(&Request) -> Response` handler. The umbrella `extract` crate
//! wires it to `QuerySession` (see its `serve` module and the `serve`
//! binary); that layering keeps the dependency graph acyclic and this
//! substrate reusable.
//!
//! The crate is Linux-only: parking rides `epoll`, and listeners and the
//! `reset` fault set socket options through the same raw Linux surface.
//!
//! ```
//! use extract_serve::prelude::*;
//! use std::time::Duration;
//!
//! let config = ServeConfig { workers: 2, queue_depth: 4, ..Default::default() };
//! let server = Server::bind("127.0.0.1:0", config).unwrap();
//! let handle = server.handle();
//! let addr = server.local_addr();
//! std::thread::scope(|scope| {
//!     scope.spawn(move || {
//!         server.run(|req| Response::json(200, format!("{{\"path\":\"{}\"}}", req.path)));
//!     });
//!     // … drive requests against `addr` …
//!     let _ = addr;
//!     handle.shutdown();
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(not(target_os = "linux"))]
compile_error!("extract-serve is Linux-only: connection parking is built on epoll");

pub mod client;
pub mod event;
pub mod fault;
pub mod http;
pub mod json;
pub mod obs_http;
pub mod server;
pub mod testing;

pub use client::{ClientConfig, ClientError, Connection, HttpClient, WireResponse};
pub use fault::{FaultAction, FaultPlan, FaultRule};
pub use http::{Request, Response};
pub use json::JsonWriter;
pub use server::{ServeConfig, Server, ServerHandle, ServerStats};

/// The common imports in one place.
pub mod prelude {
    pub use crate::client::{ClientConfig, ClientError, Connection, HttpClient, WireResponse};
    pub use crate::fault::{FaultAction, FaultPlan, FaultRule};
    pub use crate::http::{Request, Response};
    pub use crate::json::JsonWriter;
    pub use crate::server::{ServeConfig, Server, ServerHandle, ServerStats};
}
