//! The router application: scatter `/search` to every shard, gather
//! under one absolute deadline, merge, and degrade gracefully.
//!
//! Request flow: the request's own worker thread writes the over-fetch
//! to one pooled connection per shard — all of them before it reads
//! anything, so the shards work side by side — then reads the answers
//! in turn, each until that shard's hedge instant. While every shard
//! answers usably in time that is the whole scatter: no thread, no
//! channel. Only a shard attempt that fails, answers 5xx/429 or outlives
//! its hedge delay *escalates* (counted in
//! [`RouterCounters::escalations`]) to the machinery below.
//!
//! Global doc ids: every shard answer carries the slots its snapshot's
//! ids span (`X-Corpus-Slots`), and the merge places each shard's ids
//! after the spans of the shards before it — read off the answers it
//! merges, so an id range and its page always come from one snapshot
//! and nothing is learned ahead of a request. A shard that did not
//! answer spans the width it last answered with.
//!
//! Failure policy, end to end:
//!
//! - Every client request gets **one absolute deadline**
//!   ([`RouterConfig::request_deadline`]). Scatter attempts, retries,
//!   backoff sleeps and hedges all race that single clock — nothing can
//!   extend it.
//! - Each shard attempt may be **retried**
//!   ([`RouterConfig::retry_budget`] extra attempts) with exponential
//!   backoff, except after a deadline timeout — the absolute clock is
//!   spent, retrying cannot help.
//! - A slow-but-healthy shard gets a **hedged** second request once the
//!   attempt outlives the shard's recent latency percentile: the overdue
//!   primary and the hedge move to two racer threads, the first
//!   response wins and the loser is abandoned to its deadline.
//! - Repeated failures open the shard's **circuit breaker**: the
//!   scatter path skips it instantly instead of burning the budget, and
//!   a background prober's `/healthz` checks close it again when the
//!   shard returns.
//! - Whatever subset of shards answers, the client gets `200` with
//!   honest accounting: `"partial": true` plus a
//!   `shards: {queried, answered}` block whenever the merged page may
//!   be missing rows. Only zero answering shards produce `503` (with
//!   `Retry-After`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use extract_obs::{Histogram, PromWriter, Stage, TraceId, TRACE_HEADER};
use extract_serve::http::percent_encode;
use extract_serve::json::{self, JsonWriter, Value};
use extract_serve::obs_http;
use extract_serve::{ClientError, HttpClient, Request, Response, ServerHandle, WireResponse};

use crate::config::RouterConfig;
use crate::health::Breaker;
use crate::merge::{self, MergedPage, ShardPage, ShardTally};
use crate::pool::ClientPool;

/// `Retry-After` seconds when every shard is unavailable.
const UNAVAILABLE_RETRY_AFTER_SECS: u32 = 1;
/// Grace past the request deadline when waiting on attempt threads —
/// covers a dial that started just before the deadline expired.
const GATHER_GRACE: Duration = Duration::from_millis(500);

/// Router-level counters, all monotonic except none.
#[derive(Debug, Default)]
pub struct RouterCounters {
    /// Shard attempts re-tried after a failure.
    pub retries: AtomicU64,
    /// Hedged second requests launched.
    pub hedges_fired: AtomicU64,
    /// Hedges whose response beat the primary.
    pub hedge_wins: AtomicU64,
    /// Shard attempts that left the inline path: every retry and every
    /// hedge race. Zero while every shard answers in time.
    pub escalations: AtomicU64,
    /// Distinct breaker open transitions.
    pub breaker_opens: AtomicU64,
    /// `200` responses flagged `"partial": true`.
    pub partial_responses: AtomicU64,
    /// Background health probes sent.
    pub probes: AtomicU64,
}

/// One router counter as `(stats key, metric name, help, value)`.
type CounterRow = (&'static str, &'static str, &'static str, u64);

impl RouterCounters {
    /// Every counter, in `/stats` order: the one table behind the `/stats`
    /// `router` object and the `/metrics` `extract_router_*_total`
    /// families. Wins load before fired, so a read never shows more wins
    /// than fired hedges (a hedge that fires and wins between the two loads
    /// inflates `fired`, never `wins`).
    fn table(&self) -> [CounterRow; 7] {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let hedge_wins = load(&self.hedge_wins);
        [
            (
                "retries",
                "extract_router_retries_total",
                "Shard attempts re-tried after a failure.",
                load(&self.retries),
            ),
            (
                "hedges_fired",
                "extract_router_hedges_fired_total",
                "Hedged second requests launched.",
                load(&self.hedges_fired),
            ),
            (
                "hedge_wins",
                "extract_router_hedge_wins_total",
                "Hedged requests whose response was used.",
                hedge_wins,
            ),
            (
                "escalations",
                "extract_router_scatter_escalations_total",
                "Shard attempts that left the inline path.",
                load(&self.escalations),
            ),
            (
                "breaker_opens",
                "extract_router_breaker_opens_total",
                "Distinct breaker open transitions.",
                load(&self.breaker_opens),
            ),
            (
                "partial_responses",
                "extract_router_partial_responses_total",
                "200 responses flagged partial.",
                load(&self.partial_responses),
            ),
            (
                "probes",
                "extract_router_probes_total",
                "Background health probes sent.",
                load(&self.probes),
            ),
        ]
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One shard: its connection pool, breaker, latency histogram, and the
/// width of its doc-id range as it last answered.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    pool: ClientPool,
    breaker: Breaker,
    /// Lock-free log₂-bucketed latency of successful exchanges; the
    /// hedge delay and `/stats`/`/metrics` percentiles read snapshots.
    latency: Histogram,
    /// The `X-Corpus-Slots` of the shard's last usable answer (0 before
    /// its first): what the shard's range spans in a request it misses.
    width: AtomicU64,
}

impl Shard {
    fn new(index: usize, config: &RouterConfig, addr: std::net::SocketAddr) -> Shard {
        Shard {
            index,
            pool: ClientPool::new(addr, config.client.clone(), config.max_idle_per_shard),
            breaker: Breaker::new(config.breaker_threshold, config.breaker_cooldown),
            latency: Histogram::new(),
            width: AtomicU64::new(0),
        }
    }

    /// The shard's position in the configured order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's breaker (tests and `/stats` read its state).
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    fn record_latency(&self, sample: Duration) {
        self.latency.record(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The hedge delay for the next attempt: the recent latency
    /// percentile clamped to the configured band, or the ceiling until
    /// enough samples exist. The histogram's quantile is a log₂-bucket
    /// upper bound (within 2× of the true sample), which errs toward
    /// hedging *later* — the safe direction for a tail-latency cutoff.
    fn hedge_delay(&self, hedge: &crate::config::HedgeConfig) -> Duration {
        let snapshot = self.latency.snapshot();
        if snapshot.count() < hedge.min_samples.max(1) as u64 {
            return hedge.max_delay;
        }
        snapshot
            .quantile(hedge.percentile)
            .map(|ns| Duration::from_nanos(ns).clamp(hedge.min_delay, hedge.max_delay))
            .unwrap_or(hedge.max_delay)
    }

    /// A point-in-time snapshot of the shard's latency histogram.
    fn latency_snapshot(&self) -> extract_obs::Snapshot {
        self.latency.snapshot()
    }
}

/// A shard's usable `/search` answer: its body, and the width of its
/// doc-id range in the snapshot that body was computed against.
struct Answer {
    body: String,
    width: u64,
}

/// Why a shard produced no usable page for a request.
#[derive(Debug)]
enum ShardFailure {
    /// Breaker open: the shard was never asked.
    Skipped,
    /// Every attempt failed (last error kept for the log line).
    Failed(String),
}

/// What one scatter asks of every shard, and until when.
struct Ask<'a> {
    target: &'a str,
    /// Extra raw header lines (the trace ID).
    headers: &'a [&'a str],
    deadline: Instant,
}

/// How one inline attempt at a shard ended — the request written, the
/// answer awaited on the request's own thread.
enum Attempt {
    /// A response arrived, whatever its status.
    Answered(WireResponse),
    /// The transport failed.
    Failed(ClientError),
    /// No byte came by the hedge instant: the request is still in
    /// flight on this client.
    Overdue(HttpClient),
}

impl Attempt {
    /// An answer the merge can take as it is: this shard's leg is done
    /// without leaving the inline path.
    fn is_usable(&self) -> bool {
        matches!(self, Attempt::Answered(response) if RouterApp::usable(response))
    }
}

/// The scatter-gather router application. `handle` is safe to call from
/// many worker threads at once.
pub struct RouterApp {
    config: RouterConfig,
    shards: Vec<Arc<Shard>>,
    counters: RouterCounters,
    server: Option<ServerHandle>,
}

impl RouterApp {
    /// A router over `config.shards`, breakers closed, nothing dialed.
    pub fn new(config: RouterConfig) -> RouterApp {
        let shards = config
            .shards
            .iter()
            .enumerate()
            .map(|(index, addr)| Arc::new(Shard::new(index, &config, *addr)))
            .collect();
        RouterApp { config, shards, counters: RouterCounters::default(), server: None }
    }

    /// Wire the running server in (enables `/shutdown` and drain-aware
    /// `/healthz`).
    pub fn attach_server(&mut self, handle: ServerHandle) {
        self.server = Some(handle);
    }

    /// The configuration this router was built with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The shard states, in configured order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The router counters.
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// Route one request. Infallible: every outcome is a `Response`.
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/search") => self.search(request),
            ("GET", "/stats") => Response::json(200, self.render_stats()),
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics(),
            ("GET", "/debug/traces") => obs_http::traces_route(self.server.as_ref()),
            ("POST", "/shutdown") => obs_http::shutdown_route(self.server.as_ref()),
            (_, "/search" | "/stats" | "/healthz" | "/metrics" | "/debug/traces"
            | "/shutdown") => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        }
    }

    /// `/metrics`: the Prometheus exposition — router counters, per-shard
    /// latency histograms, and (when a server is attached) the shared
    /// server + request-stage families.
    fn metrics(&self) -> Response {
        let Some(handle) = &self.server else {
            return Response::error(503, "no server attached");
        };
        let mut w = PromWriter::new();
        for (_, metric, help, value) in self.counters.table() {
            w.help(metric, help);
            w.type_(metric, "counter");
            w.sample_u64(metric, &[], value);
        }
        w.help(
            "extract_router_shard_breaker_closed",
            "1 when the shard's breaker admits traffic, else 0.",
        );
        w.type_("extract_router_shard_breaker_closed", "gauge");
        for shard in self.shards.iter() {
            w.sample_u64(
                "extract_router_shard_breaker_closed",
                &[("shard", &shard.index.to_string())],
                u64::from(shard.breaker.allows_requests()),
            );
        }
        w.help(
            "extract_router_shard_latency_seconds",
            "Successful shard exchange latency, per shard.",
        );
        w.type_("extract_router_shard_latency_seconds", "histogram");
        for shard in self.shards.iter() {
            w.histogram(
                "extract_router_shard_latency_seconds",
                &[("shard", &shard.index.to_string())],
                &shard.latency_snapshot(),
                1e-9,
            );
        }
        obs_http::write_server_metrics(&mut w, handle);
        obs_http::metrics_response(w)
    }

    /// `/healthz`: `200` while serving with at least one available
    /// shard; `503` when draining or when every breaker is open.
    fn healthz(&self) -> Response {
        let draining =
            self.server.as_ref().map(ServerHandle::is_shutting_down).unwrap_or(false);
        let available =
            self.shards.iter().filter(|s| s.breaker.allows_requests()).count();
        let ok = !draining && (available > 0 || self.shards.is_empty());
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("ok");
        w.bool(ok);
        if draining {
            w.key("draining");
            w.bool(true);
        }
        w.key("shards");
        w.obj_begin();
        w.key("total");
        w.num_u64(self.shards.len() as u64);
        w.key("available");
        w.num_u64(available as u64);
        w.obj_end();
        w.obj_end();
        Response::json(if ok { 200 } else { 503 }, w.finish())
    }

    /// `/search`: validate exactly like the shard daemon (one rule,
    /// [`Request::search_params`]), then scatter.
    fn search(&self, request: &Request) -> Response {
        let (q, k, offset) = match request.search_params(self.config.default_k, self.config.max_k)
        {
            Ok(params) => params,
            Err(response) => return response,
        };
        // Adopt the client's trace ID (the serving layer parses and
        // mints one per request); mint here only when called outside a
        // server, e.g. directly from a test.
        let trace = request.trace_id.unwrap_or_else(TraceId::mint);
        self.scatter_search(q, k, offset, trace)
    }

    /// Scatter the over-fetch to every shard, gather, merge, render.
    /// The whole scatter-gather is the request's `search` span; scanning
    /// the shard pages, the merge and the render are its `serialize`
    /// span. `trace` is forwarded to every shard as `X-Trace-Id`, so one
    /// ID follows the request across both tiers' logs and flight
    /// recorders.
    fn scatter_search(&self, q: &str, k: usize, offset: usize, trace: TraceId) -> Response {
        let requested_k = k.saturating_add(offset);
        let target =
            format!("/search?q={}&k={requested_k}&offset=0", percent_encode(q));
        let trace_header = format!("{TRACE_HEADER}: {trace}");
        let ask = Ask {
            target: &target,
            headers: &[&trace_header],
            deadline: Instant::now() + self.config.request_deadline,
        };
        let answers = extract_obs::time_stage(Stage::Search, || self.gather(&ask));
        extract_obs::time_stage(Stage::Serialize, || {
            // The pages borrow the shard bodies: a hit is three numbers
            // and two byte ranges, never a copy of its snippet.
            let pages: Vec<Option<ShardPage<'_>>> = answers
                .iter()
                .enumerate()
                .map(|(index, answer)| {
                    let reason = match answer {
                        Ok(answer) => match merge::parse_page(&answer.body) {
                            Ok(page) => return Some(page),
                            Err(reason) => reason,
                        },
                        Err(ShardFailure::Skipped) => return None,
                        Err(ShardFailure::Failed(reason)) => reason.clone(),
                    };
                    eprintln!(
                        "router: trace={trace} shard {index} dropped from response: {reason}"
                    );
                    None
                })
                .collect();
            let queried = self.shards.len();
            let answered = pages.iter().flatten().count();
            if answered == 0 {
                return Response::error(503, "no shards available")
                    .with_retry_after(UNAVAILABLE_RETRY_AFTER_SECS);
            }
            let merged: MergedPage<'_> =
                merge::merge_pages(&pages, &self.doc_bases(&answers), k, offset, requested_k);
            let partial = answered < queried || merged.truncated;
            if partial {
                bump(&self.counters.partial_responses);
            }
            let tally = ShardTally { queried, answered };
            Response::json(200, merge::render_search(q, k, offset, &merged, partial, tally))
        })
    }

    /// Global doc-id bases: prefix sums of the shards' id spans in
    /// configured order. A shard that answered counts the span of the
    /// very snapshot its page comes from; one that did not counts the
    /// span it last answered with (0 before its first answer) — its rows
    /// are missing, and the response is already marked partial.
    fn doc_bases(&self, answers: &[Result<Answer, ShardFailure>]) -> Vec<u64> {
        let mut base: u64 = 0;
        self.shards
            .iter()
            .zip(answers)
            .map(|(shard, answer)| {
                let at = base;
                let width = match answer {
                    Ok(answer) => answer.width,
                    Err(_) => shard.width.load(Ordering::Relaxed),
                };
                base = base.saturating_add(width);
                at
            })
            .collect()
    }

    /// The scatter primitive: write the request to every shard in
    /// `shards`, one pooled connection each, before any answer is read —
    /// the shards then work side by side while the caller stays on its
    /// own thread and reads them in turn.
    fn send_all(shards: &[&Arc<Shard>], ask: &Ask) -> Vec<Result<HttpClient, ClientError>> {
        shards.iter().map(|shard| Self::send(shard, ask)).collect()
    }

    /// Check a connection out of `shard`'s pool and write the request to
    /// it; the answer is owed to the returned client.
    fn send(shard: &Shard, ask: &Ask) -> Result<HttpClient, ClientError> {
        let mut client = shard.pool.check_out();
        client.send("GET", ask.target, ask.headers, ask.deadline)?;
        Ok(client)
    }

    /// [`send_all`](Self::send_all) `GET target`, then each answer in
    /// turn under the one `deadline`.
    fn get_all(
        shards: &[&Arc<Shard>],
        target: &str,
        deadline: Instant,
    ) -> Vec<Result<WireResponse, ClientError>> {
        let sent = Self::send_all(shards, &Ask { target, headers: &[], deadline });
        shards
            .iter()
            .zip(sent)
            .map(|(shard, sent)| Self::receive(shard, sent?, deadline))
            .collect()
    }

    /// Read the answer `client` is owed, however long it takes within
    /// `deadline`, and hand the connection back to `shard`'s pool.
    fn receive(
        shard: &Shard,
        mut client: HttpClient,
        deadline: Instant,
    ) -> Result<WireResponse, ClientError> {
        let response = client.receive(deadline, deadline)?.ok_or(ClientError::TimedOut)?;
        shard.pool.check_in(client);
        Ok(response)
    }

    /// Every shard's `/search` answer for this request, in shard order:
    /// breaker gate, one inline exchange per shard, and only for a shard
    /// whose exchange failed, answered unusably or outlived its hedge
    /// delay the retry / hedge machinery.
    fn gather(&self, ask: &Ask) -> Vec<Result<Answer, ShardFailure>> {
        let mut outcomes: Vec<Result<Answer, ShardFailure>> =
            self.shards.iter().map(|_| Err(ShardFailure::Skipped)).collect();
        let live: Vec<&Arc<Shard>> =
            self.shards.iter().filter(|s| s.breaker.allows_requests()).collect();
        let started = Instant::now();
        let sent = Self::send_all(&live, ask);
        let settle = &|shard, attempt| self.settle(shard, attempt, started, ask);
        let mut settled = Vec::with_capacity(live.len());
        let mut escalated = Vec::new();
        for (shard, sent) in live.iter().copied().zip(sent) {
            let attempt = self.await_inline(shard, sent, started, ask.deadline);
            if attempt.is_usable() {
                settled.push((shard, settle(shard, attempt)));
            } else {
                escalated.push((shard, attempt));
            }
        }
        // Escalated legs block (backoff sleeps, hedge races), so they run
        // side by side: all but the last on scoped threads — none when
        // one shard escalated, and none of this when none did.
        if let Some((last_shard, last_attempt)) = escalated.pop() {
            std::thread::scope(|scope| {
                let handles: Vec<_> = escalated
                    .into_iter()
                    .map(|(shard, attempt)| {
                        (shard, scope.spawn(move || settle(shard, attempt)))
                    })
                    .collect();
                settled.push((last_shard, settle(last_shard, last_attempt)));
                settled.extend(handles.into_iter().map(|(shard, handle)| {
                    let panicked = "scatter thread panicked".to_string();
                    let leg = handle.join().unwrap_or(Err(ShardFailure::Failed(panicked)));
                    (shard, leg)
                }));
            });
        }
        for (shard, leg) in settled {
            if let Some(outcome) = outcomes.get_mut(shard.index) {
                *outcome = Self::answer(shard, leg);
            }
        }
        outcomes
    }

    /// Wait on the request's own thread for the answer to a request
    /// already written to `sent`'s connection — until the shard's hedge
    /// instant, or the deadline when hedging is off or could only start
    /// past it.
    fn await_inline(
        &self,
        shard: &Shard,
        sent: Result<HttpClient, ClientError>,
        started: Instant,
        deadline: Instant,
    ) -> Attempt {
        let mut client = match sent {
            Ok(client) => client,
            Err(error) => return Attempt::Failed(error),
        };
        let hedge = self.config.hedge.as_ref();
        let hedge_at = hedge.map_or(deadline, |hedge| started + shard.hedge_delay(hedge));
        match client.receive(hedge_at, deadline) {
            Ok(Some(response)) => {
                shard.pool.check_in(client);
                Attempt::Answered(response)
            }
            Ok(None) => Attempt::Overdue(client),
            Err(error) => Attempt::Failed(error),
        }
    }

    /// The per-shard retry loop around the attempt already made: an
    /// overdue attempt is raced against a hedge, a failed or unusable
    /// one is retried with exponential backoff, all against the one
    /// absolute deadline. Success means a response arrived — any status;
    /// HTTP-level failures (5xx / 429) still count against the breaker
    /// and the retry budget. An [`Attempt::is_usable`] one returns at
    /// once.
    fn settle(
        &self,
        shard: &Arc<Shard>,
        mut attempt: Attempt,
        mut started: Instant,
        ask: &Ask,
    ) -> Result<WireResponse, ShardFailure> {
        let mut last_error;
        let mut retries = 0;
        loop {
            let mut timed_out = false;
            let exchange = match attempt {
                Attempt::Answered(response) => Ok((response, false)),
                Attempt::Failed(error) => Err(error),
                Attempt::Overdue(primary) => self.race(shard, primary, ask),
            };
            match exchange {
                Ok((response, from_hedge)) if Self::usable(&response) => {
                    // A hedge "wins" only when its response is actually
                    // used — a hedge that merely arrived first with a
                    // 5xx/429 is not a win.
                    if from_hedge {
                        bump(&self.counters.hedge_wins);
                    }
                    shard.breaker.on_success();
                    shard.record_latency(started.elapsed());
                    return Ok(response);
                }
                Ok((response, _)) => last_error = format!("status {}", response.status),
                Err(error) => {
                    last_error = error.to_string();
                    // The deadline is absolute: once an attempt timed
                    // out against it, further attempts cannot fit.
                    timed_out = matches!(error, ClientError::TimedOut);
                }
            }
            if shard.breaker.on_failure() {
                bump(&self.counters.breaker_opens);
            }
            if timed_out || retries >= self.config.retry_budget {
                break;
            }
            if Instant::now() >= ask.deadline {
                last_error = "request deadline exhausted".to_string();
                break;
            }
            bump(&self.counters.retries);
            bump(&self.counters.escalations);
            let backoff = self
                .config
                .retry_backoff_base
                .saturating_mul(1_u32 << retries.min(16))
                .min(self.config.retry_backoff_max)
                .min(ask.deadline.saturating_duration_since(Instant::now()));
            std::thread::sleep(backoff);
            retries += 1;
            started = Instant::now();
            attempt = self.await_inline(shard, Self::send(shard, ask), started, ask.deadline);
        }
        Err(ShardFailure::Failed(last_error))
    }

    /// A response the scatter path can use (transport succeeded and the
    /// shard was not overloaded or erroring).
    fn usable(response: &WireResponse) -> bool {
        response.status < 500 && response.status != 429
    }

    /// The hedge race, on two racer threads: `primary` keeps waiting for
    /// the answer it is owed, an identical second request goes out on
    /// another connection. First response from either wins; the loser
    /// runs on to its own deadline and its connection pools or drops
    /// itself. The returned flag says whether the winning response came
    /// from the hedge — the *caller* decides if that counts as a hedge
    /// win, since only a usable response is one.
    fn race(
        &self,
        shard: &Arc<Shard>,
        primary: HttpClient,
        ask: &Ask,
    ) -> Result<(WireResponse, bool), ClientError> {
        bump(&self.counters.hedges_fired);
        bump(&self.counters.escalations);
        type Racer = Box<dyn FnOnce() -> Result<WireResponse, ClientError> + Send>;
        let deadline = ask.deadline;
        let (tx, rx) = mpsc::channel();
        let launch = |is_hedge: bool, racer: Racer| {
            let tx = tx.clone();
            // xlint: allow(L8, "hedge racer: two per race, lifetime bounded by the request deadline; the gather loop below waits for both unless one answers")
            std::thread::spawn(move || {
                // xlint: allow(L7, "the gather side hanging up early (first response won) is the expected benign race")
                let _ = tx.send((is_hedge, racer()));
            });
        };
        let owner = Arc::clone(shard);
        launch(false, Box::new(move || Self::receive(&owner, primary, deadline)));
        let owner = Arc::clone(shard);
        let target = ask.target.to_string();
        let headers: Vec<String> = ask.headers.iter().map(|h| h.to_string()).collect();
        launch(
            true,
            Box::new(move || {
                let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
                owner.pool.request_with("GET", &target, &headers, deadline)
            }),
        );
        let mut last_error = ClientError::TimedOut;
        for _ in 0..2 {
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .saturating_add(GATHER_GRACE);
            match rx.recv_timeout(wait) {
                Ok((is_hedge, Ok(response))) => return Ok((response, is_hedge)),
                Ok((_, Err(error))) => last_error = error,
                Err(_) => break,
            }
        }
        Err(last_error)
    }

    /// A settled shard leg's answer. A non-200 is a failure, and so is
    /// a `200` without a parseable `X-Corpus-Slots`: its ids could not
    /// be placed. The width goes on record for requests the shard
    /// misses.
    fn answer(
        shard: &Shard,
        settled: Result<WireResponse, ShardFailure>,
    ) -> Result<Answer, ShardFailure> {
        let response = settled?;
        if response.status != 200 {
            return Err(ShardFailure::Failed(format!("shard answered {}", response.status)));
        }
        let Some(width) = response.corpus_slots else {
            return Err(ShardFailure::Failed("answer without X-Corpus-Slots".to_string()));
        };
        shard.width.store(width, Ordering::Relaxed);
        Ok(Answer { body: response.body, width })
    }

    /// The parsed body of a `200`, else nothing.
    fn ok_json(response: Result<WireResponse, ClientError>) -> Option<Value> {
        let response = response.ok().filter(|r| r.status == 200)?;
        json::parse(&response.body).ok()
    }

    /// One background probe round: re-check every shard whose breaker
    /// wants a probe — one after the other, each under its own probe
    /// deadline, so a shard that swallows its whole deadline cannot
    /// starve the next one's healing.
    // xlint: allow(L10, "crates/router/tests/scatter.rs and tests/router.rs step the prober by hand")
    pub fn probe_round(&self) {
        for shard in self.shards.iter().filter(|s| s.breaker.probe_due()) {
            bump(&self.counters.probes);
            let deadline = Instant::now() + self.config.probe_deadline;
            match shard.pool.request("GET", "/healthz", deadline) {
                Ok(response) if response.status == 200 => shard.breaker.on_success(),
                _ => {
                    shard.breaker.on_failure();
                }
            }
        }
    }

    /// The `/stats` body: router counters, per-shard health, and
    /// aggregated upstream server counters from the shards' own
    /// `/stats` (fetched live under the probe deadline).
    pub fn render_stats(&self) -> String {
        let deadline = Instant::now() + self.config.probe_deadline;
        // Only shards the scatter path would ask: an open breaker reads
        // `reachable: false` without spending the deadline on it.
        let asked: Vec<&Arc<Shard>> =
            self.shards.iter().filter(|s| s.breaker.allows_requests()).collect();
        let mut upstream: Vec<Option<Value>> = self.shards.iter().map(|_| None).collect();
        for (shard, answer) in asked.iter().zip(Self::get_all(&asked, "/stats", deadline)) {
            if let Some(slot) = upstream.get_mut(shard.index) {
                *slot = Self::ok_json(answer);
            }
        }
        let sum_server = |key: &str| -> u64 {
            upstream
                .iter()
                .flatten()
                .filter_map(|v| v.get("server").and_then(|s| s.get(key)))
                .filter_map(Value::as_u64)
                .sum()
        };
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("router");
        w.obj_begin();
        w.key("shards");
        w.num_u64(self.shards.len() as u64);
        for (key, _, _, value) in self.counters.table() {
            w.key(key);
            w.num_u64(value);
        }
        w.obj_end();
        w.key("shards");
        w.arr_begin();
        for (shard, stats) in self.shards.iter().zip(upstream.iter()) {
            w.obj_begin();
            w.key("addr");
            w.str(&shard.pool.addr().to_string());
            w.key("breaker");
            w.str(shard.breaker.state().name());
            let corpus = |key| {
                stats.as_ref().and_then(|v| v.get("corpus")?.get(key)).and_then(Value::as_u64)
            };
            for (key, corpus_key) in [("documents", "documents"), ("corpus_epoch", "epoch")] {
                w.key(key);
                match corpus(corpus_key) {
                    Some(n) => w.num_u64(n),
                    None => w.null(),
                }
            }
            w.key("idle_connections");
            w.num_u64(shard.pool.idle() as u64);
            let latency = shard.latency_snapshot();
            w.key("latency_p50_us");
            match latency.p50() {
                Some(ns) => w.num_u64(ns / 1_000),
                None => w.null(),
            }
            w.key("latency_p90_us");
            match latency.p90() {
                Some(ns) => w.num_u64(ns / 1_000),
                None => w.null(),
            }
            w.key("reachable");
            w.bool(stats.is_some());
            w.obj_end();
        }
        w.arr_end();
        w.key("upstream");
        w.obj_begin();
        w.key("answered");
        w.num_u64(upstream.iter().flatten().count() as u64);
        for key in ["accepted", "admitted", "served_ok", "served_error"] {
            w.key(key);
            w.num_u64(sum_server(key));
        }
        w.key("documents");
        w.num_u64(
            upstream
                .iter()
                .flatten()
                .filter_map(|v| v.get("corpus").and_then(|c| c.get("documents")))
                .filter_map(Value::as_u64)
                .sum(),
        );
        w.obj_end();
        w.obj_end();
        w.finish()
    }
}

/// Bind, serve and probe until shutdown: the router's counterpart of the
/// umbrella crate's `serve_live`. Spawns the background prober, runs the
/// server until drained, then joins the prober. Nothing is learned before
/// the socket is announced: each shard's id range comes with its answers.
pub fn serve_router(
    addr: &str,
    serve_config: extract_serve::ServeConfig,
    router_config: RouterConfig,
    on_ready: impl FnOnce(std::net::SocketAddr, ServerHandle),
) -> std::io::Result<()> {
    let server = extract_serve::Server::bind(addr, serve_config)?;
    let handle = server.handle();
    let mut app = RouterApp::new(router_config);
    app.attach_server(handle.clone());
    let app = Arc::new(app);
    let prober = {
        let app = Arc::clone(&app);
        let handle = handle.clone();
        std::thread::spawn(move || {
            while !handle.is_shutting_down() {
                std::thread::sleep(app.config().probe_interval);
                app.probe_round();
            }
        })
    };
    on_ready(server.local_addr(), handle);
    server.run(|request| app.handle(request));
    if prober.join().is_err() {
        // A panicked prober means health state stopped updating some time
        // ago; surface that instead of exiting silently "clean".
        eprintln!("router: health prober thread panicked");
    }
    Ok(())
}
