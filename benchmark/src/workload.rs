//! One benchmark run: generate the inputs, stand the daemons up (several
//! times, to time it), check every key against the oracle, drive the
//! measured window in rounds, then probe, scrape and tear down.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use extract_serve::json::{self, JsonWriter, Value};

use crate::client::{self, Client, MUTATION_TIMEOUT, REQUEST_TIMEOUT};
use crate::daemons::{self, interrupted, Daemon, Pinned};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::oracle::{self, Oracle};
use crate::scrape::{Exposition, Stats};
use crate::script::{self, GeneratedDoc, IngestPool, Key, Mutation, Shape, Universe};
use crate::stats::{self, OverRounds};
use crate::trace::{self, JoinedTrace, Recorder};

/// Seed of the corpus and the key sets every number is measured on (the
/// paper's year); `--seed` drives the traffic only.
const DATASET: u64 = 2008;
/// The writer's pace on `mixed_replay`: one mutation per this many
/// searches the reader completed — every 250 ms at reference speed. A
/// pace in requests keeps the mix the same on a slower box; a pace in
/// wall time would hand the rebuilds a larger share of the CPU there.
const SEARCHES_PER_MUTATION: u64 = 800;
/// Span budget of one connection's recorder (4 spans per traced request).
const SPAN_BUDGET: usize = 24_000;
/// Traced requests each connection remembers for the join with the
/// daemons' flight recorders (which keep 128).
const RECENT_TRACES: usize = 256;
/// Share of a window's searches that may fire a hedge before the window
/// is invalid: one in a thousand adds at most 0.1 % to the shards' work.
const HEDGED_SHARE: f64 = 1e-3;
/// Iterations of the fixed spin loop (`harness.spin_ms`).
const SPIN_ITERATIONS: u64 = 1_000_000;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections on 32 cached keys against one shard.
    ShardHot,
    /// Two connections round-robin over windows no cache can hold.
    ShardMiss,
    /// A zipf reader beside a paced ingest/delete writer.
    MixedReplay,
    /// One connection on the 32 hot keys through the router.
    RouterHot,
}

/// Processes and connections of one workload. Generator threads never
/// exceed the CPU count, and each daemon gets as many workers as
/// connections are aimed at it: a connection without a worker would
/// measure hand-offs, not the request path.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Shard daemons.
    pub shards: usize,
    /// `--workers` of each shard.
    pub shard_workers: usize,
    /// `--workers` of the router (0 = no router).
    pub router_workers: usize,
    /// Reader connections (one generator thread each).
    pub readers: usize,
    /// Whether a writer connection runs beside the readers.
    pub writer: bool,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::ShardHot,
            Workload::ShardMiss,
            Workload::MixedReplay,
            Workload::RouterHot,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShardHot => "shard_hot",
            Workload::ShardMiss => "shard_miss",
            Workload::MixedReplay => "mixed_replay",
            Workload::RouterHot => "router_hot",
        }
    }

    /// Processes and connections.
    pub fn topology(self) -> Topology {
        match self {
            Workload::ShardHot | Workload::ShardMiss => Topology {
                shards: 1,
                shard_workers: 2,
                router_workers: 0,
                readers: 2,
                writer: false,
            },
            Workload::MixedReplay => Topology {
                shards: 1,
                shard_workers: 2,
                router_workers: 0,
                readers: 1,
                writer: true,
            },
            Workload::RouterHot => Topology {
                shards: 2,
                shard_workers: 1,
                router_workers: 1,
                readers: 1,
                writer: false,
            },
        }
    }

    /// Whether the generator and every daemon stay on one CPU for the
    /// measured window (set-up always does). The three workloads whose
    /// requests take tens of µs do: a wake-up across vCPUs
    /// costs more than such a request and lands differently from run to
    /// run (`AA.md`), so they measure CPU work, not parallelism. At over a
    /// millisecond of daemon work per request `shard_miss` does not care,
    /// and runs free: the one workload on which the daemon's two workers
    /// execute at the same time, where contention between them shows.
    pub fn pinned(self) -> bool {
        self != Workload::ShardMiss
    }

    fn keys(self, universe: &Universe) -> &[Key] {
        match self {
            Workload::ShardHot | Workload::RouterHot => &universe.hot,
            Workload::ShardMiss => &universe.miss,
            Workload::MixedReplay => &universe.mixed,
        }
    }

    /// CPU the generator's request loop (write the request, read and
    /// compare the answer) spent per request on this workload, in µs, on
    /// the box and in the calm stretch the bounds were measured in
    /// (`AA.md`). It defines *reference speed*: a run whose generator pays
    /// 1.2× this is on a box running 1.2× slower just then, and its
    /// `*_ref_*` metrics are scaled back by that factor.
    fn reference_client_cpu_us(self) -> f64 {
        match self {
            Workload::ShardHot => 4.0,
            Workload::ShardMiss => 23.3,
            Workload::MixedReplay => 8.4,
            Workload::RouterHot => 7.3,
        }
    }

    /// Warm-up passes over the key set: the first is the oracle check and
    /// fills the caches, a second on the hot workloads confirms the
    /// cached answers are the same bytes.
    fn warm_passes(self) -> usize {
        match self {
            Workload::ShardHot | Workload::RouterHot => 2,
            Workload::ShardMiss | Workload::MixedReplay => 1,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the traffic: request order, zipf draws, ingested documents.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain (end-to-end metrics).
    pub trace: bool,
    /// Times the daemons are stood up (the median is `setup_s`).
    pub setups: usize,
    /// Mutation probes of each kind after a read-only window.
    pub probes: usize,
    /// Where run directories, detail files and span files go.
    pub out_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched the oracle and every validity check held.
    pub correct: bool,
    /// Requests sent (warm-up, window, probes).
    pub attempted: u64,
    /// Requests that failed: non-200, timeout, transport error or
    /// oracle mismatch.
    pub failed: u64,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub values: Values,
    /// Why `correct` is false, or warnings.
    pub notes: Vec<String>,
    /// The detail file written for this run.
    pub detail: PathBuf,
}

/// Rounds a window of `seconds` is split into: ten, or one per second
/// for windows shorter than ten seconds; a traced run needs a pair.
pub fn rounds_for(seconds: f64, trace: bool) -> usize {
    let rounds = (seconds.floor() as usize).clamp(1, 10);
    if trace {
        rounds.max(2)
    } else {
        rounds
    }
}

struct Stand {
    shards: Vec<Daemon>,
    router: Option<Daemon>,
}

impl Stand {
    fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.shards[0].addr, |r| r.addr)
    }

    fn all(&self) -> impl Iterator<Item = &Daemon> {
        self.shards.iter().chain(self.router.iter())
    }

    fn cpu_us(&self) -> u64 {
        self.all().map(Daemon::cpu_us).sum()
    }
}

fn stand_up(topology: &Topology, docs: &[GeneratedDoc], dir: &Path) -> Result<Stand, String> {
    let serve = daemons::binary("serve")?;
    let per_shard = docs.len().div_ceil(topology.shards);
    let mut shards = Vec::new();
    for (index, part) in docs.chunks(per_shard).enumerate() {
        let corpus = dir.join(format!("shard-{index}"));
        std::fs::create_dir_all(&corpus).map_err(|e| format!("{}: {e}", corpus.display()))?;
        for doc in part {
            let path = corpus.join(format!("{}.xml", doc.name));
            std::fs::write(&path, &doc.xml).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let args = [
            "--corpus",
            &corpus.to_string_lossy(),
            "--port",
            "0",
            "--workers",
            &topology.shard_workers.to_string(),
            "--cache",
            &oracle::CACHE.to_string(),
            "--max-requests",
            "0",
        ]
        .map(str::to_string);
        shards.push(Daemon::spawn(
            &serve,
            &args,
            &format!("serve-{index}"),
            dir,
        )?);
    }
    let router = if topology.router_workers > 0 {
        let list: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
        let args = [
            "--shards",
            &list.join(","),
            "--port",
            "0",
            "--workers",
            &topology.router_workers.to_string(),
        ]
        .map(str::to_string);
        Some(Daemon::spawn(
            &daemons::binary("router")?,
            &args,
            "router",
            dir,
        )?)
    } else {
        None
    };
    let stand = Stand { shards, router };
    for daemon in stand.all() {
        match client::get(daemon.addr, "/healthz") {
            Ok((200, _)) => {}
            other => return Err(format!("{}: unhealthy: {other:?}", daemon.label)),
        }
    }
    Ok(stand)
}

/// Request the keys in `order`, `passes` times over one connection, and
/// compare each body with the oracle's. Returns `(attempted, failed)`.
fn verify_keys(
    front: SocketAddr,
    order: &[u32],
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    passes: usize,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut client = Client::new(front, MUTATION_TIMEOUT);
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..passes {
        for index in order.iter().map(|&i| i as usize) {
            attempted += 1;
            let ok = matches!(client.exchange(&requests[index]), Ok((200, _)))
                && client.body() == expected[index].as_slice();
            if !ok {
                failed += 1;
                if notes.len() < 8 {
                    notes.push(format!(
                        "oracle mismatch on key {index}: got {:?}",
                        String::from_utf8_lossy(&client.body()[..client.body().len().min(160)])
                    ));
                }
            }
        }
    }
    (attempted, failed)
}

/// A fixed amount of pure-CPU work, timed: when this moves, the box —
/// not the program — changed.
fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..SPIN_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// What a rate and two durations measured on a box running `slowdown`
/// times slower than reference speed would have read at reference speed.
fn at_reference_speed(slowdown: f64, rate: f64, durations: [f64; 2]) -> [f64; 3] {
    [
        rate * slowdown,
        durations[0] / slowdown,
        durations[1] / slowdown,
    ]
}

/// Span-name totals kept for every traced request (the recorder itself
/// keeps only its budget's worth of full spans).
#[derive(Debug, Clone, Copy, Default)]
struct SpanSums {
    requests: u64,
    send_ns: u64,
    await_ns: u64,
    read_ns: u64,
}

struct ReaderLog {
    rounds: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    cpu_marks: Vec<u64>,
    /// This generator thread's CPU time at each round boundary, read
    /// before and after the boundary's chores (daemon `/proc` reads, the
    /// spin loop) so that a round counts only its requests.
    own_marks: Vec<(u64, u64)>,
    spins_ms: Vec<f64>,
    recorder: Recorder,
    sums: SpanSums,
    /// `(trace id, latency ns)` of the last traced requests — the ones
    /// still in the daemons' flight recorders when the window ends.
    recent: std::collections::VecDeque<(u64, u64)>,
    redials: u64,
}

struct ReaderPlan<'a> {
    conn: usize,
    front: SocketAddr,
    stream: Vec<u32>,
    /// Request targets, for the traced rounds' per-request wire bytes.
    targets: &'a [String],
    /// Pre-rendered wire bytes of every key, for the plain rounds.
    requests: &'a [Vec<u8>],
    /// Exact bodies (read-only workloads) or body prefixes (mixed).
    expected: &'a [Vec<u8>],
    exact: bool,
    trace: bool,
    start: Instant,
    round_len: Duration,
    rounds: usize,
    /// The daemons whose CPU connection 0 samples at round boundaries.
    stand: Option<&'a Stand>,
    /// Searches completed by all readers: the clock the writer runs by.
    progress: &'a AtomicU64,
}

fn read_loop(plan: ReaderPlan<'_>) -> ReaderLog {
    let mut client = Client::new(plan.front, REQUEST_TIMEOUT);
    let mut log = ReaderLog {
        rounds: (0..plan.rounds)
            .map(|_| Vec::with_capacity(1 << 16))
            .collect(),
        attempted: 0,
        failed: 0,
        cpu_marks: Vec::with_capacity(plan.rounds + 1),
        own_marks: Vec::with_capacity(plan.rounds + 1),
        spins_ms: Vec::with_capacity(plan.rounds),
        recorder: Recorder::new(SPAN_BUDGET),
        sums: SpanSums::default(),
        recent: std::collections::VecDeque::with_capacity(RECENT_TRACES),
        redials: 0,
    };
    let _ = client.connect();
    let traced_rounds = (plan.rounds / 2).max(1);
    let mut next = 0usize;
    let mut current_round = usize::MAX;
    let mut round_spans = 0usize;
    while Instant::now() < plan.start {
        std::thread::sleep(Duration::from_micros(200));
    }
    loop {
        let now = Instant::now();
        let round = ((now - plan.start).as_nanos() / plan.round_len.as_nanos()) as usize;
        if round >= plan.rounds || interrupted() {
            break;
        }
        if round != current_round {
            current_round = round;
            round_spans = 0;
            // Rounds skipped by a stall still get their boundary marks.
            let own = daemons::thread_cpu_us();
            while log.own_marks.len() <= round {
                log.own_marks.push((own, own));
            }
            if let Some(stand) = plan.stand {
                while log.cpu_marks.len() <= round {
                    log.cpu_marks.push(stand.cpu_us());
                }
                log.spins_ms.push(spin_ms());
                log.own_marks[round].1 = daemons::thread_cpu_us();
            }
            continue;
        }
        let index = plan.stream[next % plan.stream.len()] as usize;
        next += 1;
        // Odd rounds of a traced run carry a trace id and record spans.
        let trace_id = (plan.trace && round % 2 == 1)
            .then(|| ((plan.conn as u64 + 1) << 40) | (log.attempted + 1));
        let traced_wire;
        let request: &[u8] = match trace_id {
            Some(id) => {
                traced_wire = client::wire("GET", &plan.targets[index], Some(id), b"");
                &traced_wire
            }
            None => &plan.requests[index],
        };
        log.attempted += 1;
        let outcome = client.exchange(request);
        let ok = match &outcome {
            Ok((status, timing)) => {
                let want = plan.expected[index].as_slice();
                *status == 200
                    && timing.latency() <= REQUEST_TIMEOUT
                    && if plan.exact {
                        client.body() == want
                    } else {
                        client.body().starts_with(want)
                    }
            }
            Err(_) => false,
        };
        if !ok {
            log.failed += 1;
            continue;
        }
        let (_, timing) = outcome.expect("checked above");
        log.rounds[round].push(timing.latency().as_secs_f64() * 1e6);
        plan.progress.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = trace_id {
            let ns = |d: Duration| d.as_nanos() as u64;
            log.sums.requests += 1;
            log.sums.send_ns += ns(timing.sent - timing.start);
            log.sums.await_ns += ns(timing.first_byte - timing.sent);
            log.sums.read_ns += ns(timing.done - timing.first_byte);
            if log.recent.len() == RECENT_TRACES {
                log.recent.pop_front();
            }
            log.recent.push_back((id, ns(timing.latency())));
            // Each traced round keeps its share of the span budget.
            if round_spans + 4 <= SPAN_BUDGET / traced_rounds {
                round_spans += 4;
                let parent = log
                    .recorder
                    .record(None, id, "request", timing.start, timing.done);
                log.recorder
                    .record(parent, id, "send", timing.start, timing.sent);
                log.recorder.record(
                    parent,
                    id,
                    "await_first_byte",
                    timing.sent,
                    timing.first_byte,
                );
                log.recorder
                    .record(parent, id, "read_body", timing.first_byte, timing.done);
            } else {
                log.recorder.dropped += 4;
            }
        }
    }
    let own = daemons::thread_cpu_us();
    while log.own_marks.len() <= plan.rounds {
        log.own_marks.push((own, own));
    }
    if let Some(stand) = plan.stand {
        while log.cpu_marks.len() <= plan.rounds {
            log.cpu_marks.push(stand.cpu_us());
        }
    }
    log.redials = client.redials;
    log
}

#[derive(Default)]
struct WriterLog {
    ingest_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    acknowledged: u64,
    last_ingested: Option<usize>,
    last_deleted: Option<usize>,
}

/// Apply one mutation over `client`, logging latency and outcome.
fn mutate(client: &mut Client, pool: &IngestPool, mutation: Mutation, log: &mut WriterLog) {
    let request = match mutation {
        Mutation::Ingest(n) => client::wire(
            "POST",
            &format!("/ingest?name={}", IngestPool::name(n)),
            None,
            pool.body(n).as_bytes(),
        ),
        Mutation::Delete(n) => client::wire(
            "POST",
            &format!("/delete?doc={}", IngestPool::name(n)),
            None,
            b"",
        ),
    };
    log.attempted += 1;
    match client.exchange(&request) {
        Ok((200, timing)) => {
            log.acknowledged += 1;
            let ms = timing.latency().as_secs_f64() * 1e3;
            match mutation {
                Mutation::Ingest(n) => {
                    log.ingest_ms.push(ms);
                    log.last_ingested = Some(n);
                }
                Mutation::Delete(n) => {
                    log.delete_ms.push(ms);
                    log.last_deleted = Some(n);
                }
            }
        }
        _ => log.failed += 1,
    }
}

/// The paced writer of `mixed_replay`: one mutation each time the
/// readers have completed another [`SEARCHES_PER_MUTATION`] searches,
/// until `end`.
fn write_loop(
    addr: SocketAddr,
    pool: &IngestPool,
    progress: &AtomicU64,
    end: Instant,
) -> WriterLog {
    let mut client = Client::new(addr, MUTATION_TIMEOUT);
    let mut log = WriterLog::default();
    let _ = client.connect();
    for step in 0.. {
        let due = (step as u64 + 1) * SEARCHES_PER_MUTATION;
        while progress.load(Ordering::Relaxed) < due && Instant::now() < end && !interrupted() {
            std::thread::sleep(Duration::from_millis(2));
        }
        if progress.load(Ordering::Relaxed) < due {
            break;
        }
        mutate(&mut client, pool, script::mutation_at(step), &mut log);
    }
    log
}

/// `(p50(ingest) + p50(delete)) / 2`: the two kinds cost different
/// amounts, and a plain median over both would flip between the modes.
fn mutation_p50_ms(log: &WriterLog) -> f64 {
    let p50 = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        stats::sort(&mut sorted);
        stats::percentile(&sorted, 50.0)
    };
    (p50(&log.ingest_ms) + p50(&log.delete_ms)) / 2.0
}

struct Scrape {
    stats: Vec<Stats>,
    metrics: Vec<Exposition>,
}

/// `/stats` and `/metrics` of every daemon, shards first.
fn scrape(stand: &Stand) -> Result<Scrape, String> {
    let mut out = Scrape {
        stats: Vec::new(),
        metrics: Vec::new(),
    };
    for daemon in stand.all() {
        let fetch = |target: &str| match client::get(daemon.addr, target) {
            Ok((200, body)) => Ok(body),
            other => Err(format!("{} {target}: {other:?}", daemon.label)),
        };
        out.stats.push(Stats::parse(&fetch("/stats")?)?);
        out.metrics.push(Exposition::parse(&fetch("/metrics")?));
    }
    Ok(out)
}

/// Per-layer metrics read from outside: deltas of the daemons' own
/// counters between two scrapes, per completed search.
fn scraped_layers(
    topology: &Topology,
    before: &Scrape,
    after: &Scrape,
    searches: u64,
    values: &mut Values,
) {
    let shards = 0..topology.shards;
    let per_search = |total: f64| total / searches.max(1) as f64;
    let stage_us = |daemons: std::ops::Range<usize>, stage: &str| -> f64 {
        let name = "extract_request_stage_duration_seconds_sum";
        daemons
            .map(|d| {
                after.metrics[d].get(name, &[("stage", stage)])
                    - before.metrics[d].get(name, &[("stage", stage)])
            })
            .sum::<f64>()
            * 1e6
    };
    for (metric, stage) in [
        ("serve.stage.parse_us", "parse"),
        ("serve.stage.queue_us", "queue"),
        ("serve.stage.search_us", "search"),
        ("serve.stage.snippet_us", "snippet"),
        ("serve.stage.serialize_us", "serialize"),
        ("serve.stage.write_us", "write"),
    ] {
        values.set(metric, per_search(stage_us(shards.clone(), stage)));
    }
    if topology.router_workers > 0 {
        let router = topology.shards..topology.shards + 1;
        values.set(
            "router.stage.search_us",
            per_search(stage_us(router.clone(), "search")),
        );
        values.set(
            "router.stage.serialize_us",
            per_search(stage_us(router.clone(), "serialize")),
        );
        let counter = |key: &str| {
            after.stats[router.start].u64(&["router", key])
                - before.stats[router.start].u64(&["router", key])
        };
        values.set("router.retries", counter("retries") as f64);
        values.set("router.hedges_fired", counter("hedges_fired") as f64);
    }
    let delta = |path: &[&str]| -> u64 {
        shards
            .clone()
            .map(|d| after.stats[d].u64(path) - before.stats[d].u64(path))
            .sum()
    };
    let ratio = |cache: &str| {
        let (hits, misses) = (
            delta(&["session", cache, "hits"]),
            delta(&["session", cache, "misses"]),
        );
        hits as f64 / (hits + misses).max(1) as f64
    };
    values.set("session.page_hit_ratio", ratio("corpus_page_cache"));
    values.set("session.snippet_hit_ratio", ratio("snippet_cache"));
    values.set(
        "session.page_evictions",
        delta(&["session", "corpus_page_cache", "evictions"]) as f64,
    );
    values.set("corpus.epoch_delta", delta(&["corpus", "epoch"]) as f64);
    let shed: f64 = (0..after.metrics.len())
        .flat_map(|d| {
            [
                "extract_server_shed_queue_full_total",
                "extract_server_shed_per_client_total",
            ]
            .map(|name| after.metrics[d].get(name, &[]) - before.metrics[d].get(name, &[]))
        })
        .sum();
    values.set("serve.shed_total", shed);
}

/// The workload-validity check: a window whose hit ratio is off, or in
/// which a daemon shed, retried or hedged, did not measure what it says.
fn validity(workload: Workload, values: &Values, searches: u64, notes: &mut Vec<String>) -> bool {
    let ratio = values.get("session.page_hit_ratio");
    let ok = match workload {
        Workload::ShardHot | Workload::RouterHot => ratio >= 0.99,
        Workload::ShardMiss => ratio <= 0.01,
        Workload::MixedReplay => ratio > 0.0 && ratio < 1.0,
    };
    if !ok {
        notes.push(format!(
            "{}: page hit ratio {ratio} is off",
            workload.name()
        ));
    }
    // A shed request failed and a retry means a shard did: neither may
    // happen. A hedge fires when a shard stalls for 20 ms, which the box
    // does to one to five requests in 135 000 on one run in four (`AA.md`);
    // each costs one more shard request, so a share that cannot move a
    // median is noted and a larger one makes the window invalid.
    let mut quiet = true;
    for (counter, allowed) in [
        ("serve.shed_total", 0.0),
        ("router.retries", 0.0),
        ("router.hedges_fired", searches as f64 * HEDGED_SHARE),
    ] {
        let seen = values.get(counter);
        if seen > allowed {
            quiet = false;
            notes.push(format!("{counter} = {seen}, at most {allowed} allowed"));
        } else if seen > 0.0 {
            notes.push(format!("{counter} = {seen} of {searches} searches"));
        }
    }
    ok && quiet
}

/// Match the harness's last traced requests with the daemons' flight
/// recorders by trace id.
fn join_traces(stand: &Stand, readers: &[ReaderLog]) -> Vec<JoinedTrace> {
    let mine: std::collections::BTreeMap<u64, u64> = readers
        .iter()
        .flat_map(|r| r.recent.iter().copied())
        .collect();
    let mut joined = Vec::new();
    for daemon in stand.all() {
        let Ok((200, body)) = client::get(daemon.addr, "/debug/traces") else {
            continue;
        };
        let Ok(parsed) = json::parse(&body) else {
            continue;
        };
        for record in parsed.get("traces").and_then(Value::as_arr).unwrap_or(&[]) {
            let id = record
                .get("trace")
                .and_then(Value::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            let Some((id, &client_ns)) = id.and_then(|id| mine.get(&id).map(|ns| (id, ns))) else {
                continue;
            };
            let stages_ns = match record.get("stages") {
                Some(Value::Obj(stages)) => stages
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|ns| (k.clone(), ns)))
                    .collect(),
                _ => Vec::new(),
            };
            joined.push(JoinedTrace {
                trace: id,
                daemon: daemon.label.clone(),
                client_ns,
                daemon_total_ns: record.get("total_ns").and_then(Value::as_u64).unwrap_or(0),
                stages_ns,
            });
        }
    }
    joined
}

/// Client-observed p50 of `count` sequential exchanges of `requests`
/// against `addr`, in µs.
fn p50_us(addr: SocketAddr, requests: &[Vec<u8>], count: usize) -> f64 {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let mut samples: Vec<f64> = (0..count)
        .filter_map(|i| client.exchange(&requests[i % requests.len()]).ok())
        .map(|(_, timing)| timing.latency().as_secs_f64() * 1e6)
        .collect();
    stats::sort(&mut samples);
    stats::percentile(&samples, 50.0)
}

/// Removes the run directory (corpora, daemon logs) when the run ends —
/// unless it failed, in which case the logs are worth keeping.
struct RunDir {
    path: PathBuf,
    keep: bool,
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Write the detail file of one run: the configuration, the counts, every
/// per-round value with its quartiles, every metric, the notes.
#[allow(clippy::too_many_arguments)]
fn write_detail(
    options: &Options,
    correct: bool,
    facts: &[(&str, u64)],
    over_rounds: &[(&str, OverRounds, &[f64])],
    series: &[(&str, &Vec<f64>)],
    values: &Values,
    span_file: Option<&Path>,
    notes: &[String],
) -> Result<PathBuf, String> {
    let mode = if options.trace { "traced" } else { "plain" };
    let mut w = JsonWriter::new();
    w.obj_begin();
    for (key, text) in [("workload", options.workload.name()), ("mode", mode)] {
        w.key(key);
        w.str(text);
    }
    for (key, n) in facts {
        w.key(key);
        w.num_u64(*n);
    }
    w.key("run_seconds");
    w.num_f64(options.seconds);
    w.key("correct");
    w.bool(correct);
    w.key("over_rounds");
    w.obj_begin();
    for (name, summary, raw) in over_rounds {
        w.key(name);
        w.obj_begin();
        for (key, v) in [
            ("q1", summary.q1),
            ("median", summary.median),
            ("q3", summary.q3),
        ] {
            w.key(key);
            w.num_f64(v);
        }
        w.key("per_round");
        w.arr_begin();
        raw.iter().for_each(|v| w.num_f64(*v));
        w.arr_end();
        w.obj_end();
    }
    w.obj_end();
    for (key, values) in series {
        w.key(key);
        w.arr_begin();
        values.iter().for_each(|v| w.num_f64(*v));
        w.arr_end();
    }
    w.key("metrics");
    w.obj_begin();
    for (name, value, unit) in values.table(&END_TO_END).chain(values.table(&PER_LAYER)) {
        w.key(name);
        w.obj_begin();
        w.key("value");
        w.num_f64(value);
        w.key("unit");
        w.str(unit);
        w.obj_end();
    }
    w.obj_end();
    if let Some(path) = span_file {
        w.key("span_file");
        w.str(&path.to_string_lossy());
    }
    w.key("notes");
    w.arr_begin();
    notes.iter().for_each(|n| w.str(n));
    w.arr_end();
    w.obj_end();
    let path = options.out_dir.join(format!(
        "{}-seed{}-{mode}.json",
        options.workload.name(),
        options.seed
    ));
    std::fs::write(&path, w.finish()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Run one workload once.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let allowed = daemons::allowed_cpus();
    let cpus = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(allowed.len());
    if cpus < 2 {
        return Err(
            "the benchmark needs at least 2 CPUs: shard_miss runs two daemon workers \
             side by side, the pinned workloads leave one CPU to the rest of the box"
                .into(),
        );
    }
    // The pinned workloads' CPU: the last one, away from CPU 0's housekeeping.
    let bench_cpu = *allowed.last().expect("at least two CPUs");
    let workload = options.workload;
    let topology = workload.topology();
    let shape = Shape::SHIPPED;
    let rounds = rounds_for(options.seconds, options.trace);
    let round_len = Duration::from_secs_f64(options.seconds / rounds as f64);
    let mut notes = Vec::new();

    // ---- inputs: corpus, oracle, universe, expected bodies ----
    let (docs, parsed): (Vec<GeneratedDoc>, Vec<_>) =
        script::corpus_docs(DATASET, &shape).into_iter().unzip();
    let oracle = Oracle::build(&docs)?;
    let mut totals = std::collections::BTreeMap::new();
    let mut universe = Err("no candidates".to_string());
    for samples in [800, 1_600, 3_200, 6_400] {
        let queries = script::candidate_queries(&parsed, DATASET, samples);
        universe = Universe::build(DATASET, &shape, &queries, |q| {
            *totals
                .entry(q.to_string())
                .or_insert_with(|| oracle.total(q))
        });
        if universe.is_ok() {
            break;
        }
    }
    let universe = universe?;
    drop(parsed);
    let pool = IngestPool::new(DATASET, &shape);
    let keys = workload.keys(&universe);
    let targets: Vec<String> = keys.iter().map(Key::target).collect();
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| client::wire("GET", t, None, b""))
        .collect();
    let expected: Vec<Vec<u8>> = keys
        .iter()
        .map(|key| {
            let body = oracle.body(key);
            if topology.router_workers > 0 {
                oracle::router_body(&body, topology.shards)
            } else {
                body
            }
        })
        .collect();
    drop(oracle);
    if interrupted() {
        return Err("interrupted".into());
    }

    // ---- set-up, several times: corpus on disk → healthy → warm → oracle ----
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let mut run_dir = RunDir {
        path: options
            .out_dir
            .join(format!("run-{}-{}", std::process::id(), workload.name())),
        keep: true,
    };
    // From here on this thread — and so every daemon and generator thread
    // it starts — stays on one CPU: set-up is single-core on every
    // workload (left free, one `shard_miss` daemon in ten came up with
    // 115 MB resident instead of 82).
    let mut pinned = Some(Pinned::to(bench_cpu)?);
    let warm_order: Vec<u32> = match workload {
        Workload::ShardMiss => script::miss_order(options.seed, keys.len()),
        _ => (0..keys.len() as u32).collect(),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups_s = Vec::new();
    let mut stand = None;
    for n in 0..options.setups.max(1) {
        drop(stand.take());
        let dir = run_dir.path.join(format!("stand-{n}"));
        let start = Instant::now();
        let up = stand_up(&topology, &docs, &dir)?;
        let (a, f) = verify_keys(
            up.front(),
            &warm_order,
            &requests,
            &expected,
            workload.warm_passes(),
            &mut notes,
        );
        setups_s.push(start.elapsed().as_secs_f64());
        attempted += a;
        failed += f;
        stand = Some(up);
        if interrupted() {
            return Err("interrupted".into());
        }
    }
    let stand = stand.expect("at least one set-up");

    // ---- the measured window ----
    let before = scrape(&stand)?;
    let rss_mb = stand.all().map(Daemon::rss_kb).sum::<u64>() as f64 / 1024.0;
    let mixed = workload == Workload::MixedReplay;
    let prefixes: Vec<Vec<u8>>;
    let window_expected: &[Vec<u8>] = if mixed {
        prefixes = keys.iter().map(oracle::body_prefix).collect();
        &prefixes
    } else {
        &expected
    };
    if !workload.pinned() {
        // The window runs free: give the daemons' threads, and through
        // this thread the generator threads about to start, every CPU.
        for daemon in stand.all() {
            daemon.allow_cpus(&allowed)?;
        }
        pinned = None;
    }
    let stolen_before = daemons::stolen_ticks();
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + round_len * rounds as u32;
    let progress = AtomicU64::new(0);
    let (readers, writer) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..topology.readers)
            .map(|conn| {
                let plan = ReaderPlan {
                    conn,
                    front: stand.front(),
                    stream: match workload {
                        Workload::ShardHot | Workload::RouterHot => {
                            script::hot_stream(options.seed, conn, keys.len())
                        }
                        Workload::ShardMiss => {
                            script::miss_stream(options.seed, conn, topology.readers, keys.len())
                        }
                        Workload::MixedReplay => script::zipf_stream(options.seed, keys.len()),
                    },
                    targets: &targets,
                    requests: &requests,
                    expected: window_expected,
                    exact: !mixed,
                    trace: options.trace,
                    start,
                    round_len,
                    rounds,
                    stand: (conn == 0).then_some(&stand),
                    progress: &progress,
                };
                scope.spawn(move || read_loop(plan))
            })
            .collect();
        let writer = topology
            .writer
            .then(|| scope.spawn(|| write_loop(stand.shards[0].addr, &pool, &progress, end)));
        let readers: Vec<ReaderLog> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (readers, writer.map(|w| w.join().expect("writer thread")))
    });
    if interrupted() {
        return Err("interrupted".into());
    }
    let stolen = daemons::stolen_ticks().saturating_sub(stolen_before) as f64;
    let peak_rss_mb = stand.all().map(Daemon::peak_rss_kb).sum::<u64>() as f64 / 1024.0;
    let after = scrape(&stand)?;

    // ---- per-round figures ----
    let cpu_marks = &readers[0].cpu_marks;
    let mut per_round: [(&'static str, Vec<f64>); 9] = [
        "throughput_rps",
        "search_p50_us",
        "search_p99_us",
        "daemon_cpu_us_per_req",
        "harness.cpu_us_per_req",
        "harness.box_slowdown",
        "throughput_ref_rps",
        "search_p50_ref_us",
        "daemon_cpu_ref_us_per_req",
    ]
    .map(|name| (name, Vec::with_capacity(rounds)));
    let mut searches = 0u64;
    for round in 0..rounds {
        let mut samples: Vec<f64> = readers
            .iter()
            .flat_map(|r| r.rounds[round].iter().copied())
            .collect();
        stats::sort(&mut samples);
        searches += samples.len() as u64;
        let cpu = cpu_marks[round + 1].saturating_sub(cpu_marks[round]) as f64;
        let own: u64 = readers
            .iter()
            .map(|r| {
                r.own_marks[round + 1]
                    .0
                    .saturating_sub(r.own_marks[round].1)
            })
            .sum();
        let done = samples.len().max(1) as f64;
        let throughput = samples.len() as f64 / round_len.as_secs_f64();
        let p50 = stats::percentile(&samples, 50.0);
        // How much slower than reference speed the box ran in this round,
        // by the generator's own cost; each round is scaled by its own.
        let slowdown = (own as f64 / done / workload.reference_client_cpu_us()).max(1e-9);
        let [throughput_ref, p50_ref, cpu_ref] =
            at_reference_speed(slowdown, throughput, [p50, cpu / done]);
        let figures = [
            throughput,
            p50,
            stats::percentile(&samples, 99.0),
            cpu / done,
            own as f64 / done,
            slowdown,
            throughput_ref,
            p50_ref,
            cpu_ref,
        ];
        for ((_, series), figure) in per_round.iter_mut().zip(figures) {
            series.push(figure);
        }
    }
    let mut redials = 0;
    for reader in &readers {
        attempted += reader.attempted;
        failed += reader.failed;
        redials += reader.redials;
    }
    let mut values = Values::default();
    let over_rounds: Vec<(&'static str, OverRounds)> = per_round
        .iter()
        .map(|(name, v)| (*name, OverRounds::of(v)))
        .collect();
    for (name, summary) in &over_rounds {
        values.set(name, summary.median);
    }
    values.set("setup_s", stats::median(&setups_s));
    values.set("daemon_rss_mb", rss_mb);
    values.set("daemon_rss_peak_mb", peak_rss_mb);
    let spins: Vec<f64> = readers[0].spins_ms.clone();
    values.set("harness.spin_ms", stats::median(&spins));
    let window_ticks = options.seconds * daemons::TICKS_PER_SECOND as f64 * cpus as f64;
    values.set("harness.stolen_pct", stolen / window_ticks * 100.0);
    if stolen / window_ticks > 0.01 {
        notes.push(format!(
            "the hypervisor took {:.1} % of the box's CPU time during the window",
            stolen / window_ticks * 100.0
        ));
    }
    scraped_layers(&topology, &before, &after, searches, &mut values);
    let mut correct = validity(workload, &values, searches, &mut notes);

    // ---- after the window: mutations, end-state checks ----
    let mut writer_log = writer.unwrap_or_default();
    let front = stand.front();
    if mixed {
        let epoch = after.stats[0].u64(&["corpus", "epoch"]);
        if epoch != writer_log.acknowledged {
            correct = false;
            notes.push(format!(
                "epoch {epoch} after {} acknowledged mutations",
                writer_log.acknowledged
            ));
        }
        for (doc, want) in [(writer_log.last_ingested, 1), (writer_log.last_deleted, 0)] {
            let Some(n) = doc else { continue };
            attempted += 1;
            let key = Key {
                q: IngestPool::marker(n),
                k: 10,
                offset: 0,
            };
            let total = client::get(front, &key.target())
                .ok()
                .and_then(|(_, body)| json::parse(&body).ok())
                .and_then(|v| v.get("total").and_then(Value::as_u64));
            if total != Some(want) {
                failed += 1;
                notes.push(format!(
                    "probe for harness document {n}: total {total:?}, want {want}"
                ));
            }
        }
    } else {
        // A quiet probe phase: mutations straight to shard 0, which on
        // the router workload also makes the router relearn its remap.
        let mut client = Client::new(stand.shards[0].addr, MUTATION_TIMEOUT);
        for n in 0..options.probes {
            mutate(&mut client, &pool, Mutation::Ingest(n), &mut writer_log);
            mutate(&mut client, &pool, Mutation::Delete(n), &mut writer_log);
        }
        // The corpus is level again, so the first keys must still answer
        // with the same bytes (same documents, same ids, later epoch).
        let recheck = &warm_order[..warm_order.len().min(32)];
        let (a, f) = verify_keys(front, recheck, &requests, &expected, 1, &mut notes);
        attempted += a;
        failed += f;
    }
    attempted += writer_log.attempted;
    failed += writer_log.failed;
    values.set("mutation_p50_ms", mutation_p50_ms(&writer_log));

    // ---- traced run: spans, joins, floors, the in-process pass ----
    let mut span_file = None;
    if options.trace {
        let thr = &per_round[0].1; // throughput_rps
        let pick = |parity: usize| -> Vec<f64> {
            thr.iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, v)| *v)
                .collect()
        };
        let (plain, traced) = (stats::median(&pick(0)), stats::median(&pick(1)));
        values.set(
            "harness.trace_overhead_pct",
            (1.0 - traced / plain.max(1e-9)) * 100.0,
        );
        let joined = join_traces(&stand, &readers);
        let mut sums = SpanSums::default();
        // Room for every connection's spans plus the in-process pass's.
        let mut recorder = Recorder::new(topology.readers * SPAN_BUDGET + 64);
        for reader in readers {
            sums.requests += reader.sums.requests;
            sums.send_ns += reader.sums.send_ns;
            sums.await_ns += reader.sums.await_ns;
            sums.read_ns += reader.sums.read_ns;
            recorder.absorb(reader.recorder);
        }
        let mean_us = |ns: u64| ns as f64 / sums.requests.max(1) as f64 / 1e3;
        // What `request` does not hand to a child: the recorded spans say.
        let request_self = trace::by_name(recorder.spans())
            .get("request")
            .map_or(0.0, |t| t.mean_self_us());
        values.set("harness.span.request_us", request_self);
        values.set("harness.span.send_us", mean_us(sums.send_ns));
        values.set("harness.span.await_first_byte_us", mean_us(sums.await_ns));
        values.set("harness.span.read_body_us", mean_us(sums.read_ns));
        let healthz = [client::wire("GET", "/healthz", None, b"")];
        values.set(
            "serve.client_roundtrip_us",
            p50_us(stand.shards[0].addr, &healthz, 2_000),
        );
        if topology.router_workers > 0 {
            let direct = p50_us(stand.shards[0].addr, &requests, 2_000);
            values.set("router.overhead_us", values.get("search_p50_us") - direct);
        }
        drop(stand);
        drop(pinned);
        layers::run(&docs, &universe, &pool, &mut recorder, &mut values)?;
        values.set("harness.spans_dropped", recorder.dropped as f64);
        let mut w = JsonWriter::new();
        trace::write_json(&mut w, &recorder, &joined);
        let path = options
            .out_dir
            .join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, w.finish()).map_err(|e| format!("{}: {e}", path.display()))?;
        span_file = Some(path);
    } else {
        drop(stand);
        drop(pinned);
    }

    correct &= failed == 0;
    run_dir.keep = !correct;

    // ---- the detail file: everything the last line leaves out ----
    let facts = [
        ("dataset", DATASET),
        ("seed", options.seed),
        ("cpus", cpus as u64),
        ("pinned_cpu", bench_cpu as u64),
        ("window_pinned", u64::from(workload.pinned())),
        ("rounds", rounds as u64),
        ("setups", setups_s.len() as u64),
        ("shards", topology.shards as u64),
        ("shard_workers", topology.shard_workers as u64),
        ("router_workers", topology.router_workers as u64),
        ("reader_connections", topology.readers as u64),
        ("writer_connections", u64::from(topology.writer)),
        ("attempted", attempted),
        ("failed", failed),
        ("searches_in_window", searches),
        ("mutations_acknowledged", writer_log.acknowledged),
        ("redials", redials),
    ];
    let rounds_detail: Vec<_> = over_rounds
        .iter()
        .zip(&per_round)
        .map(|((name, summary), (_, raw))| (*name, *summary, raw.as_slice()))
        .collect();
    let detail = write_detail(
        options,
        correct,
        &facts,
        &rounds_detail,
        &[("setups_s", &setups_s), ("spin_ms", &spins)],
        &values,
        span_file.as_deref(),
        &notes,
    )?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        values,
        notes,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_follow_the_window() {
        assert_eq!(rounds_for(30.0, false), 10);
        assert_eq!(rounds_for(20.0, false), 10);
        assert_eq!(rounds_for(3.0, false), 3);
        assert_eq!(rounds_for(1.0, false), 1);
        assert_eq!(rounds_for(0.4, false), 1);
        assert_eq!(
            rounds_for(1.0, true),
            2,
            "a traced run needs a plain and a traced round"
        );
    }

    #[test]
    fn generator_threads_fit_two_cpus_and_workers_match_connections() {
        for name in crate::metrics::WORKLOADS {
            let workload = Workload::parse(name).expect("known workload");
            assert_eq!(workload.name(), name);
            let t = workload.topology();
            assert!(t.readers + usize::from(t.writer) <= 2, "{name}");
            if t.router_workers > 0 {
                assert_eq!(t.router_workers, t.readers, "{name}");
                assert_eq!(
                    t.shard_workers, 1,
                    "{name}: one router connection per shard"
                );
            } else {
                assert_eq!(t.shard_workers, t.readers + usize::from(t.writer), "{name}");
            }
        }
        assert!(Workload::parse("nope").is_none());
    }

    #[test]
    fn a_window_that_shed_retried_or_hedged_much_is_invalid() {
        let window = |counter: &'static str, seen: f64| {
            let mut values = Values::default();
            values.set("session.page_hit_ratio", 1.0);
            values.set(counter, seen);
            let mut notes = Vec::new();
            let ok = validity(Workload::RouterHot, &values, 100_000, &mut notes);
            (ok, notes.len())
        };
        assert_eq!(window("router.hedges_fired", 0.0), (true, 0));
        assert_eq!(window("router.hedges_fired", 3.0), (true, 1), "noted");
        assert_eq!(window("router.hedges_fired", 101.0), (false, 1));
        assert_eq!(window("router.retries", 1.0), (false, 1));
        assert_eq!(window("serve.shed_total", 1.0), (false, 1));
        // Only shard_miss runs its daemon over more than one CPU.
        assert!(!Workload::ShardMiss.pinned());
        assert!(Workload::ShardHot.pinned() && Workload::RouterHot.pinned());
    }

    #[test]
    fn a_slow_box_is_scaled_back_to_reference_speed() {
        // A quarter slower: 800 rps at 50 µs and 20 µs of CPU were 1 000 rps
        // at 40 µs and 16 µs.
        assert_eq!(
            at_reference_speed(1.25, 800.0, [50.0, 20.0]),
            [1000.0, 40.0, 16.0]
        );
        assert_eq!(
            at_reference_speed(1.0, 800.0, [50.0, 20.0]),
            [800.0, 50.0, 20.0]
        );
    }

    #[test]
    fn mutation_p50_averages_the_two_kinds() {
        let log = WriterLog {
            ingest_ms: vec![10.0, 12.0, 11.0],
            delete_ms: vec![5.0, 7.0, 6.0],
            ..WriterLog::default()
        };
        assert_eq!(mutation_p50_ms(&log), 8.5);
    }
}
