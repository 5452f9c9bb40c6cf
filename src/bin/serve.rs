//! `serve` — the eXtract query daemon.
//!
//! One daemon serves one **live corpus**: a hand-rolled HTTP/1.1 front
//! end (`extract-serve`) with bounded-queue admission control,
//! per-client fairness and graceful drain, answering `/search` from
//! epoch-stamped corpus snapshots while `POST /ingest` and
//! `POST /delete` mutate the corpus underneath — no restart, no reload.
//! See the README "Serving" and "Live corpora" sections for the wire
//! protocol.
//!
//! ```text
//! serve [options]
//!
//! corpus source (pick one; default --gen-docs 24):
//!   --corpus DIR     ingest every .xml file under DIR (sorted; malformed
//!                    files are soft-rejected and reported on /stats)
//!   --gen-docs N     generate a mixed N-document datagen corpus
//!
//! options:
//!   --port P         TCP port (default 7878; 0 picks an ephemeral port)
//!   --workers N      worker threads (default: available parallelism)
//!   --queue-depth N  admission queue bound; the excess is shed with 503
//!                    (default 64)
//!   --per-client N   in-flight cap per peer IP, shed with 429
//!                    (default workers + queue depth)
//!   --max-requests N most requests served per connection, 0 = unlimited
//!                    (default 256; 1 answers every request
//!                    `Connection: close`). Between requests a kept-alive
//!                    connection is parked on the epoll readiness loop
//!   --idle-timeout-ms N
//!                    evict a kept-alive connection parked idle this long
//!                    (default 5000)
//!   --trace-capacity N
//!                    flight-recorder depth: most recent request traces
//!                    kept for /debug/traces (min 1, default 128)
//!   --slow-ms N      slow-request threshold; requests at or over it log
//!                    one key=value stage-breakdown line (default 500)
//!   --gen-nodes N    target nodes per generated document (default 2000)
//!   --seed S         generator seed (default 0xC0D)
//!   --bound N        snippet size bound (default 10)
//!   --default-k N    page size when the request has no k (default 10)
//!   --max-k N        hard page-size cap (default 100)
//!   --cache N        session cache capacity, 0 disables (default 4096)
//!   --fault SPEC     inject a deterministic fault (repeatable); SPEC is
//!                    `<action>:<path>[:key=value]*` with actions
//!                    stall (ms=), reset, status (code=), exit (code=)
//!                    and windows after=N / count=N — e.g.
//!                    `status:/search:code=500:after=10:count=2`.
//!                    Test/bench harness only; never in production.
//!   --self-check     boot on an ephemeral port, run a loopback smoke
//!                    round (/healthz, /search, /stats, /shutdown, plus
//!                    two requests over one kept-alive socket and an
//!                    ingest/search/delete mutation round), validate
//!                    every JSON body, then exit
//! ```
//!
//! The daemon prints exactly one ready line to stdout once it accepts
//! connections:
//!
//! ```text
//! extract-serve listening on http://127.0.0.1:7878 (docs=24 nodes=48231 workers=4 queue=64)
//! ```
//!
//! and exits 0 after a `POST /shutdown` finished draining.

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use extract::corpus::{Corpus, CorpusBuilder};
use extract::datagen::corpus::CorpusConfig;
use extract::live::serve_live;
use extract::prelude::*;
use extract_core::ExtractConfig;
use extract_serve::json;
use extract_serve::{ClientConfig, Connection, ServeConfig};

struct Options {
    corpus_dir: Option<String>,
    gen_docs: usize,
    gen_nodes: usize,
    seed: u64,
    port: u16,
    workers: usize,
    queue_depth: usize,
    per_client: Option<usize>,
    max_requests: u64,
    idle_timeout_ms: u64,
    trace_capacity: usize,
    slow_ms: u64,
    bound: usize,
    default_k: usize,
    max_k: usize,
    cache: usize,
    fault: Vec<String>,
    self_check: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            corpus_dir: None,
            gen_docs: 24,
            gen_nodes: 2_000,
            seed: 0xC0D,
            port: 7878,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_depth: 64,
            per_client: None,
            max_requests: 256,
            idle_timeout_ms: 5_000,
            trace_capacity: 128,
            slow_ms: 500,
            bound: 10,
            default_k: 10,
            max_k: 100,
            cache: 4096,
            fault: Vec::new(),
            self_check: false,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve [--corpus DIR | --gen-docs N] [--port P] [--workers N] \
         [--queue-depth N] [--per-client N] [--max-requests N] \
         [--idle-timeout-ms N] [--trace-capacity N] [--slow-ms N] \
         [--gen-nodes N] [--seed S] [--bound N] \
         [--default-k N] [--max-k N] [--cache N] [--fault SPEC]... [--self-check]"
    );
    ExitCode::from(2)
}

fn parse_options() -> Result<Options, ExitCode> {
    let mut options = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, ExitCode> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(usage)
        };
        match args[i].as_str() {
            "--corpus" => options.corpus_dir = Some(value(&mut i)?),
            "--gen-docs" => options.gen_docs = parse_num(&value(&mut i)?)?,
            "--gen-nodes" => options.gen_nodes = parse_num(&value(&mut i)?)?,
            "--seed" => options.seed = parse_num(&value(&mut i)?)? as u64,
            "--port" => {
                let raw = parse_num(&value(&mut i)?)?;
                options.port = u16::try_from(raw).map_err(|_| {
                    eprintln!("serve: port {raw} is out of range (0-65535)");
                    usage()
                })?;
            }
            "--workers" => options.workers = parse_num(&value(&mut i)?)?,
            "--queue-depth" => options.queue_depth = parse_num(&value(&mut i)?)?,
            "--per-client" => options.per_client = Some(parse_num(&value(&mut i)?)?),
            "--max-requests" => options.max_requests = parse_num(&value(&mut i)?)? as u64,
            "--idle-timeout-ms" => {
                options.idle_timeout_ms = parse_num(&value(&mut i)?)? as u64;
            }
            "--trace-capacity" => options.trace_capacity = parse_num(&value(&mut i)?)?,
            "--slow-ms" => options.slow_ms = parse_num(&value(&mut i)?)? as u64,
            "--bound" => options.bound = parse_num(&value(&mut i)?)?,
            "--default-k" => options.default_k = parse_num(&value(&mut i)?)?,
            "--max-k" => options.max_k = parse_num(&value(&mut i)?)?,
            "--cache" => options.cache = parse_num(&value(&mut i)?)?,
            "--fault" => options.fault.push(value(&mut i)?),
            "--self-check" => options.self_check = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("serve: unknown argument `{other}`");
                return Err(usage());
            }
        }
        i += 1;
    }
    Ok(options)
}

fn parse_num(raw: &str) -> Result<usize, ExitCode> {
    raw.parse().map_err(|_| {
        eprintln!("serve: `{raw}` is not a non-negative integer");
        usage()
    })
}

fn build_corpus(options: &Options) -> Result<Corpus, ExitCode> {
    let mut builder = CorpusBuilder::new();
    match &options.corpus_dir {
        Some(dir) => {
            let mut paths: Vec<_> = match std::fs::read_dir(dir) {
                Ok(entries) => entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
                    .collect(),
                Err(e) => {
                    eprintln!("serve: cannot read corpus dir `{dir}`: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            paths.sort();
            for path in paths {
                let name = path.file_stem().unwrap_or_default().to_string_lossy().to_string();
                match std::fs::read_to_string(&path) {
                    Ok(xml) => {
                        if let Err(e) = builder.add_document(&name, &xml) {
                            eprintln!("serve: {e} (soft-rejected, continuing)");
                        }
                    }
                    Err(e) => eprintln!("serve: skipping {}: {e}", path.display()),
                }
            }
        }
        None => {
            let config = CorpusConfig {
                documents: options.gen_docs,
                target_nodes_per_doc: options.gen_nodes,
                seed: options.seed,
            };
            for (name, doc) in config.documents() {
                builder.add_parsed(&name, doc);
            }
        }
    }
    if builder.is_empty() {
        eprintln!("serve: the corpus is empty — nothing to serve");
        return Err(ExitCode::FAILURE);
    }
    Ok(builder.finish())
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(code) => return code,
    };
    let corpus = match build_corpus(&options) {
        Ok(corpus) => corpus,
        Err(code) => return code,
    };

    let fault = if options.fault.is_empty() {
        None
    } else {
        match extract_serve::FaultPlan::from_specs(&options.fault) {
            Ok(plan) => {
                eprintln!("serve: FAULT INJECTION ACTIVE ({} rule(s))", options.fault.len());
                Some(std::sync::Arc::new(plan))
            }
            Err(e) => {
                eprintln!("serve: bad --fault spec: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let serve_config = ServeConfig {
        workers: options.workers.max(1),
        queue_depth: options.queue_depth,
        per_client_inflight: options
            .per_client
            .unwrap_or(options.workers.max(1) + options.queue_depth),
        io_timeout: Duration::from_secs(10),
        max_requests_per_connection: options.max_requests,
        idle_timeout: Duration::from_millis(options.idle_timeout_ms),
        trace_capacity: options.trace_capacity,
        slow_request: Duration::from_millis(options.slow_ms),
        fault,
    };
    let app_config = SearchAppConfig {
        snippet: ExtractConfig::with_bound(options.bound),
        default_k: options.default_k,
        max_k: options.max_k,
    };

    let port = if options.self_check { 0 } else { options.port };
    let addr = format!("127.0.0.1:{port}");
    let docs = corpus.len();
    let nodes = corpus.total_nodes();
    let (workers, queue) = (serve_config.workers, serve_config.queue_depth);
    let self_check = options.self_check;
    let cache = options.cache;
    let mut checker: Option<std::thread::JoinHandle<bool>> = None;

    let live = LiveCorpus::from_corpus(corpus);
    let served =
        serve_live(live, &addr, serve_config, app_config, cache, |addr, handle| {
            println!(
                "extract-serve listening on http://{addr} (docs={docs} nodes={nodes} \
                 workers={workers} queue={queue})"
            );
            let _ = std::io::stdout().flush();
            if self_check {
                checker = Some(std::thread::spawn(move || {
                    let ok = self_check_round(addr);
                    if !ok {
                        // Never leave the daemon running on a failed check.
                        handle.shutdown();
                    }
                    ok
                }));
            }
        });
    if let Err(e) = served {
        eprintln!("serve: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(checker) = checker {
        if !checker.join().unwrap_or(false) {
            eprintln!("serve: self-check FAILED");
            return ExitCode::FAILURE;
        }
        eprintln!("serve: self-check passed");
    }
    eprintln!("serve: drained, bye");
    ExitCode::SUCCESS
}

/// One loopback smoke round: status + valid JSON on every core route,
/// two requests over one kept-alive socket, an ingest/search/delete
/// mutation round, then a graceful shutdown (which also ends `main`'s
/// serve loop).
fn self_check_round(addr: std::net::SocketAddr) -> bool {
    // Keep-alive first: two requests, one socket, both valid JSON.
    let mut client = extract_serve::testing::KeepAliveClient::connect(addr);
    for target in ["/search?q=texas&k=2", "/healthz"] {
        let response = client.request("GET", target);
        if response.status != 200 {
            eprintln!("serve: self-check keep-alive {target}: status {}", response.status);
            return false;
        }
        if let Err(e) = json::parse(&response.body) {
            eprintln!("serve: self-check keep-alive {target}: invalid JSON: {e}");
            return false;
        }
        if !response.keep_alive {
            eprintln!("serve: self-check keep-alive {target}: connection was not kept alive");
            return false;
        }
    }
    eprintln!("serve: self-check keep-alive round: 2 requests on one socket ok");
    if !self_check_mutation_round(&mut client) {
        return false;
    }

    let checks: [(&str, &str, u16); 4] = [
        ("GET", "/healthz", 200),
        ("GET", "/search?q=texas&k=3", 200),
        ("GET", "/stats", 200),
        ("POST", "/shutdown", 200),
    ];
    for (method, target, want_status) in checks {
        // One fresh connection a check, closed by the server after it
        // answers.
        let deadline = Some(Instant::now() + Duration::from_secs(10));
        let answer = Connection::connect(addr, &ClientConfig::default()).and_then(|mut conn| {
            conn.request_with(method, target, &["Connection: close"], deadline)
        });
        match answer {
            Ok(response) => {
                if response.status != want_status {
                    eprintln!("serve: self-check {method} {target}: status {}", response.status);
                    return false;
                }
                if let Err(e) = json::parse(&response.body) {
                    eprintln!("serve: self-check {method} {target}: invalid JSON: {e}");
                    return false;
                }
                eprintln!("serve: self-check {method} {target}: {} ok", response.status);
            }
            Err(e) => {
                eprintln!("serve: self-check {method} {target}: {e}");
                return false;
            }
        }
    }
    true
}

/// The live-corpus leg of the self-check: ingest a document over HTTP,
/// find it, delete it, and confirm the search result is empty again and
/// the corpus epoch advanced — all on one kept-alive socket, while the
/// daemon keeps serving.
fn self_check_mutation_round(client: &mut extract_serve::testing::KeepAliveClient) -> bool {
    struct Step {
        method: &'static str,
        target: &'static str,
        body: &'static [u8],
        want_status: u16,
        want_count: Option<u64>,
    }
    let step = |method, target, body, want_status, want_count| Step {
        method,
        target,
        body,
        want_status,
        want_count,
    };
    let xml: &[u8] = b"<selfcheck><entry><token>zzselfcheckzz</token></entry></selfcheck>";
    let steps = [
        step("POST", "/ingest?name=zz-self-check", xml, 200, None),
        step("GET", "/search?q=zzselfcheckzz", b"", 200, Some(1)),
        step("POST", "/delete?doc=zz-self-check", b"", 200, None),
        step("GET", "/search?q=zzselfcheckzz", b"", 200, Some(0)),
    ];
    let mut epochs = Vec::new();
    for Step { method, target, body, want_status, want_count } in steps {
        let response = client.request_body(method, target, body);
        if response.status != want_status {
            eprintln!("serve: self-check {method} {target}: status {}", response.status);
            return false;
        }
        let parsed = match json::parse(&response.body) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("serve: self-check {method} {target}: invalid JSON: {e}");
                return false;
            }
        };
        if let Some(want) = want_count {
            let count = parsed.get("count").and_then(json::Value::as_u64);
            if count != Some(want) {
                eprintln!("serve: self-check {method} {target}: count {count:?}, want {want}");
                return false;
            }
        }
        epochs.push(response.corpus_epoch);
    }
    // Both mutations must bump the epoch, and search answers must carry it.
    let stamped: Vec<u64> = epochs.iter().filter_map(|e| *e).collect();
    if stamped.len() != epochs.len() || stamped.windows(2).any(|w| w[0] > w[1]) {
        eprintln!("serve: self-check mutation round: bad epoch sequence {epochs:?}");
        return false;
    }
    if stamped[0] == stamped[3] {
        eprintln!("serve: self-check mutation round: epoch never advanced {epochs:?}");
        return false;
    }
    eprintln!("serve: self-check mutation round: ingest/search/delete ok (epochs {stamped:?})");
    true
}
