//! The instrumentation overhead guard `scripts/verify.sh` runs: one
//! cache-hot keep-alive request loop against the live daemon
//! (`serve_live`, what `extract-serve` runs), with stage timing and
//! histogram recording globally off and on in paired rounds in one
//! process. The median per-request delta must stay under 5 % of the
//! larger of the measured off-cost and a 24.6 µs floor — the
//! `serve_hot_keepalive` median of BASELINES.md "Historical headlines" —
//! so a fast machine's noise cannot fail a genuinely cheap
//! instrumentation path. Exits 1 over budget.

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use extract::live::serve_live;
use extract::prelude::*;
use extract_datagen::corpus::CorpusConfig;
use extract_serve::testing::KeepAliveClient;
use extract_serve::ServeConfig;

/// `serve_hot_keepalive`, ns per request (BASELINES.md "PR 5").
const FLOOR_NS_PER_REQUEST: f64 = 24_608.2;
const ROUNDS: usize = 25;
const REQUESTS_PER_ROUND: usize = 200;
const TARGET: &str = "/search?q=texas&k=3";

fn main() -> ExitCode {
    let config = CorpusConfig { documents: 6, target_nodes_per_doc: 400, seed: 0xC0D };
    let mut builder = CorpusBuilder::new();
    for (name, doc) in config.documents() {
        builder.add_parsed(&name, doc);
    }
    let corpus = LiveCorpus::from_corpus(builder.finish());
    let serve_config = ServeConfig {
        workers: 2,
        io_timeout: Duration::from_secs(30),
        max_requests_per_connection: 0, // one socket for the whole run
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let ready = |addr, handle| tx.send((addr, handle)).expect("report the daemon");
        serve_live(corpus, "127.0.0.1:0", serve_config, SearchAppConfig::default(), 64, ready)
    });
    let (addr, handle) = rx.recv().expect("daemon up");

    let mut client = KeepAliveClient::connect(addr);
    // Warm the page cache so both arms measure the same cached path.
    for _ in 0..16 {
        assert_eq!(client.request("GET", TARGET).status, 200, "warmup must serve");
    }
    let mut round = |enabled: bool| -> f64 {
        extract_obs::set_enabled(enabled);
        let start = Instant::now();
        for _ in 0..REQUESTS_PER_ROUND {
            let response = client.request("GET", TARGET);
            assert_eq!(response.status, 200, "{response:?}");
        }
        start.elapsed().as_nanos() as f64 / REQUESTS_PER_ROUND as f64
    };
    // A round times both arms back to back, in alternating order: this VM
    // drifts by 2× between seconds, and the per-round difference cancels
    // the drift where separate per-arm statistics do not.
    let (mut off, mut overhead) = (Vec::new(), Vec::new());
    for i in 0..ROUNDS {
        let (off_ns, on_ns) = if i % 2 == 0 {
            let off_ns = round(false);
            (off_ns, round(true))
        } else {
            let on_ns = round(true);
            (round(false), on_ns)
        };
        off.push(off_ns);
        overhead.push(on_ns - off_ns);
    }
    extract_obs::set_enabled(true);

    handle.shutdown();
    drop(client);
    daemon.join().expect("daemon thread").expect("daemon serves");

    let median = |mut samples: Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let (off, overhead) = (median(off), median(overhead));
    let budget = 0.05 * off.max(FLOOR_NS_PER_REQUEST);
    println!(
        "obs_overhead: off={off:.0} ns/req overhead={overhead:.0} ns (median of {ROUNDS} paired \
         rounds) budget={budget:.0} ns (5% of max(off, {FLOOR_NS_PER_REQUEST:.0} floor))"
    );
    if overhead > budget {
        eprintln!("obs_overhead: instrumentation overhead exceeds the 5% budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
