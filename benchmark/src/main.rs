//! The repo's benchmark: seeded corpus on disk → the release `serve` and
//! `router` binaries on loopback → four closed-loop workloads, every
//! answer checked against an in-process oracle. See `README.md` beside
//! this crate for the workloads, the metrics and how they interact.
//!
//! ```text
//! one run (the BENCHMARK.json contract; the last stdout line is the result):
//!   extract-benchmark --workload W --seed N --seconds S --trace 0|1
//! every workload, human-readable:
//!   extract-benchmark [--seed N] [--seconds S] [--traced] [--repeat N] [--save SET.json]
//!   extract-benchmark --check              1 s per workload: spawn → oracle → metrics → teardown
//! two sets against the bounds:
//!   extract-benchmark --compare A.json B.json
//! ```

mod client;
mod compare;
mod daemons;
mod layers;
mod metrics;
mod oracle;
mod scrape;
mod script;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use extract_serve::json::JsonWriter;

use crate::compare::Set;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workload::{Options, Outcome, Workload};

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ingest + delete probes after a read-only window.
const PROBES: usize = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced_pass: bool,
    check: bool,
    repeat: usize,
    save: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced_pass: false,
        check: false,
        repeat: 1,
        save: None,
        compare: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |raw: String| {
            raw.parse::<f64>()
                .map_err(|_| format!("{raw}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--traced" => args.traced_pass = true,
            "--check" => args.check = true,
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--save" => args.save = Some(PathBuf::from(value()?)),
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("correct");
    w.bool(outcome.correct);
    w.key("attempted");
    w.num_u64(outcome.attempted);
    w.key("failed");
    w.num_u64(outcome.failed);
    w.key("metrics");
    w.obj_begin();
    for (name, value, unit) in outcome.values.table(defs) {
        w.key(name);
        w.obj_begin();
        w.key("value");
        w.num_f64(value);
        w.key("unit");
        w.str(unit);
        w.obj_end();
    }
    w.obj_end();
    w.obj_end();
    w.finish()
}

/// The human-readable table of one run, on stderr: the per-layer metrics
/// of a traced run, the end-to-end metrics of a plain one.
fn print_table(title: &str, outcome: &Outcome, traced: bool) {
    let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "== {title}: correct={} attempted={} failed={} ({})",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.detail.display()
    );
    for (name, value, unit) in outcome.values.table(defs) {
        eprintln!("   {name:<36} {value:>14.3} {unit}");
    }
    if !traced {
        // What a plain run measured besides: the timings as they were on
        // this box just then, and the daemons' own counters.
        for (name, value, unit) in outcome.values.table(&PER_LAYER) {
            if value != 0.0 {
                eprintln!("     {name:<34} {value:>14.3} {unit}");
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("   note: {note}");
    }
}

fn run_single(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    let outcome = workload::run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        setups: if args.trace { 1 } else { SETUPS },
        probes: PROBES,
        out_dir: args.out_dir.clone(),
    })?;
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print_table(name, &outcome, args.trace);
    println!("{}", result_line(&outcome, defs));
    Ok(outcome.correct)
}

fn run_suite(args: &Args) -> Result<bool, String> {
    let (seconds, setups, probes) = if args.check {
        (1.0, 1, 2)
    } else {
        (args.seconds.unwrap_or(DEFAULT_SECONDS), SETUPS, PROBES)
    };
    let mut set = Set::default();
    let mut all_correct = true;
    for repeat in 0..args.repeat.max(1) {
        for name in WORKLOADS {
            let workload = Workload::parse(name).expect("WORKLOADS are known");
            let mut options = Options {
                workload,
                seed: args.seed + repeat as u64,
                seconds,
                trace: false,
                setups,
                probes,
                out_dir: args.out_dir.clone(),
            };
            let outcome = workload::run(&options)?;
            print_table(&format!("{name} (run {})", repeat + 1), &outcome, false);
            all_correct &= outcome.correct;
            for (metric, value, _) in outcome.values.table(&END_TO_END) {
                set.push(name, metric, value);
            }
            println!("{name} {}", result_line(&outcome, &END_TO_END));
            if args.traced_pass {
                options.trace = true;
                options.setups = 1;
                let traced = workload::run(&options)?;
                print_table(&format!("{name} (traced)"), &traced, true);
                all_correct &= traced.correct;
                println!("{name} {}", result_line(&traced, &PER_LAYER));
            }
        }
    }
    if args.repeat > 1 {
        eprint!("{}", compare::summary(&set, &read_bounds()?, &END_TO_END));
    }
    if let Some(path) = &args.save {
        std::fs::write(path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("set saved to {}", path.display());
    }
    Ok(all_correct)
}

/// The bounds of `BENCHMARK.json` (run.sh starts the harness at the repo root).
fn read_bounds() -> Result<std::collections::BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    compare::bounds(&text)
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Set::from_json(&text))
    };
    let (text, flagged) = compare::table(&load(a)?, &load(b)?, &read_bounds()?);
    print!("{text}");
    Ok(!flagged)
}

fn main() -> ExitCode {
    daemons::install_signal_handlers();
    let outcome = parse_args().and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(name)) => run_single(&args, name),
        (None, None) => run_suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("extract-benchmark: FAILED (incorrect answers, or sets that disagree)");
            ExitCode::FAILURE
        }
        Err(e) if daemons::interrupted() => {
            eprintln!("extract-benchmark: {e}");
            ExitCode::from(130)
        }
        Err(e) => {
            eprintln!("extract-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
