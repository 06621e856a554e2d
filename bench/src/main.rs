//! `perfbench`: the repo's benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! perfbench [run|trace] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--quick]
//! perfbench aa [--sets 2] [--runs 5] [--seconds <s>]
//! ```
//!
//! One process runs one workload. `run` (`--trace 0`, the default)
//! prints every end-to-end metric; `trace` (`--trace 1`) is the separate
//! traced run that prints every per-layer metric and writes
//! `bench/out/<workload>.spans.json`. Either way the outputs are checked
//! against the hand-written floors, and any mismatch, error or refusal
//! makes the exit code non-zero. The last line of standard output is the
//! machine-readable result.

mod aa;
mod cases;
mod drive;
mod floors;
mod host;
mod metrics;
mod probe;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Any failure of a run: an engine, service or I/O error, or a mismatch
/// put in words.
type Error = Box<dyn std::error::Error + Send + Sync>;
type Result<T> = std::result::Result<T, Error>;

use wavefront::pipeline::JsonObj;

use host::Host;
use metrics::{ledger, Layers};
use workloads::Outcome;

/// Seconds of `--quick`, for smoke use only.
const QUICK_SECONDS: f64 = 2.0;

/// Directory, relative to the working directory (the repository root),
/// the traced run writes its span files to.
const OUT_DIR: &str = "bench/out";

struct Args {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args() -> crate::Result<Args> {
    let mut args = Args {
        mode: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: ledger().run_seconds,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(mode) = it.next_if(|a| !a.starts_with("--")) {
        args.mode = mode;
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => args.trace = value()? != "0",
            "--sets" => args.sets = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => args.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--quick" => args.seconds = QUICK_SECONDS,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    match args.mode.as_str() {
        "run" | "aa" => {}
        "trace" => args.trace = true,
        other => return Err(format!("unknown mode `{other}` (run, trace or aa)").into()),
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// `{"value": v, "unit": u}`.
fn metric_json(value: f64, unit: &str) -> String {
    JsonObj::new()
        .num("value", value)
        .str("unit", unit)
        .finish()
}

/// The six figures ISSUE 14 defines over a run's T ops, by name, each
/// over every T op the windows completed. `BENCHMARK.json` decides which
/// of them a change is gated on (`end_to_end`); one that could not hold a
/// bound of a tenth on every workload is listed there as the per-layer
/// metric `bench.<name>` instead.
fn figures(outcome: &Outcome) -> [(&'static str, f64); 6] {
    let win = &outcome.window;
    [
        ("setup_s", outcome.setup_s),
        ("melem_per_s", win.points_per_s() / 1e6),
        ("op_ms_p50", win.latency(0.5) * 1e3),
        ("op_ms_p90", win.latency(0.9) * 1e3),
        ("pipe_speedup", win.pipe_speedup()),
        ("floor_ratio", win.floor_ratio()),
    ]
}

fn run_workload(args: &Args, workload: &str) -> crate::Result<bool> {
    let host = Host::probe(host::retain_memory());
    let stamp = JsonObj::new()
        .raw("host", &host.to_json(workload, args.seed, args.seconds))
        .raw("quick", &(args.seconds < ledger().run_seconds).to_string())
        .raw("traced", &args.trace.to_string())
        .finish();
    println!("meta {stamp}");
    if host.oversubscribed {
        println!(
            "note: {} cores for {} busy threads — oversubscribed, results are informational",
            host.available_parallelism, host.threads
        );
    }

    let mut layers = Layers::default();
    let outcome = workloads::run(
        workload,
        args.seed,
        args.seconds,
        args.trace.then_some(&mut layers),
    )?;
    let win = &outcome.window;
    if win.latencies.is_empty() {
        return Err("the window completed no T op".into());
    }
    let figures = figures(&outcome);
    let mut metrics = JsonObj::new();
    if args.trace {
        layers.set("bench.peak_rss_mb", host::peak_rss_mb());
        for (name, value) in figures {
            let demoted = format!("bench.{name}");
            if ledger().per_layer.iter().any(|m| m.name == demoted) {
                layers.set(&demoted, value);
            }
        }
        let self_times = spans::self_times(&outcome.tracks);
        println!(
            "{:<46} {:>9} {:>14}",
            "span (self time)", "count", "self ms"
        );
        for (name, (count, secs)) in &self_times.by_name {
            println!("{name:<46} {count:>9} {:>14.3}", secs * 1e3);
        }
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| {
                std::fs::write(
                    format!("{OUT_DIR}/{workload}.spans.json"),
                    spans::chrome_trace(&outcome.tracks, &stamp),
                )
            })
            .map_err(|e| format!("writing {OUT_DIR}/{workload}.spans.json: {e}"))?;
        println!("{:<46} {:>14}  unit (better)", "per-layer metric", "value");
        for m in &ledger().per_layer {
            let value = layers.get(&m.name);
            println!("{:<46} {value:>14.4}  {} ({})", m.name, m.unit, m.better);
            metrics = metrics.raw(&m.name, &metric_json(value, &m.unit));
        }
    } else {
        println!("{:<14} {:>14}  unit (better, bound)", "end-to-end", "value");
        for m in &ledger().end_to_end {
            let value = figures
                .iter()
                .find(|f| f.0 == m.name)
                .unwrap_or_else(|| panic!("no figure is called `{}`", m.name))
                .1;
            println!(
                "{:<14} {value:>14.4}  {} ({}, {:.0}%)",
                m.name,
                m.unit,
                m.better,
                m.bound.unwrap_or(0.0) * 100.0
            );
            metrics = metrics.raw(&m.name, &metric_json(value, &m.unit));
        }
        // What this host cannot hold a bound on is printed all the same;
        // `aa` reads the line to show by how much.
        let mut ungated = JsonObj::new();
        for (name, value) in figures {
            let demoted = format!("bench.{name}");
            if let Some(m) = ledger().per_layer.iter().find(|m| m.name == demoted) {
                println!(
                    "{name:<14} {value:>14.4}  {} ({}, not gated: `{demoted}`)",
                    m.unit, m.better
                );
                ungated = ungated.num(name, value);
            }
        }
        println!("ungated {}", ungated.finish());
        println!("T-op samples   {:>14}", win.latencies.len());
    }
    println!(
        "attempted      {:>14}\nfailed         {:>14}",
        win.attempted, win.failed
    );
    let correct = win.failed == 0;
    println!(
        "{}",
        JsonObj::new()
            .raw("correct", &correct.to_string())
            .uint("attempted", win.attempted.max(1))
            .uint("failed", win.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.mode == "aa" {
        aa::run(args.sets, args.runs, args.seconds)
    } else {
        match &args.workload {
            Some(w) => run_workload(&args, w),
            None => Err("--workload is required".into()),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
