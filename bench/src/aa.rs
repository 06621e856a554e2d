//! `perfbench aa`: the benchmark against itself.
//!
//! Runs every workload `runs` times in each of `sets` sets on the
//! working tree — each run a fresh process of this executable with
//! another seed — and judges each workload × end-to-end metric the way
//! the acceptance driver does, against the bound in `BENCHMARK.json`:
//! the quartile spread of a set (distance between first and third
//! quartile as a share of the median, `setup_s` exempt) must stay within
//! the bound, and the last set's median must not be worse than the
//! first's by more than the bound. A metric that FAILs on any workload
//! is to be moved to the per-layer list as `bench.<name>` — never given a
//! wider bound; the figures already moved there are shown without a
//! verdict, so the table records why.

use std::process::Command;

use wavefront::pipeline::JsonValue;

use crate::metrics::ledger;
use crate::stats::{median, quartiles};

/// One workload's metrics in one set: in the order a run reports them,
/// each with its name and one value per run.
type Samples = Vec<(String, Vec<f64>)>;

/// First seed of a set; run `r` uses `SEED0 + r` in every set.
const SEED0: u64 = 1;

/// One untraced run of `workload` in a child process: `(name, value)` of
/// its end-to-end metrics, then of the figures it reports ungated.
fn child_run(workload: &str, seed: u64, seconds: f64) -> crate::Result<Vec<(String, f64)>> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    let parse = |line: &str| JsonValue::parse(line).map_err(|e| format!("{workload}: {e}"));
    let result = parse(stdout.lines().last().ok_or("no output")?)?;
    let gated = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").and_then(JsonValue::as_f64)));
    let ungated = match stdout.lines().find_map(|l| l.strip_prefix("ungated ")) {
        Some(line) => parse(line)?,
        None => JsonValue::parse("{}").expect("an empty object"),
    };
    let ungated = ungated
        .as_object()
        .ok_or("the ungated line is not an object")?
        .iter()
        .map(|(name, v)| (name.clone(), v.as_f64()));
    gated
        .chain(ungated)
        .map(|(name, v)| Ok((name.clone(), v.ok_or(format!("`{name}` has no value"))?)))
        .collect()
}

/// Run the A/A comparison; `Ok(true)` when every gated pairing passes.
pub fn run(sets: usize, runs: usize, seconds: f64) -> crate::Result<bool> {
    if sets < 2 || runs < 3 {
        return Err("aa needs --sets >= 2 and --runs >= 3".into());
    }
    let workloads = &ledger().workloads;
    // values[set][workload]
    let mut values: Vec<Vec<Samples>> = vec![vec![Vec::new(); workloads.len()]; sets];
    for (set, per_set) in values.iter_mut().enumerate() {
        for run in 0..runs {
            for (workload, per_workload) in workloads.iter().zip(per_set.iter_mut()) {
                eprintln!("aa: set {} run {} {workload}", set + 1, run + 1);
                let metrics = child_run(workload, SEED0 + run as u64, seconds)?;
                eprintln!("aa:   {metrics:?}");
                if per_workload.is_empty() {
                    *per_workload = metrics.iter().map(|m| (m.0.clone(), Vec::new())).collect();
                }
                for (samples, (_, v)) in per_workload.iter_mut().zip(metrics) {
                    samples.1.push(v);
                }
            }
        }
    }
    println!(
        "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, (metric, a)) in values[0][w].iter().enumerate() {
            let (a, b) = (&mut a.clone(), &mut values[sets - 1][w][m].1.clone());
            let (med_a, med_b) = (median(a), median(b));
            let spread = |v: &mut Vec<f64>, med: f64| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / med
            };
            let (spread_a, spread_b) = (spread(a, med_a), spread(b, med_b));
            let gate = ledger().end_to_end.iter().find(|e| e.name == *metric);
            let (bound, verdict) = match gate {
                Some(gate) => {
                    let bound = gate.bound.expect("end-to-end metrics have a bound");
                    // Positive = B worse than A, as a share of A.
                    let worse = if gate.better == "lower" {
                        med_b / med_a - 1.0
                    } else {
                        1.0 - med_b / med_a
                    };
                    let steady = metric == "setup_s" || spread_a.max(spread_b) <= bound;
                    let pass = steady && worse <= bound;
                    all_pass &= pass;
                    (
                        format!("{:.0}%", bound * 100.0),
                        if pass { "PASS" } else { "FAIL" },
                    )
                }
                None => ("—".to_string(), "not gated"),
            };
            println!(
                "| {workload} | {metric} | {med_a:.4} | {med_b:.4} | {:+.1}% | {:.1}% | {:.1}% | {bound} | {verdict} |",
                (med_b / med_a - 1.0) * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
            );
        }
    }
    Ok(all_pass)
}
