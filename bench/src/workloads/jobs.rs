//! `jobs_small`: the in-process `WavefrontService` under two
//! closed-loop callers, round-robin over four rank-2 programs sized to
//! one cost scale (about 100 µs of floor arithmetic each) and covering
//! both lane shapes: fig3 n=136 and Tomcatv's forward nest n=64 (axis
//! lanes), SOR n=64 and Smith–Waterman 88×88 (wavefront lanes).
//!
//! One op is `submit` → `wait` → `take_output`, the store handed over
//! per job (its clone is untimed). Admission, tenant queue, plan cache
//! and pool dominate the ≈ 0.4 ms op; the kernels see tiny tiles, so
//! per-call set-up that would pay off on `sweep_large` shows as a loss
//! here.

use std::time::{Duration, Instant};

use wavefront::pipeline::{EngineKind, JobSpec, JobTrace, WavefrontService};

use super::{
    measure_rounds, record_service_stats, record_window, start_service, Outcome, SetupClock,
    TRACED_WINDOW_SHARE,
};
use crate::cases::{bits_eq, Case, Kind};
use crate::drive::{run_sliced, Config, Sliced};
use crate::host::{GENERATORS, PROCS};
use crate::metrics::Layers;
use crate::probe::{probe_case, record_cases, record_host};
use crate::spans::Spans;
use crate::stats::{median, median_or_zero, quantile};

/// `(program, n)` of the round-robin.
const PROGRAMS: [(Kind, usize); 4] = [
    (Kind::Fig3, 136),
    (Kind::TomcatvForward, 64),
    (Kind::Sor, 64),
    (Kind::SmithWaterman, 88),
];

/// Warm-up jobs per program and engine in set-up, each checked against
/// the floor; sized so that set-up takes at least a quarter second.
const WARMUPS: usize = 120;

struct Jobs {
    cases: Vec<Case>,
    /// The floor's result per case for the seeded inputs.
    expected: Vec<Vec<Vec<f64>>>,
    /// Scratch for the floor slices.
    floor: Vec<Vec<Vec<f64>>>,
    service: WavefrontService<2>,
    start_ms: f64,
}

/// One caller's traced-op records.
#[derive(Default)]
struct Caller {
    /// `JobTrace` of each traced op plus the caller-observed seconds.
    traces: Vec<(JobTrace, f64)>,
}

impl Jobs {
    fn setup(seed: u64) -> crate::Result<(Jobs, f64)> {
        let mut clock = SetupClock::start();
        let cases: Vec<Case> = PROGRAMS
            .iter()
            .enumerate()
            .map(|(k, &(kind, n))| Case::build(kind, n, seed.wrapping_add(k as u64)))
            .collect();
        let t0 = Instant::now();
        let service = start_service(true);
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let floor: Vec<Vec<Vec<f64>>> = cases.iter().map(Case::floor_buffers).collect();
        let mut expected = floor.clone();
        clock.excluding(|| {
            for (case, bufs) in cases.iter().zip(&mut expected) {
                case.run_floor(bufs, 1);
            }
        });
        let w = Jobs {
            cases,
            expected,
            floor,
            service,
            start_ms,
        };
        let mut caller = Caller::default();
        for i in 0..(WARMUPS * PROGRAMS.len()) as u64 {
            for cfg in [Config::Threads, Config::Seq] {
                w.job(&w.service, &mut caller, cfg, i, true, None)?;
            }
        }
        let secs = clock.seconds();
        Ok((w, secs))
    }

    /// One job on `service`; see [`Sliced::op`].
    fn job(
        &self,
        service: &WavefrontService<2>,
        caller: &mut Caller,
        cfg: Config,
        i: u64,
        verify: bool,
        trace: Option<(&mut Spans, u64)>,
    ) -> crate::Result<(f64, usize)> {
        let k = (i % self.cases.len() as u64) as usize;
        let case = &self.cases[k];
        let kind = if cfg == Config::Seq {
            EngineKind::Seq
        } else {
            EngineKind::Threads
        };
        // Every array private: the service's Seq path takes the whole store
        // mutably, and a buffer shared with `pristine` would cost S a
        // copy-on-write break the bench, not the system, caused.
        let store = case.pristine.detached();
        let start = trace.as_ref().map(|(spans, _)| spans.now());

        let t0 = Instant::now();
        let spec = JobSpec::builder(case.program.clone(), case.nest.clone())
            .line(PROCS)
            .engine(kind)
            .store(store)
            .outputs(case.written.iter().map(|&(name, _)| name))
            .trace(trace.is_some())
            .build()?;
        let built = t0.elapsed().as_secs_f64();
        let mut outcome = service.submit(spec).wait()?;
        let waited = t0.elapsed().as_secs_f64() - built;
        let outputs: Vec<_> = case
            .written
            .iter()
            .map(|&(name, _)| outcome.take_output(name))
            .collect::<Result<_, _>>()?;
        let secs = t0.elapsed().as_secs_f64();

        if verify
            && !outputs
                .iter()
                .zip(&self.expected[k])
                .all(|(got, want)| bits_eq(got.as_slice(), want))
        {
            return Err(format!("{} job output differs from the floor", case.kind.name()).into());
        }
        if let (Some((spans, op)), Some(start), Some(jt)) = (trace, start, outcome.spans) {
            let root = spans.add("op", op, None, start, secs);
            let first = spans.add_stages(
                op,
                root,
                start,
                &[
                    ("bench.build_spec", built),
                    ("pipeline.service.submit_wait", waited),
                    ("pipeline.service.take_output", secs - built - waited),
                ],
            );
            spans.add_job_trace(op, first + 1, start + built, &jt);
            caller.traces.push((jt, secs));
        }
        Ok((secs, case.points()))
    }

    /// Median op seconds of the two callers driving `service` for `secs`.
    fn caller_slice(&self, service: &WavefrontService<2>, secs: f64) -> crate::Result<f64> {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let per_caller: Vec<crate::Result<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..GENERATORS)
                .map(|_| {
                    scope.spawn(move || {
                        let (mut caller, mut lat, mut i) = (Caller::default(), Vec::new(), 0);
                        while Instant::now() < deadline {
                            lat.push(
                                self.job(service, &mut caller, Config::Threads, i, false, None)?
                                    .0,
                            );
                            i += 1;
                        }
                        Ok(lat)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller panicked"))
                .collect()
        });
        let mut all = Vec::new();
        for lat in per_caller {
            all.extend(lat?);
        }
        Ok(median(&mut all))
    }
}

impl Sliced for Jobs {
    type Conn = Caller;

    fn op(
        &self,
        conn: &mut Caller,
        cfg: Config,
        i: u64,
        verify: bool,
        trace: Option<(&mut Spans, u64)>,
    ) -> crate::Result<(f64, usize)> {
        self.job(&self.service, conn, cfg, i, verify, trace)
    }

    fn floor_op(&mut self, i: u64) -> (f64, usize) {
        let k = (i % self.cases.len() as u64) as usize;
        let (case, bufs) = (&self.cases[k], &mut self.floor[k]);
        case.reset_floor_buffers(bufs);
        let t0 = Instant::now();
        case.run_floor(bufs, 1);
        (t0.elapsed().as_secs_f64(), case.points())
    }
}

/// Record the `JobTrace` stage medians and what the caller saw on top.
pub fn record_job_traces(layers: &mut Layers, traces: &[(JobTrace, f64)]) {
    let p50 = |f: &dyn Fn(&(JobTrace, f64)) -> f64| {
        median_or_zero(&mut traces.iter().map(f).collect::<Vec<_>>()) * 1e6
    };
    layers.set("pipeline.service.admit_us_p50", p50(&|t| t.0.admit_seconds));
    layers.set("pipeline.service.queue_us_p50", p50(&|t| t.0.queue_seconds));
    layers.set("pipeline.service.prep_us_p50", p50(&|t| t.0.prep_seconds));
    layers.set("pipeline.service.run_us_p50", p50(&|t| t.0.run_seconds));
    layers.set("pipeline.service.drain_us_p50", p50(&|t| t.0.drain_seconds));
    layers.set(
        "pipeline.service.client_gap_us_p50",
        p50(&|t| t.1 - t.0.total_seconds),
    );
}

/// Run the workload (see [`super::run`]).
pub fn run(seed: u64, seconds: f64, layers: Option<&mut Layers>) -> crate::Result<Outcome> {
    let callers = || {
        (0..GENERATORS)
            .map(|_| Caller::default())
            .collect::<Vec<_>>()
    };
    let Some(layers) = layers else {
        return measure_rounds(
            seconds,
            || Jobs::setup(seed),
            |mut w, secs| Ok(run_sliced(&mut w, &mut callers(), secs, None)),
        );
    };
    let (mut w, setup_s) = Jobs::setup(seed)?;
    let mut callers = callers();

    let epoch = Instant::now();
    let mut tracks: Vec<Spans> = (0..GENERATORS).map(|g| Spans::new(epoch, g)).collect();
    let spawns = w.service.stats().pool_spawns;
    let window = run_sliced(
        &mut w,
        &mut callers,
        seconds * TRACED_WINDOW_SHARE,
        Some(&mut tracks),
    );
    record_window(layers, &window, &tracks);
    record_service_stats(layers, &w.service, spawns);
    layers.set("pipeline.service.start_ms", w.start_ms);
    let traces: Vec<(JobTrace, f64)> = callers.into_iter().flat_map(|c| c.traces).collect();
    record_job_traces(layers, &traces);
    let mut lat = window.latencies.clone();
    layers.set("pipeline.service.op_ms_p99", quantile(&mut lat, 0.99) * 1e3);
    let op_p50 = median(&mut lat);

    // The metrics registry on against off, two services, interleaved.
    let quiet = start_service(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    w.caller_slice(&quiet, 0.2)?;
    for _ in 0..4 {
        on.push(w.caller_slice(&w.service, 0.25)?);
        off.push(w.caller_slice(&quiet, 0.25)?);
    }
    layers.set(
        "pipeline.service.metrics_overhead_ratio",
        median(&mut on) / median(&mut off),
    );
    drop(quiet);

    let probes = w
        .cases
        .iter()
        .map(probe_case)
        .collect::<Result<Vec<_>, _>>()?;
    let bare = probes.iter().map(|p| p.p2_secs).sum::<f64>() / probes.len() as f64;
    layers.set("pipeline.service.overhead_us_p50", (op_p50 - bare) * 1e6);
    record_host(layers, &w.cases[1], &probes[1], window.pipe_speedup())?;
    record_cases(layers, &probes);
    Ok(Outcome {
        setup_s,
        window,
        tracks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::VERIFY_EVERY;

    #[test]
    fn the_check_lands_on_every_program_of_the_round_robin() {
        let n = PROGRAMS.len() as u64;
        let mut hit = vec![false; PROGRAMS.len()];
        for k in 0..n {
            hit[(k * VERIFY_EVERY % n) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }
}
