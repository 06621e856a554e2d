//! `sweep_large`: one-shot `Session` sweeps of Tomcatv's
//! forward-elimination nest at 1448², nine column-major arrays of
//! 16.8 MB — each four times the two 2 MiB L2s together (the 260 MiB L3
//! is shared with the rest of the host and not counted). Kernels and
//! the threaded engine do nearly all the work; service, wire and loop
//! do none.

use std::time::Instant;

use wavefront::core::prelude::Store;
use wavefront::pipeline::{BlockPolicy, EngineKind, TraceCollector};

use super::{measure_rounds, record_window, Outcome, SetupClock, TRACED_WINDOW_SHARE};
use crate::cases::{Case, Kind};
use crate::drive::{run_per_op, Config, OpTrace, PerOp, VERIFY_EVERY_LARGE};
use crate::host::PROCS;
use crate::metrics::Layers;
use crate::probe::{probe_case, record_cases, record_host, session_run};
use crate::spans::Spans;

const N: usize = 1448;

struct Sweep {
    case: Case,
    store: Store<2>,
    /// The floor's buffers; outside an F op they hold the floor's
    /// result for the seeded inputs, which is what every T and S op
    /// (all starting from restored inputs) must reproduce.
    floor: Vec<Vec<f64>>,
}

impl Sweep {
    fn setup(seed: u64) -> crate::Result<(Sweep, f64)> {
        let mut clock = SetupClock::start();
        let case = Case::build(Kind::TomcatvForward, N, seed);
        let store = case.working_store();
        let mut floor = case.floor_buffers();
        clock.excluding(|| case.run_floor(&mut floor, 1));
        let mut w = Sweep { case, store, floor };
        // Warm-up: one op per engine, each checked against the floor.
        for cfg in [Config::Threads, Config::Seq] {
            w.prepare(cfg, true);
            w.op(cfg, None)?;
            if !clock.excluding(|| w.verify(cfg)) {
                return Err(format!("warm-up {cfg:?} sweep differs from the floor").into());
            }
        }
        let secs = clock.seconds();
        Ok((w, secs))
    }
}

impl PerOp for Sweep {
    fn verify_every(&self) -> u64 {
        VERIFY_EVERY_LARGE
    }

    fn points(&self) -> usize {
        self.case.points()
    }

    fn prepare(&mut self, cfg: Config, _verify: bool) {
        match cfg {
            Config::Floor => self.case.reset_floor_buffers(&mut self.floor),
            _ => self.case.restore(&mut self.store),
        }
    }

    fn op(&mut self, cfg: Config, trace: Option<OpTrace<'_>>) -> crate::Result<()> {
        let kind = match cfg {
            Config::Floor => {
                self.case.run_floor(&mut self.floor, 1);
                return Ok(());
            }
            Config::Threads => EngineKind::Threads,
            Config::Seq => EngineKind::Seq,
        };
        let Some(t) = trace else {
            return session_run(
                &self.case,
                &mut self.store,
                kind,
                PROCS,
                BlockPolicy::Model2,
                None,
            )
            .map(drop);
        };
        let start = t.spans.now();
        let mut collector = TraceCollector::default();
        let out = session_run(
            &self.case,
            &mut self.store,
            kind,
            PROCS,
            BlockPolicy::Model2,
            Some(&mut collector),
        )?;
        t.spans.add_stages(
            t.op,
            t.root,
            start,
            &[
                ("pipeline.exec_threads.prep", out.prep_seconds),
                ("pipeline.exec_threads.run", out.run_seconds),
            ],
        );
        Ok(())
    }

    fn verify(&mut self, _cfg: Config) -> bool {
        self.case.store_matches(&self.floor, &self.store)
    }
}

/// Run the workload (see [`super::run`]).
pub fn run(seed: u64, seconds: f64, layers: Option<&mut Layers>) -> crate::Result<Outcome> {
    let Some(layers) = layers else {
        return measure_rounds(
            seconds,
            || Sweep::setup(seed),
            |mut w, secs| Ok(run_per_op(&mut w, secs, None)),
        );
    };
    let (mut w, setup_s) = Sweep::setup(seed)?;
    let mut tracks = vec![Spans::new(Instant::now(), 0)];
    let window = run_per_op(&mut w, seconds * TRACED_WINDOW_SHARE, Some(&mut tracks));
    record_window(layers, &window, &tracks);
    let probe = probe_case(&w.case)?;
    record_host(layers, &w.case, &probe, window.pipe_speedup())?;
    record_cases(layers, &[probe]);
    Ok(Outcome {
        setup_s,
        window,
        tracks,
    })
}
