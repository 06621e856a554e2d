//! `loop_small` / `loop_large`: the resident-array front door.
//! `import_store` once, then one op = one `submit_loop` of the
//! double-buffered relaxation with a `next`/`curr` swap.
//!
//! * small — 200 steps at 128², three 135 KB arrays, cache-resident:
//!   per-step dispatch and cross-iteration overlap are the cost.
//! * large — 20 steps at 1024², 25 MB working set past both L2s: the
//!   same layer when bandwidth-bound.
//!
//! The resident state advances from op to op (putting it back would
//! mean re-importing, and steady state is the point); the relaxation
//! contracts towards a fixed point in (0, 1), so values neither blow up
//! nor decay into denormals however long the window.

use std::time::Instant;

use wavefront::core::prelude::DenseArray;
use wavefront::pipeline::{
    ArrayHandle, EngineKind, JobSpec, LoopSpec, LoopStats, WavefrontService,
};

use super::{
    measure_rounds, record_service_stats, record_window, start_service, Outcome, SetupClock,
    TRACED_WINDOW_SHARE,
};
use crate::cases::{bits_eq, Case, Kind};
use crate::drive::{run_per_op, Config, OpTrace, PerOp, VERIFY_EVERY, VERIFY_EVERY_LARGE};
use crate::host::PROCS;
use crate::metrics::Layers;
use crate::probe::{probe_case, record_cases, record_host};
use crate::spans::Spans;
use crate::stats::{median, median_or_zero};

/// Size of one loop workload.
#[derive(Clone, Copy)]
pub struct Shape {
    n: usize,
    steps: usize,
    /// Timed T/S ops between two checks against the floor.
    verify_every: u64,
    /// Warm-up loops per engine in set-up, each checked; sized so that
    /// set-up takes at least a quarter second.
    warmups: usize,
}

/// `loop_small`.
pub const SMALL: Shape = Shape {
    n: 128,
    steps: 200,
    verify_every: VERIFY_EVERY,
    warmups: 8,
};
/// `loop_large`.
pub const LARGE: Shape = Shape {
    n: 1024,
    steps: 20,
    verify_every: VERIFY_EVERY_LARGE,
    warmups: 1,
};

struct Loop {
    shape: Shape,
    case: Case,
    service: WavefrontService<2>,
    /// Body name → the handle it is bound to for the next op.
    bindings: Vec<(String, ArrayHandle<2>)>,
    /// The floor's own evolving `next`/`curr`.
    floor: Vec<Vec<f64>>,
    /// `next`/`curr` as they were before an op that will be verified
    /// (allocated once: the check must not churn the allocator).
    before: Vec<Vec<f64>>,
    /// Whether `before` holds the inputs of the op now running.
    armed: bool,
    /// Cross-iteration overlap on (`false` only for the barrier probe).
    pipelined: bool,
    /// `LoopStats` of traced T ops.
    stats: Vec<LoopStats>,
    import_ms: f64,
    start_ms: f64,
}

impl Loop {
    fn setup(shape: Shape, seed: u64) -> crate::Result<(Loop, f64)> {
        let mut clock = SetupClock::start();
        let case = Case::build(Kind::Relax, shape.n, seed);
        let t0 = Instant::now();
        let service = start_service(true);
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let bindings = service.import_store(&case.program, case.pristine.detached());
        let import_ms = t0.elapsed().as_secs_f64() * 1e3;
        let floor = case.floor_buffers();
        let mut w = Loop {
            shape,
            case,
            service,
            bindings,
            before: floor.clone(),
            armed: false,
            floor,
            pipelined: true,
            stats: Vec::new(),
            import_ms,
            start_ms,
        };
        for _ in 0..shape.warmups {
            for cfg in [Config::Threads, Config::Seq] {
                w.prepare(cfg, true);
                w.op(cfg, None)?;
                if !clock.excluding(|| w.verify(cfg)) {
                    return Err(format!("warm-up {cfg:?} loop differs from the floor").into());
                }
            }
        }
        let secs = clock.seconds();
        Ok((w, secs))
    }

    fn handle(&self, name: &str) -> &ArrayHandle<2> {
        &self
            .bindings
            .iter()
            .find(|(have, _)| have == name)
            .expect("bound name")
            .1
    }

    /// A snapshot of the resident array bound to `name`. Callers drop it
    /// before the next op: a live outside reference would make the
    /// loop's first write copy.
    fn resident(&self, name: &str) -> Option<DenseArray<2>> {
        self.service.read(self.handle(name)).ok()
    }
}

/// The arrays a loop op leaves changed, in [`Case::written`] order.
const ROTATED: [&str; 2] = ["next", "curr"];

impl PerOp for Loop {
    fn verify_every(&self) -> u64 {
        self.shape.verify_every
    }

    fn points(&self) -> usize {
        self.case.points() * self.shape.steps
    }

    fn prepare(&mut self, cfg: Config, verify: bool) {
        self.armed = false;
        if cfg != Config::Floor && verify {
            for (k, name) in ROTATED.iter().enumerate() {
                let Some(resident) = self.resident(name) else {
                    return;
                };
                self.before[k].copy_from_slice(resident.as_slice());
            }
            self.armed = true;
        }
    }

    fn op(&mut self, cfg: Config, trace: Option<OpTrace<'_>>) -> crate::Result<()> {
        let kind = match cfg {
            Config::Floor => {
                self.case.run_floor(&mut self.floor, self.shape.steps);
                return Ok(());
            }
            Config::Threads => EngineKind::Threads,
            Config::Seq => EngineKind::Seq,
        };
        let start = trace.as_ref().map(|t| t.spans.now());
        let t0 = Instant::now();
        let mut body = JobSpec::builder(self.case.program.clone(), self.case.nest.clone())
            .line(PROCS)
            .engine(kind);
        for (name, h) in &self.bindings {
            // The constant `load` is bound read-only, as `timestep_bench`
            // binds it, under T and S alike.
            body = if name == "load" {
                body.input_handle(name.clone(), h)
            } else {
                body.output_handle(name.clone(), h)
            };
        }
        let spec = LoopSpec::builder()
            .job(body.build()?)
            .steps(self.shape.steps)
            .swap("next", "curr")
            .pipelined(self.pipelined)
            .build()?;
        let built = t0.elapsed().as_secs_f64();
        let out = self.service.submit_loop(spec).wait()?;
        let waited = t0.elapsed().as_secs_f64() - built;
        if out.steps_run != self.shape.steps {
            return Err(format!("loop ran {} of {} steps", out.steps_run, self.shape.steps).into());
        }
        for (name, h) in out.final_bindings {
            if let Some(slot) = self.bindings.iter_mut().find(|(have, _)| *have == name) {
                slot.1 = h;
            }
        }
        if let (Some(t), Some(start)) = (trace, start) {
            let first = t.spans.add_stages(
                t.op,
                t.root,
                start,
                &[
                    ("bench.build_spec", built),
                    ("pipeline.service.loop.submit_wait", waited),
                ],
            );
            t.spans.add(
                "pipeline.exec_threads.run",
                t.op,
                Some(first + 1),
                start + built,
                out.stats.engine_seconds,
            );
            self.stats.push(out.stats);
        }
        Ok(())
    }

    fn verify(&mut self, _cfg: Config) -> bool {
        if !self.armed {
            return false;
        }
        self.case.run_floor(&mut self.before, self.shape.steps);
        ROTATED.iter().zip(&self.before).all(|(name, want)| {
            self.resident(name)
                .is_some_and(|got| bits_eq(got.as_slice(), want))
        })
    }
}

/// Run the workload (see [`super::run`]).
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    layers: Option<&mut Layers>,
) -> crate::Result<Outcome> {
    let Some(layers) = layers else {
        return measure_rounds(
            seconds,
            || Loop::setup(shape, seed),
            |mut w, secs| Ok(run_per_op(&mut w, secs, None)),
        );
    };
    let (mut w, setup_s) = Loop::setup(shape, seed)?;

    let mut tracks = vec![Spans::new(Instant::now(), 0)];
    let (spawns, allocs) = (w.service.stats().pool_spawns, w.service.handle_allocs());
    let window = run_per_op(&mut w, seconds * TRACED_WINDOW_SHARE, Some(&mut tracks));
    record_window(layers, &window, &tracks);
    record_service_stats(layers, &w.service, spawns);
    layers.set(
        "pipeline.service.handle.allocs_steady",
        (w.service.handle_allocs() - allocs) as f64,
    );
    layers.set("pipeline.service.start_ms", w.start_ms);
    layers.set("pipeline.service.handle.import_ms", w.import_ms);
    layers.set(
        "pipeline.service.handle.resident_mb",
        w.service.resident_bytes() as f64 / 1e6,
    );

    let mut op_secs = window.latencies.clone();
    let op = median(&mut op_secs);
    layers.set("pipeline.service.loop.steps_per_s", shape.steps as f64 / op);
    layers.set(
        "pipeline.service.loop.ns_per_elem_step",
        op * 1e9 / w.points() as f64,
    );
    let stat = |f: &dyn Fn(&LoopStats) -> f64| {
        median_or_zero(&mut w.stats.iter().map(f).collect::<Vec<_>>())
    };
    layers.set(
        "pipeline.service.loop.overlap_efficiency",
        stat(&|s| s.overlap_efficiency),
    );
    layers.set("pipeline.service.loop.busy_s", stat(&|s| s.busy_seconds));
    layers.set(
        "pipeline.service.loop.overlap_s",
        stat(&|s| s.overlap_seconds),
    );
    layers.set("pipeline.service.loop.chunks", stat(&|s| s.chunks as f64));
    layers.set(
        "pipeline.service.loop.fused_chunks",
        stat(&|s| if s.fused { s.chunks as f64 } else { 0.0 }),
    );

    // Fused against the barrier ablation, interleaved.
    let (mut fused, mut barrier) = (Vec::new(), Vec::new());
    for _ in 0..if w.points() >= 1 << 22 { 5 } else { 25 } {
        for (pipelined, samples) in [(true, &mut fused), (false, &mut barrier)] {
            w.pipelined = pipelined;
            let t0 = Instant::now();
            w.op(Config::Threads, None)?;
            samples.push(t0.elapsed().as_secs_f64());
        }
    }
    w.pipelined = true;
    layers.set(
        "pipeline.service.loop.fused_over_barrier",
        median(&mut barrier) / median(&mut fused),
    );

    let t0 = Instant::now();
    let snapshot = w.service.read(w.handle("next"))?;
    layers.set(
        "pipeline.service.handle.read_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    drop(snapshot);

    let probe = probe_case(&w.case)?;
    record_host(layers, &w.case, &probe, window.pipe_speedup())?;
    record_cases(layers, &[probe]);

    let t0 = Instant::now();
    for (_, h) in &w.bindings {
        w.service.free(h)?;
    }
    layers.set(
        "pipeline.service.handle.free_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(Outcome {
        setup_s,
        window,
        tracks,
    })
}
