//! Per-layer probes of the traced run: each times calls into one
//! layer's public functions on a workload's own program and inputs, or
//! reads what those calls return.

use std::time::Instant;

use wavefront::core::prelude::{compile, KernelMode, LaneShape, NestRunner, Store};
use wavefront::model::CalibratedMachine;
use wavefront::pipeline::{
    calibrate_host, BlockPolicy, Collector, EngineKind, RunOutcome, Session, Session2D,
    TraceAnalysis, TraceCollector,
};

use crate::cases::Case;
use crate::floors;
use crate::host::PROCS;
use crate::metrics::Layers;
use crate::stats::{median, median_or_zero};

/// Grid points above which a case counts as large: probes then repeat
/// less and the slow kernel tiers run on a slab of the region.
const LARGE_POINTS: usize = 1 << 20;

/// One run of `case`'s nest through the one-shot `Session` front door on
/// `store`, the repo's defaults everywhere but the engine and `procs`.
pub fn session_run(
    case: &Case,
    store: &mut Store<2>,
    kind: EngineKind,
    procs: usize,
    block: BlockPolicy,
    collector: Option<&mut dyn Collector>,
) -> crate::Result<RunOutcome> {
    let session = Session::new(&case.program, &case.nest)
        .procs(procs)
        .block(block)
        .store(store);
    match collector {
        Some(c) => Ok(session.collector(c).run(kind)?),
        None => Ok(session.run(kind)?),
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Everything measured on one program at one size.
pub struct CaseProbe {
    /// Hand-written loop.
    pub floor_ns: f64,
    /// `lang::compile_str`, cold.
    pub lang_us: f64,
    /// `core::compile`.
    pub compile_us: f64,
    /// `NestRunner::with_mode(.., Lanes)`.
    pub lower_us: f64,
    /// One thread, `bind` + `run_tile` over the region, per tier.
    pub lanes_ns: f64,
    /// See `lanes_ns`.
    pub scalar_ns: f64,
    /// See `lanes_ns`.
    pub interp_ns: f64,
    /// The lane shape reached, `None` below the lane tier.
    pub lane_shape: Option<LaneShape>,
    /// Bytes per second of `Case::working_store`.
    pub clone_gbps: f64,
    /// `Session::plan`.
    pub plan_us: f64,
    /// The plan's block size.
    pub block_b: usize,
    /// The plan's tile count.
    pub tiles: usize,
    /// `Session` on `EngineKind::Seq`, p = 2.
    pub seq_ns: f64,
    /// `Session` on `EngineKind::Threads`, p = 1.
    pub p1_ns: f64,
    /// p = 2 (the production configuration); seconds kept for overhead
    /// arithmetic.
    pub p2_ns: f64,
    /// Median wall seconds of the p = 2 run.
    pub p2_secs: f64,
    /// p = 2 under `BlockPolicy::FullPortion`, the non-pipelined baseline.
    pub naive_ns: f64,
    /// `RunOutcome.prep_seconds` of the p = 2 runs.
    pub prep_ms: f64,
    /// `RunOutcome.run_seconds` of the p = 2 runs.
    pub run_ms: f64,
    /// Observed boundary messages of a traced p = 2 run.
    pub messages: usize,
    /// Observed message bytes of the same run.
    pub message_bytes: usize,
    /// Critical-path shares (compute, message, receiver-busy, wait).
    pub cp: [f64; 4],
    /// Fill / steady / drain shares of the makespan.
    pub phases: [f64; 3],
    /// `Session2D` on a 2×1 mesh; 0 when the nest has a single wavefront
    /// dimension and the mesh engine refuses it.
    pub mesh_ns: f64,
    /// DES makespan at p = 1 ÷ p = 2.
    pub sim_speedup: f64,
}

/// Probe every layer under the service on `case`.
pub fn probe_case(case: &Case) -> crate::Result<CaseProbe> {
    let points = case.points();
    let large = points >= LARGE_POINTS;
    let (reps, fast_reps) = if large { (3, 5) } else { (15, 20) };
    let per_elem = |secs: f64, points: usize| secs * 1e9 / points as f64;

    let mut bufs = case.floor_buffers();
    let floor_secs = median_secs(reps, || {
        case.reset_floor_buffers(&mut bufs);
        case.run_floor(&mut bufs, 1)
    });
    // The reset is a copy of the written arrays; take it back out.
    let reset_secs = median_secs(reps, || case.reset_floor_buffers(&mut bufs));
    let floor_ns = per_elem((floor_secs - reset_secs).max(0.0), points);

    let lang_us = median_secs(fast_reps, || drop(case.kind.lower(case.n))) * 1e6;
    let compile_us = median_secs(fast_reps, || {
        compile(&case.program).expect("compiled in setup");
    }) * 1e6;
    let lower_us = median_secs(fast_reps, || {
        std::hint::black_box(NestRunner::with_mode(&case.nest, KernelMode::Lanes));
    }) * 1e6;

    let t0 = Instant::now();
    let mut store = case.working_store();
    let clone_bytes: usize = case
        .written
        .iter()
        .map(|&(_, id)| store.get(id).as_slice().len() * 8)
        .sum();
    let clone_gbps = clone_bytes as f64 / t0.elapsed().as_secs_f64() / 1e9;

    // Kernel tiers, one thread, no engine: on large cases a slab along
    // the dependence-free last dimension keeps the interpreter affordable.
    let region = case.nest.region;
    let tile = if large {
        let lo = region.lo()[1];
        let width = (LARGE_POINTS / 2) as i64 / region.extent(0).max(1);
        region.slab(1, lo, (lo + width.max(1) - 1).min(region.hi()[1]))
    } else {
        region
    };
    let order = case.nest.structure.order.clone();
    let mut tier_ns = |mode: KernelMode| {
        let runner = NestRunner::with_mode(&case.nest, mode);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            case.restore(&mut store);
            let t0 = Instant::now();
            let bound = runner.bind(&store, &order);
            runner.run_tile(&case.nest, bound.as_ref(), tile, &order, &mut store);
            samples.push(t0.elapsed().as_secs_f64());
        }
        per_elem(median(&mut samples), tile.len())
    };
    let interp_ns = tier_ns(KernelMode::Interpreted);
    let scalar_ns = tier_ns(KernelMode::Scalar);
    let lanes_ns = tier_ns(KernelMode::Lanes);
    let lane_shape = NestRunner::auto(&case.nest).lane_plan().map(|p| p.shape);

    let session = Session::new(&case.program, &case.nest).procs(PROCS);
    let plan_us = median_secs(fast_reps, || {
        std::hint::black_box(session.plan().expect("plans"));
    }) * 1e6;
    let plan = session.plan()?;

    // Engines through `Session`, interleaved so drift hits all alike.
    let configs = [
        (EngineKind::Seq, PROCS, BlockPolicy::Model2),
        (EngineKind::Threads, 1, BlockPolicy::Model2),
        (EngineKind::Threads, PROCS, BlockPolicy::Model2),
        (EngineKind::Threads, PROCS, BlockPolicy::FullPortion),
    ];
    // The mesh engine distributes two wavefront dimensions; a nest with
    // one (fig3, Tomcatv, the relaxation) cannot reach it.
    let meshable = case.nest.structure.wavefront_dims.len() >= 2;
    let mut secs: [Vec<f64>; 5] = Default::default();
    let (mut prep, mut run) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for (slot, (kind, procs, block)) in configs.iter().enumerate() {
            case.restore(&mut store);
            let t0 = Instant::now();
            let out = session_run(case, &mut store, *kind, *procs, block.clone(), None)?;
            secs[slot].push(t0.elapsed().as_secs_f64());
            if slot == 2 {
                prep.push(out.prep_seconds * 1e3);
                run.push(out.run_seconds * 1e3);
            }
        }
        if meshable {
            case.restore(&mut store);
            let t0 = Instant::now();
            Session2D::new(&case.program, &case.nest)
                .mesh([PROCS, 1])
                .store(&mut store)
                .run(EngineKind::Threads)?;
            secs[4].push(t0.elapsed().as_secs_f64());
        }
    }
    let [seq, p1, p2, naive, mesh] = secs.map(|mut s| median_or_zero(&mut s));

    // One traced p = 2 run for the collector's counts and the
    // critical-path classes.
    case.restore(&mut store);
    let mut trace = TraceCollector::default();
    session_run(
        case,
        &mut store,
        EngineKind::Threads,
        PROCS,
        BlockPolicy::Model2,
        Some(&mut trace),
    )?;
    let report = trace.report();
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let cp = TraceAnalysis::from_trace(&trace).map_or([0.0; 4], |a| {
        let c = &a.critical;
        [c.compute, c.message, c.recv_busy, c.wait].map(|part| share(part, c.length()))
    });
    let ph = &report.phases;
    let phases = [ph.fill, ph.steady, ph.drain].map(|part| share(part, report.makespan));

    let sim = |procs| {
        Session::new(&case.program, &case.nest)
            .procs(procs)
            .run(EngineKind::Sim)
    };
    let sim_speedup = sim(1)?.makespan / sim(PROCS)?.makespan;

    Ok(CaseProbe {
        floor_ns,
        lang_us,
        compile_us,
        lower_us,
        lanes_ns,
        scalar_ns,
        interp_ns,
        lane_shape,
        clone_gbps,
        plan_us,
        block_b: plan.block,
        tiles: plan.tiles.len(),
        seq_ns: per_elem(seq, points),
        p1_ns: per_elem(p1, points),
        p2_ns: per_elem(p2, points),
        p2_secs: p2,
        naive_ns: per_elem(naive, points),
        prep_ms: median(&mut prep),
        run_ms: median(&mut run),
        messages: report.messages,
        message_bytes: report.bytes,
        cp,
        phases,
        mesh_ns: per_elem(mesh, points),
        sim_speedup,
    })
}

/// Record the program-level layers of a workload from the probes of its
/// programs: per-program figures are averaged, counts are summed.
pub fn record_cases(layers: &mut Layers, probes: &[CaseProbe]) {
    let mean =
        |f: &dyn Fn(&CaseProbe) -> f64| probes.iter().map(f).sum::<f64>() / probes.len() as f64;
    let mean_where = |keep: &dyn Fn(&CaseProbe) -> bool| {
        let kept: Vec<f64> = probes
            .iter()
            .filter(|p| keep(p))
            .map(|p| p.lanes_ns)
            .collect();
        if kept.is_empty() {
            0.0
        } else {
            kept.iter().sum::<f64>() / kept.len() as f64
        }
    };
    layers.set("floor.native_ns_per_elem", mean(&|p| p.floor_ns));
    layers.set("lang.compile_us", mean(&|p| p.lang_us));
    layers.set("core.compile_us", mean(&|p| p.compile_us));
    layers.set("core.kernel.lower_us", mean(&|p| p.lower_us));
    layers.set("core.kernel.lanes_ns_per_elem", mean(&|p| p.lanes_ns));
    layers.set("core.kernel.scalar_ns_per_elem", mean(&|p| p.scalar_ns));
    layers.set("core.kernel.interp_ns_per_elem", mean(&|p| p.interp_ns));
    layers.set(
        "core.kernel.lanes_ns_per_elem.axis",
        mean_where(&|p| matches!(p.lane_shape, Some(LaneShape::Axis { .. }))),
    );
    layers.set(
        "core.kernel.lanes_ns_per_elem.wavefront",
        mean_where(&|p| matches!(p.lane_shape, Some(LaneShape::Wavefront { .. }))),
    );
    layers.set(
        "core.kernel.lanes_share",
        mean(&|p| f64::from(u8::from(p.lane_shape.is_some()))),
    );
    layers.set("core.array.store_clone_gbps", mean(&|p| p.clone_gbps));
    layers.set("pipeline.plan.us", mean(&|p| p.plan_us));
    layers.set("pipeline.plan.block_b", mean(&|p| p.block_b as f64));
    layers.set("pipeline.plan.tiles", mean(&|p| p.tiles as f64));
    layers.set("pipeline.exec_seq.ns_per_elem", mean(&|p| p.seq_ns));
    layers.set("pipeline.exec_threads.p1_ns_per_elem", mean(&|p| p.p1_ns));
    layers.set("pipeline.exec_threads.p2_ns_per_elem", mean(&|p| p.p2_ns));
    layers.set(
        "pipeline.exec_threads.naive_ns_per_elem",
        mean(&|p| p.naive_ns),
    );
    layers.set(
        "pipeline.exec_threads.pipelined_over_naive",
        mean(&|p| p.naive_ns / p.p2_ns),
    );
    layers.set("pipeline.exec_threads.prep_ms", mean(&|p| p.prep_ms));
    layers.set("pipeline.exec_threads.run_ms", mean(&|p| p.run_ms));
    layers.set(
        "pipeline.exec_threads.messages",
        probes.iter().map(|p| p.messages as f64).sum(),
    );
    layers.set(
        "pipeline.exec_threads.message_bytes",
        probes.iter().map(|p| p.message_bytes as f64).sum(),
    );
    for (k, name) in ["compute", "message", "recv_busy", "wait"]
        .iter()
        .enumerate()
    {
        layers.set(
            &format!("pipeline.exec_threads.cp_{name}_share"),
            mean(&|p| p.cp[k]),
        );
    }
    for (k, name) in ["fill", "steady", "drain"].iter().enumerate() {
        layers.set(
            &format!("pipeline.exec_threads.{name}_share"),
            mean(&|p| p.phases[k]),
        );
    }
    let meshed: Vec<f64> = probes
        .iter()
        .map(|p| p.mesh_ns)
        .filter(|&ns| ns > 0.0)
        .collect();
    if !meshed.is_empty() {
        layers.set(
            "pipeline.exec2d.p2x1_ns_per_elem",
            meshed.iter().sum::<f64>() / meshed.len() as f64,
        );
    }
    layers.set(
        "pipeline.exec_sim.predicted_speedup",
        mean(&|p| p.sim_speedup),
    );
}

/// Record the host-level layers: transport floors, the calibrated α/β,
/// and Model2's prediction for `case` — with those α/β, the case's own
/// measured lane-kernel cost per element and the plan's block size —
/// against the `pipe_speedup` the traced window observed.
pub fn record_host(
    layers: &mut Layers,
    case: &Case,
    probe: &CaseProbe,
    observed_speedup: f64,
) -> crate::Result<()> {
    layers.set("floor.memcpy_gbps", floors::memcpy_gbps(32 << 20, 5));
    layers.set("floor.thread_handoff_us", floors::thread_handoff_us(2000));
    let cal = calibrate_host()?;
    layers.set("pipeline.tune.alpha_us", cal.alpha * 1e6);
    layers.set("pipeline.tune.beta_ns_per_elem", cal.beta * 1e9);
    layers.set("pipeline.tune.elem_ns", cal.elem_cost * 1e9);
    let predicted = CalibratedMachine::new(cal.alpha, cal.beta, probe.lanes_ns * 1e-9)
        .model(case.n, PROCS)
        .speedup(probe.block_b.max(1) as f64);
    layers.set("model.predicted_speedup", predicted);
    layers.set(
        "model.residual",
        if predicted > 0.0 {
            observed_speedup / predicted
        } else {
            0.0
        },
    );
    Ok(())
}
