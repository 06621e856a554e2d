//! Simulated (cost-model) execution of plans and whole programs.
//!
//! Builds the task DAG of a plan from the *actual* owned regions and
//! tiles (so uneven distributions are represented exactly) and runs the
//! machine's deterministic cost simulator. This is the "experimental"
//! time of the figure harnesses, as opposed to the closed-form Model1 /
//! Model2 predictions.

use wavefront_core::exec::{CompiledNest, CompiledProgram};
use wavefront_core::program::Program;
use wavefront_machine::{
    simulate, simulate_observed, CommMode, Dep, MachineParams, SimObserver, SimResult, SimTask,
};

use crate::error::PipelineError;
use crate::plan::{JobTopology, WavefrontPlan};
use crate::schedule::BlockPolicy;
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, RunMeta, TimeUnit, WaitEvent,
};

/// Build the task DAG of a plan: task `(i, j)` is cell `i` (wave order)
/// computing tile `j` of its portion; it depends on its own tile `j−1`
/// and on tile `j` of its upstream neighbour along every axis (each a
/// boundary message).
///
/// Message edges carry exactly the elements the threaded engine
/// serializes ([`WavefrontPlan::msg_elems`] of the sender's owned
/// region); edges touching a rank that owns no data degrade to pure
/// ordering edges, since such ranks neither compute nor relay in the
/// real runtimes.
pub(crate) fn plan_dag<const R: usize>(plan: &WavefrontPlan<R>) -> Vec<SimTask> {
    let cells = plan.cells_in_wave_order();
    let nt = plan.tiles.len();
    let mut position = vec![0usize; cells.len()];
    for (i, &rank) in cells.iter().enumerate() {
        position[rank] = i;
    }
    let mut tasks = Vec::with_capacity(cells.len() * nt);
    for (i, &rank) in cells.iter().enumerate() {
        let owned = plan.dist.owned(rank);
        for (j, tile) in plan.tiles.iter().enumerate() {
            let mut deps = Vec::new();
            if j > 0 {
                deps.push(Dep {
                    task: i * nt + (j - 1),
                    elems: 0,
                });
            }
            for axis in 0..plan.axes.len() {
                if let Some(up) = plan.upstream(rank, axis) {
                    // An empty sender's slab is empty already.
                    let elems = if owned.is_empty() {
                        0
                    } else {
                        plan.msg_elems(plan.dist.owned(up), tile, axis)
                    };
                    deps.push(Dep {
                        task: position[up] * nt + j,
                        elems,
                    });
                }
            }
            // The task runs on the actual grid rank (not the wave-order
            // position), so processor identities line up across stages
            // when plans with different wave directions are fused.
            tasks.push(SimTask {
                proc: rank,
                cost: owned.intersect(tile).len() as f64 * plan.work,
                deps,
            });
        }
    }
    tasks
}

/// Translates the DES observer callbacks of one plan simulation into
/// [`Collector`] events: task `(i, j)` becomes a block event for tile
/// `j` on the rank that ran it, remote edges become message events, and
/// the idle gap before each task (time neither computing nor receiving)
/// becomes a wait event.
struct DagAdapter<'a> {
    collector: &'a mut dyn Collector,
    elems: Vec<usize>,
    nt: usize,
}

impl SimObserver for DagAdapter<'_> {
    fn task(&mut self, idx: usize, proc: usize, ready: f64, start: f64, finish: f64, recv: f64) {
        let wait = start - ready - recv;
        if wait > 1e-12 {
            self.collector.wait(WaitEvent {
                proc,
                start: ready,
                end: ready + wait,
            });
        }
        if self.elems[idx] > 0 {
            self.collector.block(BlockEvent {
                proc,
                tile: idx % self.nt,
                start,
                end: finish,
                elems: self.elems[idx],
            });
        }
    }
    fn message(
        &mut self,
        _from_task: usize,
        to_task: usize,
        from_proc: usize,
        to_proc: usize,
        elems: usize,
        sent_at: f64,
        recv_done: f64,
    ) {
        self.collector.message(MessageEvent {
            from: from_proc,
            to: to_proc,
            tile: to_task % self.nt,
            elems,
            sent_at,
            recv_at: recv_done,
        });
    }
}

/// Simulate a plan, reporting telemetry to `collector`. Timelines are
/// in the machine model's normalized element-time units. With a
/// disabled collector this is a plain cost simulation of the plan's
/// task DAG.
pub(crate) fn simulate_plan_collected<const R: usize>(
    plan: &WavefrontPlan<R>,
    params: &MachineParams,
    collector: &mut dyn Collector,
) -> SimResult {
    let tasks = plan_dag(plan);
    let procs = plan.procs();
    if !collector.enabled() {
        return simulate(&tasks, params, procs);
    }
    let nt = plan.tiles.len();
    let mut elems = Vec::with_capacity(tasks.len());
    for rank in plan.cells_in_wave_order() {
        let owned = plan.dist.owned(rank);
        for tile in &plan.tiles {
            elems.push(owned.intersect(tile).len());
        }
    }
    collector.begin(&RunMeta {
        engine: EngineKind::Sim,
        procs,
        active: plan.active_cells(),
        tiles: nt,
        block: plan.block,
        pipelined: plan.is_pipelined(),
        machine: params.name.to_string(),
        time_unit: TimeUnit::ModelUnits,
        predicted: plan.predicted_traffic(),
    });
    let mut adapter = DagAdapter {
        collector,
        elems,
        nt,
    };
    let result = simulate_observed(&tasks, params, procs, CommMode::Blocking, &mut adapter);
    collector.end(result.makespan);
    result
}

/// A line of `p` processors forced along `dist_dim`.
fn along(p: usize, dist_dim: usize) -> JobTopology {
    JobTopology::Line {
        procs: p,
        dist_dim: Some(dist_dim),
    }
}

/// Outcome of simulating one nest of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct NestSim {
    /// Simulated completion time.
    pub time: f64,
    /// Whether the nest ran as a pipelined wavefront.
    pub pipelined: bool,
    /// Resolved block size, for wavefront nests.
    pub block: Option<usize>,
    /// Whether the nest carried a wavefront along the distributed
    /// dimension at all.
    pub wavefront: bool,
}

/// Simulate one nest distributed along `dist_dim` over `p` processors.
///
/// Wavefront nests (value-carrying dependences along `dist_dim`) run
/// under `policy`; everything else runs fully parallel with a single
/// ghost-exchange round when some read shift crosses the distributed
/// dimension.
pub(crate) fn simulate_nest<const R: usize>(
    nest: &CompiledNest<R>,
    p: usize,
    dist_dim: usize,
    policy: &BlockPolicy,
    params: &MachineParams,
) -> NestSim {
    match WavefrontPlan::build(nest, along(p, dist_dim), policy, params) {
        Ok(plan) => {
            let r = simulate(&plan_dag(&plan), params, p);
            NestSim {
                time: r.makespan,
                pipelined: plan.is_pipelined(),
                block: plan.tile_dim.map(|_| plan.block),
                wavefront: true,
            }
        }
        Err(PipelineError::WaveNotDistributed { .. }) | Err(PipelineError::NoWavefrontDim) => {
            NestSim {
                time: simulate_parallel_nest(nest, p, dist_dim, params),
                pipelined: false,
                block: None,
                wavefront: false,
            }
        }
        Err(PipelineError::ConflictingDependences { .. }) => {
            // Dependences cross the distributed dimension in both
            // directions: no pipelined decomposition exists, so the sweep
            // serializes processor by processor (approximated as the
            // naive chain with whole-boundary messages).
            let work = crate::plan::nest_work(nest);
            let cross: usize = (0..R)
                .filter(|&k| k != dist_dim)
                .map(|k| nest.region.extent(k).max(0) as usize)
                .product();
            let total = nest.region.len() as f64 * work;
            NestSim {
                time: total + (p.saturating_sub(1)) as f64 * params.msg_cost(cross),
                pipelined: false,
                block: None,
                wavefront: true,
            }
        }
        // Plan construction only raises the shape errors above; the
        // session- and tuning-level variants cannot occur here.
        Err(e) => unreachable!("plan construction returned non-plan error: {e}"),
    }
}

/// Simulate a fully parallel nest: every processor computes its owned
/// portion independently, after one ghost-exchange message per neighbour
/// pair when any read shift has a component along the distributed
/// dimension.
pub(crate) fn simulate_parallel_nest<const R: usize>(
    nest: &CompiledNest<R>,
    p: usize,
    dist_dim: usize,
    params: &MachineParams,
) -> f64 {
    let region = nest.region;
    let dist = wavefront_machine::Distribution::block(
        region,
        wavefront_machine::ProcGrid::<R>::along(dist_dim, p),
    );
    let work = crate::plan::nest_work(nest);

    // Ghost exchange: arrays read with a non-zero shift along dist_dim.
    let mut ghost_arrays: Vec<(usize, i64)> = Vec::new();
    for s in &nest.stmts {
        for r in s.rhs.reads() {
            let d = r.shift[dist_dim].abs();
            if d > 0 {
                match ghost_arrays.iter_mut().find(|(id, _)| *id == r.id) {
                    Some((_, t)) => *t = (*t).max(d),
                    None => ghost_arrays.push((r.id, d)),
                }
            }
        }
    }
    let cross: usize = (0..R)
        .filter(|&k| k != dist_dim)
        .map(|k| region.extent(k).max(0) as usize)
        .product();
    let ghost_elems: usize = ghost_arrays.iter().map(|(_, t)| cross * *t as usize).sum();

    // DAG: per processor a zero-cost "send" task, then a compute task
    // depending on the neighbours' sends.
    let mut tasks = Vec::with_capacity(2 * p);
    for i in 0..p {
        tasks.push(SimTask {
            proc: i,
            cost: 0.0,
            deps: vec![],
        }); // send i
    }
    for i in 0..p {
        let mut deps = Vec::new();
        if ghost_elems > 0 {
            if i > 0 {
                deps.push(Dep {
                    task: i - 1,
                    elems: ghost_elems,
                });
            }
            if i + 1 < p {
                deps.push(Dep {
                    task: i + 1,
                    elems: ghost_elems,
                });
            }
        }
        let owned = dist.owned(i);
        tasks.push(SimTask {
            proc: i,
            cost: owned.len() as f64 * work,
            deps,
        });
    }
    simulate(&tasks, params, p).makespan
}

/// Simulation of a whole compiled program: nests run in order with a
/// barrier between them (the paper's per-statement communication
/// structure), so the program time is the sum of nest times.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSim {
    /// Per-nest outcomes, program order.
    pub nests: Vec<NestSim>,
    /// Total simulated time.
    pub total: f64,
}

/// Simulate every nest of `compiled` and sum the times.
pub(crate) fn simulate_program<const R: usize>(
    _program: &Program<R>,
    compiled: &CompiledProgram<R>,
    p: usize,
    dist_dim: usize,
    policy: &BlockPolicy,
    params: &MachineParams,
) -> ProgramSim {
    let mut nests = Vec::new();
    for op in &compiled.ops {
        match op {
            wavefront_core::exec::CompiledOp::Block(b) => {
                for nest in &b.nests {
                    nests.push(simulate_nest(nest, p, dist_dim, policy, params));
                }
            }
            wavefront_core::exec::CompiledOp::Reduce(r) => {
                nests.push(NestSim {
                    time: simulate_reduce(r, p, params),
                    pipelined: false,
                    block: None,
                    wavefront: false,
                });
            }
        }
    }
    let total = nests.iter().map(|n| n.time).sum();
    ProgramSim { nests, total }
}

/// Simulate a whole program as ONE task graph, optionally without
/// barriers between operations.
///
/// With `overlap = false` every processor's first task of operation `k`
/// waits for *every* processor's last task of operation `k − 1` (a
/// barrier — the same semantics as [`simulate_program`], expressed as a
/// DAG). With `overlap = true` it waits only for the last tasks of its
/// own and neighbouring processors — sound for block distributions with
/// nearest-neighbour ghost margins — letting, e.g., a wavefront start on
/// the rows its processor already finished in the previous stencil
/// phase.
pub(crate) fn simulate_program_fused<const R: usize>(
    compiled: &CompiledProgram<R>,
    p: usize,
    dist_dim: usize,
    policy: &BlockPolicy,
    params: &MachineParams,
    overlap: bool,
) -> f64 {
    let mut tasks: Vec<SimTask> = Vec::new();
    // Last task index per processor for the previous operation.
    let mut prev_last: Vec<Option<usize>> = vec![None; p];

    fn push_stage(
        tasks: &mut Vec<SimTask>,
        stage: Vec<SimTask>,
        prev_last: &mut [Option<usize>],
        p: usize,
        overlap: bool,
    ) {
        let base = tasks.len();
        let mut new_last: Vec<Option<usize>> = vec![None; p];
        for (i, mut t) in stage.into_iter().enumerate() {
            // Rebase intra-stage dependences and add the inter-stage
            // gating edges (data dependences, no message cost: the
            // arrays already live where they are used).
            for d in &mut t.deps {
                d.task += base;
            }
            let gate: Vec<usize> = if overlap {
                let lo = t.proc.saturating_sub(1);
                let hi = (t.proc + 1).min(p - 1);
                (lo..=hi).collect()
            } else {
                (0..p).collect()
            };
            for g in gate {
                if let Some(idx) = prev_last[g] {
                    if !t.deps.iter().any(|d| d.task == idx) {
                        t.deps.push(Dep {
                            task: idx,
                            elems: 0,
                        });
                    }
                }
            }
            new_last[t.proc] = Some(base + i);
            tasks.push(t);
        }
        for i in 0..p {
            if new_last[i].is_some() {
                prev_last[i] = new_last[i];
            }
        }
    }

    for op in &compiled.ops {
        match op {
            wavefront_core::exec::CompiledOp::Block(b) => {
                for nest in &b.nests {
                    let stage = match WavefrontPlan::build(nest, along(p, dist_dim), policy, params) {
                        Ok(plan) => plan_dag(&plan),
                        Err(_) => parallel_stage(nest, p, dist_dim),
                    };
                    push_stage(&mut tasks, stage, &mut prev_last, p, overlap);
                }
            }
            wavefront_core::exec::CompiledOp::Reduce(r) => {
                // One task per processor for the fold, then a global
                // combine modeled as extra cost on processor 0 (tree).
                let work = (r.src.flop_count() + 1) as f64;
                let fold = (r.region.len() as f64 / p as f64).ceil() * work;
                let hops = (p.max(1) as f64).log2().ceil();
                let stage: Vec<SimTask> = (0..p)
                    .map(|i| SimTask {
                        proc: i,
                        cost: fold
                            + if i == 0 {
                                2.0 * hops * params.msg_cost(1)
                            } else {
                                0.0
                            },
                        deps: vec![],
                    })
                    .collect();
                push_stage(&mut tasks, stage, &mut prev_last, p, overlap);
                // A reduction result is global: act as a barrier even in
                // overlap mode by gating every processor's next task on
                // processor 0's combining fold.
                let combine = tasks.len() - p; // proc 0's fold task
                for entry in prev_last.iter_mut() {
                    *entry = Some(combine);
                }
            }
        }
    }
    simulate(&tasks, params, p).makespan
}

/// Per-processor tasks of a fully parallel nest (including one ghost
/// message per neighbour when shifts cross the distributed dimension).
fn parallel_stage<const R: usize>(
    nest: &CompiledNest<R>,
    p: usize,
    dist_dim: usize,
) -> Vec<SimTask> {
    let region = nest.region;
    let dist = wavefront_machine::Distribution::block(
        region,
        wavefront_machine::ProcGrid::<R>::along(dist_dim, p),
    );
    let work = crate::plan::nest_work(nest);
    let cross: usize = (0..R)
        .filter(|&k| k != dist_dim)
        .map(|k| region.extent(k).max(0) as usize)
        .product();
    let crosses = nest
        .stmts
        .iter()
        .flat_map(|s| s.rhs.reads())
        .filter(|r| r.shift[dist_dim] != 0)
        .count();
    let ghost = if crosses > 0 { cross } else { 0 };
    // Senders then computers (send tasks are zero cost).
    let mut tasks: Vec<SimTask> = (0..p)
        .map(|i| SimTask {
            proc: i,
            cost: 0.0,
            deps: vec![],
        })
        .collect();
    for i in 0..p {
        let mut deps = Vec::new();
        if ghost > 0 {
            if i > 0 {
                deps.push(Dep {
                    task: i - 1,
                    elems: ghost,
                });
            }
            if i + 1 < p {
                deps.push(Dep {
                    task: i + 1,
                    elems: ghost,
                });
            }
        }
        tasks.push(SimTask {
            proc: i,
            cost: dist.owned(i).len() as f64 * work,
            deps,
        });
    }
    tasks
}

/// Simulate a reduction: the fold is perfectly parallel, then the partial
/// results combine up a binary tree and the scalar broadcasts back down —
/// `2·ceil(log2 p)` single-element messages on the critical path.
pub(crate) fn simulate_reduce<const R: usize>(
    red: &wavefront_core::program::Reduce<R>,
    p: usize,
    params: &MachineParams,
) -> f64 {
    let work = (red.src.flop_count() + 1) as f64;
    let fold = (red.region.len() as f64 / p as f64).ceil() * work;
    let hops = (p.max(1) as f64).log2().ceil();
    fold + 2.0 * hops * params.msg_cost(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{sweep_nest, tomcatv_nest};
    use wavefront_core::prelude::*;
    use wavefront_model::PipeModel;

    fn t3e() -> MachineParams {
        wavefront_machine::cray_t3e()
    }

    #[test]
    fn simulated_pipeline_tracks_model2_shape() {
        // For the square unit-work sweep the DES makespan must track the
        // analytic T_pipe within a modest band across block sizes.
        let n = 256usize;
        let p = 8usize;
        let params = t3e();
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n as i64, n as i64]);
        let a = prog.array("a", bounds);
        prog.stmt(
            Region::rect([2, 1], [n as i64, n as i64]),
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::lit(1.0),
        );
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        for b in [4usize, 16, 64] {
            let plan =
                WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &params)
                    .unwrap();
            let sim = simulate(&plan_dag(&plan), &params, p).makespan;
            let model = PipeModel::new(n - 1, p, params.alpha, params.beta).t_pipe(b as f64);
            // The closed-form model serializes the whole message chain
            // with the computation, while the simulator overlaps them, so
            // the model over-predicts at small b; the band is accordingly
            // asymmetric.
            let ratio = sim / model;
            assert!(
                (0.35..=1.5).contains(&ratio),
                "b={b}: sim {sim} vs model {model} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn pipelined_beats_naive_on_tomcatv() {
        let (_p, nest) = tomcatv_nest(258);
        let params = t3e();
        let p = 8;
        let pipe = simulate_nest(&nest, p, 0, &BlockPolicy::Model2, &params);
        let naive = simulate_nest(&nest, p, 0, &BlockPolicy::FullPortion, &params);
        assert!(pipe.pipelined);
        assert!(!naive.pipelined);
        assert!(
            pipe.time < naive.time / 2.0,
            "pipe {} vs naive {}",
            pipe.time,
            naive.time
        );
    }

    #[test]
    fn wavefront_speedup_approaches_p_when_comm_cheap() {
        // Figure 7's grey bars: with modest communication costs the
        // pipelined wavefront speedup approaches the processor count.
        let (_p, nest) = tomcatv_nest(514);
        let cheap = MachineParams::custom("cheap", 20.0, 0.2);
        for p in [2usize, 4, 8] {
            let pipe = simulate_nest(&nest, p, 0, &BlockPolicy::Model2, &cheap);
            let serial = simulate_nest(&nest, 1, 0, &BlockPolicy::FullPortion, &cheap);
            let speedup = serial.time / pipe.time;
            assert!(
                speedup > 0.6 * p as f64,
                "p={p}: speedup {speedup} too far from linear"
            );
        }
    }

    #[test]
    fn parallel_nest_divides_work() {
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([1, 1], [64, 64]);
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        prog.stmt(bounds, a, Expr::read(b) * Expr::lit(2.0));
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        let params = MachineParams::custom("free", 0.0, 0.0);
        let t1 = simulate_parallel_nest(nest, 1, 0, &params);
        let t4 = simulate_parallel_nest(nest, 4, 0, &params);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_nest_with_stencil_pays_one_exchange() {
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([0, 0], [65, 65]);
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        let inner = Region::rect([1, 1], [64, 64]);
        prog.stmt(
            inner,
            a,
            (Expr::read_at(b, [-1, 0]) + Expr::read_at(b, [1, 0])) * Expr::lit(0.5),
        );
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        let free = MachineParams::custom("free", 0.0, 0.0);
        let dear = MachineParams::custom("dear", 100.0, 1.0);
        let p = 4;
        let t_free = simulate_parallel_nest(nest, p, 0, &free);
        let t_dear = simulate_parallel_nest(nest, p, 0, &dear);
        // Interior processors receive ghosts from both neighbours, each
        // occupying the processor for alpha + beta*64.
        assert!(
            (t_dear - t_free - 2.0 * (100.0 + 64.0)).abs() < 1e-9,
            "{t_dear} {t_free}"
        );
    }

    #[test]
    fn simulate_nest_falls_back_for_non_wavefront() {
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([1, 1], [32, 32]);
        let a = prog.array("a", bounds);
        prog.stmt(bounds, a, Expr::read(a) + Expr::lit(1.0));
        let compiled = compile(&prog).unwrap();
        let sim = simulate_nest(compiled.nest(0), 4, 0, &BlockPolicy::Model2, &t3e());
        assert!(!sim.wavefront);
        assert!(!sim.pipelined);
        assert!(sim.block.is_none());
    }

    #[test]
    fn program_sim_sums_nests() {
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([1, 1], [32, 32]);
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        prog.stmt(bounds, b, Expr::read(a) * Expr::lit(2.0));
        prog.stmt(
            Region::rect([2, 1], [32, 32]),
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::read(b),
        );
        let compiled = compile(&prog).unwrap();
        let sim = simulate_program(&prog, &compiled, 4, 0, &BlockPolicy::Model2, &t3e());
        assert_eq!(sim.nests.len(), 2);
        assert!((sim.total - (sim.nests[0].time + sim.nests[1].time)).abs() < 1e-12);
        assert!(!sim.nests[0].wavefront);
        assert!(sim.nests[1].wavefront);
    }

    #[test]
    fn simulated_mesh_pipelining_beats_naive() {
        let (_program, nest) = sweep_nest(33);
        let params = t3e();
        let makespan = |mesh, policy: &BlockPolicy| {
            let plan = WavefrontPlan::build(&nest, JobTopology::mesh(mesh), policy, &params).unwrap();
            simulate(&plan_dag(&plan), &params, plan.procs()).makespan
        };
        let t_pipe = makespan([4, 4], &BlockPolicy::Model2);
        let t_naive = makespan([4, 4], &BlockPolicy::FullPortion);
        assert!(
            t_pipe < t_naive,
            "pipelined {t_pipe} should beat naive {t_naive}"
        );
        // And it must scale: one big mesh beats one cell.
        let t_single = makespan([1, 1], &BlockPolicy::Model2);
        assert!(
            t_pipe < t_single / 4.0,
            "mesh {t_pipe} vs single {t_single}"
        );
    }
}

#[cfg(test)]
mod fused_tests {
    use super::*;
    use wavefront_core::prelude::*;

    fn t3e() -> MachineParams {
        wavefront_machine::cray_t3e()
    }

    /// A stencil phase followed by a wavefront: overlap lets upstream
    /// processors enter the wavefront before downstream finishes the
    /// stencil.
    fn stencil_then_wave(n: i64) -> Program<2> {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let a = p.array("a", bounds);
        let b = p.array("b", bounds);
        let inner = Region::rect([1, 1], [n, n]);
        p.stmt(
            inner,
            b,
            (Expr::read_at(a, [-1, 0]) + Expr::read_at(a, [1, 0])) * Expr::lit(0.5),
        );
        p.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::read(b),
        );
        p
    }

    #[test]
    fn barrier_mode_matches_summed_simulation() {
        let prog = stencil_then_wave(64);
        let compiled = compile(&prog).unwrap();
        let params = t3e();
        let p = 4;
        let fused = simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, false);
        let summed = simulate_program(&prog, &compiled, p, 0, &BlockPolicy::Model2, &params);
        // The barrier DAG and the per-nest sum agree within the ghost
        // messages' placement (both model the same execution).
        let ratio = fused / summed.total;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "fused {fused} vs summed {}",
            summed.total
        );
    }

    #[test]
    fn overlap_never_hurts() {
        let prog = stencil_then_wave(128);
        let compiled = compile(&prog).unwrap();
        let params = t3e();
        for p in [2usize, 4, 8] {
            let barrier =
                simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, false);
            let overlap =
                simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, true);
            assert!(overlap <= barrier + 1e-9, "p={p}: {overlap} > {barrier}");
        }
    }

    #[test]
    fn overlap_lets_aligned_wavefronts_chase_each_other() {
        // Two consecutive same-direction sweeps: with a barrier the
        // second pays the whole pipeline fill again; with overlap it
        // starts as soon as the first sweep leaves processor 0. A
        // balanced stage (the stencil above) gains nothing — everyone
        // reaches the barrier together — so this is where fusion pays.
        let n = 128i64;
        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let region = Region::rect([2, 1], [n, n]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        prog.stmt(region, a, Expr::read_primed_at(a, [-1, 0]) + Expr::read(b));
        prog.stmt(region, b, Expr::read_primed_at(b, [-1, 0]) + Expr::read(a));
        let compiled = compile(&prog).unwrap();
        let params = t3e();
        let p = 8;
        let barrier = simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, false);
        let overlap = simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, true);
        assert!(
            overlap < barrier * 0.93,
            "expected a >7% win from chasing sweeps, got {overlap} vs {barrier}"
        );

        // Anti-aligned sweeps (forward then backward, like Tomcatv's
        // pair) cannot chase: the second starts where the first ends.
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        prog.stmt(region, a, Expr::read_primed_at(a, [-1, 0]) + Expr::read(b));
        let back = Region::rect([1, 1], [n - 1, n]);
        prog.stmt(back, b, Expr::read_primed_at(b, [1, 0]) + Expr::read(a));
        let compiled = compile(&prog).unwrap();
        let barrier = simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, false);
        let overlap = simulate_program_fused(&compiled, p, 0, &BlockPolicy::Model2, &params, true);
        let gain = barrier / overlap;
        assert!(
            gain < 1.25,
            "anti-aligned sweeps should gain much less; got {gain}"
        );
    }

    #[test]
    fn reductions_barrier_even_in_overlap_mode() {
        // stencil → reduce → wavefront: the reduce gates everything.
        let n = 64i64;
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        let s = prog.array("s", Region::rect([0, 0], [0, 0]));
        let inner = Region::rect([1, 1], [n, n]);
        prog.stmt(inner, b, Expr::read(a) * Expr::lit(2.0));
        prog.reduce(
            inner,
            ReduceOp::Max,
            Expr::read(b),
            s,
            Region::rect([0, 0], [0, 0]),
        );
        prog.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::read(b),
        );
        let compiled = compile(&prog).unwrap();
        let params = t3e();
        let overlap = simulate_program_fused(&compiled, 4, 0, &BlockPolicy::Model2, &params, true);
        let barrier = simulate_program_fused(&compiled, 4, 0, &BlockPolicy::Model2, &params, false);
        // The reduction's broadcast keeps them close: overlap can only
        // win within the stencil→reduce edge.
        assert!(overlap <= barrier + 1e-9);
    }
}
