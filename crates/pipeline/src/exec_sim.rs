//! Simulated (cost-model) execution of plans and whole programs.
//!
//! There is one path from a nest to model units. A classifier
//! ([`nest_stage`]) asks the planner once and sorts the nest into a
//! *planned wavefront* (the plan's own task DAG, [`plan_dag`]: one sweep
//! of its [`TileGraph`], the graph the threaded engine waits on, over
//! the actual owned regions and tiles, so uneven distributions are
//! exact), a *fully
//! parallel* nest with one ghost exchange, or — when dependences cross
//! the distributed dimension both ways — a *serialised chain*; a
//! reduction is the fourth class. Each class has one stage builder, and
//! stages are strung into one program graph ([`simulate_program`]) with
//! or without barriers. A nest's time is its stage simulated alone; a
//! program's per-nest times and total are read off the graph. This is the
//! "experimental" time of the figure harnesses, as opposed to the
//! closed-form Model1 / Model2 predictions.

use wavefront_core::exec::{CompiledNest, CompiledOp, CompiledProgram};
use wavefront_core::program::Reduce;
use wavefront_core::region::Region;
use wavefront_machine::{
    simulate, simulate_observed, CommMode, Dep, Distribution, MachineParams, ProcGrid, SimObserver,
    SimResult, SimTask,
};

use crate::error::PipelineError;
use crate::plan::{nest_work, read_margins, JobTopology, TileGraph, WavefrontPlan};
use crate::schedule::BlockPolicy;
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, RunMeta, TimeUnit, WaitEvent,
};

/// Build the task DAG of a plan run for `sweeps` sweeps, from its
/// [`TileGraph`]: task `(s, i, j)` is active cell `i` (wave order)
/// computing tile `j` of its portion in sweep `s`, listed sweep-major.
/// It depends on its own previous task, on tile `j` of sweep `s` of the
/// upstream cell of each of its in-edges, each a boundary message
/// carrying exactly the elements the threaded engine's post stands for
/// ([`WavefrontPlan::msg_elems`] of the sender's owned region), and,
/// from sweep `lag` on, on tile `reach[j]` of sweep `s − lag` of each
/// of its readers: the drain ([`TileGraph::lag`]), an ordering edge
/// with no message. One sweep is the plan's one-shot DAG.
pub(crate) fn plan_dag<const R: usize>(
    plan: &WavefrontPlan<R>,
    sweeps: usize,
    lag: usize,
) -> Vec<SimTask> {
    let graph = TileGraph::new(plan, sweeps, lag);
    let (nc, nt) = (graph.cells.len(), plan.tiles.len());
    let at = |s: usize, i: usize, j: usize| (s * nc + i) * nt + j;
    let mut tasks = Vec::with_capacity(sweeps * nc * nt);
    for s in 0..sweeps {
        for (i, &rank) in graph.cells.iter().enumerate() {
            for (j, tile) in plan.tiles.iter().enumerate() {
                let prev = match (s, j) {
                    (0, 0) => None,
                    (_, 0) => Some(at(s - 1, i, nt - 1)),
                    _ => Some(at(s, i, j - 1)),
                };
                let order = prev.map(|task| Dep { task, elems: 0 });
                let flow = graph.ins[i].iter().map(|up| Dep {
                    task: at(s, up.cell, j),
                    elems: plan.msg_elems(graph.owned[up.cell], tile, up.axis),
                });
                let drain = graph.readers[i].iter().filter(|_| s >= lag).map(|&r| Dep {
                    task: at(s - lag, r, graph.reach[j]),
                    elems: 0,
                });
                // The task runs on the actual grid rank (not the wave-order
                // position), so processor identities line up across stages
                // when plans with different wave directions are fused.
                tasks.push(SimTask {
                    proc: rank,
                    cost: graph.owned[i].intersect(tile).len() as f64 * plan.work,
                    deps: order.into_iter().chain(flow).chain(drain).collect(),
                });
            }
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
        self.collector.block(BlockEvent {
            proc,
            tile: idx % self.nt,
            start,
            end: finish,
            elems: self.elems[idx],
        });
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
    let tasks = plan_dag(plan, 1, 1);
    let procs = plan.procs();
    if !collector.enabled() {
        return simulate(&tasks, params, procs);
    }
    let nt = plan.tiles.len();
    let active = plan.active_cells();
    let elems = active
        .iter()
        .flat_map(|&rank| plan.tiles.iter().map(move |t| plan.dist.owned(rank).intersect(t).len()))
        .collect();
    collector.begin(&RunMeta {
        engine: EngineKind::Sim,
        procs,
        active,
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

/// Outcome of simulating one nest of a program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NestSim {
    /// Simulated completion time: the nest's stage simulated alone, or,
    /// inside a [`ProgramSim`], from the previous stage's last finish to
    /// this one's.
    pub time: f64,
    /// Whether the nest ran as a pipelined wavefront.
    pub pipelined: bool,
    /// Resolved block size, for wavefront nests.
    pub block: Option<usize>,
    /// Whether the nest carried a wavefront along the distributed
    /// dimension at all.
    pub wavefront: bool,
}

/// One classified nest or reduction as DES tasks with stage-local
/// indices, and what the classifier found; `sim.time` is filled by
/// whoever simulates it.
struct Stage {
    tasks: Vec<SimTask>,
    procs: usize,
    sim: NestSim,
}

/// Elements of `r`'s face perpendicular to dimension `k`.
fn face<const R: usize>(r: Region<R>, k: usize) -> usize {
    r.len()
        .checked_div(r.extent(k).max(0) as usize)
        .unwrap_or(0)
}

/// A task of `cost` on `proc` after `deps`.
fn task(proc: usize, cost: f64, deps: Vec<Dep>) -> SimTask {
    SimTask { proc, cost, deps }
}

/// The one classifier: plan `nest` on `topology` and build its stage.
///
/// A nest the planner accepts is its plan's task DAG. The planner's
/// shape errors select the two unplanned classes over the block
/// distribution the topology names (a line's dimension defaults to 0, a
/// mesh's to 0 and 1): a wavefront along a distributed dimension that
/// cannot be decomposed serialises processor by processor, anything else
/// is fully parallel.
fn nest_stage<const R: usize>(
    nest: &CompiledNest<R>,
    topology: JobTopology,
    policy: &BlockPolicy,
    params: &MachineParams,
) -> Stage {
    match WavefrontPlan::build(nest, topology, policy, params) {
        Ok(plan) => Stage {
            tasks: plan_dag(&plan, 1, 1),
            procs: plan.procs(),
            sim: NestSim {
                pipelined: plan.is_pipelined(),
                block: plan.tile_dim.map(|_| plan.block),
                wavefront: true,
                ..NestSim::default()
            },
        },
        Err(
            PipelineError::WaveNotDistributed { .. }
            | PipelineError::NoWavefrontDim
            | PipelineError::ConflictingDependences { .. },
        ) => {
            let mut grid = [1usize; R];
            match topology {
                JobTopology::Line { procs, dist_dim } => grid[dist_dim.unwrap_or(0)] = procs,
                JobTopology::Mesh { mesh, wave_dims } => {
                    let dims = wave_dims.unwrap_or([0, 1]);
                    (grid[dims[0]], grid[dims[1]]) = (mesh[0], mesh[1]);
                }
            }
            let dist = Distribution::block(nest.region, ProcGrid::new(grid));
            let wave = (0..R).find(|k| grid[*k] > 1 && nest.structure.wavefront_dims.contains(k));
            Stage {
                tasks: match wave {
                    Some(k) => chain_stage(nest, &dist, k),
                    None => parallel_stage(nest, &dist),
                },
                procs: dist.grid().len(),
                sim: NestSim {
                    wavefront: wave.is_some(),
                    ..NestSim::default()
                },
            }
        }
        // Plan construction only raises the shape errors above; the
        // session-level variants cannot occur here.
        Err(e) => unreachable!("plan construction returned non-plan error: {e}"),
    }
}

/// A fully parallel nest: every processor computes its owned portion
/// after one ghost message per neighbour along each distributed
/// dimension some read shift crosses. A message carries, per array, a
/// slab of the sender's face as thick as that array's largest shift —
/// the rule of [`WavefrontPlan::msg_elems`] and the threaded engine.
/// Tasks: per processor a zero-cost "send", then the compute task
/// depending on its neighbours' sends.
fn parallel_stage<const R: usize>(nest: &CompiledNest<R>, dist: &Distribution<R>) -> Vec<SimTask> {
    let grid = dist.grid();
    let work = nest_work(nest);
    let margins = read_margins(nest);
    let thickness: [usize; R] =
        std::array::from_fn(|k| margins.iter().map(|m| m[k] as usize).sum());
    let compute = |proc| {
        let mut deps = Vec::new();
        for k in (0..R).filter(|&k| thickness[k] > 0) {
            for step in [-1, 1] {
                if let Some(from) = grid.neighbor(proc, k, step) {
                    deps.push(Dep {
                        task: from,
                        elems: thickness[k] * face(dist.owned(from), k),
                    });
                }
            }
        }
        task(proc, dist.owned(proc).len() as f64 * work, deps)
    };
    let sends = grid.ranks().map(|proc| task(proc, 0.0, vec![]));
    sends.chain(grid.ranks().map(compute)).collect()
}

/// A wavefront along dimension `k` whose dependences cross it in both
/// directions: no pipelined decomposition exists, so the sweep
/// serialises processor by processor — the naive chain, each processor
/// handing the region's whole boundary to the next.
fn chain_stage<const R: usize>(
    nest: &CompiledNest<R>,
    dist: &Distribution<R>,
    k: usize,
) -> Vec<SimTask> {
    let work = nest_work(nest);
    let link = |from| Dep {
        task: from,
        elems: face(nest.region, k),
    };
    let portion = |proc: usize| {
        let deps = proc.checked_sub(1).map(link).into_iter().collect();
        task(proc, dist.owned(proc).len() as f64 * work, deps)
    };
    dist.grid().ranks().map(portion).collect()
}

/// A reduction: the fold is perfectly parallel, then the partial results
/// combine up a binary tree and the scalar broadcasts back down —
/// `2·ceil(log2 p)` single-element messages on the critical path,
/// modelled as extra cost on processor 0. The result is global, so every
/// processor ends the stage on a zero-cost task waiting for that combine:
/// a reduction is a barrier even when stages overlap.
fn reduce_stage<const R: usize>(red: &Reduce<R>, p: usize, params: &MachineParams) -> Stage {
    let work = (red.src.flop_count() + 1) as f64;
    let fold = (red.region.len() as f64 / p as f64).ceil() * work;
    let hops = (p.max(1) as f64).log2().ceil();
    let combine = 2.0 * hops * params.msg_cost(1);
    let folds =
        (0..p).map(|proc| task(proc, if proc == 0 { fold + combine } else { fold }, vec![]));
    let waits = (0..p).map(|proc| task(proc, 0.0, vec![Dep { task: 0, elems: 0 }]));
    Stage {
        tasks: folds.chain(waits).collect(),
        procs: p,
        sim: NestSim::default(),
    }
}

/// Simulate one nest alone on `topology`: its stage's makespan.
pub(crate) fn simulate_nest<const R: usize>(
    nest: &CompiledNest<R>,
    topology: JobTopology,
    policy: &BlockPolicy,
    params: &MachineParams,
) -> NestSim {
    let mut stage = nest_stage(nest, topology, policy, params);
    stage.sim.time = simulate(&stage.tasks, params, stage.procs).makespan;
    stage.sim
}

/// Simulation of a whole compiled program on a processor line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSim {
    /// Per-nest outcomes, program order.
    pub nests: Vec<NestSim>,
    /// Total simulated time: the program graph's makespan, which is the
    /// sum of the nest times.
    pub total: f64,
}

/// Append `stage` to the program graph `tasks`. `last` holds, per
/// processor, the last task of the previous operation: with
/// `overlap = false` every task of the stage waits for all of them (a
/// barrier — the paper's per-statement communication structure), with
/// `overlap = true` only for those of its own and neighbouring
/// processors — sound for block distributions with nearest-neighbour
/// ghost margins — letting, e.g., a wavefront start on the rows its
/// processor already finished in the previous stencil phase.
fn push_stage(
    tasks: &mut Vec<SimTask>,
    stage: Vec<SimTask>,
    last: &mut [Option<usize>],
    overlap: bool,
) {
    let base = tasks.len();
    let p = last.len();
    let prev = last.to_vec();
    for (i, mut t) in stage.into_iter().enumerate() {
        // Rebase intra-stage dependences and add the inter-stage gating
        // edges (data dependences, no message cost: the arrays already
        // live where they are used).
        for d in &mut t.deps {
            d.task += base;
        }
        let gate = if overlap {
            t.proc.saturating_sub(1)..=(t.proc + 1).min(p - 1)
        } else {
            0..=p - 1
        };
        let gates = prev[gate].iter().flatten();
        t.deps.extend(gates.map(|&task| Dep { task, elems: 0 }));
        last[t.proc] = Some(base + i);
        tasks.push(t);
    }
}

/// Simulate a whole program as ONE task graph on a line of `p`
/// processors along `dist_dim`: every nest and reduction classified and
/// built as a stage, strung together by [`push_stage`]. Nest `k`'s time
/// runs from stage `k − 1`'s last finish to its own, so the times sum to
/// the makespan; under barriers that is each stage's time alone.
pub(crate) fn simulate_program<const R: usize>(
    compiled: &CompiledProgram<R>,
    p: usize,
    dist_dim: usize,
    policy: &BlockPolicy,
    params: &MachineParams,
    overlap: bool,
) -> ProgramSim {
    let line = JobTopology::Line {
        procs: p,
        dist_dim: Some(dist_dim),
    };
    let mut tasks: Vec<SimTask> = Vec::new();
    let mut last: Vec<Option<usize>> = vec![None; p];
    let mut nests = Vec::new();
    let mut ends = Vec::new();
    let stages = compiled.ops.iter().flat_map(|op| match op {
        CompiledOp::Block(b) => b
            .nests
            .iter()
            .map(|nest| nest_stage(nest, line, policy, params))
            .collect(),
        CompiledOp::Reduce(r) => vec![reduce_stage(r, p, params)],
    });
    for stage in stages {
        push_stage(&mut tasks, stage.tasks, &mut last, overlap);
        nests.push(stage.sim);
        ends.push(tasks.len());
    }
    let finish = simulate(&tasks, params, p).finish;
    let (mut start, mut clock) = (0, 0.0f64);
    for (sim, &end) in nests.iter_mut().zip(&ends) {
        let done = finish[start..end].iter().copied().fold(clock, f64::max);
        sim.time = done - clock;
        (start, clock) = (end, done);
    }
    ProgramSim {
        nests,
        total: clock,
    }
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

    /// A line of `p` processors along dimension 0, the paper's set-up.
    fn line(p: usize) -> JobTopology {
        JobTopology::Line {
            procs: p,
            dist_dim: Some(0),
        }
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
            let sim = simulate(&plan_dag(&plan, 1, 1), &params, p).makespan;
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
    fn a_chunk_pays_its_fill_once() {
        // Two cells of four rows each, a wave down the rows: cell 1 reads
        // cell 0's last row, so from the second sweep on cell 0 may not
        // overwrite a tile before cell 1 has read it. On a free machine,
        // one tile per sweep serialises the chunk to 2k tile times; two
        // tiles overlap, and the chunk pays one half-tile fill.
        let mut prog = Program::<2>::new();
        let a = prog.array("a", Region::rect([0, 1], [8, 8]));
        prog.stmt(
            Region::rect([1, 1], [8, 8]),
            a,
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + Expr::lit(1.0),
        );
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        let free = MachineParams::custom("free", 0.0, 0.0);
        let tile = |b: usize| 4.0 * b as f64 * nest_work(nest);
        for sweeps in [1usize, 2, 5] {
            let k = sweeps as f64;
            for (b, want) in [(8, 2.0 * k * tile(8)), (4, (2.0 * k + 1.0) * tile(4))] {
                let policy = BlockPolicy::Fixed(b);
                let plan = WavefrontPlan::build(nest, line(2), &policy, &free).unwrap();
                let dag = plan_dag(&plan, sweeps, 1);
                assert_eq!(dag.len(), sweeps * 2 * plan.tiles.len());
                let one = plan_dag(&plan, 1, 1);
                assert_eq!(dag[..2 * plan.tiles.len()], one, "sweep 0 is one sweep");
                let makespan = simulate(&dag, &free, 2).makespan;
                assert_eq!(makespan, want, "b = {b}, {sweeps} sweeps");
            }
        }
    }

    /// A drain edge at the run's lag points at the same reader's task
    /// `lag − 1` sweeps earlier than one at lag 1, so the DES finishes
    /// no later: over every plan of the legality sweep and every
    /// rotation it fuses with, and strictly earlier on some.
    #[test]
    fn a_longer_drain_lag_never_slows_a_plan() {
        use crate::exec_threads::{drain_lag, legality_plans, rotation_fusible, SWEEP_ROTATIONS};
        fn check<const R: usize>(seeds: u64, n: i64, faster: &mut usize) {
            let params = t3e();
            legality_plans::<R>(seeds, n, |c, plan, label| {
                for rotate in SWEEP_ROTATIONS.iter().filter(|r| rotation_fusible(&c.nest, r)) {
                    let lag = drain_lag(&c.nest, rotate);
                    let makespan = |at| {
                        let dag = plan_dag(plan, lag + 2, at);
                        simulate(&dag, &params, plan.procs()).makespan
                    };
                    let (at_lag, at_one) = (makespan(lag), makespan(1));
                    assert!(at_lag <= at_one, "{label}, rotate {rotate:?}: {at_lag} > {at_one}");
                    *faster += usize::from(at_lag < at_one);
                }
            });
        }
        let mut faster = 0;
        check::<2>(2500, 5, &mut faster);
        check::<3>(1500, 3, &mut faster);
        assert!(faster >= 1000, "plans the lag sped up: {faster}");
    }

    #[test]
    fn pipelined_beats_naive_on_tomcatv() {
        let (_p, nest) = tomcatv_nest(258);
        let params = t3e();
        let p = 8;
        let pipe = simulate_nest(&nest, line(p), &BlockPolicy::Model2, &params);
        let naive = simulate_nest(&nest, line(p), &BlockPolicy::FullPortion, &params);
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
            let pipe = simulate_nest(&nest, line(p), &BlockPolicy::Model2, &cheap);
            let serial = simulate_nest(&nest, line(1), &BlockPolicy::FullPortion, &cheap);
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
        let time = |p| simulate_nest(nest, line(p), &BlockPolicy::Model2, &params).time;
        let (t1, t4) = (time(1), time(4));
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
        let t_free = simulate_nest(nest, line(p), &BlockPolicy::Model2, &free).time;
        let t_dear = simulate_nest(nest, line(p), &BlockPolicy::Model2, &dear).time;
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
        let sim = simulate_nest(compiled.nest(0), line(4), &BlockPolicy::Model2, &t3e());
        assert!(!sim.wavefront);
        assert!(!sim.pipelined);
        assert!(sim.block.is_none());

        // Dependences crossing the distributed dimension both ways: the
        // planner refuses, and the nest costs the naive chain — all the
        // work in series plus p - 1 whole-boundary messages.
        let mut prog = Program::<2>::new();
        let a = prog.array("a", Region::rect([0, 0], [66, 66]));
        prog.stmt(
            Region::rect([1, 1], [65, 65]),
            a,
            Expr::read_primed_at(a, [-1, 0])
                + Expr::read_primed_at(a, [0, -1])
                + Expr::read_primed_at(a, [-1, 1]),
        );
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        let params = t3e();
        for p in [1usize, 4, 16] {
            let across = JobTopology::Line {
                procs: p,
                dist_dim: Some(1),
            };
            let sim = simulate_nest(nest, across, &BlockPolicy::Model2, &params);
            let chain = (65 * 65) as f64 * nest_work(nest) + (p - 1) as f64 * params.msg_cost(65);
            assert!(
                (sim.time - chain).abs() <= 1e-9 * chain,
                "p={p}: {} vs {chain}",
                sim.time
            );
            assert_eq!(
                (sim.wavefront, sim.pipelined, sim.block),
                (p > 1, false, None)
            );
        }
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
        let sim = simulate_program(&compiled, 4, 0, &BlockPolicy::Model2, &t3e(), false);
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
            let plan =
                WavefrontPlan::build(&nest, JobTopology::mesh(mesh), policy, &params).unwrap();
            simulate(&plan_dag(&plan, 1, 1), &params, plan.procs()).makespan
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

    fn fused(
        compiled: &CompiledProgram<2>,
        p: usize,
        params: &MachineParams,
        overlap: bool,
    ) -> f64 {
        simulate_program(compiled, p, 0, &BlockPolicy::Model2, params, overlap).total
    }

    /// The scan no pipelined decomposition exists for along dimension
    /// `d`: its primed reads cross `d` in both directions.
    fn conflicting_scan(n: i64, d: usize) -> Program<2> {
        let mut prog = Program::<2>::new();
        let a = prog.array("a", Region::rect([0, 0], [n + 1, n + 1]));
        push_op(
            &mut prog,
            [a, a, a],
            Region::rect([1, 1], [n, n]),
            d,
            4,
            [1, 1],
        );
        prog
    }

    /// Append operation `kind` to `prog`, written relative to the
    /// distributed dimension `d`: `sh(x, y)` shifts by `x` along `d` and
    /// by `y` along the other dimension.
    fn push_op(
        prog: &mut Program<2>,
        [a, b, c]: [ArrayId; 3],
        region: Region<2>,
        d: usize,
        kind: usize,
        [t1, t2]: [i64; 2],
    ) {
        let sh = |x: i64, y: i64| if d == 0 { [x, y] } else { [y, x] };
        match kind {
            // One- and two-array stencils, ghost thickness t1 (and t2).
            0 => prog.stmt(
                region,
                b,
                (Expr::read_at(a, sh(-t1, 0)) + Expr::read_at(a, sh(t1, 0))) * Expr::lit(0.5),
            ),
            1 => prog.stmt(
                region,
                c,
                Expr::read_at(a, sh(-t1, 0)) + Expr::read_at(b, sh(t2, 0)),
            ),
            // A wavefront along the distributed dimension, one across it.
            2 => prog.stmt(
                region,
                a,
                Expr::read_primed_at(a, sh(-1, 0)) + Expr::read(b),
            ),
            3 => prog.stmt(
                region,
                a,
                Expr::read_primed_at(a, sh(0, -1)) + Expr::read(b),
            ),
            4 => prog.stmt(
                region,
                a,
                Expr::read_primed_at(a, sh(0, -1))
                    + Expr::read_primed_at(a, sh(-1, 0))
                    + Expr::read_primed_at(a, sh(1, -1)),
            ),
            _ => prog.reduce(
                region,
                ReduceOp::Max,
                Expr::read(b),
                c,
                Region::rect([0, 0], [0, 0]),
            ),
        };
    }

    #[test]
    fn barrier_mode_matches_summed_simulation() {
        use crate::session::ProgramSession;
        use wavefront_kernels::rng::SplitMix64;

        // (program, distributed dimension, processors): the two examples
        // the forked simulators disagreed on, then seeded programs of
        // 2-5 operations drawn from every class.
        let mut cases = vec![
            (stencil_then_wave(64), 0, 4),
            (conflicting_scan(65, 1), 1, 4),
            (conflicting_scan(65, 1), 1, 16),
            (wavefront_kernels::simple::build(65).unwrap().program, 0, 16),
        ];
        let mut rng = SplitMix64::new(0x24);
        for _ in 0..96 {
            let n = 12 + rng.gen_range(30) as i64;
            let d = rng.gen_range(2);
            let mut prog = Program::<2>::new();
            let bounds = Region::rect([0, 0], [n + 1, n + 1]);
            let arrays = ["a", "b", "c"].map(|name| prog.array(name, bounds));
            for _ in 0..2 + rng.gen_range(4) {
                let t = [1 + rng.gen_range(2) as i64, 1 + rng.gen_range(2) as i64];
                let inner = Region::rect([2, 2], [n - 1, n - 1]);
                push_op(&mut prog, arrays, inner, d, rng.gen_range(6), t);
            }
            cases.push((prog, d, [1, 2, 4, 7][rng.gen_range(4)]));
        }
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs();
        for params in [t3e(), wavefront_machine::sgi_power_challenge()] {
            for (k, (prog, d, p)) in cases.iter().enumerate() {
                let compiled = compile(prog).unwrap();
                let session = ProgramSession::new(prog, &compiled)
                    .procs(*p)
                    .dist_dim(*d)
                    .machine(params);
                let sim = session.estimate();
                let barrier = session.estimate_fused(false);
                let overlap = session.estimate_fused(true);
                assert!(
                    close(sim.total, barrier),
                    "case {k}: {} vs {barrier}",
                    sim.total
                );
                assert!(
                    overlap <= barrier * (1.0 + 1e-12),
                    "case {k}: {overlap} > {barrier}"
                );
                let summed: f64 = sim.nests.iter().map(|nest| nest.time).sum();
                assert!(
                    close(summed, sim.total),
                    "case {k}: {summed} vs {}",
                    sim.total
                );
                // Under barriers a nest's time in the program is its
                // stage simulated alone.
                let line = JobTopology::Line {
                    procs: *p,
                    dist_dim: Some(*d),
                };
                let mut times = sim.nests.iter().map(|nest| nest.time);
                for op in &compiled.ops {
                    let CompiledOp::Block(block) = op else {
                        times.next();
                        continue;
                    };
                    for nest in &block.nests {
                        let alone = simulate_nest(nest, line, &BlockPolicy::Model2, &params);
                        let inside = times.next().unwrap();
                        assert!(close(inside, alone.time), "case {k}: {inside} vs {alone:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_never_hurts() {
        let prog = stencil_then_wave(128);
        let compiled = compile(&prog).unwrap();
        let params = t3e();
        for p in [2usize, 4, 8] {
            let barrier = fused(&compiled, p, &params, false);
            let overlap = fused(&compiled, p, &params, true);
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
        let barrier = fused(&compiled, p, &params, false);
        let overlap = fused(&compiled, p, &params, true);
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
        let barrier = fused(&compiled, p, &params, false);
        let overlap = fused(&compiled, p, &params, true);
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
        let overlap = fused(&compiled, 4, &params, true);
        let barrier = fused(&compiled, 4, &params, false);
        // The reduction's broadcast keeps them close: overlap can only
        // win within the stencil→reduce edge.
        assert!(overlap <= barrier + 1e-9);
    }
}
