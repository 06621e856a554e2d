//! Unified entry point across all wavefront runtimes.
//!
//! Historically each engine had its own free function with its own
//! argument list (one to simulate a plan, one to execute it
//! sequentially, one for threads, …). A [`Session`] packages the common
//! inputs once — program, compiled nest, processor count, block policy,
//! machine model, optional [`Collector`] — builds the plan, and
//! dispatches to any [`EngineKind`]:
//!
//! ```ignore
//! let outcome = Session::new(&program, &nest)
//!     .procs(8)
//!     .block(BlockPolicy::Model2)
//!     .machine(cray_t3e())
//!     .collector(&mut trace)
//!     .store(&mut store)
//!     .run(EngineKind::Threads)?;
//! ```
//!
//! The topology is one more knob on the same builder: `.procs(p)` (and
//! `.dist_dim(d)`) for a processor line, `.mesh([p1, p2])` (and
//! `.wave_dims([d1, d2])`) for a 2-D mesh; a mesh side of one processor
//! is no axis at all, so `.mesh([p, 1])` plans exactly as `.procs(p)`.
//! For heavy repeated traffic, [`crate::service::WavefrontService`]
//! wraps the same execution core in a long-lived job API with a
//! persistent worker pool and a compiled-plan cache; a `Session` is the
//! one-shot front door over that core.
//!
//! Model-units questions have one path too (`exec_sim`): a nest is
//! classified once — planned wavefront, fully parallel with a ghost
//! exchange, serialised chain, or reduction — and built as one DES
//! stage. [`Session::estimate`] is that stage simulated alone, on the
//! plan `run(EngineKind::Sim)` would run; [`ProgramSession::estimate`]
//! strings the stages into one barrier graph and keeps per-nest times,
//! and [`ProgramSession::estimate_fused`] is the same graph's makespan.
//!
//! Attach a [`crate::telemetry::TraceCollector`] to record the run, then
//! feed it to [`crate::telemetry::TraceAnalysis`] (critical path,
//! pipeline efficiency, latency histograms) or the exporters in
//! [`crate::telemetry::export`] (Perfetto / ASCII timeline).

use wavefront_core::exec::CompiledNest;
use wavefront_core::kernel::{FallbackReason, KernelMode, KernelTier, NestRunner};
use wavefront_core::program::{Program, Store};
use wavefront_machine::{cray_t3e, MachineParams};

use wavefront_core::exec::CompiledProgram;

use crate::error::PipelineError;
use crate::exec_sim::{simulate_nest, simulate_program, NestSim, ProgramSim};
use crate::plan::{JobTopology, WavefrontPlan};
use crate::schedule::BlockPolicy;
use crate::service::{ExecCore, NestSource};
use crate::telemetry::{Collector, EngineKind, NoopCollector, TimeUnit};

/// The engine-independent knobs shared by [`Session`] and
/// [`crate::service::JobSpec`]: block-size policy, machine cost
/// parameters, and the kernel-tier switch.
///
/// Collector and store attachments stay on the individual builders —
/// they are mutable borrows tied to one run, while a `SessionConfig` is
/// a plain cloneable value that can be reused across many jobs (and is
/// part of the service's cache fingerprint).
#[derive(Debug, Clone)]
pub(crate) struct SessionConfig {
    /// Block-size policy (Fixed / Model1 / Model2 / FullPortion / Probe /
    /// Adaptive).
    pub(crate) block: BlockPolicy,
    /// Machine cost parameters (block-size models and the simulator).
    pub(crate) machine: MachineParams,
    /// The kernel-tier ceiling executing engines lower nests under:
    /// lane-parallel kernels where legal (the default), at most the
    /// scalar tape, or the reference expression interpreter.
    pub(crate) kernel_mode: KernelMode,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            block: BlockPolicy::Model2,
            machine: cray_t3e(),
            kernel_mode: KernelMode::Lanes,
        }
    }
}

/// What one engine run produced, in engine-independent terms.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Which engine ran.
    pub engine: EngineKind,
    /// Completion time: model units for the simulator, wall-clock
    /// seconds for the executing engines (see `time_unit`).
    pub makespan: f64,
    /// Unit of `makespan`.
    pub time_unit: TimeUnit,
    /// Boundary messages actually sent (0 for the sequential engine,
    /// which shares one store).
    pub messages: usize,
    /// Block size of the plan that ran. The simulator runs the model's
    /// `b`; the executing engines re-fit a model's `b` on the tile
    /// dimension the lane kernel's strip lies along: never narrower than
    /// the strip, and, when the arrays' rows are page-strided, wide
    /// enough to pay for starting each row (`docs/TUNING.md`). A fixed
    /// `b` always runs as given.
    pub block: usize,
    /// Number of tiles along the orthogonal dimension.
    pub tiles: usize,
    /// Whether the plan pipelines (more than one tile).
    pub pipelined: bool,
    /// Wall-clock seconds spent preparing the run before the engine
    /// started: plan construction (or a cache lookup when the run went
    /// through a [`crate::service::WavefrontService`]) and kernel
    /// lowering. Warm cache hits show up as this dropping to ~0.
    pub prep_seconds: f64,
    /// Wall-clock seconds of the engine execution itself. For the
    /// executing engines this equals `makespan`; for the simulator it is
    /// the host time spent simulating (while `makespan` stays in model
    /// units).
    pub run_seconds: f64,
    /// The kernel tier the nest actually executed at, when the path
    /// that produced this outcome lowers one (the Seq and Threads
    /// engines). `None` for the simulator.
    pub kernel_tier: Option<KernelTier>,
    /// Why the nest sits below the requested kernel-tier ceiling, when
    /// it does (see [`NestRunner::fallback`]).
    pub kernel_fallback: Option<FallbackReason>,
}

/// Builder bundling everything needed to plan and run one nest on a
/// processor line or mesh. See the module docs for the idiom.
pub struct Session<'a, const R: usize> {
    program: &'a Program<R>,
    nest: &'a CompiledNest<R>,
    topology: JobTopology,
    cfg: SessionConfig,
    collector: Option<&'a mut dyn Collector>,
    store: Option<&'a mut Store<R>>,
}

/// The mesh spelling of [`Session`], kept for callers that name it; the
/// topology is a builder knob of the one session type.
pub type Session2D<'a, const R: usize> = Session<'a, R>;

impl<'a, const R: usize> Session<'a, R> {
    /// Start a session for `nest` of `program`. Defaults: 1 processor,
    /// automatic distribution dimension, [`BlockPolicy::Model2`],
    /// [`cray_t3e`] cost parameters, no telemetry, no store.
    pub fn new(program: &'a Program<R>, nest: &'a CompiledNest<R>) -> Self {
        Session {
            program,
            nest,
            topology: JobTopology::line(1),
            cfg: SessionConfig::default(),
            collector: None,
            store: None,
        }
    }

    /// Run on a line of `p` processors.
    pub fn procs(mut self, p: usize) -> Self {
        self.topology = match self.topology {
            JobTopology::Line { dist_dim, .. } => JobTopology::Line { procs: p, dist_dim },
            JobTopology::Mesh { .. } => JobTopology::line(p),
        };
        self
    }

    /// Force the line's distributed dimension instead of letting the
    /// planner choose.
    pub fn dist_dim(mut self, dim: usize) -> Self {
        let procs = match self.topology {
            JobTopology::Line { procs, .. } => procs,
            JobTopology::Mesh { .. } => 1,
        };
        self.topology = JobTopology::Line {
            procs,
            dist_dim: Some(dim),
        };
        self
    }

    /// Run on a processor mesh of shape `[rows, cols]`.
    pub fn mesh(mut self, mesh: [usize; 2]) -> Self {
        self.topology = match self.topology {
            JobTopology::Mesh { wave_dims, .. } => JobTopology::Mesh { mesh, wave_dims },
            JobTopology::Line { .. } => JobTopology::mesh(mesh),
        };
        self
    }

    /// Force the mesh's two distributed dimensions.
    pub fn wave_dims(mut self, dims: [usize; 2]) -> Self {
        let mesh = match self.topology {
            JobTopology::Mesh { mesh, .. } => mesh,
            JobTopology::Line { .. } => [1, 1],
        };
        self.topology = JobTopology::Mesh {
            mesh,
            wave_dims: Some(dims),
        };
        self
    }

    /// Block-size policy (Fixed / Model1 / Model2 / FullPortion / Probe /
    /// Adaptive).
    pub fn block(mut self, policy: BlockPolicy) -> Self {
        self.cfg.block = policy;
        self
    }

    /// Machine cost parameters (block-size models and the simulator).
    pub fn machine(mut self, params: MachineParams) -> Self {
        self.cfg.machine = params;
        self
    }

    /// Attach a telemetry collector; all engines report through it.
    pub fn collector(mut self, c: &'a mut dyn Collector) -> Self {
        self.collector = Some(c);
        self
    }

    /// Attach the data store the executing engines read and write.
    pub fn store(mut self, store: &'a mut Store<R>) -> Self {
        self.store = Some(store);
        self
    }

    /// Set the kernel-tier ceiling explicitly (see [`KernelMode`]).
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.cfg.kernel_mode = mode;
        self
    }

    /// Build the wavefront plan this session would run on the executing
    /// engines (Seq and Threads): the model's plan, re-fitted to the
    /// kernel's lane strip and to the program's arrays when their rows
    /// are page-strided (see [`RunOutcome::block`]).
    /// [`Session::estimate`] and `run(EngineKind::Sim)` price the
    /// model's plan, [`WavefrontPlan::build`].
    pub fn plan(&self) -> Result<WavefrontPlan<R>, PipelineError> {
        self.chunk_plan(1)
    }

    /// The plan a pipelined fused loop chunk of `sweeps` sweeps of this
    /// session's nest runs on the threaded engine, as a service loop
    /// runs it: a chunk pays its fill once, so on unit-stride lanes its
    /// width is fitted to its own sweeps (see [`LoopStats::block`]).
    ///
    /// [`LoopStats::block`]: crate::service::LoopStats::block
    pub fn chunk_plan(&self, sweeps: usize) -> Result<WavefrontPlan<R>, PipelineError> {
        let plan =
            WavefrontPlan::build(self.nest, self.topology, &self.cfg.block, &self.cfg.machine)?;
        let runner = NestRunner::with_mode(self.nest, self.cfg.kernel_mode);
        let shapes = self.program.shapes();
        Ok(plan.fit(&self.cfg.block, &self.cfg.machine, &runner, &shapes, sweeps).unwrap_or(plan))
    }

    /// Estimate this session's nest on the DES cost model without
    /// touching any data: the nest is planned on the session's own
    /// topology and that plan priced exactly as
    /// [`Session::run`]`(EngineKind::Sim)` prices it; a nest the planner
    /// refuses is priced as fully parallel or, when its dependences
    /// conflict along the distributed dimension, as a serialised chain.
    /// As in `run`, the planner chooses a line's distributed dimension
    /// unless [`Session::dist_dim`] forces one. Under the searching
    /// policies the plan is the fastest candidate, so this is the
    /// smallest of their `Fixed(b)` estimates.
    pub fn estimate(&self) -> NestSim {
        simulate_nest(self.nest, self.topology, &self.cfg.block, &self.cfg.machine)
    }

    /// Plan and run on one of the built-in engines, through the same
    /// execution core the [`crate::service::WavefrontService`] uses — a
    /// single-use, uncached instance of it.
    pub fn run(self, kind: EngineKind) -> Result<RunOutcome, PipelineError> {
        let Session {
            program,
            nest,
            topology,
            cfg,
            collector,
            store,
        } = self;
        let mut noop = NoopCollector;
        let collector: &mut dyn Collector = match collector {
            Some(c) => c,
            None => &mut noop,
        };
        let core = ExecCore::new(0);
        core.run(
            program,
            NestSource::Borrowed(nest),
            topology,
            &cfg,
            store,
            collector,
            kind,
        )
    }
}

/// Builder for whole-program cost estimation: every nest of a compiled
/// program simulated in order (with barriers), or fused into one task
/// graph via [`ProgramSession::estimate_fused`]. This is the public
/// face of the figure harnesses' "experimental" times.
pub struct ProgramSession<'a, const R: usize> {
    compiled: &'a CompiledProgram<R>,
    procs: usize,
    dist_dim: usize,
    cfg: SessionConfig,
}

impl<'a, const R: usize> ProgramSession<'a, R> {
    /// Start a program session (estimation reads only `compiled`).
    /// Defaults: 1 processor, distribution along dimension 0,
    /// [`BlockPolicy::Model2`], [`cray_t3e`].
    pub fn new(_program: &'a Program<R>, compiled: &'a CompiledProgram<R>) -> Self {
        ProgramSession {
            compiled,
            procs: 1,
            dist_dim: 0,
            cfg: SessionConfig::default(),
        }
    }

    /// Number of processors on the line.
    pub fn procs(mut self, p: usize) -> Self {
        self.procs = p;
        self
    }

    /// Distribution dimension (default 0).
    pub fn dist_dim(mut self, dim: usize) -> Self {
        self.dist_dim = dim;
        self
    }

    /// Block-size policy.
    pub fn block(mut self, policy: BlockPolicy) -> Self {
        self.cfg.block = policy;
        self
    }

    /// Machine cost parameters.
    pub fn machine(mut self, params: MachineParams) -> Self {
        self.cfg.machine = params;
        self
    }

    /// Simulate the program with a barrier between nests (the paper's
    /// per-statement communication structure), keeping each nest's time.
    pub fn estimate(&self) -> ProgramSim {
        self.simulate(false)
    }

    /// The makespan of the same task graph: with `overlap = false` it is
    /// [`ProgramSession::estimate`]'s total; with `overlap = true` a
    /// processor's next nest waits only on its own and neighbouring
    /// processors, letting aligned wavefronts chase each other.
    pub fn estimate_fused(&self, overlap: bool) -> f64 {
        self.simulate(overlap).total
    }

    fn simulate(&self, overlap: bool) -> ProgramSim {
        simulate_program(
            self.compiled,
            self.procs,
            self.dist_dim,
            &self.cfg.block,
            &self.cfg.machine,
            overlap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::tomcatv_nest;
    use crate::telemetry::TraceCollector;
    use wavefront_core::prelude::*;

    fn init(program: &Program<2>) -> Store<2> {
        let mut store = Store::new(program);
        for id in 1..store.len() {
            let bounds = store.get(id).bounds();
            *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                1.0 + 0.01 * ((q[0] * 17 + q[1] * 29 + id as i64 * 7) % 97) as f64
            });
        }
        store
    }

    #[test]
    fn all_three_engines_run_through_one_session() {
        let (program, nest) = tomcatv_nest(40);

        let sim = Session::new(&program, &nest)
            .procs(4)
            .block(BlockPolicy::Fixed(8))
            .run(EngineKind::Sim)
            .unwrap();
        assert_eq!(sim.engine, EngineKind::Sim);
        assert_eq!(sim.time_unit, TimeUnit::ModelUnits);
        assert!(sim.makespan > 0.0);
        assert!(sim.pipelined);

        let mut seq_store = init(&program);
        let seq = Session::new(&program, &nest)
            .procs(4)
            .block(BlockPolicy::Fixed(8))
            .store(&mut seq_store)
            .run(EngineKind::Seq)
            .unwrap();
        assert_eq!(seq.messages, 0);

        let mut thr_store = init(&program);
        let thr = Session::new(&program, &nest)
            .procs(4)
            .block(BlockPolicy::Fixed(8))
            .store(&mut thr_store)
            .run(EngineKind::Threads)
            .unwrap();
        assert!(thr.messages > 0);

        // Same decomposition everywhere…
        assert_eq!(sim.block, thr.block);
        assert_eq!(sim.tiles, thr.tiles);
        // …and the engines agree on the data.
        for id in 0..seq_store.len() {
            assert!(seq_store.get(id).region_eq(thr_store.get(id), nest.region));
        }
    }

    #[test]
    fn engines_that_execute_data_require_a_store() {
        let (program, nest) = tomcatv_nest(20);
        for kind in [EngineKind::Seq, EngineKind::Threads] {
            let err = Session::new(&program, &nest)
                .procs(2)
                .run(kind)
                .unwrap_err();
            assert_eq!(err, PipelineError::MissingStore);
        }
        // The simulator does not.
        assert!(Session::new(&program, &nest)
            .procs(2)
            .run(EngineKind::Sim)
            .is_ok());
    }

    #[test]
    fn plan_errors_surface_as_session_errors() {
        let (program, nest) = tomcatv_nest(20);
        // Dimension 7 is not a wavefront dimension of a rank-2 nest.
        let err = Session::new(&program, &nest)
            .procs(2)
            .dist_dim(7)
            .run(EngineKind::Sim)
            .unwrap_err();
        assert!(matches!(err, PipelineError::WaveNotDistributed { .. }));
    }

    #[test]
    fn session_feeds_an_attached_collector() {
        let (program, nest) = tomcatv_nest(32);
        let mut trace = TraceCollector::default();
        let mut store = init(&program);
        let out = Session::new(&program, &nest)
            .procs(3)
            .block(BlockPolicy::Fixed(8))
            .collector(&mut trace)
            .store(&mut store)
            .run(EngineKind::Threads)
            .unwrap();
        let report = trace.report();
        assert_eq!(report.messages, out.messages);
        assert_eq!(report.meta.predicted.messages, out.messages);
        assert_eq!(report.per_proc.len(), 3);
    }

    #[test]
    fn estimate_prices_the_plan_that_run_sim_runs() {
        let program = wavefront_kernels::sweep3d::build_octant(16, [1, 1, 1]).unwrap().program;
        let compiled = compile(&program).unwrap();
        let nest = compiled.nest(0);
        let policies = [
            BlockPolicy::Fixed(4),
            BlockPolicy::Model2,
            BlockPolicy::FullPortion,
            BlockPolicy::Probe(vec![1, 2, 4, 8]),
            BlockPolicy::Adaptive,
        ];
        for policy in policies {
            let session = |mesh: Option<[usize; 2]>| {
                let s = Session::new(&program, nest).block(policy.clone());
                match mesh {
                    Some(mesh) => s.mesh(mesh),
                    None => s.procs(4),
                }
            };
            for mesh in [None, Some([2, 1]), Some([2, 2]), Some([4, 4])] {
                let estimate = session(mesh).estimate();
                let run = session(mesh).run(EngineKind::Sim).unwrap();
                assert_eq!(estimate.time, run.makespan, "{mesh:?} under {policy:?}");
                assert_eq!(estimate.block, Some(run.block), "{mesh:?} under {policy:?}");
                assert_eq!(estimate.pipelined, run.pipelined);
            }
        }
    }

    /// A line left to the planner is priced on the dimension the planner
    /// picks, the one `run(Sim)` runs: here dimension 1, not 0.
    #[test]
    fn estimate_lets_the_planner_choose_the_line_dimension() {
        let mut program = Program::<2>::new();
        let a = program.array("a", Region::rect([0, 0], [701, 13]));
        program.stmt(
            Region::rect([1, 1], [700, 12]),
            a,
            Expr::lit(0.5) * Expr::read_primed_at(a, [0, -1]) + Expr::lit(1.0),
        );
        let compiled = compile(&program).unwrap();
        let nest = compiled.nest(0);
        let session = || Session::new(&program, nest).procs(2).machine(cray_t3e());
        assert_eq!(session().plan().unwrap().axes[0].dim, 1);
        let run = session().run(EngineKind::Sim).unwrap();
        assert_eq!(session().estimate().time, run.makespan);
    }

    /// `estimate` under each searching policy equals, bit for bit, the
    /// smallest `Fixed(b)` estimate over that policy's candidates.
    fn assert_search_prices_its_best_candidate<'a, const R: usize>(
        label: &str,
        session: impl Fn(BlockPolicy) -> Session<'a, R>,
    ) {
        let plan = session(BlockPolicy::Model2).plan().unwrap();
        let n_orth = plan.region.extent(plan.tile_dim.unwrap()) as usize;
        for policy in [BlockPolicy::Adaptive, BlockPolicy::Probe(vec![1, 2, 4, 8])] {
            let widths = policy.candidates(n_orth).unwrap();
            let fixed = |b: usize| session(BlockPolicy::Fixed(b)).estimate().time;
            let best = widths.iter().map(|&b| fixed(b)).fold(f64::INFINITY, f64::min);
            let searched = session(policy.clone()).estimate();
            assert_eq!(searched.time.to_bits(), best.to_bits(), "{label} under {policy:?}");
            assert_eq!(searched.time.to_bits(), fixed(searched.block.unwrap()).to_bits());
        }
    }

    #[test]
    fn a_search_prices_the_best_of_its_fixed_candidates() {
        let program = wavefront_kernels::sweep3d::build_octant(16, [1, 1, 1]).unwrap().program;
        let compiled = compile(&program).unwrap();
        let nest = compiled.nest(0);
        let on = |policy| Session::new(&program, nest).block(policy);
        assert_search_prices_its_best_candidate("line(4)", |policy| on(policy).procs(4));
        assert_search_prices_its_best_candidate("mesh 2x2", |policy| on(policy).mesh([2, 2]));

        // A wave tiled from high columns to low over 37 columns, so most
        // widths leave a short tile at the low end, which runs last.
        let mut desc = Program::<2>::new();
        let a = desc.array("a", Region::rect([0, 0], [16, 37]));
        desc.stmt(
            Region::rect([1, 0], [16, 36]),
            a,
            Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0),
        );
        let compiled = compile(&desc).unwrap();
        let nest = compiled.nest(0);
        let line = |policy| Session::new(&desc, nest).block(policy).procs(2).dist_dim(0);
        assert!(!line(BlockPolicy::Adaptive).plan().unwrap().tile_ascending);
        assert_search_prices_its_best_candidate("descending line(2)", line);
    }

    #[test]
    fn mesh_session_runs_and_matches_reference() {
        let n = 12;
        let (program, nest) = crate::plan::tests::sweep_nest(n);
        let mut reference = Store::new(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        let mut store = Store::new(&program);
        let out = Session::new(&program, &nest)
            .mesh([2, 2])
            .block(BlockPolicy::Fixed(4))
            .store(&mut store)
            .run(EngineKind::Threads)
            .unwrap();
        assert!(out.messages > 0);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }

        let sim = Session::new(&program, &nest)
            .mesh([2, 2])
            .block(BlockPolicy::Fixed(4))
            .run(EngineKind::Sim)
            .unwrap();
        assert_eq!(sim.messages, out.messages);
    }
}
