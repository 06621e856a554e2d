//! Real multithreaded execution of a plan on shared memory.
//!
//! Each active processor of the plan becomes a task on the persistent
//! worker pool, and the tasks run their tiles **in place on the caller's
//! store**: the regions the cells own are disjoint, and the boundary
//! rows a cell reads from its upstream neighbour are read where they
//! lie. What crosses a link is not data but a number — every cell owns a
//! [`crate::link::Progress`] counter of tiles completed; a downstream
//! cell waits until its upstream neighbours have completed the tile it
//! is about to start (the *flow* wait of the paper's pipelined
//! implementation, Figure 4(b)), and when sweeps repeat an upstream cell
//! about to overwrite a tile in sweep `s` waits until every cell that
//! reads its rows has finished reading them in sweep `s − L` (the
//! *drain* wait), where `L` ([`TileGraph::lag`], [`drain_lag`]) is how
//! many rotation steps a written buffer takes to come back into a
//! written array. Both are the edges of the plan's [`TileGraph`], read
//! once at launch: the DES and the traffic prediction read the same
//! graph. One post per tile stands for the boundary message on each
//! out-edge, and is recorded as that message, so observed traffic
//! equals [`WavefrontPlan::predicted_traffic`] exactly. With
//! [`crate::schedule::BlockPolicy::FullPortion`] the same code
//! degenerates to the naive schedule of Figure 4(a).
//!
//! This is the only exchange there is, on every kernel tier — the
//! interpreter runs on the same cell views the compiled kernels do. It
//! is sound for the plans [`in_place_legal`] accepts, which are all the
//! plans [`WavefrontPlan::build`] makes; [`execute_threaded`] asserts
//! the predicate before it dispatches anything.
//!
//! One worker loop ([`run_cell`]) has one wait site and one post site; a
//! one-shot run is its one-sweep case.
//!
//! The sequential engine is this engine on one thread: under
//! [`EngineKind::Seq`] the calling thread runs every active cell's task
//! itself, in wave order. That order already satisfies every wait, so
//! the cells have no links: they wait for nothing, and no post stands
//! for a message.
//!
//! A run is split into launch and completion. [`launch_threaded`] takes
//! the store into the run, dispatches the cells and returns; the thread
//! that ends the run's last cell — a cell that panicked counts as ended
//! — hands the store and the cells' results to the run's completion,
//! and [`Ended::finish`] turns them into the report. [`execute_threaded`]
//! is launch plus a wait for the completion: the joined form
//! `Session::run` uses. The service launches every threaded job, and
//! overlaps plain ones: one job's drain runs under the next one's fill
//! (see [`crate::service::pool`] for why that cannot deadlock).
//!
//! This runtime plays the role of the paper's hand-pipelined Fortran+MPI
//! codes: genuinely parallel execution, used by the benchmarks to
//! demonstrate real wall-clock pipelining speedup.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use wavefront_core::array::{DenseArray, Layout, SharedCells};
use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::kernel::{BoundKernel, NestRunner};
use wavefront_core::program::Store;
use wavefront_core::region::Region;

use crate::link::Progress;
use crate::plan::{TileGraph, WavefrontPlan};
use crate::service::pool::WorkerPool;
use crate::session::SessionConfig;
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, Prediction, RunMeta, TimeUnit, WaitEvent,
};

/// One worker-side telemetry record, stamped in seconds since the run's
/// epoch. Workers buffer these locally (only when a collector is
/// enabled) and the main thread replays them after the join, so
/// instrumentation never adds synchronization — and a disabled collector
/// adds no work at all.
enum WorkerEv {
    Block {
        tile: usize,
        start: f64,
        end: f64,
        elems: usize,
    },
    /// A boundary became available downstream along `axis`: the post
    /// that stands for the message.
    Sent {
        axis: usize,
        tile: usize,
        elems: usize,
        at: f64,
    },
    /// The matching arrival: the flow wait returned.
    Recv {
        axis: usize,
        wait_start: f64,
        at: f64,
    },
    /// A drain wait: the cell held back until the readers of its rows
    /// were done with them in sweep `s − L`. A stall with no message to
    /// it.
    Held { start: f64, end: f64 },
}

/// Outcome of a threaded execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThreadReport {
    /// Wall-clock time from dispatch to the last cell's result.
    pub(crate) elapsed: Duration,
    /// Number of boundary messages exchanged: posts, counted once per
    /// downstream link as the plan predicts them.
    pub(crate) messages: usize,
    /// `spans[cell][iteration] = (start, end)`: per-cell busy spans in
    /// seconds since the run's epoch, from which the loop runner derives
    /// the cross-iteration overlap.
    pub(crate) spans: Vec<Vec<(f64, f64)>>,
}

/// Facts about a nest every worker needs, computed once on the main
/// thread before dispatch instead of identically per worker: the
/// written array set, the per-nest execution strategy (compiled tile
/// kernel or interpreter fallback), and the plan the executing engines
/// run with it. The service caches this alongside the model's plan, so
/// warm jobs skip the kernel lowering entirely.
pub(crate) struct NestPrep<const R: usize> {
    written: Vec<ArrayId>,
    pub(crate) runner: NestRunner<R>,
    /// `plan`, fitted to the runner's lane strip and the arrays' rows
    /// ([`WavefrontPlan::fit`]).
    pub(crate) plan: Arc<WavefrontPlan<R>>,
}

/// Lower `nest` under `cfg`'s kernel mode for `plan`, which `cfg`'s
/// policy built, and fit the plan to the lowered kernel over arrays of
/// the given bounds and layouts (indexed by [`ArrayId`]).
pub(crate) fn prepare<const R: usize>(
    nest: &CompiledNest<R>,
    plan: &Arc<WavefrontPlan<R>>,
    cfg: &SessionConfig,
    shapes: &[(Region<R>, Layout)],
) -> NestPrep<R> {
    let mut written: Vec<ArrayId> = nest.stmts.iter().map(|s| s.lhs).collect();
    written.sort_unstable();
    written.dedup();
    let runner = NestRunner::with_mode(nest, cfg.kernel_mode);
    let plan = match plan.fit(&cfg.block, &cfg.machine, &runner, shapes, 1, 1) {
        Some(fitted) => Arc::new(fitted),
        None => Arc::clone(plan),
    };
    NestPrep { written, runner, plan }
}

impl<const R: usize> NestPrep<R> {
    /// The preparation a pipelined chunk of `sweeps` fused sweeps at
    /// drain lag `lag` ([`drain_lag`]) runs: this one-sweep
    /// preparation's kernel with `model`, the plan it was fitted from,
    /// fitted for the chunk ([`WavefrontPlan::fit`]) — or this
    /// preparation itself when the chunk's plan is the sweep's.
    pub(crate) fn chunk(
        self: &Arc<Self>,
        model: &WavefrontPlan<R>,
        cfg: &SessionConfig,
        shapes: &[(Region<R>, Layout)],
        sweeps: usize,
        lag: usize,
    ) -> Arc<Self> {
        match model.fit(&cfg.block, &cfg.machine, &self.runner, shapes, sweeps, lag) {
            Some(plan) if plan != *self.plan => Arc::new(NestPrep {
                written: self.written.clone(),
                runner: self.runner.clone(),
                plan: Arc::new(plan),
            }),
            _ => Arc::clone(self),
        }
    }
}

/// Extend `written` (sorted, unique) to every array a rotation can move
/// a written buffer into: whole rotation cycles, not just direct
/// partners.
fn close_under_rotation(written: &mut Vec<ArrayId>, rotate: &[(ArrayId, ArrayId)]) {
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in rotate {
            for (x, y) in [(a, b), (b, a)] {
                if written.contains(&x) && !written.contains(&y) {
                    written.push(y);
                    changed = true;
                }
            }
        }
    }
    written.sort_unstable();
}

/// Whether a loop body (with its rotation, possibly empty) can run
/// inside the fused multi-iteration engine invocation.
///
/// *Primed* reads are never a hazard: every sweep's own flow waits
/// deliver the boundary they name. The staleness hazard is an
/// **unprimed read at a non-zero shift of an array whose values change
/// between iterations** (written by the nest, or swapped in by the
/// rotation): iteration k+1 would read a neighbour-owned row that the
/// neighbour has not brought up to iteration k yet. Unprimed reads at
/// shift zero stay inside the owned slab (always locally fresh), and
/// arrays the loop never changes can be read at any shift.
pub(crate) fn rotation_fusible<const R: usize>(
    nest: &CompiledNest<R>,
    rotate: &[(ArrayId, ArrayId)],
) -> bool {
    let mut hot: Vec<ArrayId> = nest.stmts.iter().map(|s| s.lhs).collect();
    hot.extend(rotate.iter().flat_map(|&(a, b)| [a, b]));
    hot.sort_unstable();
    hot.dedup();
    nest.stmts.iter().all(|s| {
        s.rhs
            .reads()
            .into_iter()
            .all(|r| r.primed || !hot.contains(&r.id) || (0..R).all(|k| r.shift[k] == 0))
    })
}

/// How many sweeps back the drain edges of a fused run of `nest` point
/// ([`TileGraph::lag`]), buffers renamed by `rotate` between sweeps: the
/// fewest rotation steps that carry a written array's buffer back into a
/// written array. 2 for a swap of a written array with a read one, `k`
/// for a `k`-cycle through one written array, 1 with no rotation.
///
/// Sound for the bodies [`rotation_fusible`] accepts: other cells read a
/// cell's rows only through primed reads of written arrays (the compiler
/// refuses any other primed read) and reads of arrays the loop never
/// changes, so a buffer sweep `s` overwrites was last read across cells
/// while bound to a written array, at sweep `s − L` or earlier.
pub(crate) fn drain_lag<const R: usize>(
    nest: &CompiledNest<R>,
    rotate: &[(ArrayId, ArrayId)],
) -> usize {
    // Where one rotation step moves the buffer in slot `id`.
    let step = |id: ArrayId| rotate.iter().find(|&&(from, _)| from == id).map_or(id, |&(_, to)| to);
    // A rotation is a permutation, so a written buffer is back in a
    // written array within `rotate.len()` steps; were it not, lag 1, the
    // most conservative, stands.
    let back = |mut at: ArrayId| {
        let steps = (1..=rotate.len().max(1)).find(|_| {
            at = step(at);
            writes(nest, at)
        });
        steps.unwrap_or(1)
    };
    nest.stmts.iter().map(|s| back(s.lhs)).min().unwrap_or(1)
}

/// Whether a statement of `nest` assigns to array `id`.
fn writes<const R: usize>(nest: &CompiledNest<R>, id: ArrayId) -> bool {
    nest.stmts.iter().any(|s| s.lhs == id)
}

/// Whether the progress counters order every access a cell makes to an
/// element another cell writes — what running `nest` under `plan` in
/// place on shared memory needs:
///
/// * a read of this sweep's value (primed, or unprimed of an array an
///   earlier statement wrote) points upstream and to the same or an
///   earlier tile — [`WavefrontPlan::build`] guarantees it — so the
///   writing block precedes the reader's flow wait;
/// * a read of the *old* value of an array the nest writes (unprimed,
///   non-zero shift) must point to a block that cannot start before the
///   reader's block has ended: downstream and/or to a later tile, never
///   a mix of directions. A shift whose block steps along (wave axes…,
///   tile order) have opposite signs names a block the counters do not
///   order against the reader — reader (k, t) needs the old value of a
///   block that (k+1, t−1) may already have overwritten — and so does a
///   shift along an axis that carries no link;
/// * across sweeps (`iters > 1`) [`rotation_fusible`] leaves only the
///   first kind, and the drain wait orders each overwrite after the
///   reads of sweep `s − L` (see [`TileGraph::readers`] and
///   [`drain_lag`]).
///
/// [`WavefrontPlan::build`] puts the tile dimension outermost and
/// refuses nests whose constraints (anti-dependences included) do not
/// all step forward, so every plan it makes passes; a seeded sweep in
/// this module's tests checks that. A plan that fails is hand-built, and
/// [`execute_threaded`] refuses it.
pub(crate) fn in_place_legal<const R: usize>(
    nest: &CompiledNest<R>,
    plan: &WavefrontPlan<R>,
) -> bool {
    let direction = |ascending: bool| if ascending { 1 } else { -1 };
    !nest.stmts.iter().flat_map(|s| s.rhs.reads()).any(|r| {
        if r.primed || !writes(nest, r.id) {
            return false;
        }
        // Block steps of the shift: +1 downstream / a later tile.
        let mut steps: Vec<i64> = plan
            .axes
            .iter()
            .map(|a| r.shift[a.dim].signum() * direction(a.ascending))
            .collect();
        let unlinked = plan
            .axes
            .iter()
            .zip(&steps)
            .any(|(a, &step)| step != 0 && a.comm.is_empty());
        if let Some(k) = plan.tile_dim {
            steps.push(r.shift[k].signum() * direction(plan.tile_ascending));
        }
        unlinked || (steps.iter().any(|&s| s < 0) && steps.iter().any(|&s| s > 0))
    })
}

/// Apply one rotation step to a store: the buffer in slot `from` moves
/// to slot `to` for every pair at once (the pairs form a permutation,
/// validated upstream). Pure slot surgery — no copies.
fn rotate_slots<const R: usize>(store: &mut Store<R>, rotate: &[(ArrayId, ArrayId)]) {
    if rotate.is_empty() {
        return;
    }
    let arrays = store.arrays_mut();
    let taken: Vec<DenseArray<R>> = rotate
        .iter()
        .map(|&(from, _)| {
            let layout = arrays[from].layout();
            std::mem::replace(
                &mut arrays[from],
                DenseArray::with_layout(Region::empty(), layout, 0.0),
            )
        })
        .collect();
    for (&(_, to), arr) in rotate.iter().zip(taken) {
        arrays[to] = arr;
    }
}

/// A worker's event buffer and clock; disabled, it reads no timers.
struct Recorder {
    epoch: Instant,
    evs: Option<Vec<WorkerEv>>,
}

impl Recorder {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The current time, when recording.
    fn stamp(&self) -> Option<f64> {
        self.evs.as_ref().map(|_| self.now())
    }

    fn push(&mut self, ev: WorkerEv) {
        if let Some(evs) = &mut self.evs {
            evs.push(ev);
        }
    }
}

/// What one cell's task hands back: messages its posts stood for,
/// buffered events, and the busy span of each sweep.
struct CellRun {
    sent: usize,
    evs: Vec<WorkerEv>,
    spans: Vec<(f64, f64)>,
}

/// What every cell's task of one run shares.
struct RunCtx<const R: usize> {
    nest: Arc<CompiledNest<R>>,
    /// The lowered kernel and the plan it runs.
    prep: Arc<NestPrep<R>>,
    /// The kernel resolved against the store's geometry (`None` on the
    /// interpreter tier); a rotation renames buffers of one shape, so
    /// one binding serves every sweep.
    bound: Option<BoundKernel<R>>,
    /// Per array id, the store's buffer and its bounds and layout.
    shared: Vec<SharedCells>,
    shapes: Vec<(Region<R>, Layout)>,
    iters: usize,
    rotate: Vec<(ArrayId, ArrayId)>,
    /// The plan's tile graph over `iters` sweeps.
    graph: Arc<TileGraph<R>>,
    /// The no-overlap ablation: every cell waits here after each
    /// iteration, flattening the staircase back to lock-step.
    barrier: Option<Barrier>,
    epoch: Instant,
    enabled: bool,
    engine: EngineKind,
    /// The store and the cells' results, until the last cell has ended.
    ending: Mutex<Ending<R>>,
    #[cfg(test)]
    tile_hook: Option<test_hooks::TileHook>,
}

/// One thing a cell waits for before a tile.
struct Await {
    on: Arc<Progress>,
    /// `Some(axis)`: the upstream neighbour along `axis` must have
    /// completed the *same* tile (flow). `None`: a reader of this cell's
    /// rows must have finished with them in sweep `s − L`, `L` the
    /// graph's [`TileGraph::lag`] (drain).
    flow: Option<usize>,
}

/// One active cell's place in the run: what it owns, whom it waits for
/// and whom its posts tell.
struct CellLinks<const R: usize> {
    owned: Region<R>,
    me: Arc<Progress>,
    awaits: Vec<Await>,
    /// Axes along which a downstream neighbour waits on `me`: the links
    /// each post stands for a message on.
    down: Vec<usize>,
}

/// The worker loop, one per active cell: for every sweep, for every
/// tile — wait, run, post. `arrays` holds, per array id, the view
/// currently bound to that name (a rotation permutes the table, never
/// the buffers).
///
/// Across iterations the paper's fill/steady/drain staircase is lifted
/// one level up: a cell that has drained its tiles of iteration *k*
/// immediately starts iteration *k+1*. Waits point upstream within a
/// sweep and at a strictly earlier tile number across sweeps, so the
/// schedule is deadlock-free for any `iters`.
#[cfg_attr(not(test), allow(unused_variables))]
fn run_cell<const R: usize>(
    ctx: &RunCtx<R>,
    cell: usize,
    links: &CellLinks<R>,
    mut arrays: Vec<&[Cell<f64>]>,
) -> CellRun {
    let mut rec = Recorder {
        epoch: ctx.epoch,
        evs: ctx.enabled.then(Vec::new),
    };
    let plan = &ctx.prep.plan;
    let (tiles, lag) = (plan.tiles.len(), ctx.graph.lag);
    let mut sent = 0usize;
    let mut spans: Vec<(f64, f64)> = Vec::with_capacity(ctx.iters);
    for it in 0..ctx.iters {
        if it > 0 {
            if let Some(b) = &ctx.barrier {
                b.wait();
            }
            let moved: Vec<&[Cell<f64>]> =
                ctx.rotate.iter().map(|&(from, _)| arrays[from]).collect();
            for (&(_, to), view) in ctx.rotate.iter().zip(moved) {
                arrays[to] = view;
            }
        }
        let span_start = rec.now();
        for (ti, tile) in plan.tiles.iter().enumerate() {
            for a in &links.awaits {
                let target = match a.flow {
                    Some(_) => it * tiles + ti + 1,
                    None if it < lag => continue,
                    None => (it - lag) * tiles + ctx.graph.reach[ti] + 1,
                };
                let start = rec.stamp();
                a.on.wait(target as u64).expect(CASCADE);
                if let Some(start) = start {
                    let end = rec.now();
                    rec.push(match a.flow {
                        Some(axis) => WorkerEv::Recv {
                            axis,
                            wait_start: start,
                            at: end,
                        },
                        None => WorkerEv::Held { start, end },
                    });
                }
            }
            let sub = links.owned.intersect(tile);
            if !sub.is_empty() {
                #[cfg(test)]
                if let Some(hook) = &ctx.tile_hook {
                    hook(cell, it * tiles + ti);
                }
                let start = rec.stamp();
                ctx.prep.runner.run_tile_cells(
                    &ctx.nest,
                    ctx.bound.as_ref(),
                    sub,
                    &plan.order,
                    &arrays,
                    &ctx.shapes,
                );
                if let Some(start) = start {
                    let end = rec.now();
                    rec.push(WorkerEv::Block {
                        tile: ti,
                        start,
                        end,
                        elems: sub.len(),
                    });
                }
            }
            // Stamped before the post, so every arrival it causes is later.
            if let Some(at) = rec.stamp() {
                for &axis in &links.down {
                    let elems = plan.msg_elems(links.owned, tile, axis);
                    rec.push(WorkerEv::Sent {
                        axis,
                        tile: ti,
                        elems,
                        at,
                    });
                }
            }
            links.me.post((it * tiles + ti + 1) as u64);
            sent += links.down.len();
        }
        spans.push((span_start, rec.now()));
    }
    CellRun {
        sent,
        evs: rec.evs.unwrap_or_default(),
        spans,
    }
}

/// The completion of a run: called once, by the thread that ends the
/// run's last cell, with the store and everything the cells handed back.
pub(crate) type Done<const R: usize> = Box<dyn FnOnce(Ended<R>) + Send>;

/// What a run keeps under one lock until its last cell has ended.
struct Ending<const R: usize> {
    /// The store, owned by the run from launch to completion.
    store: Option<Store<R>>,
    /// Per active cell, what its task handed back.
    runs: Vec<Option<CellRun>>,
    /// Cells not yet ended.
    left: usize,
    /// The message of the first cell that panicked, preferring a cause
    /// to the cascade it set off.
    panic: Option<String>,
    done: Option<Done<R>>,
}

/// The message a cell panics with when a neighbour it waits on panicked.
const CASCADE: &str = "a neighbouring cell panicked mid-wave";

/// A run whose every cell has ended: the store comes back through
/// [`Ended::finish`].
pub(crate) struct Ended<const R: usize> {
    store: Store<R>,
    /// Every cell's result, or the panic that ended the run.
    runs: Result<Vec<CellRun>, String>,
    elapsed: Duration,
    plan: Arc<WavefrontPlan<R>>,
    graph: Arc<TileGraph<R>>,
    engine: EngineKind,
    iters: usize,
    rotate: Vec<(ArrayId, ArrayId)>,
    enabled: bool,
}

impl<const R: usize> Ended<R> {
    /// Hand back the store with the run's report — or, if a cell
    /// panicked, the panic's message. On success the buffered telemetry
    /// is replayed into `collector` (when the run recorded it) and the
    /// rotation applied to the store's slots.
    pub(crate) fn finish(
        self,
        collector: &mut dyn Collector,
    ) -> (Store<R>, Result<ThreadReport, String>) {
        let Ended {
            mut store,
            runs,
            elapsed,
            plan,
            graph,
            engine,
            iters,
            rotate,
            enabled,
        } = self;
        let runs = match runs {
            Ok(runs) => runs,
            Err(msg) => return (store, Err(format!("worker panicked: {msg}"))),
        };
        let mut report = ThreadReport {
            elapsed,
            messages: 0,
            spans: Vec::with_capacity(runs.len()),
        };
        let mut events: Vec<Vec<WorkerEv>> = Vec::with_capacity(runs.len());
        for run in runs {
            report.messages += run.sent;
            report.spans.push(run.spans);
            events.push(run.evs);
        }
        if enabled {
            collector.begin(&RunMeta {
                engine,
                procs: plan.procs(),
                active: graph.cells.clone(),
                tiles: plan.tiles.len(),
                block: plan.block,
                pipelined: plan.is_pipelined(),
                machine: "host".to_string(),
                time_unit: TimeUnit::Seconds,
                // One thread sends nothing.
                predicted: match engine {
                    EngineKind::Seq => Prediction::default(),
                    _ => plan.predicted_traffic(),
                },
            });
            replay(collector, &graph, &events, elapsed.as_secs_f64());
        }
        // A rotation renames *whole buffers* — border cells the sweep
        // never writes travel with their buffer, exactly as on the
        // per-step path where the dispatcher re-binds physical buffers
        // between jobs. The store's slots therefore rotate in step with
        // the workers' view tables.
        for _ in 1..iters {
            rotate_slots(&mut store, &rotate);
        }
        (store, Ok(report))
    }
}

/// The executing engine, joined: run `iters` whole sweeps of `nest` under
/// `prep`'s plan on `engine`'s schedule inside **one** invocation, updating
/// `store` in place and reporting telemetry to `collector`. A one-shot run is
/// `iters = 1`, no rotation. Results are bit-identical to running the
/// sweeps back to back sequentially.
///
/// This is [`launch_threaded`] followed by a wait for its completion:
/// the caller's store goes into the run and comes back when the last
/// cell has ended. A panicking cell cascades — its poisoned progress
/// counter fails its neighbours' waits — until every cell has ended;
/// then the store is put back and the panic re-raised here.
///
/// `rotate` renames buffers between iterations; `pipelined: false`
/// inserts a full barrier between iterations, the ablation `perfbench`
/// reports as `fused_over_barrier`.
///
/// # Panics
///
/// As [`launch_threaded`] refuses, before any task is dispatched and
/// with `store` untouched; and when a cell panicked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_threaded<const R: usize>(
    workers: &WorkerPool,
    nest: &Arc<CompiledNest<R>>,
    prep: &Arc<NestPrep<R>>,
    store: &mut Store<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    pipelined: bool,
    engine: EngineKind,
    collector: &mut dyn Collector,
) -> ThreadReport {
    let (tx, rx) = channel::<Ended<R>>();
    let done: Done<R> = Box::new(move |ended| {
        let _ = tx.send(ended);
    });
    let enabled = collector.enabled();
    launch_threaded(workers, nest, prep, store, iters, rotate, pipelined, engine, enabled, done);
    let ended = rx.recv().expect("a launched run completes exactly once");
    let (back, report) = ended.finish(collector);
    *store = back;
    report.unwrap_or_else(|msg| panic!("{msg}"))
}

/// Start the executing engine on `store` and return without waiting: the
/// run takes the store (leaving `store` empty) and `done` gets it back,
/// with the cells' results, from whichever thread ends the last cell.
/// [`execute_threaded`] is this plus a wait.
///
/// Under [`EngineKind::Threads`] one task per active cell is dispatched
/// onto a persistent [`WorkerPool`]. Under [`EngineKind::Seq`], and for
/// a plan with a single active cell, the calling thread runs every task
/// itself in wave order, completion included, and never touches the
/// pool; a Seq cell after one that panicked ends without running, as a
/// threaded one's waits would fail. Tasks capture only `Arc`-shared
/// state, so they are `'static` and need no scoped spawn. Each task catches its cell's panic before
/// it counts the cell ended, so a run whose cell panicked still
/// completes, with [`Ended::finish`] reporting the panic. See
/// [`crate::service::pool`] for why runs of several jobs may share the
/// pool's workers without deadlock.
///
/// Workers buffer telemetry in thread-local vectors (timestamps relative
/// to a shared epoch) when `enabled`, and [`Ended::finish`] replays the
/// stream into a collector; disabled, they read no timers.
///
/// # Panics
///
/// Refused before any task is dispatched, with `store` untouched, as
/// caller bugs: the simulator, a buffered nest, `iters == 0`, a Seq run
/// of more than one sweep, a fused body [`rotation_fusible`] rejects, a
/// plan [`in_place_legal`] rejects, and a rotation between arrays of
/// different bounds or layout.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_threaded<const R: usize>(
    workers: &WorkerPool,
    nest: &Arc<CompiledNest<R>>,
    prep: &Arc<NestPrep<R>>,
    store: &mut Store<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    pipelined: bool,
    engine: EngineKind,
    enabled: bool,
    done: Done<R>,
) {
    let plan = &prep.plan;
    assert!(engine != EngineKind::Sim, "the simulator runs no data");
    let seq = engine == EngineKind::Seq;
    assert!(
        nest.buffered.is_empty(),
        "buffered nests carry no wavefront and are never planned"
    );
    assert!(iters >= 1, "a run sweeps at least once");
    // One thread runs each cell's sweeps back to back: one sweep only.
    assert!(iters == 1 || !seq, "only the threads engine fuses sweeps");
    // Only this sweep's values are ordered across cells; a body that
    // reads last sweep's from a neighbour cannot be fused.
    assert!(
        iters == 1 || rotation_fusible(nest, rotate),
        "a fused run needs a body `rotation_fusible` accepts"
    );
    // Obligation (2) of the SAFETY argument below.
    assert!(
        in_place_legal(nest, plan),
        "the plan leaves an anti-dependence of the nest unordered (`in_place_legal`)"
    );
    let shapes: Vec<(Region<R>, Layout)> = store
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    // One kernel binding and one shape table serve every sweep.
    assert!(
        rotate.iter().all(|&(a, b)| shapes[a] == shapes[b]),
        "a rotation renames buffers between arrays of one bounds and layout"
    );
    // Only cells owning data participate: the graph's nodes.
    let graph = Arc::new(TileGraph::new(plan, iters, drain_lag(nest, rotate)));
    let n = graph.cells.len();
    if n == 0 {
        done(Ended {
            store: std::mem::replace(store, Store::from_arrays(Vec::new())),
            runs: Ok(Vec::new()),
            elapsed: Duration::ZERO,
            plan: Arc::clone(plan),
            graph,
            engine,
            iters,
            rotate: rotate.to_vec(),
            enabled,
        });
        return;
    }

    // Everything that needs `&mut store` happens here, before the first
    // task starts: the one copy-on-write break of each array the run
    // writes, and the kernel binding. The written set is closed under
    // the rotation here: obligation (1) below rests on it. Then the run
    // takes the store: obligation (3).
    let mut written = prep.written.clone();
    close_under_rotation(&mut written, rotate);
    let bound = prep.runner.bind(store, &plan.order);
    let shared: Vec<SharedCells> = store
        .arrays_mut()
        .iter_mut()
        .enumerate()
        .map(|(id, a)| {
            if written.binary_search(&id).is_ok() {
                a.share_for_write()
            } else {
                a.share_for_read()
            }
        })
        .collect();
    let ctx = Arc::new(RunCtx {
        nest: Arc::clone(nest),
        prep: Arc::clone(prep),
        bound,
        shared,
        shapes,
        iters,
        rotate: rotate.to_vec(),
        graph: Arc::clone(&graph),
        barrier: (!pipelined).then(|| Barrier::new(n)),
        epoch: Instant::now(),
        enabled,
        ending: Mutex::new(Ending {
            store: Some(std::mem::replace(store, Store::from_arrays(Vec::new()))),
            runs: (0..n).map(|_| None).collect(),
            left: n,
            panic: None,
            done: Some(done),
        }),
        engine,
        #[cfg(test)]
        tile_hook: test_hooks::current(),
    });
    let progress: Vec<Arc<Progress>> = (0..n).map(|_| Arc::new(Progress::new())).collect();
    let inline = seq || n == 1;
    if !inline {
        // A cell may wait on any other, so each needs a worker.
        workers.ensure_workers(n);
    }
    for i in 0..n {
        let drain = graph.readers[i].iter().map(|&r| Await {
            on: Arc::clone(&progress[r]),
            flow: None,
        });
        let flow = graph.ins[i].iter().map(|up| Await {
            on: Arc::clone(&progress[up.cell]),
            flow: Some(up.axis),
        });
        // On one thread there are no links: wave order satisfies every
        // wait, and no post stands for a message.
        let links = CellLinks {
            owned: graph.owned[i],
            me: Arc::clone(&progress[i]),
            awaits: drain.chain(flow).filter(|_| !seq).collect(),
            down: graph.outs[i].iter().map(|down| down.axis).filter(|_| !seq).collect(),
        };
        let ctx = Arc::clone(&ctx);
        let task = move || {
            // On one thread a panic ends the schedule: the later cells
            // end as their failed waits would end them on many.
            if seq && ctx.ending.lock().unwrap().panic.is_some() {
                return end_cell(&ctx, i, Err(Box::new(CASCADE)));
            }
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let _poison = links.me.poison_on_panic();
                // SAFETY: `SharedCells::cells` asks three things of this
                // run; (1)–(4) below discharge them.
                //
                // (1) Unique and untouched. Every array a sweep can
                //   write (`written`: the nest's left-hand sides, closed
                //   under the rotation) was made unique by
                //   `share_for_write` on the launching thread before
                //   dispatch — the one copy-on-write break, billed as
                //   any first write is. All other arrays were shared
                //   `for_read`: only viewed, never `as_mut_slice`d,
                //   never `set` — the kernels and the interpreter `set`
                //   only statement left-hand sides, under whatever name
                //   the rotation gives them, all of which are in
                //   `written`.
                // (2) No unordered conflict. Two cells never write one
                //   element: each writes only `owned ∩ tile`, and owned
                //   regions partition the covering region. Every other
                //   cross-cell access is ordered by the plan's
                //   `TileGraph`: each of its edges is a wait here, an
                //   Acquire load in `Progress::wait` that pairs with the
                //   Release `post` of the tile it names. A cell reads an
                //   element another cell writes only (flow) after the
                //   writer's tile — directly or through the chain of
                //   flow edges — or (anti) before its own post, which
                //   the writer's flow wait lets it start after; across
                //   sweeps, a cell overwrites a tile in sweep `s` only
                //   after the drain wait on every reader of its rows in
                //   sweep `s − L`, the last in which another cell can
                //   have read that buffer (`drain_lag`).
                //   `in_place_legal`, asserted at the top of
                //   `launch_threaded`, holds exactly when these cover
                //   every cross-cell access of the nest under the plan;
                //   `rotation_fusible`, asserted beside it, does the
                //   same for reads across sweeps. The legality sweep in
                //   `handoff_tests` checks the property itself, element
                //   by element, on every plan it builds.
                // (3) The run owns the store. It was moved into
                //   `ctx.ending` before any task was dispatched (moving
                //   a `Store` moves no buffer), and only the completion
                //   takes it out — in `end_cell`, once the count of
                //   ended cells reaches zero. A cell counts itself ended
                //   only after this closure has returned or unwound, so
                //   a panicking cell cannot hand the store on while a
                //   view of it exists, and nobody else can reach the
                //   store meanwhile: neither the launching thread nor
                //   the completion's caller.
                // (4) Views do not outlive the closure. They borrow
                //   `ctx.shared`, live inside it, and are gone before
                //   the cell counts itself ended.
                // On the one-thread schedule (Seq) the cells run one
                // after another on the launching thread in wave order,
                // so every cross-cell access of (2) follows the write it
                // reads, or precedes the overwrite, in program order.
                let arrays: Vec<&[Cell<f64>]> =
                    ctx.shared.iter().map(|s| unsafe { s.cells() }).collect();
                run_cell(&ctx, i, &links, arrays)
            }));
            end_cell(&ctx, i, ran);
        };
        if inline {
            task();
        } else {
            workers.execute(Box::new(task));
        }
    }
}

/// Count cell `i` ended — returned, or unwound and caught — and, when it
/// is the run's last, complete the run on this thread: take the store
/// and the results out of the run and hand them to its `done`. (The task
/// catches the unwind rather than counting in a drop guard, so the
/// completion keeps the panic's message and never runs mid-unwind, where
/// a second panic would abort.)
fn end_cell<const R: usize>(ctx: &RunCtx<R>, i: usize, ran: std::thread::Result<CellRun>) {
    let mut ending = ctx.ending.lock().unwrap();
    match ran {
        Ok(run) => ending.runs[i] = Some(run),
        Err(payload) => {
            let msg = crate::service::panic_message(&*payload);
            if ending
                .panic
                .as_deref()
                .is_none_or(|p| p.starts_with(CASCADE))
            {
                ending.panic = Some(msg);
            }
        }
    }
    ending.left -= 1;
    if ending.left > 0 {
        return;
    }
    let runs = match ending.panic.take() {
        Some(msg) => Err(msg),
        None => Ok(ending
            .runs
            .iter_mut()
            .map(|r| r.take().expect("every cell reports exactly once"))
            .collect()),
    };
    let ended = Ended {
        store: ending.store.take().expect("the run owns the store"),
        runs,
        elapsed: ctx.epoch.elapsed(),
        plan: Arc::clone(&ctx.prep.plan),
        graph: Arc::clone(&ctx.graph),
        engine: ctx.engine,
        iters: ctx.iters,
        rotate: ctx.rotate.clone(),
        enabled: ctx.enabled,
    };
    let done = ending.done.take().expect("a run completes once");
    drop(ending);
    done(ended);
}

/// Replay buffered worker events into the collector: blocks and waits
/// directly, messages by pairing each cell's send stream along an
/// out-edge with the downstream cell's receive stream along the same
/// axis (both are in tile order).
fn replay<const R: usize>(
    collector: &mut dyn Collector,
    graph: &TileGraph<R>,
    events: &[Vec<WorkerEv>],
    makespan: f64,
) {
    let cells = &graph.cells;
    for (&rank, evs) in cells.iter().zip(events) {
        for ev in evs {
            match *ev {
                WorkerEv::Block {
                    tile,
                    start,
                    end,
                    elems,
                } => {
                    collector.block(BlockEvent {
                        proc: rank,
                        tile,
                        start,
                        end,
                        elems,
                    });
                }
                WorkerEv::Recv {
                    wait_start: start,
                    at: end,
                    ..
                }
                | WorkerEv::Held { start, end } => {
                    collector.wait(WaitEvent {
                        proc: rank,
                        start,
                        end,
                    });
                }
                WorkerEv::Sent { .. } => {}
            }
        }
    }
    for (c, evs) in events.iter().enumerate() {
        for down in &graph.outs[c] {
            let sends = evs.iter().filter_map(|e| match *e {
                WorkerEv::Sent {
                    axis,
                    tile,
                    elems,
                    at,
                } if axis == down.axis => Some((tile, elems, at)),
                _ => None,
            });
            let recvs = events[down.cell].iter().filter_map(|e| match *e {
                WorkerEv::Recv { axis, at, .. } if axis == down.axis => Some(at),
                _ => None,
            });
            for ((tile, elems, sent_at), recv_at) in sends.zip(recvs) {
                collector.message(MessageEvent {
                    from: cells[c],
                    to: cells[down.cell],
                    tile,
                    elems,
                    sent_at,
                    recv_at,
                });
            }
        }
    }
    collector.end(makespan);
}

/// Test-only: a hook every cell calls before each tile it runs, set on
/// the thread that calls [`execute_threaded`] (so concurrent tests do
/// not see each other's).
#[cfg(test)]
pub(crate) mod test_hooks {
    use std::cell::RefCell;
    use std::sync::Arc;

    /// `(active-cell index, global tile number)`.
    pub(crate) type TileHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

    thread_local! {
        static HOOK: RefCell<Option<TileHook>> = const { RefCell::new(None) };
    }

    pub(crate) fn current() -> Option<TileHook> {
        HOOK.with(|h| h.borrow().clone())
    }

    /// Run `f` with `hook` installed for runs started on this thread
    /// (a panic out of `f` leaves it installed: the thread is a test's).
    pub(crate) fn with_tile_hook<T>(hook: TileHook, f: impl FnOnce() -> T) -> T {
        let prev = HOOK.with(|h| h.replace(Some(hook)));
        let out = f();
        HOOK.with(|h| *h.borrow_mut() = prev);
        out
    }

    /// Carry this thread's hook to a thread it spawns: `f`, returned to
    /// run there, runs with the hook installed.
    pub(crate) fn carry<T>(f: impl FnOnce() -> T) -> impl FnOnce() -> T {
        let hook = current();
        move || match hook {
            Some(hook) => with_tile_hook(hook, f),
            None => f(),
        }
    }
}

#[cfg(test)]
mod handoff_tests;
#[cfg(test)]
pub(crate) use handoff_tests::{legality_plans, SWEEP_ROTATIONS};

#[cfg(test)]
/// The config under which [`prepare`] keeps a plan's width `b`, lowered
/// under `kernel_mode`.
pub(crate) fn fixed(b: usize, kernel_mode: wavefront_core::kernel::KernelMode) -> SessionConfig {
    let block = crate::schedule::BlockPolicy::Fixed(b);
    SessionConfig { block, kernel_mode, ..SessionConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{init_sweep, mesh_plan, sweep_nest, tomcatv_nest};
    use crate::plan::JobTopology;
    use crate::schedule::BlockPolicy;
    use crate::telemetry::NoopCollector;
    use wavefront_core::exec::run_nest_with_sink;
    use wavefront_core::prelude::*;

    fn t3e() -> wavefront_machine::MachineParams {
        wavefront_machine::cray_t3e()
    }

    fn run_on<const R: usize>(
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
        kernel_mode: KernelMode,
        engine: EngineKind,
    ) -> ThreadReport {
        let workers = WorkerPool::new();
        let nest = Arc::new(nest.clone());
        let plan = Arc::new(plan.clone());
        let shapes: Vec<_> = store.arrays().iter().map(|a| (a.bounds(), a.layout())).collect();
        let prep = Arc::new(prepare(&nest, &plan, &fixed(plan.block, kernel_mode), &shapes));
        let c = &mut NoopCollector;
        let report = execute_threaded(&workers, &nest, &prep, store, 1, &[], true, engine, c);
        if engine == EngineKind::Seq {
            assert_eq!(report.messages, 0, "one thread sends nothing");
            assert_eq!(workers.spawn_count(), 0, "one thread needs no worker");
        }
        report
    }

    fn run_mode<const R: usize>(
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
        kernel_mode: KernelMode,
    ) -> ThreadReport {
        run_on(nest, plan, store, kernel_mode, EngineKind::Threads)
    }

    fn run<const R: usize>(
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
    ) -> ThreadReport {
        run_mode(nest, plan, store, KernelMode::Lanes)
    }

    /// The Seq schedule: every cell on the calling thread, in wave order.
    fn run_seq<const R: usize>(
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
    ) {
        run_on(nest, plan, store, KernelMode::Interpreted, EngineKind::Seq);
    }

    fn init_tomcatv(program: &Program<2>) -> Store<2> {
        let mut store = Store::new(program);
        for (idx, seed) in [(1usize, 3.0), (2, 5.0), (3, 7.0), (4, 11.0), (5, 13.0)] {
            let bounds = store.get(idx).bounds();
            *store.get_mut(idx) = DenseArray::from_fn(bounds, |q| {
                seed + 0.01 * ((q[0] * 17 + q[1] * 29) % 97) as f64
            });
        }
        store
    }

    #[test]
    fn threaded_tomcatv_matches_sequential_bitwise() {
        let n = 60;
        let (program, nest) = tomcatv_nest(n);
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        for p in [1usize, 2, 4, 7] {
            for b in [1usize, 5, 16, 58] {
                let plan = WavefrontPlan::build(
                    &nest,
                    JobTopology::line(p),
                    &BlockPolicy::Fixed(b),
                    &t3e(),
                )
                .unwrap();
                let mut store = init_tomcatv(&program);
                let report = run(&nest, &plan, &mut store);
                for id in 0..store.len() {
                    assert!(
                        store.get(id).region_eq(reference.get(id), nest.region),
                        "array {id} differs at p={p} b={b}"
                    );
                }
                if p > 1 && plan.is_pipelined() {
                    assert!(report.messages > 0);
                }
            }
        }
    }

    #[test]
    fn message_count_matches_tiles_times_links() {
        let (program, nest) = tomcatv_nest(40);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(10), &t3e())
                .unwrap();
        let mut store = init_tomcatv(&program);
        let report = run(&nest, &plan, &mut store);
        // 39 columns of covering region in tiles of 10 → 4 tiles; 3 links.
        assert_eq!(report.messages, 4 * 3);
    }

    #[test]
    fn kernels_disabled_still_matches_sequential() {
        let n = 40;
        let (program, nest) = tomcatv_nest(n);
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(3), &BlockPolicy::Fixed(8), &t3e())
                .unwrap();
        let mut store = init_tomcatv(&program);
        run_mode(&nest, &plan, &mut store, KernelMode::Interpreted);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn naive_schedule_sends_one_message_per_link() {
        let (program, nest) = tomcatv_nest(40);
        let plan = WavefrontPlan::build(
            &nest,
            JobTopology::line(4),
            &BlockPolicy::FullPortion,
            &t3e(),
        )
        .unwrap();
        let mut store = init_tomcatv(&program);
        let report = run(&nest, &plan, &mut store);
        assert_eq!(report.messages, 3);
    }

    #[test]
    fn threaded_diagonal_wavefront_is_exact() {
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([0, 0], [24, 24]);
        let a = prog.array("a", bounds);
        let region = Region::rect([1, 0], [24, 23]);
        prog.stmt(region, a, Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0));
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);

        let init = |store: &mut Store<2>| {
            *store.get_mut(a) =
                DenseArray::from_fn(bounds, |q| ((q[0] * 7 + q[1] * 3) % 13) as f64);
        };
        let mut reference = Store::new(&prog);
        init(&mut reference);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        for (p, b) in [(2usize, 6usize), (3, 4), (5, 24)] {
            let plan =
                WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e())
                    .unwrap();
            let mut store = Store::new(&prog);
            init(&mut store);
            run(nest, &plan, &mut store);
            assert!(
                store.get(a).region_eq(reference.get(a), region),
                "p={p} b={b}"
            );
        }
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let (program, nest) = tomcatv_nest(10);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(32), &BlockPolicy::Fixed(3), &t3e())
                .unwrap();
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let mut store = init_tomcatv(&program);
        run(&nest, &plan, &mut store);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn descending_wave_threaded() {
        // a := a'@south + 1 — wave travels north (high ranks first).
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([1, 1], [20, 20]);
        let a = prog.array("a", bounds);
        let region = Region::rect([1, 1], [19, 20]);
        prog.stmt(region, a, Expr::read_primed_at(a, [1, 0]) + Expr::lit(1.0));
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);
        let init = |store: &mut Store<2>| {
            *store.get_mut(a) = DenseArray::from_fn(bounds, |q| (q[0] % 5) as f64);
        };
        let mut reference = Store::new(&prog);
        init(&mut reference);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);
        let plan = WavefrontPlan::build(nest, JobTopology::line(3), &BlockPolicy::Fixed(7), &t3e())
            .unwrap();
        assert!(!plan.axes[0].ascending);
        let mut store = Store::new(&prog);
        init(&mut store);
        run(nest, &plan, &mut store);
        assert!(store.get(a).region_eq(reference.get(a), region));
    }

    #[test]
    fn threaded_mesh_matches_reference_bitwise() {
        let (program, nest) = sweep_nest(13);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        for (p1, p2, b) in [(2usize, 2usize, 3usize), (3, 2, 2), (2, 3, 12), (4, 4, 1)] {
            let plan = mesh_plan(&nest, [p1, p2], b);
            let mut store = init_sweep(&program);
            let report = run(&nest, &plan, &mut store);
            for id in 0..store.len() {
                assert!(
                    store.get(id).region_eq(reference.get(id), nest.region),
                    "array {id} differs at mesh {p1}x{p2} b={b}"
                );
            }
            assert!(report.messages > 0);
        }
    }

    #[test]
    fn kernels_disabled_mesh_still_matches_sequential() {
        let (program, nest) = sweep_nest(13);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan = mesh_plan(&nest, [2, 3], 3);
        let mut store = init_sweep(&program);
        run_mode(&nest, &plan, &mut store, KernelMode::Interpreted);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn threaded_mesh_with_corner_dependence() {
        // A diagonal (northwest-in-3D) primed read exercises the corner
        // relay through the axis-0 message widening.
        let mut p = Program::<3>::new();
        let bounds = Region::rect([0, 0, 0], [12, 12, 5]);
        let a = p.array("a", bounds);
        let cells = Region::rect([1, 1, 0], [12, 12, 5]);
        p.scan(
            cells,
            vec![Statement::new(
                a,
                Expr::lit(0.5) * Expr::read_primed_at(a, [-1, -1, 0])
                    + Expr::lit(0.25) * Expr::read_primed_at(a, [-1, 0, 0])
                    + Expr::lit(0.125) * Expr::read_primed_at(a, [0, -1, 0])
                    + Expr::lit(1.0),
            )],
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0).clone();
        let mut reference = init_sweep(&p);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        for (p1, p2, b) in [(2usize, 2usize, 2usize), (3, 4, 1), (2, 3, 5)] {
            let plan = WavefrontPlan::build(
                &nest,
                JobTopology::Mesh {
                    mesh: [p1, p2],
                    wave_dims: Some([0, 1]),
                },
                &BlockPolicy::Fixed(b),
                &t3e(),
            )
            .unwrap();
            let mut store = init_sweep(&p);
            run(&nest, &plan, &mut store);
            assert!(
                store.get(a).region_eq(reference.get(a), cells),
                "corner relay failed at {p1}x{p2} b={b}"
            );
        }
    }

    #[test]
    fn more_mesh_cells_than_rows_is_safe() {
        let (program, nest) = sweep_nest(7);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan = mesh_plan(&nest, [9, 9], 2);
        let mut store = init_sweep(&program);
        run(&nest, &plan, &mut store);
        let flux = 0;
        assert!(store.get(flux).region_eq(reference.get(flux), nest.region));
    }

    #[test]
    fn decomposed_execution_matches_sequential_for_many_p_and_b() {
        let n = 50;
        let (program, nest) = tomcatv_nest(n);
        // Reference: plain sequential execution.
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        for p in [1usize, 2, 3, 5, 8] {
            for b in [1usize, 3, 7, 16, 64] {
                let plan =
                    WavefrontPlan::build(&nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
                let mut store = init_tomcatv(&program);
                run_seq(&nest, &plan, &mut store);
                for id in 0..store.len() {
                    assert!(
                        store.get(id).region_eq(reference.get(id), nest.region),
                        "array {id} differs at p={p} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_wavefront_decomposition_is_exact() {
        // a := a'@(-1,1) — needs descending tile order; verify values.
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([0, 0], [20, 20]);
        let a = prog.array("a", bounds);
        let region = Region::rect([1, 0], [20, 19]);
        prog.stmt(region, a, Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0));
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);

        let init = |store: &mut Store<2>| {
            *store.get_mut(a) =
                DenseArray::from_fn(bounds, |q| ((q[0] * 7 + q[1] * 3) % 13) as f64);
        };
        let mut reference = Store::new(&prog);
        init(&mut reference);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        for (p, b) in [(2usize, 4usize), (4, 3), (3, 20)] {
            let plan = WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
            let mut store = Store::new(&prog);
            init(&mut store);
            run_seq(nest, &plan, &mut store);
            assert!(
                store.get(a).region_eq(reference.get(a), region),
                "p={p} b={b}"
            );
        }
    }

    #[test]
    fn more_processors_than_rows_still_correct() {
        let n = 8;
        let (program, nest) = tomcatv_nest(n);
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan = WavefrontPlan::build(&nest, JobTopology::line(16), &BlockPolicy::Fixed(2), &t3e()).unwrap();
        let mut store = init_tomcatv(&program);
        run_seq(&nest, &plan, &mut store);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn mesh_decomposition_matches_reference() {
        let (program, nest) = sweep_nest(13);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        for (p1, p2, b) in [(1usize, 1usize, 3usize), (2, 2, 2), (3, 2, 4), (2, 4, 12)] {
            let plan = mesh_plan(&nest, [p1, p2], b);
            let mut store = init_sweep(&program);
            run_seq(&nest, &plan, &mut store);
            for id in 0..store.len() {
                assert!(
                    store.get(id).region_eq(reference.get(id), nest.region),
                    "array {id} differs at mesh {p1}x{p2} b={b}"
                );
            }
        }
    }
}
