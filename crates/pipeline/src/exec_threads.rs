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
//! waits until every cell that reads its rows has finished reading them
//! in the previous sweep (the *drain* wait). One post per tile stands
//! for the boundary message the plan predicts on each downstream link,
//! and is recorded as that message, so observed traffic equals
//! [`WavefrontPlan::predicted_traffic`] exactly. With
//! [`crate::schedule::BlockPolicy::FullPortion`] the same code
//! degenerates to the naive schedule of Figure 4(a).
//!
//! Inputs the in-place exchange cannot serve fall back, automatically,
//! to the **message** exchange this engine started with: every cell owns
//! *local* arrays covering its portion plus ghost margins (scatter),
//! boundary slabs travel downstream as owned buffers over bounded
//! channels, one message per tile, and the owned portions are copied
//! back at the end (gather). [`choose_handoff`] decides from the nest,
//! the plan and the lowering alone — there is no switch — and
//! [`Handoff`] in the run's outcome says which exchange ran and why.
//!
//! Both exchanges sit behind one worker loop ([`run_cell`]) with one
//! wait site and one post site; a one-shot run is its one-sweep case.
//!
//! This runtime plays the role of the paper's hand-pipelined Fortran+MPI
//! codes: genuinely parallel execution, used by the benchmarks to
//! demonstrate real wall-clock pipelining speedup.

use std::cell::Cell;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wavefront_core::array::{DenseArray, SharedCells};
use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::kernel::{BoundKernel, KernelMode, NestRunner};
use wavefront_core::program::{Program, Store};
use wavefront_core::region::Region;

use crate::link::Progress;
use crate::plan::{read_margins, WavefrontPlan};
use crate::service::pool::WorkerPool;
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, RunMeta, TimeUnit, WaitEvent,
};

/// How boundaries crossed between cells in one threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handoff {
    /// Workers ran on the caller's store and synchronised through
    /// tile-progress counters; no boundary was copied.
    InPlace,
    /// Workers ran on local copies and exchanged boundary buffers over
    /// channels, because in-place execution could not serve the input.
    Message(MessageReason),
}

/// Why a run could not use the in-place hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageReason {
    /// The nest runs on the expression interpreter, which needs
    /// exclusive access to a whole store.
    InterpreterTier,
    /// A rotation renames buffers between arrays of different bounds or
    /// layout, so one kernel binding cannot serve every sweep.
    RotationShapes,
    /// The nest reads the *old* value of an array it writes at a shift
    /// the tile order does not protect: another cell may already have
    /// overwritten it. Local copies hide that; shared memory does not.
    AntiDependence,
}

impl std::fmt::Display for Handoff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Handoff::InPlace => "InPlace",
            Handoff::Message(MessageReason::InterpreterTier) => "Message(InterpreterTier)",
            Handoff::Message(MessageReason::RotationShapes) => "Message(RotationShapes)",
            Handoff::Message(MessageReason::AntiDependence) => "Message(AntiDependence)",
        })
    }
}

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
    /// A boundary became available downstream along `axis`: a message
    /// sent, or the post that stands for it.
    Sent {
        axis: usize,
        tile: usize,
        elems: usize,
        at: f64,
    },
    /// The matching arrival: the receive, or the flow wait, returned.
    Recv {
        axis: usize,
        wait_start: f64,
        at: f64,
    },
    /// A drain wait: the cell held back until the previous sweep's
    /// readers of its rows were done. A stall with no message to it.
    Held { start: f64, end: f64 },
}

/// Outcome of a threaded execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThreadReport {
    /// Wall-clock time of the parallel section (excluding the message
    /// exchange's initial scatter and final gather).
    pub(crate) elapsed: Duration,
    /// Number of boundary messages exchanged (in place: posts, counted
    /// once per downstream link as the plan predicts them).
    pub(crate) messages: usize,
    /// Number of message buffers freshly allocated (as opposed to reused
    /// from the recycle pool). Bounded by the per-link channel depth, not
    /// by the tile count: steady-state exchange allocates nothing. Zero
    /// in place, where there are no buffers.
    pub(crate) buffer_allocs: usize,
    /// `spans[cell][iteration] = (start, end)`: per-cell busy spans in
    /// seconds since the run's epoch, from which the loop runner derives
    /// the cross-iteration overlap.
    pub(crate) spans: Vec<Vec<(f64, f64)>>,
    /// Which exchange ran.
    pub(crate) handoff: Handoff,
}

/// Facts about a nest every worker needs, computed once on the main
/// thread before dispatch instead of identically per worker: ghost
/// margins, the referenced/written array sets, and the per-nest
/// execution strategy (compiled tile kernel or interpreter fallback).
/// The service caches this alongside the plan, so warm jobs skip the
/// kernel lowering entirely.
pub(crate) struct NestPrep<const R: usize> {
    margins: Vec<[i64; R]>,
    referenced: Vec<bool>,
    written: Vec<ArrayId>,
    pub(crate) runner: NestRunner<R>,
}

pub(crate) fn prepare<const R: usize>(
    program: &Program<R>,
    nest: &CompiledNest<R>,
    kernel_mode: KernelMode,
) -> NestPrep<R> {
    let mut referenced = vec![false; program.arrays().len()];
    let mut written: Vec<ArrayId> = Vec::new();
    for s in &nest.stmts {
        referenced[s.lhs] = true;
        written.push(s.lhs);
        for r in s.rhs.reads() {
            referenced[r.id] = true;
        }
    }
    written.sort_unstable();
    written.dedup();
    NestPrep {
        margins: read_margins(nest),
        referenced,
        written,
        runner: NestRunner::with_mode(nest, kernel_mode),
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

/// [`prepare`] for a fused loop with slot rotation: buffers physically
/// move between the slots of each rotation class, so the class members
/// must share one local shape — ghost margins are unioned across each
/// class, the referenced flags are or-ed, and the written set is
/// extended to the whole class (the message exchange's final gather must
/// publish the buffer that rotated *into* a read-only slot too).
pub(crate) fn prepare_rotated<const R: usize>(
    program: &Program<R>,
    nest: &CompiledNest<R>,
    kernel_mode: KernelMode,
    rotate: &[(ArrayId, ArrayId)],
) -> NestPrep<R> {
    let mut prep = prepare(program, nest, kernel_mode);
    if rotate.is_empty() {
        return prep;
    }
    // Union-find is overkill for a handful of pairs: iterate the
    // closure until margins/flags stop changing (a permutation's
    // cycles are short).
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in rotate {
            for k in 0..R {
                let m = prep.margins[a][k].max(prep.margins[b][k]);
                if prep.margins[a][k] != m || prep.margins[b][k] != m {
                    prep.margins[a][k] = m;
                    prep.margins[b][k] = m;
                    changed = true;
                }
            }
            let r = prep.referenced[a] || prep.referenced[b];
            if prep.referenced[a] != r || prep.referenced[b] != r {
                prep.referenced[a] = r;
                prep.referenced[b] = r;
                changed = true;
            }
        }
    }
    close_under_rotation(&mut prep.written, rotate);
    prep
}

/// Whether a loop body (with its rotation, possibly empty) can run
/// inside the fused multi-iteration engine invocation.
///
/// *Primed* reads are never a hazard: every sweep's own flow waits (or
/// messages) deliver the boundary they name. The staleness hazard is an
/// **unprimed read at a non-zero shift of an array whose values change
/// between iterations** (written by the nest, or swapped in by the
/// rotation): iteration k+1 would read a neighbour-owned row that the
/// neighbour has not brought up to iteration k yet (in place) or that
/// nobody re-sends (messages). Unprimed reads at shift zero stay inside
/// the owned slab (always locally fresh), and arrays the loop never
/// changes can be read at any shift.
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

/// Whether a statement of `nest` assigns to array `id`.
fn writes<const R: usize>(nest: &CompiledNest<R>, id: ArrayId) -> bool {
    nest.stmts.iter().any(|s| s.lhs == id)
}

/// Which exchange a run uses: in place wherever that is legal, messages
/// otherwise. A pure function of its arguments — the nest, its plan, its
/// lowering, the geometry of the arrays and the rotation — never of an
/// option.
///
/// In-place execution is legal when every access a cell makes to an
/// element another cell writes is ordered against that write by the
/// progress counters:
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
///   previous sweep's reads (see [`drain_readers`]).
///
/// The interpreter needs a whole `&mut Store`, and a rotation between
/// differently shaped arrays would need a kernel binding per sweep;
/// both keep the message exchange.
pub(crate) fn choose_handoff<const R: usize>(
    nest: &CompiledNest<R>,
    plan: &WavefrontPlan<R>,
    prep: &NestPrep<R>,
    store: &Store<R>,
    rotate: &[(ArrayId, ArrayId)],
) -> Handoff {
    if !prep.runner.is_compiled() {
        return Handoff::Message(MessageReason::InterpreterTier);
    }
    let same_shape = |a: ArrayId, b: ArrayId| {
        let (a, b) = (store.get(a), store.get(b));
        a.bounds() == b.bounds() && a.layout() == b.layout()
    };
    if !rotate.iter().all(|&(a, b)| same_shape(a, b)) {
        return Handoff::Message(MessageReason::RotationShapes);
    }
    let direction = |ascending: bool| if ascending { 1 } else { -1 };
    let uncovered = nest.stmts.iter().flat_map(|s| s.rhs.reads()).any(|r| {
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
    });
    if uncovered {
        return Handoff::Message(MessageReason::AntiDependence);
    }
    Handoff::InPlace
}

/// Per active cell, the cells that read its rows: every other active
/// cell some shifted read of a written array reaches it from. Before a
/// cell overwrites a tile in sweep `i + 1` it waits until these have
/// finished, in sweep `i`, the last tile that reads that tile's columns
/// ([`drain_reach`]). Immediate neighbours in the usual case; further
/// cells when a cell owns fewer rows than a boundary is thick, diagonal
/// ones when a read crosses both axes of a mesh.
fn drain_readers<const R: usize>(
    nest: &CompiledNest<R>,
    plan: &WavefrontPlan<R>,
    cells: &[usize],
) -> Vec<Vec<usize>> {
    let shifts: Vec<_> = nest
        .stmts
        .iter()
        .flat_map(|s| s.rhs.reads())
        .filter(|r| writes(nest, r.id))
        .map(|r| r.shift)
        .collect();
    let owned: Vec<Region<R>> = cells.iter().map(|&c| plan.dist.owned(c)).collect();
    let reads_from = |reader: &Region<R>, source: &Region<R>| {
        shifts.iter().any(|s| {
            plan.axes.iter().all(|a| {
                let d = a.dim;
                reader.lo()[d] + s[d] <= source.hi()[d] && source.lo()[d] <= reader.hi()[d] + s[d]
            })
        })
    };
    (0..cells.len())
        .map(|c| {
            (0..cells.len())
                .filter(|&r| r != c && reads_from(&owned[r], &owned[c]))
                .collect()
        })
        .collect()
}

/// Per tile, the index of the last tile whose reads reach this tile's
/// columns: a read shifted along the tile dimension (a diagonal primed
/// read) makes tile `t + 1` of a neighbour read tile `t`'s columns, so
/// the drain wait for `t` is widened to it. The reach is the widest
/// margin [`WavefrontPlan::boundary_slab`] is called with along the tile
/// dimension.
fn drain_reach<const R: usize>(plan: &WavefrontPlan<R>) -> Vec<usize> {
    let Some(k) = plan.tile_dim else {
        return vec![0; plan.tiles.len()];
    };
    let reach = plan
        .axes
        .iter()
        .flat_map(|a| &a.comm)
        .map(|&(id, _)| plan.margins[id][k])
        .max()
        .unwrap_or(0);
    // Tile extents along `k` in execution order, as increasing numbers.
    let span = |t: &Region<R>| {
        if plan.tile_ascending {
            (t.lo()[k], t.hi()[k])
        } else {
            (-t.hi()[k], -t.lo()[k])
        }
    };
    let mut last = 0;
    plan.tiles
        .iter()
        .enumerate()
        .map(|(t, tile)| {
            last = last.max(t);
            while last + 1 < plan.tiles.len()
                && span(&plan.tiles[last + 1]).0 - reach <= span(tile).1
            {
                last += 1;
            }
            last
        })
        .collect()
}

/// Serialize the per-array boundary slabs `owner` sends along `axis` for
/// `tile` into `out` (cleared first; reusing the buffer keeps the
/// steady-state exchange allocation-free). A processor owning fewer
/// indices than an array's thickness relays the ghost values it received
/// from further upstream (the slab is clamped to the covering region,
/// not to the owner).
fn encode_into<const R: usize>(
    plan: &WavefrontPlan<R>,
    local: &Store<R>,
    owner: Region<R>,
    tile: &Region<R>,
    axis: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    for &(id, t) in &plan.axes[axis].comm {
        let region = plan.boundary_slab(owner, tile, axis, t, plan.margins[id]);
        let arr = local.get(id);
        for p in region.iter() {
            out.push(arr.get(p));
        }
    }
}

/// Inverse of [`encode_into`]: write the boundary slabs (computed from
/// the upstream neighbour's owned region) into the local ghost margins.
fn decode<const R: usize>(
    plan: &WavefrontPlan<R>,
    local: &mut Store<R>,
    upstream_owned: Region<R>,
    tile: &Region<R>,
    axis: usize,
    data: &[f64],
) {
    let mut it = data.iter();
    for &(id, t) in &plan.axes[axis].comm {
        let region = plan.boundary_slab(upstream_owned, tile, axis, t, plan.margins[id]);
        let arr = local.get_mut(id);
        for p in region.iter() {
            arr.set(p, *it.next().expect("message shorter than its region"));
        }
    }
    debug_assert!(it.next().is_none(), "message longer than its region");
}

/// Build the local store of one rank for the message exchange:
/// referenced arrays cover the owned region expanded by the read margins
/// (clamped to declared bounds), initialized from the global store;
/// unreferenced arrays are empty.
fn build_local<const R: usize>(
    program: &Program<R>,
    prep: &NestPrep<R>,
    store: &Store<R>,
    owned: Region<R>,
) -> Store<R> {
    let arrays = program
        .arrays()
        .iter()
        .enumerate()
        .map(|(id, decl)| {
            if !prep.referenced.get(id).copied().unwrap_or(false) || owned.is_empty() {
                return DenseArray::with_layout(Region::empty(), decl.layout, 0.0);
            }
            let mut lo = owned.lo();
            let mut hi = owned.hi();
            let margin = prep.margins.get(id).copied().unwrap_or([0; R]);
            for k in 0..R {
                lo[k] -= margin[k];
                hi[k] += margin[k];
            }
            let bounds = Region::rect(lo, hi).intersect(&decl.bounds);
            let mut arr = DenseArray::with_layout(bounds, decl.layout, 0.0);
            arr.copy_region_from(store.get(id), bounds);
            arr
        })
        .collect();
    Store::from_arrays(arrays)
}

/// Depth of each inter-rank data channel of the message exchange.
/// Bounding the in-flight message count is what makes buffer recycling
/// effective: a sender can be at most `LINK_DEPTH` tiles ahead of its
/// receiver, so at most `LINK_DEPTH + 2` buffers per link ever exist (in
/// flight, being filled, being drained) regardless of how many tiles the
/// run has. There is no deadlock risk: blocked sends only ever wait on
/// strictly downstream ranks, and the last rank never sends.
pub(crate) const LINK_DEPTH: usize = 4;

/// One cell's channel endpoints along one axis. Data flows downstream
/// through a bounded channel; drained buffers flow back upstream through
/// an unbounded recycle channel, so the steady state reuses a fixed pool
/// instead of allocating a fresh `Vec` per tile message.
#[derive(Default)]
struct Port<const R: usize> {
    /// Boundary data from the upstream neighbour, with its owned region.
    rx: Option<(Receiver<Vec<f64>>, Region<R>)>,
    /// Drained buffers back to the upstream neighbour.
    ret: Option<Sender<Vec<f64>>>,
    /// Boundary data to the downstream neighbour.
    tx: Option<SyncSender<Vec<f64>>>,
    /// Recycled buffers from the downstream neighbour.
    pool: Option<Receiver<Vec<f64>>>,
}

/// Apply one rotation step to a store: the buffer in slot `from` moves
/// to slot `to` for every pair at once (the pairs form a permutation,
/// validated upstream). Pure slot surgery — no copies.
fn rotate_slots<const R: usize>(local: &mut Store<R>, rotate: &[(ArrayId, ArrayId)]) {
    if rotate.is_empty() {
        return;
    }
    let arrays = local.arrays_mut();
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

/// What one cell's task hands back: messages sent (or stood for),
/// buffered events, the busy span of each sweep, and — message exchange
/// only — its local store (for the gather) with its fresh-buffer count.
struct CellRun<const R: usize> {
    sent: usize,
    evs: Vec<WorkerEv>,
    spans: Vec<(f64, f64)>,
    local: Option<(Store<R>, usize)>,
}

/// What every cell's task of one run shares.
struct RunCtx<const R: usize> {
    nest: Arc<CompiledNest<R>>,
    plan: Arc<WavefrontPlan<R>>,
    prep: Arc<NestPrep<R>>,
    iters: usize,
    rotate: Vec<(ArrayId, ArrayId)>,
    /// The no-overlap ablation: every cell waits here after each
    /// iteration, flattening the staircase back to lock-step.
    barrier: Option<Barrier>,
    epoch: Instant,
    enabled: bool,
    #[cfg(test)]
    tile_hook: Option<test_hooks::TileHook>,
}

/// How one cell learns that a tile's inputs are in place, runs it, and
/// lets its neighbours know the outputs are: the part of the worker loop
/// the two hand-offs differ in.
trait Exchange<const R: usize> {
    /// Start sweep `it`: apply the rotation (after the first sweep) and
    /// whatever per-sweep set-up the kernel needs.
    fn begin_sweep(&mut self, it: usize);
    /// Block until `tile` (index `ti` of sweep `it`) may run.
    fn wait(&mut self, it: usize, ti: usize, tile: &Region<R>, rec: &mut Recorder);
    /// Run the nest over `sub`, this cell's part of the current tile.
    fn run(&mut self, sub: Region<R>);
    /// Make the tile's boundary available downstream. Returns the
    /// number of boundary messages that was.
    fn post(&mut self, it: usize, ti: usize, tile: &Region<R>, rec: &mut Recorder) -> usize;
}

/// The message exchange: a local store with ghost margins, boundary
/// buffers over channels.
struct MessageExchange<'a, const R: usize> {
    ctx: &'a RunCtx<R>,
    owned: Region<R>,
    local: Store<R>,
    ports: Vec<Port<R>>,
    bound: Option<BoundKernel<R>>,
    /// Buffers allocated because the recycle pool was empty.
    fresh: usize,
}

impl<const R: usize> Exchange<R> for MessageExchange<'_, R> {
    fn begin_sweep(&mut self, it: usize) {
        if it > 0 {
            rotate_slots(&mut self.local, &self.ctx.rotate);
        }
        // Resolve the kernel against this cell's local geometry once
        // per sweep; every tile reuses the binding. Buffers may have
        // moved between slots since the last sweep (shapes within a
        // rotation class are identical, but base addresses are not).
        self.bound = self.ctx.prep.runner.bind(&self.local, &self.ctx.plan.order);
    }

    fn wait(&mut self, _it: usize, _ti: usize, tile: &Region<R>, rec: &mut Recorder) {
        for (axis, port) in self.ports.iter().enumerate() {
            let Some((rx, upstream_owned)) = &port.rx else {
                continue;
            };
            let wait_start = rec.stamp();
            let data = rx.recv().expect("upstream hung up mid-wave");
            if let Some(wait_start) = wait_start {
                let at = rec.now();
                rec.push(WorkerEv::Recv {
                    axis,
                    wait_start,
                    at,
                });
            }
            decode(
                &self.ctx.plan,
                &mut self.local,
                *upstream_owned,
                tile,
                axis,
                &data,
            );
            // Hand the drained buffer back upstream; the sender may
            // already be gone at the tail.
            if let Some(ret) = &port.ret {
                let _ = ret.send(data);
            }
        }
    }

    fn run(&mut self, sub: Region<R>) {
        let ctx = self.ctx;
        ctx.prep.runner.run_tile(
            &ctx.nest,
            self.bound.as_ref(),
            sub,
            &ctx.plan.order,
            &mut self.local,
        );
    }

    fn post(&mut self, _it: usize, ti: usize, tile: &Region<R>, rec: &mut Recorder) -> usize {
        let mut sent = 0;
        for (axis, port) in self.ports.iter().enumerate() {
            let Some(tx) = &port.tx else { continue };
            let mut data = match port.pool.as_ref().and_then(|p| p.try_recv().ok()) {
                Some(buf) => buf,
                None => {
                    self.fresh += 1;
                    Vec::new()
                }
            };
            encode_into(
                &self.ctx.plan,
                &self.local,
                self.owned,
                tile,
                axis,
                &mut data,
            );
            if let Some(at) = rec.stamp() {
                rec.push(WorkerEv::Sent {
                    axis,
                    tile: ti,
                    elems: data.len(),
                    at,
                });
            }
            tx.send(data).expect("downstream hung up mid-wave");
            sent += 1;
        }
        sent
    }
}

/// One thing an in-place cell waits for before a tile.
struct Await {
    on: Arc<Progress>,
    /// `Some(axis)`: the upstream neighbour along `axis` must have
    /// completed the *same* tile (flow). `None`: a reader of this cell's
    /// rows must have finished with them in the *previous* sweep
    /// (drain).
    flow: Option<usize>,
}

/// The in-place exchange: cell views of the caller's arrays, progress
/// counters instead of messages.
struct InPlaceExchange<'a, const R: usize> {
    ctx: &'a RunCtx<R>,
    owned: Region<R>,
    /// Per array id, the view currently bound to that name (a rotation
    /// permutes the table, never the buffers).
    arrays: Vec<&'a [Cell<f64>]>,
    bound: &'a BoundKernel<R>,
    me: &'a Progress,
    awaits: &'a [Await],
    /// See [`drain_reach`].
    reach: &'a [usize],
    /// Axes along which a downstream neighbour waits on `me`: the links
    /// each post stands for a message on.
    down: &'a [usize],
}

impl<const R: usize> Exchange<R> for InPlaceExchange<'_, R> {
    fn begin_sweep(&mut self, it: usize) {
        if it > 0 {
            let moved: Vec<&[Cell<f64>]> = self
                .ctx
                .rotate
                .iter()
                .map(|&(from, _)| self.arrays[from])
                .collect();
            for (&(_, to), view) in self.ctx.rotate.iter().zip(moved) {
                self.arrays[to] = view;
            }
        }
    }

    fn wait(&mut self, it: usize, ti: usize, _tile: &Region<R>, rec: &mut Recorder) {
        let tiles = self.ctx.plan.tiles.len();
        for a in self.awaits {
            let target = match a.flow {
                Some(_) => it * tiles + ti + 1,
                None if it == 0 => continue,
                None => (it - 1) * tiles + self.reach[ti] + 1,
            };
            let start = rec.stamp();
            a.on.wait(target as u64)
                .expect("a neighbouring cell panicked mid-wave");
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
    }

    fn run(&mut self, sub: Region<R>) {
        self.ctx
            .prep
            .runner
            .run_tile_cells(self.bound, sub, &self.arrays);
    }

    fn post(&mut self, it: usize, ti: usize, tile: &Region<R>, rec: &mut Recorder) -> usize {
        // Stamped before the post, so every arrival it causes is later.
        if let Some(at) = rec.stamp() {
            for &axis in self.down {
                let elems = self.ctx.plan.msg_elems(self.owned, tile, axis);
                rec.push(WorkerEv::Sent {
                    axis,
                    tile: ti,
                    elems,
                    at,
                });
            }
        }
        self.me
            .post((it * self.ctx.plan.tiles.len() + ti + 1) as u64);
        self.down.len()
    }
}

/// The worker loop, one per active cell, the same for both exchanges:
/// for every sweep, for every tile — wait, run, post.
///
/// Across iterations the paper's fill/steady/drain staircase is lifted
/// one level up: a cell that has drained its tiles of iteration *k*
/// immediately starts iteration *k+1*. Waits point upstream within a
/// sweep and at a strictly earlier tile number across sweeps, so the
/// schedule is deadlock-free for any `iters`; the message exchange's
/// bounded channels carry the next iteration's slabs right behind the
/// current one (same order both ends, so no tagging is needed).
#[cfg_attr(not(test), allow(unused_variables))]
fn run_cell<const R: usize>(
    ex: &mut impl Exchange<R>,
    ctx: &RunCtx<R>,
    cell: usize,
    owned: Region<R>,
) -> CellRun<R> {
    let mut rec = Recorder {
        epoch: ctx.epoch,
        evs: ctx.enabled.then(Vec::new),
    };
    let mut sent = 0usize;
    let mut spans: Vec<(f64, f64)> = Vec::with_capacity(ctx.iters);
    for it in 0..ctx.iters {
        if it > 0 {
            if let Some(b) = &ctx.barrier {
                b.wait();
            }
        }
        ex.begin_sweep(it);
        let span_start = rec.now();
        for (ti, tile) in ctx.plan.tiles.iter().enumerate() {
            ex.wait(it, ti, tile, &mut rec);
            let sub = owned.intersect(tile);
            if !sub.is_empty() {
                #[cfg(test)]
                if let Some(hook) = &ctx.tile_hook {
                    hook(cell, it * ctx.plan.tiles.len() + ti);
                }
                let start = rec.stamp();
                ex.run(sub);
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
            sent += ex.post(it, ti, tile, &mut rec);
        }
        spans.push((span_start, rec.now()));
    }
    CellRun {
        sent,
        evs: rec.evs.unwrap_or_default(),
        spans,
        local: None,
    }
}

/// [`execute_threaded`] for one sweep with the kernel prep built fresh:
/// the convenience the adaptive tuner uses to share one pool across its
/// probe and remainder phases. Repeated runs should go through
/// [`crate::service::WavefrontService`], which caches the prep.
pub(crate) fn execute_plan_threaded<const R: usize>(
    workers: &WorkerPool,
    program: &Program<R>,
    nest: &CompiledNest<R>,
    plan: &WavefrontPlan<R>,
    store: &mut Store<R>,
    collector: &mut dyn Collector,
    kernel_mode: KernelMode,
) -> ThreadReport {
    let nest = Arc::new(nest.clone());
    let plan = Arc::new(plan.clone());
    let prep = Arc::new(prepare(program, &nest, kernel_mode));
    execute_threaded(
        workers,
        program,
        &nest,
        &plan,
        &prep,
        store,
        1,
        &[],
        true,
        collector,
    )
}

/// The threaded engine: run `iters` whole sweeps of `nest` under `plan`
/// on real threads inside **one** invocation, updating `store` and
/// reporting telemetry to `collector`. A one-shot run is `iters = 1`, no
/// rotation. Results are bit-identical to running the sweeps back to
/// back sequentially.
///
/// One task per active cell is dispatched onto a persistent
/// [`WorkerPool`] and joined on a result channel (a plan with a single
/// active cell runs its task on the calling thread instead and never
/// touches the pool). Tasks capture only `Arc`-shared state and owned
/// endpoints, so they are `'static` and need no scoped spawn; the pool's
/// threads are parked between runs instead of re-created. A panicking
/// task cascades — its poisoned progress counter, or its disconnected
/// channels, fail its neighbours' waits — until every result sender is
/// dropped, which surfaces here as a `recv` failure: the caller sees the
/// panic only after every task has ended.
///
/// [`choose_handoff`] picks the exchange (see the module docs). `rotate`
/// renames buffers between iterations (use [`prepare_rotated`] for the
/// prep, and only with a body [`rotation_fusible`] accepts);
/// `pipelined: false` inserts a full barrier between iterations, the
/// ablation the timestep bench's overlap gate catches.
///
/// Workers buffer telemetry in thread-local vectors (timestamps relative
/// to a shared epoch) and the stream is replayed into the collector
/// after the join; with a disabled collector they read no timers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_threaded<const R: usize>(
    workers: &WorkerPool,
    program: &Program<R>,
    nest: &Arc<CompiledNest<R>>,
    plan: &Arc<WavefrontPlan<R>>,
    prep: &Arc<NestPrep<R>>,
    store: &mut Store<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    pipelined: bool,
    collector: &mut dyn Collector,
) -> ThreadReport {
    assert!(
        nest.buffered.is_empty(),
        "buffered nests carry no wavefront and are never planned"
    );
    assert!(iters >= 1, "a run sweeps at least once");
    // Both exchanges deliver only this sweep's values across cells; a
    // body that reads last sweep's from a neighbour cannot be fused.
    assert!(
        iters == 1 || rotation_fusible(nest, rotate),
        "a fused run needs a body `rotation_fusible` accepts"
    );
    let handoff = choose_handoff(nest, plan, prep, store, rotate);
    let enabled = collector.enabled();
    // Only cells owning data participate.
    let cells: Vec<usize> = plan.active_cells();
    if enabled {
        collector.begin(&RunMeta {
            engine: EngineKind::Threads,
            procs: plan.procs(),
            active: cells.clone(),
            tiles: plan.tiles.len(),
            block: plan.block,
            pipelined: plan.is_pipelined(),
            machine: "host".to_string(),
            time_unit: TimeUnit::Seconds,
            predicted: plan.predicted_traffic(),
        });
    }
    let n = cells.len();
    let mut report = ThreadReport {
        elapsed: Duration::ZERO,
        messages: 0,
        buffer_allocs: 0,
        spans: Vec::with_capacity(n),
        handoff,
    };
    if n == 0 {
        if enabled {
            collector.end(0.0);
        }
        return report;
    }

    // A link exists per axis with communicated arrays and per adjacent
    // pair of active cells; cells are addressed by active-cell index.
    let mut index: Vec<Option<usize>> = vec![None; plan.procs()];
    for (i, &rank) in cells.iter().enumerate() {
        index[rank] = Some(i);
    }
    let linked = |rank: Option<usize>, axis: usize| -> Option<usize> {
        rank.and_then(|r| index[r])
            .filter(|_| !plan.axes[axis].comm.is_empty())
    };

    let (res_tx, res_rx) = channel::<(usize, CellRun<R>)>();
    let ctx = Arc::new(RunCtx {
        nest: Arc::clone(nest),
        plan: Arc::clone(plan),
        prep: Arc::clone(prep),
        iters,
        rotate: rotate.to_vec(),
        barrier: (!pipelined).then(|| Barrier::new(n)),
        epoch: Instant::now(),
        enabled,
        #[cfg(test)]
        tile_hook: test_hooks::current(),
    });
    match handoff {
        Handoff::Message(_) => {
            // Scatter once, on this thread — workers receive everything
            // they need by value or behind an `Arc`; the locals stay
            // resident across all iterations.
            let locals: Vec<Store<R>> = cells
                .iter()
                .map(|&r| build_local(program, prep, store, plan.dist.owned(r)))
                .collect();
            let mut ports: Vec<Vec<Port<R>>> = (0..n)
                .map(|_| plan.axes.iter().map(|_| Port::default()).collect())
                .collect();
            for (i, &rank) in cells.iter().enumerate() {
                for axis in 0..plan.axes.len() {
                    let Some(d) = linked(plan.downstream(rank, axis), axis) else {
                        continue;
                    };
                    let (tx, rx) = sync_channel(LINK_DEPTH);
                    let (rtx, rrx) = channel();
                    ports[i][axis].tx = Some(tx);
                    ports[i][axis].pool = Some(rrx);
                    ports[d][axis].rx = Some((rx, plan.dist.owned(rank)));
                    ports[d][axis].ret = Some(rtx);
                }
            }
            // All cells of one run rendezvous through bounded channels,
            // so the pool must hold one worker per cell before dispatch.
            workers.ensure_workers(n);
            for (i, ((&rank, local), ports)) in cells.iter().zip(locals).zip(ports).enumerate() {
                let owned = plan.dist.owned(rank);
                let ctx = Arc::clone(&ctx);
                let res_tx = res_tx.clone();
                workers.execute(Box::new(move || {
                    let mut ex = MessageExchange {
                        ctx: &ctx,
                        owned,
                        local,
                        ports,
                        bound: None,
                        fresh: 0,
                    };
                    let mut run = run_cell(&mut ex, &ctx, i, owned);
                    run.local = Some((ex.local, ex.fresh));
                    let _ = res_tx.send((i, run));
                }));
            }
        }
        Handoff::InPlace => {
            // Everything that needs `&mut store` happens here, before
            // the first task starts: the one copy-on-write break of
            // each array the run writes, and the kernel binding. The
            // written set is closed under the rotation here rather than
            // trusted from `prep`: obligation (1) below rests on it.
            let mut written = prep.written.clone();
            close_under_rotation(&mut written, rotate);
            let bound = Arc::new(
                prep.runner
                    .bind(store, &plan.order)
                    .expect("in-place runs are compiled"),
            );
            let shared: Arc<Vec<SharedCells>> = Arc::new(
                store
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
                    .collect(),
            );
            let progress: Vec<Arc<Progress>> = (0..n).map(|_| Arc::new(Progress::new())).collect();
            // Drain waits exist only between sweeps.
            let (readers, reach) = if iters > 1 {
                (drain_readers(nest, plan, &cells), drain_reach(plan))
            } else {
                (vec![Vec::new(); n], Vec::new())
            };
            let reach = Arc::new(reach);
            if n > 1 {
                // A cell may wait on any other, so each needs a worker.
                workers.ensure_workers(n);
            }
            for (i, (&rank, readers)) in cells.iter().zip(readers).enumerate() {
                let owned = plan.dist.owned(rank);
                let axes = 0..plan.axes.len();
                let awaits: Vec<Await> = readers
                    .into_iter()
                    .map(|r| Await {
                        on: Arc::clone(&progress[r]),
                        flow: None,
                    })
                    .chain(axes.clone().filter_map(|axis| {
                        let up = linked(plan.upstream(rank, axis), axis)?;
                        Some(Await {
                            on: Arc::clone(&progress[up]),
                            flow: Some(axis),
                        })
                    }))
                    .collect();
                let down: Vec<usize> = axes
                    .filter(|&axis| linked(plan.downstream(rank, axis), axis).is_some())
                    .collect();
                let me = Arc::clone(&progress[i]);
                let (ctx, bound, shared, reach) = (
                    Arc::clone(&ctx),
                    Arc::clone(&bound),
                    Arc::clone(&shared),
                    Arc::clone(&reach),
                );
                let res_tx = res_tx.clone();
                let task = move || {
                    let _poison = me.poison_on_panic();
                    let run = {
                        // SAFETY: `SharedCells::cells` asks three things
                        // of this run; (1)–(4) below discharge them.
                        //
                        // (1) Unique and untouched. Every array a sweep
                        //   can write (`written`: the nest's left-hand
                        //   sides, closed under the rotation) was made
                        //   unique by `share_for_write` on the calling
                        //   thread before dispatch — the one
                        //   copy-on-write break, billed as any first
                        //   write is. All other arrays were shared
                        //   `for_read`: only viewed, never
                        //   `as_mut_slice`d, never `set` — the kernels
                        //   `set` only statement left-hand sides, under
                        //   whatever name the rotation gives them, all
                        //   of which are in `written`.
                        // (2) No unordered conflict. Two cells never
                        //   write one element: each writes only
                        //   `owned ∩ tile`, and owned regions partition
                        //   the covering region. A cell reads an
                        //   element another cell writes only (flow)
                        //   after the Acquire load in `Progress::wait`
                        //   that pairs with the writer's Release
                        //   `post` of that tile — directly or through
                        //   the chain of upstream waits — or (anti)
                        //   before its own post, which the writer's
                        //   flow wait lets it start after; across
                        //   sweeps, a cell overwrites a tile only after
                        //   the drain wait on every reader of its rows.
                        //   `choose_handoff` admits only nests for
                        //   which these cover every cross-cell access,
                        //   and names the cases.
                        // (3) The store stays put. The calling thread
                        //   does nothing with `store` between dispatch
                        //   and the join below, and the join's `recv`
                        //   fails only when *every* task has dropped
                        //   its sender — i.e. has ended, normally or by
                        //   panic — so the store is neither touched nor
                        //   returned while a view exists, including
                        //   when a worker panicked.
                        // (4) Views do not outlive the call. They
                        //   borrow `shared`, live inside this block,
                        //   and are gone before the result is sent.
                        let arrays: Vec<&[Cell<f64>]> =
                            shared.iter().map(|s| unsafe { s.cells() }).collect();
                        let mut ex = InPlaceExchange {
                            ctx: &ctx,
                            owned,
                            arrays,
                            bound: &bound,
                            me: &me,
                            awaits: &awaits,
                            reach: &reach,
                            down: &down,
                        };
                        run_cell(&mut ex, &ctx, i, owned)
                    };
                    let _ = res_tx.send((i, run));
                };
                if n == 1 {
                    task();
                } else {
                    workers.execute(Box::new(task));
                }
            }
        }
    }
    drop(res_tx);
    // Join: exactly one result per cell, arriving in completion order.
    // `recv` fails only once every sender is gone, so a failure means a
    // worker died *and every other task has ended too* — obligation (3)
    // of the SAFETY argument above rests on this.
    let mut slots: Vec<Option<CellRun<R>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, run) = res_rx.recv().expect("worker panicked");
        slots[i] = Some(run);
    }
    report.elapsed = ctx.epoch.elapsed();
    let mut events: Vec<Vec<WorkerEv>> = Vec::with_capacity(n);
    let mut locals: Vec<Store<R>> = Vec::new();
    for slot in slots {
        let run = slot.expect("every cell reports exactly once");
        report.messages += run.sent;
        report.spans.push(run.spans);
        events.push(run.evs);
        if let Some((local, fresh)) = run.local {
            report.buffer_allocs += fresh;
            locals.push(local);
        }
    }

    if enabled {
        replay(
            collector,
            plan,
            &cells,
            &index,
            &events,
            report.elapsed.as_secs_f64(),
        );
    }

    // A rotation renames *whole buffers* — border cells the sweep never
    // writes travel with their buffer, exactly as on the per-step path
    // where the dispatcher re-binds physical buffers between jobs. The
    // caller's slots therefore rotate in step with the workers' (their
    // locals, or their view tables).
    for _ in 1..iters {
        rotate_slots(store, rotate);
    }

    // Message exchange only — gather once: copy each cell's owned
    // portion of every written array back. `prep.written` includes
    // every rotation-class member (see `prepare_rotated`), so the buffer
    // that rotated into a read-only slot is published too.
    for (&rank, local) in cells.iter().zip(&locals) {
        let owned = plan.dist.owned(rank);
        for &id in &prep.written {
            store.get_mut(id).copy_region_from(local.get(id), owned);
        }
    }
    report
}

/// Replay buffered worker events into the collector: blocks and waits
/// directly, messages by pairing each (cell, axis) send stream with the
/// downstream cell's same-axis receive stream (both are in tile order).
fn replay<const R: usize>(
    collector: &mut dyn Collector,
    plan: &WavefrontPlan<R>,
    cells: &[usize],
    index: &[Option<usize>],
    events: &[Vec<WorkerEv>],
    makespan: f64,
) {
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
    for (&rank, evs) in cells.iter().zip(events) {
        for axis in 0..plan.axes.len() {
            let Some((to, to_events)) = plan
                .downstream(rank, axis)
                .and_then(|d| Some((d, &events[index[d]?])))
            else {
                continue;
            };
            let sends = evs.iter().filter_map(|e| match *e {
                WorkerEv::Sent {
                    axis: a,
                    tile,
                    elems,
                    at,
                } if a == axis => Some((tile, elems, at)),
                _ => None,
            });
            let recvs = to_events.iter().filter_map(|e| match *e {
                WorkerEv::Recv { axis: a, at, .. } if a == axis => Some(at),
                _ => None,
            });
            for ((tile, elems, sent_at), recv_at) in sends.zip(recvs) {
                collector.message(MessageEvent {
                    from: rank,
                    to,
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
}

#[cfg(test)]
mod handoff_tests;

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

    fn run_mode<const R: usize>(
        program: &Program<R>,
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
        kernel_mode: KernelMode,
    ) -> ThreadReport {
        let workers = WorkerPool::new();
        execute_plan_threaded(
            &workers,
            program,
            nest,
            plan,
            store,
            &mut NoopCollector,
            kernel_mode,
        )
    }

    fn run<const R: usize>(
        program: &Program<R>,
        nest: &CompiledNest<R>,
        plan: &WavefrontPlan<R>,
        store: &mut Store<R>,
    ) -> ThreadReport {
        run_mode(program, nest, plan, store, KernelMode::Lanes)
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
                let report = run(&program, &nest, &plan, &mut store);
                for id in 0..store.len() {
                    assert!(
                        store.get(id).region_eq(reference.get(id), nest.region),
                        "array {id} differs at p={p} b={b}"
                    );
                }
                assert_eq!(report.handoff, Handoff::InPlace);
                assert_eq!(report.buffer_allocs, 0, "in place there are no buffers");
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
        let report = run(&program, &nest, &plan, &mut store);
        // 39 columns of covering region in tiles of 10 → 4 tiles; 3 links.
        assert_eq!(report.messages, 4 * 3);
    }

    #[test]
    fn steady_state_exchange_reuses_buffers() {
        // b = 1 maximizes message count; the buffer pool must stay
        // bounded by the channel depth, not grow with the tile count.
        // The interpreter tier is what takes the message exchange.
        let (program, nest) = tomcatv_nest(120);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(1), &t3e())
                .unwrap();
        let mut store = init_tomcatv(&program);
        let report = run_mode(&program, &nest, &plan, &mut store, KernelMode::Interpreted);
        assert_eq!(
            report.handoff,
            Handoff::Message(MessageReason::InterpreterTier)
        );
        assert!(report.messages >= 100 * 3, "messages = {}", report.messages);
        assert!(
            report.buffer_allocs <= (LINK_DEPTH + 2) * 3,
            "buffer_allocs = {} for {} messages",
            report.buffer_allocs,
            report.messages
        );
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
        let report = run_mode(&program, &nest, &plan, &mut store, KernelMode::Interpreted);
        assert_eq!(
            report.handoff,
            Handoff::Message(MessageReason::InterpreterTier)
        );
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
        let report = run(&program, &nest, &plan, &mut store);
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
            run(&prog, nest, &plan, &mut store);
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
        run(&program, &nest, &plan, &mut store);
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
        run(&prog, nest, &plan, &mut store);
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
            let report = run(&program, &nest, &plan, &mut store);
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
    fn steady_state_mesh_exchange_reuses_buffers() {
        // Long pipeline (many tiles per link) on a 2x2 mesh: the recycle
        // loop must cap fresh allocations per link regardless of tile
        // count. 4 links exist (two per axis).
        let (program, nest) = sweep_nest(48);
        let plan = mesh_plan(&nest, [2, 2], 1);
        let mut store = init_sweep(&program);
        let report = run_mode(&program, &nest, &plan, &mut store, KernelMode::Interpreted);
        assert_eq!(
            report.handoff,
            Handoff::Message(MessageReason::InterpreterTier)
        );
        assert!(report.messages >= 150, "messages = {}", report.messages);
        assert!(
            report.buffer_allocs <= (LINK_DEPTH + 2) * 4,
            "buffer_allocs = {} for {} messages",
            report.buffer_allocs,
            report.messages
        );
    }

    #[test]
    fn kernels_disabled_mesh_still_matches_sequential() {
        let (program, nest) = sweep_nest(13);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan = mesh_plan(&nest, [2, 3], 3);
        let mut store = init_sweep(&program);
        run_mode(&program, &nest, &plan, &mut store, KernelMode::Interpreted);
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
            run(&p, &nest, &plan, &mut store);
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
        run(&program, &nest, &plan, &mut store);
        let flux = 0;
        assert!(store.get(flux).region_eq(reference.get(flux), nest.region));
    }
}
