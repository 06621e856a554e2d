//! Real multithreaded, message-passing execution of a plan.
//!
//! Each processor of the plan becomes an OS thread owning *local* arrays
//! covering its portion of the data space plus ghost margins (global
//! index coordinates, so no translation is needed). Boundary values flow
//! downstream through channels, one message per tile, exactly as in the
//! paper's pipelined implementation (Figure 4(b)); with
//! [`crate::schedule::BlockPolicy::FullPortion`] the same code degenerates
//! to the naive schedule of Figure 4(a).
//!
//! This runtime plays the role of the paper's hand-pipelined Fortran+MPI
//! codes: genuinely parallel execution with explicit communication, used
//! by the benchmarks to demonstrate real wall-clock pipelining speedup.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wavefront_core::array::DenseArray;
use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::kernel::{KernelMode, NestRunner};
use wavefront_core::program::{Program, Store};
use wavefront_core::region::Region;

use crate::plan::{read_margins, WavefrontPlan};
use crate::service::pool::WorkerPool;
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, RunMeta, TimeUnit, WaitEvent,
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
    Sent {
        axis: usize,
        tile: usize,
        elems: usize,
        at: f64,
    },
    Recv {
        axis: usize,
        wait_start: f64,
        at: f64,
    },
}

/// Outcome of a threaded execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThreadReport {
    /// Wall-clock time of the parallel section (excluding the initial
    /// scatter and final gather).
    pub(crate) elapsed: Duration,
    /// Number of boundary messages exchanged.
    pub(crate) messages: usize,
    /// Number of message buffers freshly allocated (as opposed to reused
    /// from the recycle pool). Bounded by the per-link channel depth, not
    /// by the tile count: steady-state exchange allocates nothing.
    pub(crate) buffer_allocs: usize,
    /// `spans[cell][iteration] = (start, end)`: per-cell busy spans in
    /// seconds since the run's epoch, from which the loop runner derives
    /// the cross-iteration overlap.
    pub(crate) spans: Vec<Vec<(f64, f64)>>,
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

/// Build the local store of one rank: referenced arrays cover the owned
/// region expanded by the read margins (clamped to declared bounds),
/// initialized from the global store; unreferenced arrays are empty.
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

/// Depth of each inter-rank data channel. Bounding the in-flight message
/// count is what makes buffer recycling effective: a sender can be at
/// most `LINK_DEPTH` tiles ahead of its receiver, so at most
/// `LINK_DEPTH + 2` buffers per link ever exist (in flight, being
/// filled, being drained) regardless of how many tiles the run has.
/// There is no deadlock risk: blocked sends only ever wait on strictly
/// downstream ranks, and the last rank never sends.
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
    execute_threaded(workers, program, &nest, &plan, &prep, store, 1, &[], true, collector)
}

/// [`prepare`] for a fused loop with slot rotation: buffers physically
/// move between the slots of each rotation class, so the class members
/// must share one local shape — ghost margins are unioned across each
/// class, the referenced flags are or-ed, and the written set is
/// extended to the whole class (the final gather must publish the
/// buffer that rotated *into* a read-only slot too).
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
    for &(a, b) in rotate {
        if prep.written.contains(&a) || prep.written.contains(&b) {
            prep.written.push(a);
            prep.written.push(b);
        }
    }
    prep.written.sort_unstable();
    prep.written.dedup();
    prep
}

/// Whether a loop body (with its rotation, possibly empty) can run
/// inside the fused multi-iteration engine invocation.
///
/// *Primed* reads are never a hazard: their ghost slabs are exactly what
/// the per-tile messages refresh, every iteration. The staleness hazard
/// is an **unprimed read at a non-zero shift of an array whose values
/// change between iterations** (written by the nest, or swapped in by
/// the rotation): iteration k+1 would read iteration-0 scatter data from
/// a neighbour-owned halo row that nobody re-sends. Unprimed reads at
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
        s.rhs.reads().into_iter().all(|r| {
            r.primed
                || !hot.contains(&r.id)
                || (0..R).all(|k| r.shift[k] == 0)
        })
    })
}

/// Apply one rotation step to a rank's local store: the buffer in slot
/// `from` moves to slot `to` for every pair at once (the pairs form a
/// permutation, validated upstream). Pure slot surgery — no copies.
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

/// The threaded engine: run `iters` whole sweeps of `nest` under `plan`
/// with real threads and channels inside **one** invocation — scatter
/// once, iterate, gather once — updating `store` in place and reporting
/// telemetry to `collector`. A one-shot run is `iters = 1`, no rotation.
/// Results are bit-identical to running the sweeps back to back
/// sequentially.
///
/// One task per active cell is dispatched onto a persistent
/// [`WorkerPool`] and joined on a result channel. Tasks capture only
/// `Arc`-shared immutable state (nest, plan, prep), their moved local
/// store, and owned channel endpoints, so they are `'static` and need no
/// scoped spawn; the pool's threads are parked between runs instead of
/// re-created. A panicking task cascades through the data channels
/// (disconnect → neighbours panic) until every result sender is dropped,
/// which surfaces here as a `recv` failure.
///
/// Across iterations the paper's fill/steady/drain staircase is lifted
/// one level up: a cell that has drained its tiles of iteration *k*
/// immediately starts iteration *k+1*. The bounded per-link channels
/// carry the next iteration's boundary slabs right behind the current
/// one (same order both ends, so no tagging is needed), waits still
/// point only upstream, and `LINK_DEPTH` keeps memory bounded, so the
/// schedule is deadlock-free for any `iters`. Every cross-rank read of a
/// written array is a primed (this-sweep) read along a distributed
/// dimension — decomposability guarantees that — and each iteration's
/// own messages re-deliver the boundary, so no extra inter-iteration
/// halo exchange exists to get wrong. `rotate` swaps local buffers
/// behind array ids between iterations (use [`prepare_rotated`] for the
/// prep); `pipelined: false` inserts a full barrier between iterations,
/// the ablation the timestep bench's overlap gate catches.
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
    if n == 0 {
        if enabled {
            collector.end(0.0);
        }
        return ThreadReport {
            elapsed: Duration::ZERO,
            messages: 0,
            buffer_allocs: 0,
            spans: Vec::new(),
        };
    }

    // Scatter once, on this thread — workers receive everything they
    // need by value or behind an `Arc`; the locals stay resident across
    // all iterations.
    let mut locals: Vec<Store<R>> = cells
        .iter()
        .map(|&r| build_local(program, prep, store, plan.dist.owned(r)))
        .collect();

    // One link per axis with communicated arrays and per adjacent pair
    // of active cells, wired by active-cell index.
    let mut index: Vec<Option<usize>> = vec![None; plan.procs()];
    for (i, &rank) in cells.iter().enumerate() {
        index[rank] = Some(i);
    }
    let mut ports: Vec<Vec<Port<R>>> = (0..n)
        .map(|_| plan.axes.iter().map(|_| Port::default()).collect())
        .collect();
    for (i, &rank) in cells.iter().enumerate() {
        for (axis, a) in plan.axes.iter().enumerate() {
            let Some(d) = plan.downstream(rank, axis).and_then(|d| index[d]) else {
                continue;
            };
            if a.comm.is_empty() {
                continue;
            }
            let (tx, rx) = sync_channel(LINK_DEPTH);
            let (rtx, rrx) = channel();
            ports[i][axis].tx = Some(tx);
            ports[i][axis].pool = Some(rrx);
            ports[d][axis].rx = Some((rx, plan.dist.owned(rank)));
            ports[d][axis].ret = Some(rtx);
        }
    }

    // All cells of one run rendezvous through bounded channels, so the
    // pool must hold at least one worker per cell before dispatch.
    workers.ensure_workers(n);
    // The no-overlap ablation: every cell waits here after each
    // iteration, flattening the staircase back to lock-step.
    let barrier = (!pipelined).then(|| Arc::new(std::sync::Barrier::new(n)));

    // (local store, messages sent, fresh buffers, events, busy spans).
    type CellResult<const R: usize> = (Store<R>, usize, usize, Vec<WorkerEv>, Vec<(f64, f64)>);
    let (res_tx, res_rx) = channel::<(usize, CellResult<R>)>();
    let epoch = Instant::now();
    for (i, ((&rank, mut local), ports)) in
        cells.iter().zip(locals.drain(..)).zip(ports).enumerate()
    {
        let owned = plan.dist.owned(rank);
        let plan = Arc::clone(plan);
        let nest = Arc::clone(nest);
        let prep = Arc::clone(prep);
        let rotate = rotate.to_vec();
        let barrier = barrier.clone();
        let res_tx = res_tx.clone();
        workers.execute(Box::new(move || {
            let now = || epoch.elapsed().as_secs_f64();
            let mut sent = 0usize;
            let mut fresh = 0usize;
            let mut evs: Vec<WorkerEv> = Vec::new();
            let mut spans: Vec<(f64, f64)> = Vec::with_capacity(iters);
            for it in 0..iters {
                if it > 0 {
                    if let Some(b) = &barrier {
                        b.wait();
                    }
                    rotate_slots(&mut local, &rotate);
                }
                // Resolve the kernel against this cell's local geometry
                // once per sweep; every tile reuses the binding. Buffers
                // may have moved between slots since the last sweep
                // (shapes within a rotation class are identical, but
                // base addresses are not).
                let bound = prep.runner.bind(&local, &plan.order);
                let span_start = now();
                for (ti, tile) in plan.tiles.iter().enumerate() {
                    for (axis, port) in ports.iter().enumerate() {
                        let Some((rx, upstream_owned)) = &port.rx else {
                            continue;
                        };
                        let wait_start = enabled.then(now);
                        let data = rx.recv().expect("upstream hung up mid-wave");
                        if let Some(wait_start) = wait_start {
                            evs.push(WorkerEv::Recv {
                                axis,
                                wait_start,
                                at: now(),
                            });
                        }
                        decode(&plan, &mut local, *upstream_owned, tile, axis, &data);
                        // Hand the drained buffer back upstream; the
                        // sender may already be gone at the tail.
                        if let Some(ret) = &port.ret {
                            let _ = ret.send(data);
                        }
                    }
                    let sub = owned.intersect(tile);
                    if !sub.is_empty() {
                        let start = enabled.then(now);
                        prep.runner
                            .run_tile(&nest, bound.as_ref(), sub, &plan.order, &mut local);
                        if let Some(start) = start {
                            evs.push(WorkerEv::Block {
                                tile: ti,
                                start,
                                end: now(),
                                elems: sub.len(),
                            });
                        }
                    }
                    for (axis, port) in ports.iter().enumerate() {
                        let Some(tx) = &port.tx else { continue };
                        let mut data = match port.pool.as_ref().and_then(|p| p.try_recv().ok()) {
                            Some(buf) => buf,
                            None => {
                                fresh += 1;
                                Vec::new()
                            }
                        };
                        encode_into(&plan, &local, owned, tile, axis, &mut data);
                        if enabled {
                            evs.push(WorkerEv::Sent {
                                axis,
                                tile: ti,
                                elems: data.len(),
                                at: now(),
                            });
                        }
                        tx.send(data).expect("downstream hung up mid-wave");
                        sent += 1;
                    }
                }
                spans.push((span_start, now()));
            }
            let _ = res_tx.send((i, (local, sent, fresh, evs, spans)));
        }));
    }
    drop(res_tx);
    // Join barrier: exactly one result per cell, arriving in completion
    // order. A dropped sender before all n arrive means a worker died.
    let mut slots: Vec<Option<CellResult<R>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, result) = res_rx.recv().expect("worker panicked");
        slots[i] = Some(result);
    }
    let elapsed = epoch.elapsed();
    let mut report = ThreadReport {
        elapsed,
        messages: 0,
        buffer_allocs: 0,
        spans: Vec::with_capacity(n),
    };
    let mut events: Vec<Vec<WorkerEv>> = Vec::with_capacity(n);
    for slot in slots {
        let (local, sent, fresh, evs, spans) = slot.expect("every cell reports exactly once");
        report.messages += sent;
        report.buffer_allocs += fresh;
        report.spans.push(spans);
        events.push(evs);
        locals.push(local);
    }

    if enabled {
        replay(collector, plan, &cells, &index, &events, elapsed.as_secs_f64());
    }

    // A rotation renames *whole buffers* — border cells the sweep never
    // writes travel with their buffer, exactly as on the per-step path
    // where the dispatcher re-binds physical buffers between jobs. The
    // global slots therefore rotate in step with the locals before the
    // gather overwrites the owned interiors with final-iteration data.
    for _ in 1..iters {
        rotate_slots(store, rotate);
    }

    // Gather once: copy each cell's owned portion of every written array
    // back. `prep.written` includes every rotation-class member (see
    // `prepare_rotated`), so the buffer that rotated into a read-only
    // slot is published too.
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
                WorkerEv::Recv { wait_start, at, .. } => {
                    collector.wait(WaitEvent {
                        proc: rank,
                        start: wait_start,
                        end: at,
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
        execute_plan_threaded(&workers, program, nest, plan, store, &mut NoopCollector, kernel_mode)
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
                let plan =
                    WavefrontPlan::build(&nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
                let mut store = init_tomcatv(&program);
                let report = run(&program, &nest, &plan, &mut store);
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
        let plan = WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(10), &t3e()).unwrap();
        let mut store = init_tomcatv(&program);
        let report = run(&program, &nest, &plan, &mut store);
        // 39 columns of covering region in tiles of 10 → 4 tiles; 3 links.
        assert_eq!(report.messages, 4 * 3);
    }

    #[test]
    fn steady_state_exchange_reuses_buffers() {
        // b = 1 maximizes message count; the buffer pool must stay
        // bounded by the channel depth, not grow with the tile count.
        let (program, nest) = tomcatv_nest(120);
        let plan = WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(1), &t3e()).unwrap();
        let mut store = init_tomcatv(&program);
        let report = run(&program, &nest, &plan, &mut store);
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
        let plan = WavefrontPlan::build(&nest, JobTopology::line(3), &BlockPolicy::Fixed(8), &t3e()).unwrap();
        let mut store = init_tomcatv(&program);
        run_mode(&program, &nest, &plan, &mut store, KernelMode::Interpreted);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn naive_schedule_sends_one_message_per_link() {
        let (program, nest) = tomcatv_nest(40);
        let plan = WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::FullPortion, &t3e()).unwrap();
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
            let plan = WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
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
        let plan = WavefrontPlan::build(&nest, JobTopology::line(32), &BlockPolicy::Fixed(3), &t3e()).unwrap();
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
        let plan = WavefrontPlan::build(nest, JobTopology::line(3), &BlockPolicy::Fixed(7), &t3e()).unwrap();
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
        let report = run(&program, &nest, &plan, &mut store);
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
