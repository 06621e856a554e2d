//! Wavefront execution plans.
//!
//! A [`WavefrontPlan`] fixes everything the runtimes need to execute one
//! compiled scan-block nest in parallel: the wavefront dimension(s),
//! block distributed over a processor grid; the orthogonal *tile*
//! dimension, cut into blocks of `b` indices (the pipelining of
//! Section 4); and which arrays must flow between neighbouring
//! processors, how thick. The paper has one such scheme and two
//! placements of it: Tomcatv on a processor line is a plan with one
//! [`Axis`], SWEEP3D on a `p1 × p2` mesh a plan with two, where the
//! wave enters at one corner and every processor forwards boundary
//! faces along both axes as it finishes each block.

use wavefront_core::array::Layout;
use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::index::Offset;
use wavefront_core::kernel::NestRunner;
use wavefront_core::kernel_lanes::{LaneShape, LANES};
use wavefront_core::loops::satisfies;
use wavefront_core::region::{LoopStructureOrder, Region};
use wavefront_machine::{simulate, Distribution, MachineParams, ProcGrid};

use crate::error::PipelineError;
use crate::exec_sim::plan_dag;
use crate::schedule::{BlockCtx, BlockPolicy};

/// Cost of starting one row of a tile when each row lands on a new
/// page, in per-element costs: what a row start adds to the per-tile
/// fixed cost α when the engines re-fit a model's `b`
/// ([`WavefrontPlan::fit`]). Measured by sweeping the engines' width on
/// a 1024² relaxation; `docs/PERF.md`, "Rows the memory can stream".
const ROW_START: f64 = 16.0;

/// The row stride, in bytes, from which every row of a tile starts on
/// a new page.
const PAGE_BYTES: usize = 4096;

/// Per-element computation cost of `nest` for the DES cost models: the
/// compiled tile kernel's instruction count when the nest compiles
/// (what the executing engines actually run per element), otherwise the
/// interpreter's operator count. The two are equal by construction —
/// the kernel performs no folding or fusion — so plan costs do not
/// depend on which tier executes.
pub(crate) fn nest_work<const R: usize>(nest: &CompiledNest<R>) -> f64 {
    let flops = match wavefront_core::kernel::TileKernel::compile(nest) {
        Ok(k) => k.instr_count(),
        Err(_) => nest.stmts.iter().map(|s| s.rhs.flop_count()).sum::<usize>(),
    };
    flops.max(1) as f64
}

/// The processor topology a plan distributes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobTopology {
    /// A processor line along one wavefront dimension.
    Line {
        /// Number of processors on the line.
        procs: usize,
        /// Forced distribution dimension, or `None` to let the planner
        /// choose.
        dist_dim: Option<usize>,
    },
    /// A 2-D processor mesh over two wavefront dimensions (the SWEEP3D
    /// decomposition). A mesh side of one processor is no axis at all:
    /// `[p, 1]` plans exactly as `Line { procs: p, .. }`.
    Mesh {
        /// Mesh shape (`[rows, cols]`).
        mesh: [usize; 2],
        /// Forced distributed dimensions, or `None` to let the planner
        /// choose.
        wave_dims: Option<[usize; 2]>,
    },
}

impl JobTopology {
    /// A line of `procs` processors, planner-chosen dimension.
    pub fn line(procs: usize) -> Self {
        JobTopology::Line {
            procs,
            dist_dim: None,
        }
    }

    /// A mesh of shape `mesh`, planner-chosen dimensions.
    pub fn mesh(mesh: [usize; 2]) -> Self {
        JobTopology::Mesh {
            mesh,
            wave_dims: None,
        }
    }

    /// Reject a topology with no processors on a side.
    pub(crate) fn check(&self) -> Result<(), PipelineError> {
        match *self {
            JobTopology::Line { procs: 0, .. } => Err(PipelineError::InvalidJob {
                reason: "a line topology needs at least one processor".into(),
            }),
            JobTopology::Mesh { mesh, .. } if mesh[0] == 0 || mesh[1] == 0 => {
                Err(PipelineError::InvalidJob {
                    reason: format!(
                        "a mesh topology needs non-empty dimensions (got {}x{})",
                        mesh[0], mesh[1]
                    ),
                })
            }
            _ => Ok(()),
        }
    }
}

/// One distributed wavefront dimension of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The dimension the wavefront travels along (block distributed).
    pub dim: usize,
    /// Direction of travel along `dim`.
    pub ascending: bool,
    /// Processor count along `dim`.
    pub procs: usize,
    /// Arrays whose boundary values must flow downstream along this
    /// axis, each with its own boundary thickness (the largest upstream
    /// shift it is read with along `dim`).
    pub comm: Vec<(ArrayId, i64)>,
}

/// Read-ghost margins per array: the maximum absolute shift used on each
/// dimension.
pub(crate) fn read_margins<const R: usize>(nest: &CompiledNest<R>) -> Vec<[i64; R]> {
    let max_id = nest
        .stmts
        .iter()
        .flat_map(|s| s.rhs.reads().into_iter().map(|r| r.id).chain([s.lhs]))
        .max()
        .map_or(0, |m| m + 1);
    let mut out = vec![[0i64; R]; max_id];
    for s in &nest.stmts {
        for r in s.rhs.reads() {
            for k in 0..R {
                out[r.id][k] = out[r.id][k].max(r.shift[k].abs());
            }
        }
    }
    out
}

/// A fully resolved plan for one nest: one or two distributed wavefront
/// axes (a line, or the SWEEP3D mesh whose wave enters at one corner and
/// sweeps diagonally across it) plus the pipelined tile dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct WavefrontPlan<const R: usize> {
    /// The covering region.
    pub region: Region<R>,
    /// The distributed wavefront axes — one for a line, two for a mesh.
    pub axes: Vec<Axis>,
    /// The tiled orthogonal dimension, or `None` when the nest cannot be
    /// pipelined (no dimension left, or tiling would violate a
    /// dependence).
    pub tile_dim: Option<usize>,
    /// Iteration direction along the tile dimension (may differ from the
    /// sequential structure when flipping it is what makes tiling legal).
    pub tile_ascending: bool,
    /// Resolved block size `b` (indices of `tile_dim` per tile).
    pub block: usize,
    /// The block distribution of the region over the processor grid.
    /// Processors are identified by their grid rank throughout.
    pub dist: Distribution<R>,
    /// Per-element computation cost (scalar flops, at least 1).
    pub work: f64,
    /// Ghost margins of every referenced array (per dimension), used to
    /// extend the first axis' messages so corner values relay correctly.
    pub margins: Vec<[i64; R]>,
    /// Global tile slabs in execution order (whole-region slabs along
    /// `tile_dim`; single entry when `tile_dim` is `None`).
    pub tiles: Vec<Region<R>>,
    /// The loop order used inside each tile.
    pub order: LoopStructureOrder<R>,
    /// The distinct shifts at which the nest reads the arrays it writes:
    /// how far a cell's reads reach into other cells' rows, which the
    /// drain edges of [`TileGraph`] order across sweeps.
    pub(crate) reads: Vec<Offset<R>>,
}

impl<const R: usize> WavefrontPlan<R> {
    /// Build a plan for `nest` distributed over `topology`.
    ///
    /// Every axis with more than one processor (and the single axis of a
    /// line) needs a block-decomposable wavefront dimension. `policy`
    /// chooses the block size; [`BlockPolicy::FullPortion`] yields the
    /// naive schedule.
    pub fn build(
        nest: &CompiledNest<R>,
        topology: JobTopology,
        policy: &BlockPolicy,
        params: &MachineParams,
    ) -> Result<Self, PipelineError> {
        topology.check()?;
        let wave_dims = &nest.structure.wavefront_dims;
        // A dimension can be block-distributed only when every dependence
        // points downstream along it (the staircase task DAG orders chunk
        // (i', j') before (i, j) only when i' ≤ i AND j' ≤ j).
        let decomposable = |k: usize| -> bool {
            let sign = if nest.structure.order.ascending[k] { 1 } else { -1 };
            nest.constraints.iter().all(|c| sign * c.vector[k] >= 0)
        };
        let check = |d: usize| -> Result<usize, PipelineError> {
            if !wave_dims.contains(&d) {
                Err(PipelineError::WaveNotDistributed {
                    wave_dims: wave_dims.clone(),
                    dist_dim: d,
                })
            } else if !decomposable(d) {
                Err(PipelineError::ConflictingDependences { dim: d })
            } else {
                Ok(d)
            }
        };
        // (dimension, processors) per axis.
        let placed: Vec<(usize, usize)> = match topology {
            JobTopology::Line { procs, dist_dim } => {
                if wave_dims.is_empty() {
                    return Err(PipelineError::NoWavefrontDim);
                }
                let dim = match dist_dim {
                    Some(d) => check(d)?,
                    None => *wave_dims
                        .iter()
                        .find(|&&d| decomposable(d))
                        .ok_or(PipelineError::ConflictingDependences { dim: wave_dims[0] })?,
                };
                vec![(dim, procs)]
            }
            JobTopology::Mesh { mesh, wave_dims: forced } => {
                // A side of one processor distributes nothing and needs
                // no dimension; a 1x1 mesh is a one-processor line.
                let sides: Vec<usize> = match mesh {
                    [1, 1] => vec![0],
                    _ => (0..2).filter(|&a| mesh[a] > 1).collect(),
                };
                let dims: Vec<usize> = match forced {
                    Some(w) => {
                        let dims: Vec<usize> =
                            sides.iter().map(|&a| check(w[a])).collect::<Result<_, _>>()?;
                        if dims.len() == 2 && dims[0] == dims[1] {
                            return Err(PipelineError::WaveNotDistributed {
                                wave_dims: wave_dims.clone(),
                                dist_dim: dims[1],
                            });
                        }
                        dims
                    }
                    None => {
                        let ok: Vec<usize> =
                            wave_dims.iter().copied().filter(|&d| decomposable(d)).collect();
                        sides
                            .iter()
                            .map(|&a| ok.get(a).copied().ok_or(PipelineError::NoWavefrontDim))
                            .collect::<Result<_, _>>()?
                    }
                };
                dims.into_iter().zip(sides.iter().map(|&a| mesh[a])).collect()
            }
        };

        let region = nest.region;
        let mut grid_dims = [1usize; R];
        for &(dim, procs) in &placed {
            grid_dims[dim] = procs;
        }
        let dist = Distribution::block(region, ProcGrid::<R>::new(grid_dims));

        // Pick the tile dimension: the non-wave dimension with the largest
        // extent for which strip-mining is legal (the tile loop becomes the
        // outermost loop; flipping its direction is allowed if that is what
        // makes tiling legal).
        let mut tile_dim = None;
        let mut tile_ascending = true;
        let mut base_order = nest.structure.order.clone();
        let mut candidates: Vec<usize> = (0..R)
            .filter(|k| placed.iter().all(|(dim, _)| dim != k))
            .collect();
        candidates.sort_by_key(|&k| std::cmp::Reverse(region.extent(k)));
        'outer: for k in candidates {
            for asc in [nest.structure.order.ascending[k], !nest.structure.order.ascending[k]] {
                let mut order = nest.structure.order.clone();
                order.ascending[k] = asc;
                // Move k to the outermost loop position.
                let mut perm: Vec<usize> =
                    order.order.iter().copied().filter(|&d| d != k).collect();
                perm.insert(0, k);
                for (pos, d) in perm.iter().enumerate() {
                    order.order[pos] = *d;
                }
                if satisfies(&nest.constraints, &order) {
                    tile_dim = Some(k);
                    tile_ascending = asc;
                    base_order = order;
                    break 'outer;
                }
            }
        }

        // Arrays whose values must flow from the upstream neighbour along
        // an axis: they are written in the nest and read with a shift
        // pointing upstream along its dimension. Each carries its own
        // thickness (the deepest such shift).
        let written = {
            let mut w: Vec<ArrayId> = nest.stmts.iter().map(|s| s.lhs).collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        let mut reads: Vec<Offset<R>> = nest
            .stmts
            .iter()
            .flat_map(|s| s.rhs.reads())
            .filter(|r| written.contains(&r.id))
            .map(|r| r.shift)
            .collect();
        reads.sort_unstable();
        reads.dedup();
        let axes: Vec<Axis> = placed
            .into_iter()
            .map(|(dim, procs)| {
                let ascending = nest.structure.order.ascending[dim];
                let upstream_sign = if ascending { -1 } else { 1 };
                let mut comm: Vec<(ArrayId, i64)> = Vec::new();
                for r in nest.stmts.iter().flat_map(|s| s.rhs.reads()) {
                    if written.contains(&r.id) && r.shift[dim].signum() == upstream_sign {
                        let t = r.shift[dim].abs();
                        match comm.iter_mut().find(|(id, _)| *id == r.id) {
                            Some((_, t0)) => *t0 = (*t0).max(t),
                            None => comm.push((r.id, t)),
                        }
                    }
                }
                comm.sort_unstable();
                Axis {
                    dim,
                    ascending,
                    procs,
                    comm,
                }
            })
            .collect();

        let mut plan = WavefrontPlan {
            region,
            axes,
            tile_dim,
            tile_ascending,
            block: 0,
            dist,
            work: nest_work(nest),
            margins: read_margins(nest),
            tiles: vec![region],
            order: base_order,
            reads,
        };
        match tile_dim.zip(plan.block_ctx(*params)) {
            Some((k, ctx)) => {
                let block = match policy.candidates(ctx.n_orth) {
                    Some(widths) => plan.fastest(k, widths, params, 1, 1, 0.0),
                    None => policy.resolve(&ctx),
                };
                plan.cut(k, block);
            }
            None => plan.block = plan.wave_extent().max(1),
        }
        Ok(plan)
    }

    /// Cut the tile dimension `k` into blocks of `b`, in execution
    /// order: the plan [`BlockPolicy::Fixed`]`(b)` builds.
    fn cut(&mut self, k: usize, b: usize) {
        self.block = b;
        self.tiles = self.region.chunks(k, b as i64);
        if !self.tile_ascending {
            self.tiles.reverse();
        }
    }

    /// The plan the executing engines run when `runner` executes this
    /// plan, which `policy` built on `machine`, for `sweeps` pipelined
    /// sweeps over arrays of the given bounds and layouts (indexed by
    /// [`ArrayId`]), or `None` when that is this plan. Only a plan whose
    /// tile dimension is the lane kernel's axis, at least [`LANES`]
    /// long, is re-fitted:
    ///
    /// * a model's `b` narrower than the lane strip would put every
    ///   point of every tile on the scalar remainder, so it becomes
    ///   [`LANES`]; when the lane blocks move as unit-stride slices, a
    ///   model's `b` rounds to the nearest multiple of [`LANES`] (at
    ///   least [`LANES`]), so no column of a whole tile runs there;
    /// * when the lane blocks move as unit-stride slices and their rows
    ///   lie at least [`PAGE_BYTES`] apart, Model2 also prices a model's
    ///   tile's row starts, [`ROW_START`] element costs per row, as part
    ///   of the per-tile fixed cost α; `b` becomes the larger of the
    ///   model's and that optimum rounded up to a multiple of [`LANES`];
    /// * on unit-stride lanes, a chunk of several sweeps pays its fill
    ///   once but every per-tile cost once per sweep, so its width is the
    ///   one among those giving 1 to that one-sweep tile count tiles,
    ///   each rounded up to [`LANES`], whose `sweeps`-sweep DAG at drain
    ///   lag `lag` ([`TileGraph::lag`]) the DES runs fastest on
    ///   `machine`; on page-strided rows every tile of
    ///   every cell costs its row starts on top of its points: a row
    ///   start is paid where a tile runs, not where a message lands;
    /// * on page-strided rows, and in such a chunk cut wider than
    ///   [`LANES`], the lane dimension moves innermost in the tile order,
    ///   so a tile walks whole row segments, which the lane kernel runs
    ///   many lane blocks at a time. An axis lane dimension carries no
    ///   dependence, so the order stays legal.
    ///
    /// A programmer's `b` ([`BlockPolicy::Fixed`],
    /// [`BlockPolicy::FullPortion`]) keeps its width. A runner without a
    /// lane strip and a wavefront-lane nest keep the plan, and so does
    /// the simulator: the paper's machines have neither strips nor pages.
    pub(crate) fn fit(
        &self,
        policy: &BlockPolicy,
        machine: &MachineParams,
        runner: &NestRunner<R>,
        shapes: &[(Region<R>, Layout)],
        sweeps: usize,
        lag: usize,
    ) -> Option<Self> {
        let k = self.tile_dim?;
        let modelled = !matches!(policy, BlockPolicy::Fixed(_) | BlockPolicy::FullPortion);
        let lane_axis = runner
            .lane_plan()
            .is_some_and(|lp| lp.shape == LaneShape::Axis { dim: k });
        let extent = self.region.extent(k);
        if !lane_axis || extent < LANES as i64 {
            return None;
        }
        let extent = extent as usize;
        let mut fitted = self.clone();
        let row_bytes = runner.lane_row_bytes(shapes, &self.order);
        let paged = row_bytes.is_some_and(|bytes| bytes >= PAGE_BYTES);
        let mut b = match (modelled, row_bytes) {
            (false, _) => self.block,
            (true, None) => self.block.max(LANES),
            (true, Some(_)) => ((self.block + LANES / 2) / LANES * LANES).clamp(LANES, extent),
        };
        let mut start = 0.0;
        if modelled && paged {
            let ctx = self.block_ctx(*machine)?;
            let rows = self.region.len() / extent / self.procs();
            start = rows as f64 * ROW_START * ctx.work;
            let mut priced = ctx;
            priced.machine.alpha += start;
            let wide = BlockPolicy::Model2.resolve(&priced).next_multiple_of(LANES);
            b = b.max(wide).min(extent);
        }
        let chunk = modelled && row_bytes.is_some() && sweeps > 1;
        if chunk {
            let mut widths: Vec<usize> = (1..=extent.div_ceil(b))
                .map(|t| extent.div_ceil(t).next_multiple_of(LANES).min(extent))
                .collect();
            widths.dedup();
            b = fitted.fastest(k, widths, machine, sweeps, lag, start);
        }
        if paged || chunk && b > LANES {
            let at = fitted.order.order.iter().position(|&d| d == k)?;
            fitted.order.order[at..].rotate_left(1);
        }
        if b == self.block && fitted.order == self.order {
            return None;
        }
        fitted.cut(k, b);
        Some(fitted)
    }

    /// The width among `widths` whose plan, run for `sweeps` sweeps at
    /// drain lag `lag` with `start` added to the cost of every tile of
    /// every cell, the DES runs fastest on `params` — the first on a
    /// tie. A one-sweep
    /// candidate with no `start` is priced exactly as `Session::estimate`
    /// prices `Fixed(b)`. Past the fill every sweep adds the same time,
    /// so at most one sweep per candidate and processor is simulated and
    /// the rest take the later half's mean sweep time: the search costs
    /// the same for any `sweeps`.
    fn fastest(
        &mut self,
        k: usize,
        widths: Vec<usize>,
        params: &MachineParams,
        sweeps: usize,
        lag: usize,
        start: f64,
    ) -> usize {
        let simulated = sweeps.min(widths.len() + self.procs());
        let half = simulated / 2;
        let mut best = (f64::INFINITY, widths[0]);
        for b in widths {
            self.cut(k, b);
            let mut dag = plan_dag(self, simulated, lag);
            dag.iter_mut().for_each(|task| task.cost += start);
            let finish = simulate(&dag, params, self.procs()).finish;
            // Tasks are listed sweep-major, so the first `s` sweeps end
            // with the latest of their tasks.
            let end = |s: usize| {
                let done = &finish[..s * finish.len() / simulated];
                done.iter().fold(0.0, |end, &f| f64::max(end, f))
            };
            let per_sweep = (end(simulated) - end(half)) / (simulated - half) as f64;
            let t = end(simulated) + (sweeps - simulated) as f64 * per_sweep;
            if t < best.0 {
                best = (t, b);
            }
        }
        best.1
    }

    /// Product of the extents of the distributed dimensions.
    fn wave_extent(&self) -> usize {
        self.axes
            .iter()
            .map(|a| self.region.extent(a.dim).max(0) as usize)
            .product()
    }

    /// Total number of processors on the grid.
    pub fn procs(&self) -> usize {
        self.dist.grid().len()
    }

    /// The ranks that own data, in wave order: a rank on diagonal `d`
    /// (the sum of its per-axis distances from the upstream corner) comes
    /// after every rank on diagonals `< d`; on a line, upstream first.
    /// These are the processors that participate in execution; empty
    /// ranks neither compute nor relay.
    pub fn active_cells(&self) -> Vec<usize> {
        let grid = self.dist.grid();
        let key = |&rank: &usize| {
            let c = grid.coord_of(rank);
            let along = |a: &Axis| if a.ascending { c[a.dim] } else { a.procs - 1 - c[a.dim] };
            (self.axes.iter().map(along).sum::<usize>(), along(&self.axes[0]))
        };
        let mut cells: Vec<usize> = grid
            .ranks()
            .filter(|&r| !self.dist.owned(r).is_empty())
            .collect();
        cells.sort_by_key(key);
        cells
    }

    /// The slab one boundary message covers when `owner` sends
    /// downstream along `axis` for `tile`, for an array of thickness `t`
    /// and margins `m`: the `t` indices of the axis' dimension ending at
    /// `owner`'s downstream edge, clamped to the covering region (NOT to
    /// `owner` — a processor owning fewer than `t` indices relays ghost
    /// values it received from further upstream).
    ///
    /// Along the *other* axis' dimension, first-axis messages are widened
    /// by the array's margin (clamped to the region) so corner ghost
    /// values relay through the first-axis path, and second-axis messages
    /// stay within the owner's extent; every remaining dimension is
    /// restricted to the tile.
    pub fn boundary_slab(
        &self,
        owner: Region<R>,
        tile: &Region<R>,
        axis: usize,
        t: i64,
        m: [i64; R],
    ) -> Region<R> {
        if owner.is_empty() || t <= 0 {
            return Region::empty();
        }
        let a = &self.axes[axis];
        let w = a.dim;
        let mut slab = if a.ascending {
            self.region.slab(w, owner.hi()[w] - t + 1, owner.hi()[w])
        } else {
            self.region.slab(w, owner.lo()[w], owner.lo()[w] + t - 1)
        };
        for k in 0..R {
            if k == w {
                continue;
            }
            slab = if self.axes.iter().all(|o| o.dim != k) {
                slab.slab(k, tile.lo()[k], tile.hi()[k])
            } else if axis == 0 {
                // The sender's ghost columns are current, so corners
                // flow with the first-axis message.
                slab.slab(k, owner.lo()[k] - m[k], owner.hi()[k] + m[k])
            } else {
                slab.slab(k, owner.lo()[k], owner.hi()[k])
            };
        }
        slab
    }

    /// Exact elements of the boundary message `owner` emits along `axis`
    /// for `tile`: the sum of every communicated array's
    /// [`Self::boundary_slab`]. This is precisely what the threaded
    /// engine serializes.
    pub fn msg_elems(&self, owner: Region<R>, tile: &Region<R>, axis: usize) -> usize {
        self.axes[axis]
            .comm
            .iter()
            .map(|&(id, t)| self.boundary_slab(owner, tile, axis, t, self.margins[id]).len())
            .sum()
    }

    /// The sizing context this plan was (or would be) blocked with —
    /// what the closed-form policies consume: `n_wave` is the product
    /// of the distributed extents and `p` the pipeline depth driving the
    /// fill, `p1 + p2 − 1` on a mesh. `None` when the nest has no tile
    /// dimension (nothing to size).
    pub fn block_ctx(&self, machine: MachineParams) -> Option<BlockCtx> {
        let k = self.tile_dim?;
        let depth = self.axes.iter().map(|a| a.procs).sum::<usize>() + 1 - self.axes.len();
        Some(BlockCtx::new(
            self.wave_extent(),
            self.region.extent(k) as usize,
            depth,
            self.work,
            machine,
        ))
    }

    /// True when the plan actually pipelines (more than one tile).
    pub fn is_pipelined(&self) -> bool {
        self.tiles.len() > 1
    }

    /// The boundary traffic this plan predicts: per tile, one message
    /// along each out-edge of its `TileGraph`, carrying exactly
    /// [`Self::msg_elems`]. The engines must observe precisely these
    /// counts.
    pub fn predicted_traffic(&self) -> crate::telemetry::Prediction {
        let graph = TileGraph::new(self, 1, 1);
        let mut messages = 0usize;
        let mut elements = 0usize;
        for (owned, outs) in graph.owned.iter().zip(&graph.outs) {
            for link in outs {
                messages += self.tiles.len();
                for tile in &self.tiles {
                    elements += self.msg_elems(*owned, tile, link.axis);
                }
            }
        }
        crate::telemetry::Prediction {
            messages,
            elements,
            bytes: elements * std::mem::size_of::<f64>(),
        }
    }

    /// [`TileGraph::reach`]: per tile, the last tile whose reads reach
    /// it along the tile dimension, by the widest margin
    /// [`Self::boundary_slab`] is called with there.
    fn drain_reach(&self) -> Vec<usize> {
        let Some(k) = self.tile_dim else {
            return vec![0; self.tiles.len()];
        };
        let comm = self.axes.iter().flat_map(|a| &a.comm);
        let reach = comm.map(|&(id, _)| self.margins[id][k]).max().unwrap_or(0);
        // Tile extents along `k` in execution order, as increasing numbers.
        let span = |t: &Region<R>| match self.tile_ascending {
            true => (t.lo()[k], t.hi()[k]),
            false => (-t.hi()[k], -t.lo()[k]),
        };
        let mut last = 0;
        let tiles = self.tiles.iter().enumerate();
        tiles
            .map(|(t, tile)| {
                last = last.max(t);
                while self.tiles.get(last + 1).is_some_and(|next| span(next).0 - reach <= span(tile).1) {
                    last += 1;
                }
                last
            })
            .collect()
    }
}

/// One flow edge of a [`TileGraph`]: the cell at its other end (an index
/// into [`TileGraph::cells`]) and the axis it runs along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) cell: usize,
    pub(crate) axis: usize,
}

/// The task graph of a plan run for some number of sweeps, and the one
/// place its dependence rule is written: the DES builds its task deps
/// from it (`exec_sim::plan_dag`), the threaded engine its waits and
/// posts (`exec_threads::launch_threaded`), and the traffic prediction
/// its messages ([`WavefrontPlan::predicted_traffic`]).
///
/// Its nodes are the active cells in wave order, each running every
/// tile of every sweep in order; `(cell, tile)` pairs are never
/// materialised. Two kinds of edge order them:
///
/// * **flow** — a cell runs tile `j` of a sweep after its upstream
///   neighbour along each linked axis has run tile `j` of that sweep
///   (the paper's pipelined schedule, Figure 4(b)). An axis is linked
///   when it carries communicated arrays, between two adjacent active
///   cells: a comm-less axis orders nothing, and a rank that owns no
///   data neither computes nor relays;
/// * **drain** — from sweep `lag` on, a cell overwrites tile `t` of
///   sweep `s` only after each of its `readers` has run tile `reach[t]`
///   of sweep `s − lag`.
#[derive(Debug)]
pub(crate) struct TileGraph<const R: usize> {
    /// The active cells' ranks, in wave order.
    pub(crate) cells: Vec<usize>,
    /// Per cell, the region it owns.
    pub(crate) owned: Vec<Region<R>>,
    /// Per cell, its flow in-edges in axis order: the upstream cells
    /// whose tile `j` it waits for before its own.
    pub(crate) ins: Vec<Vec<Link>>,
    /// Per cell, its flow out-edges in axis order: the downstream cells
    /// its tile `j` releases, one boundary message each.
    pub(crate) outs: Vec<Vec<Link>>,
    /// Per cell, the cells that read its rows (none if `sweeps ≤ lag`):
    /// every other cell some shifted read of a written array
    /// ([`WavefrontPlan::reads`]) reaches it from. Immediate neighbours
    /// in the usual case; further cells when a cell owns fewer rows than
    /// a boundary is thick, diagonal ones when a read crosses both axes
    /// of a mesh.
    pub(crate) readers: Vec<Vec<usize>>,
    /// Per tile, the last tile whose reads reach its columns (none when
    /// `readers` is): a read shifted along the tile dimension (a
    /// diagonal primed read) makes tile `t + 1` of a neighbour read tile
    /// `t`'s columns, so the drain wait for `t` is widened to it.
    pub(crate) reach: Vec<usize>,
    /// How many sweeps back a drain edge points, at least 1
    /// (`exec_threads::drain_lag`, which says why that is sound).
    pub(crate) lag: usize,
}

impl<const R: usize> TileGraph<R> {
    /// The graph of `plan` run for `sweeps` sweeps at drain lag `lag`.
    pub(crate) fn new(plan: &WavefrontPlan<R>, sweeps: usize, lag: usize) -> Self {
        let drained = sweeps > lag;
        let cells = plan.active_cells();
        let owned: Vec<Region<R>> = cells.iter().map(|&c| plan.dist.owned(c)).collect();
        let mut index = vec![None; plan.procs()];
        for (i, &rank) in cells.iter().enumerate() {
            index[rank] = Some(i);
        }
        // Per rank, its active neighbours one step downstream (`step` =
        // 1) or upstream (−1) along each linked axis.
        let grid = plan.dist.grid();
        let links = |rank: usize, step: i64| -> Vec<Link> {
            let linked = plan.axes.iter().enumerate().filter(|(_, a)| !a.comm.is_empty());
            linked
                .filter_map(|(axis, a)| {
                    let toward = if a.ascending { step } else { -step };
                    let cell = index[grid.neighbor(rank, a.dim, toward)?]?;
                    Some(Link { cell, axis })
                })
                .collect()
        };
        let reads_from = |reader: &Region<R>, source: &Region<R>| {
            plan.reads.iter().any(|s| {
                plan.axes.iter().all(|a| {
                    let d = a.dim;
                    reader.lo()[d] + s[d] <= source.hi()[d] && source.lo()[d] <= reader.hi()[d] + s[d]
                })
            })
        };
        let readers = (0..cells.len())
            .map(|c| {
                let reads = |&r: &usize| drained && r != c && reads_from(&owned[r], &owned[c]);
                (0..cells.len()).filter(reads).collect()
            })
            .collect();
        TileGraph {
            ins: cells.iter().map(|&rank| links(rank, -1)).collect(),
            outs: cells.iter().map(|&rank| links(rank, 1)).collect(),
            readers,
            reach: if drained { plan.drain_reach() } else { Vec::new() },
            lag,
            cells,
            owned,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wavefront_core::prelude::*;

    /// The Tomcatv scan block of Figure 2(b) at size n, column-major.
    pub(crate) fn tomcatv_nest(n: i64) -> (Program<2>, CompiledNest<2>) {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let mk = |p: &mut Program<2>, name: &str| {
            p.array_with_layout(name, bounds, Layout::ColMajor)
        };
        let r = mk(&mut p, "r");
        let aa = mk(&mut p, "aa");
        let d = mk(&mut p, "d");
        let dd = mk(&mut p, "dd");
        let rx = mk(&mut p, "rx");
        let ry = mk(&mut p, "ry");
        let north = [-1i64, 0];
        p.scan(
            Region::rect([2, 2], [n - 2, n - 1]),
            vec![
                Statement::new(r, Expr::read(aa) * Expr::read_primed_at(d, north)),
                Statement::new(
                    d,
                    (Expr::read(dd) - Expr::read_at(aa, north) * Expr::read(r)).recip(),
                ),
                Statement::new(
                    rx,
                    Expr::read(rx) - Expr::read_primed_at(rx, north) * Expr::read(r),
                ),
                Statement::new(
                    ry,
                    Expr::read(ry) - Expr::read_primed_at(ry, north) * Expr::read(r),
                ),
            ],
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0).clone();
        (p, nest)
    }

    fn t3e() -> MachineParams {
        wavefront_machine::cray_t3e()
    }

    /// The relaxation the loop workloads step, `next := 0.5·next'@north
    /// + 0.4·curr + 0.1·load`, on `rows × cols` points inside a
    /// one-point halo, row-major: its lanes run along the rows as
    /// unit-stride slices, `(cols + 2) · 8` bytes apart.
    pub(crate) fn relax_nest(rows: i64, cols: i64) -> (Program<2>, CompiledNest<2>) {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [rows + 1, cols + 1]);
        let [next, curr, load] = ["next", "curr", "load"].map(|name| p.array(name, bounds));
        p.stmt(
            Region::rect([1, 1], [rows, cols]),
            next,
            Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
                + Expr::lit(0.4) * Expr::read(curr)
                + Expr::lit(0.1) * Expr::read(load),
        );
        let nest = compile(&p).unwrap().nest(0).clone();
        (p, nest)
    }

    #[test]
    fn a_chunk_is_cut_on_its_own_des() {
        // 12 rows of 700 columns, 5,616 bytes apart, on two cells: one
        // sweep runs Model2 priced with its row starts, 128 wide (six
        // tiles). A chunk pays the fill once and each tile's row starts
        // once per sweep: of the widths giving one to six tiles, its
        // width is the one whose own DAG runs fastest, every tile of
        // every cell costing its six row starts. Four sweeps are
        // simulated whole; sixty are simulated for eight and the rest
        // extrapolated, and still pick the width of the whole DAG.
        let (p, nest) = relax_nest(12, 700);
        let (runner, shapes) = (NestRunner::auto(&nest), p.shapes());
        let model2 = BlockPolicy::Model2;
        let plan = WavefrontPlan::build(&nest, JobTopology::line(2), &model2, &t3e()).unwrap();
        let fit = |sweeps| plan.fit(&model2, &t3e(), &runner, &shapes, sweeps, 1).unwrap();
        let one = fit(1);
        assert_eq!((one.block, one.tiles.len(), one.order.order), (128, 6, [0, 1]));
        let makespan = |b: usize, sweeps: usize| {
            let mut cut = one.clone();
            cut.cut(1, b);
            let mut dag = plan_dag(&cut, sweeps, 1);
            dag.iter_mut().for_each(|task| task.cost += 6.0 * ROW_START * plan.work);
            simulate(&dag, &t3e(), 2).makespan
        };
        for (sweeps, block) in [(4, 240), (60, 352)] {
            let chunk = fit(sweeps);
            assert_eq!((chunk.block, &chunk.order), (block, &one.order));
            for tiles in 1..=6 {
                let b = 700usize.div_ceil(tiles).next_multiple_of(LANES).min(700);
                let (pick, other) = (makespan(chunk.block, sweeps), makespan(b, sweeps));
                assert!(pick <= other, "{sweeps} sweeps: {tiles} tiles of {b} beat the pick");
            }
            assert!(makespan(chunk.block, sweeps) < makespan(128, sweeps), "{sweeps} sweeps");
        }
        // The search simulates at most eight sweeps whatever the count: a
        // count no memory could hold a DAG of picks the same width.
        assert_eq!(fit(1 << 40), fit(60));

        // A programmer's b keeps its width at any chunk length.
        let fixed = BlockPolicy::Fixed(40);
        let plan = WavefrontPlan::build(&nest, JobTopology::line(2), &fixed, &t3e()).unwrap();
        let fit = |sweeps| plan.fit(&fixed, &t3e(), &runner, &shapes, sweeps, 1).unwrap();
        assert_eq!((fit(4).block, fit(4).order.order), (40, [0, 1]));

        // Rows under a page apart (2,416 bytes): one sweep runs Model2's
        // plan, its 39 rounded to whole lane blocks (39 would put 7 of
        // every 39 columns on the scalar remainder), but a chunk is cut
        // on its own DAG with no row-start price and, wider than the
        // lane strip, walks with the lane dimension innermost.
        let (p, nest) = relax_nest(12, 300);
        let (runner, shapes) = (NestRunner::auto(&nest), p.shapes());
        let plan = WavefrontPlan::build(&nest, JobTopology::line(2), &model2, &t3e()).unwrap();
        let fit = |sweeps| plan.fit(&model2, &t3e(), &runner, &shapes, sweeps, 1);
        let (one, chunk) = (fit(1).unwrap(), fit(4).unwrap());
        assert_eq!((plan.block, plan.order.order), (39, [1, 0]));
        assert_eq!((one.block, one.order.order), (40, [1, 0]));
        assert_eq!((chunk.block, chunk.order.order), (80, [0, 1]));
        let makespan = |b: usize| {
            let mut cut = plan.clone();
            cut.cut(1, b);
            simulate(&plan_dag(&cut, 4, 1), &t3e(), 2).makespan
        };
        for tiles in 1..=300usize.div_ceil(plan.block) {
            let b = 300usize.div_ceil(tiles).next_multiple_of(LANES).min(300);
            assert!(makespan(chunk.block) <= makespan(b), "{tiles} tiles of {b} beat the pick");
        }

        // Strided lanes (Tomcatv, column-major) keep the one-sweep plan
        // at every chunk length.
        let (p, nest) = tomcatv_nest(66);
        let (runner, shapes) = (NestRunner::auto(&nest), p.shapes());
        let plan = WavefrontPlan::build(&nest, JobTopology::line(2), &model2, &t3e()).unwrap();
        let fit = |sweeps| plan.fit(&model2, &t3e(), &runner, &shapes, sweeps, 1);
        for sweeps in [2, 4, 60] {
            assert_eq!(fit(sweeps), fit(1), "{sweeps} sweeps");
        }
    }

    #[test]
    fn kernel_derived_work_equals_interpreter_flop_count() {
        // The kernel emits exactly one instruction per operator node, so
        // the plan's per-element cost — and therefore every DES
        // prediction — is the same no matter which tier executes.
        let (_p, nest) = tomcatv_nest(20);
        assert!(wavefront_core::kernel::TileKernel::compile(&nest).is_ok());
        let flops = nest
            .stmts
            .iter()
            .map(|s| s.rhs.flop_count())
            .sum::<usize>()
            .max(1) as f64;
        assert_eq!(nest_work(&nest), flops);
    }

    #[test]
    fn tomcatv_plan_basics() {
        let (_p, nest) = tomcatv_nest(66);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(8), &t3e()).unwrap();
        assert_eq!(plan.axes.len(), 1);
        assert_eq!(plan.axes[0].dim, 0);
        assert!(plan.axes[0].ascending);
        assert_eq!(plan.tile_dim, Some(1));
        assert_eq!(plan.block, 8);
        // d, rx, ry flow downstream, one row thick; r and aa do not.
        assert_eq!(plan.axes[0].comm.len(), 3);
        assert!(plan.axes[0].comm.iter().all(|&(_, t)| t == 1));
        assert!(plan.is_pipelined());
        // 64 columns in tiles of 8.
        assert_eq!(plan.tiles.len(), 8);
        let covered: usize = plan.tiles.iter().map(|t| t.len()).sum();
        assert_eq!(covered, plan.region.len());
    }

    #[test]
    fn msg_elems_counts_arrays_and_cross_section() {
        let (_p, nest) = tomcatv_nest(66);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(8), &t3e()).unwrap();
        let tile = &plan.tiles[0];
        assert_eq!(plan.msg_elems(plan.dist.owned(0), tile, 0), 8 * 3);
    }

    #[test]
    fn full_portion_policy_gives_single_tile() {
        let (_p, nest) = tomcatv_nest(66);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::FullPortion, &t3e()).unwrap();
        assert_eq!(plan.tiles.len(), 1);
        assert!(!plan.is_pipelined());
    }

    #[test]
    fn no_wavefront_dim_is_an_error() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [8, 8]);
        let a = p.array("a", bounds);
        p.stmt(bounds, a, Expr::read(a) * Expr::lit(2.0));
        let compiled = compile(&p).unwrap();
        let err = WavefrontPlan::build(compiled.nest(0), JobTopology::line(4),
            &BlockPolicy::Fixed(4),
            &t3e(),
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::NoWavefrontDim);
    }

    #[test]
    fn wrong_dist_dim_is_an_error() {
        let (_p, nest) = tomcatv_nest(34);
        let err =
            WavefrontPlan::build(&nest, JobTopology::Line { procs: 4, dist_dim: Some(1) }, &BlockPolicy::Fixed(4), &t3e()).unwrap_err();
        assert!(matches!(err, PipelineError::WaveNotDistributed { .. }));
    }

    #[test]
    fn a_searched_plan_is_the_fixed_plan_of_its_width() {
        // A descending wave over 16 columns, so the last tile of width
        // b > 1 is the short one at the low end.
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [16, 16]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 0], [16, 15]),
            a,
            Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0),
        );
        let compiled = compile(&p).unwrap();
        let line = JobTopology::Line { procs: 2, dist_dim: Some(0) };
        let build = |policy: &BlockPolicy| {
            WavefrontPlan::build(compiled.nest(0), line, policy, &t3e()).unwrap()
        };
        for policy in [BlockPolicy::Adaptive, BlockPolicy::Probe(vec![3, 5, 7])] {
            let searched = build(&policy);
            assert!(!searched.tile_ascending);
            assert_eq!(searched, build(&BlockPolicy::Fixed(searched.block)), "{policy:?}");
            let t = &searched.tiles;
            assert!(t.len() < 2 || t[0].lo()[1] > t[1].lo()[1], "high columns first");
            let covered: usize = t.iter().map(|t| t.len()).sum();
            assert_eq!(covered, searched.region.len());
        }
    }

    #[test]
    fn upstream_downstream_chain() {
        let (_p, nest) = tomcatv_nest(34);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(4), &BlockPolicy::Fixed(4), &t3e()).unwrap();
        let graph = TileGraph::new(&plan, 1, 1);
        assert_eq!(graph.cells, [0, 1, 2, 3]);
        assert!(graph.ins[0].is_empty());
        for c in 1..4 {
            assert_eq!(graph.ins[c], [Link { cell: c - 1, axis: 0 }]);
            assert_eq!(graph.outs[c - 1], [Link { cell: c, axis: 0 }]);
        }
        assert!(graph.outs[3].is_empty());
    }

    #[test]
    fn ranks_without_data_carry_no_edge() {
        // 7 rows over 16 ranks: only the first seven own data.
        let (_p, nest) = tomcatv_nest(10);
        let plan =
            WavefrontPlan::build(&nest, JobTopology::line(16), &BlockPolicy::Fixed(2), &t3e()).unwrap();
        let graph = TileGraph::new(&plan, 1, 1);
        assert_eq!(graph.cells, (0..7).collect::<Vec<_>>());
        assert!(graph.outs[6].is_empty());
        let links = plan.axes[0].comm.len();
        let pred = plan.predicted_traffic();
        assert_eq!(pred.messages, 6 * plan.tiles.len());
        assert_eq!(pred.elements, 6 * links * plan.region.extent(1) as usize);
    }

    #[test]
    fn southward_wave_reverses_rank_order() {
        // A wavefront driven by a'@south travels north (descending rows).
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [16, 16]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 1], [15, 16]),
            a,
            Expr::read_primed_at(a, [1, 0]) + Expr::lit(1.0),
        );
        let compiled = compile(&p).unwrap();
        let plan = WavefrontPlan::build(compiled.nest(0), JobTopology::line(4),
            &BlockPolicy::Fixed(4),
            &t3e(),
        )
        .unwrap();
        assert!(!plan.axes[0].ascending);
        assert_eq!(plan.active_cells(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn diagonal_wavefront_tiles_with_flipped_direction_when_needed() {
        // a := a'@d with d = (-1, 1): true vector (1,-1). The sequential
        // structure wants dim 1 descending; tiling dim 1 outermost is only
        // legal descending, which `build` must discover.
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [16, 16]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 0], [16, 15]),
            a,
            Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        let plan =
            WavefrontPlan::build(nest, JobTopology::Line { procs: 2, dist_dim: Some(0) }, &BlockPolicy::Fixed(4), &t3e()).unwrap();
        assert_eq!(plan.tile_dim, Some(1));
        assert!(!plan.tile_ascending);
        // Tiles must run from high columns to low.
        let first = plan.tiles.first().unwrap();
        let last = plan.tiles.last().unwrap();
        assert!(first.lo()[1] > last.lo()[1]);
    }

    #[test]
    fn rank1_wavefront_has_no_tiles() {
        let mut p = Program::<1>::new();
        let bounds = Region::rect([0], [63]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1], [63]),
            a,
            Expr::read_primed_at(a, [-1]) + Expr::lit(1.0),
        );
        let compiled = compile(&p).unwrap();
        let plan = WavefrontPlan::build(compiled.nest(0), JobTopology::line(4),
            &BlockPolicy::Model2,
            &t3e(),
        )
        .unwrap();
        assert_eq!(plan.tile_dim, None);
        assert_eq!(plan.tiles.len(), 1);
        assert!(!plan.is_pipelined());
    }

    /// A SWEEP3D-like octant nest: flux from three upwind neighbours.
    pub(crate) fn sweep_nest(n: i64) -> (Program<3>, CompiledNest<3>) {
        let mut p = Program::<3>::new();
        let bounds = Region::rect([1, 1, 1], [n, n, n]);
        let flux = p.array("flux", bounds);
        let src = p.array("src", bounds);
        let cells = Region::rect([2, 2, 2], [n, n, n]);
        p.scan(
            cells,
            vec![Statement::new(
                flux,
                Expr::read(src)
                    + Expr::lit(0.3) * Expr::read_primed_at(flux, [-1, 0, 0])
                    + Expr::lit(0.3) * Expr::read_primed_at(flux, [0, -1, 0])
                    + Expr::lit(0.3) * Expr::read_primed_at(flux, [0, 0, -1]),
            )],
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0).clone();
        (p, nest)
    }

    /// A mesh plan of [`sweep_nest`] at a fixed block size.
    pub(crate) fn mesh_plan(nest: &CompiledNest<3>, mesh: [usize; 2], b: usize) -> WavefrontPlan<3> {
        WavefrontPlan::build(nest, JobTopology::mesh(mesh), &BlockPolicy::Fixed(b), &t3e()).unwrap()
    }

    /// Deterministic non-trivial initial values for [`sweep_nest`]-shaped
    /// programs.
    pub(crate) fn init_sweep(program: &Program<3>) -> Store<3> {
        let mut store = Store::new(program);
        for id in 0..store.len() {
            let bounds = store.get(id).bounds();
            *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                ((q[0] * 31 + q[1] * 17 + q[2] * 7 + id as i64 * 3) % 23) as f64 / 23.0
            });
        }
        store
    }

    #[test]
    fn sweep_plan_basics() {
        let (_p, nest) = sweep_nest(17);
        let plan = mesh_plan(&nest, [2, 3], 4);
        assert_eq!([plan.axes[0].dim, plan.axes[1].dim], [0, 1]);
        assert_eq!([plan.axes[0].procs, plan.axes[1].procs], [2, 3]);
        assert_eq!(plan.tile_dim, Some(2));
        assert_eq!(plan.block, 4);
        assert_eq!(plan.tiles.len(), 4);
        assert!(plan.is_pipelined());
        assert_eq!(plan.axes[0].comm.len(), 1); // flux crosses both axes
        assert_eq!(plan.axes[1].comm.len(), 1);
        // All 6 mesh cells partition the region.
        let total: usize = (0..plan.procs()).map(|r| plan.dist.owned(r).len()).sum();
        assert_eq!(plan.procs(), 6);
        assert_eq!(total, plan.region.len());
    }

    #[test]
    fn mesh_wave_order_respects_diagonals() {
        let (_p, nest) = sweep_nest(9);
        let plan = mesh_plan(&nest, [3, 3], 2);
        let grid = plan.dist.grid();
        let graph = TileGraph::new(&plan, 1, 1);
        let order = &graph.cells;
        assert_eq!(order[0], grid.rank_of([0, 0, 0]));
        assert_eq!(*order.last().unwrap(), grid.rank_of([2, 2, 0]));
        // Every cell waits on one upstream per axis it is not first on,
        // and each of them precedes it.
        for (c, &rank) in order.iter().enumerate() {
            let coord = grid.coord_of(rank);
            let firsts = (0..2).filter(|&axis| coord[axis] == 0).count();
            assert_eq!(graph.ins[c].len(), 2 - firsts, "cell {rank}");
            for up in &graph.ins[c] {
                assert!(up.cell < c, "{} must precede {rank}", order[up.cell]);
                assert!(graph.outs[up.cell].contains(&Link { cell: c, axis: up.axis }));
            }
        }
    }

    #[test]
    fn boundary_slabs_cover_corners_via_axis0() {
        let (_p, nest) = sweep_nest(17);
        let plan = mesh_plan(&nest, [2, 2], 16);
        let owner = plan.dist.owned(0);
        let tile = plan.tiles[0];
        let flux = 0;
        let slab = plan.boundary_slab(owner, &tile, 0, 1, plan.margins[flux]);
        // Widened by margin 1 along dim 1 (but clamped to the region).
        assert_eq!(slab.lo()[1], plan.region.lo()[1]);
        assert_eq!(slab.hi()[1], owner.hi()[1] + 1);
        // Axis-1 slabs stay within the owner's rows.
        let slab = plan.boundary_slab(owner, &tile, 1, 1, plan.margins[flux]);
        assert_eq!(slab.lo()[0], owner.lo()[0]);
        assert_eq!(slab.hi()[0], owner.hi()[0]);
    }

    #[test]
    fn conflicting_dimension_is_rejected() {
        // Dependences (1,0,0), (0,1,0) make both dims wavefront dims, but
        // (1,-1,0) points against dimension 1, defeating its block
        // decomposition.
        let mut p = Program::<3>::new();
        let bounds = Region::rect([0, 0, 0], [9, 9, 9]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 1, 0], [9, 8, 9]),
            a,
            Expr::read_primed_at(a, [-1, 0, 0])
                + Expr::read_primed_at(a, [0, -1, 0])
                + Expr::read_primed_at(a, [-1, 1, 0]),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        assert!(nest.structure.wavefront_dims.contains(&1));
        let forced = |mesh| JobTopology::Mesh {
            mesh,
            wave_dims: Some([0, 1]),
        };
        let err =
            WavefrontPlan::build(nest, forced([2, 2]), &BlockPolicy::Fixed(2), &t3e()).unwrap_err();
        assert!(matches!(err, PipelineError::ConflictingDependences { dim: 1 }));
        // A one-processor side distributes nothing, so nothing conflicts.
        assert!(WavefrontPlan::build(nest, forced([2, 1]), &BlockPolicy::Fixed(2), &t3e()).is_ok());
    }

    #[test]
    fn a_mesh_axis_of_one_processor_is_dropped() {
        // One wavefront dimension: no 2x2 mesh exists, but p x 1 is the
        // line along that dimension — same plan, field for field.
        let mut p = Program::<3>::new();
        let bounds = Region::rect([0, 0, 0], [9, 9, 9]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 0, 0], [9, 9, 9]),
            a,
            Expr::read_primed_at(a, [-1, 0, 0]),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        let build = |t| WavefrontPlan::build(nest, t, &BlockPolicy::Fixed(2), &t3e());
        assert_eq!(
            build(JobTopology::mesh([2, 2])).unwrap_err(),
            PipelineError::NoWavefrontDim
        );
        assert_eq!(
            build(JobTopology::mesh([1, 2])).unwrap_err(),
            PipelineError::NoWavefrontDim
        );
        // A side of zero processors is a typed error, not a panic.
        for empty in [JobTopology::mesh([0, 2]), JobTopology::line(0)] {
            assert!(matches!(build(empty).unwrap_err(), PipelineError::InvalidJob { .. }));
        }
        let line = build(JobTopology::line(3)).unwrap();
        assert_eq!(build(JobTopology::mesh([3, 1])).unwrap(), line);
        assert_eq!(
            build(JobTopology::mesh([1, 1])).unwrap(),
            build(JobTopology::line(1)).unwrap()
        );
        // With two wavefront dimensions, [1, p] is the line along the
        // second one.
        let (_p, sweep) = sweep_nest(9);
        let along = |d| JobTopology::Line {
            procs: 3,
            dist_dim: Some(d),
        };
        let build = |t| WavefrontPlan::build(&sweep, t, &BlockPolicy::Fixed(2), &t3e()).unwrap();
        assert_eq!(build(JobTopology::mesh([1, 3])), build(along(1)));
        assert_eq!(build(JobTopology::mesh([3, 1])), build(along(0)));
    }
}
