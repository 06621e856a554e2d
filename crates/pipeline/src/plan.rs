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

use wavefront_core::exec::CompiledNest;
use wavefront_core::expr::ArrayId;
use wavefront_core::kernel::NestRunner;
use wavefront_core::kernel_lanes::{LaneShape, LANES};
use wavefront_core::loops::satisfies;
use wavefront_core::region::{LoopStructureOrder, Region};
use wavefront_machine::{Distribution, MachineParams, ProcGrid};

use crate::error::PipelineError;
use crate::exec_sim::simulate_plan_collected;
use crate::schedule::{BlockCtx, BlockPolicy};
use crate::telemetry::NoopCollector;

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
        };
        match tile_dim.zip(plan.block_ctx(*params)) {
            Some((k, ctx)) => {
                let block = match policy.candidates(ctx.n_orth) {
                    Some(widths) => plan.fastest(k, widths, params),
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
    /// plan, which `policy` built, or `None` when that is this plan. A
    /// model's `b` narrower than the lane strip, on a tile dimension
    /// that is the lane kernel's axis and at least [`LANES`] long, would
    /// put every point of every tile on the scalar remainder, so it is
    /// re-cut at `b = LANES`. A programmer's `b` ([`BlockPolicy::Fixed`],
    /// [`BlockPolicy::FullPortion`]), a runner without a lane strip and
    /// a wavefront-lane nest keep the plan, and so does the simulator:
    /// the paper's machines have no strip.
    pub(crate) fn fit_to_strip(
        &self,
        policy: &BlockPolicy,
        runner: &NestRunner<R>,
    ) -> Option<Self> {
        let k = self.tile_dim?;
        let modelled = !matches!(policy, BlockPolicy::Fixed(_) | BlockPolicy::FullPortion);
        let lane_axis = runner
            .lane_plan()
            .is_some_and(|lp| lp.shape == LaneShape::Axis { dim: k });
        let narrow = self.block < LANES && self.region.extent(k) >= LANES as i64;
        (modelled && lane_axis && narrow).then(|| {
            let mut fitted = self.clone();
            fitted.cut(k, LANES);
            fitted
        })
    }

    /// The width among `widths` whose plan the DES runs fastest on
    /// `params` — the first on a tie. Each candidate is priced exactly
    /// as `Session::estimate` prices `Fixed(b)`.
    fn fastest(&mut self, k: usize, widths: Vec<usize>, params: &MachineParams) -> usize {
        let mut best = (f64::INFINITY, widths[0]);
        for b in widths {
            self.cut(k, b);
            let t = simulate_plan_collected(self, params, &mut NoopCollector).makespan;
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

    /// Grid ranks in wavefront order: a processor on diagonal `d` (the
    /// sum of its per-axis distances from the upstream corner) comes
    /// after everything on diagonals `< d`. For a line this is simply
    /// upstream first.
    pub fn cells_in_wave_order(&self) -> Vec<usize> {
        let grid = self.dist.grid();
        let key = |&rank: &usize| {
            let c = grid.coord_of(rank);
            let along = |a: &Axis| if a.ascending { c[a.dim] } else { a.procs - 1 - c[a.dim] };
            (self.axes.iter().map(along).sum::<usize>(), along(&self.axes[0]))
        };
        let mut cells: Vec<usize> = grid.ranks().collect();
        cells.sort_by_key(key);
        cells
    }

    /// The ranks that own data, in wave order. These are the processors
    /// that participate in execution; empty ranks neither compute nor
    /// relay.
    pub fn active_cells(&self) -> Vec<usize> {
        self.cells_in_wave_order()
            .into_iter()
            .filter(|&r| !self.dist.owned(r).is_empty())
            .collect()
    }

    /// The upstream neighbour of `rank` along axis `axis` (the rank whose
    /// values `rank` consumes), if any.
    pub fn upstream(&self, rank: usize, axis: usize) -> Option<usize> {
        let a = &self.axes[axis];
        self.dist.grid().neighbor(rank, a.dim, if a.ascending { -1 } else { 1 })
    }

    /// The downstream neighbour of `rank` along axis `axis`, if any.
    pub fn downstream(&self, rank: usize, axis: usize) -> Option<usize> {
        let a = &self.axes[axis];
        self.dist.grid().neighbor(rank, a.dim, if a.ascending { 1 } else { -1 })
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
    /// along each axis with communicated arrays from every active cell
    /// whose downstream neighbour on that axis is also active, carrying
    /// exactly [`Self::msg_elems`]. The engines must observe precisely
    /// these counts.
    pub fn predicted_traffic(&self) -> crate::telemetry::Prediction {
        let active = self.active_cells();
        let mut messages = 0usize;
        let mut elements = 0usize;
        for &rank in &active {
            let owned = self.dist.owned(rank);
            for (axis, a) in self.axes.iter().enumerate() {
                if a.comm.is_empty()
                    || !self.downstream(rank, axis).is_some_and(|d| active.contains(&d))
                {
                    continue;
                }
                messages += self.tiles.len();
                for tile in &self.tiles {
                    elements += self.msg_elems(owned, tile, axis);
                }
            }
        }
        crate::telemetry::Prediction {
            messages,
            elements,
            bytes: elements * std::mem::size_of::<f64>(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wavefront_core::prelude::*;

    /// The Tomcatv scan block of Figure 2(b) at size n, column-major.
    pub fn tomcatv_nest(n: i64) -> (Program<2>, CompiledNest<2>) {
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
        let order = plan.cells_in_wave_order();
        assert_eq!(order.len(), 4);
        assert_eq!(plan.upstream(order[0], 0), None);
        for w in order.windows(2) {
            assert_eq!(plan.upstream(w[1], 0), Some(w[0]));
            assert_eq!(plan.downstream(w[0], 0), Some(w[1]));
        }
        assert_eq!(plan.downstream(*order.last().unwrap(), 0), None);
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
        let order = plan.cells_in_wave_order();
        assert_eq!(order, vec![3, 2, 1, 0]);
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
    pub fn sweep_nest(n: i64) -> (Program<3>, CompiledNest<3>) {
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
    pub fn mesh_plan(nest: &CompiledNest<3>, mesh: [usize; 2], b: usize) -> WavefrontPlan<3> {
        WavefrontPlan::build(nest, JobTopology::mesh(mesh), &BlockPolicy::Fixed(b), &t3e()).unwrap()
    }

    /// Deterministic non-trivial initial values for [`sweep_nest`]-shaped
    /// programs.
    pub fn init_sweep(program: &Program<3>) -> Store<3> {
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
        let order = plan.cells_in_wave_order();
        assert_eq!(order[0], grid.rank_of([0, 0, 0]));
        assert_eq!(*order.last().unwrap(), grid.rank_of([2, 2, 0]));
        // Every cell appears after both its upstreams.
        for (pos, &c) in order.iter().enumerate() {
            for axis in 0..2 {
                if let Some(u) = plan.upstream(c, axis) {
                    let upos = order.iter().position(|&x| x == u).unwrap();
                    assert!(upos < pos, "{u} must precede {c}");
                }
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
