//! Lane-parallel tile kernels: the scalar register tape of
//! [`crate::kernel`], lowered a second time into lane-blocked form that
//! evaluates [`LANES`] independent grid points per tape step.
//!
//! The paper's wavefront sweeps always carry a free parallel direction
//! inside every tile — either a whole dimension no dependence crosses,
//! or (when every axis is carried) the anti-diagonal of the wavefront
//! itself. The scalar tape leaves that parallelism on the table: its
//! recurrence chains serialize on store→load forwarding, one element at
//! a time. This module picks a *lane direction* per nest at plan time
//! ([`plan_lanes`]) and executes the same tape over `[f64; LANES]` lane
//! arrays in fixed-width unrolled loops — a shape the autovectorizer
//! turns into SIMD when the lane stride is contiguous (2-wide SSE2 on
//! the default build, which targets baseline x86-64), and that still
//! buys instruction-level parallelism (eight independent dependence
//! chains in flight) when it is not.
//!
//! Two lane shapes exist, tried in order:
//!
//! - [`LaneShape::Axis`] — some dimension `d` has component 0 in every
//!   dependence constraint. Points that differ only in `d` are mutually
//!   independent, so the sweep blocks `d` by [`LANES`] (always ascending
//!   — reversing or blocking a loop that carries nothing is legal) and
//!   keeps every other loop exactly as the scalar sweep runs it. The
//!   region's remainder slab (`extent % LANES`) runs on the scalar tape.
//! - [`LaneShape::Wavefront`] — every axis is carried, but every
//!   dependence lands on a strictly later anti-diagonal hyperplane: the
//!   sum of each constraint's *normalized* components (flipped for
//!   descending loops) is ≥ 1. Then all points on one hyperplane are
//!   mutually independent; the sweep walks planes in dependence order
//!   and blocks each plane's diagonal segments by [`LANES`], with a
//!   per-point scalar remainder.
//!
//! A lane block moves through memory one of two ways, fixed per array
//! when the kernel is bound. When the lane direction is an array's
//! unit-stride dimension, its block is one contiguous run: loaded and
//! stored as one checked `&[Cell<f64>; LANES]` slice. Otherwise (a
//! strided lane axis, or any wavefront diagonal) the block is gathered
//! and stored lane by lane. [`crate::kernel::NestRunner::lane_stride`]
//! reports which: `unit`, `strided` or `diagonal`.
//!
//! A lane block pays one tape dispatch for its eight points. When the
//! lane dimension is the sweep's innermost loop, every cursor is
//! unit-stride and a row segment spans two lane blocks or more, the
//! sweep runs the whole segment instead, in pieces of up to 64 points,
//! on a tape of its own: the scalar tape with each `Const × Read`
//! folded into its consumer (`fold`, once per nest, in the
//! [`LanePlan`]). Each instruction matches its operator and operand
//! kinds once, then loops over the piece, reading each operand where it
//! lives (a register, the checked slice of a read, a constant, a read
//! scaled by a folded constant) and writing its result into a spare
//! register that is then renamed, not copied, into its destination; a
//! statement's last instruction writes straight into the destination's
//! cells. Strided and diagonal lanes, one-block segments and the
//! remainder slab keep the eight-point blocks and the scalar tape.
//!
//! Everything a tile call needs that depends only on the store's
//! geometry and the lane shape — each cursor's array, lane delta and
//! lane-block step — is computed once, when
//! [`crate::kernel::NestRunner::bind`] binds the kernel; a tile call
//! keeps its cursors and cell views on the stack and allocates nothing.
//!
//! Bit-identity contract (inherited from [`crate::kernel`]): the lane
//! executor applies exactly the scalar tape's operator sequence to each
//! point — no re-association, no fused multiply-add — and lane blocking
//! only reorders *independent* points, so results are bitwise identical
//! to the scalar tape and the interpreter. A piece of a row segment is
//! a lane block of up to 64 points along a dimension no dependence
//! crosses, so the same argument holds at any length. Its folded tape
//! keeps every point's operators and operand values: a folded read
//! computes `k·x` inside its consumer's loop, and for a `k` that is not
//! NaN `k·x` and `x·k` are the same bits. Its reads happen instruction
//! by instruction; the last instruction stores each point as it
//! computes it, and since the lane dimension carries no dependence,
//! anti-dependences included ([`plan_lanes`] rule 2), a statement reads
//! its destination's row segment only at the point being written,
//! before writing it. Renaming only permutes which buffer holds a
//! register. The differential fuzz harness in
//! `tests/kernel_differential.rs` enforces this.
//!
//! A nest the lane lowering refuses (every direction carried, or a tape
//! needing more than [`MAX_LANE_REGS`] registers) runs on the scalar
//! tape with [`crate::kernel::FallbackReason::LaneUnsupported`] recorded
//! — see [`crate::kernel::NestRunner`].

use std::cell::Cell;

use crate::exec::CompiledNest;
use crate::expr::{BinOp, UnaryOp};
use crate::kernel::{BoundKernel, Instr, LaneCause, Scratch, Src, StmtKernel, TileKernel};
use crate::region::{LoopStructureOrder, Region};

/// Lane width: grid points evaluated per tape step. The default build
/// targets baseline x86-64, so eight `f64`s are four 2-wide SSE2
/// registers — wide enough to hide the recurrence latency the scalar
/// tape serializes on, small enough that diagonal segments and tile
/// edges don't drown in remainder work.
pub const LANES: usize = 8;

/// Maximum registers a tape may use and still lane-lower. Each lane
/// register is `LANES` f64s, so 16 of them is 1 KiB of hot state — kept
/// deliberately below [`crate::kernel::MAX_REGS`] so register-heavy
/// tapes stay scalar instead of spilling lane arrays to the stack.
pub const MAX_LANE_REGS: usize = 16;

/// See [`crate::kernel`]'s `REG_MASK`: lane register indices are `<
/// MAX_LANE_REGS` by the [`plan_lanes`] width check, so masking is the
/// identity and elides the bounds check.
const LREG_MASK: usize = MAX_LANE_REGS - 1;
const _: () = assert!(MAX_LANE_REGS.is_power_of_two());

/// The lane direction a nest's sweep blocks by [`LANES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneShape {
    /// Lanes along dimension `dim`, which no dependence constraint
    /// crosses. Contiguous SIMD when `dim` is the layout's unit-stride
    /// dimension, strided lane gathers (still an ILP win) otherwise.
    Axis {
        /// The dependence-free dimension.
        dim: usize,
    },
    /// Lanes along the anti-diagonal of the two innermost loops: lane
    /// `l` sits at normalized position `(ĵ_p + l, ĵ_q − l)`. Legal
    /// because every dependence crosses to a strictly later hyperplane
    /// `d = Σ ĵ`.
    Wavefront {
        /// Loop *position* (outermost = 0) whose normalized coordinate
        /// grows along the lane direction; always `R − 2`.
        p: usize,
        /// Loop position whose normalized coordinate shrinks; `R − 1`.
        q: usize,
    },
}

/// The lane lowering of one nest: which direction the sweep blocks, and
/// the folded tape the wide path runs. Pure data, `Send + Sync`,
/// computed once per nest at plan time and shared by all workers (like
/// the [`TileKernel`] it accompanies).
#[derive(Debug, Clone, PartialEq)]
pub struct LanePlan {
    /// The chosen lane direction.
    pub shape: LaneShape,
    /// Per statement, the tape the wide path runs (`fold`).
    pub(crate) wide: Vec<WideStmt>,
}

impl LanePlan {
    /// Short human-readable description for CLI output, e.g.
    /// `"axis dim 1"` or `"wavefront diagonal"`.
    pub fn describe(&self) -> String {
        match self.shape {
            LaneShape::Axis { dim } => format!("axis dim {dim}"),
            LaneShape::Wavefront { .. } => "wavefront diagonal".to_string(),
        }
    }
}

/// Decide whether (and along which direction) a compiled nest can
/// execute lane-parallel. `kernel` must be the scalar lowering of
/// `nest`.
///
/// Rules, in order:
/// 1. The tape must fit the lane register file
///    ([`LaneCause::WideTape`] otherwise).
/// 2. A dimension with component 0 in **every** dependence constraint
///    (innermost loop preferred — its lanes are contiguous in the
///    common row-major/trailing-dim case) → [`LaneShape::Axis`].
/// 3. `R ≥ 2` and every constraint's normalized component sum ≥ 1 →
///    [`LaneShape::Wavefront`] over the two innermost loop positions.
/// 4. Otherwise [`LaneCause::Carried`]: some dependence would cross a
///    lane block no matter the direction.
pub fn plan_lanes<const R: usize>(
    nest: &CompiledNest<R>,
    kernel: &TileKernel<R>,
) -> Result<LanePlan, LaneCause> {
    if kernel.reg_count() > MAX_LANE_REGS {
        return Err(LaneCause::WideTape);
    }
    let wide = kernel.stmts.iter().map(fold).collect();
    let order = &nest.structure.order;
    // Innermost loop position first: its dimension is usually the
    // layout's unit-stride one, giving contiguous lane loads.
    for pos in (0..R).rev() {
        let d = order.order[pos];
        if nest.constraints.iter().all(|c| c.vector[d] == 0) {
            return Ok(LanePlan { shape: LaneShape::Axis { dim: d }, wide });
        }
    }
    if R >= 2 {
        let plane_ok = nest.constraints.iter().all(|c| {
            let s: i64 = (0..R)
                .map(|pos| {
                    let dim = order.order[pos];
                    if order.ascending[dim] { c.vector[dim] } else { -c.vector[dim] }
                })
                .sum();
            s >= 1
        });
        if plane_ok {
            return Ok(LanePlan { shape: LaneShape::Wavefront { p: R - 2, q: R - 1 }, wide });
        }
    }
    Err(LaneCause::Carried)
}

/// The per-cursor lane deltas of one [`LanePlan`] over one binding,
/// computed once by [`NestRunner::bind`](crate::kernel::NestRunner::bind)
/// and kept in the [`BoundKernel`]: cursors are its read slots, then its
/// statements' writes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneBinding {
    shape: LaneShape,
    /// Per cursor: its element displacement from one lane to the next.
    ldel: Vec<i64>,
    /// Per cursor: its step from one lane block to the next along the
    /// sweep's innermost loop.
    step: Vec<i64>,
}

impl LaneBinding {
    pub(crate) fn new<const R: usize>(bk: &BoundKernel<R>, shape: LaneShape) -> Self {
        let ldel: Vec<i64> = match shape {
            // Lane `l` displaces the current point by `+l` along `dim`.
            LaneShape::Axis { dim } => bk.strides.iter().map(|s| s[dim]).collect(),
            // Lane `l` displaces the segment point by `+l` normalized
            // along position `p` and `−l` along `q`.
            LaneShape::Wavefront { p, q } => {
                let (dim_p, dim_q) = (bk.order[p], bk.order[q]);
                let dp: i64 = if bk.ascending[dim_p] { 1 } else { -1 };
                let dq: i64 = if bk.ascending[dim_q] { 1 } else { -1 };
                bk.strides.iter().map(|s| s[dim_p] * dp - s[dim_q] * dq).collect()
            }
        };
        // The innermost loop moves lane blocks, except when the lane
        // dimension is not the inner one: then it moves single points of
        // the inner dimension, as the scalar sweep does.
        let step = match shape {
            LaneShape::Axis { dim } if dim != bk.order[R - 1] => bk.steps.clone(),
            _ => ldel.iter().map(|l| l * LANES as i64).collect(),
        };
        LaneBinding { shape, ldel, step }
    }

    /// Axis lanes whose every cursor moves one element per lane.
    fn unit(&self) -> bool {
        matches!(self.shape, LaneShape::Axis { .. }) && self.ldel.iter().all(|&l| l == 1)
    }

    /// See [`NestRunner::lane_stride`](crate::kernel::NestRunner::lane_stride).
    pub(crate) fn stride_class(&self) -> &'static str {
        match self.shape {
            LaneShape::Wavefront { .. } => "diagonal",
            LaneShape::Axis { .. } if self.unit() => "unit",
            LaneShape::Axis { .. } => "strided",
        }
    }
}

/// Sweep `region` with the lane executor over a table of per-array cell
/// views (indexed by `ArrayId`); see [`TileKernel::run_bound_cells`].
/// `bk` must come from [`NestRunner::bind`](crate::kernel::NestRunner::bind)
/// on a lane-tier runner of the same nest and store geometry. Falls
/// through to the scalar tape for remainder slabs and short diagonal
/// segments; results are bitwise identical to
/// [`TileKernel::run_bound_cells`] either way.
pub(crate) fn run_lanes_cells<const R: usize>(
    kernel: &TileKernel<R>,
    plan: &LanePlan,
    bk: &BoundKernel<R>,
    region: Region<R>,
    arrays: &[&[Cell<f64>]],
) {
    if region.is_empty() {
        return;
    }
    let lb = bk.lanes.as_ref().expect("a lane-tier runner binds its lane plan");
    match lb.shape {
        LaneShape::Axis { dim } => run_axis(kernel, &plan.wide, bk, lb, dim, region, arrays),
        LaneShape::Wavefront { p, q } => run_wavefront(kernel, bk, lb, p, q, region, arrays),
    }
}

/// Axis lanes: split the region along the free dimension into a
/// `LANES`-aligned part for the lane sweep and a remainder slab for the
/// scalar tape. The split is safe in any order — no dependence crosses
/// `d`, so the two parts are independent.
fn run_axis<const R: usize>(
    kernel: &TileKernel<R>,
    wide: &[WideStmt],
    bk: &BoundKernel<R>,
    lb: &LaneBinding,
    d: usize,
    region: Region<R>,
    arrays: &[&[Cell<f64>]],
) {
    let ext = region.extent(d);
    let (full, _) = strip_split(ext);
    let rlo = region.lo();
    let rhi = region.hi();
    let strip = region.slab(d, rlo[d], rlo[d] + full - 1);
    if full >= 2 * LANES as i64 && d == bk.order[R - 1] && lb.unit() {
        wide_rows(kernel, wide, bk, d, strip, arrays);
    } else if full > 0 {
        axis_sweep(kernel, bk, lb, d, strip, arrays);
    }
    if full < ext {
        kernel.run_bound_cells(bk, region.slab(d, rlo[d] + full, rhi[d]), arrays);
    }
}

/// Split `len` points along a lane direction into the
/// [`LANES`]-aligned part the lane sweep runs and the remainder the
/// scalar tape runs: the one place either executor, and
/// [`lane_elems`], decides which points go where.
#[inline(always)]
fn strip_split(len: i64) -> (i64, i64) {
    let rem = len % LANES as i64;
    (len - rem, rem)
}

/// The diagonal segment at normalized sum `s` of the two innermost loop
/// positions, whose extents are `ext_p` and `ext_q`: its first and last
/// normalized coordinate along position `p` (empty when `lo > hi`).
#[inline(always)]
fn segment(s: i64, ext_p: i64, ext_q: i64) -> (i64, i64) {
    (0.max(s - (ext_q - 1)), (ext_p - 1).min(s))
}

/// Points of `region` the lane executor runs on the strip and on the
/// scalar remainder, in that order, when the sweep walks `region` in
/// `order` — counted by the splits [`run_axis`] and [`run_wavefront`]
/// make.
pub(crate) fn lane_elems<const R: usize>(
    plan: &LanePlan,
    region: Region<R>,
    order: &LoopStructureOrder<R>,
) -> (usize, usize) {
    if region.is_empty() {
        return (0, 0);
    }
    match plan.shape {
        LaneShape::Axis { dim } => {
            let (full, rem) = strip_split(region.extent(dim));
            let rest = region.len() / region.extent(dim) as usize;
            (full as usize * rest, rem as usize * rest)
        }
        LaneShape::Wavefront { p, q } => {
            // Every combination of the outer positions walks the same
            // segments of the (p, q) plane.
            let (ext_p, ext_q) = (region.extent(order.order[p]), region.extent(order.order[q]));
            let rest = region.len() / (ext_p * ext_q) as usize;
            let (mut full, mut rem) = (0, 0);
            for s in 0..ext_p + ext_q - 1 {
                let (lo, hi) = segment(s, ext_p, ext_q);
                let (f, r) = strip_split(hi - lo + 1);
                full += f;
                rem += r;
            }
            (full as usize * rest, rem as usize * rest)
        }
    }
}

/// The lane sweep proper. `region.extent(d)` must be a multiple of
/// [`LANES`]. Loop structure is the scalar sweep's with two changes:
/// the `d` loop always ascends (legal — it carries nothing) and steps
/// by [`LANES`], and each visit evaluates the block `d .. d+LANES`.
fn axis_sweep<const R: usize>(
    kernel: &TileKernel<R>,
    bk: &BoundKernel<R>,
    lb: &LaneBinding,
    d: usize,
    region: Region<R>,
    arrays: &[&[Cell<f64>]],
) {
    let rlo = region.lo();
    let rhi = region.hi();
    let inner = bk.order[R - 1];
    let views = bk.views(arrays);
    let (rslices, wslices) = views.split_at(bk.reads);
    let nr = bk.reads;

    // Lane `l` displaces the current point by `+l` along `d`.
    let mut cdelta = [0.0f64; R];
    cdelta[d] = 1.0;

    let lane_inner = d == inner;
    // The innermost sweep: over lane blocks of `d` when `d` is the
    // inner loop, over the inner dimension (original direction,
    // per-cursor steps from the binding) otherwise.
    let n_sweep = if lane_inner {
        (region.extent(d) / LANES as i64) as usize
    } else {
        region.extent(inner) as usize
    };
    let inner_start = if lane_inner {
        rlo[d]
    } else if bk.ascending[inner] {
        rlo[inner]
    } else {
        rhi[inner]
    };
    let inner_dir: i64 = if lane_inner {
        LANES as i64
    } else if bk.ascending[inner] {
        1
    } else {
        -1
    };

    let mut cur = Scratch::new(views.len(), 0i64);
    let cur = &mut *cur;
    let mut lregs = [[0.0f64; LANES]; MAX_LANE_REGS];

    walk_rows(kernel, bk, d, region, |p, coords| {
        bk.seat(p, cur);
        let mut ci = inner_start;
        for _ in 0..n_sweep {
            if kernel.uses_coords {
                coords[inner] = ci as f64;
            }
            for (j, sk) in kernel.stmts.iter().enumerate() {
                let v = eval_stmt_lanes(sk, &mut lregs, rslices, cur, &lb.ldel, coords, &cdelta);
                scatter(wslices[j], cur[nr + j], lb.ldel[nr + j], &v);
            }
            for (c, s) in cur.iter_mut().zip(&lb.step) {
                *c += *s;
            }
            ci += inner_dir;
        }
    });
}

/// The wide path of an axis sweep: lanes along `d`, the innermost loop,
/// unit-stride for every cursor, and `region.extent(d)` a multiple of
/// [`LANES`] of at least two lane blocks. Each row segment runs in
/// pieces of up to `W` points, on the folded tape `wide`. Out of line,
/// so [`run_axis`]'s frame does not carry `Wide`.
#[inline(never)]
fn wide_rows<const R: usize>(
    kernel: &TileKernel<R>,
    wide: &[WideStmt],
    bk: &BoundKernel<R>,
    d: usize,
    region: Region<R>,
    arrays: &[&[Cell<f64>]],
) {
    let views = bk.views(arrays);
    let (rslices, wslices) = views.split_at(bk.reads);
    let mut cur = Scratch::new(views.len(), 0i64);
    let cur = &mut *cur;
    let mut cdelta = [0.0f64; R];
    cdelta[d] = 1.0;
    let (lo, seg) = (region.lo()[d], region.extent(d) as usize);
    let mut w = Wide {
        regs: [[0.0; W]; MAX_LANE_REGS + 1],
        map: std::array::from_fn(|r| r),
        spare: MAX_LANE_REGS,
        a: [0.0; W],
        b: [0.0; W],
    };
    walk_rows(kernel, bk, d, region, |p, coords| {
        bk.seat(p, cur);
        for off in (0..seg).step_by(W) {
            let n = W.min(seg - off);
            coords[d] = (lo + off as i64) as f64;
            let piece = Piece { rslices, cur, off: off as i64, n, coords, cdelta: &cdelta };
            for (j, ws) in wide.iter().enumerate() {
                let at = (cur[bk.reads + j] + off as i64) as usize;
                piece.eval(ws, &mut w, &wslices[j][at..at + n]);
            }
        }
    });
}

/// Call `row` at the first point of every row of an axis lane sweep of
/// `region`, with that point's coordinates when the kernel reads them.
/// Rows follow the scalar sweep's outer loops, except that the lane
/// dimension `d` (when not innermost) ascends in blocks of [`LANES`] —
/// the slab preparation made its extent divide evenly.
#[inline(always)]
fn walk_rows<const R: usize>(
    kernel: &TileKernel<R>,
    bk: &BoundKernel<R>,
    d: usize,
    region: Region<R>,
    mut row: impl FnMut(&[i64; R], &mut [f64; R]),
) {
    let rlo = region.lo();
    let rhi = region.hi();
    let mut p = [0i64; R];
    for k in 0..R {
        p[k] = if bk.ascending[k] { rlo[k] } else { rhi[k] };
    }
    p[d] = rlo[d];
    let mut coords = [0.0f64; R];
    if kernel.uses_coords {
        for k in 0..R {
            coords[k] = p[k] as f64;
        }
    }
    loop {
        row(&p, &mut coords);
        let mut advanced = false;
        for pos in (0..R.saturating_sub(1)).rev() {
            let k = bk.order[pos];
            if k == d {
                if p[k] + (LANES as i64) - 1 < rhi[k] {
                    p[k] += LANES as i64;
                    advanced = true;
                } else {
                    p[k] = rlo[k];
                }
            } else if bk.ascending[k] {
                if p[k] < rhi[k] {
                    p[k] += 1;
                    advanced = true;
                } else {
                    p[k] = rlo[k];
                }
            } else if p[k] > rlo[k] {
                p[k] -= 1;
                advanced = true;
            } else {
                p[k] = rhi[k];
            }
            if kernel.uses_coords {
                coords[k] = p[k] as f64;
            }
            if advanced {
                break;
            }
        }
        if !advanced {
            break;
        }
    }
}

/// Wavefront lanes: walk the anti-diagonal hyperplanes `d = Σ ĵ` (ĵ =
/// normalized loop coordinates, 0 at each loop's starting end) in
/// increasing order — every dependence lands ≥ 1 plane later, so all
/// points within a plane are independent. Within a plane, the two
/// innermost loop positions (`pp`, `qq`) trade against each other along
/// diagonal segments, blocked by [`LANES`] with a per-point scalar
/// remainder; outer positions enumerate segments odometer-style.
fn run_wavefront<const R: usize>(
    kernel: &TileKernel<R>,
    bk: &BoundKernel<R>,
    lb: &LaneBinding,
    pp: usize,
    qq: usize,
    region: Region<R>,
    arrays: &[&[Cell<f64>]],
) {
    debug_assert!(R >= 2 && pp == R - 2 && qq == R - 1);
    let rlo = region.lo();
    let rhi = region.hi();
    let dim_p = bk.order[pp];
    let dim_q = bk.order[qq];
    let dp: i64 = if bk.ascending[dim_p] { 1 } else { -1 };
    let dq: i64 = if bk.ascending[dim_q] { 1 } else { -1 };
    // Extents by loop *position*.
    let ext: [i64; R] = std::array::from_fn(|pos| region.extent(bk.order[pos]));
    let views = bk.views(arrays);
    let (rslices, wslices) = views.split_at(bk.reads);
    let nr = bk.reads;

    // Lane `l` displaces the segment point by `+l` normalized along
    // position `pp` and `−l` along `qq`.
    let mut cdelta = [0.0f64; R];
    cdelta[dim_p] = dp as f64;
    cdelta[dim_q] = -(dq as f64);

    let dmax: i64 = (0..R).map(|pos| ext[pos] - 1).sum();
    let mut cur = Scratch::new(views.len(), 0i64);
    let cur = &mut *cur;
    let mut lregs = [[0.0f64; LANES]; MAX_LANE_REGS];
    let mut pregs = [0.0f64; MAX_LANE_REGS];

    for dsum in 0..=dmax {
        // Odometer over the outer positions' normalized coordinates.
        let mut mids = [0i64; R];
        loop {
            let msum: i64 = (0..pp).map(|pos| mids[pos]).sum();
            let s = dsum - msum;
            let (jp_lo, jp_hi) = segment(s, ext[pp], ext[qq]);
            if jp_lo <= jp_hi {
                // Actual coordinates of the segment's first point.
                let mut x = [0i64; R];
                for (pos, &m) in mids.iter().enumerate().take(pp) {
                    let dim = bk.order[pos];
                    x[dim] = if bk.ascending[dim] { rlo[dim] + m } else { rhi[dim] - m };
                }
                let jq0 = s - jp_lo;
                x[dim_p] =
                    if bk.ascending[dim_p] { rlo[dim_p] + jp_lo } else { rhi[dim_p] - jp_lo };
                x[dim_q] =
                    if bk.ascending[dim_q] { rlo[dim_q] + jq0 } else { rhi[dim_q] - jq0 };

                bk.seat(&x, cur);
                let mut coords = [0.0f64; R];
                if kernel.uses_coords {
                    for k in 0..R {
                        coords[k] = x[k] as f64;
                    }
                }

                let (full, rem) = strip_split(jp_hi - jp_lo + 1);
                for _ in 0..full / LANES as i64 {
                    for (j, sk) in kernel.stmts.iter().enumerate() {
                        let v = eval_stmt_lanes(
                            sk, &mut lregs, rslices, cur, &lb.ldel, &coords, &cdelta,
                        );
                        scatter(wslices[j], cur[nr + j], lb.ldel[nr + j], &v);
                    }
                    for (c, st) in cur.iter_mut().zip(&lb.step) {
                        *c += *st;
                    }
                    if kernel.uses_coords {
                        coords[dim_p] += (LANES as i64 * dp) as f64;
                        coords[dim_q] -= (LANES as i64 * dq) as f64;
                    }
                }
                for _ in 0..rem {
                    for (j, sk) in kernel.stmts.iter().enumerate() {
                        let v = eval_stmt_point(sk, &mut pregs, rslices, cur, &coords);
                        wslices[j][cur[nr + j] as usize].set(v);
                    }
                    for (c, st) in cur.iter_mut().zip(&lb.ldel) {
                        *c += *st;
                    }
                    if kernel.uses_coords {
                        coords[dim_p] += dp as f64;
                        coords[dim_q] -= dq as f64;
                    }
                }
            }
            let mut advanced = false;
            for pos in (0..pp).rev() {
                if mids[pos] + 1 < ext[pos] {
                    mids[pos] += 1;
                    advanced = true;
                    break;
                }
                mids[pos] = 0;
            }
            if !advanced {
                break;
            }
        }
    }
}

/// The [`LANES`] contiguous cells from `at`: one bounds check for the
/// whole block.
#[inline(always)]
fn lane_block(slice: &[Cell<f64>], at: i64) -> &[Cell<f64>; LANES] {
    let at = at as usize;
    slice[at..at + LANES].try_into().expect("a range of LANES cells")
}

/// Gather one read slot's value for all lanes. With `ldel == 1` (lane
/// dimension is the layout's unit-stride one) the block moves as one
/// checked slice, a contiguous load the autovectorizer folds into
/// vector registers; other deltas load lane by lane.
#[inline(always)]
fn gather(slice: &[Cell<f64>], at: i64, ldel: i64) -> [f64; LANES] {
    if ldel == 1 {
        let block = lane_block(slice, at);
        std::array::from_fn(|l| block[l].get())
    } else {
        std::array::from_fn(|l| slice[(at + l as i64 * ldel) as usize].get())
    }
}

/// Store one statement's value for all lanes; the counterpart of
/// [`gather`].
#[inline(always)]
fn scatter(slice: &[Cell<f64>], at: i64, ldel: i64, v: &[f64; LANES]) {
    if ldel == 1 {
        for (c, &x) in lane_block(slice, at).iter().zip(v) {
            c.set(x);
        }
    } else {
        for (l, &x) in v.iter().enumerate() {
            slice[(at + l as i64 * ldel) as usize].set(x);
        }
    }
}

/// Resolve one operand for all lanes. Mirrors the scalar executor's
/// `load`, widened.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn load_lanes<const R: usize>(
    s: Src,
    lregs: &[[f64; LANES]; MAX_LANE_REGS],
    rslices: &[&[Cell<f64>]],
    cur: &[i64],
    ldel: &[i64],
    prev: &[f64; LANES],
    coords: &[f64; R],
    cdelta: &[f64; R],
) -> [f64; LANES] {
    match s {
        Src::Reg(r) => lregs[r as usize & LREG_MASK],
        Src::Prev => *prev,
        Src::Const(c) => [c; LANES],
        Src::Read(i) => gather(rslices[i as usize], cur[i as usize], ldel[i as usize]),
        Src::Coord(k) => {
            let b = coords[k as usize];
            let dl = cdelta[k as usize];
            std::array::from_fn(|l| b + l as f64 * dl)
        }
    }
}

/// One operand of an instruction over a piece, where it lives: a
/// register's (or `Prev`'s) values, a `Read`'s cells, a `Const`, or a
/// folded read's cells and the constant it scales them by.
enum Opnd<'a> {
    Vals(&'a [f64]),
    Cells(&'a [Cell<f64>]),
    Splat(f64),
    Scaled(f64, &'a [Cell<f64>]),
}

/// Bind `$x` to an iterator over the values of operand `$o`, then
/// evaluate `$body`: one copy of `$body` per operand kind.
macro_rules! with_vals {
    ($o:expr, |$x:ident| $body:expr) => {
        match $o {
            Opnd::Vals(v) => {
                let $x = v.iter().copied();
                $body
            }
            Opnd::Cells(c) => {
                let $x = c.iter().map(Cell::get);
                $body
            }
            Opnd::Splat(k) => {
                let $x = std::iter::repeat(k);
                $body
            }
            Opnd::Scaled(k, c) => {
                let $x = c.iter().map(move |c| k * c.get());
                $body
            }
        }
    };
}

/// Store `vals` into `out`, one cell per value.
#[inline(always)]
fn put(out: &[Cell<f64>], vals: impl Iterator<Item = f64>) {
    out.iter().zip(vals).for_each(|(o, x)| o.set(x));
}

/// Apply one binary operator pointwise over a piece of a row segment.
/// The operator and both operand kinds are matched **once** per
/// instruction; each arm is a counted loop of [`BinOp::apply`] on that
/// operator, so per-point results are bitwise identical to the scalar
/// tape.
#[inline(always)]
fn bin_each(op: BinOp, a: Opnd, b: Opnd, out: &[Cell<f64>]) {
    macro_rules! arms { ($($v:ident)*) => { match op { $(BinOp::$v => {
        with_vals!(a, |xa| with_vals!(b, |xb| {
            put(out, xa.zip(xb).map(|(x, y)| BinOp::$v.apply(x, y)))
        }))
    })* } } }
    arms!(Add Sub Mul Div Min Max Pow)
}

/// Apply one unary operator pointwise over a piece; see [`bin_each`].
#[inline(always)]
fn un_each(op: UnaryOp, a: Opnd, out: &[Cell<f64>]) {
    macro_rules! arms { ($($v:ident)*) => { match op { $(UnaryOp::$v => {
        with_vals!(a, |xa| put(out, xa.map(|x| UnaryOp::$v.apply(x))))
    })* } } }
    arms!(Neg Abs Sqrt Exp Ln Recip Sin Cos)
}

/// Apply one binary operator lane-wise. The operator is matched **once**
/// per instruction (not per lane); each arm is a fixed-width loop of the
/// exact scalar operation [`BinOp::apply`] performs, so per-lane results
/// are bitwise identical to the scalar tape.
#[inline(always)]
fn bin_lanes(op: BinOp, a: &[f64; LANES], b: &[f64; LANES]) -> [f64; LANES] {
    let mut out = [0.0f64; LANES];
    match op {
        BinOp::Add => {
            for l in 0..LANES {
                out[l] = a[l] + b[l];
            }
        }
        BinOp::Sub => {
            for l in 0..LANES {
                out[l] = a[l] - b[l];
            }
        }
        BinOp::Mul => {
            for l in 0..LANES {
                out[l] = a[l] * b[l];
            }
        }
        BinOp::Div => {
            for l in 0..LANES {
                out[l] = a[l] / b[l];
            }
        }
        BinOp::Min => {
            for l in 0..LANES {
                out[l] = a[l].min(b[l]);
            }
        }
        BinOp::Max => {
            for l in 0..LANES {
                out[l] = a[l].max(b[l]);
            }
        }
        BinOp::Pow => {
            for l in 0..LANES {
                out[l] = a[l].powf(b[l]);
            }
        }
    }
    out
}

/// Apply one unary operator lane-wise; see [`bin_lanes`].
#[inline(always)]
fn un_lanes(op: UnaryOp, a: &[f64; LANES]) -> [f64; LANES] {
    let mut out = [0.0f64; LANES];
    match op {
        UnaryOp::Neg => {
            for l in 0..LANES {
                out[l] = -a[l];
            }
        }
        UnaryOp::Abs => {
            for l in 0..LANES {
                out[l] = a[l].abs();
            }
        }
        UnaryOp::Sqrt => {
            for l in 0..LANES {
                out[l] = a[l].sqrt();
            }
        }
        UnaryOp::Exp => {
            for l in 0..LANES {
                out[l] = a[l].exp();
            }
        }
        UnaryOp::Ln => {
            for l in 0..LANES {
                out[l] = a[l].ln();
            }
        }
        UnaryOp::Recip => {
            for l in 0..LANES {
                out[l] = 1.0 / a[l];
            }
        }
        UnaryOp::Sin => {
            for l in 0..LANES {
                out[l] = a[l].sin();
            }
        }
        UnaryOp::Cos => {
            for l in 0..LANES {
                out[l] = a[l].cos();
            }
        }
    }
    out
}

/// One statement tape over a whole lane block; the lane-wide analogue
/// of the scalar executor's `eval_stmt!`, with the same final-node
/// fusion (a non-empty tape's last instruction feeds the caller
/// directly).
#[inline(always)]
fn eval_stmt_lanes<const R: usize>(
    sk: &StmtKernel,
    lregs: &mut [[f64; LANES]; MAX_LANE_REGS],
    rslices: &[&[Cell<f64>]],
    cur: &[i64],
    ldel: &[i64],
    coords: &[f64; R],
    cdelta: &[f64; R],
) -> [f64; LANES] {
    match sk.instrs.split_last() {
        Some((last, rest)) => {
            let mut prev = [0.0f64; LANES];
            for ins in rest {
                let r = match *ins {
                    Instr::Bin { op, dst, a, b } => {
                        let va = load_lanes(a, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                        let vb = load_lanes(b, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                        let r = bin_lanes(op, &va, &vb);
                        lregs[dst as usize & LREG_MASK] = r;
                        r
                    }
                    Instr::Un { op, dst, a } => {
                        let va = load_lanes(a, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                        let r = un_lanes(op, &va);
                        lregs[dst as usize & LREG_MASK] = r;
                        r
                    }
                };
                prev = r;
            }
            match *last {
                Instr::Bin { op, a, b, .. } => {
                    let va = load_lanes(a, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                    let vb = load_lanes(b, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                    bin_lanes(op, &va, &vb)
                }
                Instr::Un { op, a, .. } => {
                    let va = load_lanes(a, lregs, rslices, cur, ldel, &prev, coords, cdelta);
                    un_lanes(op, &va)
                }
            }
        }
        None => load_lanes(
            sk.result,
            lregs,
            rslices,
            cur,
            ldel,
            &[0.0; LANES],
            coords,
            cdelta,
        ),
    }
}

/// Points per piece of a unit-stride row segment on the wide path: each
/// instruction matches its operator once per piece, then loops over up
/// to `W` points.
const W: usize = 64;

/// The wide path's stack state: a register file of `W`-point registers
/// (8.5 KiB), one more than a tape may name, and two buffers for
/// `Coord` operands. `map` renames each logical register to a physical
/// one; the one it leaves out, `spare`, takes the next result.
struct Wide {
    regs: [[f64; W]; MAX_LANE_REGS + 1],
    map: [usize; MAX_LANE_REGS],
    spare: usize,
    a: [f64; W],
    b: [f64; W],
}

/// `n` consecutive points of a unit-stride row segment, `off` elements
/// past the cursors `cur`.
struct Piece<'a, const R: usize> {
    rslices: &'a [&'a [Cell<f64>]],
    cur: &'a [i64],
    off: i64,
    n: usize,
    coords: &'a [f64; R],
    cdelta: &'a [f64; R],
}

impl<const R: usize> Piece<'_, R> {
    /// Resolve one operand over the piece where it lives: physical
    /// register `reg(p)` for a register (`Prev` is the physical register
    /// `prev`), the piece's cells for a `Read` (scaled by `scale` when
    /// folded), the value for a `Const`; only a `Coord` is filled, into
    /// `buf`. Mirrors [`load_lanes`], widened.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn operand<'r>(
        &'r self,
        s: Src,
        scale: Option<f64>,
        reg: impl Fn(usize) -> &'r [f64; W],
        map: &[usize; MAX_LANE_REGS],
        prev: usize,
        buf: &'r mut [f64; W],
    ) -> Opnd<'r> {
        let n = self.n;
        match s {
            Src::Reg(r) => Opnd::Vals(&reg(map[r as usize & LREG_MASK])[..n]),
            Src::Prev => Opnd::Vals(&reg(prev)[..n]),
            Src::Const(c) => Opnd::Splat(c),
            Src::Read(i) => {
                let at = (self.cur[i as usize] + self.off) as usize;
                let cells = &self.rslices[i as usize][at..at + n];
                match scale {
                    Some(k) => Opnd::Scaled(k, cells),
                    None => Opnd::Cells(cells),
                }
            }
            Src::Coord(k) => {
                let (b, dl) = (self.coords[k as usize], self.cdelta[k as usize]);
                for (l, x) in buf[..n].iter_mut().enumerate() {
                    *x = b + l as f64 * dl;
                }
                Opnd::Vals(&buf[..n])
            }
        }
    }

    /// One statement's folded tape over the piece, its values stored
    /// into `row`, the destination's cells. Each instruction but the
    /// last computes into the spare register, then swaps it with its
    /// destination in `map`, so no result is copied; the last computes
    /// straight into `row`. The wide analogue of [`eval_stmt_lanes`].
    #[inline(always)]
    fn eval(&self, ws: &WideStmt, w: &mut Wide, row: &[Cell<f64>]) {
        let n = self.n;
        let Some(last) = ws.instrs.len().checked_sub(1) else {
            // An empty tape: its result is a leaf operand.
            let (s, scale) = ws.result;
            let v = self.operand(s, scale, |p| &w.regs[p], &w.map, 0, &mut w.a);
            return with_vals!(v, |x| put(row, x));
        };
        let mut prev = 0;
        for (i, &(ins, [ka, kb])) in ws.instrs.iter().enumerate() {
            let spare = w.spare;
            let (lo, rest) = w.regs.split_at_mut(spare);
            let (out, hi) = rest.split_first_mut().expect("the spare is a register");
            let out = if i < last { Cell::from_mut(&mut out[..n]).as_slice_of_cells() } else { row };
            let reg = |p: usize| if p < spare { &lo[p] } else { &hi[p - spare - 1] };
            let dst = match ins {
                Instr::Bin { op, dst, a, b } => {
                    let va = self.operand(a, ka, reg, &w.map, prev, &mut w.a);
                    let vb = self.operand(b, kb, reg, &w.map, prev, &mut w.b);
                    bin_each(op, va, vb, out);
                    dst
                }
                Instr::Un { op, dst, a } => {
                    let va = self.operand(a, ka, reg, &w.map, prev, &mut w.a);
                    un_each(op, va, out);
                    dst
                }
            };
            if i < last {
                prev = spare;
                std::mem::swap(&mut w.map[dst as usize & LREG_MASK], &mut w.spare);
            }
        }
    }
}

/// One statement of the wide path's tape (see [`fold`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WideStmt {
    /// The instructions left, each with the constants its `a` and `b`
    /// operands scale a folded `Read` by.
    pub(crate) instrs: Vec<(Instr, [Option<f64>; 2])>,
    /// The statement's value when no instruction is left.
    result: (Src, Option<f64>),
}

/// The wide path's tape of one statement: its scalar tape with every
/// `Const × Read` (either order, the constant not NaN) deleted, and its
/// one consumer — a tape is a tree, so the first later operand naming
/// its value: `Prev` right after it, its register after that — reading
/// the `Read` scaled by the constant instead. For a constant that is not
/// NaN, `k·x` and `x·k` are the same bits. A folded root, which has no
/// consumer, leaves an empty tape whose result is the scaled read.
fn fold(sk: &StmtKernel) -> WideStmt {
    let mut instrs: Vec<_> = sk.instrs.iter().map(|&ins| (ins, [None; 2])).collect();
    let mut result = (sk.result, None);
    let mut i = 0;
    while i < instrs.len() {
        let (dst, scaled) = match instrs[i] {
            (Instr::Bin { op: BinOp::Mul, dst, a: Src::Const(k), b: Src::Read(r) }, [_, None])
            | (Instr::Bin { op: BinOp::Mul, dst, a: Src::Read(r), b: Src::Const(k) }, [None, _])
                if !k.is_nan() =>
            {
                (dst, (Src::Read(r), Some(k)))
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let consumer = instrs[i + 1..].iter_mut().enumerate().find_map(|(j, (ins, scale))| {
            let neg = matches!(ins, Instr::Un { op: UnaryOp::Neg, .. });
            let names = |s: &&mut Src| **s == Src::Reg(dst) || (j == 0 && **s == Src::Prev);
            operands(ins).into_iter().zip(scale).find_map(|(s, sc)| Some((neg, s.filter(names)?, sc)))
        });
        match consumer {
            // LLVM may rewrite `-(k·x)` as `(−k)·x`, which flips a NaN's
            // sign: a `Neg` reads its operand from a register.
            Some((true, ..)) => {
                i += 1;
                continue;
            }
            Some((false, s, sc)) => (*s, *sc) = scaled,
            None => result = scaled,
        }
        instrs.remove(i);
    }
    WideStmt { instrs, result }
}

/// An instruction's operands, `a` then `b`.
fn operands(ins: &mut Instr) -> [Option<&mut Src>; 2] {
    match ins {
        Instr::Bin { a, b, .. } => [Some(a), Some(b)],
        Instr::Un { a, .. } => [Some(a), None],
    }
}

/// One statement tape at one grid point — the scalar remainder path for
/// diagonal segments shorter than a lane block. Registers fit
/// [`MAX_LANE_REGS`] because [`plan_lanes`] checked the tape width.
#[inline(always)]
fn eval_stmt_point<const R: usize>(
    sk: &StmtKernel,
    regs: &mut [f64; MAX_LANE_REGS],
    rslices: &[&[Cell<f64>]],
    cur: &[i64],
    coords: &[f64; R],
) -> f64 {
    #[inline(always)]
    fn load_point<const R: usize>(
        s: Src,
        regs: &[f64; MAX_LANE_REGS],
        rslices: &[&[Cell<f64>]],
        cur: &[i64],
        prev: f64,
        coords: &[f64; R],
    ) -> f64 {
        match s {
            Src::Reg(r) => regs[r as usize & LREG_MASK],
            Src::Prev => prev,
            Src::Const(c) => c,
            Src::Read(i) => rslices[i as usize][cur[i as usize] as usize].get(),
            Src::Coord(k) => coords[k as usize],
        }
    }
    match sk.instrs.split_last() {
        Some((last, rest)) => {
            let mut prev = 0.0f64;
            for ins in rest {
                let r = match *ins {
                    Instr::Bin { op, dst, a, b } => {
                        let va = load_point(a, regs, rslices, cur, prev, coords);
                        let vb = load_point(b, regs, rslices, cur, prev, coords);
                        let r = op.apply(va, vb);
                        regs[dst as usize & LREG_MASK] = r;
                        r
                    }
                    Instr::Un { op, dst, a } => {
                        let va = load_point(a, regs, rslices, cur, prev, coords);
                        let r = op.apply(va);
                        regs[dst as usize & LREG_MASK] = r;
                        r
                    }
                };
                prev = r;
            }
            match *last {
                Instr::Bin { op, a, b, .. } => {
                    let va = load_point(a, regs, rslices, cur, prev, coords);
                    let vb = load_point(b, regs, rslices, cur, prev, coords);
                    op.apply(va, vb)
                }
                Instr::Un { op, a, .. } => {
                    let va = load_point(a, regs, rslices, cur, prev, coords);
                    op.apply(va)
                }
            }
        }
        None => load_point(sk.result, regs, rslices, cur, 0.0, coords),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DenseArray;
    use crate::exec::compile;
    use crate::expr::Expr;
    use crate::kernel::{FallbackReason, KernelMode, KernelTier, NestRunner};
    use crate::program::{Program, Store};
    use crate::region::Region;
    use crate::stmt::Statement;

    /// Run every nest of `p` twice — scalar tape vs lane tier — and
    /// assert bitwise identity plus the expected lane shapes.
    fn scalar_vs_lanes<const R: usize>(
        p: &Program<R>,
        init: impl Fn(&mut Store<R>),
        want: &[Option<LaneShape>],
    ) {
        let compiled = compile(p).unwrap();
        let mut scalar = Store::new(p);
        let mut lanes = Store::new(p);
        init(&mut scalar);
        init(&mut lanes);
        let mut shapes = Vec::new();
        for nest in compiled.nests() {
            let sr = NestRunner::with_mode(nest, KernelMode::Scalar);
            assert_eq!(sr.tier(), KernelTier::Scalar);
            let sb = sr.bind(&scalar, &nest.structure.order);
            sr.run_tile(nest, sb.as_ref(), nest.region, &nest.structure.order, &mut scalar);

            let lr = NestRunner::auto(nest);
            shapes.push(lr.lane_plan().map(|pl| pl.shape));
            let lb = lr.bind(&lanes, &nest.structure.order);
            lr.run_tile(nest, lb.as_ref(), nest.region, &nest.structure.order, &mut lanes);
        }
        assert_eq!(shapes, want, "lane shapes");
        for (a, b) in scalar.arrays().iter().zip(lanes.arrays().iter()) {
            let av = a.as_slice();
            let bv = b.as_slice();
            assert_eq!(av.len(), bv.len());
            for (x, y) in av.iter().zip(bv) {
                assert_eq!(x.to_bits(), y.to_bits(), "lane tier diverged from scalar");
            }
        }
    }

    #[test]
    fn axis_lanes_inner_dim_with_remainder() {
        // 21 columns: two full lane blocks + a 5-wide scalar remainder.
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [6, 20]);
        let a = p.array("a", bounds);
        let b = p.array("b", bounds);
        p.stmt(
            Region::rect([1, 0], [6, 20]),
            b,
            Expr::lit(0.5) * Expr::read_at(a, [-1, 0]) + Expr::read(b).sqrt(),
        );
        scalar_vs_lanes(
            &p,
            |s| {
                for id in 0..2 {
                    *s.get_mut(id) =
                        DenseArray::from_fn(bounds, |q| 1.0 + 0.03 * (q[0] * 7 + q[1]) as f64);
                }
            },
            // b is written and read at shift 0 only: dim 1 is free, and
            // it is the inner (contiguous) dimension.
            &[Some(LaneShape::Axis { dim: 1 })],
        );
    }

    #[test]
    fn axis_lanes_outer_dim() {
        // fig3 shape: recurrence along dim 0, lanes along free dim 1,
        // which the structure makes the *outer* loop.
        let n = 19i64;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::lit(1.5) * Expr::read_primed_at(a, [-1, 0]) + Expr::lit(0.25),
        );
        scalar_vs_lanes(
            &p,
            |s| {
                *s.get_mut(0) =
                    DenseArray::from_fn(bounds, |q| 0.5 + 0.01 * (q[0] + 3 * q[1]) as f64)
            },
            &[Some(LaneShape::Axis { dim: 1 })],
        );
    }

    #[test]
    fn wavefront_lanes_sor_shape() {
        // Both dimensions carried (SOR five-point with primed north +
        // west reads): only the anti-diagonal is dependence-free.
        let n = 23i64;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [n, n]);
        let u = p.array("u", bounds);
        p.stmt(
            Region::rect([1, 1], [n - 1, n - 1]),
            u,
            Expr::lit(0.25)
                * (Expr::read_primed_at(u, [-1, 0])
                    + Expr::read_primed_at(u, [0, -1])
                    + Expr::read_at(u, [1, 0])
                    + Expr::read_at(u, [0, 1])),
        );
        scalar_vs_lanes(
            &p,
            |s| {
                *s.get_mut(0) =
                    DenseArray::from_fn(bounds, |q| ((q[0] * 31 + q[1] * 17) % 97) as f64 * 0.125)
            },
            &[Some(LaneShape::Wavefront { p: 0, q: 1 })],
        );
    }

    #[test]
    fn wavefront_lanes_three_dimensional() {
        // Sweep3d shape: all three axes carried, plane sums all 1.
        let mut p = Program::<3>::new();
        let bounds = Region::rect([0, 0, 0], [9, 11, 13]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 1, 1], [9, 11, 13]),
            a,
            Expr::read_primed_at(a, [-1, 0, 0])
                + Expr::read_primed_at(a, [0, -1, 0])
                + Expr::read_primed_at(a, [0, 0, -1])
                + Expr::lit(0.0625),
        );
        scalar_vs_lanes(
            &p,
            |s| {
                *s.get_mut(0) = DenseArray::from_fn(bounds, |q| {
                    0.001 * ((q[0] * 5 + q[1] * 3 + q[2]) % 53) as f64
                })
            },
            &[Some(LaneShape::Wavefront { p: 1, q: 2 })],
        );
    }

    #[test]
    fn multi_statement_scan_keeps_same_point_chains() {
        // Later statements read what earlier statements wrote at the
        // same point; statement-major lane execution must preserve it.
        let n = 17i64;
        let bounds = Region::rect([1, 1], [n, n]);
        let mut p = Program::<2>::new();
        let r = p.array("r", bounds);
        let aa = p.array("aa", bounds);
        let d = p.array("d", bounds);
        p.scan(
            Region::rect([2, 2], [n - 1, n - 1]),
            vec![
                Statement::new(r, Expr::read(aa) * Expr::read_primed_at(d, [-1, 0])),
                Statement::new(
                    d,
                    (Expr::lit(2.0) - Expr::read_at(aa, [-1, 0]) * Expr::read(r)).recip(),
                ),
            ],
        );
        scalar_vs_lanes(
            &p,
            |s| {
                for id in 0..3 {
                    *s.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                        1.5 + 0.01 * (q[0] * 13 + q[1] * 7 + id as i64) as f64
                    });
                }
            },
            // Recurrence along dim 0 only: dim 1 free.
            &[Some(LaneShape::Axis { dim: 1 })],
        );
    }

    #[test]
    fn wide_tape_falls_back_to_scalar() {
        // A deep left-held chain forces > MAX_LANE_REGS registers while
        // staying within the scalar MAX_REGS.
        let mut p = Program::<1>::new();
        let bounds = Region::rect([0], [40]);
        let a = p.array("a", bounds);
        // Every level holds a computed left operand in a register while
        // the right subtree evaluates, so depth ≈ live registers.
        fn left_held(a: crate::expr::ArrayId, depth: usize) -> Expr<1> {
            if depth == 0 {
                Expr::read(a)
            } else {
                (Expr::read(a) + Expr::lit(1.0)).min(left_held(a, depth - 1))
            }
        }
        p.stmt(bounds, a, left_held(a, MAX_LANE_REGS + 2));
        let compiled = compile(&p).unwrap();
        let nest = compiled.nests().next().unwrap();
        let runner = NestRunner::auto(nest);
        assert_eq!(runner.tier(), KernelTier::Scalar);
        assert_eq!(
            runner.fallback(),
            Some(FallbackReason::LaneUnsupported(LaneCause::WideTape))
        );
    }

    #[test]
    fn interpreted_ceiling_is_respected() {
        let mut p = Program::<1>::new();
        let bounds = Region::rect([0], [9]);
        let a = p.array("a", bounds);
        p.stmt(bounds, a, Expr::read(a) + Expr::lit(1.0));
        let compiled = compile(&p).unwrap();
        let nest = compiled.nests().next().unwrap();
        assert_eq!(
            NestRunner::with_mode(nest, KernelMode::Interpreted).tier(),
            KernelTier::Interpreted
        );
        assert_eq!(
            NestRunner::with_mode(nest, KernelMode::Scalar).tier(),
            KernelTier::Scalar
        );
        assert_eq!(NestRunner::auto(nest).tier(), KernelTier::Lanes);
    }
}
