//! Compiled tile kernels: stride-resolved, register-style tapes that
//! replace the recursive expression interpreter on the hot path.
//!
//! [`crate::exec::run_nest_region_with_sink`] walks a boxed [`Expr`] tree
//! per grid point, dispatching every array read through a virtual
//! [`crate::expr::EvalCtx`]. That is fine for tracing and for oddball
//! nests, but it makes the paper's per-element compute term `c`
//! interpreter-dominated. This module lowers a [`CompiledNest`] **once**
//! into a [`TileKernel`] — a flat tape of three-address ops whose array
//! reads are pre-resolved to (array slot, linear element delta) using the
//! array's layout strides — so the inner loop is a branch-light sweep
//! with no `Point` arithmetic, no `ArrayId` indirection, and no
//! recursion.
//!
//! The tape *is* the fused fast path: every instruction embeds its leaf
//! operands (constants, stride-resolved reads, loop coordinates)
//! directly, so an affine-shift stencil like `0.25*u + 0.75*0.25*
//! (u'@n + u'@w + u@s + u@e + f)` becomes a handful of fused
//! load-and-apply ops.
//!
//! There are **three tiers**, selected per nest by [`NestRunner`] under
//! a [`KernelMode`] ceiling:
//!
//! 1. **Lanes** ([`crate::kernel_lanes`]) — the tape lowered a second
//!    time into lane-blocked form, executing [`crate::kernel_lanes::LANES`]
//!    independent grid points per tape step (along a dependence-free
//!    axis, or in lockstep along a wavefront hyperplane).
//! 2. **Scalar** — this module's register tape, one point at a time.
//! 3. **Interpreted** — the reference expression interpreter.
//!
//! Anything a lowering cannot express (snapshot buffering, scalar
//! contraction, absurd register pressure, lane-crossing dependences)
//! falls back one tier at a time via [`NestRunner`] — same results,
//! transparently, with the [`FallbackReason`] recorded.
//!
//! Bit-identity contract: lowering performs **no** algebraic rewrites —
//! no constant folding, no re-association, no `mul_add` fusion. The tape
//! executes exactly the operator sequence [`Expr::eval`] would
//! (left-to-right, one `BinOp::apply`/`UnaryOp::apply` per tree node),
//! so kernel output is bitwise identical to interpreter output, and the
//! tape length equals [`Expr::flop_count`] by construction.

use std::cell::Cell;

use crate::array::Layout;
use crate::exec::CompiledNest;
use crate::expr::{ArrayId, BinOp, Expr, UnaryOp};
use crate::index::Offset;
use crate::program::Store;
use crate::region::{LoopStructureOrder, Region};

/// Maximum number of scalar registers a statement tape may use.
pub const MAX_REGS: usize = 32;

/// Maximum number of instructions in a single statement's tape.
pub const MAX_TAPE: usize = 256;

/// Register indices are `< MAX_REGS` by construction (the allocator
/// refuses to go past it), so masking with `MAX_REGS − 1` is the
/// identity — it just lets the register file be indexed without a
/// bounds-check branch in the inner loop. Requires `MAX_REGS` to be a
/// power of two.
const REG_MASK: usize = MAX_REGS - 1;
const _: () = assert!(MAX_REGS.is_power_of_two());

/// Which kernel tiers an engine may use. This is a *ceiling*, not a
/// guarantee: each nest lowers as far as the request and its own shape
/// allow, dropping one tier at a time (lanes → scalar tape →
/// interpreter) with the [`FallbackReason`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Reference expression interpreter only (baseline runs).
    Interpreted,
    /// At most the scalar register tape; never lane-parallel.
    Scalar,
    /// Lane-parallel kernels where the nest allows them, the scalar
    /// tape otherwise (the default).
    #[default]
    Lanes,
}

impl KernelMode {
    /// Stable lowercase name (metrics labels, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Interpreted => "interpreted",
            KernelMode::Scalar => "scalar",
            KernelMode::Lanes => "lanes",
        }
    }
}

/// The tier a nest actually executes at — what the lowering achieved
/// under the requested [`KernelMode`] ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// The reference expression interpreter.
    Interpreted,
    /// The scalar register tape of this module.
    Scalar,
    /// The lane-parallel tier of [`crate::kernel_lanes`].
    Lanes,
}

impl KernelTier {
    /// Stable lowercase name (metrics labels, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Interpreted => "interpreted",
            KernelTier::Scalar => "scalar",
            KernelTier::Lanes => "lanes",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the lane lowering refused a nest that the scalar tape accepts
/// (the payload of [`FallbackReason::LaneUnsupported`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneCause {
    /// Lane-crossing reads everywhere: every axis carries a dependence
    /// and no wavefront-plane lane direction satisfies the dependence
    /// constraints either.
    Carried,
    /// The tape is too wide for the lane register file — it needs more
    /// than [`crate::kernel_lanes::MAX_LANE_REGS`] registers.
    WideTape,
}

/// Why a nest could not be lowered to the next kernel tier and executes
/// one tier down instead.
///
/// | Variant | Refused tier | Executes on |
/// |---|---|---|
/// | [`Buffered`](FallbackReason::Buffered) | scalar + lanes | interpreter |
/// | [`Contracted`](FallbackReason::Contracted) | scalar + lanes | interpreter |
/// | [`RegisterPressure`](FallbackReason::RegisterPressure) | scalar + lanes | interpreter |
/// | [`TapeTooLong`](FallbackReason::TapeTooLong) | scalar + lanes | interpreter |
/// | [`UnsupportedExpr`](FallbackReason::UnsupportedExpr) | scalar + lanes | interpreter |
/// | [`LaneUnsupported`](FallbackReason::LaneUnsupported) | lanes only | scalar tape |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The nest snapshots an array (array-semantics fallback); reads
    /// must observe the pre-nest copy, which the tape does not model.
    Buffered,
    /// The nest contracts arrays to per-iteration scalars.
    Contracted,
    /// An expression needs more than [`MAX_REGS`] temporaries.
    RegisterPressure,
    /// A statement lowers to more than [`MAX_TAPE`] instructions.
    TapeTooLong,
    /// An expression form the lowering does not support (e.g. an
    /// `IndexVar` naming a dimension outside the nest's rank).
    UnsupportedExpr,
    /// The scalar tape compiled but the lane lowering refused; the nest
    /// runs on the scalar tape.
    LaneUnsupported(LaneCause),
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FallbackReason::Buffered => "buffered (array-semantics snapshot)",
            FallbackReason::Contracted => "contracted scalars",
            FallbackReason::RegisterPressure => "register pressure",
            FallbackReason::TapeTooLong => "tape too long",
            FallbackReason::UnsupportedExpr => "unsupported expression",
            FallbackReason::LaneUnsupported(LaneCause::Carried) => {
                "lanes unsupported (lane-crossing dependences)"
            }
            FallbackReason::LaneUnsupported(LaneCause::WideTape) => {
                "lanes unsupported (tape too wide for lane registers)"
            }
        };
        f.write_str(s)
    }
}

/// An instruction operand: where a value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// A register written by an earlier instruction of the same tape.
    Reg(u16),
    /// The value of the immediately preceding instruction. Compilation
    /// rewrites `Reg` operands that name the previous instruction's
    /// destination into `Prev`, which the executor keeps in a scalar
    /// local — expression chains then flow value-to-value instead of
    /// bouncing through the memory-resident register file.
    Prev,
    /// A pre-resolved array read (index into the kernel's read slots).
    Read(u16),
    /// An immediate constant.
    Const(f64),
    /// The current loop coordinate of dimension `k`, as `f64`.
    Coord(u8),
}

/// One three-address instruction. Leaf operands are embedded directly,
/// fusing loads with arithmetic — there are no separate "load" ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `reg[dst] = op(a)`.
    Un {
        /// The operator.
        op: UnaryOp,
        /// Destination register.
        dst: u16,
        /// Operand.
        a: Src,
    },
    /// `reg[dst] = op(a, b)`.
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left operand (evaluated first, as in [`Expr::eval`]).
        a: Src,
        /// Right operand.
        b: Src,
    },
}

/// A pre-resolved array read: which array slot, shifted by which offset.
/// At bind time the offset becomes a single linear element delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSlot<const R: usize> {
    /// Index into the kernel's array-slot table.
    pub arr: u16,
    /// The read's shift from the current point.
    pub shift: Offset<R>,
}

/// The lowered tape of one statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StmtKernel {
    /// Array slot written by the statement.
    pub(crate) lhs: u16,
    /// The instruction tape (postorder of the expression tree).
    pub(crate) instrs: Vec<Instr>,
    /// Where the statement's value lives after the tape runs (a leaf
    /// statement like `a := 2` has an empty tape and a `Const` result).
    pub(crate) result: Src,
}

/// A compiled loop-nest body: every statement lowered to a flat tape,
/// every array read resolved to an (array slot, shift) pair that binding
/// turns into a linear element delta.
///
/// A kernel is pure data — `Send + Sync` — compiled once per nest and
/// shared by all workers; each worker [`TileKernel::bind`]s it to its
/// own (possibly ghost-margined) local store.
#[derive(Debug, Clone, PartialEq)]
pub struct TileKernel<const R: usize> {
    /// Distinct arrays the nest touches, slot-indexed.
    pub(crate) arrays: Vec<ArrayId>,
    /// Distinct (array, shift) read pairs, slot-indexed.
    pub(crate) reads: Vec<ReadSlot<R>>,
    /// Per-statement tapes, in statement order.
    pub(crate) stmts: Vec<StmtKernel>,
    /// Whether any statement references a loop coordinate (`IndexVar`).
    pub(crate) uses_coords: bool,
    /// Number of registers the widest statement tape needs.
    pub(crate) regs: usize,
}

/// A [`TileKernel`] resolved against one store's array geometry and a
/// loop order: one *cursor* per read slot, then one per statement's
/// written array, each with everything a tile call needs to place it.
/// Rebind whenever the store's array *bounds or layouts* change (workers
/// bind once — local stores keep their shape for the whole run).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundKernel<const R: usize> {
    /// Per cursor: the [`ArrayId`] of the array it walks, an index into
    /// the caller's per-array cell table.
    pub(crate) ids: Vec<ArrayId>,
    /// Per cursor: its array's element strides, by dimension.
    pub(crate) strides: Vec<[i64; R]>,
    /// Per cursor: its linear offset at the grid origin — the read's
    /// shift delta less the array's lower-bound offset — so the cursor
    /// at point `p` is `origin + Σ_k strides[k] · p[k]`.
    pub(crate) origin: Vec<i64>,
    /// Per cursor: its step along the inner loop.
    pub(crate) steps: Vec<i64>,
    /// The step every cursor shares, when they all share one.
    pub(crate) uniform_step: Option<i64>,
    /// Number of read-slot cursors (the statements' follow them).
    pub(crate) reads: usize,
    /// The loop order the binding was made for.
    pub(crate) order: [usize; R],
    /// Iteration direction per dimension.
    pub(crate) ascending: [bool; R],
    /// The lane plan's per-cursor deltas, when bound for one
    /// ([`NestRunner::bind`] on a lane-tier runner).
    pub(crate) lanes: Option<crate::kernel_lanes::LaneBinding>,
}

impl<const R: usize> BoundKernel<R> {
    /// One cell view per cursor, from the caller's per-array table.
    pub(crate) fn views<'a>(&self, arrays: &[&'a [Cell<f64>]]) -> Scratch<&'a [Cell<f64>]> {
        let mut views = Scratch::new(self.ids.len(), &[][..]);
        for (v, &id) in views.iter_mut().zip(&self.ids) {
            *v = arrays[id];
        }
        views
    }

    /// Place every cursor at grid point `p`.
    #[inline(always)]
    pub(crate) fn seat(&self, p: &[i64; R], cur: &mut [i64]) {
        for ((c, s), o) in cur.iter_mut().zip(&self.strides).zip(&self.origin) {
            *c = o + (0..R).map(|k| s[k] * p[k]).sum::<i64>();
        }
    }
}

/// Cursors a tile call keeps its per-call tables for on the stack. A
/// kernel with more — no shipped or test nest comes near — spills them
/// to the heap.
const CURSOR_CAP: usize = 32;

/// A per-call table of `n` entries: on the stack up to [`CURSOR_CAP`],
/// on the heap past it, so a tile call allocates nothing.
pub(crate) enum Scratch<T> {
    Inline([T; CURSOR_CAP], usize),
    Spill(Vec<T>),
}

impl<T: Copy> Scratch<T> {
    pub(crate) fn new(n: usize, fill: T) -> Self {
        if n <= CURSOR_CAP {
            Scratch::Inline([fill; CURSOR_CAP], n)
        } else {
            Scratch::Spill(vec![fill; n])
        }
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Scratch::Inline(a, n) => &a[..*n],
            Scratch::Spill(v) => v,
        }
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Scratch::Inline(a, n) => &mut a[..*n],
            Scratch::Spill(v) => v,
        }
    }
}

/// Element strides of an array with the given bounds and layout:
/// `linear_offset(p) = Σ_k strides[k] · (p[k] − lo[k])`.
fn strides_of<const R: usize>(bounds: Region<R>, layout: Layout) -> [i64; R] {
    let ext = bounds.extents();
    let mut s = [0i64; R];
    match layout {
        Layout::RowMajor => {
            let mut acc = 1i64;
            for k in (0..R).rev() {
                s[k] = acc;
                acc *= ext[k];
            }
        }
        Layout::ColMajor => {
            let mut acc = 1i64;
            for k in 0..R {
                s[k] = acc;
                acc *= ext[k];
            }
        }
    }
    s
}

/// Tape builder for one statement: emits instructions in evaluation
/// order with a free-list register allocator.
struct TapeBuilder<'a, const R: usize> {
    kernel: &'a mut TileKernel<R>,
    instrs: Vec<Instr>,
    free: Vec<u16>,
    high: u16,
}

impl<const R: usize> TapeBuilder<'_, R> {
    fn alloc(&mut self) -> Result<u16, FallbackReason> {
        if let Some(r) = self.free.pop() {
            return Ok(r);
        }
        if (self.high as usize) >= MAX_REGS {
            return Err(FallbackReason::RegisterPressure);
        }
        self.high += 1;
        Ok(self.high - 1)
    }

    fn release(&mut self, s: Src) {
        if let Src::Reg(r) = s {
            self.free.push(r);
        }
    }

    fn emit(&mut self, i: Instr) -> Result<(), FallbackReason> {
        if self.instrs.len() >= MAX_TAPE {
            return Err(FallbackReason::TapeTooLong);
        }
        self.instrs.push(i);
        Ok(())
    }

    /// Lower an expression subtree; instructions are emitted in the same
    /// left-to-right order [`Expr::eval`] applies operators in.
    fn lower(&mut self, e: &Expr<R>) -> Result<Src, FallbackReason> {
        match e {
            Expr::Const(v) => Ok(Src::Const(*v)),
            Expr::IndexVar(k) => {
                if *k >= R {
                    return Err(FallbackReason::UnsupportedExpr);
                }
                self.kernel.uses_coords = true;
                Ok(Src::Coord(*k as u8))
            }
            Expr::Read(r) => {
                // Primed and unprimed reads are indistinguishable here:
                // without snapshot buffering both observe live storage.
                let arr = self.kernel.array_slot(r.id);
                Ok(Src::Read(self.kernel.read_slot(arr, r.shift)))
            }
            Expr::Unary(op, a) => {
                let sa = self.lower(a)?;
                self.release(sa);
                let dst = self.alloc()?;
                self.emit(Instr::Un { op: *op, dst, a: sa })?;
                Ok(Src::Reg(dst))
            }
            Expr::Binary(op, a, b) => {
                let sa = self.lower(a)?;
                let sb = self.lower(b)?;
                self.release(sa);
                self.release(sb);
                let dst = self.alloc()?;
                self.emit(Instr::Bin { op: *op, dst, a: sa, b: sb })?;
                Ok(Src::Reg(dst))
            }
        }
    }
}

impl<const R: usize> TileKernel<R> {
    /// Lower a compiled nest into a kernel, or report why it cannot be.
    pub fn compile(nest: &CompiledNest<R>) -> Result<Self, FallbackReason> {
        if !nest.buffered.is_empty() {
            return Err(FallbackReason::Buffered);
        }
        if !nest.contracted.is_empty() {
            return Err(FallbackReason::Contracted);
        }
        let mut kernel = TileKernel {
            arrays: Vec::new(),
            reads: Vec::new(),
            stmts: Vec::new(),
            uses_coords: false,
            regs: 0,
        };
        for stmt in &nest.stmts {
            let lhs = kernel.array_slot(stmt.lhs);
            let mut b = TapeBuilder {
                kernel: &mut kernel,
                instrs: Vec::new(),
                free: Vec::new(),
                high: 0,
            };
            let result = b.lower(&stmt.rhs)?;
            let (mut instrs, high) = (b.instrs, b.high);
            // Forward chained values: an operand naming the previous
            // instruction's destination register always denotes that
            // instruction's value (it was just written), so it can read
            // the executor's scalar `prev` instead of the register file.
            // The register store is kept — other instructions may read
            // the same register later.
            for i in 1..instrs.len() {
                let pd = match instrs[i - 1] {
                    Instr::Bin { dst, .. } | Instr::Un { dst, .. } => dst,
                };
                let fwd = |s: &mut Src| {
                    if *s == Src::Reg(pd) {
                        *s = Src::Prev;
                    }
                };
                match &mut instrs[i] {
                    Instr::Bin { a, b, .. } => {
                        fwd(a);
                        fwd(b);
                    }
                    Instr::Un { a, .. } => fwd(a),
                }
            }
            // The executor fuses the final instruction with the store;
            // that relies on a non-empty tape ending with the
            // instruction that computes `result`.
            if let Some(last) = instrs.last() {
                let dst = match *last {
                    Instr::Bin { dst, .. } | Instr::Un { dst, .. } => dst,
                };
                debug_assert_eq!(result, Src::Reg(dst));
            }
            kernel.regs = kernel.regs.max(high as usize);
            kernel.stmts.push(StmtKernel { lhs, instrs, result });
        }
        Ok(kernel)
    }

    fn array_slot(&mut self, id: ArrayId) -> u16 {
        match self.arrays.iter().position(|&a| a == id) {
            Some(i) => i as u16,
            None => {
                self.arrays.push(id);
                (self.arrays.len() - 1) as u16
            }
        }
    }

    fn read_slot(&mut self, arr: u16, shift: Offset<R>) -> u16 {
        let slot = ReadSlot { arr, shift };
        match self.reads.iter().position(|r| *r == slot) {
            Some(i) => i as u16,
            None => {
                self.reads.push(slot);
                (self.reads.len() - 1) as u16
            }
        }
    }

    /// Total tape length across all statements. Because lowering never
    /// folds or fuses, this equals the sum of the statements'
    /// [`Expr::flop_count`]s — the DES cost models rely on that.
    pub fn instr_count(&self) -> usize {
        self.stmts.iter().map(|s| s.instrs.len()).sum()
    }

    /// Number of registers the widest statement tape uses.
    pub fn reg_count(&self) -> usize {
        self.regs
    }

    /// Number of distinct (array, shift) read slots.
    pub fn read_count(&self) -> usize {
        self.reads.len()
    }

    /// Resolve the kernel against a store's array geometry and a loop
    /// order: per cursor, the array it walks, its layout strides, its
    /// offset at the origin and its inner-loop step.
    pub fn bind(&self, store: &Store<R>, order: &LoopStructureOrder<R>) -> BoundKernel<R> {
        self.bind_for(|id| store_shape(store, id), order, None)
    }

    /// [`TileKernel::bind`] against the arrays' bounds and layouts by
    /// [`ArrayId`], plus the per-cursor lane deltas of `plan`.
    pub(crate) fn bind_for(
        &self,
        shape: impl Fn(ArrayId) -> (Region<R>, Layout),
        order: &LoopStructureOrder<R>,
        plan: Option<&crate::kernel_lanes::LanePlan>,
    ) -> BoundKernel<R> {
        // (array slot, shift delta) per cursor: read slots, then writes.
        let slots = self
            .reads
            .iter()
            .map(|r| (r.arr, r.shift))
            .chain(self.stmts.iter().map(|sk| (sk.lhs, Offset([0; R]))));
        let inner = order.order[R - 1];
        let dir: i64 = if order.ascending[inner] { 1 } else { -1 };
        let n = self.reads.len() + self.stmts.len();
        let mut ids = Vec::with_capacity(n);
        let mut strides = Vec::with_capacity(n);
        let mut origin = Vec::with_capacity(n);
        let mut steps = Vec::with_capacity(n);
        for (arr, shift) in slots {
            let id = self.arrays[arr as usize];
            let (bounds, layout) = shape(id);
            let s = strides_of(bounds, layout);
            let lo = bounds.lo();
            ids.push(id);
            strides.push(s);
            origin.push((0..R).map(|k| s[k] * (shift[k] - lo[k])).sum());
            steps.push(s[inner] * dir);
        }
        let uniform_step = match steps.split_first() {
            Some((s0, rest)) if rest.iter().all(|s| s == s0) => Some(*s0),
            _ => None,
        };
        let mut bk = BoundKernel {
            ids,
            strides,
            origin,
            steps,
            uniform_step,
            reads: self.reads.len(),
            order: order.order,
            ascending: order.ascending,
            lanes: None,
        };
        bk.lanes = plan.map(|p| crate::kernel_lanes::LaneBinding::new(&bk, p.shape));
        bk
    }

    /// Sweep `region` with a previously bound kernel over a table of
    /// per-array cell views (indexed by [`ArrayId`]) — views of arrays a
    /// worker may only read next to views of arrays it owns a part of.
    /// Only the statements' left-hand arrays are ever `set`. The binding
    /// must have been made against arrays of the same bounds and layouts
    /// (a run binds once and reuses the binding for every tile).
    ///
    /// In-bounds safety comes from the language, not from this code:
    /// `Program::check_bounds` (and, for distributed tiles, the ghost
    /// margins) guarantee `region.translate(shift)` lies inside every
    /// read array, so `cursor + delta` is always a valid element index.
    /// Indexing stays checked — a violated guarantee panics, it does not
    /// corrupt memory.
    pub fn run_bound_cells(
        &self,
        bk: &BoundKernel<R>,
        region: Region<R>,
        arrays: &[&[Cell<f64>]],
    ) {
        if region.is_empty() {
            return;
        }
        let rlo = region.lo();
        let rhi = region.hi();
        let inner = bk.order[R - 1];
        let inner_asc = bk.ascending[inner];
        let n_inner = (rhi[inner] - rlo[inner] + 1) as usize;
        let inner_start = if inner_asc { rlo[inner] } else { rhi[inner] };
        let inner_dir: i64 = if inner_asc { 1 } else { -1 };

        // Per read slot / per statement slice views, so a load is one
        // bounds-checked index instead of read-table + slot-table + cursor
        // lookups.
        let views = bk.views(arrays);
        let (rslices, wslices) = views.split_at(bk.reads);

        // The current outer point; the inner coordinate of `p` stays
        // pinned at the row start (cursors advance instead).
        let mut p = [0i64; R];
        for k in 0..R {
            p[k] = if bk.ascending[k] { rlo[k] } else { rhi[k] };
        }
        p[inner] = inner_start;
        let mut coords = [0.0f64; R];
        if self.uses_coords {
            for k in 0..R {
                coords[k] = p[k] as f64;
            }
        }

        let nr = bk.reads;
        // One cursor per read slot followed by one per statement. When
        // every cursor moves by the same step (all arrays share their
        // stride along the inner dimension — the usual case, since the
        // inner loop is each layout's unit-stride dimension), the sweep
        // keeps the cursors fixed at the row start and advances a single
        // offset instead.
        let mut cur = Scratch::new(views.len(), 0i64);
        let cur = &mut *cur;
        let mut regs = [0.0f64; MAX_REGS];

        // One statement tape at one grid point, with all array cursors
        // displaced by `$off`; yields the statement's value. The final
        // tree node's value goes straight to the caller — a non-empty
        // tape always ends with the instruction computing `result`, so
        // fusing it skips a register round-trip per statement.
        macro_rules! eval_stmt {
            ($sk:expr, $off:expr) => {{
                let sk: &StmtKernel = $sk;
                let off: i64 = $off;
                match sk.instrs.split_last() {
                    Some((last, rest)) => {
                        let mut prev = 0.0f64;
                        for ins in rest {
                            let r = match *ins {
                                Instr::Bin { op, dst, a, b } => {
                                    let va = load(a, &regs, &rslices, &cur, off, prev, &coords);
                                    let vb = load(b, &regs, &rslices, &cur, off, prev, &coords);
                                    let r = op.apply(va, vb);
                                    regs[dst as usize & REG_MASK] = r;
                                    r
                                }
                                Instr::Un { op, dst, a } => {
                                    let va = load(a, &regs, &rslices, &cur, off, prev, &coords);
                                    let r = op.apply(va);
                                    regs[dst as usize & REG_MASK] = r;
                                    r
                                }
                            };
                            prev = r;
                        }
                        match *last {
                            Instr::Bin { op, a, b, .. } => {
                                let va = load(a, &regs, &rslices, &cur, off, prev, &coords);
                                let vb = load(b, &regs, &rslices, &cur, off, prev, &coords);
                                op.apply(va, vb)
                            }
                            Instr::Un { op, a, .. } => {
                                let va = load(a, &regs, &rslices, &cur, off, prev, &coords);
                                op.apply(va)
                            }
                        }
                    }
                    None => load(sk.result, &regs, &rslices, &cur, off, 0.0, &coords),
                }
            }};
        }

        // One grid point: every statement tape, then its store.
        macro_rules! point {
            ($off:expr) => {{
                let off: i64 = $off;
                for (j, (sk, ws)) in self.stmts.iter().zip(wslices).enumerate() {
                    let v = eval_stmt!(sk, off);
                    ws[(cur[nr + j] + off) as usize].set(v);
                }
            }};
        }

        loop {
            // Row cursors: the linear offset of the row-start point in
            // each cursor's array, shifted by its read's delta.
            bk.seat(&p, cur);
            if let (Some(step), false) = (bk.uniform_step, self.uses_coords) {
                if let ([sk], [ws]) = (&self.stmts[..], wslices) {
                    // Single-statement nests (most stencils) drop the
                    // per-point statement loop entirely.
                    let wbase = cur[nr];
                    let mut off = 0i64;
                    for _ in 0..n_inner {
                        let v = eval_stmt!(sk, off);
                        ws[(wbase + off) as usize].set(v);
                        off += step;
                    }
                } else {
                    let mut off = 0i64;
                    for _ in 0..n_inner {
                        point!(off);
                        off += step;
                    }
                }
            } else {
                let mut ci = inner_start;
                for _ in 0..n_inner {
                    if self.uses_coords {
                        coords[inner] = ci as f64;
                    }
                    point!(0);
                    for (c, s) in cur.iter_mut().zip(&bk.steps) {
                        *c += *s;
                    }
                    ci += inner_dir;
                }
            }
            // Advance the outer odometer (everything but the inner loop).
            let mut advanced = false;
            for pos in (0..R.saturating_sub(1)).rev() {
                let k = bk.order[pos];
                if bk.ascending[k] {
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
                if self.uses_coords {
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
}

/// The bounds and layout of array `id` of `store`.
fn store_shape<const R: usize>(store: &Store<R>, id: ArrayId) -> (Region<R>, Layout) {
    let a = store.get(id);
    (a.bounds(), a.layout())
}

/// One aliased `Cell` view per array of `store`, indexed by [`ArrayId`].
/// A statement may read the array it writes (that is the whole point of
/// a wavefront), so the kernels view every array as a slice of
/// `Cell<f64>` — one mutable borrow of the store, arbitrarily aliased
/// reads and writes within it.
pub(crate) fn store_cells<const R: usize>(store: &mut Store<R>) -> Vec<&[Cell<f64>]> {
    store
        .arrays_mut()
        .iter_mut()
        .map(|a| Cell::from_mut(a.as_mut_slice()).as_slice_of_cells())
        .collect()
}

/// Resolve one operand. Kept free-standing (not a closure) so the inner
/// loop borrows stay simple; `#[inline(always)]` folds it into the
/// dispatch match.
#[inline(always)]
fn load<const R: usize>(
    s: Src,
    regs: &[f64; MAX_REGS],
    rslices: &[&[Cell<f64>]],
    rcur: &[i64],
    off: i64,
    prev: f64,
    coords: &[f64; R],
) -> f64 {
    match s {
        Src::Reg(r) => regs[r as usize & REG_MASK],
        Src::Prev => prev,
        Src::Const(c) => c,
        Src::Read(i) => rslices[i as usize][(rcur[i as usize] + off) as usize].get(),
        Src::Coord(k) => coords[k as usize],
    }
}

/// Points of a sweep by the tier that evaluates them (see
/// [`NestRunner::tier_elems`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierElems {
    /// Points on the lane strip.
    pub lanes: usize,
    /// Points on the scalar tape: the lane executor's remainder, or
    /// every point of a scalar-tier runner.
    pub scalar: usize,
    /// Points on the reference interpreter.
    pub interpreted: usize,
}

impl std::ops::AddAssign for TierElems {
    fn add_assign(&mut self, o: TierElems) {
        self.lanes += o.lanes;
        self.scalar += o.scalar;
        self.interpreted += o.interpreted;
    }
}

/// Per-nest execution strategy, selected once at plan time: the
/// lane-parallel kernel when the second lowering succeeds, the scalar
/// kernel when only the first does, the reference interpreter otherwise
/// (or when kernels are disabled for an interpreter-baseline run).
#[derive(Debug, Clone)]
pub enum NestRunner<const R: usize> {
    /// The nest lowered twice; tiles execute on the lane-blocked kernel.
    Lanes(TileKernel<R>, crate::kernel_lanes::LanePlan),
    /// The nest lowered to the scalar tape only. `Some(reason)` records
    /// why the lane lowering refused; `None` means the ceiling was
    /// [`KernelMode::Scalar`] by request.
    Compiled(TileKernel<R>, Option<FallbackReason>),
    /// Tiles execute on the interpreter. `Some(reason)` records why the
    /// lowering refused; `None` means kernels were disabled by request.
    Interpreted(Option<FallbackReason>),
}

impl<const R: usize> NestRunner<R> {
    /// Lower the nest as far as it will go ([`KernelMode::Lanes`]
    /// ceiling), falling back one tier at a time.
    pub fn auto(nest: &CompiledNest<R>) -> Self {
        Self::with_mode(nest, KernelMode::Lanes)
    }

    /// Lower the nest under a requested tier ceiling. The achieved tier
    /// ([`NestRunner::tier`]) is at most `mode`; each refused lowering
    /// drops one tier and records its [`FallbackReason`].
    pub fn with_mode(nest: &CompiledNest<R>, mode: KernelMode) -> Self {
        if mode == KernelMode::Interpreted {
            return NestRunner::Interpreted(None);
        }
        let kernel = match TileKernel::compile(nest) {
            Ok(k) => k,
            Err(r) => return NestRunner::Interpreted(Some(r)),
        };
        if mode == KernelMode::Scalar {
            return NestRunner::Compiled(kernel, None);
        }
        match crate::kernel_lanes::plan_lanes(nest, &kernel) {
            Ok(plan) => NestRunner::Lanes(kernel, plan),
            Err(cause) => {
                NestRunner::Compiled(kernel, Some(FallbackReason::LaneUnsupported(cause)))
            }
        }
    }

    /// The compiled kernel, when there is one.
    pub fn kernel(&self) -> Option<&TileKernel<R>> {
        match self {
            NestRunner::Lanes(k, _) | NestRunner::Compiled(k, _) => Some(k),
            NestRunner::Interpreted(_) => None,
        }
    }

    /// The lane plan, when the nest reached the lane tier.
    pub fn lane_plan(&self) -> Option<&crate::kernel_lanes::LanePlan> {
        match self {
            NestRunner::Lanes(_, plan) => Some(plan),
            _ => None,
        }
    }

    /// The tier tiles actually execute on.
    pub fn tier(&self) -> KernelTier {
        match self {
            NestRunner::Lanes(..) => KernelTier::Lanes,
            NestRunner::Compiled(..) => KernelTier::Scalar,
            NestRunner::Interpreted(_) => KernelTier::Interpreted,
        }
    }

    /// True when tiles execute on a compiled kernel (scalar or lanes).
    pub fn is_compiled(&self) -> bool {
        !matches!(self, NestRunner::Interpreted(_))
    }

    /// Why the runner sits below the requested ceiling, when a lowering
    /// refused (`None` when the achieved tier *is* the ceiling).
    pub fn fallback(&self) -> Option<FallbackReason> {
        match self {
            NestRunner::Lanes(..) => None,
            NestRunner::Compiled(_, r) => *r,
            NestRunner::Interpreted(r) => *r,
        }
    }

    /// How many points of `region`, swept in `order`, each tier
    /// evaluates: the lane strip and the scalar remainder split exactly
    /// as the lane executor splits them, a scalar-tier runner's points
    /// all on the scalar tape, an interpreted runner's all on the
    /// interpreter.
    pub fn tier_elems(&self, region: Region<R>, order: &LoopStructureOrder<R>) -> TierElems {
        match self {
            NestRunner::Lanes(_, plan) => {
                let (lanes, scalar) = crate::kernel_lanes::lane_elems(plan, region, order);
                TierElems { lanes, scalar, interpreted: 0 }
            }
            NestRunner::Compiled(..) => TierElems { scalar: region.len(), ..TierElems::default() },
            NestRunner::Interpreted(_) => {
                TierElems { interpreted: region.len(), ..TierElems::default() }
            }
        }
    }

    /// Bind the kernel (if any) to a worker's store geometry. Call once
    /// per worker, before its tile loop.
    pub fn bind(
        &self,
        store: &Store<R>,
        order: &LoopStructureOrder<R>,
    ) -> Option<BoundKernel<R>> {
        self.kernel().map(|k| k.bind_for(|id| store_shape(store, id), order, self.lane_plan()))
    }

    /// The stride class of the lane plan over arrays of the given bounds
    /// and layouts (indexed by [`ArrayId`]), swept in `order`: `"unit"`
    /// when every array's lane block is contiguous, so it moves as one
    /// slice; `"strided"` when some array's lanes lie across its layout,
    /// and `"diagonal"` for wavefront lanes, both gathered lane by lane.
    /// `None` below the lane tier.
    pub fn lane_stride(
        &self,
        shapes: &[(Region<R>, Layout)],
        order: &LoopStructureOrder<R>,
    ) -> Option<&'static str> {
        let NestRunner::Lanes(k, plan) = self else {
            return None;
        };
        k.bind_for(|id| shapes[id], order, Some(plan)).lanes.map(|lb| lb.stride_class())
    }

    /// Passes the wide path makes over each piece of a row segment, over
    /// arrays as for [`NestRunner::lane_stride`]: the instructions left
    /// once each `Const × Read` is folded into its consumer, summed over
    /// statements (an empty tape makes one, its store). `None` unless
    /// the lanes are `"unit"`-stride.
    pub fn wide_passes(
        &self,
        shapes: &[(Region<R>, Layout)],
        order: &LoopStructureOrder<R>,
    ) -> Option<usize> {
        let NestRunner::Lanes(_, plan) = self else {
            return None;
        };
        let passes = plan.wide.iter().map(|ws| ws.instrs.len().max(1)).sum();
        (self.lane_stride(shapes, order)? == "unit").then_some(passes)
    }

    /// Points per piece of a row segment on the wide path, over arrays as
    /// for [`NestRunner::lane_stride`]: as many as its register file
    /// holds of each physical register the folded tapes use. `None`
    /// unless the lanes are `"unit"`-stride.
    pub fn wide_piece(
        &self,
        shapes: &[(Region<R>, Layout)],
        order: &LoopStructureOrder<R>,
    ) -> Option<usize> {
        let NestRunner::Lanes(_, plan) = self else {
            return None;
        };
        (self.lane_stride(shapes, order)? == "unit").then_some(plan.piece)
    }

    /// How far apart, in bytes, two rows of a `"unit"`-stride lane plan
    /// lie over arrays of the given bounds and layouts (as for
    /// [`NestRunner::lane_stride`]): the smallest stride, over every
    /// array the nest touches, of the loop `order` runs just outside the
    /// lane dimension once that dimension is innermost. `None` for
    /// strided and diagonal lanes, below the lane tier, and at rank 1.
    pub fn lane_row_bytes(
        &self,
        shapes: &[(Region<R>, Layout)],
        order: &LoopStructureOrder<R>,
    ) -> Option<usize> {
        let NestRunner::Lanes(k, plan) = self else {
            return None;
        };
        let crate::kernel_lanes::LaneShape::Axis { dim } = plan.shape else {
            return None;
        };
        let row = *order.order.iter().rev().find(|&&d| d != dim)?;
        let bk = k.bind_for(|id| shapes[id], order, Some(plan));
        if bk.lanes?.stride_class() != "unit" {
            return None;
        }
        let elems = bk.strides.iter().map(|s| s[row].unsigned_abs() as usize).min()?;
        Some(elems * std::mem::size_of::<f64>())
    }

    /// Execute one tile of `store`: [`NestRunner::run_tile_cells`] over
    /// the store's cell views and shapes, bound first when `bound` is
    /// `None` (it must otherwise come from [`NestRunner::bind`] on the
    /// same store geometry).
    pub fn run_tile(
        &self,
        nest: &CompiledNest<R>,
        bound: Option<&BoundKernel<R>>,
        region: Region<R>,
        order: &LoopStructureOrder<R>,
        store: &mut Store<R>,
    ) {
        let fresh = bound.is_none().then(|| self.bind(store, order)).flatten();
        let shapes: Vec<_> = (0..store.len()).map(|id| store_shape(store, id)).collect();
        let bound = bound.or(fresh.as_ref());
        self.run_tile_cells(nest, bound, region, order, &store_cells(store), &shapes);
    }

    /// Execute one tile over a table of per-array cell views (indexed by
    /// [`ArrayId`]; `shapes` gives each array's bounds and layout) — see
    /// [`TileKernel::run_bound_cells`]: the lane kernel at the lane tier,
    /// the bound scalar kernel when compiled, both on the kernel `bound`
    /// was made from ([`NestRunner::bind`] on the same geometry), and the
    /// reference interpreter when there is none.
    #[allow(clippy::too_many_arguments)]
    pub fn run_tile_cells(
        &self,
        nest: &CompiledNest<R>,
        bound: Option<&BoundKernel<R>>,
        region: Region<R>,
        order: &LoopStructureOrder<R>,
        arrays: &[&[Cell<f64>]],
        shapes: &[(Region<R>, Layout)],
    ) {
        match (self, bound) {
            (NestRunner::Lanes(k, plan), Some(b)) => {
                crate::kernel_lanes::run_lanes_cells(k, plan, b, region, arrays)
            }
            (NestRunner::Compiled(k, _), Some(b)) => k.run_bound_cells(b, region, arrays),
            _ => crate::exec::run_nest_region_cells(nest, region, order, arrays, shapes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DenseArray;
    use crate::exec::{compile, run_nest_region_with_sink};
    use crate::trace::NoSink;
    use crate::index::Point;
    use crate::program::Program;

    fn run_both<const R: usize>(
        p: &Program<R>,
        init: impl Fn(&mut Store<R>),
    ) -> (Store<R>, Store<R>, Vec<bool>) {
        let compiled = compile(p).unwrap();
        let mut interp = Store::new(p);
        let mut kern = Store::new(p);
        init(&mut interp);
        init(&mut kern);
        let mut compiled_flags = Vec::new();
        for nest in compiled.nests() {
            run_nest_region_with_sink(
                nest,
                nest.region,
                &nest.structure.order,
                &mut interp,
                &mut NoSink,
            );
            let runner = NestRunner::auto(nest);
            compiled_flags.push(runner.is_compiled());
            let bound = runner.bind(&kern, &nest.structure.order);
            runner.run_tile(
                nest,
                bound.as_ref(),
                nest.region,
                &nest.structure.order,
                &mut kern,
            );
        }
        (interp, kern, compiled_flags)
    }

    #[test]
    fn fig3_wavefront_matches_interpreter_bitwise() {
        let n = 7;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::lit(2.0) * Expr::read_primed_at(a, [-1, 0]),
        );
        let (interp, kern, flags) = run_both(&p, |s| s.get_mut(0).fill(1.0));
        assert_eq!(flags, vec![true]);
        assert!(interp.get(a).region_eq(kern.get(a), bounds));
        assert_eq!(kern.get(a).get(Point([5, 3])), 16.0);
    }

    #[test]
    fn descending_order_and_col_major_match() {
        let n = 6;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let a = p.array_with_layout("a", bounds, Layout::ColMajor);
        // Unprimed @north forces a descending dim-0 loop.
        p.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::lit(3.0) * Expr::read_at(a, [-1, 0]),
        );
        let (interp, kern, flags) = run_both(&p, |s| {
            *s.get_mut(0) = DenseArray::from_fn(bounds, |q| (q[0] * 10 + q[1]) as f64);
        });
        assert_eq!(flags, vec![true]);
        assert!(interp.get(a).region_eq(kern.get(a), bounds));
    }

    #[test]
    fn index_vars_and_unaries_match() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [4, 5]);
        let a = p.array("a", bounds);
        let b = p.array("b", bounds);
        p.stmt(
            bounds,
            b,
            (Expr::IndexVar(0) * Expr::lit(10.0) + Expr::IndexVar(1)).sqrt()
                + (-Expr::read(a)).max(Expr::lit(0.25)),
        );
        let (interp, kern, flags) = run_both(&p, |s| {
            *s.get_mut(0) = DenseArray::from_fn(bounds, |q| 0.1 * (q[0] - q[1]) as f64);
        });
        assert_eq!(flags, vec![true]);
        assert!(interp.get(b).region_eq(kern.get(b), bounds));
    }

    #[test]
    fn multi_statement_scan_block_matches() {
        // Tomcatv-style forward elimination: later statements read values
        // earlier statements wrote at the same point.
        use crate::stmt::Statement;
        let n = 9i64;
        let bounds = Region::rect([1, 1], [n, n]);
        let mut p = Program::<2>::new();
        let r = p.array("r", bounds);
        let aa = p.array("aa", bounds);
        let d = p.array("d", bounds);
        let dd = p.array("dd", bounds);
        let region = Region::rect([2, 2], [n - 1, n - 1]);
        p.scan(
            region,
            vec![
                Statement::new(r, Expr::read(aa) * Expr::read_primed_at(d, [-1, 0])),
                Statement::new(
                    d,
                    (Expr::read(dd) - Expr::read_at(aa, [-1, 0]) * Expr::read(r)).recip(),
                ),
            ],
        );
        let (interp, kern, flags) = run_both(&p, |s| {
            for id in 0..4 {
                *s.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                    1.5 + 0.01 * (q[0] * 13 + q[1] * 7 + id as i64) as f64
                });
            }
        });
        assert_eq!(flags, vec![true]);
        for id in [r, d] {
            assert!(interp.get(id).region_eq(kern.get(id), bounds), "array {id}");
        }
    }

    #[test]
    fn rank1_and_rank3_sweeps_match() {
        let mut p1 = Program::<1>::new();
        let b1 = Region::rect([0], [50]);
        let a1 = p1.array("a", b1);
        p1.stmt(
            Region::rect([1], [50]),
            a1,
            Expr::read_primed_at(a1, [-1]) + Expr::lit(1.0),
        );
        let (i1, k1, f1) = run_both(&p1, |s| s.get_mut(0).fill(0.5));
        assert_eq!(f1, vec![true]);
        assert!(i1.get(a1).region_eq(k1.get(a1), b1));

        let mut p3 = Program::<3>::new();
        let b3 = Region::rect([0, 0, 0], [5, 6, 7]);
        let a3 = p3.array_with_layout("a", b3, Layout::ColMajor);
        p3.stmt(
            Region::rect([1, 1, 1], [5, 6, 7]),
            a3,
            Expr::read_primed_at(a3, [-1, 0, 0])
                + Expr::read_primed_at(a3, [0, -1, 0])
                + Expr::read_primed_at(a3, [0, 0, -1]),
        );
        let (i3, k3, f3) = run_both(&p3, |s| {
            *s.get_mut(0) = DenseArray::from_fn(b3, |q| 0.25 + (q[0] + q[1] * 2 + q[2]) as f64);
        });
        assert_eq!(f3, vec![true]);
        assert!(i3.get(a3).region_eq(k3.get(a3), b3));
    }

    #[test]
    fn buffered_nest_falls_back_and_still_matches() {
        let n = 6;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [n, n]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([1, 1], [n - 1, n - 1]),
            a,
            Expr::read_at(a, [-1, 0]) + Expr::read_at(a, [1, 0]),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        assert_eq!(
            TileKernel::compile(nest).unwrap_err(),
            FallbackReason::Buffered
        );
        let runner = NestRunner::auto(nest);
        assert!(!runner.is_compiled());
        assert_eq!(runner.fallback(), Some(FallbackReason::Buffered));
        let (interp, kern, flags) = run_both(&p, |s| {
            *s.get_mut(0) = DenseArray::from_fn(bounds, |q| (q[0] * 10 + q[1]) as f64);
        });
        assert_eq!(flags, vec![false]);
        assert!(interp.get(a).region_eq(kern.get(a), bounds));
    }

    #[test]
    fn register_pressure_falls_back() {
        let mut p = Program::<1>::new();
        let bounds = Region::rect([0], [3]);
        let a = p.array("a", bounds);
        // Each level holds a computed left operand in a register while
        // the right subtree evaluates, so `depth` registers are live at
        // the innermost leaf.
        fn left_held(depth: usize, a: usize) -> Expr<1> {
            if depth == 0 {
                Expr::read(a)
            } else {
                (Expr::read(a) + Expr::read(a)).min(left_held(depth - 1, a))
            }
        }
        p.stmt(bounds, a, left_held(MAX_REGS + 2, a));
        let compiled = compile(&p).unwrap();
        let err = TileKernel::compile(compiled.nest(0)).unwrap_err();
        assert_eq!(err, FallbackReason::RegisterPressure);
        // And the runner still executes it correctly via the interpreter.
        let (interp, kern, flags) = run_both(&p, |s| s.get_mut(0).fill(1.25));
        assert_eq!(flags, vec![false]);
        assert!(interp.get(a).region_eq(kern.get(a), bounds));
    }

    #[test]
    fn instr_count_equals_flop_count() {
        let n = 8i64;
        let bounds = Region::rect([1, 1], [n, n]);
        let mut p = Program::<2>::new();
        let u = p.array("u", bounds);
        let f = p.array("f", bounds);
        let region = Region::rect([2, 2], [n - 1, n - 1]);
        p.stmt(
            region,
            u,
            Expr::lit(0.25) * Expr::read(u)
                + Expr::lit(0.75) * Expr::lit(0.25)
                    * (Expr::read_primed_at(u, [-1, 0])
                        + Expr::read_primed_at(u, [0, -1])
                        + Expr::read_at(u, [1, 0])
                        + Expr::read_at(u, [0, 1])
                        + Expr::read(f)),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        let k = TileKernel::compile(nest).unwrap();
        let flops: usize = nest.stmts.iter().map(|s| s.rhs.flop_count()).sum();
        assert_eq!(k.instr_count(), flops);
        assert!(k.reg_count() <= MAX_REGS);
        assert!(k.read_count() >= 5);
    }

    #[test]
    fn read_slots_dedup_by_array_and_shift() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [5, 5]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([2, 1], [5, 5]),
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::read_primed_at(a, [-1, 0])
                + Expr::read(a),
        );
        let compiled = compile(&p).unwrap();
        let k = TileKernel::compile(compiled.nest(0)).unwrap();
        assert_eq!(k.read_count(), 2); // (a, north) and (a, zero)
    }

    #[test]
    fn tile_sweep_touches_only_the_tile() {
        let n = 6;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let a = p.array("a", bounds);
        p.stmt(
            Region::rect([2, 1], [n, n]),
            a,
            Expr::lit(2.0) * Expr::read_primed_at(a, [-1, 0]),
        );
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        let k = TileKernel::compile(nest).unwrap();
        let mut store = Store::new(&p);
        store.get_mut(a).fill(1.0);
        let tile = Region::rect([2, 1], [3, n]);
        let bound = k.bind(&store, &nest.structure.order);
        k.run_bound_cells(&bound, tile, &store_cells(&mut store));
        assert_eq!(store.get(a).get(Point([3, 2])), 4.0);
        assert_eq!(store.get(a).get(Point([4, 2])), 1.0); // untouched
    }
}
