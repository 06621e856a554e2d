//! Heap allocations per kernel tile call. Everything a tile needs that
//! depends only on the store's geometry and the lane shape is computed
//! once, by `NestRunner::bind`; a tile call then keeps its cursors and
//! cell views on the stack. One `run_tile_cells` call must allocate
//! nothing, on every lane shape, stride class and tier that compiles.
//!
//! Counted with a counting `#[global_allocator]`, per thread, so the
//! other tests of this binary running alongside do not disturb a count.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use wavefront::core::prelude::*;
use wavefront::kernels::{sor, tomcatv};
use wavefront::lang::compile_str;
use wavefront::pipeline::Session;

thread_local! {
    /// Allocations this thread has asked the allocator for.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread how often it is asked.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The double-buffered relaxation the loop workloads step: lanes along
/// the row-major unit-stride dimension.
const RELAX: &str = "
    const n = 8;
    region Big   = [0..n+1, 0..n+1];
    region Inner = [1..n, 1..n];
    direction north = (-1, 0);
    direction east  = (0, 1);
    var next, curr, load : [Big] float;
    [Inner] next := 0.5 * next'@north + 0.4 * curr + 0.1 * load@east;
";

/// The first scan nest of `program`.
fn scan_nest(program: &Program<2>) -> CompiledNest<2> {
    let compiled = compile(program).expect("compiles");
    let nest = compiled.nests().find(|x| x.is_scan).unwrap_or_else(|| compiled.nest(0));
    nest.clone()
}

/// Bind the first scan nest of `program` under `mode`, then run it whole
/// as one tile: returns the heap allocations of that one
/// `run_tile_cells` call, the tier it ran on, its lane stride class, and the points the scalar remainder took.
fn one_tile(
    program: &Program<2>,
    mode: KernelMode,
) -> (usize, KernelTier, Option<&'static str>, usize) {
    let nest = scan_nest(program);
    let order = &nest.structure.order;
    let runner = NestRunner::with_mode(&nest, mode);
    let (allocs, stride) = tile_allocs(program, &nest, &runner, nest.region, order);
    (allocs, runner.tier(), stride, runner.tier_elems(nest.region, order).scalar)
}

/// The heap allocations of one `run_tile_cells` call of `runner` over
/// `region` in `order`, on a store of `program`, and the lane stride
/// class.
fn tile_allocs(
    program: &Program<2>,
    nest: &CompiledNest<2>,
    runner: &NestRunner<2>,
    region: Region<2>,
    order: &LoopStructureOrder<2>,
) -> (usize, Option<&'static str>) {
    let mut store = Store::new(program);
    // Filled in place: each array keeps its declared layout.
    for id in 0..store.len() {
        let a = store.get_mut(id);
        for q in a.bounds().iter() {
            a.set(q, 1.0 + 0.01 * ((q[0] * 7 + q[1] * 3) % 11) as f64);
        }
    }
    let bound = runner.bind(&store, order);
    let shapes: Vec<(Region<2>, Layout)> = store
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    let stride = runner.lane_stride(&shapes, order);
    let arrays: Vec<&[Cell<f64>]> = store
        .arrays_mut()
        .iter_mut()
        .map(|a| Cell::from_mut(a.as_mut_slice()).as_slice_of_cells())
        .collect();
    let before = ALLOCS.with(Cell::get);
    runner.run_tile_cells(nest, bound.as_ref(), region, order, &arrays, &shapes);
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, stride)
}

fn relax(n: i64) -> Program<2> {
    compile_str::<2>(RELAX, &[("n", n)], Layout::RowMajor)
        .expect("relax lowers")
        .program
}

#[test]
fn lane_axis_unit_stride_tile_allocates_nothing() {
    // 16 columns: two whole lane blocks per row, no remainder.
    let (allocs, tier, stride, rem) = one_tile(&relax(16), KernelMode::Lanes);
    assert_eq!((tier, stride, rem), (KernelTier::Lanes, Some("unit"), 0));
    assert_eq!(allocs, 0, "allocations in one unit-stride axis tile");
}

/// A tile of the plan the engines run over page-strided rows: 12 rows
/// of 700 columns, 5,616 bytes apart, run 128 columns wide with the lane
/// dimension innermost, so each of the tile's rows walks 16 lane blocks.
#[test]
fn wide_lane_innermost_tile_allocates_nothing() {
    let program = compile_str::<2>(
        "const r = 8; const n = 8;
         region Big = [0..r+1, 0..n+1]; region Inner = [1..r, 1..n];
         direction north = (-1, 0); direction east = (0, 1);
         var next, curr, load : [Big] float;
         [Inner] next := 0.5 * next'@north + 0.4 * curr + 0.1 * load@east;",
        &[("r", 12), ("n", 700)],
        Layout::RowMajor,
    )
    .expect("relax lowers")
    .program;
    let nest = scan_nest(&program);
    let plan = Session::new(&program, &nest).procs(2).plan().expect("plans");
    assert_eq!((plan.block, plan.order.order), (128, [0, 1]), "wide, lane dimension innermost");
    let tile = plan.dist.owned(plan.active_cells()[0]).intersect(&plan.tiles[0]);
    assert_eq!(tile.extents(), [6, 128]);
    let runner = NestRunner::with_mode(&nest, KernelMode::Lanes);
    let (allocs, stride) = tile_allocs(&program, &nest, &runner, tile, &plan.order);
    assert_eq!((runner.tier(), stride), (KernelTier::Lanes, Some("unit")));
    assert_eq!(allocs, 0, "allocations in one wide lane-innermost tile");
}

#[test]
fn wide_segment_tile_allocates_nothing() {
    // 200 columns: each row runs as pieces of 64, 64, 64 and 8 points.
    let (allocs, tier, stride, rem) = one_tile(&relax(200), KernelMode::Lanes);
    assert_eq!((tier, stride, rem), (KernelTier::Lanes, Some("unit"), 0));
    assert_eq!(allocs, 0, "allocations in one wide-segment tile");
}

/// A tape holding all 16 lane registers live, on 200-point row segments:
/// the wide path renames each result into its spare register.
#[test]
fn sixteen_register_wide_tile_allocates_nothing() {
    let bounds = Region::rect([0, 0], [9, 201]);
    let mut program = Program::<2>::new();
    let (a, b) = (program.array("a", bounds), program.array("b", bounds));
    // Each level holds its left operand in a register while the right
    // one is evaluated: 15 levels under the recurrence's held term.
    let mut rhs = Expr::read(b);
    for k in 1..=15u32 {
        let left = Expr::read(b) * Expr::lit(0.5 + k as f64) + Expr::lit(1.0);
        rhs = if k.is_multiple_of(2) { left.min(rhs) } else { left - rhs };
    }
    let recur = Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]);
    program.stmt(Region::rect([1, 1], [8, 200]), a, recur + rhs);
    let kernel = TileKernel::compile(&scan_nest(&program)).expect("lowers");
    assert_eq!(kernel.reg_count(), 16, "every lane register is live");
    let (allocs, tier, stride, rem) = one_tile(&program, KernelMode::Lanes);
    assert_eq!((tier, stride, rem), (KernelTier::Lanes, Some("unit"), 0));
    assert_eq!(allocs, 0, "allocations in one 16-register wide-segment tile");
}

/// The wide path's folded tape on 200-point row segments: `Const × Read`
/// reads scaled inside their consumers, a tape folded empty, and each
/// statement's last instruction stored straight into its row.
#[test]
fn folded_wide_tile_allocates_nothing() {
    let bounds = Region::rect([0, 0], [9, 201]);
    let mut program = Program::<2>::new();
    let [a, b, c] = ["a", "b", "c"].map(|n| program.array(n, bounds));
    let recur = Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + Expr::read(b) * Expr::lit(0.25);
    program.scan(
        Region::rect([1, 1], [8, 200]),
        vec![Statement::new(a, recur), Statement::new(c, Expr::lit(0.75) * Expr::read(a))],
    );
    let nest = scan_nest(&program);
    let shapes: Vec<(Region<2>, Layout)> = Store::new(&program)
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    let passes = NestRunner::auto(&nest).wide_passes(&shapes, &nest.structure.order);
    assert_eq!(passes, Some(2), "one pass a statement: both reads folded, then none left");
    let (allocs, tier, stride, rem) = one_tile(&program, KernelMode::Lanes);
    assert_eq!((tier, stride, rem), (KernelTier::Lanes, Some("unit"), 0));
    assert_eq!(allocs, 0, "allocations in one folded wide-segment tile");
}

#[test]
fn lane_axis_strided_tile_allocates_nothing() {
    let program = tomcatv::build(32).expect("tomcatv lowers").program;
    let (allocs, tier, stride, _) = one_tile(&program, KernelMode::Lanes);
    assert_eq!((tier, stride), (KernelTier::Lanes, Some("strided")));
    assert_eq!(allocs, 0, "allocations in one strided axis tile");
}

#[test]
fn lane_axis_tile_with_a_remainder_slab_allocates_nothing() {
    // 21 columns: two lane blocks and a 5-wide slab on the scalar tape.
    let (allocs, tier, stride, rem) = one_tile(&relax(21), KernelMode::Lanes);
    assert_eq!((tier, stride), (KernelTier::Lanes, Some("unit")));
    assert_eq!(rem, 5 * 21, "the tile has a scalar remainder slab");
    assert_eq!(allocs, 0, "allocations in one axis tile with a remainder");
}

#[test]
fn lane_wavefront_tile_allocates_nothing() {
    let program = sor::build(32).expect("sor lowers").program;
    let (allocs, tier, stride, rem) = one_tile(&program, KernelMode::Lanes);
    assert_eq!((tier, stride), (KernelTier::Lanes, Some("diagonal")));
    assert!(rem > 0, "short diagonal segments run point by point");
    assert_eq!(allocs, 0, "allocations in one wavefront tile");
}

#[test]
fn scalar_tier_tile_allocates_nothing() {
    let (allocs, tier, stride, _) = one_tile(&relax(16), KernelMode::Scalar);
    assert_eq!((tier, stride), (KernelTier::Scalar, None));
    assert_eq!(allocs, 0, "allocations in one scalar-tape tile");
}
