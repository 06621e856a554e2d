//! Compilation (loop-structure selection, buffering decisions) and the
//! sequential reference executor.
//!
//! A block compiles to one or more loop *nests*. A scan block always
//! fuses into a single nest whose structure is derived from its
//! dependence constraints; an over-constrained scan block is rejected
//! (legality condition (ii)). A plain block yields one nest per statement;
//! when no loop order can preserve array semantics for a statement (e.g.
//! `a := a@north + a@south`), the compiler falls back to snapshotting the
//! written array — the standard array-language temporary.

use std::cell::Cell;

use crate::array::Layout;
use crate::deps::{block_constraints, plain_stmt_constraints, DepConstraint};
use crate::error::{Error, Result};
use crate::expr::{ArrayId, EvalCtx};
use crate::index::Point;
use crate::loops::{find_structure, LoopStructure};
use crate::program::{Program, ProgramOp, Reduce, Store};
use crate::region::{LoopStructureOrder, Region};
use crate::stmt::{Block, BlockKind, Statement};
use crate::trace::{AccessSink, NoSink};
use crate::wsv::Wsv;

/// A single loop nest ready for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNest<const R: usize> {
    /// The covering region the nest iterates.
    pub region: Region<R>,
    /// Body statements, lexical order.
    pub stmts: Vec<Statement<R>>,
    /// Derived loop structure.
    pub structure: LoopStructure<R>,
    /// Arrays snapshotted before the nest runs; unprimed reads of these
    /// arrays observe the snapshot (array-semantics fallback).
    pub buffered: Vec<ArrayId>,
    /// Whether this nest came from a scan block.
    pub is_scan: bool,
    /// The dependence constraints the structure was derived from.
    pub constraints: Vec<DepConstraint<R>>,
    /// The wavefront summary vector of the nest's primed directions.
    pub wsv: Wsv<R>,
    /// Arrays contracted to per-iteration scalars (see
    /// [`crate::contract`]); their reads/writes bypass storage.
    pub contracted: Vec<ArrayId>,
}

/// A compiled block: the nests that implement it, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBlock<const R: usize> {
    /// Index of the source block in the program.
    pub block_index: usize,
    /// The nests implementing the block.
    pub nests: Vec<CompiledNest<R>>,
}

/// One compiled program operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledOp<const R: usize> {
    /// A compiled block of loop nests.
    Block(CompiledBlock<R>),
    /// A reduction (executed directly; no loop-structure freedom).
    Reduce(Reduce<R>),
}

/// A fully compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram<const R: usize> {
    /// Compiled operations in program order.
    pub ops: Vec<CompiledOp<R>>,
}

impl<const R: usize> CompiledProgram<R> {
    /// All loop nests in program order.
    pub fn nests(&self) -> impl Iterator<Item = &CompiledNest<R>> {
        self.ops.iter().flat_map(|op| match op {
            CompiledOp::Block(b) => b.nests.iter(),
            CompiledOp::Reduce(_) => [].iter(),
        })
    }

    /// The `i`-th loop nest in program order.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `i + 1` nests exist.
    pub fn nest(&self, i: usize) -> &CompiledNest<R> {
        self.nests().nth(i).expect("nest index out of range")
    }
}

/// Compile one block of `program`.
pub fn compile_block<const R: usize>(
    program: &Program<R>,
    block: &Block<R>,
    block_index: usize,
) -> Result<CompiledBlock<R>> {
    let prefer = program.contiguous_dim(block);
    let name = |id: ArrayId| program.name_of(id);
    let mut nests = Vec::new();
    match block.kind {
        BlockKind::Scan => {
            let constraints = block_constraints(block, name)?;
            let structure = find_structure(&constraints, prefer)?;
            let wsv = Wsv::from_directions(block.primed_directions());
            nests.push(CompiledNest {
                region: block.region,
                stmts: block.stmts.clone(),
                structure,
                buffered: vec![],
                is_scan: true,
                constraints,
                wsv,
                contracted: vec![],
            });
        }
        BlockKind::Plain => {
            for stmt in &block.stmts {
                let constraints = plain_stmt_constraints(stmt, 0);
                match find_structure(&constraints, prefer) {
                    Ok(structure) => nests.push(CompiledNest {
                        region: block.region,
                        stmts: vec![stmt.clone()],
                        structure,
                        buffered: vec![],
                        is_scan: false,
                        constraints,
                        wsv: Wsv::from_directions(std::iter::empty()),
                        contracted: vec![],
                    }),
                    Err(Error::OverConstrained { .. }) => {
                        // Array semantics still well-defined: snapshot the
                        // written array and read old values from the copy.
                        let structure = find_structure(&[], prefer)
                            .expect("empty constraint set is always satisfiable");
                        nests.push(CompiledNest {
                            region: block.region,
                            stmts: vec![stmt.clone()],
                            structure,
                            buffered: vec![stmt.lhs],
                            is_scan: false,
                            constraints,
                            wsv: Wsv::from_directions(std::iter::empty()),
                            contracted: vec![],
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(CompiledBlock { block_index, nests })
}

/// Compile a whole program (includes the bounds/name checks).
pub fn compile<const R: usize>(program: &Program<R>) -> Result<CompiledProgram<R>> {
    program.check_bounds()?;
    let ops = program
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            ProgramOp::Block(b) => Ok(CompiledOp::Block(compile_block(program, b, i)?)),
            ProgramOp::Reduce(r) => Ok(CompiledOp::Reduce(r.clone())),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CompiledProgram { ops })
}

struct ExecCtx<'a, const R: usize, S: AccessSink> {
    store: &'a mut Store<R>,
    snapshots: &'a [(ArrayId, crate::array::DenseArray<R>)],
    scalars: &'a mut [(ArrayId, Option<f64>)],
    sink: &'a mut S,
}

impl<const R: usize, S: AccessSink> EvalCtx<R> for ExecCtx<'_, R, S> {
    // `Expr::eval` calls this at every leaf; `#[inline]` keeps it
    // inlinable when the two land in different codegen units (without
    // it the interpreter measured 15 % slower).
    #[inline]
    fn read(&mut self, id: ArrayId, p: Point<R>, primed: bool) -> f64 {
        // Contracted arrays live in per-iteration scalar registers (the
        // contraction analysis guarantees their reads are unshifted and
        // write-dominated).
        if let Some((_, v)) = self.scalars.iter().find(|(sid, _)| *sid == id) {
            return v.expect("contracted read before write (contraction analysis bug)");
        }
        // Primed reads always observe live storage (the loop structure
        // guarantees upstream iterations already ran). Unprimed reads of
        // buffered arrays observe the pre-nest snapshot.
        if !primed {
            if let Some((_, snap)) = self.snapshots.iter().find(|(sid, _)| *sid == id) {
                let off = snap.linear_offset(p);
                self.sink.read(id, off);
                return snap.get(p);
            }
        }
        let arr = self.store.get(id);
        let off = arr.linear_offset(p);
        self.sink.read(id, off);
        arr.get(p)
    }
}

/// Execute one compiled nest against `store`, reporting accesses to
/// `sink`.
pub fn run_nest_with_sink<const R: usize, S: AccessSink>(
    nest: &CompiledNest<R>,
    store: &mut Store<R>,
    sink: &mut S,
) {
    run_nest_region_with_sink(nest, nest.region, &nest.structure.order, store, sink);
}

/// Execute a compiled nest restricted to `region` with an explicit loop
/// order — the entry point distributed runtimes use to run one tile of a
/// nest on one processor.
pub fn run_nest_region_with_sink<const R: usize, S: AccessSink>(
    nest: &CompiledNest<R>,
    region: Region<R>,
    order: &LoopStructureOrder<R>,
    store: &mut Store<R>,
    sink: &mut S,
) {
    let snapshots: Vec<_> = nest
        .buffered
        .iter()
        .map(|&id| (id, store.get(id).clone()))
        .collect();
    let mut scalars: Vec<(ArrayId, Option<f64>)> =
        nest.contracted.iter().map(|&id| (id, None)).collect();
    let flops: Vec<usize> = nest.stmts.iter().map(|s| s.rhs.flop_count()).collect();
    for p in region.iter_with(order) {
        for (si, stmt) in nest.stmts.iter().enumerate() {
            let v = {
                let mut ctx =
                    ExecCtx { store, snapshots: &snapshots, scalars: &mut scalars, sink };
                stmt.rhs.eval(p, &mut ctx)
            };
            sink.flops(flops[si]);
            if let Some((_, slot)) = scalars.iter_mut().find(|(sid, _)| *sid == stmt.lhs) {
                *slot = Some(v);
                continue;
            }
            let arr = store.get_mut(stmt.lhs);
            let off = arr.linear_offset(p);
            sink.write(stmt.lhs, off);
            arr.set(p, v);
        }
    }
}

/// What [`run_nest_region_cells`] reads from: live cells, the pre-tile
/// copies of buffered arrays, the per-iteration scalars of contracted
/// ones — the rules of [`ExecCtx`], on views.
struct CellCtx<'a, const R: usize> {
    arrays: &'a [&'a [Cell<f64>]],
    shapes: &'a [(Region<R>, Layout)],
    snapshots: &'a [(ArrayId, Vec<f64>)],
    scalars: &'a [(ArrayId, Option<f64>)],
}

impl<const R: usize> EvalCtx<R> for CellCtx<'_, R> {
    #[inline]
    fn read(&mut self, id: ArrayId, p: Point<R>, primed: bool) -> f64 {
        if let Some((_, v)) = self.scalars.iter().find(|(sid, _)| *sid == id) {
            return v.expect("contracted read before write (contraction analysis bug)");
        }
        let (bounds, layout) = self.shapes[id];
        let off = layout.offset(bounds, p);
        match self.snapshots.iter().find(|(sid, _)| !primed && *sid == id) {
            Some((_, snap)) => snap[off],
            None => self.arrays[id][off].get(),
        }
    }
}

/// [`run_nest_region_with_sink`] over a table of per-array cell views
/// (indexed by [`ArrayId`], `shapes` giving each array's bounds and
/// layout) instead of a store: the interpreter as a worker that shares
/// the store with other workers runs it — see
/// [`crate::kernel::TileKernel::run_bound_cells`]. Only the statements'
/// left-hand arrays are ever `set`; no access is reported to a sink.
pub fn run_nest_region_cells<const R: usize>(
    nest: &CompiledNest<R>,
    region: Region<R>,
    order: &LoopStructureOrder<R>,
    arrays: &[&[Cell<f64>]],
    shapes: &[(Region<R>, Layout)],
) {
    let snapshots: Vec<(ArrayId, Vec<f64>)> = nest
        .buffered
        .iter()
        .map(|&id| (id, arrays[id].iter().map(Cell::get).collect()))
        .collect();
    let mut scalars: Vec<(ArrayId, Option<f64>)> =
        nest.contracted.iter().map(|&id| (id, None)).collect();
    for p in region.iter_with(order) {
        for stmt in &nest.stmts {
            let v = stmt.rhs.eval(
                p,
                &mut CellCtx { arrays, shapes, snapshots: &snapshots, scalars: &scalars },
            );
            if let Some((_, slot)) = scalars.iter_mut().find(|(sid, _)| *sid == stmt.lhs) {
                *slot = Some(v);
                continue;
            }
            let (bounds, layout) = shapes[stmt.lhs];
            arrays[stmt.lhs][layout.offset(bounds, p)].set(v);
        }
    }
}

/// Execute a reduction: fold `src` over the region, then flood the
/// result over the destination region.
pub fn run_reduce_with_sink<const R: usize, S: AccessSink>(
    red: &Reduce<R>,
    store: &mut Store<R>,
    sink: &mut S,
) {
    let per_point = red.src.flop_count() + 1; // the combine counts too
    let mut acc = red.op.identity();
    for p in red.region.iter() {
        let v = {
            let mut ctx = ExecCtx { store, snapshots: &[], scalars: &mut [], sink };
            red.src.eval(p, &mut ctx)
        };
        sink.flops(per_point);
        acc = red.op.apply(acc, v);
    }
    let arr = store.get_mut(red.dest);
    for p in red.dest_region.iter() {
        let off = arr.linear_offset(p);
        sink.write(red.dest, off);
        arr.set(p, acc);
    }
}

/// Execute a compiled program sequentially.
pub fn run_with_sink<const R: usize, S: AccessSink>(
    compiled: &CompiledProgram<R>,
    store: &mut Store<R>,
    sink: &mut S,
) {
    for op in &compiled.ops {
        match op {
            CompiledOp::Block(b) => {
                for nest in &b.nests {
                    run_nest_with_sink(nest, store, sink);
                }
            }
            CompiledOp::Reduce(r) => run_reduce_with_sink(r, store, sink),
        }
    }
}

/// Compile and execute `program` against `store` (the one-call entry
/// point; returns the compiled form for inspection).
pub fn execute<const R: usize>(
    program: &Program<R>,
    store: &mut Store<R>,
) -> Result<CompiledProgram<R>> {
    let compiled = compile(program)?;
    run_with_sink(&compiled, store, &mut NoSink);
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DenseArray;
    use crate::expr::Expr;

    /// Figure 3 of the paper: a 5×5 array of 1s, region [2..n,1..n].
    fn fig3_setup() -> (Program<2>, Store<2>, ArrayId, Region<2>) {
        let n = 5;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [n, n]);
        let a = p.array("a", bounds);
        let region = Region::rect([2, 1], [n, n]);
        let mut store = Store::new(&p);
        store.get_mut(a).fill(1.0);
        (p, store, a, region)
    }

    #[test]
    fn figure_3a_unprimed_doubles_once() {
        // [2..n,1..n] a := 2 * a@north — every row reads the ORIGINAL
        // northern neighbour: all rows 2..n become 2 (Figure 3(c)).
        let (mut p, mut store, a, region) = fig3_setup();
        p.stmt(region, a, Expr::lit(2.0) * Expr::read_at(a, [-1, 0]));
        let compiled = execute(&p, &mut store).unwrap();
        // Anti dependence ⇒ dim-0 loop descends.
        let nest = compiled.nest(0);
        assert!(!nest.structure.order.ascending[0]);
        for j in 1..=5 {
            assert_eq!(store.get(a).get(Point([1, j])), 1.0);
            for i in 2..=5 {
                assert_eq!(store.get(a).get(Point([i, j])), 2.0, "a[{i},{j}]");
            }
        }
    }

    #[test]
    fn figure_3d_primed_doubles_cumulatively() {
        // [2..n,1..n] a := 2 * a'@north — wavefront: rows become
        // 1,2,4,8,16 (Figure 3(f)).
        let (mut p, mut store, a, region) = fig3_setup();
        p.stmt(region, a, Expr::lit(2.0) * Expr::read_primed_at(a, [-1, 0]));
        let compiled = execute(&p, &mut store).unwrap();
        let nest = compiled.nest(0);
        assert!(nest.is_scan);
        assert!(nest.structure.order.ascending[0]);
        assert_eq!(nest.structure.wavefront_dims, vec![0]);
        for j in 1..=5 {
            for i in 1..=5 {
                let expect = (2.0f64).powi(i as i32 - 1);
                assert_eq!(store.get(a).get(Point([i, j])), expect, "a[{i},{j}]");
            }
        }
    }

    #[test]
    fn over_constrained_scan_is_rejected() {
        let (mut p, _store, a, region) = fig3_setup();
        // Region must stay in bounds for both shifts.
        let inner = Region::rect([2, 1], [4, 5]);
        let _ = region;
        p.stmt(
            inner,
            a,
            Expr::read_primed_at(a, [-1, 0]) + Expr::read_primed_at(a, [1, 0]),
        );
        let err = compile(&p).unwrap_err();
        assert!(matches!(err, Error::OverConstrained { .. }));
    }

    #[test]
    fn buffered_fallback_preserves_array_semantics() {
        // a := a@north + a@south: no loop order works; the compiler
        // snapshots `a` and the result equals pure array semantics.
        let n = 5;
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [n, n]);
        let a = p.array("a", bounds);
        let region = Region::rect([1, 1], [n - 1, n - 1]);
        p.stmt(region, a, Expr::read_at(a, [-1, 0]) + Expr::read_at(a, [1, 0]));
        let mut store = Store::new(&p);
        let init = DenseArray::from_fn(bounds, |q| (q[0] * 10 + q[1]) as f64);
        *store.get_mut(a) = init.clone();
        let compiled = execute(&p, &mut store).unwrap();
        assert_eq!(compiled.nest(0).clone().buffered, vec![a]);
        for q in region.iter() {
            let expect = init.get(q + crate::index::Offset([-1, 0]))
                + init.get(q + crate::index::Offset([1, 0]));
            assert_eq!(store.get(a).get(q), expect, "at {q}");
        }
    }

    #[test]
    fn tomcatv_scan_block_matches_explicit_loop() {
        // Figure 2: the scan-block form must equal the explicit
        // row-at-a-time loop form.
        let n = 10i64;
        let bounds = Region::rect([1, 1], [n, n]);
        let north = [-1i64, 0];

        let build = |p: &mut Program<2>| {
            let r = p.array("r", bounds);
            let aa = p.array("aa", bounds);
            let d = p.array("d", bounds);
            let dd = p.array("dd", bounds);
            let rx = p.array("rx", bounds);
            let ry = p.array("ry", bounds);
            (r, aa, d, dd, rx, ry)
        };
        let init = |store: &mut Store<2>, ids: (usize, usize, usize, usize, usize, usize)| {
            let (_r, aa, d, dd, rx, ry) = ids;
            for (id, seed) in [(aa, 3.0), (d, 5.0), (dd, 7.0), (rx, 11.0), (ry, 13.0)] {
                *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                    seed + 0.01 * (q[0] * 17 + q[1] * 29) as f64
                });
            }
        };

        // Scan-block version (Figure 2(b)).
        let mut ps = Program::<2>::new();
        let ids = build(&mut ps);
        let (r, aa, d, dd, rx, ry) = ids;
        let region = Region::rect([2, 2], [n - 2, n - 1]);
        ps.scan(
            region,
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
        let mut s_scan = Store::new(&ps);
        init(&mut s_scan, ids);
        execute(&ps, &mut s_scan).unwrap();

        // Explicit-loop version (Figure 2(a)): one row at a time.
        let mut pe = Program::<2>::new();
        let ids2 = build(&mut pe);
        let (r2, aa2, d2, dd2, rx2, ry2) = ids2;
        for j in 2..=(n - 2) {
            let row = Region::rect([j, 2], [j, n - 1]);
            pe.stmt(row, r2, Expr::read(aa2) * Expr::read_at(d2, north));
            pe.stmt(
                row,
                d2,
                (Expr::read(dd2) - Expr::read_at(aa2, north) * Expr::read(r2)).recip(),
            );
            pe.stmt(
                row,
                rx2,
                Expr::read(rx2) - Expr::read_at(rx2, north) * Expr::read(r2),
            );
            pe.stmt(
                row,
                ry2,
                Expr::read(ry2) - Expr::read_at(ry2, north) * Expr::read(r2),
            );
        }
        let mut s_loop = Store::new(&pe);
        init(&mut s_loop, ids2);
        execute(&pe, &mut s_loop).unwrap();

        for (x, y) in [(r, r2), (d, d2), (rx, rx2), (ry, ry2)] {
            assert!(
                s_scan.get(x).region_eq(s_loop.get(y), region),
                "array {x} differs between scan-block and explicit-loop forms"
            );
        }
    }

    #[test]
    fn counting_sink_counts_accesses() {
        let (mut p, mut store, a, region) = fig3_setup();
        p.stmt(region, a, Expr::lit(2.0) * Expr::read_at(a, [-1, 0]));
        let compiled = compile(&p).unwrap();
        let mut sink = crate::trace::CountingSink::default();
        run_with_sink(&compiled, &mut store, &mut sink);
        let pts = region.len();
        assert_eq!(sink.reads, pts); // one array read per point
        assert_eq!(sink.writes, pts);
        assert_eq!(sink.flops, pts); // one multiply per point
    }

    #[test]
    fn run_nest_region_executes_a_tile_only() {
        let (mut p, mut store, a, region) = fig3_setup();
        p.stmt(region, a, Expr::lit(2.0) * Expr::read_at(a, [-1, 0]));
        let compiled = compile(&p).unwrap();
        let nest = compiled.nest(0);
        let tile = Region::rect([2, 1], [3, 5]);
        run_nest_region_with_sink(nest, tile, &nest.structure.order, &mut store, &mut NoSink);
        // Rows 2..3 updated, rows 4..5 untouched.
        assert_eq!(store.get(a).get(Point([2, 1])), 2.0);
        assert_eq!(store.get(a).get(Point([3, 1])), 2.0);
        assert_eq!(store.get(a).get(Point([4, 1])), 1.0);
    }

    #[test]
    fn cell_views_run_a_region_like_the_store_does() {
        // A primed scan on a column-major array, and the buffered
        // fallback (its unprimed reads observe the pre-run copy).
        let bounds = Region::rect([0, 0], [6, 5]);
        let region = Region::rect([1, 1], [5, 4]);
        let mut scan = Program::<2>::new();
        let a = scan.array_with_layout("a", bounds, Layout::ColMajor);
        let b = scan.array("b", bounds);
        scan.stmt(
            region,
            a,
            Expr::read_primed_at(a, [-1, 1]) * Expr::lit(0.5) + Expr::read_at(b, [1, 0]),
        );
        let mut buffered = Program::<2>::new();
        let c = buffered.array("c", bounds);
        buffered.stmt(region, c, Expr::read_at(c, [-1, 0]) + Expr::read_at(c, [1, 0]));
        for p in [&scan, &buffered] {
            let compiled = compile(p).unwrap();
            let nest = compiled.nest(0);
            let mut want = Store::new(p);
            for id in 0..want.len() {
                for q in bounds.iter() {
                    want.get_mut(id).set(q, (q[0] * 7 + q[1] * 3 + id as i64) as f64);
                }
            }
            let mut got = want.clone();
            run_nest_region_with_sink(nest, region, &nest.structure.order, &mut want, &mut NoSink);
            let shapes: Vec<_> = got.arrays().iter().map(|x| (x.bounds(), x.layout())).collect();
            let views = crate::kernel::store_cells(&mut got);
            run_nest_region_cells(nest, region, &nest.structure.order, &views, &shapes);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn index_var_statement() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([0, 0], [3, 3]);
        let a = p.array("a", bounds);
        p.stmt(bounds, a, Expr::IndexVar(0) * Expr::lit(10.0) + Expr::IndexVar(1));
        let mut store = Store::new(&p);
        execute(&p, &mut store).unwrap();
        assert_eq!(store.get(a).get(Point([2, 3])), 23.0);
    }
}
