//! Programs: array declarations plus a sequence of blocks, and the
//! storage (`Store`) they execute against.

use crate::array::{DenseArray, Layout};
use crate::error::{Error, Result};
use crate::expr::{ArrayId, Expr};
use crate::region::Region;
use crate::stmt::{Block, BlockKind, ReduceOp, Statement};

/// A full reduction: fold `src` over `region` with `op`, then flood the
/// scalar result over `dest_region` of array `dest` (ZPL reduces to a
/// scalar and broadcasts; flooding into an array keeps the core free of
/// scalar variables).
#[derive(Debug, Clone, PartialEq)]
pub struct Reduce<const R: usize> {
    /// The region folded over.
    pub region: Region<R>,
    /// The reduction operator.
    pub op: ReduceOp,
    /// The per-element expression (primed references are illegal here —
    /// legality condition (v)).
    pub src: Expr<R>,
    /// The array receiving the broadcast result.
    pub dest: ArrayId,
    /// Where in `dest` the result is flooded.
    pub dest_region: Region<R>,
}

/// One step of a program: an ordinary/scan block or a reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramOp<const R: usize> {
    /// Array statements (plain or scan).
    Block(Block<R>),
    /// A full reduction with broadcast.
    Reduce(Reduce<R>),
}

/// Declaration of one array: its name, bounds, and physical layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl<const R: usize> {
    /// Diagnostic name.
    pub name: String,
    /// Declared bounds; every covering region (shifted by any direction
    /// used on the array) must fall inside them.
    pub bounds: Region<R>,
    /// Physical storage order. The paper's Fortran benchmarks are
    /// column-major, which is what makes interchange matter (Figure 6).
    pub layout: Layout,
}

/// A whole program: declarations and operations executed in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<const R: usize> {
    arrays: Vec<ArrayDecl<R>>,
    ops: Vec<ProgramOp<R>>,
}

impl<const R: usize> Program<R> {
    /// An empty program.
    pub fn new() -> Self {
        Program { arrays: Vec::new(), ops: Vec::new() }
    }

    /// Declare a row-major array.
    pub fn array(&mut self, name: impl Into<String>, bounds: Region<R>) -> ArrayId {
        self.array_with_layout(name, bounds, Layout::RowMajor)
    }

    /// Declare an array with an explicit layout.
    pub fn array_with_layout(
        &mut self,
        name: impl Into<String>,
        bounds: Region<R>,
        layout: Layout,
    ) -> ArrayId {
        let id = self.arrays.len();
        self.arrays.push(ArrayDecl { name: name.into(), bounds, layout });
        id
    }

    /// Append a single array statement. If the right-hand side contains a
    /// primed reference the statement is a one-statement scan block (the
    /// prime operator "permits loop carried true dependences from a
    /// statement to itself").
    pub fn stmt(&mut self, region: Region<R>, lhs: ArrayId, rhs: Expr<R>) -> &mut Self {
        let primed = rhs.reads().iter().any(|r| r.primed);
        let kind = if primed { BlockKind::Scan } else { BlockKind::Plain };
        self.ops.push(ProgramOp::Block(Block {
            region,
            kind,
            stmts: vec![Statement::new(lhs, rhs)],
        }));
        self
    }

    /// Append a scan block.
    pub fn scan(&mut self, region: Region<R>, stmts: Vec<Statement<R>>) -> &mut Self {
        self.ops.push(ProgramOp::Block(Block::scan(region, stmts)));
        self
    }

    /// Append an arbitrary block.
    pub fn push_block(&mut self, block: Block<R>) -> &mut Self {
        self.ops.push(ProgramOp::Block(block));
        self
    }

    /// Append a reduction: fold `src` over `region` with `op` and flood
    /// the result over `dest_region` of `dest`.
    pub fn reduce(
        &mut self,
        region: Region<R>,
        op: ReduceOp,
        src: Expr<R>,
        dest: ArrayId,
        dest_region: Region<R>,
    ) -> &mut Self {
        self.ops.push(ProgramOp::Reduce(Reduce { region, op, src, dest, dest_region }));
        self
    }

    /// The array declarations.
    pub fn arrays(&self) -> &[ArrayDecl<R>] {
        &self.arrays
    }

    /// Each declared array's bounds and layout, indexed by [`ArrayId`].
    pub fn shapes(&self) -> Vec<(Region<R>, Layout)> {
        self.arrays.iter().map(|a| (a.bounds, a.layout)).collect()
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[ProgramOp<R>] {
        &self.ops
    }

    /// Name of an array (for diagnostics).
    pub fn name_of(&self, id: ArrayId) -> String {
        self.arrays
            .get(id)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("<array {id}>"))
    }

    /// Look an array up by name.
    pub fn find(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|d| d.name == name)
    }

    /// The dimension that is contiguous in storage for the arrays a block
    /// touches (majority vote; ties go to the lower dimension index).
    /// Drives the loop-structure preference that reproduces the paper's
    /// interchange behaviour.
    pub fn contiguous_dim(&self, block: &Block<R>) -> Option<usize> {
        if R == 0 {
            return None;
        }
        let mut col = 0usize;
        let mut row = 0usize;
        let mut seen = std::collections::HashSet::new();
        for s in &block.stmts {
            for id in s
                .reads()
                .iter()
                .map(|r| r.id)
                .chain(std::iter::once(s.lhs))
            {
                if seen.insert(id) {
                    match self.arrays.get(id).map(|d| d.layout) {
                        Some(Layout::ColMajor) => col += 1,
                        Some(Layout::RowMajor) => row += 1,
                        None => {}
                    }
                }
            }
        }
        if col == 0 && row == 0 {
            None
        } else if col >= row {
            Some(0)
        } else {
            Some(R - 1)
        }
    }

    /// Static checks that do not require loop-structure derivation:
    /// duplicate names, region-vs-bounds containment for every reference.
    /// (Scan-block legality conditions (i), (ii) and the zero-direction
    /// prime check are enforced during compilation; see
    /// [`crate::exec::compile`].)
    pub fn check_bounds(&self) -> Result<()> {
        let mut names = std::collections::HashSet::new();
        for d in &self.arrays {
            if !names.insert(d.name.clone()) {
                return Err(Error::DuplicateArray { name: d.name.clone() });
            }
        }
        for op in &self.ops {
            match op {
                ProgramOp::Block(b) => {
                    for s in &b.stmts {
                        let lhs_bounds = self
                            .arrays
                            .get(s.lhs)
                            .ok_or(Error::UnknownArray { name: self.name_of(s.lhs) })?
                            .bounds;
                        if !lhs_bounds.contains_region(&b.region) {
                            return Err(Error::RegionOutOfBounds {
                                array: self.name_of(s.lhs),
                                detail: format!(
                                    "write region {} vs bounds {}",
                                    b.region, lhs_bounds
                                ),
                            });
                        }
                        self.check_reads(&s.reads(), b.region)?;
                    }
                }
                ProgramOp::Reduce(r) => {
                    let reads = r.src.reads();
                    // Legality condition (v): reductions are parallel
                    // operators; their operands may not be primed.
                    if let Some(p) = reads.iter().find(|rd| rd.primed) {
                        return Err(Error::PrimedParallelOperand {
                            detail: format!(
                                "primed reference to `{}` inside a reduction",
                                self.name_of(p.id)
                            ),
                        });
                    }
                    self.check_reads(&reads, r.region)?;
                    let dest_bounds = self
                        .arrays
                        .get(r.dest)
                        .ok_or(Error::UnknownArray { name: self.name_of(r.dest) })?
                        .bounds;
                    if !dest_bounds.contains_region(&r.dest_region) {
                        return Err(Error::RegionOutOfBounds {
                            array: self.name_of(r.dest),
                            detail: format!(
                                "flood region {} vs bounds {dest_bounds}",
                                r.dest_region
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_reads(
        &self,
        reads: &[crate::expr::ReadRef<R>],
        region: Region<R>,
    ) -> Result<()> {
        for r in reads {
            let bounds = self
                .arrays
                .get(r.id)
                .ok_or(Error::UnknownArray { name: self.name_of(r.id) })?
                .bounds;
            let read = region.translate(r.shift);
            if !bounds.contains_region(&read) {
                return Err(Error::RegionOutOfBounds {
                    array: self.name_of(r.id),
                    detail: format!(
                        "read region {read} (shift {}) vs bounds {bounds}",
                        r.shift
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The runtime storage of a program: one dense array per declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Store<const R: usize> {
    arrays: Vec<DenseArray<R>>,
}

impl<const R: usize> Store<R> {
    /// Allocate zero-filled storage matching `program`'s declarations.
    pub fn new(program: &Program<R>) -> Self {
        Store {
            arrays: program
                .arrays
                .iter()
                .map(|d| DenseArray::with_layout(d.bounds, d.layout, 0.0))
                .collect(),
        }
    }

    /// Build a store from explicit arrays — used by distributed runtimes
    /// that allocate per-processor local arrays (with ghost margins) whose
    /// ids must line up with the program's declarations.
    pub fn from_arrays(arrays: Vec<DenseArray<R>>) -> Self {
        Store { arrays }
    }

    /// An eager deep copy: every array gets a uniquely-owned buffer, so
    /// writes through the copy never pay a copy-on-write break (see
    /// [`DenseArray::detached`]).
    pub fn detached(&self) -> Self {
        Store {
            arrays: self.arrays.iter().map(DenseArray::detached).collect(),
        }
    }

    /// All arrays, id-ordered.
    pub fn arrays(&self) -> &[DenseArray<R>] {
        &self.arrays
    }

    /// All arrays, id-ordered, mutably — compiled kernels take per-array
    /// `Cell` views of the whole store in one borrow.
    pub fn arrays_mut(&mut self) -> &mut [DenseArray<R>] {
        &mut self.arrays
    }

    /// Access an array.
    #[inline]
    pub fn get(&self, id: ArrayId) -> &DenseArray<R> {
        &self.arrays[id]
    }

    /// Mutably access an array.
    #[inline]
    pub fn get_mut(&mut self, id: ArrayId) -> &mut DenseArray<R> {
        &mut self.arrays[id]
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True when the store holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Point;

    #[test]
    fn declare_and_find() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [8, 8]);
        let a = p.array("a", bounds);
        let b = p.array("b", bounds);
        assert_eq!(p.find("a"), Some(a));
        assert_eq!(p.find("b"), Some(b));
        assert_eq!(p.find("zz"), None);
        assert_eq!(p.name_of(a), "a");
        assert_eq!(p.name_of(99), "<array 99>");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = Program::<1>::new();
        let bounds = Region::rect([0], [3]);
        p.array("x", bounds);
        p.array("x", bounds);
        assert_eq!(
            p.check_bounds().unwrap_err(),
            Error::DuplicateArray { name: "x".into() }
        );
    }

    #[test]
    fn primed_rhs_becomes_scan_block() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [8, 8]);
        let a = p.array("a", bounds);
        p.stmt(Region::rect([2, 1], [8, 8]), a, Expr::read_primed_at(a, [-1, 0]));
        p.stmt(Region::rect([2, 1], [8, 8]), a, Expr::read_at(a, [-1, 0]));
        let kinds: Vec<_> = p
            .ops()
            .iter()
            .map(|op| match op {
                ProgramOp::Block(b) => b.kind,
                ProgramOp::Reduce(_) => panic!("unexpected reduce"),
            })
            .collect();
        assert_eq!(kinds, vec![BlockKind::Scan, BlockKind::Plain]);
    }

    #[test]
    fn primed_operand_in_reduction_violates_condition_v() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [8, 8]);
        let a = p.array("a", bounds);
        let s = p.array("s", bounds);
        p.reduce(
            Region::rect([2, 1], [8, 8]),
            ReduceOp::Max,
            Expr::read_primed_at(a, [-1, 0]),
            s,
            bounds,
        );
        assert!(matches!(
            p.check_bounds().unwrap_err(),
            Error::PrimedParallelOperand { .. }
        ));
    }

    #[test]
    fn reduce_bounds_are_checked() {
        let mut p = Program::<2>::new();
        let a = p.array("a", Region::rect([1, 1], [8, 8]));
        let s = p.array("s", Region::rect([0, 0], [0, 0]));
        p.reduce(
            Region::rect([1, 1], [8, 8]),
            ReduceOp::Sum,
            Expr::read(a),
            s,
            Region::rect([0, 0], [1, 1]), // escapes s's bounds
        );
        assert!(matches!(
            p.check_bounds().unwrap_err(),
            Error::RegionOutOfBounds { .. }
        ));
    }

    #[test]
    fn bounds_check_catches_escaping_shift() {
        let mut p = Program::<2>::new();
        let a = p.array("a", Region::rect([1, 1], [8, 8]));
        // Region starts at row 1; @north reads row 0 — out of bounds.
        p.stmt(Region::rect([1, 1], [8, 8]), a, Expr::read_at(a, [-1, 0]));
        assert!(matches!(
            p.check_bounds().unwrap_err(),
            Error::RegionOutOfBounds { .. }
        ));
        // Shrinking the covering region fixes it.
        let mut p = Program::<2>::new();
        let a = p.array("a", Region::rect([1, 1], [8, 8]));
        p.stmt(Region::rect([2, 1], [8, 8]), a, Expr::read_at(a, [-1, 0]));
        p.check_bounds().unwrap();
    }

    #[test]
    fn bounds_check_covers_lhs() {
        let mut p = Program::<1>::new();
        let a = p.array("a", Region::rect([0], [4]));
        p.stmt(Region::rect([0], [9]), a, Expr::lit(1.0));
        assert!(matches!(
            p.check_bounds().unwrap_err(),
            Error::RegionOutOfBounds { .. }
        ));
    }

    #[test]
    fn contiguous_dim_majority() {
        let mut p = Program::<2>::new();
        let bounds = Region::rect([1, 1], [4, 4]);
        let a = p.array_with_layout("a", bounds, Layout::ColMajor);
        let b = p.array_with_layout("b", bounds, Layout::ColMajor);
        let c = p.array_with_layout("c", bounds, Layout::RowMajor);
        let blk = Block::stmt(bounds, a, Expr::read(b) + Expr::read(c));
        assert_eq!(p.contiguous_dim(&blk), Some(0));
        let blk = Block::stmt(bounds, c, Expr::read(c) * Expr::lit(2.0));
        assert_eq!(p.contiguous_dim(&blk), Some(1));
    }

    #[test]
    fn store_allocates_per_decl() {
        let mut p = Program::<2>::new();
        let a = p.array("a", Region::rect([0, 0], [3, 3]));
        let b = p.array("b", Region::rect([0, 0], [1, 1]));
        let mut s = Store::new(&p);
        assert_eq!(s.len(), 2);
        s.get_mut(a).set(Point([3, 3]), 5.0);
        assert_eq!(s.get(a).get(Point([3, 3])), 5.0);
        assert_eq!(s.get(b).get(Point([1, 1])), 0.0);
    }
}
