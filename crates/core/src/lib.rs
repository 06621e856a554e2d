#![warn(missing_docs)]
// Rank-generic code indexes several fixed-size arrays by dimension in
// lockstep; iterator zips obscure that.
#![allow(clippy::needless_range_loop)]

//! # wavefront-core
//!
//! The array-language core of the *wavefront* workspace: a faithful
//! embedding of the ZPL constructs the paper extends — regions,
//! directions, the shift operator `@` — plus the paper's two extensions,
//! the **prime operator** and **scan blocks**, together with the static
//! analyses (wavefront summary vectors, legality conditions (i)–(v),
//! unconstrained distance vectors, loop-structure derivation) and a
//! sequential reference executor.
//!
//! ## Quick tour
//!
//! ```
//! use wavefront_core::prelude::*;
//!
//! // [2..n,1..n] a := 2 * a'@north  — Figure 3(d) of the paper.
//! let n = 5;
//! let mut p = Program::<2>::new();
//! let bounds = Region::rect([1, 1], [n, n]);
//! let a = p.array("a", bounds);
//! p.stmt(
//!     Region::rect([2, 1], [n, n]),
//!     a,
//!     Expr::lit(2.0) * Expr::read_primed_at(a, [-1, 0]),
//! );
//! let mut store = Store::new(&p);
//! store.get_mut(a).fill(1.0);
//! execute(&p, &mut store).unwrap();
//! assert_eq!(store.get(a).get(Point([5, 3])), 16.0); // 1,2,4,8,16 rows
//! ```
//!
//! Parallel operators other than shift (reductions, scans, permutations)
//! are deliberately absent from [`expr::Expr`]: the paper's legality
//! condition (v) requires them to be hoisted out of scan blocks into
//! temporaries during compilation, which is exactly what the
//! `wavefront-lang` front end does before lowering to this crate.

pub mod array;
pub mod contract;
pub mod deps;
pub mod direction;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod kernel;
pub mod kernel_lanes;
pub mod loops;
pub mod program;
pub mod region;
pub mod stmt;
pub mod trace;
pub mod wsv;
pub mod wysiwyg;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::array::{cow_bytes_copied, DenseArray, Layout};
    pub use crate::contract::{compile_contracted, contract_program, contractible_ids};
    pub use crate::deps::{DepConstraint, DepKind};
    pub use crate::direction::{cardinal, Direction};
    pub use crate::error::{Error, Result};
    pub use crate::exec::{
        compile, compile_block, execute, run_nest_region_with_sink, run_nest_with_sink,
        run_reduce_with_sink, run_with_sink, CompiledBlock, CompiledNest, CompiledOp,
        CompiledProgram,
    };
    pub use crate::expr::{ArrayId, BinOp, EvalCtx, Expr, ReadRef, UnaryOp};
    pub use crate::index::{Offset, Point};
    pub use crate::kernel::{
        BoundKernel, FallbackReason, KernelMode, KernelTier, LaneCause, NestRunner, TierElems,
        TileKernel,
    };
    pub use crate::kernel_lanes::{LanePlan, LaneShape};
    pub use crate::loops::{find_structure, is_legal, LoopStructure};
    pub use crate::program::{ArrayDecl, Program, ProgramOp, Reduce, Store};
    pub use crate::region::{LoopStructureOrder, Region};
    pub use crate::stmt::{Block, BlockKind, ReduceOp, Statement};
    pub use crate::trace::{Access, AccessSink, CountingSink, FnSink, NoSink};
    pub use crate::wsv::{DimParallelism, Sign, Wsv};
    pub use crate::wysiwyg::{classify_nest, classify_program, CostClass};
}

pub use prelude::*;
