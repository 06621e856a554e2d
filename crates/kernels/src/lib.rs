#![warn(missing_docs)]

//! # wavefront-kernels
//!
//! The benchmark applications of the paper's evaluation, written in the
//! WL mini-language (plus hand-written references for validation):
//! [`tomcatv`] and [`simple`] — the paper's two benchmarks, each with two
//! wavefront components — and the wavefront suite the paper's future work
//! calls for: a SWEEP3D-style transport sweep ([`sweep3d`]), Gauss–Seidel
//! SOR ([`sor`]), Smith–Waterman dynamic programming
//! ([`smith_waterman`]), and Jacobi as the fully-parallel control
//! ([`jacobi`]).
//!
//! ## Fast-path note
//!
//! Every nest of the benchmark sweeps here stays inside the operator
//! set the compiled tile-kernel tier supports (arithmetic, `min`/`max`,
//! `sqrt`, shifted and primed reads — no snapshots or contracted
//! scalars in the sweeps), so all of them execute via fused
//! stride-resolved kernels rather than the per-element expression
//! interpreter. This is load-bearing for the performance figures: the
//! `kernel_differential` integration suite
//! (`all_five_benchmarks_hit_the_fast_path`) fails if an edit knocks a
//! benchmark nest back onto the interpreter. See `docs/PERF.md` for the coverage rules and
//! the fallback contract.

pub mod jacobi;
pub mod rng;
pub mod simple;
pub mod smith_waterman;
pub mod sor;
pub mod sweep3d;
pub mod tomcatv;
