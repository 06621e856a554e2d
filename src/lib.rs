#![warn(missing_docs)]

//! # wavefront
//!
//! Language-level support for pipelining wavefront computations — a
//! production-style reproduction of *"Pipelining Wavefront Computations:
//! Experiences and Performance"* (Lewis & Snyder, IPPS 2000) and its
//! companion paper *"Language Support for Pipelining Wavefront
//! Computations"* (Chamberlain, Lewis & Snyder).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — the array-language core: regions, directions, shift and
//!   **prime** operators, **scan blocks**, wavefront summary vectors,
//!   legality analysis, loop-structure derivation, sequential executor;
//! * [`lang`] — the WL textual front end (ZPL-flavoured mini-language);
//! * [`machine`] — processor grids, block distributions, machine cost
//!   presets, and the deterministic task-graph cost simulator;
//! * [`model`] — the analytic Model1/Model2 performance models and the
//!   optimal-block-size Equation (1);
//! * [`pipeline`] — wavefront execution plans and the naive / pipelined
//!   runtimes (simulated, sequential, and real threads on shared memory);
//! * [`cache`] — the trace-driven cache simulator behind the
//!   uniprocessor experiments;
//! * [`kernels`] — Tomcatv, SIMPLE, SWEEP3D-style sweeps, SOR,
//!   Smith–Waterman, and Jacobi, written in WL with hand-written
//!   references.
//!
//! ```
//! use wavefront::lang::compile_str;
//! use wavefront::core::prelude::*;
//!
//! let src = "
//!     const n = 5;
//!     var a : [1..n, 1..n] float;
//!     direction north = (-1, 0);
//!     [2..n, 1..n] a := 2.0 * a'@north;   -- the paper's Figure 3(d)
//! ";
//! let lo = compile_str::<2>(src, &[], Layout::RowMajor).unwrap();
//! let a = lo.array("a").unwrap();
//! let mut store = Store::new(&lo.program);
//! store.get_mut(a).fill(1.0);
//! execute(&lo.program, &mut store).unwrap();
//! assert_eq!(store.get(a).get(Point([5, 1])), 16.0); // rows 1,2,4,8,16
//! ```
//!
//! Parallel execution goes through [`pipeline::Session`] — the one
//! public way to run any engine, on a processor line (`.procs(p)`) or
//! a mesh (`.mesh([p1, p2])`) — and a [`pipeline::TraceCollector`]
//! records the run for analysis:
//!
//! ```
//! use wavefront::core::prelude::*;
//! use wavefront::kernels::tomcatv;
//! use wavefront::pipeline::{EngineKind, Session, TraceAnalysis, TraceCollector};
//!
//! let lo = tomcatv::build(32).unwrap();
//! let compiled = compile(&lo.program).unwrap();
//! let nest = compiled.nests().find(|n| n.is_scan).unwrap();
//!
//! let mut trace = TraceCollector::default();
//! let outcome = Session::new(&lo.program, nest)
//!     .procs(4)
//!     .collector(&mut trace)
//!     .run(EngineKind::Sim)
//!     .unwrap();
//!
//! // In the simulator the critical path tiles the makespan exactly.
//! let analysis = TraceAnalysis::from_trace(&trace).unwrap();
//! assert_eq!(analysis.critical.length(), outcome.makespan);
//! assert!(analysis.efficiency > 0.0 && analysis.efficiency <= 1.0);
//! ```

pub mod serve;

pub use wavefront_cache as cache;
pub use wavefront_core as core;
pub use wavefront_kernels as kernels;
pub use wavefront_lang as lang;
pub use wavefront_machine as machine;
pub use wavefront_model as model;
pub use wavefront_pipeline as pipeline;
