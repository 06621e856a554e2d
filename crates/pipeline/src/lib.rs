#![warn(missing_docs)]
// Rank-generic code indexes several fixed-size arrays by dimension in
// lockstep; iterator zips obscure that.
#![allow(clippy::needless_range_loop)]

//! # wavefront-pipeline
//!
//! The parallel runtime of the reproduction: turns a compiled scan-block
//! nest into a [`plan::WavefrontPlan`] (one or two wavefront dimensions
//! distributed over a processor line or mesh, orthogonal dimension tiled
//! with block size `b`) and executes it three ways:
//!
//! * a deterministic cost simulation on the machine model (the
//!   "experimental" curves of the figure harnesses);
//! * real OS threads running their tiles in place on the shared store,
//!   each boundary handed downstream by an atomic tile-progress counter
//!   — the stand-in for the paper's hand-pipelined MPI codes;
//! * the same engine on the calling thread alone, cell after cell in
//!   wave order: the sequential baseline, and the semantic reference for
//!   the decomposition.
//!
//! Block sizes come from [`schedule::BlockPolicy`]: fixed, Model1
//! (constant-cost), Model2 (the paper's Equation (1)), naive
//! (full-portion), or a plan-time search that simulates the plan at
//! each candidate width — given candidates, or every distinct tile count
//! under [`schedule::BlockPolicy::Adaptive`]. [`tune`] calibrates the
//! host's machine constants for it.
//!
//! Two front doors share one execution core: [`session::Session`] for
//! one-shot runs, and [`service::WavefrontService`] for repeated
//! traffic — a long-lived job API with a persistent worker pool, a
//! compiled-plan cache, and bounded-queue backpressure. The engine internals (`exec_*` modules)
//! are crate-private; there is no way to run a plan except through a
//! session, a program session, or the service.

pub mod error;
pub(crate) mod exec_sim;
pub(crate) mod exec_threads;
pub(crate) mod link;
pub mod plan;
pub mod schedule;
pub mod service;
pub mod session;
pub mod telemetry;
pub mod tune;

pub use error::{AdmissionReason, PipelineError};
pub use exec_sim::{NestSim, ProgramSim};
pub use plan::{Axis, WavefrontPlan};
pub use schedule::{BlockCtx, BlockPolicy};
pub use service::{
    ArrayHandle, Counter, CriticalPathScheduler, DagHandle, DagOutcome, DagSpec, DagSpecBuilder,
    DagStats, DagView, DispatchDecision, FifoScheduler, Gauge, HistogramHandle, JobHandle,
    JobOutcome, JobOutput, JobOutputs, JobSpec, JobSpecBuilder, JobTopology, JobTrace,
    LocalityScheduler, LoopChunkStats, LoopHandle, LoopOutcome, LoopSpec, LoopSpecBuilder,
    LoopStats, LoopView, Metrics, NodeId, NodeRef, NodeResult, Scheduler, SchedulerKind,
    ServeConfig, ServiceConfig, ServiceStats, TenantConfig, TenantStats, WavefrontService,
    WireAllocRequest, WireClient, WireCompiler, WireDagNode, WireDagRequest, WireDagResponse,
    WireHandle, WireLoopRequest, WireLoopResponse, WireProgram, WireRequest, WireResponse,
    WireServer, WireTopology, DEFAULT_TENANT, PROTOCOL_VERSION,
};
pub use session::{ProgramSession, RunOutcome, Session, Session2D, SessionConfig};
pub use telemetry::{
    ascii_timeline, chrome_trace, CacheEvent, CausalGraph, ChromeTraceBuilder, Collector,
    CriticalPath, EngineKind, ExecutionReport, Histogram, JsonObj, JsonValue, NoopCollector,
    Prediction,
    RunMeta, TraceAnalysis, TraceCollector, TraceHistograms,
};
pub use tune::{calibrate_host, calibrate_with, CalibrationConfig};
