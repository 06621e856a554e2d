#![warn(missing_docs)]
#![deny(unreachable_pub)]
// Rank-generic code indexes several fixed-size arrays by dimension in
// lockstep; iterator zips obscure that.
#![allow(clippy::needless_range_loop)]

//! # wavefront-pipeline
//!
//! The parallel runtime of the reproduction: turns a compiled scan-block
//! nest into a [`WavefrontPlan`] (one or two wavefront dimensions
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
//! Block sizes come from [`BlockPolicy`]: fixed, Model1
//! (constant-cost), Model2 (the paper's Equation (1)), naive
//! (full-portion), or a plan-time search that simulates the plan at
//! each candidate width — given candidates, or every distinct tile count
//! under [`BlockPolicy::Adaptive`]. [`calibrate_host`] calibrates the
//! host's machine constants for it.
//!
//! Two front doors share one execution core: [`Session`] for one-shot
//! runs, and [`WavefrontService`] for repeated traffic — a long-lived
//! job API with a persistent worker pool, a compiled-plan cache, and
//! bounded-queue backpressure. Every module is private: the re-exports
//! below are the crate's whole API (`unreachable_pub` keeps it so), and
//! there is no way to run a plan except through a session, a program
//! session, or the service.

mod error;
pub(crate) mod exec_sim;
pub(crate) mod exec_threads;
pub(crate) mod link;
mod plan;
mod schedule;
mod service;
mod session;
mod telemetry;
mod tune;

pub use error::{AdmissionReason, PipelineError};
pub use exec_sim::{NestSim, ProgramSim};
pub use plan::{Axis, WavefrontPlan};
pub use schedule::{BlockCtx, BlockPolicy};
pub use service::{
    ArrayHandle, Counter, DagHandle, DagOutcome, DagSpec, DagSpecBuilder, DagStats,
    DispatchDecision, Gauge, HistogramHandle, JobHandle, JobOutcome, JobOutput, JobOutputs,
    JobSpec, JobSpecBuilder, JobTopology, JobTrace, LoopChunkStats, LoopHandle, LoopOutcome,
    LoopSpec, LoopSpecBuilder, LoopStats, LoopView, Metrics, NodeId, NodeRef, NodeResult,
    SchedulerKind, ServeConfig, ServiceConfig, ServiceStats, TenantConfig, TenantStats,
    WavefrontService, WireAllocRequest, WireClient, WireCompiler, WireDagNode, WireDagRequest,
    WireDagResponse, WireHandle, WireLoopRequest, WireLoopResponse, WireProgram, WireRequest,
    WireResponse, WireServer, WireTopology, DEFAULT_TENANT, PROTOCOL_VERSION,
};
pub use session::{ProgramSession, RunOutcome, Session, Session2D};
pub use telemetry::{
    ascii_timeline, chrome_trace, BlockEvent, CacheEvent, CausalGraph, ChromeTraceBuilder,
    Collector, CriticalPath, EdgeKind, EngineKind, ExecutionReport, GraphEdge, GraphNode,
    Histogram, JsonError, JsonObj, JsonValue, MessageEvent, NoopCollector, PhaseBreakdown,
    Prediction, ProcTimeline, RunMeta, Segment, SegmentKind, TimeUnit, TraceAnalysis,
    TraceCollector, TraceHistograms, WaitEvent,
};
pub use tune::{calibrate_host, calibrate_with, CalibrationConfig};
