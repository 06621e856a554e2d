//! Execution telemetry: one [`Collector`] trait observed by every engine.
//!
//! The paper's argument is quantitative — Equation (1) block sizes,
//! fill/drain pipeline overhead, communication-vs-computation balance —
//! so every runtime in this crate (the machine-cost simulator, the
//! dependency-order sequential executor, and the threaded runtime,
//! each over a processor line or mesh) reports
//! the same event stream: per-block compute windows, boundary messages with
//! element counts, and receive stalls. A [`NoopCollector`] is the
//! default and costs nothing: engines check [`Collector::enabled`] once
//! and skip all instrumentation when it is `false`.
//!
//! [`report::TraceCollector`] turns the stream into an
//! [`report::ExecutionReport`] with per-processor timelines and the
//! fill / steady-state / drain phase decomposition of the pipeline
//! (Figure 4(b) of the paper), serializable to JSON for `wlc trace`.
//!
//! On top of the raw stream sit the analysis modules: [`graph`] rebuilds
//! the causal DAG the schedule executed, [`critical`] extracts the
//! critical path through it (exactly equal to the makespan in the
//! simulator), [`histogram`] buckets per-event latencies, [`export`]
//! renders Chrome trace-event JSON for Perfetto and an ASCII Gantt
//! chart for `wlc timeline`, and [`json`] is the dependency-free JSON
//! reader the validators and `wlc top` share.

mod critical;
mod export;
mod graph;
mod histogram;
pub(crate) mod json;
pub(crate) mod report;

pub use critical::{CriticalPath, Segment, SegmentKind, TraceAnalysis};
pub use export::{ascii_timeline, chrome_trace, ChromeTraceBuilder};
pub use graph::{CausalGraph, EdgeKind, GraphEdge, GraphNode};
pub use histogram::{Histogram, TraceHistograms};
pub use json::{JsonError, JsonObj, JsonValue};
pub use report::{ExecutionReport, PhaseBreakdown, ProcTimeline, TraceCollector};

/// Which runtime executed the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Discrete-event cost simulation on the machine model (`exec_sim`).
    Sim,
    /// The threads engine's schedule on the calling thread alone: every
    /// active cell in wave order, no waits and no messages
    /// (`exec_threads`).
    Seq,
    /// Real OS threads running their tiles in place on the shared
    /// store, boundaries handed over by tile-progress counters
    /// (`exec_threads`).
    Threads,
}

impl EngineKind {
    /// Stable lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Seq => "seq",
            EngineKind::Threads => "threads",
        }
    }

    /// Parse a CLI spelling of an engine name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" | "simulate" | "simulator" => Some(EngineKind::Sim),
            "seq" | "sequential" => Some(EngineKind::Seq),
            "threads" | "threaded" => Some(EngineKind::Threads),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The unit of every time stamp in a run's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeUnit {
    /// Normalized element-time units of the machine cost model (the
    /// simulator's clock).
    ModelUnits,
    /// Wall-clock seconds (the sequential and threaded engines).
    Seconds,
}

impl TimeUnit {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TimeUnit::ModelUnits => "model_units",
            TimeUnit::Seconds => "seconds",
        }
    }
}

/// Traffic a plan predicts before execution: what the engines should
/// observe if the implementation matches the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prediction {
    /// Boundary messages (one per tile per adjacent active pair).
    pub messages: usize,
    /// Total `f64` elements carried by those messages.
    pub elements: usize,
    /// `elements * 8` — the wire bytes of the payload.
    pub bytes: usize,
}

/// Static facts about a run, reported once at [`Collector::begin`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// The engine producing the stream.
    pub engine: EngineKind,
    /// Total processors in the plan's distribution.
    pub procs: usize,
    /// Processors that own data, in wave order (most upstream first).
    /// Event `proc` fields refer to these ids.
    pub active: Vec<usize>,
    /// Number of tiles (pipeline blocks) per processor.
    pub tiles: usize,
    /// The resolved block size `b`.
    pub block: usize,
    /// `true` for the pipelined schedule of Figure 4(b), `false` for the
    /// naive full-portion schedule of Figure 4(a).
    pub pipelined: bool,
    /// Machine preset name (e.g. `"Cray T3E"`).
    pub machine: String,
    /// Unit of all time stamps in this run.
    pub time_unit: TimeUnit,
    /// Plan-predicted boundary traffic.
    pub predicted: Prediction,
}

/// One block (tile) of computation on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockEvent {
    /// Owning processor id.
    pub proc: usize,
    /// Tile index in pipeline order.
    pub tile: usize,
    /// Compute start (receives excluded).
    pub start: f64,
    /// Compute end.
    pub end: f64,
    /// Elements computed in this block.
    pub elems: usize,
}

/// One boundary message between adjacent processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageEvent {
    /// Sending processor id.
    pub from: usize,
    /// Receiving processor id.
    pub to: usize,
    /// Tile index the payload belongs to.
    pub tile: usize,
    /// Elements in the payload.
    pub elems: usize,
    /// Time the payload left the sender.
    pub sent_at: f64,
    /// Time the receiver finished consuming it.
    pub recv_at: f64,
}

/// A window in which a processor sat idle waiting for upstream data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitEvent {
    /// The stalled processor id.
    pub proc: usize,
    /// Stall start.
    pub start: f64,
    /// Stall end.
    pub end: f64,
}

/// One compiled-plan cache lookup by the execution core (reported by
/// [`crate::service::WavefrontService`] jobs; one-shot `Session` runs
/// bypass the cache and emit none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEvent {
    /// Whether the job's fingerprint hit a cached plan.
    pub hit: bool,
    /// FNV-1a digest of the fingerprint string (a compact label; the
    /// cache itself compares full keys).
    pub key: u64,
    /// Plans resident after this lookup.
    pub entries: usize,
    /// Cumulative hits on the owning core, this lookup included.
    pub hits: u64,
    /// Cumulative misses on the owning core, this lookup included.
    pub misses: u64,
}

impl CacheEvent {
    /// Serialize as a self-contained JSON object — the one formatting
    /// path for cache lookups (used by [`report::ExecutionReport`] and
    /// the service stats exports).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hit\":{},\"key\":\"{:016x}\",\"entries\":{},\"hits\":{},\"misses\":{}}}",
            self.hit, self.key, self.entries, self.hits, self.misses
        )
    }
}

/// Receives the event stream of one plan execution.
///
/// All methods default to no-ops; engines call [`Collector::enabled`]
/// once up front and skip instrumentation entirely when it returns
/// `false`, so the default [`NoopCollector`] is zero-cost (in
/// particular, it adds no messages and no timers to the threaded
/// engine's workers).
pub trait Collector {
    /// Whether the engine should emit events at all.
    fn enabled(&self) -> bool {
        true
    }
    /// Called once per run with its static facts, before any of its
    /// events (the threaded engine calls it, and replays its workers'
    /// buffered events, once the run's last cell has ended).
    fn begin(&mut self, _meta: &RunMeta) {}
    /// A block of computation completed.
    fn block(&mut self, _ev: BlockEvent) {}
    /// A boundary message was delivered.
    fn message(&mut self, _ev: MessageEvent) {}
    /// A processor stalled waiting for data.
    fn wait(&mut self, _ev: WaitEvent) {}
    /// The execution core looked the job up in its compiled-plan cache.
    /// Reported after [`Collector::end`] (the lookup happens before the
    /// engine runs, but the event is emitted once the run's stream is
    /// complete).
    fn cache(&mut self, _ev: CacheEvent) {}
    /// Called once after execution with the run's makespan.
    fn end(&mut self, _makespan: f64) {}
}

/// The default collector: disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopCollector.enabled());
    }

    #[test]
    fn engine_kind_round_trips_through_parse() {
        for k in [EngineKind::Sim, EngineKind::Seq, EngineKind::Threads] {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
        }
        assert_eq!(EngineKind::parse("gpu"), None);
    }
}
