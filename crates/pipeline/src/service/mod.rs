//! A long-lived, multi-tenant wavefront execution service.
//!
//! One-shot [`crate::Session`] runs pay the full setup bill every time:
//! plan construction, kernel lowering and binding, and an OS thread
//! spawn per processor. [`WavefrontService`] amortizes all three across
//! jobs:
//!
//! * a persistent [`pool::WorkerPool`] keeps engine threads parked on a
//!   condvar between jobs instead of re-spawning them;
//! * a fingerprint-keyed LRU [`cache::PlanCache`] holds compiled
//!   [`crate::plan::WavefrontPlan`]s together with their lowered kernel
//!   preparation, so warm jobs skip planning and kernel compilation
//!   entirely;
//! * every job belongs to a **tenant** with its own bounded queue,
//!   admission limits ([`TenantConfig`]), and fair-share weight. The
//!   dispatcher drains tenant queues by stride scheduling, so dispatch
//!   slots track weights whatever the offered-load imbalance;
//! * [`WavefrontService::submit`] applies backpressure (blocks, never
//!   drops) while [`WavefrontService::try_submit`] returns a typed
//!   [`PipelineError::AdmissionDenied`] instead — the non-blocking door
//!   the wire server uses so a full tenant can never stall the
//!   listener.
//!
//! ```ignore
//! let service = WavefrontService::<2>::new();
//! service.register_tenant("acme", TenantConfig { weight: 2.0, ..Default::default() });
//! let handle = service.try_submit(
//!     JobSpec::builder(program.clone(), nest.clone())
//!         .line(8)
//!         .tenant("acme")
//!         .store(store)
//!         .build()?,
//! );
//! let out = handle.wait()?;
//! ```
//!
//! Jobs of one tenant run in priority-then-submission order; between
//! tenants the stride scheduler arbitrates. `Session` remains the
//! one-shot front door, but it executes through the same [`ExecCore`]
//! (with caching disabled), so every engine, kernel binding, and
//! telemetry path in the crate is exercised by one execution core.
//! Remote callers reach the same queues through the wire protocol in
//! [`wire`]. See `docs/SERVICE.md` for the lifecycle, fingerprinting,
//! admission, and fair-share details.

mod admission;
pub(crate) mod cache;
mod dag;
pub(crate) mod fingerprint;
mod handle;
mod job;
// `loop` is a keyword, so the module lives in `loop.rs` under the name
// `looping`.
#[path = "loop.rs"]
mod looping;
mod metrics;
mod output;
pub(crate) mod pool;
mod scheduler;
mod tenant;
mod wire;

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::sync::Condvar;
use std::thread::JoinHandle;
use std::time::Instant;

use wavefront_core::array::DenseArray;
use wavefront_core::exec::CompiledNest;
use wavefront_core::program::{Program, Store};
use wavefront_core::region::Region;

use crate::error::{AdmissionReason, PipelineError};
use crate::exec_sim::simulate_plan_collected;
use crate::exec_threads::{execute_threaded, launch_threaded, prepare, Done, NestPrep};
use crate::plan::WavefrontPlan;
use crate::session::{RunOutcome, SessionConfig};
use crate::telemetry::json::JsonObj;
use crate::telemetry::report::jstr;
use crate::telemetry::{
    CacheEvent, Collector, EngineKind, NoopCollector, TimeUnit, TraceCollector,
};

pub use admission::TenantConfig;
pub use dag::{
    DagHandle, DagOutcome, DagSpec, DagSpecBuilder, DagStats, DispatchDecision, NodeRef,
    NodeResult,
};
pub use handle::ArrayHandle;
pub use job::{JobHandle, JobOutcome, JobSpec, JobSpecBuilder, JobTopology, JobTrace};
pub use looping::{
    LoopChunkStats, LoopHandle, LoopOutcome, LoopSpec, LoopSpecBuilder, LoopStats, LoopView,
};
pub use metrics::{Counter, Gauge, HistogramHandle, Metrics};
pub use output::{JobOutput, JobOutputs};
pub use scheduler::{NodeId, SchedulerKind};
pub use tenant::TenantStats;
pub use wire::{
    ServeConfig, WireAllocRequest, WireClient, WireCompiler, WireDagNode, WireDagRequest,
    WireDagResponse, WireHandle, WireLoopRequest, WireLoopResponse, WireProgram, WireRequest,
    WireResponse, WireServer, WireTopology, PROTOCOL_VERSION,
};

use cache::PlanCache;
use handle::HandleTable;
use job::{JobTicket, LoopExec, Ticket};
use pool::WorkerPool;
use tenant::{pick_min_pass, QueuedJob, TenantQueue};

/// Name of the implicit tenant that absorbs jobs submitted without a
/// [`JobSpecBuilder::tenant`] attribution.
pub const DEFAULT_TENANT: &str = "default";

/// Where the execution core gets the compiled nest from: a plain borrow
/// (the `Session` front doors) or an already-shared `Arc` (service jobs,
/// which avoids a deep clone on cache misses).
pub(crate) enum NestSource<'a, const R: usize> {
    /// Borrowed nest; cloned into an `Arc` only when needed.
    Borrowed(&'a CompiledNest<R>),
    /// Nest already behind an `Arc`; cloning is a refcount bump.
    Shared(&'a Arc<CompiledNest<R>>),
}

impl<const R: usize> NestSource<'_, R> {
    fn get(&self) -> &CompiledNest<R> {
        match self {
            NestSource::Borrowed(n) => n,
            NestSource::Shared(n) => n,
        }
    }

    fn to_arc(&self) -> Arc<CompiledNest<R>> {
        match self {
            NestSource::Borrowed(n) => Arc::new((*n).clone()),
            NestSource::Shared(n) => Arc::clone(n),
        }
    }
}

/// One cached compilation: the nest it was compiled against, the
/// model's plan (what the simulator runs), and the lazily-built kernel
/// preparation with the plan the executing engines run (simulator jobs
/// never force the kernel lowering).
struct Entry<const R: usize> {
    nest: Arc<CompiledNest<R>>,
    plan: Arc<WavefrontPlan<R>>,
    prep: OnceLock<Arc<NestPrep<R>>>,
}

impl<const R: usize> Entry<R> {
    /// The kernel preparation, lowered on first use. The session config
    /// and `program`'s array declarations are part of the cache
    /// fingerprint, so they are constant per entry — a cached plan
    /// compiled at one tier never executes at another.
    fn prep(&self, cfg: &SessionConfig, program: &Program<R>) -> Arc<NestPrep<R>> {
        Arc::clone(self.prep.get_or_init(|| {
            Arc::new(prepare(&self.nest, &self.plan, cfg, &program.shapes()))
        }))
    }
}

/// The one execution core every run in the crate goes through: a
/// persistent worker pool plus an optional compiled-plan cache. The
/// service owns a caching core; each `Session::run` builds a throwaway
/// core with caching disabled (capacity 0).
pub(crate) struct ExecCore {
    pool: WorkerPool,
    cache: Mutex<PlanCache>,
    caching: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The owning service's metrics registry (a disabled no-op registry
    /// for `Session` cores, so the one-shot path pays nothing).
    pub(crate) metrics: Arc<Metrics>,
}

impl ExecCore {
    /// A core whose plan cache holds `cache_capacity` entries
    /// (0 disables caching and its telemetry entirely). Metrics are off;
    /// services use [`ExecCore::with_metrics`].
    pub(crate) fn new(cache_capacity: usize) -> Self {
        Self::with_metrics(cache_capacity, Arc::new(Metrics::new(false)))
    }

    /// A core wired to an existing metrics registry.
    pub(crate) fn with_metrics(cache_capacity: usize, metrics: Arc<Metrics>) -> Self {
        ExecCore {
            pool: WorkerPool::new(),
            cache: Mutex::new(PlanCache::new(cache_capacity)),
            caching: cache_capacity > 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
        }
    }

    /// Count one executing-engine run's kernel lowering: which tier the
    /// nest ran at, and — when a lowering refused — a per-reason
    /// fallback breakdown. No-ops when metrics are disabled (`Session`
    /// cores), so the one-shot path pays nothing.
    fn count_kernel<const R: usize>(&self, runner: &wavefront_core::kernel::NestRunner<R>) {
        if !self.metrics.enabled() {
            return;
        }
        self.metrics
            .counter(&format!(
                "wavefront_kernel_runs_total{{tier=\"{}\"}}",
                runner.tier().name()
            ))
            .inc();
        if let Some(reason) = runner.fallback() {
            self.metrics
                .counter(&format!(
                    "wavefront_kernel_fallback_runs_total{{reason=\"{}\"}}",
                    metrics::fallback_label(reason)
                ))
                .inc();
        }
    }

    fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Stamp the shared hit/miss counters for one lookup and build its
    /// telemetry event.
    fn cache_event(&self, hit: bool, key: &str) -> CacheEvent {
        let (hits, misses) = if hit {
            (
                self.hits.fetch_add(1, Ordering::Relaxed) + 1,
                self.misses.load(Ordering::Relaxed),
            )
        } else {
            (
                self.hits.load(Ordering::Relaxed),
                self.misses.fetch_add(1, Ordering::Relaxed) + 1,
            )
        };
        CacheEvent {
            hit,
            key: fingerprint::fnv1a(key.as_bytes()),
            entries: self.cache.lock().unwrap().len(),
            hits,
            misses,
        }
    }

    /// Resolve the compiled entry for a job: cache lookup when caching
    /// is on, fresh build otherwise (or on miss).
    fn entry<const R: usize>(
        &self,
        program: &Program<R>,
        nest: &NestSource<'_, R>,
        topology: JobTopology,
        cfg: &SessionConfig,
        hsig: &str,
    ) -> Result<(Arc<Entry<R>>, Option<CacheEvent>), PipelineError> {
        let build = |nest: Arc<CompiledNest<R>>| -> Result<Arc<Entry<R>>, PipelineError> {
            let plan = Arc::new(WavefrontPlan::build(
                &nest,
                topology,
                &cfg.block,
                &cfg.machine,
            )?);
            Ok(Arc::new(Entry {
                nest,
                plan,
                prep: OnceLock::new(),
            }))
        };
        if !self.caching {
            return Ok((build(nest.to_arc())?, None));
        }
        let key = fingerprint::plan_key(program, nest.get(), topology, cfg, hsig);
        let cached = self
            .cache
            .lock()
            .unwrap()
            .get(&key)
            .and_then(|v| v.downcast::<Entry<R>>().ok());
        match cached {
            Some(entry) => {
                let ev = self.cache_event(true, &key);
                Ok((entry, Some(ev)))
            }
            None => {
                let entry = build(nest.to_arc())?;
                self.cache.lock().unwrap().insert(
                    key.clone(),
                    Arc::clone(&entry) as Arc<dyn Any + Send + Sync>,
                );
                let ev = self.cache_event(false, &key);
                Ok((entry, Some(ev)))
            }
        }
    }

    /// Look the job's plan up (or build it) and, for the engines that
    /// execute data, lower its kernel and fit the plan for `sweeps`
    /// pipelined sweeps: everything a run needs but the store. An
    /// executing engine without a store is refused here, after the
    /// lookup and before the lowering.
    #[allow(clippy::too_many_arguments)]
    fn prepare<const R: usize>(
        &self,
        program: &Program<R>,
        nest: &NestSource<'_, R>,
        topology: JobTopology,
        cfg: &SessionConfig,
        hsig: &str,
        kind: EngineKind,
        has_store: bool,
        sweeps: usize,
    ) -> Result<Prepared<R>, PipelineError> {
        let prep_start = Instant::now();
        let (entry, cache_ev) = self.entry(program, nest, topology, cfg, hsig)?;
        // The executing engines need the data and the lowered kernel,
        // and run the plan fitted to it; the simulator runs the model's.
        let prep = if kind == EngineKind::Sim {
            None
        } else if !has_store {
            return Err(PipelineError::MissingStore);
        } else {
            let mut prep = entry.prep(cfg, program);
            if sweeps > 1 {
                prep = prep.chunk(&entry.plan, cfg, &program.shapes(), sweeps);
            }
            self.count_kernel(&prep.runner);
            Some(prep)
        };
        let plan = prep.as_ref().map_or(&entry.plan, |p| &p.plan);
        let outcome = RunOutcome {
            engine: kind,
            makespan: 0.0,
            time_unit: match prep {
                Some(_) => TimeUnit::Seconds,
                None => TimeUnit::ModelUnits,
            },
            messages: 0,
            block: plan.block,
            tiles: plan.tiles.len(),
            pipelined: plan.is_pipelined(),
            prep_seconds: prep_start.elapsed().as_secs_f64(),
            run_seconds: 0.0,
            kernel_tier: prep.as_ref().map(|p| p.runner.tier()),
            kernel_fallback: prep.as_ref().and_then(|p| p.runner.fallback()),
        };
        Ok(Prepared {
            entry,
            cache_ev,
            prep,
            outcome,
        })
    }

    /// Plan (or fetch) and execute one run on `kind`, joined, on the
    /// calling thread: the [`crate::Session`] front door. (Service jobs
    /// start through [`start_job`] instead.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<const R: usize>(
        &self,
        program: &Program<R>,
        nest: NestSource<'_, R>,
        topology: JobTopology,
        cfg: &SessionConfig,
        store: Option<&mut Store<R>>,
        collector: &mut dyn Collector,
        kind: EngineKind,
    ) -> Result<RunOutcome, PipelineError> {
        let prepared = self.prepare(program, &nest, topology, cfg, "", kind, store.is_some(), 1)?;
        Ok(prepared.run_joined(&self.pool, cfg, store, collector))
    }
}

/// What [`ExecCore::prepare`] resolved for one run.
struct Prepared<const R: usize> {
    entry: Arc<Entry<R>>,
    cache_ev: Option<CacheEvent>,
    /// The lowered kernel; `None` on the simulator.
    prep: Option<Arc<NestPrep<R>>>,
    /// The plan's facts, the kernel tier and `prep_seconds`; the engine
    /// fills in the rest.
    outcome: RunOutcome,
}

impl<const R: usize> Prepared<R> {
    /// Run the prepared plan, joined: the simulator, or the executing
    /// engine launched and waited for ([`execute_threaded`]).
    fn run_joined(
        self,
        pool: &WorkerPool,
        cfg: &SessionConfig,
        store: Option<&mut Store<R>>,
        collector: &mut dyn Collector,
    ) -> RunOutcome {
        let Prepared {
            entry,
            cache_ev,
            prep,
            mut outcome,
        } = self;
        let run_start = Instant::now();
        (outcome.makespan, outcome.messages) = match store.zip(prep) {
            None => {
                let r = simulate_plan_collected(&entry.plan, &cfg.machine, collector);
                (r.makespan, r.messages)
            }
            Some((store, prep)) => {
                let (nest, kind) = (&entry.nest, outcome.engine);
                let r = execute_threaded(pool, nest, &prep, store, 1, &[], true, kind, collector);
                (r.elapsed.as_secs_f64(), r.messages)
            }
        };
        finish_outcome(outcome, run_start, cache_ev, collector)
    }
}

/// Close a run's outcome: its run time, and the cache event, reported
/// *after* the engine's stream because collectors reset their buffers
/// at `begin`.
fn finish_outcome(
    mut outcome: RunOutcome,
    run_start: Instant,
    cache_ev: Option<CacheEvent>,
    collector: &mut dyn Collector,
) -> RunOutcome {
    outcome.run_seconds = run_start.elapsed().as_secs_f64();
    if let Some(ev) = cache_ev {
        if collector.enabled() {
            collector.cache(ev);
        }
    }
    outcome
}

/// Cross-iteration overlap of one fused chunk: per iteration, the global
/// span is [min start, max end] across cells; overlap is how far each
/// iteration's global start precedes its predecessor's global end. The
/// barrier ablation yields exactly zero (every span starts after the
/// previous iteration's last cell finished).
fn overlap_stats(lx: &LoopExec, spans: &[Vec<(f64, f64)>]) -> LoopChunkStats {
    let mut overlap = 0.0f64;
    let mut busy = 0.0f64;
    let mut prev_end: Option<f64> = None;
    for k in 0..lx.iters {
        let mut s = f64::INFINITY;
        let mut e = f64::NEG_INFINITY;
        for cell_spans in spans {
            if let Some(&(a, b)) = cell_spans.get(k) {
                s = s.min(a);
                e = e.max(b);
            }
        }
        if !s.is_finite() || !e.is_finite() {
            continue;
        }
        busy += e - s;
        if let Some(pe) = prev_end {
            overlap += (pe - s).max(0.0);
        }
        prev_end = Some(e);
    }
    LoopChunkStats {
        iters: lx.iters,
        overlap_seconds: overlap,
        busy_seconds: busy,
        overlap_efficiency: if busy > 0.0 { overlap / busy } else { 0.0 },
        pipelined: lx.pipelined,
    }
}

/// Sizing knobs of a [`WavefrontService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Jobs the *default tenant's* queue holds before
    /// [`WavefrontService::submit`] blocks (backpressure; never drops).
    /// Clamped to at least 1. Registered tenants size their own queues
    /// via [`TenantConfig::queue_capacity`].
    pub queue_capacity: usize,
    /// Compiled plans the LRU cache retains. 0 disables caching.
    pub cache_capacity: usize,
    /// Worker threads to pre-spawn at construction; the pool still grows
    /// on demand to the widest job seen.
    pub workers: usize,
    /// Admission template for tenants that are auto-registered on first
    /// submission (and for the default tenant's weight / in-flight
    /// limit).
    pub default_tenant: TenantConfig,
    /// Whether a submission naming an unregistered tenant creates it
    /// from `default_tenant` (`true`, the default) or is denied with
    /// [`AdmissionReason::UnknownTenant`].
    pub auto_register: bool,
    /// Whether the [`Metrics`] registry records (counters, per-stage
    /// latency histograms, the recent-trace ring). Off, every handle is
    /// a no-op and jobs skip all registry work — `perfbench` reports
    /// the difference as `pipeline.service.metrics_overhead_ratio`.
    pub metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            cache_capacity: 32,
            workers: 0,
            default_tenant: TenantConfig::default(),
            auto_register: true,
            metrics: true,
        }
    }
}

/// Counters describing a service's life so far; see
/// [`WavefrontService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted across all tenants.
    pub jobs_submitted: u64,
    /// Jobs whose handles resolved successfully.
    pub jobs_completed: u64,
    /// Jobs whose handles resolved to an error (execution failure or
    /// shutdown before dispatch).
    pub jobs_failed: u64,
    /// Jobs waiting in tenant queues right now.
    pub jobs_queued: u64,
    /// Jobs dispatched and executing right now.
    pub jobs_running: u64,
    /// Submissions denied by admission control (typed, never silent).
    pub jobs_rejected: u64,
    /// Submissions that found their tenant queue full and had to block.
    pub blocked_submits: u64,
    /// Compiled-plan cache hits.
    pub cache_hits: u64,
    /// Compiled-plan cache misses.
    pub cache_misses: u64,
    /// Plans currently resident in the cache.
    pub cache_entries: usize,
    /// Total OS threads the worker pool ever spawned — flat under steady
    /// traffic (`tests/service.rs::steady_jobs_spawn_no_new_threads`).
    pub pool_spawns: u64,
    /// Worker threads currently alive (parked or busy).
    pub pool_workers: usize,
    /// DAGs accepted by [`WavefrontService::submit_dag`].
    pub dags_submitted: u64,
}

impl ServiceStats {
    /// The balance invariant a coherent snapshot satisfies exactly:
    /// every admitted job is in exactly one of completed / failed /
    /// queued / running. [`WavefrontService::stats`] reads all four
    /// under the one queue lock, so this always holds.
    pub fn balanced(&self) -> bool {
        self.jobs_submitted
            == self.jobs_completed + self.jobs_failed + self.jobs_queued + self.jobs_running
    }

    /// Serialize as a self-contained JSON object (the one stats-export
    /// path shared by `wlc serve --stats` and the bench bins).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .uint("jobs_submitted", self.jobs_submitted)
            .uint("jobs_completed", self.jobs_completed)
            .uint("jobs_failed", self.jobs_failed)
            .uint("jobs_queued", self.jobs_queued)
            .uint("jobs_running", self.jobs_running)
            .uint("jobs_rejected", self.jobs_rejected)
            .uint("blocked_submits", self.blocked_submits)
            .uint("cache_hits", self.cache_hits)
            .uint("cache_misses", self.cache_misses)
            .uint("cache_entries", self.cache_entries as u64)
            .uint("pool_spawns", self.pool_spawns)
            .uint("pool_workers", self.pool_workers as u64)
            .uint("dags_submitted", self.dags_submitted)
            .finish()
    }
}

struct QueueState<const R: usize> {
    tenants: Vec<TenantQueue<R>>,
    by_name: HashMap<String, usize>,
    /// The stride scheduler's virtual time: the pass of the last
    /// dispatched queue. Newly busy queues re-base here.
    global_pass: f64,
    next_seq: u64,
    closed: bool,
    /// Rejections that never resolved to a tenant queue (unknown tenant
    /// with auto-registration off). Kept under the queue lock so the
    /// service-wide rejected total is part of the coherent snapshot.
    unknown_rejected: u64,
    /// Submissions that found their queue full and had to block.
    blocked_submits: u64,
}

impl<const R: usize> QueueState<R> {
    /// Index of `name`'s queue, creating it from the template when
    /// auto-registration allows.
    fn resolve(
        &mut self,
        name: &str,
        template: &TenantConfig,
        auto_register: bool,
    ) -> Option<usize> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(i);
        }
        if !auto_register {
            return None;
        }
        Some(self.insert(name.to_string(), *template))
    }

    fn insert(&mut self, name: String, cfg: TenantConfig) -> usize {
        let i = self.tenants.len();
        self.tenants
            .push(TenantQueue::new(name.clone(), cfg, self.global_pass));
        self.by_name.insert(name, i);
        i
    }
}

/// Completed-DAG stats retained for [`WavefrontService::dag_stats`]
/// (a bounded ring; oldest entries fall off).
const DAG_STATS_CAP: usize = 32;

/// Completed-job traces retained for [`WavefrontService::recent_traces`]
/// (a bounded ring; oldest entries fall off).
const TRACE_CAP: usize = 256;

pub(crate) struct Shared<const R: usize> {
    queue: Mutex<QueueState<R>>,
    not_full: Condvar,
    not_empty: Condvar,
    default_tenant: TenantConfig,
    auto_register: bool,
    pub(crate) core: ExecCore,
    dags_submitted: AtomicU64,
    dag_stats: Mutex<VecDeque<DagStats>>,
    /// The service's birth instant; span start times are reported
    /// relative to it so traces from one service share a timeline.
    epoch: Instant,
    /// Lifecycle traces of recently completed jobs (recorded only while
    /// metrics are enabled).
    recent_traces: Mutex<VecDeque<JobTrace>>,
    /// The resident-array table (see [`handle::HandleTable`]): buffers
    /// jobs bind by [`ArrayHandle`] and read/write in place.
    pub(crate) handles: Mutex<HandleTable<R>>,
    /// DAG and loop runner threads not yet joined: [`spawn_runner`]
    /// reaps the finished ones, `Drop` waits for the rest.
    runners: Mutex<Vec<JoinHandle<()>>>,
    /// Per tenant, its stage histograms (see [`StageHists`]).
    stage_hists: Mutex<HashMap<String, StageHists>>,
}

impl<const R: usize> Shared<R> {
    /// Allocate the next DAG id (0-based, service lifetime).
    pub(crate) fn next_dag_id(&self) -> u64 {
        self.dags_submitted.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one completed DAG's stats into the bounded ring (and the
    /// registry's DAG data-movement counters).
    pub(crate) fn record_dag_stats(&self, stats: DagStats) {
        if self.core.metrics.enabled() {
            let m = &self.core.metrics;
            m.counter("wavefront_dag_bytes_shared_total").add(stats.bytes_shared);
            m.counter("wavefront_dag_cow_bytes_copied_total")
                .add(stats.cow_bytes_copied);
            m.counter("wavefront_dag_nodes_failed_total").add(stats.failed as u64);
        }
        let mut ds = self.dag_stats.lock().unwrap();
        if ds.len() == DAG_STATS_CAP {
            ds.pop_front();
        }
        ds.push_back(stats);
    }

    /// Record one completed job's lifecycle trace into the bounded ring.
    fn record_trace(&self, trace: JobTrace) {
        let mut ts = self.recent_traces.lock().unwrap();
        if ts.len() == TRACE_CAP {
            ts.pop_front();
        }
        ts.push_back(trace);
    }
}

/// A persistent wavefront execution service: submit jobs, reuse threads
/// and compiled plans, wait on handles. See the module docs.
pub struct WavefrontService<const R: usize> {
    shared: Arc<Shared<R>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<const R: usize> Default for WavefrontService<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const R: usize> WavefrontService<R> {
    /// A service with the default [`ServiceConfig`].
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit sizing.
    pub fn with_config(cfg: ServiceConfig) -> Self {
        let metrics = Arc::new(Metrics::new(cfg.metrics));
        let core = ExecCore::with_metrics(cfg.cache_capacity, metrics);
        core.pool().ensure_workers(cfg.workers);
        let mut state = QueueState {
            tenants: Vec::new(),
            by_name: HashMap::new(),
            global_pass: 0.0,
            next_seq: 0,
            closed: false,
            unknown_rejected: 0,
            blocked_submits: 0,
        };
        // The default tenant always exists at index 0; its queue bound
        // is the service-level `queue_capacity` (the pre-tenant
        // backpressure knob), its weight and in-flight limit come from
        // the template.
        state.insert(
            DEFAULT_TENANT.to_string(),
            TenantConfig {
                queue_capacity: cfg.queue_capacity.max(1),
                ..cfg.default_tenant
            },
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(state),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            default_tenant: cfg.default_tenant,
            auto_register: cfg.auto_register,
            core,
            dags_submitted: AtomicU64::new(0),
            dag_stats: Mutex::new(VecDeque::new()),
            epoch: Instant::now(),
            recent_traces: Mutex::new(VecDeque::new()),
            handles: Mutex::new(HandleTable::new()),
            runners: Mutex::new(Vec::new()),
            stage_hists: Mutex::new(HashMap::new()),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let dispatch = move || dispatcher_loop(&shared);
            // Tests reach the engine's tile hook through the dispatcher.
            #[cfg(test)]
            let dispatch = crate::exec_threads::test_hooks::carry(dispatch);
            std::thread::spawn(dispatch)
        };
        WavefrontService {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Register (or re-configure) a tenant before traffic arrives.
    /// Unregistered tenants are created from
    /// [`ServiceConfig::default_tenant`] on first submission when
    /// auto-registration is on.
    pub fn register_tenant(&self, name: impl Into<String>, cfg: TenantConfig) {
        let name = name.into();
        let mut q = self.shared.queue.lock().unwrap();
        match q.by_name.get(&name) {
            Some(&i) => q.tenants[i].cfg = cfg,
            None => {
                q.insert(name, cfg);
            }
        }
    }

    /// Enqueue one job onto its tenant's queue. Blocks while the queue
    /// is at capacity or the tenant's in-flight limit is reached
    /// (backpressure — submissions are never dropped); returns a handle
    /// to wait on. The only immediate failure is an unknown tenant with
    /// auto-registration off, which resolves the handle to
    /// [`PipelineError::AdmissionDenied`] rather than blocking forever.
    /// For the non-blocking door, see [`WavefrontService::try_submit`].
    pub fn submit(&self, spec: JobSpec<R>) -> JobHandle<R> {
        enqueue(&self.shared, spec, true)
    }

    /// Enqueue one job without ever blocking: a full queue, a reached
    /// in-flight limit, or an unknown tenant resolves the returned
    /// handle immediately to [`PipelineError::AdmissionDenied`] carrying
    /// the tenant and the typed [`AdmissionReason`] — the same
    /// `JobHandle` surface as [`WavefrontService::submit`], so callers
    /// handle rejection and execution failure through one `wait()`.
    /// This is the admission door the wire server uses.
    pub fn try_submit(&self, spec: JobSpec<R>) -> JobHandle<R> {
        enqueue(&self.shared, spec, false)
    }

    /// Submit several jobs, in order; blocks as [`WavefrontService::submit`]
    /// does when a queue fills mid-batch.
    pub fn submit_batch(&self, specs: impl IntoIterator<Item = JobSpec<R>>) -> Vec<JobHandle<R>> {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Submit a whole dependency graph (see [`DagSpec`]). Returns
    /// immediately; the graph's nodes flow through the ordinary tenant
    /// queues (admission and fair share apply per node) as their inputs
    /// resolve, ordered by the DAG's [`SchedulerKind`]. Wait on the
    /// returned [`DagHandle`] for the per-node outcomes and the
    /// [`DagStats`].
    pub fn submit_dag(&self, spec: DagSpec<R>) -> DagHandle<R> {
        dag::spawn_dag(&self.shared, spec)
    }

    /// Allocate a zero-filled resident array of `bounds` inside the
    /// service and return its [`ArrayHandle`]. Jobs bind it with
    /// [`JobSpecBuilder::input_handle`] /
    /// [`JobSpecBuilder::output_handle`] and read/write the buffer in
    /// place — an iteration loop over resident arrays does zero copying
    /// and zero allocation after warm-up. Free it with
    /// [`WavefrontService::free`].
    pub fn alloc(&self, bounds: Region<R>) -> ArrayHandle<R> {
        self.import(DenseArray::zeros(bounds))
    }

    /// Move an existing array into the service as a resident array (no
    /// copy — the buffer is adopted at its current refcount; hand over
    /// the only reference to keep in-place writes copy-free).
    pub fn import(&self, array: DenseArray<R>) -> ArrayHandle<R> {
        let h = self.shared.handles.lock().unwrap().insert(array);
        self.sync_resident_gauge();
        h
    }

    /// Move every array of `store` into the service, returning
    /// `(name, handle)` pairs in declaration order — the one-call way to
    /// make a whole program's working set resident before a
    /// [`WavefrontService::submit_loop`].
    pub fn import_store(
        &self,
        program: &Program<R>,
        mut store: Store<R>,
    ) -> Vec<(String, ArrayHandle<R>)> {
        let mut out = Vec::new();
        {
            let mut table = self.shared.handles.lock().unwrap();
            let arrays = store.arrays_mut();
            for id in 0..arrays.len() {
                let layout = arrays[id].layout();
                let arr = std::mem::replace(
                    &mut arrays[id],
                    DenseArray::with_layout(Region::empty(), layout, 0.0),
                );
                out.push((program.name_of(id), table.insert(arr)));
            }
        }
        self.sync_resident_gauge();
        out
    }

    /// Remove a resident array from the service and return its buffer.
    /// Fails typed while a job holding the handle is in flight
    /// ([`PipelineError::HandleConflict`]) or if the handle was already
    /// freed ([`PipelineError::UnknownHandle`]).
    pub fn free(&self, handle: &ArrayHandle<R>) -> Result<DenseArray<R>, PipelineError> {
        let r = self.shared.handles.lock().unwrap().free(handle.id());
        self.sync_resident_gauge();
        r
    }

    /// A read-only snapshot of a resident array (an `Arc` bump, not a
    /// copy). Fails while the handle is checked out by a job in flight.
    pub fn read(&self, handle: &ArrayHandle<R>) -> Result<DenseArray<R>, PipelineError> {
        self.shared.handles.lock().unwrap().snapshot(handle.id())
    }

    /// How many times the resident array behind `handle` has been
    /// republished by a put-back — the loop dispatcher's
    /// write-after-read fence, observable.
    pub fn handle_epoch(&self, handle: &ArrayHandle<R>) -> Result<u64, PipelineError> {
        self.shared.handles.lock().unwrap().epoch(handle.id())
    }

    /// Re-derive an [`ArrayHandle`] token from a raw id (the wire
    /// server's path from an `ALLOC` reply back to a token).
    pub fn lookup_handle(&self, id: u64) -> Result<ArrayHandle<R>, PipelineError> {
        self.shared.handles.lock().unwrap().lookup(id)
    }

    /// Bytes currently resident in the handle table (checked-out buffers
    /// included — they return at put-back).
    pub fn resident_bytes(&self) -> u64 {
        self.shared.handles.lock().unwrap().resident_bytes()
    }

    /// Total resident-array allocations/imports over the service's life
    /// — flat after warm-up in a well-formed time-stepping loop (the
    /// differential tests assert the delta is zero).
    pub fn handle_allocs(&self) -> u64 {
        self.shared.handles.lock().unwrap().allocs()
    }

    /// Run a time-stepping loop over resident arrays (see [`LoopSpec`]):
    /// the body job (or DAG) re-runs for `steps` iterations — or until
    /// the convergence callback fires — with the handle rotation map
    /// applied between steps. Eligible bodies (threads engine, line
    /// topology) run *fused*: many iterations inside one engine
    /// invocation, iteration k+1's fill starting on each worker the
    /// moment its block drained iteration k. Returns immediately; wait
    /// on the [`LoopHandle`].
    pub fn submit_loop(&self, spec: LoopSpec<R>) -> LoopHandle<R> {
        looping::spawn_loop(&self.shared, spec)
    }

    /// Refresh the `wavefront_resident_bytes` gauge after a table
    /// mutation (no-op while metrics are off).
    fn sync_resident_gauge(&self) {
        let m = &self.shared.core.metrics;
        if m.enabled() {
            m.gauge("wavefront_resident_bytes")
                .set(self.shared.handles.lock().unwrap().resident_bytes() as i64);
        }
    }

    /// Stats of recently completed DAGs, oldest first (a bounded ring —
    /// the last 32 DAGs are retained).
    pub fn dag_stats(&self) -> Vec<DagStats> {
        self.shared.dag_stats.lock().unwrap().iter().cloned().collect()
    }

    /// Current counters (queue, cache, pool). Cheap; safe to poll.
    ///
    /// The queue-side counters come from one pass under the queue lock,
    /// so the snapshot is coherent: [`ServiceStats::balanced`] holds for
    /// every call, however much traffic is in flight.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared;
        let (submitted, completed, failed, rejected, blocked, queued, running) = {
            let q = s.queue.lock().unwrap();
            let mut submitted = 0u64;
            let mut completed = 0u64;
            let mut failed = 0u64;
            let mut rejected = q.unknown_rejected;
            let mut queued = 0usize;
            let mut in_flight = 0usize;
            for t in &q.tenants {
                submitted += t.submitted;
                completed += t.completed;
                failed += t.failed;
                rejected += t.rejected;
                queued += t.jobs.len();
                in_flight += t.in_flight;
            }
            (
                submitted,
                completed,
                failed,
                rejected,
                q.blocked_submits,
                queued as u64,
                (in_flight - queued) as u64,
            )
        };
        ServiceStats {
            jobs_submitted: submitted,
            jobs_completed: completed,
            jobs_failed: failed,
            jobs_queued: queued,
            jobs_running: running,
            jobs_rejected: rejected,
            blocked_submits: blocked,
            cache_hits: s.core.hits.load(Ordering::Relaxed),
            cache_misses: s.core.misses.load(Ordering::Relaxed),
            cache_entries: s.core.cache.lock().unwrap().len(),
            pool_spawns: s.core.pool().spawn_count(),
            pool_workers: s.core.pool().worker_count(),
            dags_submitted: s.dags_submitted.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant counters, in registration order (the default tenant
    /// first). Cheap; safe to poll.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let q = self.shared.queue.lock().unwrap();
        q.tenants.iter().map(|t| t.stats()).collect()
    }

    /// The whole stats surface as one JSON object:
    /// `{"service": {..}, "tenants": [..], "dags": [..]}` — what
    /// `wlc serve --stats` prints and the wire `STATS` frame carries.
    pub fn stats_json(&self) -> String {
        let tenants: Vec<String> = self.tenant_stats().iter().map(|t| t.to_json()).collect();
        let dags: Vec<String> = self.dag_stats().iter().map(|d| d.to_json()).collect();
        JsonObj::new()
            .raw("service", &self.stats().to_json())
            .arr("tenants", tenants)
            .arr("dags", dags)
            .finish()
    }

    /// The service's metrics registry (counters, gauges, per-stage
    /// latency histograms). Disabled — every handle a no-op — when
    /// [`ServiceConfig::metrics`] is off.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.core.metrics)
    }

    /// Lifecycle traces of recently completed jobs, oldest first (a
    /// bounded ring — the last 256 jobs are retained). Empty
    /// while metrics are disabled.
    pub fn recent_traces(&self) -> Vec<JobTrace> {
        self.shared.recent_traces.lock().unwrap().iter().cloned().collect()
    }

    /// Refresh the registry's snapshot-style series (service and tenant
    /// counters, queue-depth gauges) from one coherent [`stats`] read.
    /// Called by the exporters below; per-job series (histograms, reject
    /// and fallback counters) are recorded live and need no sync.
    ///
    /// [`stats`]: WavefrontService::stats
    fn sync_metrics(&self) {
        let m = self.metrics();
        if !m.enabled() {
            return;
        }
        let s = self.stats();
        m.set_counter("wavefront_jobs_submitted_total", s.jobs_submitted);
        m.set_counter("wavefront_jobs_completed_total", s.jobs_completed);
        m.set_counter("wavefront_jobs_failed_total", s.jobs_failed);
        m.set_counter("wavefront_jobs_rejected_total", s.jobs_rejected);
        m.set_counter("wavefront_blocked_submits_total", s.blocked_submits);
        m.set_counter("wavefront_cache_hits_total", s.cache_hits);
        m.set_counter("wavefront_cache_misses_total", s.cache_misses);
        m.set_counter("wavefront_pool_spawns_total", s.pool_spawns);
        m.set_counter("wavefront_dags_submitted_total", s.dags_submitted);
        m.gauge("wavefront_cache_entries").set(s.cache_entries as i64);
        m.gauge("wavefront_pool_workers").set(s.pool_workers as i64);
        m.gauge("wavefront_jobs_queued").set(s.jobs_queued as i64);
        m.gauge("wavefront_jobs_running").set(s.jobs_running as i64);
        for t in self.tenant_stats() {
            m.gauge(&format!("wavefront_queue_depth{{tenant={}}}", jstr(&t.tenant)))
                .set(t.queued as i64);
            m.gauge(&format!("wavefront_in_flight{{tenant={}}}", jstr(&t.tenant)))
                .set(t.in_flight as i64);
        }
    }

    /// Prometheus-style text exposition of the whole registry (the wire
    /// `METRICS` frame's first payload).
    pub fn metrics_prometheus(&self) -> String {
        self.sync_metrics();
        self.metrics().prometheus()
    }

    /// JSON dump of the whole registry (the wire `METRICS` frame's
    /// second payload).
    pub fn metrics_json(&self) -> String {
        self.sync_metrics();
        self.metrics().to_json()
    }
}

impl<const R: usize> Drop for WavefrontService<R> {
    /// Shut down: in-flight DAG and loop runners finish first (they
    /// keep submitting jobs), then already-queued jobs still run (their
    /// handles resolve), then the dispatcher and the worker pool exit.
    fn drop(&mut self) {
        let runners: Vec<JoinHandle<()>> =
            self.shared.runners.lock().unwrap().drain(..).collect();
        for r in runners {
            let _ = r.join();
        }
        self.shared.queue.lock().unwrap().closed = true;
        self.shared.not_empty.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// Start the runner thread of one DAG or loop: `drive` does the work on
/// `state`; `finish` turns the state and what `drive` returned — or the
/// typed failure, if it panicked — into the value the returned ticket
/// resolves to.
///
/// The one place a runner is spawned is also the one place runners are
/// reaped. A thread that has ended keeps its stack mapped until it is
/// joined, so every spawn first joins the runners that have ended: the
/// unjoined ones never outnumber those in flight, however many DAGs and
/// loops a service has run. `Drop` joins the rest.
pub(crate) fn spawn_runner<const R: usize, S, V, T>(
    shared: &Arc<Shared<R>>,
    mut state: S,
    drive: impl FnOnce(&Shared<R>, &mut S) -> V + Send + 'static,
    finish: impl FnOnce(&Shared<R>, S, Result<V, PipelineError>) -> T + Send + 'static,
) -> Arc<Ticket<T>>
where
    S: Send + 'static,
    T: Send + 'static,
{
    let ticket = Ticket::new();
    let runner = {
        let (shared, ticket) = (Arc::clone(shared), Arc::clone(&ticket));
        std::thread::spawn(move || {
            let ran = catch_unwind(AssertUnwindSafe(|| drive(&shared, &mut state)))
                .map_err(|payload| PipelineError::EnginePanic(panic_message(&payload)));
            ticket.fulfil(finish(&shared, state, ran));
        })
    };
    let ended: Vec<JoinHandle<()>> = {
        let mut runners = shared.runners.lock().unwrap();
        runners.push(runner);
        runners.extract_if(.., |r| r.is_finished()).collect()
    };
    for r in ended {
        let _ = r.join();
    }
    ticket
}

/// Bump the per-tenant, per-reason admission-reject counter. Rejects
/// are rare, so the registry's name lookup is fine here.
fn count_reject<const R: usize>(shared: &Shared<R>, tenant: &str, reason: &AdmissionReason) {
    if !shared.core.metrics.enabled() {
        return;
    }
    let reason = match reason {
        AdmissionReason::QueueFull { .. } => "queue_full",
        AdmissionReason::InFlightLimit { .. } => "in_flight_limit",
        AdmissionReason::UnknownTenant => "unknown_tenant",
    };
    shared
        .core
        .metrics
        .counter(&format!(
            "wavefront_admission_rejects_total{{tenant={},reason=\"{reason}\"}}",
            jstr(tenant)
        ))
        .inc();
}

/// The one admission door, behind [`WavefrontService::submit`],
/// [`WavefrontService::try_submit`] and
/// [`WavefrontService::submit_batch`] — and, being a free function over
/// [`Shared`], behind the DAG and loop runners too. `block` chooses what
/// a full queue or a reached in-flight limit does: wait for room
/// (backpressure, never a drop) or resolve the handle to
/// [`PipelineError::AdmissionDenied`]. An unknown tenant that cannot be
/// auto-registered is denied either way, as nothing would ever admit it.
pub(crate) fn enqueue<const R: usize>(
    shared: &Shared<R>,
    mut spec: JobSpec<R>,
    block: bool,
) -> JobHandle<R> {
    spec.submitted_at.get_or_insert_with(Instant::now);
    let ticket = Ticket::new();
    let handle = JobHandle(Arc::clone(&ticket));
    // Node-sourced inputs are installed by the DAG runner, which strips
    // them before it comes here; at this door nothing could resolve them.
    if !spec.inputs.is_empty() {
        ticket.fulfil(Err(PipelineError::InvalidJob {
            reason: "node-indexed inputs can only run inside submit_dag".into(),
        }));
        return handle;
    }
    let tenant = spec.tenant_name().unwrap_or(DEFAULT_TENANT).to_string();
    let mut q = shared.queue.lock().unwrap();
    let admitted = match q.resolve(&tenant, &shared.default_tenant, shared.auto_register) {
        None => {
            q.unknown_rejected += 1;
            Err(AdmissionReason::UnknownTenant)
        }
        Some(idx) => {
            let mut blocked = false;
            loop {
                let t = &q.tenants[idx];
                match admission::admit(&t.cfg, t.jobs.len(), t.in_flight) {
                    Ok(()) => break Ok(idx),
                    Err(reason) if !block => {
                        q.tenants[idx].rejected += 1;
                        break Err(reason);
                    }
                    Err(_) => {
                        if !std::mem::replace(&mut blocked, true) {
                            q.blocked_submits += 1;
                        }
                        q = shared.not_full.wait(q).unwrap();
                    }
                }
            }
        }
    };
    let idx = match admitted {
        Ok(idx) => idx,
        Err(reason) => {
            drop(q);
            count_reject(shared, &tenant, &reason);
            ticket.fulfil(Err(PipelineError::AdmissionDenied { tenant, reason }));
            return handle;
        }
    };
    let seq = q.next_seq;
    q.next_seq += 1;
    let global_pass = q.global_pass;
    let t = &mut q.tenants[idx];
    if t.jobs.is_empty() {
        // A queue waking from idle joins at the scheduler's current
        // virtual time: unused idle credit must not starve others.
        t.pass = t.pass.max(global_pass);
    }
    t.jobs.push_back(QueuedJob {
        priority: spec.job_priority(),
        seq,
        spec,
        ticket,
        admitted_at: Instant::now(),
    });
    t.in_flight += 1;
    t.submitted += 1;
    drop(q);
    shared.not_empty.notify_one();
    handle
}

/// One tenant's per-stage latency histogram handles, resolved once and
/// cached in [`Shared`] so the per-job cost is a hash lookup plus atomic
/// adds — not a registry lock per stage.
struct StageHists {
    admit: HistogramHandle,
    queue: HistogramHandle,
    exec: HistogramHandle,
    prep: HistogramHandle,
    run: HistogramHandle,
    drain: HistogramHandle,
    total: HistogramHandle,
}

impl StageHists {
    fn new(m: &Metrics, tenant: &str) -> Self {
        let h = |stage: &str| {
            m.histogram(&format!(
                "wavefront_stage_seconds{{tenant={},stage=\"{stage}\"}}",
                jstr(tenant)
            ))
        };
        StageHists {
            admit: h("admit"),
            queue: h("queue"),
            exec: h("exec"),
            prep: h("prep"),
            run: h("run"),
            drain: h("drain"),
            total: h("total"),
        }
    }

    fn record(&self, t: &JobTrace) {
        self.admit.observe_seconds(t.admit_seconds);
        self.queue.observe_seconds(t.queue_seconds);
        self.exec.observe_seconds(t.exec_seconds);
        self.prep.observe_seconds(t.prep_seconds);
        self.run.observe_seconds(t.run_seconds);
        self.drain.observe_seconds(t.drain_seconds);
        self.total.observe_seconds(t.total_seconds);
    }
}

/// The dispatcher: pick the next job by fair share, start it, repeat.
///
/// Every job starts through [`start_job`] and ends in its
/// [`Completion`], run by whichever thread ended its run. Jobs differ
/// only in *when* they start. A job [`overlaps`] selects starts as soon
/// as the pool has an idle worker and an empty queue, so one job's drain
/// runs under the next one's fill. Every other job — Seq and Sim jobs,
/// and jobs that bind resident handles or carry a loop chunk — starts on
/// an empty pool and is waited for, which keeps handle epochs, loop
/// chunks and DAG inputs ordered and lets Seq run alone.
fn dispatcher_loop<const R: usize>(shared: &Arc<Shared<R>>) {
    let pool = shared.core.pool();
    loop {
        let (idx, job) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(i) = pick_min_pass(&q.tenants) {
                    let stride = 1.0 / q.tenants[i].cfg.effective_weight();
                    // Virtual time advances to the chosen queue's pass;
                    // the queue then pays its stride for the slot.
                    q.global_pass = q.tenants[i].pass;
                    q.tenants[i].pass += stride;
                    let job = q.tenants[i].take_next().expect("picked queue has a job");
                    break (i, job);
                }
                // Every queue is empty: done if shutting down — once the
                // started jobs have completed, as their completions
                // hold the service's state — else sleep until a
                // submission arrives.
                if q.closed {
                    drop(q);
                    pool.wait_idle(true);
                    return;
                }
                q = shared.not_empty.wait(q).unwrap();
            }
        };
        // Queue space freed; submitters blocked on capacity may retry.
        shared.not_full.notify_all();

        let mut settle = Settle::new(shared, idx, &job);
        let overlaps = overlaps(&job.spec);
        if !overlaps {
            pool.wait_idle(true);
            // Waiting for the pool to empty was queueing, not execution.
            settle.dispatched = Instant::now();
        }
        // A panic here drops `settle`, which settles the job.
        let _ = catch_unwind(AssertUnwindSafe(|| start_job(shared, job.spec, settle)));
        pool.wait_idle(!overlaps);
    }
}

/// Whether the dispatcher starts `spec` while earlier jobs are still in
/// flight: a threads-engine job that binds no resident handle and
/// carries no loop chunk.
fn overlaps<const R: usize>(spec: &JobSpec<R>) -> bool {
    spec.engine == EngineKind::Threads
        && spec.handle_inputs.is_empty()
        && spec.handle_outputs.is_empty()
        && spec.loop_exec.is_none()
}

/// Start one dispatched job: the one way every service job starts,
/// whatever its engine and whatever it binds. Check its resident handles
/// out (input handles as snapshots, output handles by move, so engine
/// writes never copy-on-write), look its plan up, and run it: Sim here,
/// on the dispatcher; Seq and Threads launched, a loop chunk with its
/// iterations and rotation. Whichever thread ends the run finishes the
/// job through its [`Completion`]. (Node-sourced inputs were installed
/// by the DAG runner before the job was admitted.)
fn start_job<const R: usize>(shared: &Shared<R>, mut spec: JobSpec<R>, settle: Settle<R>) {
    let mut checked_out = Vec::new();
    let checked = check_out(&shared.handles, &mut spec, &mut checked_out);
    let hsig = handles_sig(&spec.handle_inputs, &spec.handle_outputs);
    let JobSpec {
        program,
        nest,
        topology,
        cfg,
        engine,
        mut store,
        trace,
        outputs,
        loop_exec,
        ..
    } = spec;
    debug_assert!(
        loop_exec.is_none() || engine == EngineKind::Threads,
        "only the threads engine fuses loop chunks"
    );
    let mut job = Completion {
        settle,
        program,
        outputs,
        checked_out,
        loop_exec,
        trace: trace.then(TraceCollector::new),
    };
    // A pipelined chunk runs the plan fitted to its sweeps; a barrier
    // chunk pays a fill every sweep, as one sweep does.
    let sweeps = job.loop_exec.as_ref().filter(|lx| lx.pipelined).map_or(1, |lx| lx.iters);
    let core = &shared.core;
    let prepared = checked.and_then(|()| {
        let nest = NestSource::Shared(&nest);
        core.prepare(
            &job.program,
            &nest,
            topology,
            &cfg,
            &hsig,
            engine,
            store.is_some(),
            sweeps,
        )
    });
    job.settle.looked_up();
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => return job.complete(store, Err(e), &[]),
    };
    if engine == EngineKind::Sim {
        let ran = job.with_collector(|collector| {
            catch_unwind(AssertUnwindSafe(|| {
                prepared.run_joined(core.pool(), &cfg, store.as_mut(), collector)
            }))
        });
        let ran = ran.map_err(|payload| PipelineError::EnginePanic(panic_message(&payload)));
        return job.complete(store, ran, &[]);
    }
    let Prepared {
        entry,
        cache_ev,
        prep,
        mut outcome,
    } = prepared;
    let prep = prep.expect("an executing engine runs a lowered kernel");
    let mut store = store.expect("`prepare` refuses an executing job without a store");
    let (iters, rotate, pipelined) = match &job.loop_exec {
        Some(lx) => (lx.iters, lx.rotate.clone(), lx.pipelined),
        None => (1, Vec::new(), true),
    };
    let enabled = job.trace.is_some();
    let run_start = Instant::now();
    let done: Done<R> = Box::new(move |ended| {
        let mut spans = Vec::new();
        let (store, ran) = job.with_collector(|collector| {
            let (store, report) = ended.finish(collector);
            let ran = report.map_err(PipelineError::EnginePanic).map(|r| {
                (outcome.makespan, outcome.messages) = (r.elapsed.as_secs_f64(), r.messages);
                spans = r.spans;
                finish_outcome(outcome, run_start, cache_ev, collector)
            });
            (store, ran)
        });
        job.complete(Some(store), ran, &spans);
    });
    launch_threaded(
        core.pool(),
        &entry.nest,
        &prep,
        &mut store,
        iters,
        &rotate,
        pipelined,
        engine,
        enabled,
        done,
    );
}

/// How a started job ends — run once, by whichever thread ended its run:
/// the dispatcher (Seq, Sim, a failure before the run, a one-cell plan)
/// or the pool worker that ended the last threaded cell.
struct Completion<const R: usize> {
    settle: Settle<R>,
    program: Arc<Program<R>>,
    outputs: Vec<String>,
    /// Each output-handle binding, with the array id its buffer was
    /// checked out into.
    checked_out: Vec<(job::HandleBinding, usize)>,
    loop_exec: Option<LoopExec>,
    trace: Option<TraceCollector>,
}

impl<const R: usize> Completion<R> {
    /// Call `f` with the job's collector: its trace, or a no-op.
    fn with_collector<T>(&mut self, f: impl FnOnce(&mut dyn Collector) -> T) -> T {
        match self.trace.as_mut() {
            Some(tc) => f(tc),
            None => f(&mut NoopCollector),
        }
    }

    /// Hand every checked-out buffer back to the handle table. After a
    /// run that `completed`, each goes into its *putback* slot — which
    /// differs from the checkout slot exactly for loop-rotation chunks —
    /// and bumps that slot's epoch (the write-after-read fence). After a
    /// failure, a panicking cell's included, each goes back into its
    /// *checkout* slot with no bump: nothing was republished.
    fn hand_back(
        &self,
        store: Option<&mut Store<R>>,
        completed: bool,
    ) -> Result<(), PipelineError> {
        let Some(st) = store else { return Ok(()) };
        let mut table = self.settle.shared.handles.lock().unwrap();
        for (hb, id) in &self.checked_out {
            let layout = st.get(*id).layout();
            let arr = std::mem::replace(
                st.get_mut(*id),
                DenseArray::with_layout(Region::empty(), layout, 0.0),
            );
            if completed {
                table.putback(hb.putback, arr)?;
            } else {
                table.restore(hb.checkout, arr);
            }
        }
        Ok(())
    }

    /// Finish the job whose run ended with `store` and `ran` (`spans`:
    /// each cell's per-sweep busy spans, on the threads engine): hand the
    /// checked-out buffers back, compute a loop chunk's overlap, publish
    /// the outputs, drop the store, settle.
    fn complete(
        self,
        mut store: Option<Store<R>>,
        ran: Result<RunOutcome, PipelineError>,
        spans: &[Vec<(f64, f64)>],
    ) {
        let handed = self.hand_back(store.as_mut(), ran.is_ok());
        let Completion {
            settle,
            program,
            outputs,
            checked_out,
            loop_exec,
            trace,
        } = self;
        let result = ran.and_then(|outcome| {
            handed?;
            Ok(JobOutcome {
                outcome,
                outputs: collect_outputs(&program, store.as_ref(), &outputs, &checked_out),
                loop_stats: loop_exec.map(|lx| overlap_stats(&lx, spans)),
                trace: trace.map(|tc| tc.report()),
                spans: None,
            })
        });
        // The outputs must be the buffers' only owners once the waiter
        // wakes: a store still alive here would make the next job's
        // first write to a handed-over output copy it.
        drop(store);
        settle.settle(result);
    }
}

/// What settling a dispatched job needs: its tenant, its ticket and the
/// stamps of its lifecycle. The job's [`Completion`] settles it, once.
/// Dropped unsettled (a panic outside every cell), it settles the job as
/// [`PipelineError::EnginePanic`], so no handle waits forever.
struct Settle<const R: usize> {
    shared: Arc<Shared<R>>,
    idx: usize,
    ticket: Option<Arc<JobTicket<R>>>,
    trace_id: Option<u64>,
    tenant: String,
    submitted_at: Instant,
    admitted_at: Instant,
    dispatched: Instant,
    /// The cache counters at dispatch; after [`Settle::looked_up`], the
    /// job's own hits and misses.
    cache: (u64, u64),
}

impl<const R: usize> Settle<R> {
    fn new(shared: &Arc<Shared<R>>, idx: usize, job: &QueuedJob<R>) -> Self {
        let core = &shared.core;
        Settle {
            shared: Arc::clone(shared),
            idx,
            ticket: Some(Arc::clone(&job.ticket)),
            trace_id: job.spec.trace_id,
            tenant: job.spec.tenant_name().unwrap_or(DEFAULT_TENANT).to_string(),
            submitted_at: job.spec.submitted_at.unwrap_or(job.admitted_at),
            admitted_at: job.admitted_at,
            dispatched: Instant::now(),
            cache: (
                core.hits.load(Ordering::Relaxed),
                core.misses.load(Ordering::Relaxed),
            ),
        }
    }

    /// Attribute to this job the cache traffic since dispatch. Called
    /// on the dispatcher once the job's cache lookup is done: only the
    /// dispatcher looks plans up — completions on the pool never do — so
    /// the deltas are exact however many jobs are in flight.
    fn looked_up(&mut self) {
        let core = &self.shared.core;
        self.cache = (
            core.hits.load(Ordering::Relaxed) - self.cache.0,
            core.misses.load(Ordering::Relaxed) - self.cache.1,
        );
    }

    fn settle(mut self, result: Result<JobOutcome<R>, PipelineError>) {
        self.fulfil(result);
    }

    /// Account the job to its tenant, record its trace, and fulfil its
    /// ticket.
    fn fulfil(&mut self, mut result: Result<JobOutcome<R>, PipelineError>) {
        let Some(ticket) = self.ticket.take() else {
            return;
        };
        let shared = &self.shared;
        let finished = Instant::now();
        {
            let mut q = shared.queue.lock().unwrap();
            let t = &mut q.tenants[self.idx];
            t.in_flight -= 1;
            match &result {
                Ok(_) => t.completed += 1,
                Err(_) => t.failed += 1,
            }
            t.cache_hits += self.cache.0;
            t.cache_misses += self.cache.1;
            t.busy_seconds += (finished - self.dispatched).as_secs_f64();
        }
        // In-flight slot freed; submitters blocked on the limit may retry.
        shared.not_full.notify_all();

        // The job's lifecycle trace: monotonic spans, telescoping so
        // admit + queue + exec + drain == total up to FP rounding.
        let (prep_seconds, run_seconds) = match &result {
            Ok(out) => (out.outcome.prep_seconds, out.outcome.run_seconds),
            Err(_) => (0.0, 0.0),
        };
        let done = Instant::now();
        let trace = JobTrace {
            trace_id: self.trace_id,
            tenant: std::mem::take(&mut self.tenant),
            start_seconds: self
                .submitted_at
                .saturating_duration_since(shared.epoch)
                .as_secs_f64(),
            admit_seconds: (self.admitted_at - self.submitted_at).as_secs_f64(),
            queue_seconds: (self.dispatched - self.admitted_at).as_secs_f64(),
            exec_seconds: (finished - self.dispatched).as_secs_f64(),
            prep_seconds,
            run_seconds,
            drain_seconds: (done - finished).as_secs_f64(),
            total_seconds: (done - self.submitted_at).as_secs_f64(),
        };
        if let Ok(out) = result.as_mut() {
            out.spans = Some(trace.clone());
        }
        if shared.core.metrics.enabled() {
            {
                // Steady-state alloc-free: the per-tenant handle bundle
                // is cloned-keyed only on first sight of the tenant.
                let mut hists = shared.stage_hists.lock().unwrap();
                if !hists.contains_key(&trace.tenant) {
                    hists.insert(
                        trace.tenant.clone(),
                        StageHists::new(&shared.core.metrics, &trace.tenant),
                    );
                }
                hists[&trace.tenant].record(&trace);
            }
            shared.record_trace(trace);
        }
        ticket.fulfil(result);
    }
}

impl<const R: usize> Drop for Settle<R> {
    fn drop(&mut self) {
        self.fulfil(Err(PipelineError::EnginePanic(
            "the job was abandoned by a panic outside its cells".into(),
        )));
    }
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Install the producer output `out` as the consumer's initial value of
/// the array named `name`: same layout shares the buffer refcounted (no
/// copy, copy-on-write keeps value semantics); a layout mismatch is a
/// real, counted copy.
pub(crate) fn install_input<const R: usize>(
    store: &mut Store<R>,
    program: &Program<R>,
    out: &JobOutput<R>,
    name: &str,
) -> Result<(), PipelineError> {
    let id = program.find(name).ok_or_else(|| PipelineError::InvalidJob {
        reason: format!("program declares no array named `{name}`"),
    })?;
    let declared = store.get(id);
    if declared.bounds() != out.bounds() {
        return Err(PipelineError::InvalidJob {
            reason: format!(
                "input `{name}` covers {} elements but the consumer declares {}",
                out.len(),
                declared.bounds().len()
            ),
        });
    }
    if declared.layout() == out.layout() {
        *store.get_mut(id) = out.to_array();
    } else {
        let mut dst = DenseArray::with_layout(out.bounds(), declared.layout(), 0.0);
        dst.copy_region_from(&out.to_array(), out.bounds());
        *store.get_mut(id) = dst;
    }
    Ok(())
}

/// Publish the job's declared outputs (every array when none were
/// declared) from the computed store — each an `Arc` bump, never a copy.
/// *Output*-handle-bound arrays are skipped: their buffers went back
/// into the handle table before publication (the slot is empty by now),
/// so resident results are read through [`WavefrontService::read`]
/// instead. Input-handle arrays publish normally — their snapshots are
/// `Arc` clones already, and nothing writes them, so the extra refcount
/// never costs a copy.
fn collect_outputs<const R: usize>(
    program: &Program<R>,
    store: Option<&Store<R>>,
    names: &[String],
    checked_out: &[(job::HandleBinding, usize)],
) -> JobOutputs<R> {
    let mut outs = JobOutputs::new();
    let Some(store) = store else {
        return outs;
    };
    let skip = |id: usize| checked_out.iter().any(|&(_, c)| c == id);
    if names.is_empty() {
        for id in (0..store.len()).filter(|&id| !skip(id)) {
            outs.insert(JobOutput::from_array(program.name_of(id), store.get(id)));
        }
    } else {
        for name in names {
            if let Some(id) = program.find(name).filter(|&id| !skip(id)) {
                outs.insert(JobOutput::from_array(name.clone(), store.get(id)));
            }
        }
    }
    outs
}

/// Check a job's resident handles out into its store: each input handle
/// as a read-only snapshot (an `Arc` bump), each output handle by *move*
/// (refcount 1, so engine writes go straight in), recorded in
/// `checked_out`. On an error part-way, what was already taken is in
/// `checked_out`, and the job's completion hands it back.
fn check_out<const R: usize>(
    handles: &Mutex<HandleTable<R>>,
    spec: &mut JobSpec<R>,
    checked_out: &mut Vec<(job::HandleBinding, usize)>,
) -> Result<(), PipelineError> {
    let program = &spec.program;
    let find = |name: &str| {
        program.find(name).ok_or_else(|| PipelineError::InvalidJob {
            reason: format!("program declares no array named `{name}`"),
        })
    };
    // The nest must not write an input handle: writes would land in a
    // copy-on-write shadow and silently never reach the resident buffer.
    for (name, hid) in &spec.handle_inputs {
        let id = find(name)?;
        if spec.nest.stmts.iter().any(|s| s.lhs == id) {
            return Err(PipelineError::InvalidJob {
                reason: format!(
                    "the nest writes `{name}`; bind it with output_handle, not \
                     input_handle (in-place writes need the buffer checked out)"
                ),
            });
        }
        let snap = handles.lock().unwrap().snapshot(*hid)?;
        let st = spec.store.get_or_insert_with(|| Store::new(program));
        *st.get_mut(id) = snap;
    }
    for hb in &spec.handle_outputs {
        let id = find(&hb.name)?;
        let arr = handles.lock().unwrap().checkout(hb.checkout)?;
        let st = spec.store.get_or_insert_with(|| Store::new(program));
        *st.get_mut(id) = arr;
        checked_out.push((hb.clone(), id));
    }
    Ok(())
}

/// The handle-shape signature entering the plan-cache fingerprint: the
/// *names* bound to resident handles (sorted input and output sets),
/// never the handle ids — ids rotate every loop chunk and keying on
/// them would defeat the cache entirely.
fn handles_sig(spec_inputs: &[(String, u64)], spec_outputs: &[job::HandleBinding]) -> String {
    if spec_inputs.is_empty() && spec_outputs.is_empty() {
        return String::new();
    }
    let mut ins: Vec<&str> = spec_inputs.iter().map(|(n, _)| n.as_str()).collect();
    ins.sort_unstable();
    let mut outs: Vec<&str> = spec_outputs.iter().map(|b| b.name.as_str()).collect();
    outs.sort_unstable();
    format!("in:{};out:{}", ins.join(","), outs.join(","))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use wavefront_core::prelude::*;

    use super::*;
    use crate::exec_threads::test_hooks::{with_tile_hook, TileHook};
    use crate::schedule::BlockPolicy;
    use crate::session::Session;

    /// A pipelined fused chunk runs its own width, on rows a page or
    /// more apart and on rows under a page apart; one sweep and a
    /// barrier chunk run the one-sweep preparation itself.
    #[test]
    fn a_chunk_runs_the_width_of_its_own_des() {
        use crate::plan::tests::relax_nest;
        let prep = |core: &ExecCore, (p, nest): &(Program<2>, CompiledNest<2>), sweeps| {
            let (cfg, line) = (SessionConfig::default(), JobTopology::line(2));
            let nest = NestSource::Borrowed(nest);
            let threads = EngineKind::Threads;
            let prepared = core.prepare(p, &nest, line, &cfg, "", threads, true, sweeps);
            prepared.unwrap().prep.expect("an executing engine")
        };
        let core = ExecCore::new(4);
        let paged = relax_nest(12, 700);
        let one = prep(&core, &paged, 1);
        let chunk = prep(&core, &paged, 4);
        assert_eq!((one.plan.block, chunk.plan.block), (128, 240));
        assert!(Arc::ptr_eq(&one, &prep(&core, &paged, 1)));
        // A client's step count reaches this fit unchecked: a chunk no
        // memory could hold the DAG of is fitted on a bounded one, in
        // well under a second even unoptimised.
        let start = Instant::now();
        assert_eq!(prep(&core, &paged, 1 << 40).plan.block, prep(&core, &paged, 60).plan.block);
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
        // Rows under a page apart: a chunk is cut on its own DAG too.
        let unpaged = relax_nest(12, 300);
        let (one, chunk) = (prep(&core, &unpaged, 1), prep(&core, &unpaged, 4));
        assert_eq!((one.plan.block, chunk.plan.block), (40, 80));

        // Through the loop door: the barrier ablation pays a fill every
        // sweep, so it keeps the one-sweep width.
        let (p, nest) = (Arc::new(paged.0), Arc::new(paged.1));
        for (pipelined, block) in [(true, 240), (false, 128)] {
            let service: WavefrontService<2> = WavefrontService::new();
            let handles = service.import_store(&p, Store::new(&p));
            let mut body = JobSpec::builder(Arc::clone(&p), Arc::clone(&nest)).line(2);
            for (name, h) in &handles {
                body = body.output_handle(name.clone(), h);
            }
            let spec = LoopSpec::builder()
                .job(body.build().unwrap())
                .steps(4)
                .swap("next", "curr")
                .pipelined(pipelined)
                .build()
                .unwrap();
            let stats = service.submit_loop(spec).wait().unwrap().stats;
            assert!(stats.fused, "pipelined = {pipelined}");
            assert_eq!(stats.block, block, "pipelined = {pipelined}");
        }
    }

    /// `a := a'@(−1, 0) · 0.5 + a · 0.25 + 1` on 12×12: a wave down the
    /// rows, so the cells of a line are ranked upstream to downstream.
    fn wave() -> (Arc<Program<2>>, Arc<CompiledNest<2>>, Store<2>) {
        let mut p = Program::<2>::new();
        let a = p.array("a", Region::rect([0, 0], [11, 11]));
        p.stmt(
            Region::rect([1, 0], [11, 11]),
            a,
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0])
                + Expr::lit(0.25) * Expr::read(a)
                + Expr::lit(1.0),
        );
        let nest = compile(&p).unwrap().nest(0).clone();
        let mut store = Store::new(&p);
        *store.get_mut(a) = DenseArray::from_fn(Region::rect([0, 0], [11, 11]), |q| {
            ((q[0] * 5 + q[1] * 3) % 7) as f64
        });
        (Arc::new(p), Arc::new(nest), store)
    }

    /// A cell of job k panics while job k+1 is in flight: k resolves
    /// `EnginePanic`, k+1 completes bit-identically, and no worker is
    /// lost. Job k runs on `line(3)`, job k+1 on `line(2)`, so the hook
    /// tells them apart by the cell index: job k's last cell waits at
    /// its fifth tile until job k+1's first cell has started a tile,
    /// then panics.
    #[test]
    fn a_cell_panic_fails_its_job_and_spares_the_next_in_flight() {
        let (program, nest, store) = wave();
        let first_tiles = Arc::new(AtomicUsize::new(0));
        let hook: TileHook = {
            let first_tiles = Arc::clone(&first_tiles);
            Arc::new(move |cell, tile| {
                if cell == 0 && tile == 0 {
                    first_tiles.fetch_add(1, Ordering::SeqCst);
                }
                if cell == 2 && tile == 4 {
                    let start = Instant::now();
                    let in_flight = || first_tiles.load(Ordering::SeqCst) == 2;
                    while !in_flight() && start.elapsed() < Duration::from_secs(10) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    match in_flight() {
                        true => panic!("tile hook: job k dies with job k+1 in flight"),
                        false => panic!("tile hook: job k dies, job k+1 never started"),
                    }
                }
            })
        };
        let service: WavefrontService<2> = with_tile_hook(hook, || {
            WavefrontService::with_config(ServiceConfig {
                workers: 3,
                ..Default::default()
            })
        });
        let spec = |procs: usize| {
            JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(procs)
                .block(BlockPolicy::Fixed(1))
                .store(store.clone())
                .build()
                .unwrap()
        };
        let k = service.submit(spec(3));
        let k1 = service.submit(spec(2));
        match k.wait() {
            Err(PipelineError::EnginePanic(msg)) => {
                assert!(msg.contains("job k+1 in flight"), "{msg}")
            }
            Err(e) => panic!("job k failed otherwise: {e}"),
            Ok(_) => panic!("job k survived its cell's panic"),
        }
        let got = k1
            .wait()
            .expect("job k+1 completes")
            .take_output("a")
            .unwrap();
        let mut want = store.clone();
        Session::new(&program, &nest)
            .procs(2)
            .block(BlockPolicy::Fixed(1))
            .store(&mut want)
            .run(EngineKind::Seq)
            .unwrap();
        assert!(want.get(0).region_eq(&got.to_array(), want.get(0).bounds()));
        let s = service.stats();
        assert_eq!(s.pool_spawns, 3, "no worker was lost to the panic");
        assert_eq!((s.jobs_completed, s.jobs_failed), (1, 1));
    }

    /// A cell of a job that binds an output handle panics, on either
    /// executing engine: the job resolves `EnginePanic`, and the
    /// checked-out buffer comes back to its slot with its epoch unbumped,
    /// readable and freeable. The engine ran in place, so the buffer
    /// keeps what the run wrote before it failed: upstream cell 0 never
    /// waits on cell 1 (on Seq it runs first) and finishes its rows;
    /// cell 1 dies before its tile 2; everything else is as imported.
    #[test]
    fn a_cell_panic_hands_the_checked_out_handle_back() {
        for kind in [EngineKind::Threads, EngineKind::Seq] {
            a_cell_panic_hands_the_handle_back_on(kind);
        }
    }

    fn a_cell_panic_hands_the_handle_back_on(kind: EngineKind) {
        let (program, nest, store) = wave();
        let hook: TileHook = Arc::new(|cell, tile| {
            if cell == 1 && tile == 2 {
                panic!("tile hook: the handle-bound job dies");
            }
        });
        let service: WavefrontService<2> = with_tile_hook(hook, WavefrontService::new);
        let imported = store.get(0).clone();
        let h = service.import(imported.clone());
        let epoch = service.handle_epoch(&h).unwrap();
        let job = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(2)
            .block(BlockPolicy::Fixed(1))
            .engine(kind)
            .output_handle("a", &h)
            .build()
            .unwrap();
        let msg = match service.submit(job).wait() {
            Err(PipelineError::EnginePanic(msg)) => msg,
            Err(e) => panic!("{kind}: the job failed otherwise: {e}"),
            Ok(_) => panic!("{kind}: the job survived its cell's panic"),
        };
        let back = service.read(&h).expect("the handle is back in its slot");
        let session = Session::new(&program, &nest)
            .procs(2)
            .block(BlockPolicy::Fixed(1));
        let plan = session.plan().unwrap();
        let mut want = store.clone();
        session.store(&mut want).run(EngineKind::Seq).unwrap();
        let mut expect = imported.clone();
        for (t, tile) in plan.tiles.iter().enumerate() {
            for cell in [0, 1].into_iter().filter(|&c| c == 0 || t < 2) {
                expect.copy_region_from(want.get(0), plan.dist.owned(cell).intersect(tile));
            }
        }
        assert!(
            !expect.region_eq(&imported, imported.bounds()),
            "the run wrote nothing"
        );
        assert!(back.region_eq(&expect, imported.bounds()), "{kind}");
        assert_eq!(service.handle_epoch(&h).unwrap(), epoch);
        service.free(&h).expect("the handle frees");
        assert_eq!(service.resident_bytes(), 0);
        assert!(msg.contains("dies"), "{kind}: {msg}");
    }
}
