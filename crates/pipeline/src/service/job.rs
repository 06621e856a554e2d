//! Job submission surface of the service: the typed
//! [`JobSpecBuilder`], the validated [`JobSpec`] it produces, and the
//! [`JobHandle`] / [`JobOutcome`] pair a submission resolves to.
//!
//! The builder is the one construction path shared by in-process
//! [`crate::service::WavefrontService::submit`] and the wire decoder in
//! [`crate::service::wire`]: both funnel through
//! [`JobSpecBuilder::build`], so a spec that was never validated cannot
//! reach the dispatcher. (The pre-PR-6 chainable methods directly on
//! `JobSpec` are gone; the builder is the only construction path.)
//!
//! Jobs declare named array outputs ([`JobSpecBuilder::output`]) and,
//! inside a DAG, may consume a predecessor node's output in place
//! ([`JobSpecBuilder::input_from`]): the buffer is shared refcounted,
//! never copied, and the DAG runner dispatches the successor only once
//! the predecessor resolved.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use wavefront_core::exec::CompiledNest;
use wavefront_core::program::{Program, Store};

use crate::error::PipelineError;
use crate::schedule::BlockPolicy;
use crate::service::dag::NodeRef;
use crate::service::handle::ArrayHandle;
use crate::service::output::{JobOutput, JobOutputs};
use crate::session::{RunOutcome, SessionConfig};
use crate::telemetry::{EngineKind, ExecutionReport};

pub use crate::plan::JobTopology;

/// Everything one service job needs, by value: the service outlives any
/// borrow a `Session` could hold, so program, nest, and store are owned
/// (`Arc`s for the shared read-only parts). Built by
/// [`JobSpec::builder`].
pub struct JobSpec<const R: usize> {
    pub(crate) program: Arc<Program<R>>,
    pub(crate) nest: Arc<CompiledNest<R>>,
    pub(crate) topology: JobTopology,
    pub(crate) cfg: SessionConfig,
    pub(crate) engine: EngineKind,
    pub(crate) store: Option<Store<R>>,
    pub(crate) trace: bool,
    pub(crate) tenant: Option<String>,
    pub(crate) priority: u8,
    pub(crate) outputs: Vec<String>,
    pub(crate) inputs: Vec<InputBinding>,
    pub(crate) handle_inputs: Vec<(String, u64)>,
    pub(crate) handle_outputs: Vec<HandleBinding>,
    /// Set only by the loop runner: execute the nest `iters` times in
    /// one fused engine invocation (threads engine only).
    pub(crate) loop_exec: Option<LoopExec>,
    pub(crate) trace_id: Option<u64>,
    /// Stamped by the submission doors when the spec enters the
    /// service; the origin of the job's [`JobTrace`].
    pub(crate) submitted_at: Option<std::time::Instant>,
}

/// One in-place (read-write) binding of a resident array: check the
/// buffer out of `checkout`, run on it at refcount 1, put it back into
/// `putback`. The two ids differ only for loop-rotation chunks, where
/// the put-back publishes the buffer under its next binding.
#[derive(Debug, Clone)]
pub(crate) struct HandleBinding {
    pub(crate) name: String,
    pub(crate) checkout: u64,
    pub(crate) putback: u64,
}

/// Fused multi-iteration execution parameters, attached to a chunk job
/// by the loop runner ([`crate::service::WavefrontService::submit_loop`]).
#[derive(Clone)]
pub(crate) struct LoopExec {
    /// Iterations to run inside one engine invocation.
    pub(crate) iters: usize,
    /// Slot rotation applied between iterations, as resolved
    /// `(from, to)` array-id pairs (a permutation).
    pub(crate) rotate: Vec<(usize, usize)>,
    /// `false` inserts an inter-iteration barrier (the overlap
    /// ablation, `LoopSpecBuilder::pipelined`).
    pub(crate) pipelined: bool,
}

/// One input binding: take the output named `name` of the DAG node
/// `from` and install it under the same array name in the consumer's
/// store. Resolved by the DAG runner; the plain doors reject it.
#[derive(Clone)]
pub(crate) struct InputBinding {
    pub(crate) from: usize,
    pub(crate) name: String,
}

// The loop runner re-instantiates the body spec once per step (or per
// fused chunk) with that step's handle assignment — everything else is
// shared (`Arc`s) or small.
impl<const R: usize> Clone for JobSpec<R> {
    fn clone(&self) -> Self {
        JobSpec {
            program: Arc::clone(&self.program),
            nest: Arc::clone(&self.nest),
            topology: self.topology,
            cfg: self.cfg.clone(),
            engine: self.engine,
            store: self.store.clone(),
            trace: self.trace,
            tenant: self.tenant.clone(),
            priority: self.priority,
            outputs: self.outputs.clone(),
            inputs: self.inputs.clone(),
            handle_inputs: self.handle_inputs.clone(),
            handle_outputs: self.handle_outputs.clone(),
            loop_exec: self.loop_exec.clone(),
            trace_id: self.trace_id,
            submitted_at: self.submitted_at,
        }
    }
}

/// Typed construction of a [`JobSpec`]: chain the knobs, then
/// [`JobSpecBuilder::build`] validates the combination and returns a
/// spec (or a [`PipelineError::InvalidJob`] naming what was wrong).
///
/// ```ignore
/// let spec = JobSpec::builder(program, nest)
///     .line(8)
///     .tenant("acme")
///     .priority(2)
///     .store(store)
///     .build()?;
/// ```
pub struct JobSpecBuilder<const R: usize> {
    program: Arc<Program<R>>,
    nest: Arc<CompiledNest<R>>,
    topology: JobTopology,
    cfg: SessionConfig,
    engine: EngineKind,
    store: Option<Store<R>>,
    trace: bool,
    tenant: Option<String>,
    priority: u8,
    outputs: Vec<String>,
    inputs: Vec<InputBinding>,
    handle_inputs: Vec<(String, ArrayHandle<R>)>,
    handle_outputs: Vec<(String, ArrayHandle<R>)>,
    trace_id: Option<u64>,
}

impl<const R: usize> JobSpecBuilder<R> {
    fn new(program: Arc<Program<R>>, nest: Arc<CompiledNest<R>>) -> Self {
        JobSpecBuilder {
            program,
            nest,
            topology: JobTopology::line(1),
            cfg: SessionConfig::default(),
            engine: EngineKind::Threads,
            store: None,
            trace: false,
            tenant: None,
            priority: 0,
            outputs: Vec::new(),
            inputs: Vec::new(),
            handle_inputs: Vec::new(),
            handle_outputs: Vec::new(),
            trace_id: None,
        }
    }

    /// Run on a 1-D line of `procs` processors (planner-chosen
    /// distribution dimension).
    pub fn line(mut self, procs: usize) -> Self {
        self.topology = JobTopology::line(procs);
        self
    }

    /// Run on a 2-D mesh of shape `[rows, cols]` (planner-chosen wave
    /// dimensions).
    pub fn mesh(mut self, mesh: [usize; 2]) -> Self {
        self.topology = JobTopology::mesh(mesh);
        self
    }

    /// Set the full topology, including forced dimensions.
    pub fn topology(mut self, topology: JobTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Block-size policy. The searching policies ([`BlockPolicy::Probe`],
    /// [`BlockPolicy::Adaptive`]) choose `b` when the plan is built, so
    /// a cached plan pays for its search once.
    pub fn block(mut self, policy: BlockPolicy) -> Self {
        self.cfg.block = policy;
        self
    }

    /// Machine cost parameters.
    pub fn machine(mut self, params: wavefront_machine::MachineParams) -> Self {
        self.cfg.machine = params;
        self
    }

    /// Set the kernel-tier ceiling explicitly (see
    /// [`wavefront_core::kernel::KernelMode`]); part of the plan-cache
    /// fingerprint.
    pub fn kernel_mode(mut self, mode: wavefront_core::kernel::KernelMode) -> Self {
        self.cfg.kernel_mode = mode;
        self
    }

    /// Which engine runs the job (default [`EngineKind::Threads`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Attach the data store the job computes on (moved in; returned in
    /// the [`JobOutcome`]). Required for the seq and threads engines.
    pub fn store(mut self, store: Store<R>) -> Self {
        self.store = Some(store);
        self
    }

    /// Record the job's telemetry stream and return an
    /// [`ExecutionReport`] in the outcome.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Submit on behalf of `tenant` — the job joins that tenant's
    /// admission-controlled queue instead of the default one.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Priority within the tenant's own queue: higher runs first,
    /// FIFO among equals (default 0). Priorities never jump the
    /// fair-share ordering *between* tenants.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Attach a client-supplied trace ID. It rides through the service
    /// untouched and comes back inside the job's [`JobTrace`], so a
    /// caller (or a wire client) can correlate its own
    /// request with the service-side phase breakdown.
    pub fn trace_id(mut self, id: u64) -> Self {
        self.trace_id = Some(id);
        self
    }

    /// Declare the array named `name` as an output of this job. The
    /// outcome publishes it as a refcounted [`JobOutput`] a successor
    /// can consume without copying. When no outputs are declared, every
    /// array of the program is published (sharing is free).
    pub fn output(mut self, name: impl Into<String>) -> Self {
        self.outputs.push(name.into());
        self
    }

    /// Declare several named outputs at once (see
    /// [`JobSpecBuilder::output`]).
    pub fn outputs<I>(mut self, names: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        self.outputs.extend(names.into_iter().map(Into::into));
        self
    }

    /// Consume the output named `name` of `from`, an earlier node of
    /// the DAG being built, as this job's initial value of the array
    /// with the same name. The buffer is shared refcounted (zero
    /// copies); the DAG runner dispatches the job only once the producer
    /// has resolved, and a failed producer fails this job with
    /// [`PipelineError::DependencyFailed`] instead of running it. A spec
    /// with such an input runs only inside
    /// [`crate::service::WavefrontService::submit_dag`]; the plain doors
    /// reject it typed.
    pub fn input_from(mut self, from: NodeRef, name: impl Into<String>) -> Self {
        self.inputs.push(InputBinding {
            from: from.index,
            name: name.into(),
        });
        self
    }

    /// Bind the service-resident array behind `handle` as the
    /// *read-only* initial value of the array named `name`: the buffer
    /// is shared refcounted into the job's store, never copied. The
    /// program must not write `name` (binding a written array here is a
    /// typed error at dispatch — writes would silently land in a
    /// copy-on-write shadow). See
    /// [`crate::service::WavefrontService::alloc`].
    pub fn input_handle(mut self, name: impl Into<String>, handle: &ArrayHandle<R>) -> Self {
        self.handle_inputs.push((name.into(), *handle));
        self
    }

    /// Bind the service-resident array behind `handle` as the array
    /// named `name`, read **and written in place**: the dispatcher
    /// checks the buffer out of the handle table (refcount 1, so engine
    /// writes never copy-on-write), runs on it, and puts it back,
    /// bumping the handle's epoch. While the job is in flight the
    /// handle is checked out; a concurrent binding draws a typed
    /// [`PipelineError::HandleConflict`].
    pub fn output_handle(mut self, name: impl Into<String>, handle: &ArrayHandle<R>) -> Self {
        self.handle_outputs.push((name.into(), *handle));
        self
    }

    /// Validate the combination and produce the [`JobSpec`].
    pub fn build(self) -> Result<JobSpec<R>, PipelineError> {
        self.topology.check()?;
        if let Some(t) = &self.tenant {
            if t.is_empty() {
                return Err(PipelineError::InvalidJob {
                    reason: "tenant name must not be empty".into(),
                });
            }
        }
        for name in self.outputs.iter().chain(self.inputs.iter().map(|b| &b.name)) {
            if self.program.find(name).is_none() {
                return Err(PipelineError::InvalidJob {
                    reason: format!("program declares no array named `{name}`"),
                });
            }
        }
        // Handle bindings: names must resolve, shapes must match the
        // declaration (in-place execution cannot reshape), and no two
        // bindings may alias one resident buffer.
        let mut seen_ids: Vec<(u64, &str)> = Vec::new();
        let mut seen_names: Vec<&str> = Vec::new();
        for (name, h) in self
            .handle_inputs
            .iter()
            .chain(self.handle_outputs.iter())
        {
            let id = self.program.find(name).ok_or_else(|| PipelineError::InvalidJob {
                reason: format!("program declares no array named `{name}`"),
            })?;
            let decl = &self.program.arrays()[id];
            if decl.bounds != h.bounds() || decl.layout != h.layout() {
                return Err(PipelineError::InvalidJob {
                    reason: format!(
                        "handle #{} bound to `{name}` covers {} ({:?}) but the \
                         program declares {} ({:?})",
                        h.id(),
                        h.bounds(),
                        h.layout(),
                        decl.bounds,
                        decl.layout
                    ),
                });
            }
            if seen_names.contains(&name.as_str()) {
                return Err(PipelineError::InvalidJob {
                    reason: format!("array `{name}` is bound to a handle twice"),
                });
            }
            seen_names.push(name);
            if let Some((_, other)) = seen_ids.iter().find(|(id, _)| *id == h.id()) {
                return Err(PipelineError::HandleConflict {
                    reason: format!(
                        "handle #{} is bound to both `{other}` and `{name}` in one job",
                        h.id()
                    ),
                });
            }
            seen_ids.push((h.id(), name));
        }
        Ok(JobSpec {
            program: self.program,
            nest: self.nest,
            topology: self.topology,
            cfg: self.cfg,
            engine: self.engine,
            store: self.store,
            trace: self.trace,
            tenant: self.tenant,
            priority: self.priority,
            outputs: self.outputs,
            inputs: self.inputs,
            handle_inputs: self
                .handle_inputs
                .into_iter()
                .map(|(n, h)| (n, h.id))
                .collect(),
            handle_outputs: self
                .handle_outputs
                .into_iter()
                .map(|(n, h)| HandleBinding {
                    name: n,
                    checkout: h.id,
                    putback: h.id,
                })
                .collect(),
            loop_exec: None,
            trace_id: self.trace_id,
            submitted_at: None,
        })
    }
}

impl<const R: usize> JobSpec<R> {
    /// Start building a job for `nest` of `program`. Defaults:
    /// 1-processor line, threads engine, [`BlockPolicy::Model2`], Cray
    /// T3E costs, lane kernels, no store, no trace, default tenant,
    /// priority 0.
    pub fn builder(program: Arc<Program<R>>, nest: Arc<CompiledNest<R>>) -> JobSpecBuilder<R> {
        JobSpecBuilder::new(program, nest)
    }

    /// The tenant this job was built for (`None` = the default tenant).
    pub fn tenant_name(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The job's priority within its tenant queue.
    pub fn job_priority(&self) -> u8 {
        self.priority
    }
}

/// The lifecycle spans of one job, measured on the service's monotonic
/// clock: submitted → admitted → (queued) → dispatched → run →
/// drained. The stage durations telescope —
/// `admit + queue + exec + drain == total` up to floating-point
/// rounding (pinned by the property test in `tests/observability.rs`)
/// — and `prep`/`run` break the `exec` span down further using the
/// engine's own timers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// The client-supplied trace ID ([`JobSpecBuilder::trace_id`]), if
    /// any.
    pub trace_id: Option<u64>,
    /// Tenant the job was billed to.
    pub tenant: String,
    /// Submission time, seconds since the owning service started
    /// (a stable per-service epoch for plotting).
    pub start_seconds: f64,
    /// Submitted → admitted: admission control, including any
    /// backpressure blocking in `submit`.
    pub admit_seconds: f64,
    /// Admitted → dispatched: time waiting in the tenant queue.
    pub queue_seconds: f64,
    /// Dispatched → finished: everything the dispatcher did for the
    /// job (cache lookup, prep, run).
    pub exec_seconds: f64,
    /// Planning/kernel-prep part of `exec` (collapses on cache hits).
    pub prep_seconds: f64,
    /// Engine execution part of `exec`.
    pub run_seconds: f64,
    /// Finished → handle fulfilled (bookkeeping and wake-up).
    pub drain_seconds: f64,
    /// Submitted → fulfilled, the job's wall latency inside the
    /// service.
    pub total_seconds: f64,
}

impl JobTrace {
    /// Serialize as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let obj = crate::telemetry::json::JsonObj::new();
        let obj = match self.trace_id {
            Some(id) => obj.uint("trace_id", id),
            None => obj.raw("trace_id", "null"),
        };
        obj.str("tenant", &self.tenant)
            .num("start_seconds", self.start_seconds)
            .num("admit_seconds", self.admit_seconds)
            .num("queue_seconds", self.queue_seconds)
            .num("exec_seconds", self.exec_seconds)
            .num("prep_seconds", self.prep_seconds)
            .num("run_seconds", self.run_seconds)
            .num("drain_seconds", self.drain_seconds)
            .num("total_seconds", self.total_seconds)
            .finish()
    }
}

/// What one completed job returns.
pub struct JobOutcome<const R: usize> {
    /// The engine-independent run outcome (see [`RunOutcome`]); warm
    /// cache hits show up as `prep_seconds` collapsing.
    pub outcome: RunOutcome,
    /// The job's named array outputs (see [`JobSpecBuilder::output`]),
    /// each sharing the job's buffer refcounted. (The positional
    /// `store` field deprecated in 0.7.0 is gone; results flow through
    /// here or stay resident behind output handles.)
    pub outputs: JobOutputs<R>,
    /// Per-chunk statistics when the job was a fused loop chunk
    /// (iterations run, cross-iteration overlap); `None` for plain
    /// jobs.
    pub loop_stats: Option<crate::service::looping::LoopChunkStats>,
    /// The aggregated telemetry report when [`JobSpecBuilder::trace`]
    /// was set.
    pub trace: Option<ExecutionReport>,
    /// The job's lifecycle spans. `Some` for jobs that went through a
    /// service dispatcher; `None` for paths with no queue (none today).
    pub spans: Option<JobTrace>,
}

impl<const R: usize> JobOutcome<R> {
    /// Remove and return the output named `name`, or an
    /// [`PipelineError::InvalidJob`] if the job published no such
    /// output (not declared, or already taken).
    pub fn take_output(&mut self, name: &str) -> Result<JobOutput<R>, PipelineError> {
        self.outputs.take(name).ok_or_else(|| PipelineError::InvalidJob {
            reason: format!("job published no output named `{name}`"),
        })
    }
}

/// The one completion ticket behind [`JobHandle`],
/// [`crate::service::DagHandle`] and [`crate::service::LoopHandle`]:
/// fulfilled once by whoever ran the work, waited on by the caller.
pub(crate) struct Ticket<T> {
    done: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Ticket<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Ticket {
            done: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn fulfil(&self, value: T) {
        *self.done.lock().unwrap() = Some(value);
        self.ready.notify_all();
    }

    /// Block until the ticket is fulfilled; the guard holds `Some`.
    fn resolved(&self) -> MutexGuard<'_, Option<T>> {
        let mut done = self.done.lock().unwrap();
        while done.is_none() {
            done = self.ready.wait(done).unwrap();
        }
        done
    }

    /// Block until the ticket is fulfilled and take its value.
    pub(crate) fn wait(&self) -> T {
        let mut done = self.resolved();
        done.take().expect("resolved ticket holds a value")
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.lock().unwrap().is_some()
    }
}

/// The ticket of one job: what the dispatcher fulfils.
pub(crate) type JobTicket<const R: usize> = Ticket<Result<JobOutcome<R>, PipelineError>>;

/// A ticket for one submitted job.
pub struct JobHandle<const R: usize>(pub(crate) Arc<JobTicket<R>>);

impl<const R: usize> JobHandle<R> {
    /// Block until the job completes and take its outcome. A worker
    /// panic during the job surfaces as [`PipelineError::EnginePanic`];
    /// the service itself survives and keeps serving.
    ///
    /// An admission rejection from
    /// [`crate::service::WavefrontService::try_submit`] resolves the
    /// handle immediately, so `wait()` returns the typed
    /// [`PipelineError::AdmissionDenied`] without blocking.
    pub fn wait(self) -> Result<JobOutcome<R>, PipelineError> {
        self.0.wait()
    }

    /// Whether the job has already completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }

    /// Block until the job completes, then remove and return its output
    /// named `name`. The rest of the outcome stays claimable: further
    /// `take_output` calls return other outputs, and a final
    /// [`JobHandle::wait`] returns the outcome minus what was taken.
    pub fn take_output(&self, name: &str) -> Result<JobOutput<R>, PipelineError> {
        let mut done = self.0.resolved();
        match done.as_mut().expect("resolved ticket holds a value") {
            Ok(outcome) => outcome.take_output(name),
            Err(e) => Err(e.clone()),
        }
    }
}
