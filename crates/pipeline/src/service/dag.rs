//! Dependent job graphs: build a [`DagSpec`], submit it with
//! [`crate::service::WavefrontService::submit_dag`], wait on the
//! [`DagHandle`].
//!
//! A DAG is a set of jobs ([`DagSpecBuilder::add`]) whose edges are the
//! [`crate::service::JobSpecBuilder::input_from`] bindings between
//! them: a node naming a [`NodeRef`] as the producer of one of its
//! arrays depends on that node, and at dispatch the producer's
//! published [`crate::service::JobOutput`] buffer is installed into the
//! consumer's store refcounted — zero copies between jobs, with
//! copy-on-write preserving value semantics if both sides keep writing.
//!
//! Order among ready nodes is a [`SchedulerKind`]'s ranking key: FIFO,
//! critical-path-first, or locality-aware. Nodes still flow through the
//! ordinary tenant queues, so per-tenant admission and fair share apply
//! to DAG nodes exactly as to plain submissions.
//!
//! The same `DagSpec` runs two ways, through one driver (`DagRun`: the
//! ready list, the predecessor counts, the completion worklist that
//! propagates dependency failures, and the stats):
//!
//! * **real** (seq/threads engines): the picked node runs now, on
//!   data, one at a time in the policy's order, and [`DagStats`] reports
//!   wall-clock makespan, the measured critical path, and the
//!   zero-copy counters;
//! * **simulated** (every node on the sim engine): each node is probed
//!   once for its model-units cost, then the picked node is *placed*
//!   onto a virtual machine of [`DagSpecBuilder::sim_procs`]
//!   processors — contiguous blocks, preferring a predecessor's block —
//!   and completes when a virtual clock reaches its finish time, with
//!   the machine model's message cost charged for every
//!   disjoint-placement edge. What-if scheduling at simulated scale,
//!   with the same policy deciding order.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use wavefront_core::array::cow_bytes_copied;
use wavefront_core::program::Store;
use wavefront_machine::MachineParams;

use crate::error::PipelineError;
use crate::service::job::{JobOutcome, JobSpec, JobTopology, Ticket};
use crate::service::output::JobOutput;
use crate::service::scheduler::{DagShape, NodeId, SchedulerKind};
use crate::service::{enqueue, install_input, spawn_runner, Shared};
use crate::telemetry::json::JsonObj;
use crate::telemetry::report::jstr;
use crate::telemetry::{EngineKind, TimeUnit};

/// A node of a DAG being built: returned by [`DagSpecBuilder::add`] and
/// usable as the producer side of
/// [`crate::service::JobSpecBuilder::input_from`].
#[derive(Debug, Clone, Copy)]
pub struct NodeRef {
    pub(crate) index: NodeId,
}

impl NodeRef {
    /// The node's index within its DAG (the order it was added).
    pub fn index(&self) -> NodeId {
        self.index
    }
}

/// One dependency edge, derived from an input binding.
#[derive(Debug, Clone)]
pub(crate) struct DagEdge {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    /// The array name carried across the edge.
    pub(crate) name: String,
    /// Elements of that array (from the producer's declaration).
    pub(crate) elems: u64,
}

/// A validated job graph; build one with [`DagSpec::builder`], run it
/// with [`crate::service::WavefrontService::submit_dag`].
pub struct DagSpec<const R: usize> {
    pub(crate) nodes: Vec<(String, JobSpec<R>)>,
    pub(crate) edges: Vec<DagEdge>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) sim_procs: Option<usize>,
    /// Whether every node runs on the sim engine (the what-if mode).
    pub(crate) sim: bool,
}

impl<const R: usize> DagSpec<R> {
    /// Start building a DAG.
    pub fn builder() -> DagSpecBuilder<R> {
        DagSpecBuilder::new()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes (never true for a built spec).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Accumulates nodes and knobs for a [`DagSpec`]; see the module docs.
///
/// ```ignore
/// let mut b = DagSpec::builder();
/// let first = b.add(JobSpec::builder(prog.clone(), nest0.clone())
///     .store(store).build()?);
/// b.add(JobSpec::builder(prog.clone(), nest1.clone())
///     .input_from(first, "phi")
///     .build()?);
/// let dag = b.scheduler(SchedulerKind::Locality).build()?;
/// ```
pub struct DagSpecBuilder<const R: usize> {
    nodes: Vec<(String, JobSpec<R>)>,
    scheduler: SchedulerKind,
    sim_procs: Option<usize>,
}

impl<const R: usize> Default for DagSpecBuilder<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const R: usize> DagSpecBuilder<R> {
    /// An empty builder (FIFO scheduler by default).
    pub fn new() -> Self {
        DagSpecBuilder {
            nodes: Vec::new(),
            scheduler: SchedulerKind::Fifo,
            sim_procs: None,
        }
    }

    /// Add a node labelled `node<i>`; the returned [`NodeRef`] feeds
    /// later nodes' `input_from` bindings.
    pub fn add(&mut self, spec: JobSpec<R>) -> NodeRef {
        let label = format!("node{}", self.nodes.len());
        self.add_labeled(label, spec)
    }

    /// Add a node with an explicit label (shown in [`DagStats`] and
    /// addressable via [`DagOutcome::node`]).
    pub fn add_labeled(&mut self, label: impl Into<String>, spec: JobSpec<R>) -> NodeRef {
        let index = self.nodes.len();
        self.nodes.push((label.into(), spec));
        NodeRef { index }
    }

    /// Pick one of the built-in scheduling policies (default FIFO).
    pub fn scheduler(&mut self, kind: SchedulerKind) -> &mut Self {
        self.scheduler = kind;
        self
    }

    /// Size of the virtual machine a sim-engine DAG is placed onto
    /// (default: the widest node's processor count). Ignored by real
    /// runs.
    pub fn sim_procs(&mut self, procs: usize) -> &mut Self {
        self.sim_procs = Some(procs);
        self
    }

    /// Validate the graph and produce the [`DagSpec`]: every input
    /// binding must reference a node of this DAG that
    /// publishes the named array, the graph must be acyclic
    /// ([`PipelineError::CyclicDag`] otherwise), and engines must be
    /// all-sim or all-real.
    pub fn build(self) -> Result<DagSpec<R>, PipelineError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(PipelineError::InvalidJob {
                reason: "a dag needs at least one node".into(),
            });
        }
        let sims = self
            .nodes
            .iter()
            .filter(|(_, s)| matches!(s.engine, EngineKind::Sim))
            .count();
        if sims != 0 && sims != n {
            return Err(PipelineError::InvalidJob {
                reason: "a dag must run either entirely on the sim engine or entirely on \
                         real engines"
                    .into(),
            });
        }
        let mut edges = Vec::new();
        for (to, (label, spec)) in self.nodes.iter().enumerate() {
            for b in &spec.inputs {
                let from = b.from;
                if from >= n {
                    return Err(PipelineError::InvalidJob {
                        reason: format!(
                            "node `{label}` consumes from node index {from}, but the dag \
                             has only {n} nodes"
                        ),
                    });
                }
                let (p_label, p_spec) = &self.nodes[from];
                let publishes = if p_spec.outputs.is_empty() {
                    p_spec.program.find(&b.name).is_some()
                } else {
                    p_spec.outputs.iter().any(|o| o == &b.name)
                };
                if !publishes {
                    return Err(PipelineError::InvalidJob {
                        reason: format!(
                            "node `{p_label}` does not publish an output named `{}`",
                            b.name
                        ),
                    });
                }
                let id = p_spec.program.find(&b.name).expect("publish check passed");
                let elems = p_spec.program.arrays()[id].bounds.len() as u64;
                edges.push(DagEdge {
                    from,
                    to,
                    name: b.name.clone(),
                    elems,
                });
            }
        }
        reject_cycles(&self.nodes, &edges)?;
        Ok(DagSpec {
            sim: sims == n,
            nodes: self.nodes,
            edges,
            scheduler: self.scheduler,
            sim_procs: self.sim_procs,
        })
    }
}

/// Kahn's algorithm; any residue is a cycle, reported in edge order as
/// [`PipelineError::CyclicDag`].
fn reject_cycles<const R: usize>(
    nodes: &[(String, JobSpec<R>)],
    edges: &[DagEdge],
) -> Result<(), PipelineError> {
    let n = nodes.len();
    let mut preds = vec![Vec::new(); n];
    let mut in_deg = vec![0usize; n];
    for e in edges {
        preds[e.to].push(e.from);
        in_deg[e.to] += 1;
    }
    let mut queue: VecDeque<NodeId> = (0..n).filter(|&v| in_deg[v] == 0).collect();
    let mut remaining = n;
    let mut alive = vec![true; n];
    while let Some(v) = queue.pop_front() {
        alive[v] = false;
        remaining -= 1;
        for e in edges.iter().filter(|e| e.from == v) {
            in_deg[e.to] -= 1;
            if in_deg[e.to] == 0 {
                queue.push_back(e.to);
            }
        }
    }
    if remaining == 0 {
        return Ok(());
    }
    // Walk predecessors inside the residue until a node repeats; the
    // repeated stretch, reversed, is one cycle in edge order.
    let start = (0..n).find(|&v| alive[v]).expect("residue is non-empty");
    let mut pos = vec![usize::MAX; n];
    let mut path = vec![start];
    pos[start] = 0;
    loop {
        let cur = *path.last().expect("path is non-empty");
        let p = *preds[cur]
            .iter()
            .find(|&&p| alive[p])
            .expect("residue nodes keep a live predecessor");
        if pos[p] != usize::MAX {
            let mut cycle: Vec<String> = path[pos[p]..]
                .iter()
                .rev()
                .map(|&v| nodes[v].0.clone())
                .collect();
            let first = cycle[0].clone();
            cycle.push(first);
            return Err(PipelineError::CyclicDag { nodes: cycle });
        }
        pos[p] = path.len();
        path.push(p);
    }
}

/// One scheduler dispatch, as recorded in [`DagStats::decisions`].
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchDecision {
    /// Dispatch sequence number (0-based).
    pub order: usize,
    /// The dispatched node.
    pub node: NodeId,
    /// Its label.
    pub label: String,
    /// Simulated placement as `(first processor, width)`; `None` on
    /// real runs (the whole worker pool executes each node).
    pub placement: Option<(usize, usize)>,
    /// Elements this node received from its predecessors at dispatch.
    pub transfer_elems: u64,
}

impl DispatchDecision {
    fn to_json(&self) -> String {
        let placement = match self.placement {
            Some((start, len)) => format!("[{start},{len}]"),
            None => "null".to_string(),
        };
        JsonObj::new()
            .uint("order", self.order as u64)
            .uint("node", self.node as u64)
            .str("label", &self.label)
            .raw("placement", &placement)
            .uint("transfer_elems", self.transfer_elems)
            .finish()
    }
}

/// What one DAG execution measured; exported through
/// [`crate::service::WavefrontService::stats_json`] under `"dags"`.
#[derive(Debug, Clone)]
pub struct DagStats {
    /// Service-lifetime DAG sequence number.
    pub dag_id: u64,
    /// Name of the scheduling policy that ordered the nodes.
    pub scheduler: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// End-to-end time: wall seconds (real) or the final simulated
    /// clock (sim).
    pub makespan: f64,
    /// Unit of `makespan`, `serial_time`, and `critical_path_time`.
    pub time_unit: TimeUnit,
    /// Sum of all node durations — what a one-node-at-a-time serial
    /// execution would cost.
    pub serial_time: f64,
    /// Labels along the longest measured dependency chain.
    pub critical_path: Vec<String>,
    /// Duration of that chain.
    pub critical_path_time: f64,
    /// Every dispatch, in order.
    pub decisions: Vec<DispatchDecision>,
    /// Bytes handed between jobs by refcount (no copy).
    pub bytes_shared: u64,
    /// Copy-on-write bytes actually copied while the DAG ran (global
    /// counter delta; 0 means fully zero-copy chaining).
    pub cow_bytes_copied: u64,
    /// Simulated inter-block transfers charged (always 0 on real runs).
    pub transfers: u64,
    /// Nodes that resolved to an error (own failure or a failed
    /// dependency).
    pub failed: usize,
}

impl DagStats {
    /// Serialize as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let path: Vec<String> = self.critical_path.iter().map(|l| jstr(l)).collect();
        let decisions: Vec<String> = self.decisions.iter().map(|d| d.to_json()).collect();
        JsonObj::new()
            .uint("dag_id", self.dag_id)
            .str("scheduler", &self.scheduler)
            .uint("nodes", self.nodes as u64)
            .uint("edges", self.edges as u64)
            .num("makespan", self.makespan)
            .str("time_unit", self.time_unit.name())
            .num("serial_time", self.serial_time)
            .arr("critical_path", path)
            .num("critical_path_time", self.critical_path_time)
            .arr("decisions", decisions)
            .uint("bytes_shared", self.bytes_shared)
            .uint("cow_bytes_copied", self.cow_bytes_copied)
            .uint("transfers", self.transfers)
            .uint("failed", self.failed as u64)
            .finish()
    }
}

/// One node's terminal state inside a [`DagOutcome`].
pub struct NodeResult<const R: usize> {
    /// The node's label.
    pub label: String,
    /// Its outcome: the job's result, or the typed error that stopped
    /// it (its own, or [`PipelineError::DependencyFailed`] when a
    /// predecessor failed first).
    pub result: Result<JobOutcome<R>, PipelineError>,
}

/// Everything a completed DAG resolves to.
pub struct DagOutcome<const R: usize> {
    /// Per-node results, in node order.
    pub nodes: Vec<NodeResult<R>>,
    /// The run's measurements.
    pub stats: DagStats,
}

impl<const R: usize> DagOutcome<R> {
    /// The result of the node labelled `label`.
    pub fn node(&self, label: &str) -> Option<&NodeResult<R>> {
        self.nodes.iter().find(|r| r.label == label)
    }

    /// Remove and return the output `name` of the node labelled
    /// `label`; typed errors for an unknown node, a failed node, or a
    /// missing output.
    pub fn take_output(&mut self, label: &str, name: &str) -> Result<JobOutput<R>, PipelineError> {
        let node = self
            .nodes
            .iter_mut()
            .find(|r| r.label == label)
            .ok_or_else(|| PipelineError::InvalidJob {
                reason: format!("dag has no node labelled `{label}`"),
            })?;
        match &mut node.result {
            Ok(out) => out.take_output(name),
            Err(e) => Err(e.clone()),
        }
    }

    /// Whether every node completed successfully.
    pub fn all_ok(&self) -> bool {
        self.stats.failed == 0
    }
}

/// A ticket for one submitted DAG.
pub struct DagHandle<const R: usize>(Arc<Ticket<DagOutcome<R>>>);

impl<const R: usize> DagHandle<R> {
    /// Block until every node resolved and take the [`DagOutcome`].
    /// Node failures are carried per node, not raised here — inspect
    /// [`DagOutcome::nodes`] / [`DagOutcome::all_ok`].
    pub fn wait(self) -> DagOutcome<R> {
        self.0.wait()
    }

    /// Whether the DAG has already completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// Start one DAG's runner thread (see [`spawn_runner`]). If the runner
/// itself panics (an internal error), every node still open
/// fails typed with the panic; the handle never hangs.
pub(crate) fn spawn_dag<const R: usize>(shared: &Arc<Shared<R>>, spec: DagSpec<R>) -> DagHandle<R> {
    let (run, work) = DagRun::new(shared.next_dag_id(), spec);
    DagHandle(spawn_runner(
        shared,
        run,
        move |shared, run| work.drive(shared, run),
        |shared, mut run, ran| {
            if let Err(e) = ran {
                run.fail_rest(e);
            }
            let outcome = run.into_outcome();
            shared.record_dag_stats(outcome.stats.clone());
            outcome
        },
    ))
}

/// Run one DAG to completion on the calling thread: the loop runner's
/// per-step body executor.
pub(crate) fn run_dag<const R: usize>(
    shared: &Shared<R>,
    spec: DagSpec<R>,
    dag_id: u64,
) -> DagOutcome<R> {
    let (mut run, work) = DagRun::new(dag_id, spec);
    work.drive(shared, &mut run);
    run.into_outcome()
}

/// The one DAG driver, shared by real and simulated execution: the
/// shape, the ready list and its policy, predecessor counting, the
/// completion worklist, and the stats. A mode decides only what
/// "dispatch the picked node" means — run it now, or place it on a
/// virtual machine and complete it when a virtual clock says so.
struct DagRun<const R: usize> {
    shape: DagShape,
    kind: SchedulerKind,
    /// Nodes whose predecessors all succeeded, not yet dispatched, in
    /// the order they became ready.
    ready: Vec<NodeId>,
    /// Unresolved predecessors per node.
    pending: Vec<usize>,
    results: Vec<Option<Result<JobOutcome<R>, PipelineError>>>,
    /// Completion tick per node, the locality policy's recency signal.
    done_at: Vec<Option<u64>>,
    tick: u64,
    /// Measured duration per node (0 for a node that failed or never
    /// ran).
    durations: Vec<f64>,
    /// Filled as the run goes: decisions by [`DagRun::decide`], the
    /// mode's totals by its driver, the rest by
    /// [`DagRun::into_outcome`].
    stats: DagStats,
}

/// What is left of a [`DagSpec`] once its shape and policy moved into
/// the [`DagRun`]: the jobs to execute.
struct DagWork<const R: usize> {
    nodes: Vec<JobSpec<R>>,
    edges: Vec<DagEdge>,
    sim_procs: Option<usize>,
    sim: bool,
}

impl<const R: usize> DagWork<R> {
    fn drive(self, shared: &Shared<R>, run: &mut DagRun<R>) {
        if self.sim {
            drive_sim(shared, run, self.nodes, self.sim_procs);
        } else {
            drive_real(shared, run, self.nodes, &self.edges);
        }
    }
}

impl<const R: usize> DagRun<R> {
    fn new(dag_id: u64, spec: DagSpec<R>) -> (Self, DagWork<R>) {
        let DagSpec {
            nodes,
            edges,
            scheduler,
            sim_procs,
            sim,
        } = spec;
        let n = nodes.len();
        let cost = nodes
            .iter()
            .map(|(_, s)| s.nest.region.len() as f64)
            .collect();
        let (labels, nodes): (Vec<String>, Vec<JobSpec<R>>) = nodes.into_iter().unzip();
        let shape_edges: Vec<(NodeId, NodeId, u64)> =
            edges.iter().map(|e| (e.from, e.to, e.elems)).collect();
        let shape = DagShape::new(labels, cost, &shape_edges);
        let pending: Vec<usize> = shape.preds.iter().map(Vec::len).collect();
        let run = DagRun {
            kind: scheduler,
            ready: (0..n).filter(|&v| pending[v] == 0).collect(),
            pending,
            results: (0..n).map(|_| None).collect(),
            done_at: vec![None; n],
            tick: 0,
            durations: vec![0.0; n],
            stats: DagStats {
                dag_id,
                scheduler: scheduler.name().into(),
                nodes: n,
                edges: edges.len(),
                makespan: 0.0,
                time_unit: if sim {
                    TimeUnit::ModelUnits
                } else {
                    TimeUnit::Seconds
                },
                serial_time: 0.0,
                critical_path: Vec::new(),
                critical_path_time: 0.0,
                decisions: Vec::new(),
                bytes_shared: 0,
                cow_bytes_copied: 0,
                transfers: 0,
                failed: 0,
            },
            shape,
        };
        let work = DagWork {
            nodes,
            edges,
            sim_procs,
            sim,
        };
        (run, work)
    }

    fn finished(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// The next node to dispatch, in the policy's order; `None` while
    /// nothing is ready.
    fn next(&mut self) -> Option<NodeId> {
        if self.ready.is_empty() {
            return None;
        }
        let v = self.ready.remove(self.kind.pick(&self.ready, &self.shape, &self.done_at));
        debug_assert!(self.pending[v] == 0 && self.results[v].is_none(), "node {v} is not ready");
        Some(v)
    }

    /// Record the dispatch of `v` (`placement` is the simulated block).
    fn decide(&mut self, v: NodeId, placement: Option<(usize, usize)>, transfer_elems: u64) {
        self.stats.decisions.push(DispatchDecision {
            order: self.stats.decisions.len(),
            node: v,
            label: self.shape.labels[v].clone(),
            placement,
            transfer_elems,
        });
    }

    /// Resolve `v` with `res`, then everything that resolves with it:
    /// the one completion worklist. A successor whose last predecessor
    /// just resolved becomes ready — or, if any predecessor failed,
    /// fails with [`PipelineError::DependencyFailed`] without running,
    /// which may in turn resolve its own successors.
    fn complete(&mut self, v: NodeId, res: Result<JobOutcome<R>, PipelineError>) {
        let mut work = vec![(v, res)];
        while let Some((u, res)) = work.pop() {
            self.durations[u] = res.as_ref().map_or(0.0, |o| o.outcome.makespan);
            self.results[u] = Some(res);
            self.done_at[u] = Some(self.tick);
            self.tick += 1;
            for &s in &self.shape.succs[u] {
                self.pending[s] -= 1;
                if self.pending[s] > 0 || self.results[s].is_some() {
                    continue;
                }
                let failed_pred = self.shape.preds[s].iter().find_map(|&(p, _)| {
                    match &self.results[p] {
                        Some(Err(e)) => Some((p, e.clone())),
                        _ => None,
                    }
                });
                match failed_pred {
                    Some((p, e)) => work.push((
                        s,
                        Err(PipelineError::DependencyFailed {
                            producer: self.shape.labels[p].clone(),
                            error: Box::new(e),
                        }),
                    )),
                    None => self.ready.push(s),
                }
            }
        }
    }

    /// Resolve every node still open to `e`: how a run that cannot go on
    /// (a panicked runner, broken bookkeeping) still ends with every
    /// node accounted for.
    fn fail_rest(&mut self, e: PipelineError) {
        for r in self.results.iter_mut().filter(|r| r.is_none()) {
            *r = Some(Err(e.clone()));
        }
    }

    fn into_outcome(self) -> DagOutcome<R> {
        let mut stats = self.stats;
        (stats.critical_path, stats.critical_path_time) =
            measured_critical_path(&self.shape, &self.done_at, &self.durations);
        stats.serial_time = self.durations.iter().sum();
        stats.failed = self
            .results
            .iter()
            .filter(|r| matches!(r, Some(Err(_))))
            .count();
        DagOutcome {
            nodes: self
                .shape
                .labels
                .into_iter()
                .zip(self.results)
                .map(|(label, r)| NodeResult {
                    label,
                    result: r.expect("every node resolved"),
                })
                .collect(),
            stats,
        }
    }
}

/// Fail what is left of a run whose driver found nothing to dispatch and
/// nothing in flight: every open node waits on a predecessor, which is
/// impossible in an acyclic graph unless bookkeeping broke.
fn fail_stuck<const R: usize>(run: &mut DagRun<R>) {
    run.fail_rest(PipelineError::InvalidJob {
        reason: "internal: the dag is unfinished but no node can be dispatched".into(),
    });
}

/// Real execution: the picked node runs now. One node at a time, in
/// the policy's order, chaining outputs refcounted.
fn drive_real<const R: usize>(
    shared: &Shared<R>,
    run: &mut DagRun<R>,
    nodes: Vec<JobSpec<R>>,
    edges: &[DagEdge],
) {
    let mut specs: Vec<Option<JobSpec<R>>> = nodes.into_iter().map(Some).collect();
    let mut edge_out: Vec<Option<JobOutput<R>>> = edges.iter().map(|_| None).collect();
    let cow0 = cow_bytes_copied();
    let wall0 = Instant::now();
    while !run.finished() {
        let Some(v) = run.next() else {
            fail_stuck(run);
            break;
        };
        let spec = specs[v].take().expect("dispatched node still has its spec");
        let mut transfer_elems = 0u64;
        let mut result =
            resolve_and_run(shared, spec, v, edges, &mut edge_out, &mut transfer_elems);
        run.stats.bytes_shared += transfer_elems * 8;
        run.decide(v, None, transfer_elems);
        if let Ok(outc) = result.as_mut() {
            publish_outputs(outc, v, edges, &mut edge_out);
        }
        run.complete(v, result);
    }
    run.stats.makespan = wall0.elapsed().as_secs_f64();
    run.stats.cow_bytes_copied = cow_bytes_copied() - cow0;
}

/// Move the inputs of `spec` from their edge slots into its store
/// (refcounted, zero-copy), then run it through the admission door and
/// wait. The outcome carries no store (results flow through published
/// outputs only), so chaining stays zero-copy by construction.
fn resolve_and_run<const R: usize>(
    shared: &Shared<R>,
    mut spec: JobSpec<R>,
    v: NodeId,
    edges: &[DagEdge],
    edge_out: &mut [Option<JobOutput<R>>],
    transfer_elems: &mut u64,
) -> Result<JobOutcome<R>, PipelineError> {
    let program = Arc::clone(&spec.program);
    for b in std::mem::take(&mut spec.inputs) {
        let ei = edges
            .iter()
            .position(|e| e.from == b.from && e.to == v && e.name == b.name)
            .expect("edge was derived from this binding at build");
        let out = edge_out[ei].take().ok_or_else(|| PipelineError::InvalidJob {
            reason: format!(
                "internal: output `{}` of node {} was not published",
                b.name, b.from
            ),
        })?;
        let st = spec.store.get_or_insert_with(|| Store::new(&program));
        install_input(st, &program, &out, &b.name)?;
        *transfer_elems += out.len() as u64;
        // `out` drops here: the consumer's store now holds the only
        // DAG-side reference, so its writes stay copy-free.
    }
    enqueue(shared, spec, true).wait()
}

/// Publish node `v`'s outputs onto its outgoing edges: *taken* from the
/// outcome (not cloned) so each buffer has exactly one DAG-side owner.
fn publish_outputs<const R: usize>(
    outc: &mut JobOutcome<R>,
    v: NodeId,
    edges: &[DagEdge],
    edge_out: &mut [Option<JobOutput<R>>],
) {
    let mut taken: Vec<JobOutput<R>> = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        if e.from != v {
            continue;
        }
        let out = if let Some(prev) = taken.iter().find(|o| o.name() == e.name) {
            prev.clone()
        } else {
            let Some(o) = outc.outputs.take(&e.name) else {
                continue; // validated at build; defensive
            };
            if edges.iter().filter(|e2| e2.from == v && e2.name == e.name).count() > 1 {
                taken.push(o.clone());
            }
            o
        };
        edge_out[ei] = Some(out);
    }
}

/// Longest dependency chain over *measured* durations. Completion ticks
/// give a valid topological order (a node only finishes after its
/// predecessors).
fn measured_critical_path(
    shape: &DagShape,
    done_at: &[Option<u64>],
    durations: &[f64],
) -> (Vec<String>, f64) {
    let n = durations.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&v| done_at[v].unwrap_or(u64::MAX));
    let mut dist = durations.to_vec();
    let mut best_pred: Vec<Option<NodeId>> = vec![None; n];
    for &v in &order {
        for &(p, _) in &shape.preds[v] {
            if dist[p] + durations[v] > dist[v] {
                dist[v] = dist[p] + durations[v];
                best_pred[v] = Some(p);
            }
        }
    }
    let end = (0..n)
        .max_by(|&a, &b| dist[a].total_cmp(&dist[b]))
        .expect("n > 0");
    let mut path = vec![end];
    while let Some(p) = best_pred[*path.last().expect("path non-empty")] {
        path.push(p);
    }
    path.reverse();
    (
        path.iter().map(|&v| shape.labels[v].clone()).collect(),
        dist[end],
    )
}

/// Find a contiguous block of `len` free processors, preferring one
/// starting at `prefer` (a predecessor's block) before first-fit.
fn find_block(free: &[bool], len: usize, prefer: Option<usize>) -> Option<usize> {
    let fits = |start: usize| (start..start + len).all(|i| free[i]);
    if let Some(s) = prefer {
        if s + len <= free.len() && fits(s) {
            return Some(s);
        }
    }
    (0..=free.len() - len).find(|&s| fits(s))
}

/// What-if execution: probe each node's model-units cost through the sim
/// engine, then place the picked node on a virtual machine and complete
/// it when the virtual clock reaches its finish, charging the machine
/// model's message cost whenever an edge crosses disjoint processor
/// blocks. Only the placement and the clock live here; order, readiness
/// and failure propagation are the [`DagRun`]'s.
fn drive_sim<const R: usize>(
    shared: &Shared<R>,
    run: &mut DagRun<R>,
    nodes: Vec<JobSpec<R>>,
    sim_procs: Option<usize>,
) {
    let procs_of: Vec<usize> = nodes
        .iter()
        .map(|s| match s.topology {
            JobTopology::Line { procs, .. } => procs,
            JobTopology::Mesh { mesh, .. } => mesh[0] * mesh[1],
        })
        .collect();
    let machine_of: Vec<MachineParams> = nodes.iter().map(|s| s.cfg.machine).collect();
    // Probe every node once for its model-units makespan. Node inputs
    // carry no data on the sim engine, so the probes are independent.
    let mut probes: Vec<Option<Result<JobOutcome<R>, PipelineError>>> = nodes
        .into_iter()
        .map(|mut s| {
            s.inputs.clear();
            Some(enqueue(shared, s, true).wait())
        })
        .collect();

    let p_total = sim_procs
        .unwrap_or_else(|| procs_of.iter().copied().max().unwrap_or(1))
        .max(1);
    let mut free = vec![true; p_total];
    let mut block_of: Vec<Option<(usize, usize)>> = vec![None; procs_of.len()];
    // Nodes running on the virtual machine: (finish clock, node).
    let mut running: Vec<(f64, NodeId)> = Vec::new();
    // A node granted its dispatch slot that found no free block yet.
    let mut waiting: Option<NodeId> = None;
    let mut clock = 0.0f64;

    while !run.finished() {
        // Place nodes until nothing fits (the waiting one first).
        while let Some(v) = waiting.take().or_else(|| run.next()) {
            // A node whose probe failed completes at once, placed
            // nowhere; the worklist fails its successors.
            let duration = match &probes[v] {
                Some(Ok(probe)) => probe.outcome.makespan,
                _ => {
                    let res = probes[v].take().expect("probe result present");
                    run.complete(v, res);
                    continue;
                }
            };
            let len = procs_of[v].min(p_total);
            let prefer = run.shape.preds[v]
                .iter()
                .filter_map(|&(p, _)| run.done_at[p].map(|t| (t, block_of[p])))
                .max_by_key(|&(t, _)| t)
                .and_then(|(_, b)| b.map(|(start, _)| start));
            let Some(start) = find_block(&free, len, prefer) else {
                waiting = Some(v);
                break;
            };
            free[start..start + len].fill(false);
            // Charge the machine model for every edge whose producer
            // ran on a disjoint block.
            let mut xfer = 0.0f64;
            let mut xelems = 0u64;
            for &(p, elems) in &run.shape.preds[v] {
                if let Some((ps, pl)) = block_of[p] {
                    let overlap = ps < start + len && start < ps + pl;
                    if !overlap {
                        xfer += machine_of[v].msg_cost(elems as usize);
                        xelems += elems;
                        run.stats.transfers += 1;
                    }
                }
            }
            block_of[v] = Some((start, len));
            run.decide(v, Some((start, len)), xelems);
            running.push((clock + xfer + duration, v));
        }
        if run.finished() {
            break;
        }
        // Advance the clock to the next completion.
        let Some(i) = running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .map(|(i, _)| i)
        else {
            fail_stuck(run);
            break;
        };
        let (finish, v) = running.swap_remove(i);
        clock = clock.max(finish);
        let (start, len) = block_of[v].expect("running node was placed");
        free[start..start + len].fill(true);
        let res = probes[v].take().expect("probe result present");
        run.complete(v, res);
    }
    run.stats.makespan = clock;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WavefrontService;
    use wavefront_core::expr::Expr;
    use wavefront_core::program::Program;
    use wavefront_core::region::Region;

    fn trivial_spec(engine: EngineKind) -> JobSpec<2> {
        let bounds = Region::rect([0, 0], [7, 7]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        prog.stmt(
            Region::rect([1, 1], [7, 7]),
            a,
            Expr::lit(1.0) + Expr::read_primed_at(a, [-1, 0]),
        );
        let compiled = wavefront_core::exec::compile(&prog).unwrap();
        let nest = Arc::new(compiled.nest(0).clone());
        let prog = Arc::new(prog);
        let mut b = JobSpec::builder(Arc::clone(&prog), nest).engine(engine);
        if !matches!(engine, EngineKind::Sim) {
            b = b.store(Store::new(&prog));
        }
        b.build().unwrap()
    }

    /// `DagSpec` holds job specs, which are not `Debug`; rejection
    /// tests unwrap the error by hand.
    fn build_err<const R: usize>(b: DagSpecBuilder<R>) -> PipelineError {
        match b.build() {
            Err(e) => e,
            Ok(_) => panic!("expected the build to be rejected"),
        }
    }

    #[test]
    fn empty_dag_is_rejected() {
        let err = build_err(DagSpec::<2>::builder());
        assert!(matches!(err, PipelineError::InvalidJob { .. }));
    }

    #[test]
    fn mixed_engines_are_rejected() {
        let mut b = DagSpec::<2>::builder();
        b.add(trivial_spec(EngineKind::Sim));
        b.add(trivial_spec(EngineKind::Threads));
        let err = build_err(b);
        assert!(err.to_string().contains("entirely"), "{err}");
    }

    #[test]
    fn cycle_is_rejected_typed() {
        // NodeRefs are forward-only within one builder, so a cycle
        // needs refs minted elsewhere — which is exactly the misuse the
        // validator must catch.
        let r0 = NodeRef { index: 0 };
        let r1 = NodeRef { index: 1 };
        let bounds = Region::rect([0, 0], [3, 3]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        prog.stmt(bounds, a, Expr::lit(1.0));
        let compiled = wavefront_core::exec::compile(&prog).unwrap();
        let nest = Arc::new(compiled.nest(0).clone());
        let prog = Arc::new(prog);
        let mut b = DagSpec::<2>::builder();
        b.add_labeled(
            "x",
            JobSpec::builder(Arc::clone(&prog), Arc::clone(&nest))
                .engine(EngineKind::Sim)
                .input_from(r1, "a")
                .build()
                .unwrap(),
        );
        b.add_labeled(
            "y",
            JobSpec::builder(Arc::clone(&prog), nest)
                .engine(EngineKind::Sim)
                .input_from(r0, "a")
                .build()
                .unwrap(),
        );
        match b.build() {
            Err(PipelineError::CyclicDag { nodes }) => {
                assert_eq!(nodes.first(), nodes.last());
                assert!(nodes.len() >= 3, "{nodes:?}");
            }
            other => panic!("expected CyclicDag, got {:?}", other.err()),
        }
    }

    #[test]
    fn out_of_range_node_ref_is_rejected() {
        let ghost = NodeRef { index: 7 };
        let bounds = Region::rect([0, 0], [3, 3]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        prog.stmt(bounds, a, Expr::lit(1.0));
        let compiled = wavefront_core::exec::compile(&prog).unwrap();
        let nest = Arc::new(compiled.nest(0).clone());
        let mut b = DagSpec::<2>::builder();
        b.add(
            JobSpec::builder(Arc::new(prog), nest)
                .engine(EngineKind::Sim)
                .input_from(ghost, "a")
                .build()
                .unwrap(),
        );
        let err = build_err(b);
        assert!(err.to_string().contains("only 1 nodes"), "{err}");
    }

    #[test]
    fn single_node_dag_runs_and_reports() {
        let service = WavefrontService::<2>::new();
        let mut b = DagSpec::<2>::builder();
        b.add_labeled("only", trivial_spec(EngineKind::Threads));
        let out = service.submit_dag(b.build().unwrap()).wait();
        assert!(
            out.all_ok(),
            "node failed: {:?}",
            out.nodes[0].result.as_ref().err()
        );
        assert_eq!(out.stats.nodes, 1);
        assert_eq!(out.stats.critical_path, vec!["only".to_string()]);
        assert_eq!(out.stats.decisions.len(), 1);
        let json = out.stats.to_json();
        assert!(json.contains("\"scheduler\":\"fifo\""), "{json}");
        crate::telemetry::JsonValue::parse(&json).expect("valid json");
    }

    #[test]
    fn find_block_prefers_and_falls_back() {
        let mut free = vec![true; 8];
        assert_eq!(find_block(&free, 4, Some(4)), Some(4));
        free[5] = false;
        assert_eq!(find_block(&free, 4, Some(4)), Some(0), "falls back to first fit");
        assert_eq!(find_block(&free, 8, None), None);
    }

    /// A ten-node DAG with ties on every key: entries 1 and 2 tie on
    /// upward rank (105), as do 3 and 4 (41) and 6 and 9 (16); 3 and 4
    /// hang off the same producer, so they also tie on freshest input
    /// and input volume; 6 and 9 both see 4 as their freshest input, and
    /// 9 takes 3's output too, so volume alone splits them. Every array
    /// is 10x10 (100 elements per edge); a node's cost is its region.
    fn tie_dag(engine: EngineKind, kind: SchedulerKind) -> DagSpec<2> {
        let bounds = Region::rect([0, 0], [9, 9]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        let node = |side: i64, inputs: &[(usize, &str)]| {
            let mut p = prog.clone();
            p.stmt(
                Region::rect([1, 1], [side, side]),
                a,
                Expr::lit(1.0) + Expr::read_primed_at(a, [-1, 0]) + Expr::read_at(b, [0, 0]),
            );
            let nest = Arc::new(wavefront_core::exec::compile(&p).unwrap().nest(0).clone());
            let p = Arc::new(p);
            let mut spec = JobSpec::builder(Arc::clone(&p), nest).engine(engine);
            if !matches!(engine, EngineKind::Sim) {
                spec = spec.store(Store::new(&p));
            }
            for &(from, name) in inputs {
                spec = spec.input_from(NodeRef { index: from }, name);
            }
            spec.build().unwrap()
        };
        let mut d = DagSpec::<2>::builder();
        for (side, inputs) in [
            (5, &[][..]),
            (5, &[]),
            (5, &[]),
            (5, &[(0, "a")]),
            (5, &[(0, "a")]),
            (4, &[(1, "a"), (2, "b")]),
            (4, &[(4, "a")]),
            (8, &[(5, "a")]),
            (5, &[(1, "a")]),
            (4, &[(3, "a"), (4, "b")]),
        ] {
            d.add(node(side, inputs));
        }
        d.scheduler(kind).sim_procs(2);
        d.build().unwrap()
    }

    /// Each policy's dispatch sequence on both drivers, pinned node for
    /// node, so a change to any key or to the tie-break shows.
    #[test]
    fn each_policy_dispatches_in_its_pinned_order() {
        use SchedulerKind::{CriticalPath, Fifo, Locality};
        let pinned: [(EngineKind, SchedulerKind, [NodeId; 10]); 6] = [
            (EngineKind::Seq, Fifo, [0, 1, 2, 3, 4, 8, 5, 6, 9, 7]),
            (EngineKind::Seq, CriticalPath, [1, 2, 5, 0, 7, 3, 4, 8, 6, 9]),
            (EngineKind::Seq, Locality, [0, 3, 4, 9, 6, 1, 8, 2, 5, 7]),
            (EngineKind::Sim, Fifo, [0, 1, 2, 3, 4, 8, 5, 6, 9, 7]),
            (EngineKind::Sim, CriticalPath, [1, 2, 0, 8, 5, 3, 4, 7, 6, 9]),
            (EngineKind::Sim, Locality, [0, 1, 2, 3, 8, 5, 4, 9, 6, 7]),
        ];
        let service = WavefrontService::<2>::new();
        for (engine, kind, expected) in pinned {
            let out = service.submit_dag(tie_dag(engine, kind)).wait();
            assert!(out.all_ok(), "{engine:?} {kind:?}");
            assert_eq!(out.stats.scheduler, kind.name());
            let order: Vec<NodeId> = out.stats.decisions.iter().map(|d| d.node).collect();
            assert_eq!(order, expected, "{engine:?} {kind:?}");
        }
    }
}
