//! Time-stepping loops over resident arrays: build a [`LoopSpec`],
//! submit it with [`crate::service::WavefrontService::submit_loop`],
//! wait on the [`LoopHandle`].
//!
//! A loop re-runs one *body* — a single job or a whole DAG whose arrays
//! are bound to resident [`crate::service::ArrayHandle`]s — for a fixed
//! number of steps or until a convergence callback fires, applying a
//! **handle rotation map** between steps (`next` → `curr` is the
//! classic double-buffer step). The rotation renames buffers, it never
//! copies them.
//!
//! ## Cross-iteration pipelining
//!
//! Eligible bodies — a single job on the threads engine, line or mesh
//! — run **fused**: many iterations inside one engine invocation (see
//! `exec_threads::execute_threaded`), where a worker whose
//! blocks have drained iteration *k* immediately starts iteration
//! *k+1*'s fill. That lifts the paper's fill/steady/drain staircase one
//! level up: the drain of one sweep overlaps the fill of the next, and
//! the per-iteration busy spans the engine reports quantify the overlap
//! ([`LoopStats::overlap_seconds`]). The sweeps run in place on the
//! resident buffers, and a rotation permutes each worker's table of
//! array views. Rotations fuse only when the rotated arrays are read
//! pointwise (a shifted read would reach a neighbour's rows before the
//! neighbour has brought them up to the previous iteration) and every
//! rotated name is bound as an *output* handle; anything else falls
//! back to the always-correct per-step path, as do DAG bodies and other
//! engines. Both names of a rotation pair must be declared with the
//! same bounds and layout — a rotation renames buffers, it cannot
//! reshape them — or [`LoopSpecBuilder::build`] refuses the loop.
//!
//! ## Equivalence guarantee
//!
//! Loop results are bit-identical to running the body back to back
//! sequentially. Two rules make that checkable at build time: every
//! array the body's nest writes must be bound as an output handle (so
//! state carries across steps through the handle table, exactly like a
//! long-lived `Session` store), and the rotation map must be a
//! permutation over handle-bound names. The differential harness in
//! `tests/timestep.rs` pins the equivalence on Tomcatv and SWEEP3D.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wavefront_core::array::DenseArray;

use crate::error::PipelineError;
use crate::exec_threads::rotation_fusible;
use crate::service::dag::{run_dag, DagSpec};
use crate::service::handle::{ArrayHandle, HandleTable};
use crate::service::job::{JobSpec, LoopExec, Ticket};
use crate::service::{enqueue, spawn_runner, Shared};
use crate::telemetry::EngineKind;

/// What a loop re-runs each step.
// One body exists per running loop and is consumed by `run_loop`, so
// boxing the big `JobSpec` variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum LoopBody<const R: usize> {
    /// One job (fusible when it runs on the threads engine).
    Job(JobSpec<R>),
    /// A whole DAG per step (always the per-step path; nodes run in
    /// scheduler order, sharing the loop's resident handles safely
    /// because the runner serializes nodes).
    Dag(DagSpec<R>),
}

/// The convergence callback: sees the completed step count and can
/// snapshot resident arrays; returning `true` stops the loop.
type UntilFn<const R: usize> = Box<dyn FnMut(&LoopView<'_, R>) -> bool + Send>;

/// What the convergence callback sees after a (chunk of) step(s): the
/// number of steps completed so far and read access to the loop's
/// resident arrays *under their body names* — rotation is resolved, so
/// `view.read("curr")` is whatever buffer currently plays the role of
/// `curr`.
pub struct LoopView<'a, const R: usize> {
    step: usize,
    handles: &'a Mutex<HandleTable<R>>,
    assign: &'a HashMap<String, u64>,
}

impl<const R: usize> LoopView<'_, R> {
    /// Steps completed so far (1-based after the first step).
    pub fn step(&self) -> usize {
        self.step
    }

    /// A read-only snapshot (an `Arc` bump) of the resident array
    /// playing the role of `name` in the body right now. Drop it before
    /// returning to keep the loop's writes copy-free.
    pub fn read(&self, name: &str) -> Result<DenseArray<R>, PipelineError> {
        let id = self
            .assign
            .get(name)
            .copied()
            .ok_or_else(|| PipelineError::InvalidLoop {
                reason: format!("the loop body binds no handle under the name `{name}`"),
            })?;
        self.handles.lock().unwrap().snapshot(id)
    }
}

/// A validated time-stepping loop; build one with [`LoopSpec::builder`],
/// run it with [`crate::service::WavefrontService::submit_loop`].
pub struct LoopSpec<const R: usize> {
    pub(crate) body: LoopBody<R>,
    pub(crate) steps: usize,
    pub(crate) rotate: Vec<(String, String)>,
    pub(crate) check_every: usize,
    pub(crate) until: Option<UntilFn<R>>,
    pub(crate) pipelined: bool,
    /// Every handle-bound body name → the id it starts on (step 0).
    pub(crate) base: HashMap<String, u64>,
}

impl<const R: usize> LoopSpec<R> {
    /// Start building a loop.
    pub fn builder() -> LoopSpecBuilder<R> {
        LoopSpecBuilder::new()
    }
}

/// Accumulates the body and knobs for a [`LoopSpec`]; see the module
/// docs.
pub struct LoopSpecBuilder<const R: usize> {
    body: Option<LoopBody<R>>,
    steps: Option<usize>,
    rotate: Vec<(String, String)>,
    check_every: usize,
    until: Option<UntilFn<R>>,
    pipelined: bool,
}

impl<const R: usize> Default for LoopSpecBuilder<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const R: usize> LoopSpecBuilder<R> {
    fn new() -> Self {
        LoopSpecBuilder {
            body: None,
            steps: None,
            rotate: Vec::new(),
            check_every: 1,
            until: None,
            pipelined: true,
        }
    }

    /// The loop body: one job, re-run each step. Bind every array the
    /// job writes with [`crate::service::JobSpecBuilder::output_handle`]
    /// — that is how state carries across steps.
    pub fn job(mut self, spec: JobSpec<R>) -> Self {
        self.body = Some(LoopBody::Job(spec));
        self
    }

    /// The loop body: a whole DAG, re-run each step (always the
    /// per-step path — DAGs do not fuse).
    pub fn dag(mut self, spec: DagSpec<R>) -> Self {
        self.body = Some(LoopBody::Dag(spec));
        self
    }

    /// How many steps to run. With a convergence callback this is the
    /// hard cap; without one it is the exact count.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// After each step, the buffer playing `from` becomes `to`'s buffer
    /// for the next step. Chain calls to build a permutation; use
    /// [`LoopSpecBuilder::swap`] for the common double-buffer cycle.
    pub fn rotate(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.rotate.push((from.into(), to.into()));
        self
    }

    /// Double-buffer convenience: rotate `a` → `b` *and* `b` → `a`.
    pub fn swap(self, a: impl Into<String>, b: impl Into<String>) -> Self {
        let (a, b) = (a.into(), b.into());
        self.rotate(a.clone(), b.clone()).rotate(b, a)
    }

    /// Stop early when `f` returns `true`. Checked every
    /// [`LoopSpecBuilder::check_every`] steps; fused bodies chunk their
    /// iterations to that granularity, so a rarely-checked loop keeps
    /// more cross-iteration overlap.
    pub fn until<F>(mut self, f: F) -> Self
    where
        F: FnMut(&LoopView<'_, R>) -> bool + Send + 'static,
    {
        self.until = Some(Box::new(f));
        self
    }

    /// How often (in steps) the convergence callback runs (default 1;
    /// ignored without [`LoopSpecBuilder::until`]).
    pub fn check_every(mut self, every: usize) -> Self {
        self.check_every = every.max(1);
        self
    }

    /// `false` disables cross-iteration overlap: fused bodies insert a
    /// full barrier between iterations. The ablation `perfbench`
    /// reports as `pipeline.service.loop.fused_over_barrier` (results
    /// are identical either way; only the staircase overlap disappears).
    pub fn pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Validate the combination and produce the [`LoopSpec`].
    pub fn build(self) -> Result<LoopSpec<R>, PipelineError> {
        let body = self.body.ok_or_else(|| PipelineError::InvalidLoop {
            reason: "a loop needs a body: .job(spec) or .dag(spec)".into(),
        })?;
        let steps = self.steps.ok_or_else(|| PipelineError::InvalidLoop {
            reason: "a loop needs .steps(n) — the exact count, or the hard cap \
                     when a convergence callback is set"
                .into(),
        })?;
        if steps == 0 {
            return Err(PipelineError::InvalidLoop {
                reason: "a loop runs at least one step".into(),
            });
        }
        // Gather the body's handle bindings: name → id, names unique
        // across the whole body (two nodes binding one name to
        // different handles would make rotation ambiguous).
        let mut base: HashMap<String, u64> = HashMap::new();
        let mut bind = |name: &str, id: u64| -> Result<(), PipelineError> {
            match base.get(name) {
                Some(&prev) if prev != id => Err(PipelineError::InvalidLoop {
                    reason: format!(
                        "`{name}` is bound to handle #{prev} and #{id} in the same \
                         loop body; a loop rotates one buffer per name"
                    ),
                }),
                _ => {
                    base.insert(name.to_string(), id);
                    Ok(())
                }
            }
        };
        let mut body_specs: Vec<&JobSpec<R>> = Vec::new();
        match &body {
            LoopBody::Job(spec) => body_specs.push(spec),
            LoopBody::Dag(dag) => {
                if dag.sim {
                    return Err(PipelineError::InvalidLoop {
                        reason: "a loop body must run on real engines, not the \
                                 what-if simulator"
                            .into(),
                    });
                }
                body_specs.extend(dag.nodes.iter().map(|(_, s)| s));
            }
        }
        let mut out_names: Vec<&str> = Vec::new();
        for spec in &body_specs {
            for (name, id) in &spec.handle_inputs {
                bind(name, *id)?;
            }
            for hb in &spec.handle_outputs {
                bind(&hb.name, hb.checkout)?;
                out_names.push(&hb.name);
            }
        }
        // Every array a body nest writes must be output-handle-bound:
        // that is what makes per-step jobs, fused chunks, and a
        // sequential back-to-back Session run all bit-identical (state
        // carries only through the handle table).
        for spec in &body_specs {
            for stmt in &spec.nest.stmts {
                let name = spec.program.name_of(stmt.lhs);
                if !out_names.contains(&name.as_str()) {
                    return Err(PipelineError::InvalidLoop {
                        reason: format!(
                            "the body writes `{name}` but does not bind it with \
                             output_handle; written arrays must live in the \
                             handle table for state to carry across steps"
                        ),
                    });
                }
            }
        }
        // The rotation must be a permutation over handle-bound names.
        let mut froms: Vec<&str> = Vec::new();
        let mut tos: Vec<&str> = Vec::new();
        for (from, to) in &self.rotate {
            if froms.contains(&from.as_str()) {
                return Err(PipelineError::InvalidLoop {
                    reason: format!("rotation names `{from}` as a source twice"),
                });
            }
            if tos.contains(&to.as_str()) {
                return Err(PipelineError::InvalidLoop {
                    reason: format!("rotation names `{to}` as a target twice"),
                });
            }
            froms.push(from);
            tos.push(to);
        }
        for from in &froms {
            if !tos.contains(from) {
                return Err(PipelineError::InvalidLoop {
                    reason: format!(
                        "rotation is not a permutation: `{from}` is a source but \
                         never a target (every rotated buffer must land somewhere)"
                    ),
                });
            }
        }
        for name in froms.iter().chain(tos.iter()) {
            if !base.contains_key(*name) {
                return Err(PipelineError::InvalidLoop {
                    reason: format!(
                        "rotation names `{name}`, which no handle binding of the \
                         body declares"
                    ),
                });
            }
        }
        // A rotation renames buffers, it never reshapes them: both names
        // of a pair must be declared alike. (Every handle matches the
        // declaration it is bound to — `JobSpecBuilder::build` — so the
        // declarations of the binding jobs are the buffers' shapes.)
        let declared = |name: &str| {
            body_specs.iter().find_map(|s| {
                let bound = s.handle_inputs.iter().any(|(n, _)| n == name)
                    || s.handle_outputs.iter().any(|hb| hb.name == name);
                let decl = &s.program.arrays()[s.program.find(name).filter(|_| bound)?];
                Some((decl.bounds, decl.layout))
            })
        };
        for (from, to) in &self.rotate {
            if let (Some(f), Some(t)) = (declared(from), declared(to)) {
                if f != t {
                    return Err(PipelineError::InvalidLoop {
                        reason: format!(
                            "rotation moves the buffer of `{from}` ({} {:?}) into `{to}` \
                             ({} {:?}); rotated arrays must be declared with the same \
                             bounds and layout",
                            f.0, f.1, t.0, t.1
                        ),
                    });
                }
            }
        }
        // Rotation aliasing: two rotated names starting on one buffer
        // would merge their histories — a typed error, never UB.
        let mut seen: Vec<(u64, &str)> = Vec::new();
        for name in &froms {
            let id = base[*name];
            if let Some((_, other)) = seen.iter().find(|(i, _)| *i == id) {
                return Err(PipelineError::HandleConflict {
                    reason: format!(
                        "`{other}` and `{name}` rotate the same resident handle \
                         #{id}"
                    ),
                });
            }
            seen.push((id, name));
        }
        Ok(LoopSpec {
            body,
            steps,
            rotate: self.rotate,
            check_every: self.check_every,
            until: self.until,
            pipelined: self.pipelined,
            base,
        })
    }
}

/// Aggregate measurements of one completed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStats {
    /// Steps actually run (≤ the cap when a callback converged early).
    pub steps: usize,
    /// Engine invocations: fused chunks, or one per step on the
    /// per-step path.
    pub chunks: usize,
    /// Whether the body ran fused (cross-iteration pipelining inside
    /// one engine invocation).
    pub fused: bool,
    /// Whether cross-iteration overlap was enabled (`false` = the
    /// barrier ablation).
    pub pipelined: bool,
    /// The tile width `b` a job body's first chunk (or step) ran: a
    /// pipelined fused chunk runs the width fitted to its sweeps. 0 for
    /// a DAG body.
    pub block: usize,
    /// Total seconds by which an iteration's global start preceded its
    /// predecessor's global end — the staircase overlap. Exactly 0 for
    /// barrier runs and the per-step path.
    pub overlap_seconds: f64,
    /// Total per-iteration busy seconds (the denominator of
    /// [`LoopStats::overlap_efficiency`]).
    pub busy_seconds: f64,
    /// `overlap_seconds / busy_seconds` — the fraction of iteration
    /// time hidden under neighbouring iterations.
    pub overlap_efficiency: f64,
    /// Total engine run seconds across all chunks/steps.
    pub engine_seconds: f64,
    /// Total engine messages across all chunks/steps.
    pub messages: usize,
}

/// Per-chunk statistics a fused loop chunk reports back through its
/// [`crate::service::JobOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopChunkStats {
    /// Iterations fused into the chunk's single engine invocation.
    pub iters: usize,
    /// Cross-iteration overlap seconds within the chunk.
    pub overlap_seconds: f64,
    /// Summed per-iteration global busy seconds within the chunk.
    pub busy_seconds: f64,
    /// `overlap_seconds / busy_seconds` for the chunk.
    pub overlap_efficiency: f64,
    /// Whether cross-iteration overlap was enabled.
    pub pipelined: bool,
}

/// Everything a completed loop resolves to.
pub struct LoopOutcome<const R: usize> {
    /// Steps actually run.
    pub steps_run: usize,
    /// Whether the convergence callback stopped the loop before the
    /// step cap.
    pub converged: bool,
    /// For every handle-bound body name, the handle whose buffer plays
    /// that role after the final step (rotation resolved), sorted by
    /// name. Read them with [`crate::service::WavefrontService::read`].
    pub final_bindings: Vec<(String, ArrayHandle<R>)>,
    /// The loop's aggregate measurements.
    pub stats: LoopStats,
}

/// A ticket for one submitted loop.
pub struct LoopHandle<const R: usize>(Arc<Ticket<Result<LoopOutcome<R>, PipelineError>>>);

impl<const R: usize> LoopHandle<R> {
    /// Block until the loop completes and take its outcome. A body
    /// failure at any step, a panicking cell's included, surfaces here
    /// typed; the buffers the failing step (or fused chunk) checked out
    /// are back under the handles they came from, epochs unbumped. The
    /// engines run in place, so an array that step writes may hold its
    /// partial writes; every other holds the last completed step's state.
    pub fn wait(self) -> Result<LoopOutcome<R>, PipelineError> {
        self.0.wait()
    }

    /// Whether the loop has already completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// Start one loop's runner thread (see [`spawn_runner`]); a panic in
/// the runner resolves the handle to the typed failure.
pub(crate) fn spawn_loop<const R: usize>(
    shared: &Arc<Shared<R>>,
    spec: LoopSpec<R>,
) -> LoopHandle<R> {
    LoopHandle(spawn_runner(
        shared,
        (),
        move |shared, _| run_loop(shared, spec),
        |_, _, ran| ran.and_then(|outcome| outcome),
    ))
}

/// One rotation step at the assignment level:
/// `next[to] = current[from]` for every pair; untouched names keep
/// their ids. The engine applies the same permutation to its workers'
/// view tables inside fused chunks.
fn rotate_assign(
    assign: &HashMap<String, u64>,
    rotate: &[(String, String)],
) -> HashMap<String, u64> {
    let mut next = assign.clone();
    for (from, to) in rotate {
        next.insert(to.clone(), assign[from]);
    }
    next
}

/// Rewrite a body spec's handle bindings for one step (or fused chunk):
/// inputs and checkouts come from the step's assignment `now`, putbacks
/// land in the assignment after the chunk's last in-engine rotation
/// (`end`; equal to `now` on the per-step path).
fn remap_bindings<const R: usize>(
    spec: &mut JobSpec<R>,
    now: &HashMap<String, u64>,
    end: &HashMap<String, u64>,
) {
    for (name, id) in spec.handle_inputs.iter_mut() {
        if let Some(&i) = now.get(name) {
            *id = i;
        }
    }
    for hb in spec.handle_outputs.iter_mut() {
        if let Some(&i) = now.get(&hb.name) {
            hb.checkout = i;
        }
        if let Some(&i) = end.get(&hb.name) {
            hb.putback = i;
        }
    }
}

/// The loop driver: chunked fused execution when the body is eligible,
/// per-step submission otherwise.
fn run_loop<const R: usize>(
    shared: &Shared<R>,
    spec: LoopSpec<R>,
) -> Result<LoopOutcome<R>, PipelineError> {
    let LoopSpec {
        body,
        steps,
        rotate,
        check_every,
        mut until,
        pipelined,
        base,
    } = spec;

    let mut assign = base;
    let mut last_assign = assign.clone();
    let mut steps_run = 0usize;
    let mut converged = false;
    let mut chunks = 0usize;
    let mut overlap_seconds = 0.0f64;
    let mut busy_seconds = 0.0f64;
    let mut engine_seconds = 0.0f64;
    let mut messages = 0usize;
    let mut block = 0usize;
    let metrics = Arc::clone(&shared.core.metrics);
    let overlap_hist = metrics
        .enabled()
        .then(|| metrics.histogram("wavefront_loop_overlap"));

    // Fused eligibility: one job on the threads engine, and — when
    // rotating — pointwise rotation classes
    // whose every name is output-handle-bound, so the chunk's put-backs
    // can republish each buffer under its rotated-to binding (see the
    // module docs for why both are required for correctness).
    let mut rot_ids: Vec<(usize, usize)> = Vec::new();
    let mut fused = false;
    if let LoopBody::Job(spec0) = &body {
        // Rotated names were validated at build.
        let id = |n: &String| spec0.program.find(n).expect("a declared array");
        rot_ids = rotate.iter().map(|(f, t)| (id(f), id(t))).collect();
        let bound = |n: &String| spec0.handle_outputs.iter().any(|hb| &hb.name == n);
        fused = matches!(spec0.engine, EngineKind::Threads)
            && spec0.nest.buffered.is_empty()
            && rotation_fusible(&spec0.nest, &rot_ids)
            && rotate.iter().all(|(f, t)| bound(f) && bound(t));
    }
    let chunk_len = match (fused, until.is_some()) {
        (false, _) => 1,
        (true, true) => check_every,
        (true, false) => steps,
    };
    // One DAG id for the whole loop, taken at its first step: steps
    // re-run the same graph, and per-step stats would flood the bounded
    // ring.
    let mut dag_id = None;

    while steps_run < steps && !converged {
        let todo = chunk_len.min(steps - steps_run);
        // The assignment after the chunk's last iteration: the engine
        // rotates `todo - 1` times in-place, so putbacks land there; the
        // service-level rotation to the *next* step's assignment happens
        // after the chunk returns.
        let mut a_end = assign.clone();
        for _ in 1..todo {
            a_end = rotate_assign(&a_end, &rotate);
        }
        match &body {
            LoopBody::Job(spec0) => {
                let mut step_spec = spec0.clone();
                remap_bindings(&mut step_spec, &assign, &a_end);
                if fused {
                    step_spec.loop_exec = Some(LoopExec {
                        iters: todo,
                        rotate: rot_ids.clone(),
                        pipelined,
                    });
                }
                let out = enqueue(shared, step_spec, true).wait()?;
                if chunks == 0 {
                    block = out.outcome.block;
                }
                engine_seconds += out.outcome.run_seconds;
                messages += out.outcome.messages;
                if let Some(cs) = &out.loop_stats {
                    overlap_seconds += cs.overlap_seconds;
                    busy_seconds += cs.busy_seconds;
                    if let Some(h) = &overlap_hist {
                        h.observe_seconds(cs.overlap_seconds);
                    }
                }
            }
            LoopBody::Dag(dag0) => {
                let nodes: Vec<(String, JobSpec<R>)> = dag0
                    .nodes
                    .iter()
                    .map(|(label, s)| {
                        let mut s = s.clone();
                        remap_bindings(&mut s, &assign, &a_end);
                        (label.clone(), s)
                    })
                    .collect();
                let step_spec = DagSpec {
                    nodes,
                    edges: dag0.edges.clone(),
                    scheduler: dag0.scheduler,
                    sim_procs: dag0.sim_procs,
                    sim: false,
                };
                let dag_id = *dag_id.get_or_insert_with(|| shared.next_dag_id());
                let outcome = run_dag(shared, step_spec, dag_id);
                for node in outcome.nodes {
                    node.result?;
                }
                engine_seconds += outcome.stats.makespan;
            }
        }
        // The tail every body shares: account the chunk, rotate to the
        // next step's assignment, ask the callback.
        chunks += 1;
        steps_run += todo;
        assign = rotate_assign(&a_end, &rotate);
        last_assign = a_end;
        if let Some(cb) = until.as_mut() {
            if steps_run.is_multiple_of(check_every) || steps_run >= steps {
                converged = cb(&LoopView {
                    step: steps_run,
                    handles: &shared.handles,
                    assign: &last_assign,
                });
            }
        }
    }

    let final_bindings: Vec<(String, ArrayHandle<R>)> = {
        let table = shared.handles.lock().unwrap();
        let mut names: Vec<(&String, u64)> =
            last_assign.iter().map(|(n, i)| (n, *i)).collect();
        names.sort();
        names
            .into_iter()
            .filter_map(|(n, i)| table.lookup(i).ok().map(|h| (n.clone(), h)))
            .collect()
    };
    if metrics.enabled() {
        metrics.counter("wavefront_loops_total").inc();
        metrics
            .counter("wavefront_loop_steps_total")
            .add(steps_run as u64);
    }
    Ok(LoopOutcome {
        steps_run,
        converged,
        final_bindings,
        stats: LoopStats {
            steps: steps_run,
            chunks,
            fused,
            pipelined,
            block,
            overlap_seconds,
            busy_seconds,
            overlap_efficiency: if busy_seconds > 0.0 {
                overlap_seconds / busy_seconds
            } else {
                0.0
            },
            engine_seconds,
            messages,
        },
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use wavefront_core::prelude::*;

    use super::*;
    use crate::exec_threads::test_hooks::{with_tile_hook, TileHook};
    use crate::schedule::BlockPolicy;
    use crate::service::WavefrontService;
    use crate::session::Session;

    /// `next := 0.5·next'@(−1, 0) + 0.4·curr + 0.1·load` on 12×12: a
    /// wave down the rows that reads `curr` pointwise, so a `next`/`curr`
    /// swap fuses.
    fn relax() -> (Arc<Program<2>>, Arc<CompiledNest<2>>, Store<2>) {
        let bounds = Region::rect([0, 0], [11, 11]);
        let mut p = Program::<2>::new();
        let next = p.array("next", bounds);
        let curr = p.array("curr", bounds);
        let load = p.array("load", bounds);
        p.stmt(
            Region::rect([1, 1], [10, 10]),
            next,
            Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
                + Expr::lit(0.4) * Expr::read(curr)
                + Expr::lit(0.1) * Expr::read(load),
        );
        let nest = compile(&p).unwrap().nest(0).clone();
        let mut store = Store::new(&p);
        for id in 0..store.len() {
            *store.get_mut(id) =
                DenseArray::from_fn(bounds, |q| ((q[0] * 7 + q[1] * 3 + id as i64) % 11) as f64);
        }
        (Arc::new(p), Arc::new(nest), store)
    }

    /// A cell panics mid-loop, at a seeded (chunk, cell, tile) of a fused
    /// loop that swaps `next` and `curr` in chunks of `EVERY` steps. The
    /// loop resolves `EnginePanic`; every completed chunk left the
    /// handles bit-identical to the body run by sessions for its steps;
    /// the failing chunk's handles come back to their slots, the rotated
    /// pair's epochs counting only the completed chunks and the input
    /// handle untouched; every handle frees, and `resident_bytes`
    /// balances.
    #[test]
    fn a_cell_panic_mid_loop_hands_every_handle_back() {
        const STEPS: usize = 12;
        const EVERY: usize = 3;
        let (program, nest, initial) = relax();
        let session = Session::new(&program, &nest)
            .procs(2)
            .block(BlockPolicy::Fixed(2));
        let tiles = session.plan().unwrap().tiles.len();
        // After each step, the store as sessions leave it, swapping the
        // two buffers between steps only.
        let ids = [program.find("next").unwrap(), program.find("curr").unwrap()];
        let mut refs = vec![initial.clone()];
        for step in 0..STEPS {
            let mut st = refs[step].clone();
            if step > 0 {
                st.arrays_mut().swap(ids[0], ids[1]);
            }
            Session::new(&program, &nest)
                .procs(2)
                .block(BlockPolicy::Fixed(2))
                .store(&mut st)
                .run(EngineKind::Seq)
                .unwrap();
            refs.push(st);
        }
        let refs = Arc::new(refs);
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        for seed in 0..8 {
            let (chunk, cell, tile) = (draw(STEPS / EVERY), draw(2), draw(EVERY * tiles));
            let started = Arc::new(AtomicUsize::new(0));
            let hook: TileHook = {
                let started = Arc::clone(&started);
                Arc::new(move |c, t| {
                    if c == 0 && t == 0 {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                    if (started.load(Ordering::SeqCst), c, t) == (chunk + 1, cell, tile) {
                        panic!("tile hook: seed {seed} dies");
                    }
                })
            };
            let service: WavefrontService<2> = with_tile_hook(hook, WavefrontService::new);
            let handles = service.import_store(&program, initial.clone());
            let mut body = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(2)
                .block(BlockPolicy::Fixed(2))
                .engine(EngineKind::Threads)
                .input_handle("load", &handles[2].1);
            for (name, h) in &handles[..2] {
                body = body.output_handle(name.clone(), h);
            }
            let exact = Arc::new(AtomicUsize::new(0));
            let spec = LoopSpec::builder()
                .job(body.build().unwrap())
                .steps(STEPS)
                .swap("next", "curr")
                .check_every(EVERY)
                .until({
                    let (refs, exact) = (Arc::clone(&refs), Arc::clone(&exact));
                    move |view| {
                        let want = &refs[view.step()];
                        let same = |name: &str, id: usize| {
                            let got = view.read(name).unwrap();
                            got.region_eq(want.get(id), got.bounds())
                        };
                        if same("next", ids[0]) && same("curr", ids[1]) {
                            exact.fetch_add(1, Ordering::SeqCst);
                        }
                        false
                    }
                })
                .build()
                .unwrap();
            let ctx = format!("seed {seed}: chunk {chunk}, cell {cell}, tile {tile}");
            let msg = match service.submit_loop(spec).wait() {
                Err(PipelineError::EnginePanic(msg)) => msg,
                Err(e) => panic!("{ctx}: the loop failed otherwise: {e}"),
                Ok(_) => panic!("{ctx}: the loop survived its cell's panic"),
            };
            assert_eq!(
                exact.load(Ordering::SeqCst),
                chunk,
                "{ctx}: completed chunks exact"
            );
            for (i, (name, h)) in handles.iter().enumerate() {
                let back = service
                    .read(h)
                    .unwrap_or_else(|e| panic!("{ctx}: {name}: {e}"));
                let epoch = service.handle_epoch(h).unwrap();
                if name == "load" {
                    assert!(back.region_eq(initial.get(i), back.bounds()), "{ctx}: load");
                    assert_eq!(epoch, 0, "{ctx}: load");
                } else {
                    assert_eq!(epoch, chunk as u64, "{ctx}: {name}'s epoch");
                }
            }
            for (name, h) in &handles {
                service
                    .free(h)
                    .unwrap_or_else(|e| panic!("{ctx}: free {name}: {e}"));
            }
            assert_eq!(service.resident_bytes(), 0, "{ctx}");
            assert!(msg.contains("dies"), "{ctx}: {msg}");
        }
    }
}
