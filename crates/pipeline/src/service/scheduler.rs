//! Pluggable DAG scheduling: the [`Scheduler`] trait and its three
//! built-in policies.
//!
//! The DAG runner owns readiness bookkeeping (predecessor counting) and
//! calls the scheduler at two points: [`Scheduler::on_job_ready`] when
//! a node's last predecessor resolves, and [`Scheduler::on_job_done`]
//! after a node completes. Whenever a dispatch slot frees up the runner
//! asks [`Scheduler::next_job`] which ready node goes next — order is
//! the *only* thing a scheduler controls; it can neither skip nodes nor
//! run one twice (the runner checks both). Everything a policy may look
//! at is exposed read-only through [`DagView`].

use std::collections::VecDeque;

/// A node's index within its DAG: the order it was added to the
/// [`crate::service::DagSpecBuilder`].
pub type NodeId = usize;

/// Static shape plus per-node upward rank, precomputed once per DAG.
pub(crate) struct DagShape {
    pub(crate) labels: Vec<String>,
    /// Static cost estimate per node (nest region points).
    pub(crate) cost: Vec<f64>,
    /// Predecessors of each node as `(producer, edge elements)`.
    pub(crate) preds: Vec<Vec<(NodeId, u64)>>,
    pub(crate) succs: Vec<Vec<NodeId>>,
    /// Upward rank: cost of the node plus the most expensive downstream
    /// path — the classic critical-path priority.
    pub(crate) rank: Vec<f64>,
}

impl DagShape {
    /// Build the shape from labels, static costs, and `(from, to,
    /// elems)` edges. The caller has already rejected cycles.
    pub(crate) fn new(labels: Vec<String>, cost: Vec<f64>, edges: &[(NodeId, NodeId, u64)]) -> Self {
        let n = labels.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(from, to, elems) in edges {
            preds[to].push((from, elems));
            succs[from].push(to);
        }
        // Upward rank in reverse topological order (Kahn over the
        // reversed DAG: start from sinks).
        let mut rank = cost.clone();
        let mut out_deg: Vec<usize> = succs.iter().map(Vec::len).collect();
        let mut queue: VecDeque<NodeId> =
            (0..n).filter(|&v| out_deg[v] == 0).collect();
        while let Some(v) = queue.pop_front() {
            for &(p, _) in &preds[v] {
                rank[p] = rank[p].max(cost[p] + rank[v]);
                out_deg[p] -= 1;
                if out_deg[p] == 0 {
                    queue.push_back(p);
                }
            }
        }
        DagShape { labels, cost, preds, succs, rank }
    }
}

/// Read-only view of a DAG's shape and execution state, handed to every
/// [`Scheduler`] callback.
pub struct DagView<'a> {
    pub(crate) shape: &'a DagShape,
    /// Completion tick per node (`None` = not finished). Ticks are a
    /// monotonic event counter, not wall time, so sim and real runs
    /// see the same recency structure.
    pub(crate) done_at: &'a [Option<u64>],
}

impl DagView<'_> {
    /// Number of nodes in the DAG.
    pub fn len(&self) -> usize {
        self.shape.labels.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.shape.labels.is_empty()
    }

    /// The node's label (builder-assigned, or `node<i>`).
    pub fn label(&self, n: NodeId) -> &str {
        &self.shape.labels[n]
    }

    /// Static cost estimate: the points of the node's nest region.
    pub fn cost_estimate(&self, n: NodeId) -> f64 {
        self.shape.cost[n]
    }

    /// Upward rank: the node's cost plus its most expensive downstream
    /// path. Maximal over entry nodes of the critical path.
    pub fn critical_rank(&self, n: NodeId) -> f64 {
        self.shape.rank[n]
    }

    /// Nodes consuming one of `n`'s outputs.
    pub fn successors(&self, n: NodeId) -> &[NodeId] {
        &self.shape.succs[n]
    }

    /// Nodes whose outputs `n` consumes.
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.shape.preds[n].iter().map(|&(p, _)| p)
    }

    /// Total elements `n` consumes from its predecessors.
    pub fn input_elems(&self, n: NodeId) -> u64 {
        self.shape.preds[n].iter().map(|&(_, e)| e).sum()
    }

    /// When `n` completed (a monotonic event tick), or `None` while it
    /// is pending.
    pub fn completed(&self, n: NodeId) -> Option<u64> {
        self.done_at[n]
    }

    /// The freshest completion tick among `n`'s predecessors — the
    /// locality signal: a larger value means `n`'s inputs were produced
    /// more recently and are still warm on the workers.
    pub fn freshest_input(&self, n: NodeId) -> Option<u64> {
        self.shape.preds[n].iter().filter_map(|&(p, _)| self.done_at[p]).max()
    }
}

/// A DAG scheduling policy. Implementations are notified as nodes
/// become ready/done and choose dispatch order via
/// [`Scheduler::next_job`]; see the module docs for the contract.
pub trait Scheduler: Send {
    /// Short policy name, recorded in [`crate::service::DagStats`].
    fn name(&self) -> &str;

    /// `node`'s last predecessor just resolved; it may now be picked by
    /// [`Scheduler::next_job`]. Called exactly once per node.
    fn on_job_ready(&mut self, node: NodeId, dag: &DagView<'_>);

    /// `node` just completed (successfully or not). Called exactly once
    /// per node that ran.
    fn on_job_done(&mut self, node: NodeId, dag: &DagView<'_>) {
        let _ = (node, dag);
    }

    /// Pick the next ready node to dispatch, or `None` if no node is
    /// currently ready. A returned node counts as dispatched and must
    /// not be returned again.
    fn next_job(&mut self, dag: &DagView<'_>) -> Option<NodeId>;
}

/// First-in-first-out over readiness order: breadth-first across
/// independent chains.
#[derive(Default)]
pub struct FifoScheduler {
    ready: VecDeque<NodeId>,
}

impl FifoScheduler {
    /// A fresh FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "fifo"
    }

    fn on_job_ready(&mut self, node: NodeId, _dag: &DagView<'_>) {
        self.ready.push_back(node);
    }

    fn next_job(&mut self, _dag: &DagView<'_>) -> Option<NodeId> {
        self.ready.pop_front()
    }
}

/// Critical-path-first: among ready nodes, dispatch the one with the
/// largest upward rank ([`DagView::critical_rank`]), so the longest
/// remaining chain is never the one left waiting.
#[derive(Default)]
pub struct CriticalPathScheduler {
    ready: Vec<NodeId>,
}

impl CriticalPathScheduler {
    /// A fresh critical-path scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for CriticalPathScheduler {
    fn name(&self) -> &str {
        "critical-path"
    }

    fn on_job_ready(&mut self, node: NodeId, _dag: &DagView<'_>) {
        self.ready.push(node);
    }

    fn next_job(&mut self, dag: &DagView<'_>) -> Option<NodeId> {
        let i = self
            .ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                dag.critical_rank(a)
                    .total_cmp(&dag.critical_rank(b))
                    .then(b.cmp(&a)) // tie: lower id first
            })
            .map(|(i, _)| i)?;
        Some(self.ready.swap_remove(i))
    }
}

/// Locality-aware: among ready nodes, prefer the one whose inputs were
/// produced most recently ([`DagView::freshest_input`]), largest input
/// volume as tie-break — i.e. keep a successor on the workers (and
/// caches) still holding its predecessor's outputs. Degenerates to
/// FIFO while only entry nodes (no inputs) are ready.
#[derive(Default)]
pub struct LocalityScheduler {
    ready: Vec<NodeId>,
}

impl LocalityScheduler {
    /// A fresh locality scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LocalityScheduler {
    fn name(&self) -> &str {
        "locality"
    }

    fn on_job_ready(&mut self, node: NodeId, _dag: &DagView<'_>) {
        self.ready.push(node);
    }

    fn next_job(&mut self, dag: &DagView<'_>) -> Option<NodeId> {
        let score = |n: NodeId| {
            (
                dag.freshest_input(n).map_or(0, |t| t + 1),
                dag.input_elems(n),
            )
        };
        let i = self
            .ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| score(a).cmp(&score(b)).then(b.cmp(&a)))
            .map(|(i, _)| i)?;
        Some(self.ready.swap_remove(i))
    }
}

/// The built-in scheduling policies, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// [`FifoScheduler`] (the default).
    #[default]
    Fifo,
    /// [`CriticalPathScheduler`].
    CriticalPath,
    /// [`LocalityScheduler`].
    Locality,
}

impl SchedulerKind {
    /// The policy's canonical name (`fifo` / `critical-path` /
    /// `locality`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::CriticalPath => "critical-path",
            SchedulerKind::Locality => "locality",
        }
    }

    /// Parse a policy name (`fifo`, `cp`/`critical-path`, `locality`).
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(SchedulerKind::Fifo),
            "cp" | "critical-path" | "critical_path" => Some(SchedulerKind::CriticalPath),
            "locality" => Some(SchedulerKind::Locality),
            _ => None,
        }
    }

    /// Instantiate the policy.
    pub fn instantiate(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
            SchedulerKind::CriticalPath => Box::new(CriticalPathScheduler::new()),
            SchedulerKind::Locality => Box::new(LocalityScheduler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two chains sharing a sink:  0 -> 1 -> 4,  2 -> 3 -> 4, where
    /// chain 0-1 is 10x more expensive.
    fn two_chain_shape() -> DagShape {
        DagShape::new(
            (0..5).map(|i| format!("n{i}")).collect(),
            vec![100.0, 100.0, 10.0, 10.0, 1.0],
            &[(0, 1, 8), (1, 4, 8), (2, 3, 4), (3, 4, 4)],
        )
    }

    #[test]
    fn upward_rank_accumulates_downstream_cost() {
        let shape = two_chain_shape();
        assert_eq!(shape.rank[4], 1.0);
        assert_eq!(shape.rank[1], 101.0);
        assert_eq!(shape.rank[0], 201.0);
        assert_eq!(shape.rank[3], 11.0);
        assert_eq!(shape.rank[2], 21.0);
    }

    #[test]
    fn critical_path_picks_the_long_chain_first() {
        let shape = two_chain_shape();
        let done_at = vec![None; 5];
        let view = DagView { shape: &shape, done_at: &done_at };
        let mut s = CriticalPathScheduler::new();
        s.on_job_ready(2, &view);
        s.on_job_ready(0, &view);
        assert_eq!(s.next_job(&view), Some(0), "rank 201 beats rank 21");
        assert_eq!(s.next_job(&view), Some(2));
        assert_eq!(s.next_job(&view), None);
    }

    #[test]
    fn locality_follows_the_freshest_producer() {
        let shape = two_chain_shape();
        // Node 2 finished long ago (tick 1), node 0 just now (tick 5):
        // successors 3 and 1 are both ready; locality picks 1.
        let done_at = vec![Some(5), None, Some(1), None, None];
        let view = DagView { shape: &shape, done_at: &done_at };
        let mut s = LocalityScheduler::new();
        s.on_job_ready(3, &view);
        s.on_job_ready(1, &view);
        assert_eq!(s.next_job(&view), Some(1), "freshest input wins");
        assert_eq!(s.next_job(&view), Some(3));
    }

    #[test]
    fn fifo_preserves_readiness_order() {
        let shape = two_chain_shape();
        let done_at = vec![None; 5];
        let view = DagView { shape: &shape, done_at: &done_at };
        let mut s = FifoScheduler::new();
        s.on_job_ready(2, &view);
        s.on_job_ready(0, &view);
        assert_eq!(s.next_job(&view), Some(2));
        assert_eq!(s.next_job(&view), Some(0));
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::CriticalPath,
            SchedulerKind::Locality,
        ] {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.instantiate().name(), kind.name());
        }
        assert_eq!(SchedulerKind::from_name("cp"), Some(SchedulerKind::CriticalPath));
        assert_eq!(SchedulerKind::from_name("nope"), None);
    }
}
