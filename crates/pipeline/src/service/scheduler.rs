//! DAG dispatch order: which ready node goes next.
//!
//! The DAG runner keeps the ready nodes in one list, in the order they
//! became ready (a node is ready once its last predecessor resolved),
//! and asks [`SchedulerKind::pick`] for the one to dispatch whenever a
//! slot frees up. Each policy is a ranking key over that list:
//!
//! * `fifo` takes the head: breadth-first across independent chains;
//! * `critical-path` takes the largest upward rank (the node's cost
//!   plus its most expensive downstream path), so the longest
//!   remaining chain is never the one left waiting;
//! * `locality` takes the largest (freshest input tick + 1, input
//!   elements): the successor whose inputs were produced most recently
//!   and are still warm on the workers, degenerating to FIFO while only
//!   entry nodes are ready.
//!
//! Ties go to the lower node id. Order is the only thing a policy
//! decides: the runner owns readiness, dispatch and completion.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// A node's index within its DAG: the order it was added to the
/// [`crate::service::DagSpecBuilder`].
pub type NodeId = usize;

/// Static shape plus per-node upward rank, precomputed once per DAG.
pub(crate) struct DagShape {
    pub(crate) labels: Vec<String>,
    /// Predecessors of each node as `(producer, edge elements)`.
    pub(crate) preds: Vec<Vec<(NodeId, u64)>>,
    pub(crate) succs: Vec<Vec<NodeId>>,
    /// Upward rank: cost of the node plus the most expensive downstream
    /// path — the classic critical-path priority.
    pub(crate) rank: Vec<f64>,
}

impl DagShape {
    /// Build the shape from labels, static costs (nest region points),
    /// and `(from, to, elems)` edges. The caller has already rejected
    /// cycles.
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
        DagShape { labels, preds, succs, rank }
    }
}

/// The built-in scheduling policies, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-in-first-out over readiness order (the default).
    #[default]
    Fifo,
    /// Largest upward rank first.
    CriticalPath,
    /// Freshest inputs first, then the largest input volume.
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

    /// The index in `ready` (non-empty, in readiness order) of the node
    /// to dispatch next; `done_at` holds each node's completion tick
    /// (`None` while it is pending). See the module docs for the keys.
    pub(crate) fn pick(self, ready: &[NodeId], shape: &DagShape, done_at: &[Option<u64>]) -> usize {
        // The position of the largest node by `key`, the lower id on a tie.
        let best = |key: &dyn Fn(NodeId, NodeId) -> Ordering| {
            (0..ready.len())
                .max_by(|&i, &j| key(ready[i], ready[j]).then(ready[j].cmp(&ready[i])))
                .expect("a pick needs a ready node")
        };
        let locality = |n: NodeId| {
            let preds = &shape.preds[n];
            let fresh = preds.iter().filter_map(|&(p, _)| done_at[p]).max();
            (fresh.map_or(0, |t| t + 1), preds.iter().map(|&(_, e)| e).sum::<u64>())
        };
        match self {
            SchedulerKind::Fifo => 0,
            SchedulerKind::CriticalPath => best(&|a, b| shape.rank[a].total_cmp(&shape.rank[b])),
            SchedulerKind::Locality => best(&|a, b| locality(a).cmp(&locality(b))),
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

    /// Pick from `ready` under `kind` until it is empty: the dispatch
    /// order a runner that adds nothing in between would see.
    fn drain(kind: SchedulerKind, mut ready: Vec<NodeId>, done_at: &[Option<u64>]) -> Vec<NodeId> {
        let shape = two_chain_shape();
        let mut order = Vec::new();
        while !ready.is_empty() {
            order.push(ready.remove(kind.pick(&ready, &shape, done_at)));
        }
        order
    }

    #[test]
    fn critical_path_picks_the_long_chain_first() {
        // Rank 201 beats rank 21.
        assert_eq!(drain(SchedulerKind::CriticalPath, vec![2, 0], &[None; 5]), [0, 2]);
    }

    #[test]
    fn locality_follows_the_freshest_producer() {
        // Node 2 finished long ago (tick 1), node 0 just now (tick 5):
        // successors 3 and 1 are both ready; the freshest input wins.
        let done_at = [Some(5), None, Some(1), None, None];
        assert_eq!(drain(SchedulerKind::Locality, vec![3, 1], &done_at), [1, 3]);
    }

    #[test]
    fn fifo_preserves_readiness_order() {
        assert_eq!(drain(SchedulerKind::Fifo, vec![2, 0], &[None; 5]), [2, 0]);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::CriticalPath,
            SchedulerKind::Locality,
        ] {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_name("cp"), Some(SchedulerKind::CriticalPath));
        assert_eq!(SchedulerKind::from_name("nope"), None);
    }
}
