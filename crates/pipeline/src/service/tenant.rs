//! Tenant queues and the weighted fair-share scheduler between them.
//!
//! Each tenant owns a bounded FIFO of admitted jobs plus a stride
//! scheduling *pass* value. The dispatcher always drains the non-empty
//! queue with the smallest pass, then advances that queue's pass by
//! `1 / weight` — so over any busy interval, tenants receive dispatch
//! slots proportional to their weights, regardless of how unbalanced
//! their offered loads are. A queue that goes idle and comes back is
//! re-based onto the global pass so it cannot hoard credit and starve
//! the others.
//!
//! Within one tenant's queue, higher [`crate::service::JobSpecBuilder::priority`]
//! runs first (FIFO among equals); priorities never reorder *between*
//! tenants — fair share always wins there.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::service::admission::TenantConfig;
use crate::service::job::{JobSpec, JobTicket};
use crate::telemetry::json::JsonObj;

/// One queued job: its intra-tenant priority, an admission sequence
/// number (FIFO tiebreak), and the spec/ticket pair.
pub(crate) struct QueuedJob<const R: usize> {
    pub priority: u8,
    pub seq: u64,
    pub spec: JobSpec<R>,
    pub ticket: Arc<JobTicket<R>>,
    /// When admission finished and the job entered the queue (the
    /// admitted → dispatched span of its [`crate::service::JobTrace`]).
    pub admitted_at: std::time::Instant,
}

/// One tenant's queue, scheduler state, and lifetime counters.
pub(crate) struct TenantQueue<const R: usize> {
    pub name: String,
    pub cfg: TenantConfig,
    pub jobs: VecDeque<QueuedJob<R>>,
    /// Stride-scheduling pass value; smallest non-empty queue runs next.
    pub pass: f64,
    /// Jobs queued or currently running.
    pub in_flight: usize,
    pub submitted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Jobs whose handles resolved to an error (execution failure,
    /// dependency failure, or shutdown before dispatch).
    pub failed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Dispatcher seconds spent running this tenant's jobs.
    pub busy_seconds: f64,
}

impl<const R: usize> TenantQueue<R> {
    pub(crate) fn new(name: String, cfg: TenantConfig, base_pass: f64) -> Self {
        TenantQueue {
            name,
            cfg,
            jobs: VecDeque::new(),
            pass: base_pass,
            in_flight: 0,
            submitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            cache_hits: 0,
            cache_misses: 0,
            busy_seconds: 0.0,
        }
    }

    /// Take the next job: highest priority first, FIFO among equals.
    pub(crate) fn take_next(&mut self) -> Option<QueuedJob<R>> {
        let best = self
            .jobs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                // Higher priority wins; among equals the smaller seq
                // (earlier submission) wins.
                a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq))
            })
            .map(|(i, _)| i)?;
        self.jobs.remove(best)
    }

    /// Snapshot the public counters.
    pub(crate) fn stats(&self) -> TenantStats {
        TenantStats {
            tenant: self.name.clone(),
            weight: self.cfg.effective_weight(),
            queued: self.jobs.len(),
            in_flight: self.in_flight,
            jobs_submitted: self.submitted,
            jobs_rejected: self.rejected,
            jobs_completed: self.completed,
            jobs_failed: self.failed,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            busy_seconds: self.busy_seconds,
        }
    }
}

/// Pick the index of the non-empty queue with the smallest pass value
/// (ties broken by registration order), and return it without mutating
/// any scheduler state — the caller advances the pass after dequeue.
pub(crate) fn pick_min_pass<const R: usize>(tenants: &[TenantQueue<R>]) -> Option<usize> {
    tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.jobs.is_empty())
        .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass))
        .map(|(i, _)| i)
}

/// Counters describing one tenant's life so far; see
/// [`crate::service::WavefrontService::tenant_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant's name (`"default"` for unattributed jobs).
    pub tenant: String,
    /// The effective fair-share weight.
    pub weight: f64,
    /// Jobs currently waiting in the tenant's queue.
    pub queued: usize,
    /// Jobs queued or running right now.
    pub in_flight: usize,
    /// Jobs this tenant ever had admitted.
    pub jobs_submitted: u64,
    /// Submissions denied by admission control (typed, never silent).
    pub jobs_rejected: u64,
    /// Jobs whose handles resolved successfully.
    pub jobs_completed: u64,
    /// Jobs whose handles resolved to an error.
    pub jobs_failed: u64,
    /// Compiled-plan cache hits attributed to this tenant's jobs.
    pub cache_hits: u64,
    /// Compiled-plan cache misses attributed to this tenant's jobs.
    pub cache_misses: u64,
    /// Dispatcher seconds spent on this tenant's jobs.
    pub busy_seconds: f64,
}

impl TenantStats {
    /// Serialize as a self-contained JSON object (the one stats-export
    /// path shared by `wlc serve --stats` and the bench bins).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("tenant", &self.tenant)
            .num("weight", self.weight)
            .uint("queued", self.queued as u64)
            .uint("in_flight", self.in_flight as u64)
            .uint("jobs_submitted", self.jobs_submitted)
            .uint("jobs_rejected", self.jobs_rejected)
            .uint("jobs_completed", self.jobs_completed)
            .uint("jobs_failed", self.jobs_failed)
            .uint("cache_hits", self.cache_hits)
            .uint("cache_misses", self.cache_misses)
            .num("busy_seconds", self.busy_seconds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wavefront_core::expr::Expr;
    use wavefront_core::program::Program;
    use wavefront_core::region::Region;

    /// A trivial compiled nest so tests can build real `QueuedJob`s.
    fn dummy_job(priority: u8, seq: u64) -> QueuedJob<2> {
        let bounds = Region::rect([0, 0], [4, 4]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        prog.stmt(bounds, a, Expr::lit(1.0));
        let compiled = wavefront_core::exec::compile(&prog).unwrap();
        let nest = Arc::new(compiled.nest(0).clone());
        let spec = JobSpec::builder(Arc::new(prog), nest).build().unwrap();
        QueuedJob {
            priority,
            seq,
            spec,
            ticket: crate::service::job::Ticket::new(),
            admitted_at: std::time::Instant::now(),
        }
    }

    #[test]
    fn min_pass_prefers_lagging_nonempty_queue() {
        let mut a: TenantQueue<2> = TenantQueue::new("a".into(), TenantConfig::default(), 3.0);
        let mut b: TenantQueue<2> = TenantQueue::new("b".into(), TenantConfig::default(), 1.5);
        let c: TenantQueue<2> = TenantQueue::new("c".into(), TenantConfig::default(), 0.0);
        // All empty: nothing to pick, lowest pass notwithstanding.
        assert_eq!(pick_min_pass(&[a, b, c]), None);

        a = TenantQueue::new("a".into(), TenantConfig::default(), 3.0);
        b = TenantQueue::new("b".into(), TenantConfig::default(), 1.5);
        a.jobs.push_back(dummy_job(0, 0));
        b.jobs.push_back(dummy_job(0, 1));
        // Empty c (pass 0) is skipped; b lags a.
        let c: TenantQueue<2> = TenantQueue::new("c".into(), TenantConfig::default(), 0.0);
        assert_eq!(pick_min_pass(&[a, b, c]), Some(1));
    }

    #[test]
    fn take_next_honours_priority_then_fifo() {
        let mut t: TenantQueue<2> = TenantQueue::new("t".into(), TenantConfig::default(), 0.0);
        t.jobs.push_back(dummy_job(0, 0));
        t.jobs.push_back(dummy_job(2, 1));
        t.jobs.push_back(dummy_job(2, 2));
        t.jobs.push_back(dummy_job(1, 3));
        let order: Vec<(u8, u64)> = std::iter::from_fn(|| t.take_next())
            .map(|j| (j.priority, j.seq))
            .collect();
        assert_eq!(order, vec![(2, 1), (2, 2), (1, 3), (0, 0)]);
    }

    #[test]
    fn tenant_stats_json_is_well_formed() {
        let t: TenantQueue<2> = TenantQueue::new("acme".into(), TenantConfig::default(), 0.0);
        let json = t.stats().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tenant\":\"acme\""));
        assert!(json.contains("\"weight\":1"));
        let parsed = crate::telemetry::JsonValue::parse(&json).expect("valid json");
        assert_eq!(
            parsed.get("jobs_submitted").and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
