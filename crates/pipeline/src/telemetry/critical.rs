//! Critical-path extraction over the causal DAG.
//!
//! The paper's whole argument is a timing diagram: makespan is the
//! length of the longest chain of compute blocks and boundary messages
//! through Figure 4(b)'s staircase. This module walks that chain
//! *backwards* from the block that finishes last, at every step asking
//! "what made this block start when it did?" — the arriving boundary
//! message, or the processor still being busy with its previous tile.
//! The result is a gap-free sequence of segments tiling
//! `[path start, path end]`, each classified as
//!
//! * **compute** — a block on the path doing real work;
//! * **message** — a boundary payload in flight or being consumed
//!   (minus any overlap with the receiver's own compute, which is
//!   reported separately as *receiver-busy* time);
//! * **wait** — idle time no message explains.
//!
//! In the discrete-event simulator the reconstruction is exact: the
//! path starts at time 0 and ends at the makespan, so its length
//! *equals* the reported makespan bit-for-bit (asserted in
//! `tests/trace_analysis.rs`). On the wall-clock engines the same walk
//! holds within scheduling noise.
//!
//! [`TraceAnalysis`] bundles the path with the latency histograms of
//! [`super::histogram`] and the pipeline-efficiency summary into one
//! report (`wlc trace` / `wlc timeline`).

use std::fmt;

use super::graph::{CausalGraph, EdgeKind};
use super::histogram::TraceHistograms;
use super::report::{jnum, jstr, TraceCollector};
use super::TimeUnit;

/// What one critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A block computing on the path.
    Compute,
    /// A boundary message in flight / being consumed.
    Message,
    /// Idle time not explained by a message.
    Wait,
}

impl SegmentKind {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Message => "message",
            SegmentKind::Wait => "wait",
        }
    }
}

/// One segment of the critical path. Segments are contiguous:
/// `segments[i].to == segments[i+1].from`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// What the time was spent on.
    pub kind: SegmentKind,
    /// The accountable processor (the receiver, for messages).
    pub proc: usize,
    /// The tile the segment belongs to.
    pub tile: usize,
    /// Segment start time.
    pub from: f64,
    /// Segment end time.
    pub to: f64,
    /// For message segments: the sending processor.
    pub src_proc: Option<usize>,
    /// For message segments: the part of the window in which the
    /// receiver was busy computing other tiles (receiver-busy time, not
    /// wire latency).
    pub recv_busy: f64,
}

impl Segment {
    /// Segment duration.
    pub fn dur(&self) -> f64 {
        self.to - self.from
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Segments in time order; contiguous from [`CriticalPath::start`]
    /// to [`CriticalPath::end`].
    pub segments: Vec<Segment>,
    /// Where the path starts (0 in the simulator).
    pub start: f64,
    /// Where the path ends (the last block's finish).
    pub end: f64,
    /// Total compute time on the path.
    pub compute: f64,
    /// Total message time on the path (in flight + receive overhead,
    /// excluding receiver-busy overlap).
    pub message: f64,
    /// Message-window time in which the receiver was busy computing —
    /// the schedule, not the network, is the bottleneck there.
    pub recv_busy: f64,
    /// Idle time on the path not explained by a message.
    pub wait: f64,
}

impl CriticalPath {
    /// Path length: `end − start`. In the simulator this equals the
    /// makespan exactly.
    pub fn length(&self) -> f64 {
        self.end - self.start
    }

    /// Walk the path backwards from the graph's tail block.
    pub fn extract(g: &CausalGraph) -> CriticalPath {
        let eps = 1e-9 * g.makespan.abs().max(1.0);
        let mut rev: Vec<Segment> = Vec::new();
        let mut cur = g.tail();
        let end = g.nodes[cur].end;
        let push_compute = |rev: &mut Vec<Segment>, i: usize| {
            let n = &g.nodes[i];
            rev.push(Segment {
                kind: SegmentKind::Compute,
                proc: n.proc,
                tile: n.tile,
                from: n.start,
                to: n.end,
                src_proc: None,
                recv_busy: 0.0,
            });
        };
        push_compute(&mut rev, cur);

        // Each step moves strictly upstream (earlier tile or upstream
        // processor), so the walk is bounded by the node count; the
        // explicit cap only guards against malformed event streams.
        for _ in 0..(g.nodes.len() + g.edges.len() + 2) {
            let n = g.nodes[cur];
            // The candidate explanations for `n.start`: the latest
            // arriving message, or the processor's previous tile.
            let mut best_msg: Option<(usize, f64, f64)> = None; // (edge, sent, recv)
            let mut order: Option<usize> = None;
            for &e in g.incoming(cur) {
                match g.edges[e].kind {
                    EdgeKind::Message { sent_at, recv_at, .. } => {
                        if best_msg.is_none_or(|(_, _, r)| recv_at > r) {
                            best_msg = Some((e, sent_at, recv_at));
                        }
                    }
                    EdgeKind::Order => order = Some(e),
                }
            }
            let enable_msg = best_msg.map(|(_, _, r)| r);
            let enable_order = order.map(|e| g.nodes[g.edges[e].from].end);
            let use_msg = match (enable_msg, enable_order) {
                (Some(m), Some(o)) => m >= o,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if use_msg {
                let (e, sent_at, recv_at) = best_msg.unwrap();
                if n.start - recv_at > eps {
                    rev.push(Segment {
                        kind: SegmentKind::Wait,
                        proc: n.proc,
                        tile: n.tile,
                        from: recv_at,
                        to: n.start,
                        src_proc: None,
                        recv_busy: 0.0,
                    });
                }
                let sender = g.edges[e].from;
                let s = g.nodes[sender];
                let busy = g.compute_overlap(n.proc, sent_at, recv_at);
                rev.push(Segment {
                    kind: SegmentKind::Message,
                    proc: n.proc,
                    tile: n.tile,
                    from: sent_at,
                    to: recv_at,
                    src_proc: Some(s.proc),
                    recv_busy: busy,
                });
                if sent_at - s.end > eps {
                    // The sender held the payload after finishing the
                    // block (wall-clock engines: serialization time).
                    rev.push(Segment {
                        kind: SegmentKind::Wait,
                        proc: s.proc,
                        tile: s.tile,
                        from: s.end,
                        to: sent_at,
                        src_proc: None,
                        recv_busy: 0.0,
                    });
                }
                cur = sender;
            } else if let Some(e) = order {
                let prev = g.edges[e].from;
                let p = g.nodes[prev];
                if n.start - p.end > eps {
                    rev.push(Segment {
                        kind: SegmentKind::Wait,
                        proc: n.proc,
                        tile: n.tile,
                        from: p.end,
                        to: n.start,
                        src_proc: None,
                        recv_busy: 0.0,
                    });
                }
                cur = prev;
            } else {
                // Path head. Account for any lead-in before the first
                // block (thread spawn on the wall clock; 0 in the DES).
                if n.start > eps {
                    rev.push(Segment {
                        kind: SegmentKind::Wait,
                        proc: n.proc,
                        tile: n.tile,
                        from: 0.0,
                        to: n.start,
                        src_proc: None,
                        recv_busy: 0.0,
                    });
                }
                break;
            }
            push_compute(&mut rev, cur);
        }

        rev.reverse();
        // Pin neighbouring endpoints together so the tiling is exact
        // even where matching tolerated sub-eps jitter.
        for i in 1..rev.len() {
            rev[i].from = rev[i - 1].to;
        }
        let (mut compute, mut message, mut recv_busy, mut wait) = (0.0, 0.0, 0.0, 0.0);
        for s in &rev {
            match s.kind {
                SegmentKind::Compute => compute += s.dur(),
                SegmentKind::Message => {
                    let busy = s.recv_busy.min(s.dur());
                    message += s.dur() - busy;
                    recv_busy += busy;
                }
                SegmentKind::Wait => wait += s.dur(),
            }
        }
        let start = rev.first().map_or(0.0, |s| s.from);
        CriticalPath { segments: rev, start, end, compute, message, recv_busy, wait }
    }
}

/// The full causal analysis of one recorded run: critical path,
/// pipeline efficiency, and latency histograms.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// The run's reported makespan.
    pub makespan: f64,
    /// Unit of all times in the analysis.
    pub time_unit: TimeUnit,
    /// Number of active processors.
    pub active_procs: usize,
    /// The extracted critical path.
    pub critical: CriticalPath,
    /// Perfect-pipelining bound: total compute ÷ active processors.
    pub ideal: f64,
    /// Pipeline efficiency: `ideal ÷ makespan` (1.0 = perfect overlap).
    pub efficiency: f64,
    /// Latency histograms over every block / message / stall.
    pub histograms: TraceHistograms,
}

impl TraceAnalysis {
    /// Analyze a recorded run. Returns `None` if the collector observed
    /// no run or no blocks.
    pub fn from_trace(trace: &TraceCollector) -> Option<TraceAnalysis> {
        let g = CausalGraph::from_trace(trace)?;
        let critical = CriticalPath::extract(&g);
        let active = g.meta.active.len().max(1);
        let ideal = g.total_compute() / active as f64;
        let makespan = g.makespan;
        let efficiency = if makespan > 0.0 { ideal / makespan } else { 0.0 };
        Some(TraceAnalysis {
            makespan,
            time_unit: g.meta.time_unit,
            active_procs: active,
            critical,
            ideal,
            efficiency,
            histograms: TraceHistograms::from_trace(trace),
        })
    }

    /// Serialize as a self-contained JSON object (exact segment list and
    /// histogram buckets included).
    pub fn to_json(&self) -> String {
        let segs: Vec<String> = self
            .critical
            .segments
            .iter()
            .map(|s| {
                let src = s
                    .src_proc
                    .map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"kind\":{},\"proc\":{},\"tile\":{},\"from\":{},\"to\":{},\
                     \"src_proc\":{},\"recv_busy\":{}}}",
                    jstr(s.kind.name()),
                    s.proc,
                    s.tile,
                    jnum(s.from),
                    jnum(s.to),
                    src,
                    jnum(s.recv_busy),
                )
            })
            .collect();
        format!(
            "{{\"makespan\":{},\"time_unit\":{},\"active_procs\":{},\
             \"ideal\":{},\"efficiency\":{},\
             \"critical_path\":{{\"start\":{},\"end\":{},\"length\":{},\
             \"compute\":{},\"message\":{},\"recv_busy\":{},\"wait\":{},\
             \"segments\":[{}]}},\
             \"histograms\":{}}}",
            jnum(self.makespan),
            jstr(self.time_unit.name()),
            self.active_procs,
            jnum(self.ideal),
            jnum(self.efficiency),
            jnum(self.critical.start),
            jnum(self.critical.end),
            jnum(self.critical.length()),
            jnum(self.critical.compute),
            jnum(self.critical.message),
            jnum(self.critical.recv_busy),
            jnum(self.critical.wait),
            segs.join(","),
            self.histograms.to_json(),
        )
    }
}

impl fmt::Display for TraceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = match self.time_unit {
            TimeUnit::ModelUnits => "model units",
            TimeUnit::Seconds => "s",
        };
        let cp = &self.critical;
        let len = cp.length().max(f64::MIN_POSITIVE);
        writeln!(
            f,
            "critical path: {:.6} {unit} over {} segments \
             (compute {:.1}% / message {:.1}% / recv-busy {:.1}% / wait {:.1}%)",
            cp.length(),
            cp.segments.len(),
            100.0 * cp.compute / len,
            100.0 * cp.message / len,
            100.0 * cp.recv_busy / len,
            100.0 * cp.wait / len,
        )?;
        writeln!(
            f,
            "pipeline efficiency: {:.3} (ideal {:.6} / observed {:.6} {unit})",
            self.efficiency, self.ideal, self.makespan
        )?;
        write!(f, "{}", self.histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{
        BlockEvent, Collector, EngineKind, MessageEvent, Prediction, RunMeta,
    };

    fn meta(active: Vec<usize>) -> RunMeta {
        RunMeta {
            engine: EngineKind::Sim,
            procs: active.len(),
            active,
            tiles: 2,
            block: 3,
            pipelined: true,
            machine: "test".into(),
            time_unit: TimeUnit::ModelUnits,
            predicted: Prediction::default(),
        }
    }

    /// A hand-built two-processor pipeline in DES style: every start is
    /// explained exactly by a message arrival or the previous tile.
    fn pipeline_trace() -> TraceCollector {
        let mut c = TraceCollector::new();
        c.begin(&meta(vec![0, 1]));
        c.block(BlockEvent { proc: 0, tile: 0, start: 0.0, end: 2.0, elems: 4 });
        c.block(BlockEvent { proc: 0, tile: 1, start: 2.0, end: 4.0, elems: 4 });
        c.message(MessageEvent { from: 0, to: 1, tile: 0, elems: 2, sent_at: 2.0, recv_at: 3.0 });
        c.block(BlockEvent { proc: 1, tile: 0, start: 3.0, end: 5.0, elems: 4 });
        c.message(MessageEvent { from: 0, to: 1, tile: 1, elems: 2, sent_at: 4.0, recv_at: 6.0 });
        c.block(BlockEvent { proc: 1, tile: 1, start: 6.0, end: 8.0, elems: 4 });
        c.end(8.0);
        c
    }

    #[test]
    fn path_tiles_the_makespan_exactly() {
        let a = TraceAnalysis::from_trace(&pipeline_trace()).unwrap();
        let cp = &a.critical;
        assert_eq!(cp.start, 0.0);
        assert_eq!(cp.end, 8.0);
        assert_eq!(cp.length(), a.makespan);
        // Contiguity.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        // The path: c(0,0) [0,2] → msg [2,3] → c(1,0) [3,5] → msg(1) —
        // wait, tile 1's message arrives at 6 while proc 1 computed
        // until 5: msg window [4,6] overlaps compute [4,5] → 1.0
        // receiver-busy.
        assert!((cp.compute - 6.0).abs() < 1e-12);
        assert!((cp.message + cp.recv_busy + cp.wait - 2.0).abs() < 1e-12);
        assert!(cp.recv_busy > 0.0);
    }

    #[test]
    fn classification_sums_to_length() {
        let a = TraceAnalysis::from_trace(&pipeline_trace()).unwrap();
        let cp = &a.critical;
        let total = cp.compute + cp.message + cp.recv_busy + cp.wait;
        assert!((total - cp.length()).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_the_ideal_over_the_makespan() {
        let a = TraceAnalysis::from_trace(&pipeline_trace()).unwrap();
        // 8 units of compute over 2 procs, makespan 8 → efficiency 0.5.
        assert!((a.efficiency - 0.5).abs() < 1e-12);
        assert!((a.ideal - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_block_run_is_all_compute() {
        let mut c = TraceCollector::new();
        c.begin(&meta(vec![0]));
        c.block(BlockEvent { proc: 0, tile: 0, start: 0.0, end: 5.0, elems: 10 });
        c.end(5.0);
        let a = TraceAnalysis::from_trace(&c).unwrap();
        assert_eq!(a.critical.length(), 5.0);
        assert_eq!(a.critical.compute, 5.0);
        assert_eq!(a.critical.wait, 0.0);
        assert_eq!(a.efficiency, 1.0);
    }

    #[test]
    fn leading_gap_becomes_startup_wait() {
        let mut c = TraceCollector::new();
        c.begin(&meta(vec![0]));
        c.block(BlockEvent { proc: 0, tile: 0, start: 1.0, end: 5.0, elems: 10 });
        c.end(5.0);
        let a = TraceAnalysis::from_trace(&c).unwrap();
        assert_eq!(a.critical.start, 0.0);
        assert_eq!(a.critical.length(), 5.0);
        assert!((a.critical.wait - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_schema_keys_and_parses() {
        let a = TraceAnalysis::from_trace(&pipeline_trace()).unwrap();
        let j = a.to_json();
        let v = crate::telemetry::json::JsonValue::parse(&j).expect("analysis JSON parses");
        assert_eq!(
            v.get("critical_path").unwrap().get("length").unwrap().as_f64(),
            Some(8.0)
        );
        assert!(v.get("histograms").unwrap().get("compute").is_some());
    }
}
