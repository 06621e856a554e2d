//! Turning an event stream into a machine-readable execution report.

use std::fmt;

use super::{BlockEvent, CacheEvent, Collector, MessageEvent, RunMeta, TimeUnit, WaitEvent};

/// A [`Collector`] that records every event and aggregates it into an
/// [`ExecutionReport`].
#[derive(Debug, Default)]
pub struct TraceCollector {
    meta: Option<RunMeta>,
    blocks: Vec<BlockEvent>,
    messages: Vec<MessageEvent>,
    waits: Vec<WaitEvent>,
    /// The run's compiled-plan cache lookup, if it went through one.
    cache: Option<CacheEvent>,
    makespan: f64,
}

impl TraceCollector {
    /// An empty collector, ready to observe one run.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw block events recorded so far.
    pub fn blocks(&self) -> &[BlockEvent] {
        &self.blocks
    }

    /// The raw message events recorded so far.
    pub fn messages(&self) -> &[MessageEvent] {
        &self.messages
    }

    /// The raw wait events recorded so far.
    pub fn waits(&self) -> &[WaitEvent] {
        &self.waits
    }

    /// The run metadata, once a run has begun.
    pub fn meta(&self) -> Option<&RunMeta> {
        self.meta.as_ref()
    }

    /// The makespan reported at [`Collector::end`] (0 before that).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Aggregate the recorded stream into a report.
    ///
    /// # Panics
    ///
    /// Panics if no run was observed (no [`Collector::begin`] call).
    pub fn report(&self) -> ExecutionReport {
        let meta = self.meta.clone().expect("TraceCollector observed no run");
        let mut per_proc: Vec<ProcTimeline> = meta
            .active
            .iter()
            .map(|&p| ProcTimeline {
                proc: p,
                ..ProcTimeline::default()
            })
            .collect();
        let slot = |procs: &[usize], p: usize| procs.iter().position(|&q| q == p);

        for b in &self.blocks {
            if let Some(i) = slot(&meta.active, b.proc) {
                let t = &mut per_proc[i];
                t.blocks += 1;
                t.elements += b.elems;
                t.compute += b.end - b.start;
                t.first_start = if t.blocks == 1 {
                    b.start
                } else {
                    t.first_start.min(b.start)
                };
                t.last_finish = t.last_finish.max(b.end);
            }
        }
        for m in &self.messages {
            if let Some(i) = slot(&meta.active, m.from) {
                per_proc[i].msgs_sent += 1;
                per_proc[i].elems_sent += m.elems;
            }
            if let Some(i) = slot(&meta.active, m.to) {
                per_proc[i].msgs_recv += 1;
                per_proc[i].elems_recv += m.elems;
            }
        }
        for w in &self.waits {
            if let Some(i) = slot(&meta.active, w.proc) {
                per_proc[i].recv_wait += w.end - w.start;
            }
        }

        let elements: usize = self.messages.iter().map(|m| m.elems).sum();
        let phases = PhaseBreakdown::from_timelines(&per_proc, self.makespan);
        ExecutionReport {
            meta,
            makespan: self.makespan,
            messages: self.messages.len(),
            elements,
            bytes: elements * std::mem::size_of::<f64>(),
            per_proc,
            phases,
            cache: self.cache,
        }
    }
}

impl Collector for TraceCollector {
    fn begin(&mut self, meta: &RunMeta) {
        self.meta = Some(meta.clone());
        self.blocks.clear();
        self.messages.clear();
        self.waits.clear();
        self.cache = None;
        self.makespan = 0.0;
    }
    fn block(&mut self, ev: BlockEvent) {
        self.blocks.push(ev);
    }
    fn message(&mut self, ev: MessageEvent) {
        self.messages.push(ev);
    }
    fn wait(&mut self, ev: WaitEvent) {
        self.waits.push(ev);
    }
    fn cache(&mut self, ev: CacheEvent) {
        self.cache = Some(ev);
    }
    fn end(&mut self, makespan: f64) {
        self.makespan = makespan;
    }
}

/// Aggregated activity of one processor over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcTimeline {
    /// Processor id (an active rank of the plan's distribution).
    pub proc: usize,
    /// Blocks (tiles) computed.
    pub blocks: usize,
    /// Elements computed.
    pub elements: usize,
    /// Total compute time.
    pub compute: f64,
    /// Total time stalled waiting for upstream data.
    pub recv_wait: f64,
    /// Boundary messages sent.
    pub msgs_sent: usize,
    /// Boundary messages received.
    pub msgs_recv: usize,
    /// Elements sent downstream.
    pub elems_sent: usize,
    /// Elements received from upstream.
    pub elems_recv: usize,
    /// Start of the first block.
    pub first_start: f64,
    /// End of the last block.
    pub last_finish: f64,
}

/// The pipeline-phase decomposition of a run: `fill + steady + drain`
/// always equals the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Time until the most-downstream active processor starts its first
    /// block (the pipeline ramping up, Figure 4(b)'s staircase).
    pub fill: f64,
    /// Time with every processor potentially busy.
    pub steady: f64,
    /// Time after the most-upstream active processor finished its last
    /// block (the pipeline emptying).
    pub drain: f64,
}

impl PhaseBreakdown {
    /// Derive the phases from per-processor timelines ordered most
    /// upstream first.
    pub fn from_timelines(per_proc: &[ProcTimeline], makespan: f64) -> Self {
        let fill = per_proc
            .iter()
            .rev()
            .find(|t| t.blocks > 0)
            .map_or(0.0, |t| t.first_start)
            .clamp(0.0, makespan);
        let drain = per_proc
            .iter()
            .find(|t| t.blocks > 0)
            .map_or(0.0, |t| makespan - t.last_finish)
            .clamp(0.0, makespan - fill);
        PhaseBreakdown {
            fill,
            steady: makespan - fill - drain,
            drain,
        }
    }
}

/// The aggregated outcome of one instrumented plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Static facts about the run.
    pub meta: RunMeta,
    /// Completion time of the run, in [`RunMeta::time_unit`]s.
    pub makespan: f64,
    /// Boundary messages observed.
    pub messages: usize,
    /// Elements observed on the wire.
    pub elements: usize,
    /// Bytes observed on the wire (`elements * 8`).
    pub bytes: usize,
    /// One timeline per active processor, most upstream first.
    pub per_proc: Vec<ProcTimeline>,
    /// Fill / steady-state / drain decomposition of the makespan.
    pub phases: PhaseBreakdown,
    /// The compiled-plan cache lookup of this run, when it went through
    /// a [`crate::service::WavefrontService`] (`None` for one-shot
    /// `Session` runs, which bypass the cache).
    pub cache: Option<CacheEvent>,
}

/// Escape a string for inclusion in a JSON document.
pub(crate) fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number (Rust's `Display` for finite floats
/// never produces exponent notation, which keeps this valid JSON).
pub(crate) fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl ExecutionReport {
    /// Serialize the report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let active: Vec<String> = m.active.iter().map(|p| p.to_string()).collect();
        let per_proc: Vec<String> = self
            .per_proc
            .iter()
            .map(|t| {
                format!(
                    "{{\"proc\":{},\"blocks\":{},\"elements\":{},\"compute\":{},\
                     \"recv_wait\":{},\"msgs_sent\":{},\"msgs_recv\":{},\
                     \"elems_sent\":{},\"elems_recv\":{},\"first_start\":{},\"last_finish\":{}}}",
                    t.proc,
                    t.blocks,
                    t.elements,
                    jnum(t.compute),
                    jnum(t.recv_wait),
                    t.msgs_sent,
                    t.msgs_recv,
                    t.elems_sent,
                    t.elems_recv,
                    jnum(t.first_start),
                    jnum(t.last_finish),
                )
            })
            .collect();
        let cache = match &self.cache {
            Some(c) => c.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"engine\":{},\"machine\":{},\"time_unit\":{},\"procs\":{},\
             \"active_procs\":[{}],\"tiles\":{},\"block\":{},\"pipelined\":{},\
             \"makespan\":{},\"messages\":{},\"elements\":{},\"bytes\":{},\
             \"predicted\":{{\"messages\":{},\"elements\":{},\"bytes\":{}}},\
             \"phases\":{{\"fill\":{},\"steady\":{},\"drain\":{}}},\
             \"cache\":{cache},\
             \"per_proc\":[{}]}}",
            jstr(m.engine.name()),
            jstr(&m.machine),
            jstr(m.time_unit.name()),
            m.procs,
            active.join(","),
            m.tiles,
            m.block,
            m.pipelined,
            jnum(self.makespan),
            self.messages,
            self.elements,
            self.bytes,
            m.predicted.messages,
            m.predicted.elements,
            m.predicted.bytes,
            jnum(self.phases.fill),
            jnum(self.phases.steady),
            jnum(self.phases.drain),
            per_proc.join(","),
        )
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.meta;
        let unit = match m.time_unit {
            TimeUnit::ModelUnits => "model units",
            TimeUnit::Seconds => "s",
        };
        writeln!(
            f,
            "engine {} on {} — p = {} ({} active), b = {}, {} tiles, {}",
            m.engine,
            m.machine,
            m.procs,
            m.active.len(),
            m.block,
            m.tiles,
            if m.pipelined { "pipelined" } else { "naive" },
        )?;
        writeln!(
            f,
            "makespan {:.6} {unit}; {} messages / {} elements / {} bytes (predicted {} / {} / {})",
            self.makespan,
            self.messages,
            self.elements,
            self.bytes,
            m.predicted.messages,
            m.predicted.elements,
            m.predicted.bytes,
        )?;
        writeln!(
            f,
            "phases: fill {:.6} + steady {:.6} + drain {:.6}",
            self.phases.fill, self.phases.steady, self.phases.drain
        )?;
        writeln!(
            f,
            "{:>6} {:>7} {:>9} {:>12} {:>12} {:>6} {:>6} {:>10} {:>10}",
            "proc",
            "blocks",
            "elems",
            "compute",
            "recv_wait",
            "sent",
            "recv",
            "elems_out",
            "elems_in"
        )?;
        for t in &self.per_proc {
            writeln!(
                f,
                "{:>6} {:>7} {:>9} {:>12.6} {:>12.6} {:>6} {:>6} {:>10} {:>10}",
                t.proc,
                t.blocks,
                t.elements,
                t.compute,
                t.recv_wait,
                t.msgs_sent,
                t.msgs_recv,
                t.elems_sent,
                t.elems_recv,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EngineKind, Prediction};

    fn meta(active: Vec<usize>) -> RunMeta {
        RunMeta {
            engine: EngineKind::Sim,
            procs: 4,
            active,
            tiles: 2,
            block: 3,
            pipelined: true,
            machine: "test".into(),
            time_unit: TimeUnit::ModelUnits,
            predicted: Prediction {
                messages: 2,
                elements: 6,
                bytes: 48,
            },
        }
    }

    #[test]
    fn report_aggregates_blocks_messages_and_phases() {
        let mut c = TraceCollector::new();
        c.begin(&meta(vec![0, 1]));
        c.block(BlockEvent {
            proc: 0,
            tile: 0,
            start: 0.0,
            end: 2.0,
            elems: 6,
        });
        c.block(BlockEvent {
            proc: 0,
            tile: 1,
            start: 2.0,
            end: 4.0,
            elems: 6,
        });
        c.block(BlockEvent {
            proc: 1,
            tile: 0,
            start: 3.0,
            end: 5.0,
            elems: 6,
        });
        c.block(BlockEvent {
            proc: 1,
            tile: 1,
            start: 5.0,
            end: 7.0,
            elems: 6,
        });
        c.message(MessageEvent {
            from: 0,
            to: 1,
            tile: 0,
            elems: 3,
            sent_at: 2.0,
            recv_at: 3.0,
        });
        c.message(MessageEvent {
            from: 0,
            to: 1,
            tile: 1,
            elems: 3,
            sent_at: 4.0,
            recv_at: 5.0,
        });
        c.wait(WaitEvent {
            proc: 1,
            start: 0.0,
            end: 3.0,
        });
        c.end(7.0);

        let r = c.report();
        assert_eq!(r.messages, 2);
        assert_eq!(r.elements, 6);
        assert_eq!(r.bytes, 48);
        assert_eq!(r.per_proc[0].msgs_sent, 2);
        assert_eq!(r.per_proc[1].msgs_recv, 2);
        assert_eq!(r.per_proc[1].recv_wait, 3.0);
        // fill = proc 1's first start; drain = makespan − proc 0's last end.
        assert_eq!(r.phases.fill, 3.0);
        assert_eq!(r.phases.drain, 3.0);
        assert_eq!(r.phases.steady, 1.0);
        let total = r.phases.fill + r.phases.steady + r.phases.drain;
        assert!((total - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn json_contains_schema_keys() {
        let mut c = TraceCollector::new();
        c.begin(&meta(vec![0]));
        c.block(BlockEvent {
            proc: 0,
            tile: 0,
            start: 0.0,
            end: 1.0,
            elems: 6,
        });
        c.end(1.0);
        let j = c.report().to_json();
        for key in [
            "\"engine\"",
            "\"machine\"",
            "\"per_proc\"",
            "\"phases\"",
            "\"fill\"",
            "\"steady\"",
            "\"drain\"",
            "\"messages\"",
            "\"bytes\"",
            "\"predicted\"",
            "\"active_procs\"",
            "\"time_unit\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn phases_sum_to_makespan_even_when_degenerate() {
        let tl = vec![ProcTimeline {
            proc: 0,
            blocks: 0,
            ..Default::default()
        }];
        let ph = PhaseBreakdown::from_timelines(&tl, 5.0);
        assert_eq!(ph.fill + ph.steady + ph.drain, 5.0);
    }
}
