//! The bench's own in-memory span recorder.
//!
//! Spans are recorded from outside the program: around each call into a
//! layer, or — for stages a call reports about itself (`RunOutcome`,
//! `JobTrace`, socket time) — from the durations the call returned.
//! Spans of one op share its id; a span names its parent by index. They
//! stay in memory until the run ends, then go out in Chrome trace-event
//! form together with a self-time table.

use std::collections::BTreeMap;
use std::time::Instant;

use wavefront::pipeline::{JobTrace, JsonObj};

/// Spans kept for the Chrome trace file; the self-time table counts all.
const EXPORT_CAP: usize = 20_000;

/// One recorded interval.
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.service.queue`.
    pub name: &'static str,
    /// Id shared by all spans of one op.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// Duration in seconds.
    pub dur: f64,
}

/// A recorder owned by one generator thread (no locking on the op path).
pub struct Spans {
    epoch: Instant,
    track: usize,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose spans land on Chrome track `track`, with times
    /// relative to `epoch` (shared by all tracks of a run).
    pub fn new(epoch: Instant, track: usize) -> Spans {
        Spans {
            epoch,
            track,
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record a span and return its index (for use as a parent).
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: f64,
        dur: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            dur: dur.max(0.0),
        });
        self.spans.len() - 1
    }

    /// Set the duration of span `idx` once its call has returned.
    pub fn set_dur(&mut self, idx: usize, dur: f64) {
        self.spans[idx].dur = dur;
    }

    /// Record consecutive children of `parent` from returned stage
    /// durations, the first starting at `start`. Returns the index of
    /// the first child.
    pub fn add_stages(
        &mut self,
        op: u64,
        parent: usize,
        mut start: f64,
        stages: &[(&'static str, f64)],
    ) -> usize {
        let first = self.spans.len();
        for &(name, dur) in stages {
            self.add(name, op, Some(parent), start, dur);
            start += dur.max(0.0);
        }
        first
    }

    /// Record a job's lifecycle under `parent`, from the `JobTrace` the
    /// service returned: admit, queue, exec (prep, run) and drain,
    /// telescoping from `start`.
    pub fn add_job_trace(&mut self, op: u64, parent: usize, start: f64, jt: &JobTrace) {
        let exec = self.add_stages(
            op,
            parent,
            start,
            &[
                ("pipeline.service.admit", jt.admit_seconds),
                ("pipeline.service.queue", jt.queue_seconds),
                ("pipeline.service.exec", jt.exec_seconds),
                ("pipeline.service.drain", jt.drain_seconds),
            ],
        ) + 2;
        self.add_stages(
            op,
            exec,
            start + jt.admit_seconds + jt.queue_seconds,
            &[
                ("pipeline.exec_threads.prep", jt.prep_seconds),
                ("pipeline.exec_threads.run", jt.run_seconds),
            ],
        );
    }
}

/// Self time per span name over all recorders, and the share of root
/// (`parent == None`) span time no child accounts for.
pub struct SelfTimes {
    /// `name → (count, total self seconds)`.
    pub by_name: BTreeMap<&'static str, (usize, f64)>,
    /// Σ root self time ÷ Σ root duration.
    pub unaccounted_share: f64,
}

/// Self time = a span's duration minus the part its children cover.
pub fn self_times(tracks: &[Spans]) -> SelfTimes {
    let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    let (mut root_self, mut root_total) = (0.0, 0.0);
    for track in tracks {
        let mut child_time = vec![0.0f64; track.spans.len()];
        for s in &track.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        for (s, covered) in track.spans.iter().zip(&child_time) {
            let own = (s.dur - covered).max(0.0);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
            if s.parent.is_none() {
                root_self += own;
                root_total += s.dur;
            }
        }
    }
    SelfTimes {
        by_name,
        unaccounted_share: if root_total > 0.0 {
            root_self / root_total
        } else {
            0.0
        },
    }
}

/// The spans as a Chrome trace-event document (`ph: "X"` complete
/// events, microseconds), `meta` attached as `otherData`.
pub fn chrome_trace(tracks: &[Spans], meta: &str) -> String {
    let mut events = Vec::new();
    for track in tracks {
        for (i, s) in track
            .spans
            .iter()
            .enumerate()
            .take(EXPORT_CAP / tracks.len().max(1))
        {
            let args = JsonObj::new().uint("op", s.op).uint("span", i as u64);
            let args = match s.parent {
                Some(p) => args.uint("parent", p as u64),
                None => args,
            };
            events.push(
                JsonObj::new()
                    .str("name", s.name)
                    .str("ph", "X")
                    .num("ts", s.start * 1e6)
                    .num("dur", s.dur * 1e6)
                    .uint("pid", 1)
                    .uint("tid", track.track as u64)
                    .raw("args", &args.finish())
                    .finish(),
            );
        }
    }
    JsonObj::new()
        .arr("traceEvents", events)
        .raw("otherData", meta)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Spans::new(Instant::now(), 0);
        let op = t.add("op", 1, None, 0.0, 10.0);
        let exec = t.add("exec", 1, Some(op), 1.0, 6.0);
        t.add_stages(1, exec, 1.0, &[("prep", 2.0), ("run", 3.0)]);
        let st = self_times(&[t]);
        assert_eq!(st.by_name["op"], (1, 4.0));
        assert_eq!(st.by_name["exec"], (1, 1.0));
        assert_eq!(st.by_name["run"], (1, 3.0));
        assert!((st.unaccounted_share - 0.4).abs() < 1e-12);
    }
}
