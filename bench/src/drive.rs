//! The two timed-window drivers.
//!
//! Inside one window three configurations alternate — **T**, the threads
//! engine at p = 2 (the production path; every headline number comes
//! from T alone), **S**, `EngineKind::Seq` through the same front door,
//! and **F**, the hand-written floor on the same inputs. Sweeps and
//! loops alternate per op ([`run_per_op`]); the job workloads, whose load
//! comes from [`GENERATORS`] closed-loop callers, alternate in fixed
//! slices ([`run_sliced`]).
//!
//! Latency percentiles and throughput are those of every T op the
//! window completed. `pipe_speedup` and `floor_ratio` are taken **per
//! cycle** — S, F and T ops a fraction of a second apart — and the
//! median over the cycles is reported, so that drift of the host within
//! a run cancels.

use std::time::{Duration, Instant};

use wavefront::core::array::cow_bytes_copied;

use crate::host::GENERATORS;
use crate::spans::Spans;
use crate::stats::{median_or_zero, quantile};

/// Which configuration an op runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Threads engine, p = 2.
    Threads,
    /// Sequential engine, same front door.
    Seq,
    /// Hand-written floor.
    Floor,
}

/// Where a traced op records its child spans.
pub struct OpTrace<'a> {
    /// The generator's recorder.
    pub spans: &'a mut Spans,
    /// Id shared by the op's spans.
    pub op: u64,
    /// The op's root span.
    pub root: usize,
}

/// Every how many timed T/S ops of a workload with short ops the output
/// is compared bit for bit with the floor's. A prime, so that the check
/// walks through every position of a T/S cycle and every program of a
/// round-robin instead of landing on the same one each time.
pub const VERIFY_EVERY: u64 = 61;
/// The same for the two workloads whose ops take a tenth of a second.
pub const VERIFY_EVERY_LARGE: u64 = 7;

/// What the timed windows of one run measured.
#[derive(Default)]
pub struct Window {
    /// Client-observed seconds of each untraced T op, in time order.
    pub latencies: Vec<f64>,
    /// The same for traced T ops (traced runs only).
    pub traced_latencies: Vec<f64>,
    /// Grid points the untraced T ops updated.
    pub t_points: f64,
    /// Wall seconds those ops (per-op) or their slices (sliced) took.
    pub t_wall: f64,
    /// Per cycle, S time ÷ T time (sliced: T ÷ S slice throughput).
    pub pipe_cycles: Vec<f64>,
    /// Per cycle, T throughput ÷ F throughput.
    pub floor_cycles: Vec<f64>,
    /// Copy-on-write bytes (`cow_bytes_copied`) the T ops caused.
    pub t_cow_bytes: u64,
    /// The same for the S ops.
    pub s_cow_bytes: u64,
    /// T and S ops started (the floor is the yardstick, not the system).
    pub attempted: u64,
    /// Ops that errored, were refused, or differed from the floor.
    pub failed: u64,
}

impl Window {
    /// Add what a later window of the same run measured.
    pub fn absorb(&mut self, later: Window) {
        self.latencies.extend(later.latencies);
        self.traced_latencies.extend(later.traced_latencies);
        self.t_points += later.t_points;
        self.t_wall += later.t_wall;
        self.pipe_cycles.extend(later.pipe_cycles);
        self.floor_cycles.extend(later.floor_cycles);
        self.t_cow_bytes += later.t_cow_bytes;
        self.s_cow_bytes += later.s_cow_bytes;
        self.attempted += later.attempted;
        self.failed += later.failed;
    }

    /// Quantile `q` of the untraced T-op latencies, seconds.
    pub fn latency(&self, q: f64) -> f64 {
        quantile(&mut self.latencies.clone(), q)
    }

    /// Grid points per second of the untraced T ops.
    pub fn points_per_s(&self) -> f64 {
        self.t_points / self.t_wall
    }

    /// Median over the cycles of S time ÷ T time.
    pub fn pipe_speedup(&self) -> f64 {
        median_or_zero(&mut self.pipe_cycles.clone())
    }

    /// Median over the cycles of T throughput ÷ F throughput.
    pub fn floor_ratio(&self) -> f64 {
        median_or_zero(&mut self.floor_cycles.clone())
    }
}

/// A workload whose op is driven by one caller (the engine's own two
/// workers are the load).
pub trait PerOp {
    /// Every how many timed T/S ops the output is compared bit for bit
    /// with the floor's.
    fn verify_every(&self) -> u64;
    /// Grid points one op updates.
    fn points(&self) -> usize;
    /// Untimed: restore inputs, and snapshot them when `verify`.
    fn prepare(&mut self, cfg: Config, verify: bool);
    /// The op itself; the driver times the call.
    fn op(&mut self, cfg: Config, trace: Option<OpTrace<'_>>) -> crate::Result<()>;
    /// Untimed: whether the op's output equals the floor's.
    fn verify(&mut self, cfg: Config) -> bool;
}

/// One cycle of a per-op window: S and F each sit between two T ops, so
/// both ratios of the cycle compare neighbours in time.
const CYCLE: [Config; 4] = [Config::Threads, Config::Seq, Config::Threads, Config::Floor];

/// Alternate [`CYCLE`] for `seconds`. With `tracks`, every other T op is
/// traced into `tracks[0]`.
pub fn run_per_op<W: PerOp>(w: &mut W, seconds: f64, mut tracks: Option<&mut [Spans]>) -> Window {
    let mut win = Window::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut checked, mut t_ops) = (0u64, 0u64);
    let mut first_cycle = true;
    'window: loop {
        // This cycle's op seconds, by configuration.
        let (mut t_times, mut s_time, mut f_time) = (Vec::new(), None, None);
        for cfg in CYCLE {
            // The first cycle always completes, so every ratio has both
            // of its sides.
            if !first_cycle && Instant::now() >= deadline {
                break 'window;
            }
            let verify = cfg != Config::Floor && checked % w.verify_every() == 0;
            w.prepare(cfg, verify);
            let traced = cfg == Config::Threads && t_ops % 2 == 1;
            let mut trace = match (&mut tracks, traced) {
                (Some(tracks), true) => {
                    let spans = &mut tracks[0];
                    let root = spans.add("op", t_ops, None, spans.now(), 0.0);
                    Some((spans, root))
                }
                _ => None,
            };
            if cfg != Config::Floor {
                win.attempted += 1;
                checked += 1;
            }
            let cow = cow_bytes_copied();
            let op_trace = trace.as_mut().map(|(spans, root)| OpTrace {
                spans,
                op: t_ops,
                root: *root,
            });
            let t0 = Instant::now();
            let result = w.op(cfg, op_trace);
            let dt = t0.elapsed().as_secs_f64();
            match cfg {
                Config::Threads => win.t_cow_bytes += cow_bytes_copied() - cow,
                Config::Seq => win.s_cow_bytes += cow_bytes_copied() - cow,
                Config::Floor => {}
            }
            if let Some((spans, root)) = trace {
                spans.set_dur(root, dt);
            }
            if let Err(e) = result {
                // Only T and S ops can fail; the floor returns `Ok`.
                eprintln!("perfbench: {cfg:?} op failed: {e}");
                win.failed += 1;
                continue;
            }
            if verify && !w.verify(cfg) {
                eprintln!("perfbench: {cfg:?} op output differs from the floor");
                win.failed += 1;
                continue;
            }
            match cfg {
                Config::Threads => {
                    t_ops += 1;
                    t_times.push(dt);
                    if traced && tracks.is_some() {
                        win.traced_latencies.push(dt);
                    } else {
                        win.latencies.push(dt);
                        win.t_points += w.points() as f64;
                        win.t_wall += dt;
                    }
                }
                Config::Seq => s_time = Some(dt),
                Config::Floor => f_time = Some(dt),
            }
        }
        first_cycle = false;
        if !t_times.is_empty() {
            let t = t_times.iter().sum::<f64>() / t_times.len() as f64;
            win.pipe_cycles.extend(s_time.map(|s| s / t));
            win.floor_cycles.extend(f_time.map(|f| f / t));
        }
    }
    win
}

/// What one generator did in one slice.
#[derive(Default)]
struct SliceTally {
    latencies: Vec<f64>,
    points: f64,
    attempted: u64,
    failed: u64,
}

/// A workload whose load comes from [`GENERATORS`] closed-loop callers
/// over one shared service.
pub trait Sliced: Sync {
    /// Per-generator state (a connection, scratch buffers).
    type Conn: Send;

    /// One closed-loop op, the generator's `i`-th. Returns the seconds
    /// the caller observed and the grid points updated; untimed
    /// preparation (cloning the inputs) stays outside the returned time.
    fn op(
        &self,
        conn: &mut Self::Conn,
        cfg: Config,
        i: u64,
        verify: bool,
        trace: Option<(&mut Spans, u64)>,
    ) -> crate::Result<(f64, usize)>;

    /// One floor op, the `i`-th: `(seconds, grid points)`.
    fn floor_op(&mut self, i: u64) -> (f64, usize);
}

/// Slice lengths of one T/S/F cycle, seconds: long enough for a hundred
/// round trips of the slowest job, short enough that a window holds
/// some thirty cycles.
const SLICES: [(Config, f64); 3] = [
    (Config::Threads, 0.3),
    (Config::Seq, 0.2),
    (Config::Floor, 0.1),
];

/// Alternate T/S/F slices for `seconds`, T and S driven by one thread
/// per element of `conns`. With `tracks` (one per generator), every
/// other T slice is traced.
pub fn run_sliced<W: Sliced>(
    w: &mut W,
    conns: &mut [W::Conn],
    seconds: f64,
    mut tracks: Option<&mut [Spans]>,
) -> Window {
    assert_eq!(
        conns.len(),
        GENERATORS,
        "the load is exactly {GENERATORS} closed-loop callers"
    );
    let cycle: f64 = SLICES.iter().map(|s| s.1).sum();
    let cycles = (seconds / cycle).round().max(1.0);
    let scale = seconds / (cycles * cycle);
    let mut win = Window::default();
    let mut done = vec![0u64; conns.len()];
    let mut floor_ops = 0u64;
    for c in 0..cycles as u64 {
        // This cycle's slice throughputs, points per second.
        let (mut t_tput, mut s_tput, mut f_tput) = (0.0, 0.0, 0.0);
        for (cfg, len) in SLICES {
            let slice_start = Instant::now();
            let deadline = slice_start + Duration::from_secs_f64(len * scale);
            if cfg == Config::Floor {
                let (mut secs, mut points) = (0.0, 0usize);
                while Instant::now() < deadline {
                    let (s, p) = w.floor_op(floor_ops);
                    floor_ops += 1;
                    secs += s;
                    points += p;
                }
                if secs > 0.0 {
                    f_tput = points as f64 / secs;
                }
                continue;
            }
            let traced = cfg == Config::Threads && c % 2 == 1 && tracks.is_some();
            let cow = cow_bytes_copied();
            let w_ref: &W = w;
            let tallies: Vec<SliceTally> = std::thread::scope(|scope| {
                let mut track_iter = tracks.as_mut().map(|t| t.iter_mut());
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(done.iter_mut())
                    .map(|(conn, done)| {
                        let mut spans = track_iter
                            .as_mut()
                            .and_then(Iterator::next)
                            .filter(|_| traced);
                        scope.spawn(move || {
                            let mut tally = SliceTally::default();
                            while Instant::now() < deadline {
                                let verify = *done % VERIFY_EVERY == 0;
                                tally.attempted += 1;
                                let trace = spans.as_mut().map(|s| (&mut **s, *done));
                                match w_ref.op(conn, cfg, *done, verify, trace) {
                                    Ok((secs, points)) => {
                                        tally.latencies.push(secs);
                                        tally.points += points as f64;
                                    }
                                    Err(e) => {
                                        if tally.failed == 0 {
                                            eprintln!("perfbench: {cfg:?} op failed: {e}");
                                        }
                                        tally.failed += 1;
                                    }
                                }
                                *done += 1;
                            }
                            tally
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator panicked"))
                    .collect()
            });
            let wall = slice_start.elapsed().as_secs_f64();
            let points: f64 = tallies.iter().map(|t| t.points).sum();
            let mut latencies = Vec::new();
            for t in tallies {
                win.attempted += t.attempted;
                win.failed += t.failed;
                latencies.extend(t.latencies);
            }
            match cfg {
                Config::Threads => {
                    win.t_cow_bytes += cow_bytes_copied() - cow;
                    t_tput = points / wall;
                    if traced {
                        win.traced_latencies.extend(latencies);
                    } else {
                        win.latencies.extend(latencies);
                        win.t_points += points;
                        win.t_wall += wall;
                    }
                }
                Config::Seq => {
                    win.s_cow_bytes += cow_bytes_copied() - cow;
                    s_tput = points / wall;
                }
                Config::Floor => unreachable!("floor slices have no generators"),
            }
        }
        if t_tput > 0.0 && s_tput > 0.0 && f_tput > 0.0 {
            win.pipe_cycles.push(t_tput / s_tput);
            win.floor_cycles.push(t_tput / f_tput);
        }
    }
    win
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_lands_on_every_timed_position_of_a_cycle() {
        let timed: Vec<Config> = CYCLE
            .into_iter()
            .filter(|&cfg| cfg != Config::Floor)
            .collect();
        for every in [VERIFY_EVERY, VERIFY_EVERY_LARGE] {
            let mut hit = vec![false; timed.len()];
            for k in 0..timed.len() as u64 {
                hit[(k * every % timed.len() as u64) as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "period {every} skips a position");
        }
        assert!(timed.contains(&Config::Seq) && timed.contains(&Config::Threads));
    }
}
