//! The five workloads. Each module sets its workload up from a seed,
//! opens one timed window through a driver of `drive.rs`, and — in a
//! traced run — records the layers on its path.

pub mod jobs;
pub mod loops;
pub mod sweep;
pub mod wire;

use std::time::Instant;

use wavefront::pipeline::{ServiceConfig, WavefrontService};

use crate::drive::Window;
use crate::host::PROCS;
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::median;

/// Rounds of one untraced run. Each sets the workload up afresh — new
/// arrays, service, server, connections and threads — and measures a
/// quarter of the window on it: what a context settles into by chance
/// (page placement, which threads share a core) is then sampled four
/// times per run and not once, and `setup_s` is the median of four
/// set-ups spread over the run and not a single shot.
const ROUNDS: usize = 4;

/// Seconds of the lead-in round that comes before them: set up, run and
/// checked like the others, but not timed. Memory the process touches
/// for the first time runs up to 1.4x slower on the reference host for
/// the first seconds (0.1 s on one run, 5 s on the next); the rounds
/// that follow reuse the lead-in's memory (see `host::retain_memory`).
const LEAD_IN_SECONDS: f64 = 3.0;

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Median wall seconds of one set-up, floor computation excluded.
    pub setup_s: f64,
    /// The timed windows, pooled.
    pub window: Window,
    /// Span recorders of a traced run, one per generator (else empty).
    pub tracks: Vec<Spans>,
}

/// Wall clock of one set-up that can be paused around floor
/// computation: the floor is the bench's yardstick, not the system's
/// set-up work.
pub struct SetupClock {
    start: Instant,
    excluded: f64,
}

impl SetupClock {
    /// Start timing.
    pub fn start() -> SetupClock {
        SetupClock {
            start: Instant::now(),
            excluded: 0.0,
        }
    }

    /// Run `f` off the clock.
    pub fn excluding<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.excluded += t0.elapsed().as_secs_f64();
        r
    }

    /// Seconds on the clock so far.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded
    }
}

/// The untraced run: a lead-in round and [`ROUNDS`] timed ones. Each
/// builds a context with `setup` (which returns it with its set-up
/// seconds), opens a window on it with `window` — of `seconds / ROUNDS`,
/// the lead-in's of at most [`LEAD_IN_SECONDS`] — and tears it down
/// (`drop`) before the next is built, so peak memory is that of one.
/// `setup_s` is the median of all five set-ups.
pub fn measure_rounds<C>(
    seconds: f64,
    mut setup: impl FnMut() -> crate::Result<(C, f64)>,
    mut window: impl FnMut(C, f64) -> crate::Result<Window>,
) -> crate::Result<Outcome> {
    let mut setups = Vec::with_capacity(ROUNDS + 1);
    let mut total = Window::default();
    let per_round = seconds / ROUNDS as f64;
    for round in 0..=ROUNDS {
        let (ctx, secs) = setup()?;
        setups.push(secs);
        if round == 0 {
            // Untimed, but a wrong result counts like any other.
            let lead_in = window(ctx, per_round.min(LEAD_IN_SECONDS))?;
            total.attempted += lead_in.attempted;
            total.failed += lead_in.failed;
        } else {
            total.absorb(window(ctx, per_round)?);
        }
    }
    Ok(Outcome {
        setup_s: median(&mut setups),
        window: total,
        tracks: Vec::new(),
    })
}

/// Run workload `name`; with `layers`, as the traced run.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    layers: Option<&mut Layers>,
) -> crate::Result<Outcome> {
    match name {
        "sweep_large" => sweep::run(seed, seconds, layers),
        "jobs_small" => jobs::run(seed, seconds, layers),
        "wire_jobs" => wire::run(seed, seconds, layers),
        "loop_small" => loops::run(loops::SMALL, seed, seconds, layers),
        "loop_large" => loops::run(loops::LARGE, seed, seconds, layers),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

/// Share of a traced run's `--seconds` spent in the traced window; the
/// rest is left for the layer probes.
pub const TRACED_WINDOW_SHARE: f64 = 0.5;

/// Record what every traced window yields: the tracing overhead (traced
/// ÷ untraced median op time, the two interleaved in one window), the
/// share of op time no child span accounts for, the traced sample
/// count, and the copy-on-write bytes the T and the S ops caused.
pub fn record_window(layers: &mut Layers, window: &Window, tracks: &[Spans]) {
    let (mut traced, mut plain) = (window.traced_latencies.clone(), window.latencies.clone());
    if !traced.is_empty() && !plain.is_empty() {
        layers.set(
            "pipeline.telemetry.trace_overhead_ratio",
            median(&mut traced) / median(&mut plain),
        );
    }
    layers.set(
        "bench.trace_unaccounted_share",
        crate::spans::self_times(tracks).unaccounted_share,
    );
    layers.set("bench.samples", traced.len() as f64);
    layers.set("core.array.cow_bytes", window.t_cow_bytes as f64);
    layers.set("core.array.cow_bytes_seq", window.s_cow_bytes as f64);
}

/// A service sized for the host rules: [`PROCS`] pre-spawned workers,
/// defaults otherwise (`metrics` is the registry's kill switch).
pub fn start_service(metrics: bool) -> WavefrontService<2> {
    WavefrontService::with_config(ServiceConfig {
        workers: PROCS,
        metrics,
        ..ServiceConfig::default()
    })
}

/// Record the counters of `service` after a traced window that started
/// with `spawns_before` pool spawns.
pub fn record_service_stats(
    layers: &mut Layers,
    service: &WavefrontService<2>,
    spawns_before: u64,
) {
    let stats = service.stats();
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    layers.set(
        "pipeline.service.cache_hit_ratio",
        stats.cache_hits as f64 / lookups as f64,
    );
    layers.set("pipeline.service.cache_misses", stats.cache_misses as f64);
    layers.set(
        "pipeline.service.pool_spawns_steady",
        (stats.pool_spawns - spawns_before) as f64,
    );
    layers.set(
        "pipeline.service.blocked_submits",
        stats.blocked_submits as f64,
    );
    layers.set("pipeline.service.rejected", stats.jobs_rejected as f64);
}
