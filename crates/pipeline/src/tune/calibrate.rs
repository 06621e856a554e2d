//! Host calibration: measure α, β, and per-element compute cost on the
//! machine actually running the threaded engine.
//!
//! The paper's α/β come from the Cray T3E spec sheet; here they come
//! from a microbenchmark over the exact hand-off the threaded runtime
//! performs — a [`crate::link::Progress`] post on one thread, the wait
//! for it on another, and the reader then touching the boundary where
//! its writer left it. Two threads ping-pong: each side writes an
//! `m`-element boundary, posts, and the other side waits and reads it.
//! α is what a round trip costs at `m → 0`, halved; β is what each
//! further element of a boundary *another core just wrote* adds to
//! reading it (the cache lines have to cross), which is the only volume
//! cost left once nothing is copied.
//!
//! What α is *not*: the price of waking a cell that waited past the
//! hand-off's few-microsecond spin window and parked. A pipeline pays
//! that `p − 2` times per sweep, in the fill, not once per tile, and it
//! is the OS's figure rather than the hand-off's (10–20 µs on a small
//! VM). The default boundary sizes stay small enough for both sides to
//! be read inside the window, which is also where real boundaries are
//! (tens of elements per tile on the paper's programs).
//!
//! Per-element compute cost comes from timing a multiply-add sweep over
//! a buffer, the same order of work as one stencil element. All three
//! constants land in a [`CalibratedMachine`]; `.alpha_work()` /
//! `.beta_work()` normalize them into the element-compute units the
//! paper's models use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use wavefront_model::{CalibratedMachine, OnlineEstimator};

use crate::error::PipelineError;
use crate::link::Progress;

/// Knobs of the calibration run. The defaults finish in well under a
/// second; tests shrink them further.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationConfig {
    /// Message sizes (elements) to ping-pong. Needs at least two
    /// distinct sizes to separate α from β.
    pub sizes: Vec<usize>,
    /// Timed round trips per size (the per-size minimum is kept).
    pub iters: usize,
    /// Untimed warm-up round trips per size.
    pub warmup: usize,
    /// Buffer length for the compute microbenchmark.
    pub compute_elems: usize,
    /// Sweeps over that buffer.
    pub compute_passes: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            // Up to the largest boundary a partner reads inside the
            // hand-off's spin window: past that the ping-pong measures
            // the OS waking a parked thread (see the module docs).
            sizes: vec![16, 64, 256, 1024],
            iters: 24,
            warmup: 4,
            compute_elems: 1 << 15,
            compute_passes: 32,
        }
    }
}

/// Calibrate with the default configuration.
pub fn calibrate_host() -> Result<CalibratedMachine, PipelineError> {
    calibrate_with(&CalibrationConfig::default())
}

/// Measure α, β (seconds per message / per element) and the
/// per-element compute cost (seconds) on this host.
pub fn calibrate_with(cfg: &CalibrationConfig) -> Result<CalibratedMachine, PipelineError> {
    if cfg.sizes.len() < 2 {
        return Err(PipelineError::Calibration(
            "need at least two message sizes to separate alpha from beta".into(),
        ));
    }
    let elem_cost = measure_elem_cost(cfg);
    let est = ping_pong(cfg)?;
    let (mut alpha, beta) = est.fit().ok_or_else(|| {
        PipelineError::Calibration("latency fit needs two distinct message sizes".into())
    })?;
    if alpha <= 0.0 {
        // A steep fit can push the intercept to zero; the smallest
        // latency ever observed still bounds the startup cost.
        let floor = est
            .samples()
            .iter()
            .map(|&(_, lat)| lat)
            .fold(f64::INFINITY, f64::min);
        alpha = (floor / 2.0).max(f64::MIN_POSITIVE);
    }
    let cal = CalibratedMachine::new(alpha, beta, elem_cost);
    if !cal.is_plausible() {
        return Err(PipelineError::Calibration(format!(
            "implausible constants: alpha {} beta {} elem {}",
            cal.alpha, cal.beta, cal.elem_cost
        )));
    }
    Ok(cal)
}

/// A boundary one thread writes and the other reads. The elements are
/// relaxed atomics (plain loads and stores on every target) so the two
/// threads may share them without `unsafe`; the hand-off's own
/// release/acquire pair orders each write before the read it is for.
fn boundary(len: usize) -> Arc<Vec<AtomicU64>> {
    Arc::new((0..len).map(|_| AtomicU64::new(0)).collect())
}

fn write_boundary(buf: &[AtomicU64], m: usize, round: u64) {
    for (i, x) in buf[..m].iter().enumerate() {
        x.store((round as f64 + i as f64 * 0.5).to_bits(), Ordering::Relaxed);
    }
}

fn read_boundary(buf: &[AtomicU64], m: usize) -> f64 {
    buf[..m]
        .iter()
        .map(|x| f64::from_bits(x.load(Ordering::Relaxed)))
        .sum()
}

/// One-way hand-off cost per boundary size, min-filtered over repeated
/// round trips: post, the partner's wait, and its read of the `m`
/// elements just written — there and back, halved.
///
/// The echo side prepares each reply *before* it waits, as a cell
/// computes its boundary before it posts, alternating between two
/// buffers so the next reply is never written under the reader; only
/// post → wait → read is on the clock.
fn ping_pong(cfg: &CalibrationConfig) -> Result<OnlineEstimator, PipelineError> {
    let max_size = cfg.sizes.iter().copied().max().unwrap_or(1).max(1);
    let sizes: Vec<usize> = cfg.sizes.iter().map(|&m| m.clamp(1, max_size)).collect();
    let rounds = cfg.warmup + cfg.iters;
    let (ping, pong) = (Arc::new(Progress::new()), Arc::new(Progress::new()));
    let out = boundary(max_size);
    let back = [boundary(max_size), boundary(max_size)];

    let echo = {
        let (ping, pong, out, back, sizes) = (
            Arc::clone(&ping),
            Arc::clone(&pong),
            Arc::clone(&out),
            back.clone(),
            sizes.clone(),
        );
        thread::spawn(move || {
            let _poison = pong.poison_on_panic();
            let mut round = 0u64;
            let mut sum = 0.0;
            for &m in &sizes {
                for _ in 0..rounds {
                    round += 1;
                    write_boundary(&back[(round % 2) as usize], m, round);
                    if ping.wait(round).is_err() {
                        return;
                    }
                    sum += read_boundary(&out, m);
                    pong.post(round);
                }
            }
            std::hint::black_box(sum);
        })
    };

    let mut est = OnlineEstimator::new();
    let mut round = 0u64;
    let mut sum = 0.0;
    let mut alive = true;
    'sizes: for &m in &sizes {
        for it in 0..rounds {
            round += 1;
            write_boundary(&out, m, round);
            let t0 = Instant::now();
            ping.post(round);
            if pong.wait(round).is_err() {
                alive = false;
                break 'sizes;
            }
            sum += read_boundary(&back[(round % 2) as usize], m);
            let one_way = t0.elapsed().as_secs_f64() / 2.0;
            if it >= cfg.warmup {
                est.observe(m, one_way);
            }
        }
    }
    std::hint::black_box(sum);
    let joined = echo.join();
    if !alive || joined.is_err() {
        return Err(PipelineError::Calibration(
            "echo thread died mid-benchmark".into(),
        ));
    }
    Ok(est)
}

/// Seconds per multiply-add element on this host.
fn measure_elem_cost(cfg: &CalibrationConfig) -> f64 {
    let n = cfg.compute_elems.max(1);
    let passes = cfg.compute_passes.max(1);
    let mut x = vec![1.0f64; n];
    // One untimed pass to fault the pages in.
    for v in x.iter_mut() {
        *v = *v * 1.0000001 + 1e-12;
    }
    std::hint::black_box(&x);
    let t0 = Instant::now();
    for pass in 0..passes {
        let b = 1e-12 * (pass as f64 + 1.0);
        for v in x.iter_mut() {
            *v = *v * 1.0000001 + b;
        }
        std::hint::black_box(&x);
    }
    t0.elapsed().as_secs_f64() / (n * passes) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CalibrationConfig {
        CalibrationConfig {
            sizes: vec![16, 256, 4096],
            iters: 8,
            warmup: 2,
            compute_elems: 1 << 12,
            compute_passes: 8,
        }
    }

    #[test]
    fn calibration_yields_finite_positive_constants() {
        let cal = calibrate_with(&quick()).expect("calibration runs");
        assert!(
            cal.alpha.is_finite() && cal.alpha > 0.0,
            "alpha {}",
            cal.alpha
        );
        assert!(cal.beta.is_finite() && cal.beta >= 0.0, "beta {}", cal.beta);
        assert!(cal.elem_cost.is_finite() && cal.elem_cost > 0.0);
        assert!(cal.alpha_work().is_finite() && cal.alpha_work() > 0.0);
    }

    #[test]
    fn one_size_is_rejected() {
        let cfg = CalibrationConfig {
            sizes: vec![64],
            ..quick()
        };
        let err = calibrate_with(&cfg).unwrap_err();
        assert!(matches!(err, PipelineError::Calibration(_)));
    }
}
