//! The closed-loop adaptive block sizer behind
//! [`crate::BlockPolicy::Adaptive`].
//!
//! State machine (same on every engine):
//!
//! 1. **Seed** — the plan is built with the model's optimum `b₀`
//!    (Equation (1) on the configured prior or machine preset).
//! 2. **Probe** — the first two tiles are shrunk to widths `w₁` and
//!    `w₂ = 2w₁`. Two distinct widths give two distinct message sizes,
//!    the minimum needed to separate the startup cost α from the
//!    per-width cost β.
//! 3. **Fit** — from the telemetry stream of the probe tiles: each
//!    message's latency is clocked from the moment both the data and
//!    the receiver were available (the receiver's preceding block end,
//!    if later than the send), and the minimum per tile width — the
//!    unloaded channel cost — fits `latency = α̂ + β̂·w`, and the block
//!    events give the measured
//!    work ŵ per (wave row × unit of width). Fitting both against tile
//!    *width* rather than raw elements folds each link's
//!    elements-per-column factor into β̂ and each tile's interior
//!    cross-section into ŵ, so the re-fit corrects for boundary
//!    thickness, array count, and inner dimensions too — all things the
//!    static Model2 plug-in ignores.
//! 4. **Re-block** — Equation (1) on (α̂, β̂, ŵ) picks `b⋆`; the
//!    remaining extent is re-cut at `b⋆`. When nothing was observable
//!    (a sequential run sends no messages; an extent too small to
//!    probe) the sizer keeps `b₀` — the static model choice.
//!
//! On the DES simulator the probe prefix and the re-blocked remainder
//! are simulated as **one** heterogeneous-tile plan: the simulator
//! processes tasks in dependence order, so the timings of the probe
//! tiles are identical whether or not the rest of the plan is known in
//! advance — the single run *is* the closed-loop run. On the host
//! engines the loop is a phase split: one engine invocation for the
//! probe tiles, one for the remainder, with the shared store carrying
//! the boundary values between phases (a legal, coarser schedule that
//! computes bit-identical values). The attached collector sees one
//! merged event stream either way.
//!
//! The tuner owns no engine: the execution core
//! (`service::ExecCore::run`) resolves the seed plan and the lowered
//! kernel as for any job and hands [`adapt`] a closure that runs one
//! plan on its own pool, so both phases share the job's threads, cache
//! entry and kernel.

use std::sync::Arc;

use wavefront_machine::MachineParams;
use wavefront_model::{optimal_block_rect, OnlineEstimator};

use crate::plan::WavefrontPlan;
use crate::schedule::{AdaptiveConfig, BlockCtx};
use crate::telemetry::{
    BlockEvent, Collector, EngineKind, MessageEvent, Prediction, RunMeta, TraceCollector, WaitEvent,
};

/// Number of probe tiles the adaptive loop runs before re-blocking.
const PROBE_TILES: usize = 2;

/// What one closed-loop run did, in [`crate::RunOutcome`]'s terms.
pub(crate) struct Adapted {
    pub(crate) makespan: f64,
    pub(crate) messages: usize,
    /// Tiles the run ended with (probe tiles included).
    pub(crate) tiles: usize,
    /// The block size the remainder ran at: the model-seeded `b₀` when
    /// nothing could be observed.
    pub(crate) block: usize,
}

/// Fit α̂/β̂ against tile width and ŵ against wave rows × width, from
/// the probe tiles' events.
///
/// The two probe tiles jointly cover `n_wave · (w₁ + w₂)` (row, width)
/// cells exactly once, so dividing their total busy time by that count
/// yields the compute cost per (row, width) cell — automatically
/// folding in the cross-section of any dimensions that lie entirely
/// inside a tile, which the static per-element work estimate ignores.
fn fit_probe(
    trace: &TraceCollector,
    w1: usize,
    w2: usize,
    ctx: &BlockCtx,
) -> (Option<(f64, f64)>, Option<f64>) {
    let mut est = OnlineEstimator::new();
    for m in trace.messages() {
        let w = match m.tile {
            0 => w1,
            1 => w2,
            _ => continue,
        };
        if m.elems > 0 {
            // `recv_at − sent_at` over-counts when the receiver was
            // still busy when the data arrived (a receive only starts
            // once the processor is free). The receiver's last block
            // ending before this receive marks when it could have
            // posted the receive, so clocking from there isolates the
            // channel cost — essential when p is small and too few
            // messages per width exist for the min-filter to find an
            // unloaded sample on its own.
            let freed = trace
                .blocks()
                .iter()
                .filter(|b| b.proc == m.to && b.end <= m.recv_at)
                .fold(0.0f64, |acc, b| acc.max(b.end));
            est.observe(w, m.recv_at - m.sent_at.max(freed));
        }
    }
    let mut dur = 0.0f64;
    for b in trace.blocks() {
        if b.tile < PROBE_TILES {
            dur += b.end - b.start;
        }
    }
    let cells = (ctx.n_wave * (w1 + w2)) as f64;
    let work = if dur > 0.0 && cells > 0.0 {
        Some(dur / cells)
    } else {
        None
    };
    (est.fit(), work)
}

/// Equation (1) on the fitted constants, or the fallback when the fit
/// is unusable.
fn choose_block(
    ctx: &BlockCtx,
    fitted: Option<(f64, f64)>,
    work: Option<f64>,
    fallback: usize,
) -> usize {
    if let (Some((alpha, beta)), Some(w)) = (fitted, work) {
        if alpha > 0.0 && w > 0.0 {
            let b = optimal_block_rect(ctx.n_wave, ctx.n_orth, ctx.p, alpha, beta, w);
            return ctx.clamp(b);
        }
    }
    fallback
}

/// Replay two per-phase event streams into the user's collector as one
/// coherent run: phase 2 shifted by phase 1's wall time and its tiles
/// renumbered after the probe tiles.
fn merge_phases(
    user: &mut dyn Collector,
    phase1: &TraceCollector,
    phase2: &TraceCollector,
    offset: f64,
    total: f64,
    chosen_block: usize,
    tiles: usize,
) {
    let Some(m1) = phase1.meta() else { return };
    let p2 = phase2.meta().map(|m| m.predicted).unwrap_or_default();
    user.begin(&RunMeta {
        engine: m1.engine,
        procs: m1.procs,
        active: m1.active.clone(),
        tiles,
        block: chosen_block,
        pipelined: tiles > 1,
        machine: m1.machine.clone(),
        time_unit: m1.time_unit,
        predicted: Prediction {
            messages: m1.predicted.messages + p2.messages,
            elements: m1.predicted.elements + p2.elements,
            bytes: m1.predicted.bytes + p2.bytes,
        },
    });
    for (trace, toff, tile_off) in [(phase1, 0.0, 0usize), (phase2, offset, PROBE_TILES)] {
        for b in trace.blocks() {
            user.block(BlockEvent {
                proc: b.proc,
                tile: b.tile + tile_off,
                start: b.start + toff,
                end: b.end + toff,
                elems: b.elems,
            });
        }
        for m in trace.messages() {
            user.message(MessageEvent {
                from: m.from,
                to: m.to,
                tile: m.tile + tile_off,
                elems: m.elems,
                sent_at: m.sent_at + toff,
                recv_at: m.recv_at + toff,
            });
        }
        for w in trace.waits() {
            user.wait(WaitEvent {
                proc: w.proc,
                start: w.start + toff,
                end: w.end + toff,
            });
        }
    }
    user.end(total);
}

/// The gate every adaptive run passes first: a sizing context and room
/// for two probe tiles plus a remainder.
///
/// A seed plan of three tiles or fewer also declines to probe: cutting
/// probe tiles out of it would add pipeline handoffs (each worth about
/// one message latency during the fill) while leaving at most one
/// steady tile for the refit to re-block — all cost, no control.
fn probe_gate<const R: usize>(
    plan: &WavefrontPlan<R>,
    machine: MachineParams,
    cfg: &AdaptiveConfig,
) -> Option<(BlockCtx, usize, usize)> {
    if plan.tiles.len() <= 3 {
        return None;
    }
    let ctx = plan.block_ctx(machine)?;
    let (w1, w2) = cfg.probe_widths(ctx.n_orth, plan.block)?;
    Some((ctx, w1, w2))
}

/// Closed loop on the DES simulator: probe-simulate the prefix, fit,
/// then simulate ONE heterogeneous plan `[w₁, w₂, b⋆, b⋆, …]`. The
/// simulator's event order makes the prefix timings independent of the
/// suffix, so this single run is exactly what an online re-blocker
/// would have executed.
fn adapt_des<const R: usize>(
    plan: &Arc<WavefrontPlan<R>>,
    machine: MachineParams,
    cfg: &AdaptiveConfig,
    collector: &mut dyn Collector,
    mut sim: impl FnMut(&Arc<WavefrontPlan<R>>, &mut dyn Collector) -> (f64, usize),
) -> Adapted {
    let b0 = plan.block;
    let Some((ctx, w1, w2)) = probe_gate(plan, machine, cfg) else {
        return unadapted(plan, collector, sim);
    };
    let probe = Arc::new(plan.retile(&[w1, w2, b0]));
    let mut trace = TraceCollector::new();
    sim(&probe, &mut trace);
    let (fitted, work) = fit_probe(&trace, w1, w2, &ctx);
    let block = choose_block(&ctx, fitted, work, b0);
    let fin = Arc::new(plan.retile(&[w1, w2, block]));
    let (makespan, messages) = sim(&fin, collector);
    Adapted {
        makespan,
        messages,
        tiles: fin.tiles.len(),
        block,
    }
}

/// Closed loop on a host engine: phase 1 executes the two probe tiles,
/// phase 2 executes the re-blocked remainder; the shared store carries
/// the boundary values across the phase barrier.
fn adapt_host<const R: usize>(
    plan: &Arc<WavefrontPlan<R>>,
    machine: MachineParams,
    cfg: &AdaptiveConfig,
    collector: &mut dyn Collector,
    mut run: impl FnMut(&Arc<WavefrontPlan<R>>, &mut dyn Collector) -> (f64, usize),
) -> Adapted {
    let b0 = plan.block;
    let Some((ctx, w1, w2)) = probe_gate(plan, machine, cfg) else {
        return unadapted(plan, collector, run);
    };
    let mut probe = plan.retile(&[w1, w2, b0]);
    probe.tiles.truncate(PROBE_TILES);
    let mut trace1 = TraceCollector::new();
    let (t1, m1) = run(&Arc::new(probe), &mut trace1);
    let (fitted, work) = fit_probe(&trace1, w1, w2, &ctx);
    let block = choose_block(&ctx, fitted, work, b0);
    let mut rest = plan.retile(&[w1, w2, block]);
    rest.tiles.drain(..PROBE_TILES.min(rest.tiles.len()));
    let rest = Arc::new(rest);
    let mut trace2 = TraceCollector::new();
    let (t2, m2) = run(&rest, &mut trace2);
    let tiles = PROBE_TILES + rest.tiles.len();
    if collector.enabled() {
        merge_phases(collector, &trace1, &trace2, t1, t1 + t2, block, tiles);
    }
    Adapted {
        makespan: t1 + t2,
        messages: m1 + m2,
        tiles,
        block,
    }
}

/// The static fallback: no room to probe, so the seed plan runs as is.
fn unadapted<const R: usize>(
    plan: &Arc<WavefrontPlan<R>>,
    collector: &mut dyn Collector,
    mut run: impl FnMut(&Arc<WavefrontPlan<R>>, &mut dyn Collector) -> (f64, usize),
) -> Adapted {
    let (makespan, messages) = run(plan, collector);
    Adapted {
        makespan,
        messages,
        tiles: plan.tiles.len(),
        block: plan.block,
    }
}

/// The closed loop over one engine: `run` executes (or simulates) one
/// plan and returns `(makespan, messages)`.
pub(crate) fn adapt<const R: usize>(
    plan: &Arc<WavefrontPlan<R>>,
    machine: MachineParams,
    cfg: &AdaptiveConfig,
    kind: EngineKind,
    collector: &mut dyn Collector,
    run: impl FnMut(&Arc<WavefrontPlan<R>>, &mut dyn Collector) -> (f64, usize),
) -> Adapted {
    match kind {
        EngineKind::Sim => adapt_des(plan, machine, cfg, collector, run),
        EngineKind::Seq | EngineKind::Threads => adapt_host(plan, machine, cfg, collector, run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::tomcatv_nest;
    use crate::schedule::BlockPolicy;
    use crate::session::Session;
    use wavefront_core::prelude::*;

    fn init(program: &Program<2>) -> Store<2> {
        let mut store = Store::new(program);
        for id in 1..store.len() {
            let bounds = store.get(id).bounds();
            *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                1.0 + 0.01 * ((q[0] * 17 + q[1] * 29 + id as i64 * 7) % 97) as f64
            });
        }
        store
    }

    #[test]
    fn des_adaptive_recovers_from_a_wrong_prior() {
        let (program, nest) = tomcatv_nest(130);
        let machine = wavefront_machine::cray_t3e();
        // Prior claims communication is nearly free: the seed block is
        // far too small. The closed loop must land near the true model
        // optimum anyway.
        let wrong = MachineParams::custom("wrong-prior", 1.0, 0.0);
        let cfg = AdaptiveConfig {
            prior: Some(wrong),
            ..AdaptiveConfig::default()
        };
        let adaptive = Session::new(&program, &nest)
            .procs(4)
            .machine(machine)
            .block(BlockPolicy::Adaptive(cfg))
            .run(EngineKind::Sim)
            .unwrap();
        let static_best = Session::new(&program, &nest)
            .procs(4)
            .machine(machine)
            .block(BlockPolicy::Model2)
            .run(EngineKind::Sim)
            .unwrap();
        assert!(
            adaptive.makespan <= static_best.makespan * 1.10,
            "adaptive {} vs static model2 {}",
            adaptive.makespan,
            static_best.makespan
        );
        assert!(adaptive.block > 1, "chosen block stayed at the bad seed");
    }

    #[test]
    fn host_adaptive_phase_split_is_bit_exact() {
        let n = 60;
        let (program, nest) = tomcatv_nest(n);
        let mut reference = init(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        for kind in [EngineKind::Seq, EngineKind::Threads] {
            let mut store = init(&program);
            let out = Session::new(&program, &nest)
                .procs(3)
                .block(BlockPolicy::adaptive())
                .store(&mut store)
                .run(kind)
                .unwrap();
            assert!(out.makespan > 0.0);
            for id in 0..store.len() {
                assert!(
                    store.get(id).region_eq(reference.get(id), nest.region),
                    "{kind:?}: array {id} differs from the sequential reference"
                );
            }
        }
    }

    #[test]
    fn merged_collector_stream_is_coherent() {
        let (program, nest) = tomcatv_nest(60);
        let mut trace = TraceCollector::new();
        let mut store = init(&program);
        let out = Session::new(&program, &nest)
            .procs(3)
            .block(BlockPolicy::adaptive())
            .collector(&mut trace)
            .store(&mut store)
            .run(EngineKind::Threads)
            .unwrap();
        let report = trace.report();
        assert_eq!(report.messages, out.messages);
        assert_eq!(report.meta.tiles, out.tiles);
        assert_eq!(report.meta.block, out.block);
        assert_eq!(report.meta.predicted.messages, out.messages);
        // Phase-2 events must sit after phase 1 on the merged clock.
        let max_tile = trace.blocks().iter().map(|b| b.tile).max().unwrap();
        assert!(
            max_tile >= PROBE_TILES,
            "remainder tiles renumbered after probes"
        );
    }

    #[test]
    fn mesh_adaptive_runs_on_all_engines() {
        let n = 20;
        let (program, nest) = crate::plan::tests::sweep_nest(n);
        let mut reference = Store::new(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        let sim = Session::new(&program, &nest)
            .mesh([2, 2])
            .block(BlockPolicy::adaptive())
            .run(EngineKind::Sim)
            .unwrap();
        assert!(sim.makespan > 0.0);

        for kind in [EngineKind::Seq, EngineKind::Threads] {
            let mut store = Store::new(&program);
            let out = Session::new(&program, &nest)
                .mesh([2, 2])
                .block(BlockPolicy::adaptive())
                .store(&mut store)
                .run(kind)
                .unwrap();
            assert!(out.makespan > 0.0);
            for id in 0..store.len() {
                assert!(
                    store.get(id).region_eq(reference.get(id), nest.region),
                    "{kind:?}: mesh adaptive diverged from reference"
                );
            }
        }
    }

    #[test]
    fn tiny_extent_falls_back_to_static_choice() {
        let (program, nest) = tomcatv_nest(6); // 4 orthogonal columns: no probe room
        let out = Session::new(&program, &nest)
            .procs(2)
            .block(BlockPolicy::adaptive())
            .run(EngineKind::Sim)
            .unwrap();
        let static_out = Session::new(&program, &nest)
            .procs(2)
            .block(BlockPolicy::Model2)
            .run(EngineKind::Sim)
            .unwrap();
        assert_eq!(out.block, static_out.block);
        assert_eq!(out.makespan, static_out.makespan);
    }
}
