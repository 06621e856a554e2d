//! Block-size policies and schedules.
//!
//! A wavefront nest can run *naively* (each processor computes its whole
//! portion before forwarding boundary data — Figure 4(a)) or *pipelined*
//! with block size `b` (Figure 4(b)). The block size may be fixed by the
//! programmer or chosen by a model: **Model1** (constant communication
//! cost, Hiranandani et al.), **Model2** (the paper's linear-cost
//! Equation (1)), a **dynamic probe** that evaluates candidate sizes and
//! keeps the best, or the **adaptive** closed-loop sizer that re-fits
//! α/β from live telemetry during the fill phase (see [`crate::tune`]).
//!
//! Every policy consumes the same [`BlockCtx`]: the shape of the sweep
//! plus the machine constants. There are no ad-hoc parameter lists to
//! keep in sync.

use wavefront_machine::MachineParams;
use wavefront_model::optimal_block_rect;

/// Everything a block sizer may consult: the sweep's shape, the
/// processor count, the per-element work factor, and the machine's
/// communication constants. Built by the planners and handed unchanged
/// to [`BlockPolicy::resolve`] and [`probe_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCtx {
    /// Number of wavefront indices (the dimension carrying the
    /// dependence, distributed over processors).
    pub n_wave: usize,
    /// Number of orthogonal indices (the dimension being tiled into
    /// blocks of `b`).
    pub n_orth: usize,
    /// Processors in the pipeline (effective count, `p1 + p2 − 1` for a
    /// 2-D mesh).
    pub p: usize,
    /// Per-element compute cost of the nest body, in the same units as
    /// the machine's α and β.
    pub work: f64,
    /// Communication constants to size against.
    pub machine: MachineParams,
}

impl BlockCtx {
    /// Bundle the sizing inputs.
    pub fn new(n_wave: usize, n_orth: usize, p: usize, work: f64, machine: MachineParams) -> Self {
        BlockCtx { n_wave, n_orth, p, work, machine }
    }

    /// Round a fractional block size into the valid `1..=n_orth` range.
    pub fn clamp(&self, b: f64) -> usize {
        (b.round().max(1.0) as usize).min(self.n_orth.max(1))
    }
}

/// Configuration of the closed-loop adaptive sizer
/// ([`BlockPolicy::Adaptive`]). The defaults match the acceptance
/// experiments; see `docs/TUNING.md` for the state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// First probe tile width is `max(1, n_orth / probe_divisor)`; the
    /// second is twice that. Two distinct message sizes are the minimum
    /// needed to separate α from β.
    pub probe_divisor: usize,
    /// Below this orthogonal extent there is no room to probe and
    /// re-block; the sizer falls back to the static Model2 choice.
    pub min_orth: usize,
    /// Optional prior machine constants for the *initial* guess. When
    /// absent the planner's machine (usually a preset) seeds the guess;
    /// either way the online fit replaces it after the probe tiles.
    pub prior: Option<MachineParams>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { probe_divisor: 64, min_orth: 8, prior: None }
    }
}

impl AdaptiveConfig {
    /// The two probe tile widths for an orthogonal extent of `n_orth`
    /// and a seed block guess of `seed_block`, or `None` when the extent
    /// is too small to adapt (fewer than `min_orth` columns, or no room
    /// left after the probes).
    ///
    /// Widths track the seed guess (`w₁ ≈ b₀/2`, `w₂ = 2w₁ ≈ b₀`) so
    /// that when the prior is roughly right the probe prefix is itself
    /// near-optimally tiled and the probing costs almost nothing; the
    /// `n_orth / probe_divisor` floor keeps messages measurably large
    /// even when the prior claims communication is free. Both widths are
    /// capped so at least one steady tile remains after the probes.
    pub fn probe_widths(&self, n_orth: usize, seed_block: usize) -> Option<(usize, usize)> {
        if n_orth < self.min_orth.max(4) {
            return None;
        }
        let floor = (n_orth / self.probe_divisor.max(1)).max(1);
        let cap = (n_orth - 1) / 3;
        if cap == 0 {
            return None;
        }
        let w1 = floor.max(seed_block / 2).min(cap).max(1);
        Some((w1, 2 * w1))
    }
}

/// How to choose the pipeline block size `b`.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockPolicy {
    /// A programmer-specified block size.
    Fixed(usize),
    /// Constant-communication-cost model (`β` treated as 0).
    Model1,
    /// The paper's linear-cost model (Equation (1), rectangular form).
    Model2,
    /// No pipelining: one block spanning the whole orthogonal extent —
    /// the naive schedule of Figure 4(a).
    FullPortion,
    /// Probe the given candidate block sizes with the cost simulator and
    /// keep the fastest (the paper's "dynamic techniques for calculating
    /// it" future-work direction).
    Probe(Vec<usize>),
    /// Closed-loop adaptation: start from the model's optimum, observe
    /// the first tiles through the telemetry stream, re-fit α/β online,
    /// and re-block the remaining wavefront. Statically (through
    /// [`BlockPolicy::resolve`]) this yields the initial guess; the
    /// engines route it through [`crate::tune`] for the full loop.
    Adaptive(AdaptiveConfig),
}

impl BlockPolicy {
    /// The default probe candidates: powers of two plus the full extent.
    pub fn default_probe(n_orth: usize) -> BlockPolicy {
        let mut cands: Vec<usize> = std::iter::successors(Some(1usize), |b| Some(b * 2))
            .take_while(|&b| b <= n_orth)
            .collect();
        if !cands.contains(&n_orth) {
            cands.push(n_orth);
        }
        BlockPolicy::Probe(cands)
    }

    /// The adaptive policy with default configuration.
    pub fn adaptive() -> BlockPolicy {
        BlockPolicy::Adaptive(AdaptiveConfig::default())
    }

    /// Resolve the policy to a concrete block size for the sweep
    /// described by `ctx`.
    ///
    /// `Probe` is resolved by evaluating each candidate against the
    /// machine's pipelined task DAG (see [`probe_block`]). `Adaptive`
    /// resolves to its *initial* guess — Model2 on the prior (or the
    /// context's machine); the closed loop itself runs inside the
    /// engines, which re-block mid-flight.
    pub fn resolve(&self, ctx: &BlockCtx) -> usize {
        match self {
            BlockPolicy::Fixed(b) => (*b).clamp(1, ctx.n_orth.max(1)),
            BlockPolicy::Model1 => ctx.clamp(optimal_block_rect(
                ctx.n_wave,
                ctx.n_orth,
                ctx.p,
                ctx.machine.alpha,
                0.0,
                ctx.work,
            )),
            BlockPolicy::Model2 => ctx.clamp(optimal_block_rect(
                ctx.n_wave,
                ctx.n_orth,
                ctx.p,
                ctx.machine.alpha,
                ctx.machine.beta,
                ctx.work,
            )),
            BlockPolicy::FullPortion => ctx.n_orth.max(1),
            BlockPolicy::Probe(cands) => probe_block(cands, ctx),
            BlockPolicy::Adaptive(cfg) => {
                let seeded = match cfg.prior {
                    Some(machine) => BlockCtx { machine, ..*ctx },
                    None => *ctx,
                };
                BlockPolicy::Model2.resolve(&seeded)
            }
        }
    }
}

/// Evaluate candidate block sizes with the machine cost simulator and
/// return the one with the smallest simulated makespan. Falls back to the
/// Model2 prediction when `candidates` is empty.
pub fn probe_block(candidates: &[usize], ctx: &BlockCtx) -> usize {
    if candidates.is_empty() {
        return BlockPolicy::Model2.resolve(ctx);
    }
    let rows = (ctx.n_wave as f64 / ctx.p as f64).ceil();
    let mut best = (f64::INFINITY, candidates[0].clamp(1, ctx.n_orth.max(1)));
    for &c in candidates {
        let b = c.clamp(1, ctx.n_orth.max(1));
        let nblocks = ctx.n_orth.div_ceil(b);
        let tasks =
            wavefront_machine::pipeline_dag(ctx.p, nblocks, rows * b as f64 * ctx.work, b);
        let t = wavefront_machine::simulate(&tasks, &ctx.machine, ctx.p).makespan;
        if t < best.0 {
            best = (t, b);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t3e() -> MachineParams {
        wavefront_machine::cray_t3e()
    }

    fn ctx(n_wave: usize, n_orth: usize, p: usize, machine: MachineParams) -> BlockCtx {
        BlockCtx::new(n_wave, n_orth, p, 1.0, machine)
    }

    #[test]
    fn fixed_is_clamped() {
        let c = ctx(64, 64, 4, t3e());
        assert_eq!(BlockPolicy::Fixed(10).resolve(&c), 10);
        assert_eq!(BlockPolicy::Fixed(1000).resolve(&c), 64);
        assert_eq!(BlockPolicy::Fixed(0).resolve(&c), 1);
    }

    #[test]
    fn full_portion_spans_orthogonal_extent() {
        assert_eq!(BlockPolicy::FullPortion.resolve(&ctx(64, 300, 4, t3e())), 300);
    }

    #[test]
    fn model1_ignores_beta() {
        let a = MachineParams::custom("a", 100.0, 0.0);
        let b = MachineParams::custom("b", 100.0, 50.0);
        let m1a = BlockPolicy::Model1.resolve(&ctx(256, 256, 8, a));
        let m1b = BlockPolicy::Model1.resolve(&ctx(256, 256, 8, b));
        assert_eq!(m1a, m1b);
    }

    #[test]
    fn model2_shrinks_block_when_beta_grows() {
        let cheap = MachineParams::custom("cheap", 400.0, 1.0);
        let dear = MachineParams::custom("dear", 400.0, 200.0);
        let b_cheap = BlockPolicy::Model2.resolve(&ctx(64, 64, 16, cheap));
        let b_dear = BlockPolicy::Model2.resolve(&ctx(64, 64, 16, dear));
        assert!(b_dear < b_cheap, "{b_dear} !< {b_cheap}");
    }

    #[test]
    fn fig5a_block_sizes_via_policies() {
        let m = wavefront_machine::fig5a_t3e();
        let (n, p) = wavefront_machine::fig5a_problem();
        assert_eq!(BlockPolicy::Model1.resolve(&ctx(n, n, p, m)), 39);
        // Model2's exact stationary point lands within a couple of
        // elements of the paper's reported 23 (the paper applies an extra
        // (p−2)≈(p−1) simplification).
        let b2 = BlockPolicy::Model2.resolve(&ctx(n, n, p, m));
        assert!((22..=24).contains(&b2), "b2 = {b2}");
    }

    #[test]
    fn probe_picks_minimum_of_candidates() {
        let params = t3e();
        let b = probe_block(&[1, 4, 16, 64, 256], &ctx(256, 256, 8, params));
        // The probed choice must beat or match every other candidate.
        let eval = |b: usize| {
            let rows = 256.0 / 8.0;
            let tasks = wavefront_machine::pipeline_dag(
                8,
                256usize.div_ceil(b),
                rows * b as f64,
                b,
            );
            wavefront_machine::simulate(&tasks, &params, 8).makespan
        };
        for c in [1usize, 4, 16, 64, 256] {
            assert!(eval(b) <= eval(c), "probe chose {b} but {c} is faster");
        }
    }

    #[test]
    fn probe_on_empty_candidates_falls_back_to_model2() {
        let c = ctx(256, 256, 8, t3e());
        assert_eq!(probe_block(&[], &c), BlockPolicy::Model2.resolve(&c));
    }

    #[test]
    fn default_probe_includes_full_extent() {
        match BlockPolicy::default_probe(100) {
            BlockPolicy::Probe(c) => {
                assert!(c.contains(&1));
                assert!(c.contains(&64));
                assert!(c.contains(&100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adaptive_resolves_to_model2_initial_guess() {
        let c = ctx(256, 256, 8, t3e());
        assert_eq!(BlockPolicy::adaptive().resolve(&c), BlockPolicy::Model2.resolve(&c));
        // A prior overrides the context's machine for the seed.
        let prior = wavefront_machine::fig5b_hypothetical();
        let cfg = AdaptiveConfig { prior: Some(prior), ..AdaptiveConfig::default() };
        assert_eq!(
            BlockPolicy::Adaptive(cfg).resolve(&c),
            BlockPolicy::Model2.resolve(&ctx(256, 256, 8, prior))
        );
    }

    #[test]
    fn probe_widths_scale_and_gate() {
        let cfg = AdaptiveConfig::default();
        assert_eq!(cfg.probe_widths(256, 1), Some((4, 8)));
        assert_eq!(cfg.probe_widths(64, 1), Some((1, 2)));
        assert_eq!(cfg.probe_widths(2, 1), None); // too small to adapt
        // A confident seed pulls the probes up toward the seed block …
        assert_eq!(cfg.probe_widths(256, 64), Some((32, 64)));
        // … but never so far that no steady tile remains.
        assert_eq!(cfg.probe_widths(64, 64), Some((21, 42)));
    }
}
