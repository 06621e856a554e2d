//! Block-size policies and schedules.
//!
//! A wavefront nest can run *naively* (each processor computes its whole
//! portion before forwarding boundary data — Figure 4(a)) or *pipelined*
//! with block size `b` (Figure 4(b)). The block size may be fixed by the
//! programmer or chosen by a model: **Model1** (constant communication
//! cost, Hiranandani et al.), **Model2** (the paper's linear-cost
//! Equation (1)), or a **search** that simulates the plan at each
//! candidate width and keeps the fastest — over given candidates
//! (`Probe`) or over every distinct tile count (`Adaptive`), the paper's
//! "dynamic techniques for calculating it".
//!
//! The closed forms consume a [`BlockCtx`]: the shape of the sweep plus
//! the machine constants. The searches are run by
//! [`crate::WavefrontPlan::build`], which prices each candidate on the
//! same DES the simulator engine runs.

use wavefront_machine::MachineParams;
use wavefront_model::optimal_block_rect;

/// Everything a block sizer may consult: the sweep's shape, the
/// processor count, the per-element work factor, and the machine's
/// communication constants. Built by
/// [`crate::WavefrontPlan::block_ctx`] for the closed-form sizers.
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
    /// Simulate the plan at each of the given candidate block sizes
    /// (clamped to the orthogonal extent) and keep the fastest; no
    /// candidates means Model2.
    Probe(Vec<usize>),
    /// Simulate the plan at every width that gives a distinct tile
    /// count, `ceil(n_orth / k)` for `k = 1..=n_orth`, on the session's
    /// machine, and keep the fastest.
    Adaptive,
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

    /// The widths a searching policy simulates for an orthogonal extent
    /// of `n_orth`, ascending and deduplicated, or `None` for a closed
    /// form (and for a `Probe` without candidates).
    pub(crate) fn candidates(&self, n_orth: usize) -> Option<Vec<usize>> {
        let n = n_orth.max(1);
        let mut widths: Vec<usize> = match self {
            BlockPolicy::Probe(cands) if !cands.is_empty() => {
                cands.iter().map(|&b| b.clamp(1, n)).collect()
            }
            BlockPolicy::Adaptive => (1..=n).map(|k| n.div_ceil(k)).collect(),
            _ => return None,
        };
        widths.sort_unstable();
        widths.dedup();
        Some(widths)
    }

    /// The closed-form block size for the sweep described by `ctx`. The
    /// searching policies reach here only without [`Self::candidates`]
    /// (an empty `Probe`) and fall back to Model2.
    pub(crate) fn resolve(&self, ctx: &BlockCtx) -> usize {
        let model = |beta: f64| {
            ctx.clamp(optimal_block_rect(
                ctx.n_wave,
                ctx.n_orth,
                ctx.p,
                ctx.machine.alpha,
                beta,
                ctx.work,
            ))
        };
        match self {
            BlockPolicy::Fixed(b) => (*b).clamp(1, ctx.n_orth.max(1)),
            BlockPolicy::Model1 => model(0.0),
            BlockPolicy::Model2 | BlockPolicy::Probe(_) | BlockPolicy::Adaptive => {
                model(ctx.machine.beta)
            }
            BlockPolicy::FullPortion => ctx.n_orth.max(1),
        }
    }
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
    fn empty_probe_falls_back_to_model2() {
        let c = ctx(256, 256, 8, t3e());
        assert_eq!(BlockPolicy::Probe(vec![]).candidates(256), None);
        assert_eq!(BlockPolicy::Probe(vec![]).resolve(&c), BlockPolicy::Model2.resolve(&c));
    }

    #[test]
    fn search_candidates_are_clamped_and_deduplicated() {
        let probe = BlockPolicy::Probe(vec![64, 0, 4, 1000, 4]);
        assert_eq!(probe.candidates(100), Some(vec![1, 4, 64, 100]));
        // One width per distinct tile count: 10 columns cut into 1..=10 tiles.
        assert_eq!(BlockPolicy::Adaptive.candidates(10), Some(vec![1, 2, 3, 4, 5, 10]));
        assert_eq!(BlockPolicy::Adaptive.candidates(0), Some(vec![1]));
        assert_eq!(BlockPolicy::Model2.candidates(10), None);
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
}
