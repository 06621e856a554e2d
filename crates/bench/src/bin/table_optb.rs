//! Optimal-block-size table: Equation (1) and its variants versus the
//! brute-force numeric optimum of the analytic model and the optimum
//! probed on the task-graph simulator, across machines, problem sizes,
//! and processor counts.
//!
//! Run with `cargo run --release -p wavefront-bench --bin table_optb`.

use wavefront_bench::Table;
use wavefront_machine::{
    cray_t3e, fig5a_t3e, fig5b_hypothetical, pipeline_dag, simulate, sgi_power_challenge,
    MachineParams,
};
use wavefront_model::PipeModel;
use wavefront_pipeline::BlockCtx;

/// Evaluate candidate block sizes on the closed pipeline line of the
/// machine's task-graph simulator — `p` processors, `ceil(n_orth / b)`
/// blocks of `rows · b` work each — and return the one with the smallest
/// makespan (the first on a tie). `candidates` must not be empty.
fn probe_block(candidates: &[usize], ctx: &BlockCtx) -> usize {
    let rows = (ctx.n_wave as f64 / ctx.p as f64).ceil();
    let mut best = (f64::INFINITY, candidates[0].clamp(1, ctx.n_orth.max(1)));
    for &c in candidates {
        let b = c.clamp(1, ctx.n_orth.max(1));
        let nblocks = ctx.n_orth.div_ceil(b);
        let tasks = pipeline_dag(ctx.p, nblocks, rows * b as f64 * ctx.work, b);
        let t = simulate(&tasks, &ctx.machine, ctx.p).makespan;
        if t < best.0 {
            best = (t, b);
        }
    }
    best.1
}

fn main() {
    println!("## Optimal block size: closed forms vs numeric vs simulator probe\n");
    let mut table = Table::new(&[
        "machine",
        "n",
        "p",
        "Eq.(1)",
        "approx",
        "exact",
        "numeric",
        "probe",
    ]);
    let machines: [MachineParams; 4] =
        [cray_t3e(), sgi_power_challenge(), fig5a_t3e(), fig5b_hypothetical()];
    for m in machines {
        for (n, p) in [(64usize, 4usize), (256, 8), (256, 16), (1024, 16)] {
            let model = PipeModel::new(n, p, m.alpha, m.beta);
            let candidates: Vec<usize> = (1..=n).collect();
            let probed = probe_block(&candidates, &BlockCtx::new(n, n, p, 1.0, m));
            table.row(&[
                m.name.into(),
                n.to_string(),
                p.to_string(),
                format!("{:.1}", model.optimal_b_eq1()),
                format!("{:.1}", model.optimal_b_approx()),
                format!("{:.1}", model.optimal_b_exact()),
                model.optimal_b_numeric().to_string(),
                probed.to_string(),
            ]);
        }
    }
    table.print();
    println!("\n  Eq.(1)  = paper's closed form sqrt(alpha*n*p/((p*beta+n)(p-1)))");
    println!("  approx  = paper's sqrt(alpha*n/(p*beta+n))");
    println!("  exact   = true stationary point of T_pipe");
    println!("  numeric = integer argmin of the analytic T_pipe");
    println!("  probe   = argmin of the task-graph simulator's makespan");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_picks_minimum_of_candidates() {
        let params = cray_t3e();
        let b = probe_block(&[1, 4, 16, 64, 256], &BlockCtx::new(256, 256, 8, 1.0, params));
        // The probed choice must beat or match every other candidate.
        let eval = |b: usize| {
            let tasks = pipeline_dag(8, 256usize.div_ceil(b), 32.0 * b as f64, b);
            simulate(&tasks, &params, 8).makespan
        };
        for c in [1usize, 4, 16, 64, 256] {
            assert!(eval(b) <= eval(c), "probe chose {b} but {c} is faster");
        }
    }
}
