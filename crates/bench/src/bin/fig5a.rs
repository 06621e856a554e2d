//! Figure 5(a): modeled versus simulated speedup due to pipelining of the
//! Tomcatv wavefront computation on the Cray T3E.
//!
//! Reproduces the paper's comparison: *Model1* (constant-cost, β = 0)
//! predicts optimal block size b = 39; *Model2* (linear-cost Equation
//! (1)) predicts b = 23, which tracks the measured ("experimental" — here
//! simulated) speedup far better. Run with
//! `cargo run --release -p wavefront-bench --bin fig5a`.

use wavefront_bench::{f2, Table};
use wavefront_core::prelude::compile;
use wavefront_kernels::tomcatv;
use wavefront_machine::{fig5a_problem, fig5a_t3e};
use wavefront_model::PipeModel;
use wavefront_pipeline::{BlockPolicy, Session};

fn main() {
    let params = fig5a_t3e();
    let (n, p) = fig5a_problem();
    println!("## Figure 5(a): speedup due to pipelining vs block size");
    println!(
        "   Tomcatv forward wavefront, n = {n}, p = {p}, {} (alpha = {}, beta = {})\n",
        params.name, params.alpha, params.beta
    );

    // The analytic models use the paper's unit-work normalization; the
    // simulator runs the actual Tomcatv nest, so its work factor (flops
    // per element) is folded into the communication constants to keep the
    // same alpha/beta *ratio to compute* as the models.
    let model2 = PipeModel::new(n, p, params.alpha, params.beta);
    let model1 = model2.model1();

    let lo = tomcatv::build(n as i64 + 2).expect("tomcatv builds");
    let compiled = compile(&lo.program).expect("tomcatv compiles");
    let nest = compiled
        .nests()
        .find(|x| x.is_scan)
        .expect("tomcatv has a wavefront");
    let work = nest.stmts.iter().map(|s| s.rhs.flop_count()).sum::<usize>() as f64;
    let scaled =
        wavefront_machine::MachineParams::custom("scaled", params.alpha * work, params.beta * work);

    let t_at_policy = |policy: BlockPolicy| {
        Session::new(&lo.program, nest)
            .procs(p)
            .block(policy)
            .machine(scaled)
            .estimate()
            .time
    };

    // Simulated baseline: the naive (non-pipelined) schedule.
    let t_naive_sim = t_at_policy(BlockPolicy::FullPortion);

    let mut table = Table::new(&["b", "Model1 speedup", "Model2 speedup", "Simulated speedup"]);
    let bs = [
        1usize, 2, 4, 8, 12, 16, 20, 23, 28, 32, 39, 48, 64, 96, 128, 192, 256,
    ];
    let mut best_sim = (0usize, 0.0f64);
    for b in bs {
        let t_sim = t_at_policy(BlockPolicy::Fixed(b));
        let s_sim = t_naive_sim / t_sim;
        if s_sim > best_sim.1 {
            best_sim = (b, s_sim);
        }
        let (s1, s2) = (
            model1.speedup_vs_naive(b as f64),
            model2.speedup_vs_naive(b as f64),
        );
        table.row(&[b.to_string(), f2(s1), f2(s2), f2(s_sim)]);
    }
    table.print();

    let b1 = model1.optimal_b_eq1().round() as usize;
    let b2 = model2.optimal_b_exact().round() as usize;
    println!("\n  Model1 optimal block size (paper: 39): {b1}");
    println!("  Model2 optimal block size (paper: 23): {b2}");
    println!("  Simulator-best block size among sweep: {}", best_sim.0);

    // The paper's headline: Model2's choice beats Model1's in reality.
    let t_at = |b: usize| t_at_policy(BlockPolicy::Fixed(b));
    let (t1, t2) = (t_at(b1), t_at(b2));
    println!(
        "  Simulated time at Model1's b ({b1}): {:.0}; at Model2's b ({b2}): {:.0} — Model2 {}",
        t1,
        t2,
        if t2 <= t1 {
            "wins (matches the paper)"
        } else {
            "LOSES (mismatch!)"
        }
    );
}
