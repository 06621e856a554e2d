//! Figure 5(b): the value of modeling the per-word communication cost β.
//!
//! The paper uses hypothetical worst-case α/β values (no experimental
//! data in the original either): Model1 — blind to β — suggests b = 20
//! while Model2 suggests b = 3, and "we can expect the speedup with a
//! block size of 20 versus 3 to be considerably less". Run with
//! `cargo run --release -p wavefront-bench --bin fig5b`.

use wavefront_bench::{f2, Table};
use wavefront_machine::{fig5b_hypothetical, fig5b_problem};
use wavefront_model::PipeModel;

fn main() {
    let params = fig5b_hypothetical();
    let (n, p) = fig5b_problem();
    println!("## Figure 5(b): Model1 vs Model2 under a beta-dominated machine");
    println!(
        "   n = {n}, p = {p}, {} (alpha = {}, beta = {})\n",
        params.name, params.alpha, params.beta
    );

    let model2 = PipeModel::new(n, p, params.alpha, params.beta);
    let model1 = model2.model1();

    let mut table = Table::new(&["b", "Model1 speedup", "Model2 speedup"]);
    for b in [1usize, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64] {
        let (s1, s2) = (model1.speedup_vs_naive(b as f64), model2.speedup_vs_naive(b as f64));
        table.row(&[b.to_string(), f2(s1), f2(s2)]);
    }
    table.print();

    let b1 = model1.optimal_b_eq1().round() as i64;
    let b2 = model2.optimal_b_exact().round() as i64;
    println!("\n  Model1 suggested block size (paper: 20): {b1}");
    println!("  Model2 suggested block size (paper: 3):  {b2}");
    // The paper's conclusion: under the true (Model2) cost function,
    // Model1's choice loses badly.
    let at = |b: i64| model2.t_pipe(b as f64);
    println!(
        "  True (Model2) time at b={b1}: {:.0} vs at b={b2}: {:.0} → Model1's choice is {:.2}x slower",
        at(b1),
        at(b2),
        at(b1) / at(b2)
    );
}
