//! Block-size explorer: sweep the pipeline block size `b` for a machine
//! you describe on the command line and print the Model1 / Model2 /
//! simulated speedup curves plus every optimal-b estimate.
//!
//! ```text
//! cargo run --release --example block_size_explorer -- [n] [p] [alpha] [beta]
//! cargo run --release --example block_size_explorer -- 512 16 150 6
//! ```

use wavefront::machine::{pipeline_dag, simulate, MachineParams};
use wavefront::model::PipeModel;

fn main() {
    let args: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric arguments: n p alpha beta"))
        .collect();
    let n = *args.first().unwrap_or(&256.0) as usize;
    let p = *args.get(1).unwrap_or(&8.0) as usize;
    let alpha = *args.get(2).unwrap_or(&150.0);
    let beta = *args.get(3).unwrap_or(&6.0);
    let params = MachineParams::custom("explorer", alpha, beta);
    let model2 = PipeModel::new(n, p, alpha, beta);
    let model1 = model2.model1();

    println!("Block-size exploration: n = {n}, p = {p}, alpha = {alpha}, beta = {beta}\n");
    println!("{:>6} {:>10} {:>10} {:>12}", "b", "Model1", "Model2", "simulated");
    let sim_at = |b: usize| {
        let rows = (n as f64 / p as f64).ceil();
        let tasks = pipeline_dag(p, n.div_ceil(b), rows * b as f64, b);
        simulate(&tasks, &params, p).makespan
    };
    let t_naive = sim_at(n);
    let mut b = 1usize;
    while b <= n {
        println!(
            "{:>6} {:>10.2} {:>10.2} {:>12.2}",
            b,
            model1.speedup_vs_naive(b as f64),
            model2.speedup_vs_naive(b as f64),
            t_naive / sim_at(b),
        );
        b *= 2;
    }

    println!("\nOptimal-b estimates:");
    println!("  Equation (1):            {:.1}", model2.optimal_b_eq1());
    println!("  paper's approximation:   {:.1}", model2.optimal_b_approx());
    println!("  exact stationary point:  {:.1}", model2.optimal_b_exact());
    println!("  numeric argmin of model: {}", model2.optimal_b_numeric());
    let probed = (1..=n).map(|b| (sim_at(b), b)).min_by(|x, y| x.0.total_cmp(&y.0));
    println!("  simulator probe:         {}", probed.map_or(1, |(_, b)| b));
    println!("  Model1 (beta = 0) says:  {:.1}", model1.optimal_b_eq1());
}
