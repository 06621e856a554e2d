//! Block-size policy ablation — including the paper's future-work item,
//! dynamic (probe-based) selection.
//!
//! For the Tomcatv forward wavefront, compares the simulated execution
//! time under each policy: naive (no pipelining), fixed sizes, Model1,
//! Model2, and the dynamic probe. Run with
//! `cargo run --release -p wavefront-bench --bin table_dynamic_b`.

use wavefront_bench::{f2, Table};
use wavefront_core::prelude::compile;
use wavefront_kernels::tomcatv;
use wavefront_machine::{cray_t3e, fig5a_t3e, sgi_power_challenge};
use wavefront_pipeline::{BlockPolicy, JobTopology, Session, WavefrontPlan};

fn main() {
    println!("## Block-size policy ablation (Tomcatv forward wavefront)\n");
    for (params, n, p) in [
        (cray_t3e(), 257i64, 8usize),
        (sgi_power_challenge(), 257, 8),
        (fig5a_t3e(), 257, 8),
        (cray_t3e(), 513, 16),
    ] {
        let lo = tomcatv::build(n + 2).expect("tomcatv builds");
        let compiled = compile(&lo.program).expect("compiles");
        let nest = compiled
            .nests()
            .find(|x| x.is_scan)
            .expect("has a wavefront");

        println!("  --- {} | n = {n}, p = {p} ---", params.name);
        let mut table = Table::new(&["policy", "b", "simulated time", "vs best"]);
        let policies: Vec<(String, BlockPolicy)> = vec![
            ("naive (no pipelining)".into(), BlockPolicy::FullPortion),
            ("fixed b=1".into(), BlockPolicy::Fixed(1)),
            ("fixed b=8".into(), BlockPolicy::Fixed(8)),
            ("fixed b=64".into(), BlockPolicy::Fixed(64)),
            ("Model1".into(), BlockPolicy::Model1),
            ("Model2".into(), BlockPolicy::Model2),
            (
                "dynamic probe".into(),
                BlockPolicy::default_probe(n as usize),
            ),
        ];
        let results: Vec<(String, usize, f64)> = policies
            .iter()
            .map(|(name, policy)| {
                let plan = WavefrontPlan::build(nest, JobTopology::line(p), policy, &params)
                    .expect("plan builds");
                let t = Session::new(&lo.program, nest)
                    .procs(p)
                    .block(policy.clone())
                    .machine(params)
                    .estimate()
                    .time;
                (name.clone(), plan.block, t)
            })
            .collect();
        let best = results.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
        for (name, b, t) in results {
            table.row(&[name, b.to_string(), format!("{t:.0}"), f2(t / best)]);
        }
        table.print();
        println!();
    }
    println!("  (the dynamic probe should always be within a whisker of the best;");
    println!("   Model2 should beat Model1 whenever beta matters)");
}
