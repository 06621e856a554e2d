//! Figure 7: speedup of pipelined parallel codes versus nonpipelined
//! codes, on the simulated Cray T3E and SGI PowerChallenge.
//!
//! All arrays are distributed entirely across the dimension along which
//! the (first) wavefront travels, as in the paper. Grey bars = the
//! wavefront components alone (serial without pipelining, so their
//! speedup should approach the processor count); black bars = whole
//! program (already parallel without pipelining, so gains are smaller
//! but "still greater than 5 to 8%"). Run with
//! `cargo run --release -p wavefront-bench --bin fig7`.

use wavefront_bench::{f2, Table};
use wavefront_core::exec::CompiledProgram;
use wavefront_core::prelude::compile;
use wavefront_lang::Lowered;
use wavefront_machine::{cray_t3e, sgi_power_challenge, MachineParams};
use wavefront_pipeline::{BlockPolicy, ProgramSession, Session};

struct Bench {
    name: &'static str,
    lowered: Lowered<2>,
    /// The dimension the arrays are distributed across.
    dist_dim: usize,
}

fn benches(n: i64) -> Vec<Bench> {
    vec![
        Bench {
            name: "Tomcatv",
            lowered: wavefront_kernels::tomcatv::build(n).expect("tomcatv builds"),
            dist_dim: 0,
        },
        Bench {
            name: "SIMPLE",
            lowered: wavefront_kernels::simple::build(n).expect("simple builds"),
            // SIMPLE's first wavefront travels along dimension 1; its
            // second along dimension 0. Distribute dimension 0 (the
            // second wavefront pipelines; the first is fully parallel
            // under this distribution).
            dist_dim: 0,
        },
    ]
}

/// Grey bars: each wavefront component measured with the arrays
/// distributed along *its* travel dimension (the paper's setup).
fn wavefront_speedups(
    program: &wavefront_core::program::Program<2>,
    compiled: &CompiledProgram<2>,
    p: usize,
    params: &MachineParams,
) -> Vec<f64> {
    compiled
        .nests()
        .filter(|nest| nest.is_scan && !nest.structure.wavefront_dims.is_empty())
        .map(|nest| {
            let dist_dim = nest.structure.wavefront_dims[0];
            let estimate = |policy: BlockPolicy| {
                Session::new(program, nest)
                    .procs(p)
                    .dist_dim(dist_dim)
                    .block(policy)
                    .machine(*params)
                    .estimate()
            };
            let pipe = estimate(BlockPolicy::Model2);
            let naive = estimate(BlockPolicy::FullPortion);
            naive.time / pipe.time
        })
        .collect()
}

fn main() {
    let n = 257i64;
    println!("## Figure 7: speedup of pipelined vs nonpipelined codes");
    println!(
        "   n = {n}, block size from Model2, arrays distributed along the wavefront dimension\n"
    );

    for params in [cray_t3e(), sgi_power_challenge()] {
        println!(
            "  --- {} (alpha = {}, beta = {}) ---",
            params.name, params.alpha, params.beta
        );
        let mut table = Table::new(&[
            "benchmark",
            "p",
            "wavefront segment(s)",
            "whole program",
            "b (Model2)",
        ]);
        for bench in benches(n) {
            let compiled = compile(&bench.lowered.program).expect("compiles");
            for p in [2usize, 4, 8, 16] {
                let wf = wavefront_speedups(&bench.lowered.program, &compiled, p, &params);
                let pipe = ProgramSession::new(&bench.lowered.program, &compiled)
                    .procs(p)
                    .dist_dim(bench.dist_dim)
                    .block(BlockPolicy::Model2)
                    .machine(params)
                    .estimate();
                let naive = ProgramSession::new(&bench.lowered.program, &compiled)
                    .procs(p)
                    .dist_dim(bench.dist_dim)
                    .block(BlockPolicy::FullPortion)
                    .machine(params)
                    .estimate();
                let blocks: Vec<String> = pipe
                    .nests
                    .iter()
                    .filter_map(|x| x.block)
                    .map(|b| b.to_string())
                    .collect();
                let wf_str = wf.iter().map(|s| f2(*s)).collect::<Vec<_>>().join(" / ");
                table.row(&[
                    bench.name.into(),
                    p.to_string(),
                    wf_str,
                    f2(naive.total / pipe.total),
                    blocks.join(" / "),
                ]);
            }
        }
        table.print();
        println!();
    }
    println!("  (wavefront-segment speedup is vs the serialized naive schedule and");
    println!("   should approach p; whole-program speedup is over an already-parallel");
    println!("   non-pipelined program)");
}
