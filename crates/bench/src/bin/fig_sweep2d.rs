//! Extension: the real SWEEP3D decomposition — a 2-D processor mesh
//! over (i, j) with pipelined k-blocks — on the simulated machines.
//!
//! The 4-dimensional problem that the paper's introduction says the
//! explicit code treats "asymmetrically, despite problem-level symmetry"
//! is symmetric here: the same scan block drives a 1-D distribution
//! (`fig_sweep`) or this 2-D mesh. Run with
//! `cargo run --release -p wavefront-bench --bin fig_sweep2d`.

use wavefront_bench::{f2, Table};
use wavefront_core::prelude::compile;
use wavefront_kernels::sweep3d;
use wavefront_machine::{cray_t3e, sgi_power_challenge};
use wavefront_pipeline::{BlockPolicy, EngineKind, JobTopology, Session, WavefrontPlan};

fn main() {
    let n = 64i64;
    println!("## Extension: SWEEP3D on a 2-D processor mesh, pipelined k-blocks");
    println!("   n = {n} (grid n^3), one octant, mesh over dimensions (0, 1)\n");

    let lo = sweep3d::build_octant(n, [-1, -1, -1]).expect("sweep builds");
    let compiled = compile(&lo.program).expect("sweep compiles");
    let nest = compiled.nest(0);

    for params in [cray_t3e(), sgi_power_challenge()] {
        println!("  --- {} ---", params.name);
        let mut table = Table::new(&[
            "mesh",
            "procs",
            "pipelined speedup",
            "naive speedup",
            "efficiency",
            "b",
        ]);
        let sim = |mesh: [usize; 2], policy: BlockPolicy| {
            Session::new(&lo.program, nest)
                .mesh(mesh)
                .block(policy)
                .machine(params)
                .run(EngineKind::Sim)
                .expect("mesh simulation")
        };
        let serial = sim([1, 1], BlockPolicy::FullPortion).makespan;
        for mesh in [[2usize, 2usize], [2, 4], [4, 4], [4, 8], [8, 8]] {
            let pipe = sim(mesh, BlockPolicy::Model2);
            let t_pipe = pipe.makespan;
            let t_naive = sim(mesh, BlockPolicy::FullPortion).makespan;
            let p = mesh[0] * mesh[1];
            table.row(&[
                format!("{}x{}", mesh[0], mesh[1]),
                p.to_string(),
                f2(serial / t_pipe),
                f2(serial / t_naive),
                f2(serial / t_pipe / p as f64),
                pipe.block.to_string(),
            ]);
        }
        table.print();
        println!();
    }
    println!("  (the naive mesh already gains a little — the diagonal wave crosses");
    println!("   the mesh once — but pipelined k-blocks keep the whole mesh busy)");

    // Rank-4: angles × space, pipelining ANGLE blocks (the real SWEEP3D's
    // mmi batching) through the spatial mesh.
    let (n, na) = (32i64, 48i64);
    println!("\n## Rank-4 variant: {na} angles over {n}^3 cells, angle-block pipelining");
    let lo = sweep3d::build_octant_angles(n, na).expect("rank-4 sweep builds");
    let compiled = compile(&lo.program).expect("compiles");
    let nest = compiled.nest(0);
    let params = cray_t3e();
    let sim = |mesh: [usize; 2], policy: BlockPolicy| {
        Session::new(&lo.program, nest)
            .mesh(mesh)
            .wave_dims([1, 2])
            .block(policy)
            .machine(params)
            .run(EngineKind::Sim)
            .expect("mesh simulation")
    };
    let serial = sim([1, 1], BlockPolicy::FullPortion).makespan;
    let mut table = Table::new(&["mesh", "angle block", "speedup", "efficiency"]);
    for mesh in [[2usize, 2usize], [4, 4], [8, 8]] {
        let topology = JobTopology::Mesh {
            mesh,
            wave_dims: Some([1, 2]),
        };
        let plan =
            WavefrontPlan::build(nest, topology, &BlockPolicy::Model2, &params).expect("plan");
        assert_eq!(plan.tile_dim, Some(0), "angle dimension must be tiled");
        let t = sim(mesh, BlockPolicy::Model2).makespan;
        let p = mesh[0] * mesh[1];
        table.row(&[
            format!("{}x{}", mesh[0], mesh[1]),
            plan.block.to_string(),
            f2(serial / t),
            f2(serial / t / p as f64),
        ]);
    }
    table.print();
}
