//! Parallel-runtime costs: the task-graph simulator, the decomposed
//! sequential executor, and the real threaded message-passing runtime
//! (naive vs pipelined).
//!
//! Note: in a single-core container the threaded runtime cannot show
//! wall-clock speedup; these benches measure the machinery's overhead
//! and the simulator's throughput (the scaling results live in the DES
//! harnesses, `fig7` and `fig_sweep`).

use wavefront_bench::micro::Harness;
use wavefront_core::prelude::*;
use wavefront_machine::cray_t3e;
use wavefront_pipeline::{BlockPolicy, EngineKind, Session};

fn setup() -> (wavefront_lang::Lowered<2>, CompiledNest<2>, Store<2>) {
    let lo = wavefront_kernels::tomcatv::build(130).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = compiled.nests().find(|x| x.is_scan).unwrap().clone();
    let mut store = Store::new(&lo.program);
    wavefront_kernels::tomcatv::init(&lo, &mut store);
    (lo, nest, store)
}

fn main() {
    let mut h = Harness::from_args();
    let (lo, nest, store) = setup();
    let params = cray_t3e();

    {
        h.bench("runtime/des_simulate_512_tasks", || {
            Session::new(&lo.program, &nest)
                .procs(16)
                .block(BlockPolicy::Fixed(4))
                .machine(params)
                .run(EngineKind::Sim)
                .unwrap()
                .makespan
        });
    }

    {
        h.bench_with_setup(
            "runtime/decomposed_sequential_p4_b16",
            || store.clone(),
            |mut s| {
                Session::new(&lo.program, &nest)
                    .procs(4)
                    .block(BlockPolicy::Fixed(16))
                    .machine(params)
                    .store(&mut s)
                    .run(EngineKind::Seq)
                    .unwrap()
                    .makespan
            },
        );
    }

    for (label, policy) in [
        ("naive", BlockPolicy::FullPortion),
        ("pipelined_b16", BlockPolicy::Fixed(16)),
    ] {
        let policy = policy.clone();
        h.bench_with_setup(
            &format!("runtime/threaded_p4_{label}"),
            || store.clone(),
            |mut s| {
                Session::new(&lo.program, &nest)
                    .procs(4)
                    .block(policy.clone())
                    .machine(params)
                    .store(&mut s)
                    .run(EngineKind::Threads)
                    .unwrap()
                    .makespan
            },
        );
    }

    {
        let lo = wavefront_kernels::sweep3d::build_octant(24, [-1, -1, -1]).unwrap();
        let compiled = compile(&lo.program).unwrap();
        let nest = compiled.nest(0).clone();
        h.bench("runtime/mesh2d_dag_build_and_simulate", || {
            Session::new(&lo.program, &nest)
                .mesh([4, 4])
                .block(BlockPolicy::Fixed(2))
                .machine(params)
                .run(EngineKind::Sim)
                .unwrap()
                .makespan
        });
        let mut store = Store::new(&lo.program);
        wavefront_kernels::sweep3d::init(&lo, &mut store);
        h.bench_with_setup(
            "runtime/mesh2d_threaded_4x4",
            || store.clone(),
            |mut s| {
                Session::new(&lo.program, &nest)
                    .mesh([4, 4])
                    .block(BlockPolicy::Fixed(2))
                    .machine(params)
                    .store(&mut s)
                    .run(EngineKind::Threads)
                    .unwrap()
                    .makespan
            },
        );
    }

    {
        use wavefront_core::region::Region;
        let region = Region::rect([0i64, 0], [511, 511]);
        let d = wavefront_machine::BlockCyclic::new(region, 0, 16, 4);
        h.bench("runtime/cyclic_tiled_dag_simulate", || {
            let tasks = d.wavefront_dag_tiled(1.0, 32, 16);
            wavefront_machine::simulate(&tasks, &params, 16).makespan
        });
    }

    h.finish();
}
