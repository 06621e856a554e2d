//! The steady-state contract of resident-array time-stepping: after
//! one warm-up loop, further loops copy nothing (copy-on-write bytes),
//! spawn no worker threads, and allocate no resident arrays — fused on
//! the threads engine, and step by step on Seq, whose read-only inputs
//! are viewed where they lie. The same counter pins the DAG runner's
//! contract: a warm chain hands every edge over by refcount.
//!
//! This lives alone in its own test binary because
//! [`cow_bytes_copied`] is a process-global counter and cargo runs the
//! tests *within* a binary in parallel — isolation keeps the global
//! deltas attributable to one case alone (test binaries themselves
//! run sequentially).

use std::collections::HashMap;
use std::sync::Arc;

use wavefront::core::prelude::*;
use wavefront::kernels::sweep3d::{self, OCTANTS};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    ArrayHandle, BlockPolicy, DagSpec, EngineKind, JobSpec, JobTopology, LoopSpec,
    WavefrontService,
};

/// One test, four cases in sequence (see the module docs for why they
/// must not run in parallel): the relaxation on a line of four, fused
/// and unfused on Seq, its two-wavefront-dimension variant on a 2x2
/// mesh, and a SWEEP3D octant chain through the DAG runner.
#[test]
fn steady_state_loops_copy_nothing_spawn_nothing_allocate_nothing() {
    steady_state(JobTopology::line(4), false, EngineKind::Threads);
    steady_state(JobTopology::line(4), false, EngineKind::Seq);
    steady_state(JobTopology::mesh([2, 2]), true, EngineKind::Threads);
    warm_dag_edges_copy_nothing();
}

/// The eight SWEEP3D octants as one dependent chain: every edge hands
/// `phi`, `src` and `sigt` to the next octant. Once the service is
/// warm, a whole DAG run shares those arrays and copies none of them.
fn warm_dag_edges_copy_nothing() {
    let n = 8;
    let service: WavefrontService<3> = WavefrontService::new();
    let run = || {
        let mut dag = DagSpec::builder();
        let mut prev = None;
        for (k, octant) in OCTANTS.iter().enumerate() {
            let lo = sweep3d::build_octant(n, *octant).expect("sweep builds");
            let compiled = compile(&lo.program).expect("sweep compiles");
            let nest = Arc::new(compiled.nest(0).clone());
            // The head's store is built per run, never cloned: no
            // outside `Arc` forces a copy when the head job writes.
            let head_store = prev.is_none().then(|| {
                let mut store = Store::new(&lo.program);
                sweep3d::init(&lo, &mut store);
                store
            });
            let spec = JobSpec::builder(Arc::new(lo.program), nest)
                .line(4)
                .block(BlockPolicy::Model2)
                .machine(cray_t3e())
                .engine(EngineKind::Threads);
            let spec = match (prev, head_store) {
                (Some(p), _) => ["phi", "src", "sigt"]
                    .iter()
                    .fold(spec, |s, name| s.input_from(p, *name)),
                (None, store) => spec.store(store.expect("the head builds its store")),
            };
            prev = Some(dag.add_labeled(format!("o{k}"), spec.build().expect("valid spec")));
        }
        let out = service.submit_dag(dag.build().expect("acyclic")).wait();
        assert!(out.all_ok(), "all octant nodes complete");
        out.stats
    };
    run();
    let warm = run();
    assert_eq!(
        warm.cow_bytes_copied, 0,
        "a warm DAG run must hand every edge over by refcount, not copy"
    );
    assert!(warm.bytes_shared > 0, "chained inputs are shared, not re-marshalled");
}

/// A relaxation over imported handles, looped on `engine`: the threads
/// engine fuses the steps into one run, Seq runs one job per step.
fn steady_state(topology: JobTopology, west_too: bool, engine: EngineKind) {
    let n = 16;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let next = prog.array("next", bounds);
    let curr = prog.array("curr", bounds);
    let load = prog.array("load", bounds);
    let mut rhs = Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
        + Expr::lit(0.4) * Expr::read_at(curr, [0, 0])
        + Expr::lit(0.1) * Expr::read_at(load, [0, 1]);
    if west_too {
        rhs = rhs + Expr::lit(0.25) * Expr::read_primed_at(next, [0, -1]);
    }
    prog.stmt(Region::rect([2, 2], [n - 1, n - 1]), next, rhs);
    let compiled = compile(&prog).expect("program compiles");
    let nest = Arc::new(compiled.nest(0).clone());
    let mut store = Store::new(&prog);
    for id in 0..store.len() {
        let b = store.get(id).bounds();
        *store.get_mut(id) =
            DenseArray::from_fn(b, |q| (q[0] + 2 * q[1] + id as i64) as f64 * 0.01);
    }
    let program = Arc::new(prog);

    let service: WavefrontService<2> = WavefrontService::new();
    let handles: HashMap<String, ArrayHandle<2>> =
        service.import_store(&program, store).into_iter().collect();
    let run = |steps: usize| {
        let body = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .topology(topology)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .engine(engine)
            .output_handle("next", &handles["next"])
            .output_handle("curr", &handles["curr"])
            .input_handle("load", &handles["load"])
            .build()
            .expect("valid body");
        service
            .submit_loop(
                LoopSpec::builder()
                    .job(body)
                    .steps(steps)
                    .swap("next", "curr")
                    .build()
                    .expect("valid loop"),
            )
            .wait()
            .expect("loop runs")
    };

    let fused = engine == EngineKind::Threads;
    let warm = run(3);
    assert_eq!(warm.stats.fused, fused, "only the threads engine fuses");

    let cow0 = cow_bytes_copied();
    let spawns0 = service.stats().pool_spawns;
    let allocs0 = service.handle_allocs();
    let resident0 = service.resident_bytes();

    let out = run(4);
    assert_eq!(out.stats.fused, fused);
    assert_eq!(out.steps_run, 4);

    assert_eq!(
        cow_bytes_copied() - cow0,
        0,
        "a steady-state {engine} loop must not copy-on-write"
    );
    assert_eq!(
        service.stats().pool_spawns - spawns0,
        0,
        "a steady-state {engine} loop reuses the warm worker pool"
    );
    assert_eq!(
        service.handle_allocs() - allocs0,
        0,
        "a steady-state {engine} loop allocates no resident arrays"
    );
    assert_eq!(
        service.resident_bytes(),
        resident0,
        "the resident footprint of a {engine} loop is flat across loops"
    );
}
