//! The steady-state contract of resident-array time-stepping: after
//! one warm-up loop, further loops copy nothing (copy-on-write bytes),
//! spawn no worker threads, and allocate no resident arrays.
//!
//! This lives alone in its own test binary because
//! [`cow_bytes_copied`] is a process-global counter and cargo runs the
//! tests *within* a binary in parallel — isolation keeps the global
//! deltas attributable to this loop alone (test binaries themselves
//! run sequentially).

use std::collections::HashMap;
use std::sync::Arc;

use wavefront::core::prelude::*;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    ArrayHandle, BlockPolicy, EngineKind, JobSpec, JobTopology, LoopSpec, WavefrontService,
};

/// One test, two topologies in sequence (see the module docs for why
/// they must not run in parallel): the relaxation on a line of four,
/// and its two-wavefront-dimension variant on a 2x2 mesh.
#[test]
fn steady_state_loops_copy_nothing_spawn_nothing_allocate_nothing() {
    steady_state(JobTopology::line(4), false);
    steady_state(JobTopology::mesh([2, 2]), true);
}

fn steady_state(topology: JobTopology, west_too: bool) {
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
            .engine(EngineKind::Threads)
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

    let warm = run(3);
    assert!(warm.stats.fused, "the steady-state claim is about the fused path");

    let cow0 = cow_bytes_copied();
    let spawns0 = service.stats().pool_spawns;
    let allocs0 = service.handle_allocs();
    let resident0 = service.resident_bytes();

    let out = run(4);
    assert!(out.stats.fused);
    assert_eq!(out.steps_run, 4);

    assert_eq!(
        cow_bytes_copied() - cow0,
        0,
        "a steady-state loop must not copy-on-write"
    );
    assert_eq!(
        service.stats().pool_spawns - spawns0,
        0,
        "a steady-state loop reuses the warm worker pool"
    );
    assert_eq!(
        service.handle_allocs() - allocs0,
        0,
        "a steady-state loop allocates no resident arrays"
    );
    assert_eq!(
        service.resident_bytes(),
        resident0,
        "the resident footprint is flat across loops"
    );
}
