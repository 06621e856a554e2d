//! Tomcatv end to end: compile the WL program, inspect its wavefronts,
//! and run the forward sweep three ways — sequentially, decomposed in
//! dependency order, and on real threads passing boundary messages —
//! then compare the simulated naive and pipelined schedules.
//!
//! ```text
//! cargo run --release --example tomcatv_pipeline
//! ```

use wavefront::core::prelude::*;
use wavefront::kernels::tomcatv;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    BlockPolicy, EngineKind, JobTopology, Session, TraceCollector, WavefrontPlan,
};

/// Run program ops up to (but not including) the first scan block — the
/// residual phase that feeds the wavefront its coefficients.
fn run_prefix(compiled: &CompiledProgram<2>, store: &mut Store<2>) {
    for op in &compiled.ops {
        match op {
            CompiledOp::Block(b) => {
                if b.nests.iter().any(|x| x.is_scan) {
                    return;
                }
                for x in &b.nests {
                    run_nest_with_sink(x, store, &mut NoSink);
                }
            }
            CompiledOp::Reduce(r) => run_reduce_with_sink(r, store, &mut NoSink),
        }
    }
}

fn main() {
    let n = 130i64;
    let p = 4usize;
    let params = cray_t3e();

    let lo = tomcatv::build(n).expect("tomcatv builds");
    let compiled = compile(&lo.program).expect("tomcatv compiles");

    println!(
        "Tomcatv at n = {n}: {} program operations",
        compiled.ops.len()
    );
    for (k, nest) in compiled.nests().enumerate() {
        println!(
            "  nest {k}: region {}, {}, WSV {}, wavefront dims {:?}",
            nest.region,
            if nest.is_scan { "scan block" } else { "plain" },
            nest.wsv,
            nest.structure.wavefront_dims,
        );
    }

    // Take the forward wavefront and plan it across p processors.
    let nest = compiled.nests().find(|x| x.is_scan).expect("has wavefront");
    let plan = WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Model2, &params)
        .expect("plan builds");
    let axis = &plan.axes[0];
    println!(
        "\nPlan: wave dim {}, tile dim {:?}, block b = {} ({} tiles), ghost thickness {}, \
         {} arrays flow downstream",
        axis.dim,
        plan.tile_dim,
        plan.block,
        plan.tiles.len(),
        axis.comm.iter().map(|&(_, t)| t).max().unwrap_or(1),
        axis.comm.len()
    );

    // Reference: residual phase then the sweep, sequentially.
    let mut seq = Store::new(&lo.program);
    tomcatv::init(&lo, &mut seq);
    run_prefix(&compiled, &mut seq);
    let mut dec = seq.clone();
    let mut thr = seq.clone();
    run_nest_with_sink(nest, &mut seq, &mut NoSink);

    // Dependency-order decomposed execution (single thread), through the
    // unified session front end.
    Session::new(&lo.program, nest)
        .procs(p)
        .block(BlockPolicy::Model2)
        .machine(params)
        .store(&mut dec)
        .run(EngineKind::Seq)
        .expect("decomposed run");

    // Real threads on the shared store, with the telemetry layer attached.
    let mut trace = TraceCollector::default();
    let outcome = Session::new(&lo.program, nest)
        .procs(p)
        .block(BlockPolicy::Model2)
        .machine(params)
        .collector(&mut trace)
        .store(&mut thr)
        .run(EngineKind::Threads)
        .expect("threaded run");
    println!(
        "Threaded run: {} boundary messages, parallel section {:.3} ms",
        outcome.messages,
        outcome.makespan * 1e3
    );
    println!(
        "\nExecution report from the attached collector:\n{}",
        trace.report()
    );

    for name in ["r", "d", "rx", "ry"] {
        let id = lo.array(name).unwrap();
        assert!(
            seq.get(id).region_eq(dec.get(id), nest.region),
            "decomposed {name} differs"
        );
        assert!(
            seq.get(id).region_eq(thr.get(id), nest.region),
            "threaded {name} differs"
        );
    }
    println!("Sequential, decomposed, and threaded sweeps agree bit-for-bit. ✔");

    // Simulated schedules on the T3E model.
    let estimate = |policy: BlockPolicy| {
        Session::new(&lo.program, nest)
            .procs(p)
            .block(policy)
            .machine(params)
            .estimate()
            .time
    };
    let t_pipe = estimate(BlockPolicy::Model2);
    let t_naive = estimate(BlockPolicy::FullPortion);
    println!(
        "\nSimulated {}: naive {:.0} vs pipelined {:.0} → {:.2}x from pipelining",
        params.name,
        t_naive,
        t_pipe,
        t_naive / t_pipe
    );
}
