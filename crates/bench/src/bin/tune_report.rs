//! Closed-loop autotuner report: calibrated machine constants plus
//! chosen-vs-model-vs-exhaustive block sizes for the paper kernels.
//!
//! Calibrates α/β/element cost on this host (over the threaded
//! runtime's own channels), then for each wavefront kernel compares the
//! static Equation (1) block size, the best fixed block size found by
//! an exhaustive simulator sweep, and the block size the adaptive
//! policy settles on — with the makespan of each. Run with
//! `cargo run --release -p wavefront-bench --bin tune_report`; emits
//! `BENCH_tune.json`.

use wavefront_bench::{f1, json_object, json_str, write_artifact, Table};
use wavefront_core::prelude::*;
use wavefront_kernels::{simple, sweep3d, tomcatv};
use wavefront_machine::MachineParams;
use wavefront_pipeline::{
    calibrate_host, BlockPolicy, EngineKind, JobTopology, Session, WavefrontPlan,
};

const PROCS: usize = 4;

fn report_kernel<const R: usize>(
    label: &str,
    program: &Program<R>,
    compiled: &CompiledProgram<R>,
    machine: MachineParams,
    table: &mut Table,
) -> String {
    let nest = compiled
        .nests()
        .find(|x| x.is_scan)
        .expect("kernel has a wavefront nest");

    let estimate = |policy: BlockPolicy| {
        Session::new(program, nest)
            .procs(PROCS)
            .block(policy)
            .machine(machine)
            .estimate()
            .time
    };
    let model_plan =
        WavefrontPlan::build(nest, JobTopology::line(PROCS), &BlockPolicy::Model2, &machine)
            .expect("model plan builds");
    let model_b = model_plan.block;
    let model_t = estimate(BlockPolicy::Model2);

    let n_orth = model_plan.block_ctx(machine).map_or(1, |c| c.n_orth);
    let (mut best_b, mut best_t) = (model_b, f64::INFINITY);
    for b in 1..=n_orth {
        let t = estimate(BlockPolicy::Fixed(b));
        if t < best_t {
            (best_b, best_t) = (b, t);
        }
    }

    let adaptive = Session::new(program, nest)
        .procs(PROCS)
        .block(BlockPolicy::adaptive())
        .machine(machine)
        .run(EngineKind::Sim)
        .expect("adaptive simulation runs");

    table.row(&[
        label.to_string(),
        model_b.to_string(),
        f1(model_t),
        best_b.to_string(),
        f1(best_t),
        adaptive.block.to_string(),
        f1(adaptive.makespan),
    ]);
    format!(
        "{{\"kernel\":{},\"procs\":{PROCS},\"model_b\":{model_b},\"model_makespan\":{model_t},\
         \"exhaustive_b\":{best_b},\"exhaustive_makespan\":{best_t},\
         \"adaptive_b\":{},\"adaptive_makespan\":{}}}",
        json_str(label),
        adaptive.block,
        adaptive.makespan
    )
}

fn main() {
    let cal = calibrate_host().expect("host calibration runs");
    let machine = MachineParams::calibrated(cal.alpha_work(), cal.beta_work());
    println!("## Autotuner: calibrated constants vs model vs exhaustive sweep");
    println!(
        "   host: alpha {:.3e} s, beta {:.3e} s/elem, elem cost {:.3e} s",
        cal.alpha, cal.beta, cal.elem_cost
    );
    println!(
        "   in work units: alpha {:.1}, beta {:.3} (p = {PROCS}, DES makespans in model units)\n",
        cal.alpha_work(),
        cal.beta_work()
    );

    let mut table = Table::new(&[
        "kernel",
        "model b",
        "model T",
        "sweep b",
        "sweep T",
        "adaptive b",
        "adaptive T",
    ]);
    let mut rows = Vec::new();

    let simple_lo = simple::build(66).expect("simple builds");
    let simple_c = compile(&simple_lo.program).expect("simple compiles");
    rows.push(report_kernel(
        "simple n=66",
        &simple_lo.program,
        &simple_c,
        machine,
        &mut table,
    ));

    let tom_lo = tomcatv::build(130).expect("tomcatv builds");
    let tom_c = compile(&tom_lo.program).expect("tomcatv compiles");
    rows.push(report_kernel(
        "tomcatv n=130",
        &tom_lo.program,
        &tom_c,
        machine,
        &mut table,
    ));

    let sweep_lo = sweep3d::build_octant(20, [1, 1, 1]).expect("sweep3d builds");
    let sweep_c = compile(&sweep_lo.program).expect("sweep3d compiles");
    rows.push(report_kernel(
        "sweep3d octant n=20",
        &sweep_lo.program,
        &sweep_c,
        machine,
        &mut table,
    ));

    table.print();

    write_artifact(
        "tune",
        &json_object(&[
            ("procs", PROCS.to_string()),
            ("alpha_seconds", format!("{}", cal.alpha)),
            ("beta_seconds", format!("{}", cal.beta)),
            ("elem_cost_seconds", format!("{}", cal.elem_cost)),
            ("alpha_work", format!("{}", cal.alpha_work())),
            ("beta_work", format!("{}", cal.beta_work())),
            ("kernels", format!("[{}]", rows.join(","))),
        ]),
    );
}
