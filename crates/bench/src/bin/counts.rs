//! Deterministic work counts of the nests `perfbench`'s workloads run:
//! how many points of one sweep the lane strip, the scalar remainder
//! and the interpreter evaluate, under the plan the executing engines
//! run. Counts, not timings, so a noisy host cannot blur them; a change
//! that pushes a nest onto the remainder path changes this output and
//! fails `tests/golden.rs`. The `lane stride` column says how the lane
//! kernel moves each nest's lane blocks: `unit` as whole slices,
//! `strided` or `diagonal` lane by lane; for `unit` lanes, `row bytes`
//! is how far apart their rows lie, and from a page (4,096 bytes) on
//! the engines run wider tiles than Model2's (`WavefrontPlan::fit`
//! prices each row start). For the two loop workloads, `chunk b` is the
//! width their fused chunk of all their steps runs under their
//! `next`/`curr` swap (`Session::chunk_plan`, what `LoopStats::block`
//! reports): a chunk pays its fill once, so on any unit-stride rows the
//! DES of the chunk's own graph picks it; `drain lag` is how many
//! sweeps back that graph's drain edges point (2 under the swap: the
//! buffer a sweep overwrites was last read by another cell two sweeps
//! before). For `unit` lanes, `wide passes` is how
//! many passes the lane kernel makes over each piece of a row segment
//! (`NestRunner::wide_passes`): the instructions left once every
//! `Const × Read` is folded into its consumer, and `wide piece` how
//! many points each piece holds (`NestRunner::wide_piece`): as many as
//! the kernel's register file holds of each physical register the
//! folded tape uses, so a row segment that short runs as one. Run with
//! `cargo run --release -p wavefront-bench --bin counts`.
//!
//! Every row is at the repository defaults: a line of two processors,
//! Model2 on the Cray T3E constants, lane kernels.

use wavefront_bench::Table;
use wavefront_core::prelude::{compile, Layout, NestRunner, TierElems};
use wavefront_lang::{compile_str, Lowered};
use wavefront_machine::cray_t3e;
use wavefront_pipeline::{BlockPolicy, JobTopology, Session, WavefrontPlan};

/// Figure 3(d), as the `jobs_small` and `wire_jobs` workloads run it.
const FIG3_SOURCE: &str = "
    const n = 5;
    var a : [1..n, 1..n] float;
    direction north = (-1, 0);
    [2..n, 1..n] a := 2.0 * a'@north;
";

/// The double-buffered relaxation the loop workloads step.
const RELAX_SOURCE: &str = "
    const n = 8;
    region Big   = [0..n+1, 0..n+1];
    region Inner = [1..n, 1..n];
    direction north = (-1, 0);
    direction east  = (0, 1);
    var next, curr, load : [Big] float;
    [Inner] next := 0.5 * next'@north + 0.4 * curr + 0.1 * load@east;
";

const PROCS: usize = 2;

fn lower(program: &str, n: i64) -> Lowered<2> {
    let lowered = match program {
        "fig3" => compile_str::<2>(FIG3_SOURCE, &[("n", n)], Layout::ColMajor),
        "tomcatv" => wavefront_kernels::tomcatv::build(n),
        "sor" => wavefront_kernels::sor::build(n),
        "smith_waterman" => wavefront_kernels::smith_waterman::build(n, n),
        "relax" => compile_str::<2>(RELAX_SOURCE, &[("n", n)], Layout::RowMajor),
        other => unreachable!("no program {other}"),
    };
    lowered.unwrap_or_else(|e| panic!("{program} does not lower: {e}"))
}

fn main() {
    println!("## Points per tier in one sweep of each perfbench nest\n");
    println!("  line({PROCS}), Model2, Cray T3E, lane kernels\n");
    let mut table = Table::new(&[
        "workload",
        "program",
        "n",
        "model b",
        "run b",
        "tiles",
        "lane strip",
        "remainder",
        "interpreter",
        "remainder share",
        "lane stride",
        "row bytes",
        "chunk b",
        "drain lag",
        "wide passes",
        "wide piece",
    ]);
    // Per row, the steps of its loop workload (0: not a loop), which
    // swaps `next` and `curr` between steps.
    let rows: [(&str, &str, i64, usize); 8] = [
        ("sweep_large", "tomcatv", 1448, 0),
        ("jobs_small", "fig3", 136, 0),
        ("jobs_small", "tomcatv", 64, 0),
        ("jobs_small", "sor", 64, 0),
        ("jobs_small", "smith_waterman", 88, 0),
        ("wire_jobs", "fig3", 256, 0),
        ("loop_small", "relax", 128, 200),
        ("loop_large", "relax", 1024, 20),
    ];
    for (workload, program, n, steps) in rows {
        let lowered = lower(program, n);
        let compiled = compile(&lowered.program).expect("compiles");
        // The nest every workload runs: the first scan nest.
        let nest = compiled.nests().find(|x| x.is_scan).unwrap_or_else(|| compiled.nest(0));
        let line = JobTopology::line(PROCS);
        let model =
            WavefrontPlan::build(nest, line, &BlockPolicy::Model2, &cray_t3e()).expect("plans");
        let session = Session::new(&lowered.program, nest).procs(PROCS);
        let plan = session.plan().expect("plans");
        let runner = NestRunner::auto(nest);
        let mut elems = TierElems::default();
        for rank in plan.active_cells() {
            let owned = plan.dist.owned(rank);
            for tile in &plan.tiles {
                elems += runner.tier_elems(owned.intersect(tile), &plan.order);
            }
        }
        let share = elems.scalar as f64 / (elems.lanes + elems.scalar).max(1) as f64;
        let swap = [("next", "curr"), ("curr", "next")];
        let (chunk_b, lag) = match steps {
            0 => ("-".to_string(), "-".to_string()),
            _ => {
                let (chunk, lag) = session.chunk_plan(steps, &swap).expect("plans");
                (chunk.block.to_string(), lag.to_string())
            }
        };
        let shapes = lowered.program.shapes();
        let stride = runner.lane_stride(&shapes, &plan.order).unwrap_or("-");
        let dash = |n: Option<usize>| n.map_or("-".to_string(), |n| n.to_string());
        table.row(&[
            workload.to_string(),
            program.to_string(),
            n.to_string(),
            model.block.to_string(),
            plan.block.to_string(),
            plan.tiles.len().to_string(),
            elems.lanes.to_string(),
            elems.scalar.to_string(),
            elems.interpreted.to_string(),
            format!("{share:.4}"),
            stride.to_string(),
            dash(runner.lane_row_bytes(&shapes, &plan.order)),
            chunk_b,
            lag,
            dash(runner.wide_passes(&shapes, &plan.order)),
            dash(runner.wide_piece(&shapes, &plan.order)),
        ]);
    }
    table.print();
}
