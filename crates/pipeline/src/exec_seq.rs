//! Dependency-order sequential execution of a plan.
//!
//! Runs the plan's processor/tile decomposition against a single shared
//! store, one processor at a time in wave order. Any topological order of
//! the task DAG produces the same values, so this is both a reference for
//! the threaded runtime and a proof that the decomposition preserves the
//! scan block's sequential semantics.

use std::cell::Cell;
use std::time::Instant;

use wavefront_core::array::Layout;
use wavefront_core::exec::CompiledNest;
use wavefront_core::kernel::NestRunner;
use wavefront_core::program::Store;
use wavefront_core::region::Region;

use crate::plan::WavefrontPlan;
use crate::telemetry::{BlockEvent, Collector, EngineKind, Prediction, RunMeta, TimeUnit};

/// Execute `nest` under `plan` against `store` with a caller-provided
/// (possibly cached) nest runner, visiting active cells in wave order
/// and tiles in tile order, reporting telemetry to `collector`: one
/// block event per (processor, tile) pair, timed on the wall clock.
///
/// The sequential engine works against a single shared store and sends
/// no boundary messages, so its predicted traffic is zero by
/// construction (the decomposition's traffic prediction belongs to the
/// simulator and the threaded engine).
pub(crate) fn execute_plan_sequential<const R: usize>(
    nest: &CompiledNest<R>,
    plan: &WavefrontPlan<R>,
    runner: &NestRunner<R>,
    store: &mut Store<R>,
    collector: &mut dyn Collector,
) {
    debug_assert!(
        nest.buffered.is_empty(),
        "buffered nests carry no wavefront and are never planned"
    );
    let enabled = collector.enabled();
    let active = plan.active_cells();
    if enabled {
        collector.begin(&RunMeta {
            engine: EngineKind::Seq,
            procs: plan.procs(),
            active: active.clone(),
            tiles: plan.tiles.len(),
            block: plan.block,
            pipelined: plan.is_pipelined(),
            machine: "host".to_string(),
            time_unit: TimeUnit::Seconds,
            predicted: Prediction::default(),
        });
    }
    let bound = runner.bind(store, &plan.order);
    let shapes: Vec<(Region<R>, Layout)> = store
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    // One cell view per array for the whole run, as each threaded cell
    // takes its views once.
    let arrays: Vec<&[Cell<f64>]> = store
        .arrays_mut()
        .iter_mut()
        .map(|a| Cell::from_mut(a.as_mut_slice()).as_slice_of_cells())
        .collect();
    let epoch = Instant::now();
    for rank in active {
        let owned = plan.dist.owned(rank);
        for (ti, tile) in plan.tiles.iter().enumerate() {
            let sub = owned.intersect(tile);
            if sub.is_empty() {
                continue;
            }
            let start = enabled.then(|| epoch.elapsed().as_secs_f64());
            runner.run_tile_cells(nest, bound.as_ref(), sub, &plan.order, &arrays, &shapes);
            if let Some(start) = start {
                collector.block(BlockEvent {
                    proc: rank,
                    tile: ti,
                    start,
                    end: epoch.elapsed().as_secs_f64(),
                    elems: sub.len(),
                });
            }
        }
    }
    if enabled {
        collector.end(epoch.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{init_sweep, mesh_plan, sweep_nest, tomcatv_nest};
    use crate::plan::JobTopology;
    use crate::schedule::BlockPolicy;
    use crate::telemetry::NoopCollector;
    use wavefront_core::prelude::*;

    fn run<const R: usize>(nest: &CompiledNest<R>, plan: &WavefrontPlan<R>, store: &mut Store<R>) {
        let runner = NestRunner::with_mode(nest, KernelMode::Interpreted);
        execute_plan_sequential(nest, plan, &runner, store, &mut NoopCollector);
    }

    fn t3e() -> wavefront_machine::MachineParams {
        wavefront_machine::cray_t3e()
    }

    fn init_tomcatv(program: &Program<2>) -> Store<2> {
        let mut store = Store::new(program);
        for (idx, seed) in [(1usize, 3.0), (2, 5.0), (3, 7.0), (4, 11.0), (5, 13.0)] {
            let bounds = store.get(idx).bounds();
            *store.get_mut(idx) = DenseArray::from_fn(bounds, |q| {
                seed + 0.01 * ((q[0] * 17 + q[1] * 29) % 97) as f64
            });
        }
        store
    }

    #[test]
    fn decomposed_execution_matches_sequential_for_many_p_and_b() {
        let n = 50;
        let (program, nest) = tomcatv_nest(n);
        // Reference: plain sequential execution.
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);

        for p in [1usize, 2, 3, 5, 8] {
            for b in [1usize, 3, 7, 16, 64] {
                let plan =
                    WavefrontPlan::build(&nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
                let mut store = init_tomcatv(&program);
                run(&nest, &plan, &mut store);
                for id in 0..store.len() {
                    assert!(
                        store.get(id).region_eq(reference.get(id), nest.region),
                        "array {id} differs at p={p} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_wavefront_decomposition_is_exact() {
        // a := a'@(-1,1) — needs descending tile order; verify values.
        let mut prog = Program::<2>::new();
        let bounds = Region::rect([0, 0], [20, 20]);
        let a = prog.array("a", bounds);
        let region = Region::rect([1, 0], [20, 19]);
        prog.stmt(region, a, Expr::read_primed_at(a, [-1, 1]) + Expr::lit(1.0));
        let compiled = compile(&prog).unwrap();
        let nest = compiled.nest(0);

        let init = |store: &mut Store<2>| {
            *store.get_mut(a) =
                DenseArray::from_fn(bounds, |q| ((q[0] * 7 + q[1] * 3) % 13) as f64);
        };
        let mut reference = Store::new(&prog);
        init(&mut reference);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        for (p, b) in [(2usize, 4usize), (4, 3), (3, 20)] {
            let plan = WavefrontPlan::build(nest, JobTopology::line(p), &BlockPolicy::Fixed(b), &t3e()).unwrap();
            let mut store = Store::new(&prog);
            init(&mut store);
            run(nest, &plan, &mut store);
            assert!(
                store.get(a).region_eq(reference.get(a), region),
                "p={p} b={b}"
            );
        }
    }

    #[test]
    fn more_processors_than_rows_still_correct() {
        let n = 8;
        let (program, nest) = tomcatv_nest(n);
        let mut reference = init_tomcatv(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        let plan = WavefrontPlan::build(&nest, JobTopology::line(16), &BlockPolicy::Fixed(2), &t3e()).unwrap();
        let mut store = init_tomcatv(&program);
        run(&nest, &plan, &mut store);
        for id in 0..store.len() {
            assert!(store.get(id).region_eq(reference.get(id), nest.region));
        }
    }

    #[test]
    fn mesh_decomposition_matches_reference() {
        let (program, nest) = sweep_nest(13);
        let mut reference = init_sweep(&program);
        run_nest_with_sink(&nest, &mut reference, &mut NoSink);
        for (p1, p2, b) in [(1usize, 1usize, 3usize), (2, 2, 2), (3, 2, 4), (2, 4, 12)] {
            let plan = mesh_plan(&nest, [p1, p2], b);
            let mut store = init_sweep(&program);
            run(&nest, &plan, &mut store);
            for id in 0..store.len() {
                assert!(
                    store.get(id).region_eq(reference.get(id), nest.region),
                    "array {id} differs at mesh {p1}x{p2} b={b}"
                );
            }
        }
    }
}
