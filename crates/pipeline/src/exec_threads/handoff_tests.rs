//! The safety net of the in-place hand-off: a seeded chaos harness over
//! the progress counters, the legality predicate and its fallbacks, and
//! a worker panicking mid-wave.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

use super::*;
use crate::link::chaos;
use crate::plan::JobTopology;
use crate::schedule::BlockPolicy;
use crate::telemetry::{NoopCollector, TraceAnalysis, TraceCollector};
use wavefront_core::exec::run_nest_with_sink;
use wavefront_core::prelude::*;

fn t3e() -> wavefront_machine::MachineParams {
    wavefront_machine::cray_t3e()
}

/// A two-array program `next := f(next', next, curr)`: `next` is swept
/// with the given primed shifts; its own old value and `curr` are read
/// pointwise, so the body fuses with and without a `next`/`curr` swap
/// and — the old value being an input — no sweep repeats the one
/// before, so a boundary read one sweep late is a wrong result.
struct Case<const R: usize> {
    program: Program<R>,
    nest: CompiledNest<R>,
    topology: JobTopology,
}

const NEXT: ArrayId = 0;
const CURR: ArrayId = 1;

fn case<const R: usize>(
    bounds: Region<R>,
    region: Region<R>,
    shifts: &[[i64; R]],
    topology: JobTopology,
) -> Case<R> {
    let mut program = Program::<R>::new();
    let next = program.array("next", bounds);
    let curr = program.array("curr", bounds);
    assert_eq!((next, curr), (NEXT, CURR));
    let mut rhs =
        Expr::lit(0.25) * Expr::read(curr) + Expr::lit(0.3) * Expr::read(next) + Expr::lit(1.0);
    for (k, s) in shifts.iter().enumerate() {
        rhs = rhs + Expr::lit(0.5 / (k + 1) as f64) * Expr::read_primed_at(next, *s);
    }
    program.scan(region, vec![Statement::new(next, rhs)]);
    let nest = compile(&program).unwrap().nest(0).clone();
    Case {
        program,
        nest,
        topology,
    }
}

/// The corner-dependence nest of `threaded_mesh_with_corner_dependence`
/// on a mesh: a diagonal read across both distributed dimensions.
fn corner(mesh: [usize; 2]) -> Case<3> {
    case(
        Region::rect([0, 0, 0], [9, 9, 5]),
        Region::rect([1, 1, 0], [9, 9, 5]),
        &[[-1, -1, 0], [-1, 0, 0], [0, -1, 0]],
        JobTopology::Mesh {
            mesh,
            wave_dims: Some([0, 1]),
        },
    )
}

/// The wave travels north: high ranks are upstream.
fn descending(p: usize) -> Case<2> {
    case(
        Region::rect([1, 1], [15, 12]),
        Region::rect([1, 1], [14, 12]),
        &[[1, 0]],
        JobTopology::line(p),
    )
}

/// A diagonal read that reaches into the neighbouring tile, so tiles
/// run from high columns to low and the drain wait must be widened.
fn diagonal(p: usize) -> Case<2> {
    case(
        Region::rect([0, 0], [14, 12]),
        Region::rect([1, 0], [14, 11]),
        &[[-1, 1]],
        JobTopology::Line {
            procs: p,
            dist_dim: Some(0),
        },
    )
}

fn init<const R: usize>(program: &Program<R>) -> Store<R> {
    let mut store = Store::new(program);
    for id in 0..store.len() {
        let arr = store.get_mut(id);
        for q in arr.bounds().iter() {
            let h: i64 = (0..R).map(|k| q[k] * (7 + 6 * k as i64)).sum();
            arr.set(q, ((h + 3 * id as i64) % 23) as f64 / 23.0);
        }
    }
    store
}

/// `run_nest_with_sink` applied `iters` times, buffers renamed between
/// sweeps: what every engine run must reproduce bit for bit.
fn reference<const R: usize>(c: &Case<R>, iters: usize, rotate: &[(ArrayId, ArrayId)]) -> Store<R> {
    let mut store = init(&c.program);
    for it in 0..iters {
        if it > 0 {
            rotate_slots(&mut store, rotate);
        }
        run_nest_with_sink(&c.nest, &mut store, &mut NoSink);
    }
    store
}

fn assert_same<const R: usize>(got: &Store<R>, want: &Store<R>, label: &str) {
    for id in 0..want.len() {
        let bounds = want.get(id).bounds();
        assert_eq!(
            got.get(id).bounds(),
            bounds,
            "{label}: array {id} changed shape"
        );
        assert!(
            got.get(id).region_eq(want.get(id), bounds),
            "{label}: array {id} differs"
        );
    }
}

/// One engine run of `c` on a pool of its own.
fn engine<const R: usize>(
    c: &Case<R>,
    plan: &WavefrontPlan<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    kernel_mode: KernelMode,
    collector: &mut dyn Collector,
) -> (Store<R>, ThreadReport) {
    let mut store = init(&c.program);
    let (nest, plan) = (Arc::new(c.nest.clone()), Arc::new(plan.clone()));
    let prep = Arc::new(prepare_rotated(&c.program, &nest, kernel_mode, rotate));
    let workers = WorkerPool::new();
    let report = execute_threaded(
        &workers, &c.program, &nest, &plan, &prep, &mut store, iters, rotate, true, collector,
    );
    (store, report)
}

/// Run `f` on a thread of its own and fail if it has not returned
/// within 30 s: a hand-off that deadlocks must fail, not hang.
fn watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(out) => {
            runner.join().expect("the run's thread ends");
            out
        }
        // The thread died: surface its panic, not a timeout.
        Err(_) if runner.is_finished() => match runner.join() {
            Err(p) => std::panic::resume_unwind(p),
            Ok(()) => unreachable!("a finished runner has sent"),
        },
        Err(_) => panic!("{label}: no result after 30 s — the hand-off hangs"),
    }
}

/// Which end of the wave a chaos run slows down, tile by tile, on top
/// of the random delays: slow downstream cells let upstream ones run
/// ahead until only the drain wait holds them; slow upstream cells keep
/// every downstream cell on its flow wait.
#[derive(Debug, Clone, Copy)]
enum Skew {
    None,
    Downstream,
    Upstream,
}

/// One seeded chaos run of `c`: every post delayed, every wait followed
/// by a delay, result compared with the reference. Every fourth
/// single-sweep run is traced and its causal invariants checked.
fn chaos_run<const R: usize>(
    seed: u64,
    c: Case<R>,
    b: usize,
    iters: usize,
    rotated: bool,
    skew: Skew,
) {
    let rotate: &[(ArrayId, ArrayId)] = if rotated {
        &[(NEXT, CURR), (CURR, NEXT)]
    } else {
        &[]
    };
    let label = format!(
        "seed {seed}: {:?} b={b} iters={iters} rotate={rotated} skew={skew:?}",
        c.topology
    );
    let traced = iters == 1 && seed.is_multiple_of(4);
    let want = reference(&c, iters, rotate);
    let run_label = label.clone();
    let (got, report, trace) = watchdog(&label, move || {
        chaos::with_seed(seed, || {
            let plan =
                WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(b), &t3e()).unwrap();
            let cells = plan.active_cells().len();
            let drag: test_hooks::TileHook = Arc::new(move |cell, _| {
                let steps = match skew {
                    Skew::None => 0,
                    Skew::Downstream => cell,
                    Skew::Upstream => cells - 1 - cell,
                };
                if steps > 0 {
                    std::thread::sleep(Duration::from_micros(30 * steps as u64));
                }
            });
            let mut trace = TraceCollector::default();
            let collector: &mut dyn Collector = if traced {
                &mut trace
            } else {
                &mut NoopCollector
            };
            let (got, report) = test_hooks::with_tile_hook(drag, || {
                engine(&c, &plan, iters, rotate, KernelMode::Lanes, collector)
            });
            assert_eq!(
                report.messages,
                iters * plan.predicted_traffic().messages,
                "{run_label}: posts stand for exactly the predicted messages"
            );
            (got, report, traced.then_some(trace))
        })
    });
    assert_eq!(report.handoff, Handoff::InPlace, "{label}");
    assert_same(&got, &want, &label);
    if let Some(trace) = trace {
        // The causal-trace invariants of tests/trace_analysis.rs.
        let r = trace.report();
        let pred = r.meta.predicted;
        assert_eq!(
            (r.messages, r.elements, r.bytes),
            (pred.messages, pred.elements, pred.bytes)
        );
        for m in trace.messages() {
            assert!(
                m.recv_at >= m.sent_at,
                "{label}: a boundary was read before it was posted"
            );
        }
        let a = TraceAnalysis::from_trace(&trace).expect("analysis");
        let cp = &a.critical;
        assert!(cp.length() > 0.0);
        assert!(
            cp.end <= report.elapsed.as_secs_f64() * (1.0 + 1e-9) + 1e-9,
            "{label}"
        );
        let classified = cp.compute + cp.message + cp.recv_busy + cp.wait;
        assert!(
            (classified - cp.length()).abs() <= 1e-9 * cp.length().max(1.0),
            "{label}"
        );
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].to, w[1].from, "{label}");
        }
    }
}

#[test]
fn chaos_seeds_never_change_a_result_or_hang() {
    // 8 placements x b x iters x rotation = 64 configurations; 256
    // seeds walk through all of them four times, skewed neither way,
    // downstream, upstream, and neither way again.
    for seed in 0..256u64 {
        let mut pick = seed as usize;
        let mut take = |n: usize| {
            let v = pick % n;
            pick /= n;
            v
        };
        let placement = take(8);
        let b = [1, 5][take(2)];
        let iters = [1, 5][take(2)];
        let rotated = take(2) == 1;
        let skew = [Skew::None, Skew::Downstream, Skew::Upstream, Skew::None][take(4)];
        match placement {
            0 => chaos_run(seed, corner([2, 2]), b, iters, rotated, skew),
            1 => chaos_run(seed, corner([3, 2]), b, iters, rotated, skew),
            2..=4 => chaos_run(
                seed,
                descending([2, 3, 7][placement - 2]),
                b,
                iters,
                rotated,
                skew,
            ),
            _ => chaos_run(
                seed,
                diagonal([2, 3, 7][placement - 5]),
                b,
                iters,
                rotated,
                skew,
            ),
        }
    }
}

/// `u := 0.5·u@(+1, −1) + 0.25·u'@(−1, 0) + 1`: an anti-dependence
/// pointing downstream and to lower columns.
fn anti_nest(n: i64) -> (Program<2>, CompiledNest<2>) {
    let mut p = Program::<2>::new();
    let u = p.array("u", Region::rect([0, 0], [n + 1, n + 1]));
    p.stmt(
        Region::rect([1, 1], [n, n]),
        u,
        Expr::lit(0.5) * Expr::read_at(u, [1, -1])
            + Expr::lit(0.25) * Expr::read_primed_at(u, [-1, 0])
            + Expr::lit(1.0),
    );
    let nest = compile(&p).unwrap().nest(0).clone();
    (p, nest)
}

#[test]
fn an_anti_dependence_the_tile_order_does_not_cover_takes_the_message_path() {
    let n = 12;
    let (program, nest) = anti_nest(n);
    let c = Case {
        program,
        nest,
        topology: JobTopology::Line {
            procs: n as usize,
            dist_dim: Some(0),
        },
    };
    let want = reference(&c, 1, &[]);

    // The planner runs the tiles from high columns to low, which puts
    // the block holding `u@(+1, −1)` *later* on both block axes: covered,
    // in place.
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(2), &t3e()).unwrap();
    assert!(!plan.tile_ascending);
    let (got, report) = engine(&c, &plan, 1, &[], KernelMode::Lanes, &mut NoopCollector);
    assert_eq!(report.handoff, Handoff::InPlace);
    assert_same(&got, &want, "descending tiles");

    // `WavefrontPlan::build` never yields the uncovered order, so make
    // one: the same plan with its tiles ascending. With one row per cell
    // no row-internal dependence crosses a tile, so local copies still
    // compute the reference — every `u@(+1, −1)` is read from a ghost
    // row nobody overwrites — while on shared memory cell k+1 may have
    // overwritten tile t−1 before cell k reads it for tile t.
    let mut flipped = plan.clone();
    flipped.tile_ascending = true;
    flipped.tiles.reverse();
    flipped.order.ascending[1] = true;
    for seed in 0..8 {
        let (c2, flipped) = (
            Case {
                program: c.program.clone(),
                nest: c.nest.clone(),
                ..c
            },
            flipped.clone(),
        );
        let (got, report) = watchdog("flipped tiles", move || {
            chaos::with_seed(seed, || {
                engine(&c2, &flipped, 1, &[], KernelMode::Lanes, &mut NoopCollector)
            })
        });
        assert_same(&got, &want, "ascending tiles");
        assert_eq!(
            report.handoff,
            Handoff::Message(MessageReason::AntiDependence)
        );
    }

    // The same read made pointwise, or primed-legal, stays in place.
    let mut p = Program::<2>::new();
    let u = p.array("u", Region::rect([0, 0], [n + 1, n + 1]));
    p.stmt(
        Region::rect([1, 1], [n, n]),
        u,
        Expr::lit(0.5) * Expr::read(u)
            + Expr::lit(0.25) * Expr::read_primed_at(u, [-1, 1])
            + Expr::lit(1.0),
    );
    let nest = compile(&p).unwrap().nest(0).clone();
    let c = Case {
        program: p,
        nest,
        topology: JobTopology::Line {
            procs: 3,
            dist_dim: Some(0),
        },
    };
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(2), &t3e()).unwrap();
    let (got, report) = engine(&c, &plan, 1, &[], KernelMode::Lanes, &mut NoopCollector);
    assert_eq!(report.handoff, Handoff::InPlace);
    assert_same(&got, &reference(&c, 1, &[]), "pointwise + primed diagonal");
}

#[test]
fn the_mesh_twin_is_refused_by_the_planner_and_by_the_predicate() {
    // Downstream on one axis, upstream on the other: `u@(+1, −1, 0)`
    // next to `u'@(−1, 0, 0)` and `u'@(0, −1, 0)`.
    let bounds = Region::rect([0, 0, 0], [9, 9, 4]);
    let cells = Region::rect([1, 1, 0], [8, 8, 4]);
    let build = |with_anti: bool| {
        let mut p = Program::<3>::new();
        let u = p.array("u", bounds);
        let mut rhs = Expr::read_primed_at(u, [-1, 0, 0]) + Expr::read_primed_at(u, [0, -1, 0]);
        if with_anti {
            rhs = rhs + Expr::read_at(u, [1, -1, 0]);
        }
        p.stmt(cells, u, rhs);
        let nest = compile(&p).unwrap().nest(0).clone();
        (p, nest)
    };
    let mesh = JobTopology::Mesh {
        mesh: [2, 2],
        wave_dims: Some([0, 1]),
    };
    let (program, twin) = build(true);
    // No mesh plan exists for it (dimension 1 is not decomposable) …
    assert!(matches!(
        WavefrontPlan::build(&twin, mesh, &BlockPolicy::Fixed(2), &t3e()).unwrap_err(),
        crate::error::PipelineError::ConflictingDependences { dim: 1 }
    ));
    // … and were one handed in, the predicate would not run it in place.
    let (_, plain) = build(false);
    let plan = WavefrontPlan::build(&plain, mesh, &BlockPolicy::Fixed(2), &t3e()).unwrap();
    let store = Store::new(&program);
    let lanes = |nest| prepare(&program, nest, KernelMode::Lanes);
    assert_eq!(
        choose_handoff(&twin, &plan, &lanes(&twin), &store, &[]),
        Handoff::Message(MessageReason::AntiDependence)
    );
    assert_eq!(
        choose_handoff(&plain, &plan, &lanes(&plain), &store, &[]),
        Handoff::InPlace
    );
}

#[test]
fn a_rotation_between_layouts_takes_the_message_path() {
    let bounds = Region::rect([0, 0], [13, 9]);
    let mut program = Program::<2>::new();
    let next = program.array_with_layout("next", bounds, Layout::RowMajor);
    let curr = program.array_with_layout("curr", bounds, Layout::ColMajor);
    program.stmt(
        Region::rect([1, 0], [13, 9]),
        next,
        Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0]) + Expr::read(curr),
    );
    let nest = compile(&program).unwrap().nest(0).clone();
    let c = Case {
        program,
        nest,
        topology: JobTopology::line(3),
    };
    let rotate = [(next, curr), (curr, next)];
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(3), &t3e()).unwrap();
    let (got, report) = engine(&c, &plan, 4, &rotate, KernelMode::Lanes, &mut NoopCollector);
    assert_eq!(
        report.handoff,
        Handoff::Message(MessageReason::RotationShapes)
    );
    assert_same(&got, &reference(&c, 4, &rotate), "mixed layouts");
    // (With one layout the same swap runs in place: the chaos runs assert it.)
}

#[test]
fn a_single_cell_runs_on_the_calling_thread() {
    let c = descending(1);
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(4), &t3e()).unwrap();
    let mut store = init(&c.program);
    let (nest, plan) = (Arc::new(c.nest.clone()), Arc::new(plan));
    let prep = Arc::new(prepare(&c.program, &nest, KernelMode::Lanes));
    let workers = WorkerPool::new();
    let report = execute_threaded(
        &workers,
        &c.program,
        &nest,
        &plan,
        &prep,
        &mut store,
        3,
        &[],
        true,
        &mut NoopCollector,
    );
    assert_eq!(report.handoff, Handoff::InPlace);
    assert_eq!(workers.spawn_count(), 0, "one cell needs no pool");
    assert_same(&store, &reference(&c, 3, &[]), "p = 1");
}

#[test]
fn a_panicking_cell_ends_the_run_and_leaves_the_pool_usable() {
    // Cell 1 of three panics before its fifth tile. Its poisoned counter
    // must wake cell 2 (flow wait) — cell 0 only posts — and the caller
    // must see the panic after every task has ended.
    let c = descending(3);
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(1), &t3e()).unwrap();
    assert!(plan.tiles.len() > 6);
    let (nest, plan) = (Arc::new(c.nest.clone()), Arc::new(plan));
    let prep = Arc::new(prepare(&c.program, &nest, KernelMode::Lanes));
    let workers = Arc::new(WorkerPool::new());
    let started = Arc::new(AtomicUsize::new(0));

    let hook: test_hooks::TileHook = {
        let started = Arc::clone(&started);
        Arc::new(move |cell, tile| {
            if cell == 1 && tile == 4 {
                panic!("tile hook: cell 1 dies at tile 4");
            }
            started.fetch_add(1, Ordering::SeqCst);
        })
    };
    let run = {
        let (c_program, nest, plan, prep, workers) = (
            c.program.clone(),
            Arc::clone(&nest),
            Arc::clone(&plan),
            Arc::clone(&prep),
            Arc::clone(&workers),
        );
        move || {
            let mut store = init(&c_program);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                test_hooks::with_tile_hook(hook, || {
                    execute_threaded(
                        &workers,
                        &c_program,
                        &nest,
                        &plan,
                        &prep,
                        &mut store,
                        1,
                        &[],
                        true,
                        &mut NoopCollector,
                    )
                })
            }));
            (outcome.is_err(), store)
        }
    };
    let (panicked, store) = watchdog("a panicking cell", run);
    assert!(panicked, "the caller sees the worker's panic");
    // Nobody is still running tiles on the store the caller got back.
    let seen = started.load(Ordering::SeqCst);
    let snapshot = store.get(NEXT).as_slice().to_vec();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        started.load(Ordering::SeqCst),
        seen,
        "a tile started after the caller saw the panic"
    );
    assert_eq!(
        store.get(NEXT).as_slice(),
        &snapshot[..],
        "the store changed after the run ended"
    );
    // Cell 1 ran exactly tiles 0..4; cell 2 cannot have passed them.
    assert!(
        seen >= 4 && seen <= plan.tiles.len() + 4 + 4,
        "tiles started: {seen}"
    );

    // The pool's three workers survived, and serve the next run.
    assert_eq!(workers.spawn_count(), 3);
    let mut store = init(&c.program);
    let report = execute_threaded(
        &workers,
        &c.program,
        &nest,
        &plan,
        &prep,
        &mut store,
        1,
        &[],
        true,
        &mut NoopCollector,
    );
    assert_eq!(report.handoff, Handoff::InPlace);
    assert_eq!(workers.spawn_count(), 3, "no worker was lost to the panic");
    assert_same(&store, &reference(&c, 1, &[]), "the run after the panic");
}
