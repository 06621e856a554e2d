//! The safety net of the in-place hand-off: a seeded chaos harness over
//! the progress counters (two runs sharing one pool), the legality
//! predicate (every plan the planner makes passes it; a plan that fails
//! is refused), and a worker panicking mid-wave.

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
use wavefront_kernels::rng::SplitMix64;

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

/// One engine run of `c` on `store`, on the caller's pool.
#[allow(clippy::too_many_arguments)]
fn run_on<const R: usize>(
    workers: &WorkerPool,
    c: &Case<R>,
    plan: &WavefrontPlan<R>,
    store: &mut Store<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    kernel_mode: KernelMode,
    collector: &mut dyn Collector,
) -> ThreadReport {
    let (nest, plan) = (Arc::new(c.nest.clone()), Arc::new(plan.clone()));
    let shapes = c.program.shapes();
    let prep = Arc::new(prepare(&nest, &plan, &fixed(plan.block, kernel_mode), &shapes));
    let threads = EngineKind::Threads;
    execute_threaded(workers, &nest, &prep, store, iters, rotate, true, threads, collector)
}

/// One engine run of `c` from its initial store, on a pool of its own.
fn engine<const R: usize>(
    c: &Case<R>,
    plan: &WavefrontPlan<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    kernel_mode: KernelMode,
    collector: &mut dyn Collector,
) -> (Store<R>, ThreadReport) {
    let mut store = init(&c.program);
    let workers = WorkerPool::new();
    let report = run_on(
        &workers,
        c,
        plan,
        &mut store,
        iters,
        rotate,
        kernel_mode,
        collector,
    );
    (store, report)
}

/// Two engine runs of `c`, each from its initial store, launched back to
/// back onto one pool without waiting: the second run's cells queue
/// behind the first's and start as those end, as consecutive service
/// jobs do, under `prep`. Only the first run reports to `collector`.
fn engine_pair<const R: usize>(
    c: &Case<R>,
    prep: &Arc<NestPrep<R>>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    collector: &mut dyn Collector,
) -> [(Store<R>, ThreadReport); 2] {
    let nest = Arc::new(c.nest.clone());
    let workers = WorkerPool::new();
    let (tx, rx) = channel();
    for k in 0..2 {
        let tx = tx.clone();
        let mut store = init(&c.program);
        let done: Done<R> = Box::new(move |ended| {
            let _ = tx.send((k, ended));
        });
        let enabled = k == 0 && collector.enabled();
        let (store, threads) = (&mut store, EngineKind::Threads);
        launch_threaded(&workers, &nest, prep, store, iters, rotate, true, threads, enabled, done);
    }
    drop(tx);
    let mut runs: [Option<(Store<R>, ThreadReport)>; 2] = [None, None];
    for (k, ended) in rx {
        let c: &mut dyn Collector = if k == 0 {
            collector
        } else {
            &mut NoopCollector
        };
        let (store, report) = ended.finish(c);
        runs[k] = Some((store, report.expect("no cell panicked")));
    }
    runs.map(|r| r.expect("both runs complete"))
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

/// A two-array [`case`] whose rows lie a page or more apart: its unit
/// stride lanes run along the tile dimension, so the executing engines
/// re-fit a model's plan for it, and a fused chunk for its sweeps.
fn paged(p: usize) -> Case<2> {
    case(
        Region::rect([0, 0], [10, 700]),
        Region::rect([1, 0], [10, 700]),
        &[[-1, 0]],
        JobTopology::line(p),
    )
}

/// The same relaxation on 12 rows of 128 columns, 1,024 bytes apart:
/// under a page, so a fused chunk is cut on its own DAG with no row
/// start priced, and walks its wide tiles lane dimension innermost.
fn unpaged(p: usize) -> Case<2> {
    case(
        Region::rect([0, 0], [12, 127]),
        Region::rect([1, 0], [12, 127]),
        &[[-1, 0]],
        JobTopology::line(p),
    )
}

/// One seeded chaos run of `c` planned by `policy`, twice over on one
/// pool (see [`engine_pair`]), under the plan the executing engines run
/// for a chunk of `iters` sweeps: every post delayed, every wait
/// followed by a delay, both results compared with the reference. Every
/// fourth single-sweep seed traces its first run and checks the causal
/// invariants.
#[allow(clippy::too_many_arguments)]
fn chaos_run<const R: usize>(
    seed: u64,
    c: Case<R>,
    policy: BlockPolicy,
    iters: usize,
    rotated: bool,
    skew: Skew,
    kernel_mode: KernelMode,
) {
    let rotate: &[(ArrayId, ArrayId)] = if rotated {
        &[(NEXT, CURR), (CURR, NEXT)]
    } else {
        &[]
    };
    let label = format!(
        "seed {seed}: {:?} {policy:?} iters={iters} rotate={rotated} skew={skew:?} {kernel_mode:?}",
        c.topology
    );
    let traced = iters == 1 && seed.is_multiple_of(4);
    let want = reference(&c, iters, rotate);
    let want_second = want.clone();
    let run_label = label.clone();
    let (got, report, trace) = watchdog(&label, move || {
        chaos::with_seed(seed, || {
            let plan = Arc::new(WavefrontPlan::build(&c.nest, c.topology, &policy, &t3e()).unwrap());
            let cfg = SessionConfig { block: policy, kernel_mode, ..SessionConfig::default() };
            let (nest, shapes) = (Arc::new(c.nest.clone()), c.program.shapes());
            let prep = Arc::new(prepare(&nest, &plan, &cfg, &shapes)).chunk(&plan, &cfg, &shapes, iters);
            let cells = prep.plan.active_cells().len();
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
            let runs = test_hooks::with_tile_hook(drag, || {
                engine_pair(&c, &prep, iters, rotate, collector)
            });
            for (_, report) in &runs {
                assert_eq!(
                    report.messages,
                    iters * prep.plan.predicted_traffic().messages,
                    "{run_label}: posts stand for exactly the predicted messages"
                );
            }
            let [(got, report), (second, _)] = runs;
            assert_same(&second, &want_second, &format!("{run_label}, second run"));
            (got, report, traced.then_some(trace))
        })
    });
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
    // 10 placements x b x iters x rotation = 80 configurations; 320
    // seeds walk through all of them four times, skewed neither way,
    // downstream, upstream, and neither way again. Every fourth seed
    // runs on the interpreter, the choice shifted by one with each pass:
    // each placement meets it in one of the four, with every b, sweep
    // count and rotation. The paged and unpaged placements are planned
    // by Model2, not by b, so their chunks of five sweeps run the width
    // the DES of their own graph picks.
    for seed in 0..320u64 {
        let mut pick = seed as usize;
        let mut take = |n: usize| {
            let v = pick % n;
            pick /= n;
            v
        };
        let placement = take(10);
        let b = BlockPolicy::Fixed([1, 5][take(2)]);
        let iters = [1, 5][take(2)];
        let rotated = take(2) == 1;
        let skew = [Skew::None, Skew::Downstream, Skew::Upstream, Skew::None][take(4)];
        let mode = if (seed + seed / 80) % 4 == 3 {
            KernelMode::Interpreted
        } else {
            KernelMode::Lanes
        };
        match placement {
            0 => chaos_run(seed, corner([2, 2]), b, iters, rotated, skew, mode),
            1 => chaos_run(seed, corner([3, 2]), b, iters, rotated, skew, mode),
            2..=4 => chaos_run(
                seed,
                descending([2, 3, 7][placement - 2]),
                b,
                iters,
                rotated,
                skew,
                mode,
            ),
            5..=7 => chaos_run(
                seed,
                diagonal([2, 3, 7][placement - 5]),
                b,
                iters,
                rotated,
                skew,
                mode,
            ),
            8 => chaos_run(seed, paged(2), BlockPolicy::Model2, iters, rotated, skew, mode),
            _ => chaos_run(seed, unpaged(2), BlockPolicy::Model2, iters, rotated, skew, mode),
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

/// A random scan of one or two statements over `u`, `v` and a read-only
/// `w`: each statement sums up to three reads, any array at any shift in
/// {−2…2}^R, primed (where the language allows a prime: a shifted read
/// of an array the scan writes) or not. `None` when the compiler refuses
/// it.
fn random_scan<const R: usize>(rng: &mut SplitMix64, n: i64) -> Option<Case<R>> {
    let mut program = Program::<R>::new();
    for name in ["u", "v", "w"] {
        program.array(name, Region::rect([0; R], [n + 3; R]));
    }
    let lhs: Vec<ArrayId> = (0..1 + rng.gen_range(2))
        .map(|_| rng.gen_range(2))
        .collect();
    let stmts = lhs
        .iter()
        .map(|&lhs_id| {
            let mut rhs = Expr::lit(0.125);
            for j in 0..1 + rng.gen_range(3) {
                let id = rng.gen_range(3);
                let mut shift = [0i64; R];
                for s in &mut shift {
                    // Half the components stay zero, or hardly any
                    // nest would compile.
                    *s = [0, 0, 0, 0, 0, -2, -1, 0, 1, 2][rng.gen_range(10)];
                }
                let primed = rng.gen_range(2) == 1 && lhs.contains(&id) && shift != [0; R];
                let read = if primed {
                    Expr::read_primed_at(id, shift)
                } else {
                    Expr::read_at(id, shift)
                };
                rhs = rhs + Expr::lit(0.25 / (j + 1) as f64) * read;
            }
            Statement::new(lhs_id, rhs)
        })
        .collect();
    program.scan(Region::rect([2; R], [n + 1; R]), stmts);
    let nest = compile(&program).ok()?.nest(0).clone();
    Some(Case {
        program,
        nest,
        topology: JobTopology::line(1),
    })
}

/// Every topology the sweep plans a rank-`R` nest on: lines of two and
/// three and meshes of 2x2 and 3x2, the planner choosing the dimensions
/// and every forced choice.
fn topologies<const R: usize>() -> Vec<JobTopology> {
    let mut all = Vec::new();
    for procs in [2, 3] {
        all.push(JobTopology::line(procs));
        all.extend((0..R).map(|d| JobTopology::Line {
            procs,
            dist_dim: Some(d),
        }));
    }
    for mesh in [[2, 2], [3, 2]] {
        all.push(JobTopology::mesh(mesh));
        for (a, b) in (0..R).flat_map(|a| (0..R).map(move |b| (a, b))) {
            if a != b {
                all.push(JobTopology::Mesh {
                    mesh,
                    wave_dims: Some([a, b]),
                });
            }
        }
    }
    all
}

/// The race-freedom oracle behind obligation (2) of `launch_threaded`'s
/// SAFETY argument, by brute force: over `sweeps` sweeps of `c.nest`
/// under `plan`, buffers renamed by `rotate` between sweeps, any two
/// tiles on different cells that touch one element, at least one of
/// them writing it, are ordered by the plan's `TileGraph` — its flow and
/// drain edges, closed under each cell's tile order.
fn assert_race_free<const R: usize>(
    c: &Case<R>,
    plan: &WavefrontPlan<R>,
    sweeps: usize,
    rotate: &[(ArrayId, ArrayId)],
    label: &str,
) {
    let graph = TileGraph::new(plan, sweeps);
    let (cells, nt) = (graph.cells.len(), plan.tiles.len());
    // Node `(s, t, c)`: cell `c` runs tile `t` of sweep `s`. Every edge
    // points to a higher number, so numbering order is topological.
    let node = |s: usize, t: usize, c: usize| (s * nt + t) * cells + c;
    let nodes = sweeps * nt * cells;
    let words = nodes.div_ceil(64);
    // Bits `v * words ..`: the nodes ordered before node `v`.
    let mut before = vec![0u64; nodes * words];
    for s in 0..sweeps {
        for t in 0..nt {
            for c in 0..cells {
                let mut preds: Vec<usize> = graph.ins[c].iter().map(|up| node(s, t, up.cell)).collect();
                match (s, t) {
                    (0, 0) => {}
                    (_, 0) => preds.push(node(s - 1, nt - 1, c)),
                    _ => preds.push(node(s, t - 1, c)),
                }
                if s > 0 {
                    let drain = graph.readers[c].iter().map(|&r| node(s - 1, graph.reach[t], r));
                    preds.extend(drain);
                }
                let v = node(s, t, c);
                for p in preds {
                    assert!(p < v, "{label}: an edge points backwards");
                    let (done, rest) = before.split_at_mut(v * words);
                    for (w, &u) in rest[..words].iter_mut().zip(&done[p * words..][..words]) {
                        *w |= u;
                    }
                    rest[p / 64] |= 1 << (p % 64);
                }
            }
        }
    }
    let ordered = |a: usize, b: usize| before[b * words + a / 64] >> (a % 64) & 1 == 1;
    // Every element access of the run: `(node, element, writes)`, the
    // elements numbered buffer after buffer in row-major order.
    let shape = c.program.arrays()[0].bounds;
    assert!(c.program.arrays().iter().all(|d| d.bounds == shape));
    let mut stride = [1i64; R];
    for k in (0..R - 1).rev() {
        stride[k] = stride[k + 1] * shape.extent(k + 1);
    }
    let linear = |q: [i64; R]| (0..R).map(|k| q[k] * stride[k]).sum::<i64>();
    let origin = linear(shape.lo());
    let stmts: Vec<(usize, Vec<(usize, i64)>)> = c
        .nest
        .stmts
        .iter()
        .map(|st| {
            let reads = st.rhs.reads().into_iter().map(|r| (r.id, linear(r.shift.0)));
            (st.lhs, reads.collect())
        })
        .collect();
    let mut accesses = Vec::new();
    let mut buf: Vec<usize> = (0..c.program.arrays().len()).collect();
    for s in 0..sweeps {
        if s > 0 {
            let moved: Vec<usize> = rotate.iter().map(|&(from, _)| buf[from]).collect();
            for (&(_, to), b) in rotate.iter().zip(moved) {
                buf[to] = b;
            }
        }
        for (t, tile) in plan.tiles.iter().enumerate() {
            for cell in 0..cells {
                let v = node(s, t, cell);
                for q in graph.owned[cell].intersect(tile).iter() {
                    let at = linear(q.0) - origin;
                    for (lhs, reads) in &stmts {
                        for &(id, shift) in reads {
                            let e = buf[id] * shape.len() + (at + shift) as usize;
                            accesses.push((v, e, false));
                        }
                        accesses.push((v, buf[*lhs] * shape.len() + at as usize, true));
                    }
                }
            }
        }
    }
    // Per element and sweep, its writer: one cell owns the element.
    let mut writer = vec![usize::MAX; buf.len() * shape.len() * sweeps];
    for &(v, e, writes) in &accesses {
        if writes {
            writer[e * sweeps + v / (nt * cells)] = v;
        }
    }
    let name = |v: usize| format!("cell {} tile {} sweep {}", v % cells, v / cells % nt, v / cells / nt);
    for &(v, e, _) in &accesses {
        for &w in &writer[e * sweeps..][..sweeps] {
            assert!(
                w == usize::MAX || w % cells == v % cells || ordered(w, v) || ordered(v, w),
                "{label}, {sweeps} sweep(s), rotate {rotate:?}: {} and {} race",
                name(w),
                name(v)
            );
        }
    }
}

/// The legality sweep at one rank: returns (nests compiled, plans
/// accepted, plans run).
fn sweep_rank<const R: usize>(seeds: u64, n: i64, workers: &WorkerPool) -> (usize, usize, usize) {
    let (mut nests, mut plans, mut runs) = (0, 0, 0);
    for seed in 0..seeds {
        let mut rng = SplitMix64::new(seed);
        let Some(mut c) = random_scan::<R>(&mut rng, n) else {
            continue;
        };
        nests += 1;
        for topology in topologies::<R>() {
            c.topology = topology;
            for policy in [
                BlockPolicy::Fixed(1),
                BlockPolicy::Fixed(3),
                BlockPolicy::FullPortion,
            ] {
                let Ok(plan) = WavefrontPlan::build(&c.nest, topology, &policy, &t3e()) else {
                    continue;
                };
                plans += 1;
                let label = format!("rank {R} seed {seed}: {topology:?} {policy:?}");
                assert!(
                    in_place_legal(&c.nest, &plan),
                    "{label}: the planner made a plan the engine refuses"
                );
                // Two sweeps check the first one's edges too.
                let rotated = [(0, 1), (1, 0)];
                let sweeps = if rotation_fusible(&c.nest, &[]) { 2 } else { 1 };
                assert_race_free(&c, &plan, sweeps, &[], &label);
                if rotation_fusible(&c.nest, &rotated) {
                    assert_race_free(&c, &plan, 2, &rotated, &label);
                }
                if plans % 7 != 0 {
                    continue;
                }
                runs += 1;
                let mode = [KernelMode::Lanes, KernelMode::Interpreted][runs % 2];
                let mut store = init(&c.program);
                run_on(
                    workers,
                    &c,
                    &plan,
                    &mut store,
                    1,
                    &[],
                    mode,
                    &mut NoopCollector,
                );
                assert_same(&store, &reference(&c, 1, &[]), &label);
            }
        }
    }
    (nests, plans, runs)
}

/// The property the engine's soundness rests on now that there is no
/// second exchange: **every** plan `WavefrontPlan::build` accepts passes
/// `in_place_legal`. Should a seed ever fail here, the fix is a typed
/// planner refusal (`ConflictingDependences`), not another engine.
#[test]
fn every_plan_the_planner_accepts_is_legal_in_place() {
    let workers = WorkerPool::new();
    let (n2, p2, r2) = sweep_rank::<2>(2500, 5, &workers);
    let (n3, p3, r3) = sweep_rank::<3>(1500, 3, &workers);
    assert!(r2 + r3 >= 2000, "plans run: {r2} + {r3}");
    // Not vacuous: most seeds must still compile and plan (3,618 nests
    // and 18,228 plans when written, 6,924 of them with an unprimed
    // shifted read of a written array).
    assert!(n2 + n3 >= 3000, "nests compiled: {n2} + {n3}");
    assert!(p2 + p3 >= 15_000, "plans accepted: {p2} + {p3}");
}

/// `execute_threaded` on a run it must refuse: the caller sees a panic,
/// no task was dispatched (the pool never spawned) and the store is as
/// it was.
fn assert_refused<const R: usize>(
    c: &Case<R>,
    plan: &WavefrontPlan<R>,
    iters: usize,
    rotate: &[(ArrayId, ArrayId)],
    label: &str,
) {
    let mut store = init(&c.program);
    let workers = WorkerPool::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let lanes = KernelMode::Lanes;
        run_on(
            &workers,
            c,
            plan,
            &mut store,
            iters,
            rotate,
            lanes,
            &mut NoopCollector,
        )
    }));
    assert!(outcome.is_err(), "{label}: the run was not refused");
    assert_eq!(workers.spawn_count(), 0, "{label}: a task was dispatched");
    assert_same(&store, &init(&c.program), label);
}

#[test]
fn an_anti_dependence_the_tile_order_does_not_cover_is_refused() {
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

    // The planner runs the tiles from high columns to low, which puts
    // the block holding `u@(+1, −1)` *later* on both block axes: covered.
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(2), &t3e()).unwrap();
    assert!(!plan.tile_ascending);
    assert!(in_place_legal(&c.nest, &plan));
    let (got, _) = engine(&c, &plan, 1, &[], KernelMode::Lanes, &mut NoopCollector);
    assert_same(&got, &reference(&c, 1, &[]), "descending tiles");

    // `WavefrontPlan::build` never yields the uncovered order, so make
    // one: the same plan with its tiles ascending. On shared memory cell
    // k+1 may have overwritten tile t−1 before cell k reads it for tile
    // t, so the run is a caller bug and never starts.
    let mut flipped = plan.clone();
    flipped.tile_ascending = true;
    flipped.tiles.reverse();
    flipped.order.ascending[1] = true;
    assert!(!in_place_legal(&c.nest, &flipped));
    assert_refused(&c, &flipped, 1, &[], "ascending tiles");

    // The same read made pointwise, or primed-legal, is covered.
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
    assert!(in_place_legal(&c.nest, &plan));
    let (got, _) = engine(&c, &plan, 1, &[], KernelMode::Lanes, &mut NoopCollector);
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
        compile(&p).unwrap().nest(0).clone()
    };
    let mesh = JobTopology::Mesh {
        mesh: [2, 2],
        wave_dims: Some([0, 1]),
    };
    let twin = build(true);
    // No mesh plan exists for it (dimension 1 is not decomposable) …
    assert!(matches!(
        WavefrontPlan::build(&twin, mesh, &BlockPolicy::Fixed(2), &t3e()).unwrap_err(),
        crate::error::PipelineError::ConflictingDependences { dim: 1 }
    ));
    // … and were one handed in, the predicate would refuse it.
    let plain = build(false);
    let plan = WavefrontPlan::build(&plain, mesh, &BlockPolicy::Fixed(2), &t3e()).unwrap();
    assert!(!in_place_legal(&twin, &plan));
    assert!(in_place_legal(&plain, &plan));
}

#[test]
fn a_rotation_between_layouts_is_refused() {
    // `LoopSpecBuilder::build` turns such a loop away with a typed error
    // (tests/timestep.rs); one that reaches the engine is a caller bug.
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
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(3), &t3e()).unwrap();
    assert_refused(&c, &plan, 4, &[(next, curr), (curr, next)], "mixed layouts");
    // (With one layout the same swap runs: the chaos runs assert it.)
}

#[test]
fn a_single_cell_runs_on_the_calling_thread() {
    let c = descending(1);
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(4), &t3e()).unwrap();
    let mut store = init(&c.program);
    let workers = WorkerPool::new();
    let lanes = KernelMode::Lanes;
    run_on(
        &workers,
        &c,
        &plan,
        &mut store,
        3,
        &[],
        lanes,
        &mut NoopCollector,
    );
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
    let shapes = c.program.shapes();
    let prep = Arc::new(prepare(&nest, &plan, &fixed(1, KernelMode::Lanes), &shapes));
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
        let (c_program, nest, prep, workers) = (
            c.program.clone(),
            Arc::clone(&nest),
            Arc::clone(&prep),
            Arc::clone(&workers),
        );
        move || {
            let mut store = init(&c_program);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                test_hooks::with_tile_hook(hook, || {
                    execute_threaded(
                        &workers,
                        &nest,
                        &prep,
                        &mut store,
                        1,
                        &[],
                        true,
                        EngineKind::Threads,
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
    execute_threaded(
        &workers,
        &nest,
        &prep,
        &mut store,
        1,
        &[],
        true,
        EngineKind::Threads,
        &mut NoopCollector,
    );
    assert_eq!(workers.spawn_count(), 3, "no worker was lost to the panic");
    assert_same(&store, &reference(&c, 1, &[]), "the run after the panic");
}

#[test]
fn a_panicking_seq_cell_ends_the_schedule() {
    // On one thread the cells run in turn. Cell 1 of three dies before
    // its fifth tile; cell 2 then ends without running, as its failed
    // flow wait would end it on the pool, and the cause is reported.
    let c = descending(3);
    let plan = WavefrontPlan::build(&c.nest, c.topology, &BlockPolicy::Fixed(1), &t3e()).unwrap();
    let tiles = plan.tiles.len();
    let (nest, plan) = (Arc::new(c.nest.clone()), Arc::new(plan));
    let shapes = c.program.shapes();
    let prep = Arc::new(prepare(&nest, &plan, &fixed(1, KernelMode::Lanes), &shapes));
    let workers = WorkerPool::new();
    let ran = Arc::new(Mutex::new(Vec::new()));
    let hook: test_hooks::TileHook = {
        let ran = Arc::clone(&ran);
        Arc::new(move |cell, tile| {
            if cell == 1 && tile == 4 {
                panic!("tile hook: cell 1 dies at tile 4");
            }
            ran.lock().unwrap().push(cell);
        })
    };
    let mut store = init(&c.program);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        test_hooks::with_tile_hook(hook, || {
            let (seq, c) = (EngineKind::Seq, &mut NoopCollector);
            execute_threaded(&workers, &nest, &prep, &mut store, 1, &[], true, seq, c)
        })
    }));
    let payload = outcome.expect_err("the caller sees the cell's panic");
    let msg = payload.downcast_ref::<String>().expect("a formatted message");
    assert!(msg.contains("cell 1 dies"), "{msg}");
    let want: Vec<usize> = [0].repeat(tiles).into_iter().chain([1; 4]).collect();
    assert_eq!(*ran.lock().unwrap(), want);
    assert_eq!(workers.spawn_count(), 0, "one thread needs no pool");
}
