//! The central correctness property of the parallel runtimes: for any
//! legal scan block and any processor count / block size, the
//! dependency-order decomposed execution and the real threaded
//! message-passing execution produce bit-identical results to the
//! sequential executor.
//!
//! Sampled deterministically with the crate's own [`SplitMix64`] (the
//! build is fully offline, so no property-testing dependency): every run
//! exercises the same case set, and any failure message pins the exact
//! configuration for replay.

use wavefront::core::prelude::*;
use wavefront::kernels::rng::SplitMix64;
use wavefront::kernels::{smith_waterman, sor, tomcatv};
use wavefront::lang::{compile_str, Lowered};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    BlockPolicy, EngineKind, JobTopology, RunOutcome, Session, TraceCollector, WavefrontPlan,
};

/// A small pool of interesting primed directions.
const DIRS: [[i64; 2]; 6] = [[-1, 0], [1, 0], [-1, -1], [-1, 1], [1, 1], [-2, 0]];

fn build_random_scan(
    n: i64,
    dir1: usize,
    dir2: Option<usize>,
    two_stmts: bool,
) -> Option<(Program<2>, Region<2>)> {
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let inner = Region::rect([2, 2], [n - 1, n - 1]);
    let mut p = Program::<2>::new();
    let a = p.array("a", bounds);
    let b = p.array("b", bounds);
    let d1 = DIRS[dir1 % DIRS.len()];
    let mut stmts = vec![Statement::new(
        a,
        Expr::lit(0.5) * Expr::read_primed_at(a, d1)
            + Expr::lit(0.125) * Expr::read(b)
            + Expr::lit(1.0),
    )];
    if let Some(d2) = dir2 {
        let d2 = DIRS[d2 % DIRS.len()];
        let rhs = Expr::lit(0.25) * Expr::read_primed_at(a, d2) + Expr::read(b);
        if two_stmts {
            stmts.push(Statement::new(b, rhs));
        } else {
            let first = stmts[0].rhs.clone();
            stmts[0] = Statement::new(a, first + rhs);
        }
    }
    p.scan(inner, stmts);
    Some((p, inner))
}

fn init_store(p: &Program<2>, seed: u64) -> Store<2> {
    let mut store = Store::new(p);
    for id in 0..store.len() {
        let bounds = store.get(id).bounds();
        *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
            let h = (q[0] as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(q[1] as u64)
                .wrapping_mul(seed | 1)
                .wrapping_add(id as u64);
            (h % 1009) as f64 / 1009.0
        });
    }
    store
}

#[test]
fn decomposed_and_threaded_match_sequential() {
    let mut rng = SplitMix64::new(0xE0_17A5);
    for case in 0..48 {
        let n = 8 + rng.gen_range(12) as i64;
        let dir1 = rng.gen_range(6);
        let dir2 = (rng.next_u64() & 1 == 0).then(|| rng.gen_range(6));
        let two_stmts = rng.next_u64() & 1 == 0;
        let p = 1 + rng.gen_range(5);
        let b = 1 + rng.gen_range(23);
        let seed = rng.next_u64();

        let Some((program, region)) = build_random_scan(n, dir1, dir2, two_stmts) else {
            continue;
        };
        // Skip over-constrained combinations (they are a legality error,
        // tested elsewhere).
        let compiled = match compile(&program) {
            Ok(c) => c,
            Err(Error::OverConstrained { .. }) => continue,
            Err(e) => panic!("case {case}: unexpected: {e}"),
        };
        let nest = compiled.nest(0);

        let mut reference = init_store(&program, seed);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        let params = cray_t3e();
        let line = JobTopology::line(p);
        if WavefrontPlan::build(nest, line, &BlockPolicy::Fixed(b), &params).is_err() {
            continue; // no wavefront dim (can't happen here)
        }

        let mut dec = init_store(&program, seed);
        Session::new(&program, nest)
            .procs(p)
            .block(BlockPolicy::Fixed(b))
            .machine(params)
            .store(&mut dec)
            .run(EngineKind::Seq)
            .unwrap();
        let mut thr = init_store(&program, seed);
        Session::new(&program, nest)
            .procs(p)
            .block(BlockPolicy::Fixed(b))
            .machine(params)
            .store(&mut thr)
            .run(EngineKind::Threads)
            .unwrap();

        for id in 0..reference.len() {
            assert!(
                reference.get(id).region_eq(dec.get(id), region),
                "case {case}: decomposed array {id} differs (n={n} p={p} b={b} dirs {:?}/{:?})",
                DIRS[dir1 % DIRS.len()],
                dir2.map(|d| DIRS[d % DIRS.len()])
            );
            assert!(
                reference.get(id).region_eq(thr.get(id), region),
                "case {case}: threaded array {id} differs (n={n} p={p} b={b} dirs {:?}/{:?})",
                DIRS[dir1 % DIRS.len()],
                dir2.map(|d| DIRS[d % DIRS.len()])
            );
        }
    }
}

/// Exhaustive sweep over small (p, b) for the canonical Tomcatv-style
/// block — cheap and catches boundary bugs deterministically.
#[test]
fn exhaustive_small_grid() {
    let (program, region) = build_random_scan(10, 0, Some(3), true).unwrap();
    let compiled = compile(&program).unwrap();
    let nest = compiled.nest(0);
    let mut reference = init_store(&program, 7);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);
    let params = cray_t3e();
    for p in 1..=12 {
        for b in 1..=10 {
            let mut thr = init_store(&program, 7);
            Session::new(&program, nest)
                .procs(p)
                .block(BlockPolicy::Fixed(b))
                .machine(params)
                .store(&mut thr)
                .run(EngineKind::Threads)
                .unwrap();
            for id in 0..reference.len() {
                assert!(
                    reference.get(id).region_eq(thr.get(id), region),
                    "threaded mismatch at p={p} b={b} array {id}"
                );
            }
        }
    }
}

/// The paper's Figure 3(d) and the two-buffer relaxation step, with
/// host-supplied sizes.
const FIG3_SOURCE: &str = include_str!("../programs/fig3.wf");
const RELAX_SOURCE: &str = include_str!("../programs/relax.wf");

/// A line is a one-axis mesh: on every program, `mesh([p, 1])` is
/// `line(p)` and `mesh([1, p])` — where the nest has a second
/// decomposable wavefront dimension to put it on — is the line along
/// that dimension. Same plan (block, tiles), same messages, predicted
/// elements equal to observed ones, DES makespan equal to the bit, and
/// bit-identical stores, on every engine and kernel tier. Fig3,
/// Tomcatv and the relaxation have one wavefront dimension, which a
/// mesh plan used to refuse outright.
#[test]
fn a_line_is_a_one_axis_mesh() {
    let n = 18;
    let programs: Vec<(&str, Lowered<2>)> = vec![
        ("fig3", compile_str::<2>(FIG3_SOURCE, &[("n", n)], Layout::ColMajor).unwrap()),
        ("tomcatv", tomcatv::build(n).unwrap()),
        ("sor", sor::build(n).unwrap()),
        ("smith_waterman", smith_waterman::build(n, n).unwrap()),
        ("relax", compile_str::<2>(RELAX_SOURCE, &[("n", n)], Layout::RowMajor).unwrap()),
    ];
    let params = cray_t3e();
    let policy = BlockPolicy::Fixed(4);
    for (name, lo) in &programs {
        let compiled = compile(&lo.program).unwrap();
        let nest = compiled
            .nests()
            .find(|nest| nest.is_scan)
            .unwrap_or_else(|| compiled.nest(0));
        let mut reference = init_store(&lo.program, 11);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        let run = |topology: JobTopology, kind: EngineKind, mode: KernelMode| {
            let mut store = init_store(&lo.program, 11);
            let mut trace = TraceCollector::default();
            let mut session = Session::new(&lo.program, nest)
                .block(policy.clone())
                .machine(params)
                .kernel_mode(mode)
                .collector(&mut trace)
                .store(&mut store);
            session = match topology {
                JobTopology::Line { procs, dist_dim: None } => session.procs(procs),
                JobTopology::Line { procs, dist_dim: Some(d) } => session.procs(procs).dist_dim(d),
                JobTopology::Mesh { mesh, .. } => session.mesh(mesh),
            };
            let out: RunOutcome = session.run(kind).unwrap();
            let report = trace.report();
            assert_eq!(
                report.elements, report.meta.predicted.elements,
                "{name} {topology:?} {kind:?}: observed elements differ from predicted"
            );
            (out, report.elements, store)
        };

        let mut mesh_1p_planned = 0;
        for p in 1..=4usize {
            let mut pairs = vec![(JobTopology::line(p), JobTopology::mesh([p, 1]))];
            let mesh_1p = JobTopology::mesh([1, p]);
            if let Ok(plan) = WavefrontPlan::build(nest, mesh_1p, &policy, &params) {
                let line = JobTopology::Line {
                    procs: p,
                    dist_dim: Some(plan.axes[0].dim),
                };
                pairs.push((line, mesh_1p));
                mesh_1p_planned += 1;
            }
            for (line, mesh) in pairs {
                let ctx = format!("{name} {line:?} vs {mesh:?}");
                assert_eq!(
                    WavefrontPlan::build(nest, line, &policy, &params).unwrap(),
                    WavefrontPlan::build(nest, mesh, &policy, &params).unwrap(),
                    "{ctx}: plans differ"
                );
                let (a, _, _) = run(line, EngineKind::Sim, KernelMode::Lanes);
                let (b, _, _) = run(mesh, EngineKind::Sim, KernelMode::Lanes);
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{ctx}: DES makespan");
                assert_eq!(a.messages, b.messages, "{ctx}: DES messages");
                let sim_messages = a.messages;
                for kind in [EngineKind::Seq, EngineKind::Threads] {
                    for mode in [KernelMode::Interpreted, KernelMode::Scalar, KernelMode::Lanes] {
                        let ctx = format!("{ctx} {kind:?} {mode:?}");
                        let (a, a_elems, a_store) = run(line, kind, mode);
                        let (b, b_elems, b_store) = run(mesh, kind, mode);
                        assert_eq!(
                            (a.block, a.tiles, a.messages, a_elems),
                            (b.block, b.tiles, b.messages, b_elems),
                            "{ctx}: block / tiles / messages / elements"
                        );
                        if kind == EngineKind::Threads {
                            assert_eq!(a.messages, sim_messages, "{ctx}: threads vs DES messages");
                        }
                        for id in 0..reference.len() {
                            for (side, store) in [("line", &a_store), ("mesh", &b_store)] {
                                let whole = reference.get(id).bounds();
                                assert!(
                                    reference.get(id).region_eq(store.get(id), whole),
                                    "{ctx}: {side} array {id} differs from the reference"
                                );
                            }
                        }
                    }
                }
            }
        }
        // SOR and Smith-Waterman sweep along both dimensions; the other
        // three have nowhere to put a second axis of more than one
        // processor (p = 1 distributes nothing and always plans).
        let two_dims = matches!(*name, "sor" | "smith_waterman");
        assert_eq!(mesh_1p_planned, if two_dims { 4 } else { 1 }, "{name}");
    }
}

/// The scan nest `find(is_scan)` picks, as every benchmark workload does.
fn scan_nest(lo: &Lowered<2>) -> CompiledNest<2> {
    let compiled = compile(&lo.program).unwrap();
    let nest = compiled.nests().find(|nest| nest.is_scan).unwrap().clone();
    nest
}

/// Whether every array of `a` equals `b`'s bit for bit.
fn bits_eq(a: &Store<2>, b: &Store<2>) -> bool {
    (0..a.len()).all(|id| {
        let (x, y) = (a.get(id).as_slice(), b.get(id).as_slice());
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

/// Run `nest` of `lo` on `kind` from seed 5, returning the outcome, its
/// trace report and the store.
fn run_traced(
    lo: &Lowered<2>,
    nest: &CompiledNest<2>,
    topology: JobTopology,
    policy: &BlockPolicy,
    mode: KernelMode,
    kind: EngineKind,
) -> (RunOutcome, wavefront::pipeline::ExecutionReport, Store<2>) {
    let mut store = init_store(&lo.program, 5);
    let mut trace = TraceCollector::default();
    let session = Session::new(&lo.program, nest)
        .block(policy.clone())
        .machine(cray_t3e())
        .kernel_mode(mode)
        .collector(&mut trace)
        .store(&mut store);
    let session = match topology {
        JobTopology::Mesh { mesh, .. } => session.mesh(mesh),
        JobTopology::Line { procs, .. } => session.procs(procs),
    };
    let out = session.run(kind).unwrap();
    (out, trace.report(), store)
}

/// Model2 picks b = 6 for Tomcatv's forward nest at n = 64 on two
/// processors, and the tile dimension is the lane kernel's axis: Seq and
/// Threads run b = 8, the simulator and `estimate` keep the model's 6,
/// and the stores stay bit-identical to the interpreter on every tier.
/// The trace's observed traffic is the fitted plan's prediction.
#[test]
fn executing_engines_fit_a_models_b_to_the_lane_strip() {
    let lo = tomcatv::build(64).unwrap();
    let nest = scan_nest(&lo);
    let mut reference = init_store(&lo.program, 5);
    run_nest_with_sink(&nest, &mut reference, &mut NoSink);
    let model2 = BlockPolicy::Model2;
    for topology in [JobTopology::line(2), JobTopology::mesh([2, 1])] {
        let session = || {
            let s = Session::new(&lo.program, &nest).machine(cray_t3e());
            match topology {
                JobTopology::Mesh { mesh, .. } => s.mesh(mesh),
                JobTopology::Line { procs, .. } => s.procs(procs),
            }
        };
        let model = WavefrontPlan::build(&nest, topology, &model2, &cray_t3e()).unwrap();
        assert_eq!(model.block, 6, "{topology:?}");
        assert_eq!(session().estimate().block, Some(6), "{topology:?}");
        assert_eq!(session().run(EngineKind::Sim).unwrap().block, 6, "{topology:?}");
        let fitted = session().plan().unwrap();
        assert_eq!(fitted.block, 8, "{topology:?}: Session::plan is the plan that runs");
        assert_ne!(fitted.predicted_traffic(), model.predicted_traffic());

        for kind in [EngineKind::Seq, EngineKind::Threads] {
            for mode in [KernelMode::Lanes, KernelMode::Scalar, KernelMode::Interpreted] {
                let ctx = format!("{topology:?} {kind:?} {mode:?}");
                let (out, report, store) = run_traced(&lo, &nest, topology, &model2, mode, kind);
                let want = if mode == KernelMode::Lanes { 8 } else { 6 };
                assert_eq!((out.block, report.meta.block), (want, want), "{ctx}");
                assert!(bits_eq(&store, &reference), "{ctx}: store differs from the interpreter");
                if kind == EngineKind::Threads {
                    assert_eq!(report.messages, report.meta.predicted.messages, "{ctx}");
                    assert_eq!(report.elements, report.meta.predicted.elements, "{ctx}");
                    if mode == KernelMode::Lanes {
                        assert_eq!(report.meta.predicted, fitted.predicted_traffic(), "{ctx}");
                    }
                }
            }
        }
    }
}

/// A programmer's b, a runner without a lane strip, a wavefront-lane
/// nest and a lane axis shorter than the strip all keep the plan's b on
/// every engine.
#[test]
fn the_fit_leaves_every_other_plan_alone() {
    let engines = [EngineKind::Sim, EngineKind::Seq, EngineKind::Threads];
    let blocks = |lo: &Lowered<2>, nest: &CompiledNest<2>, policy: &BlockPolicy, mode| {
        engines.map(|kind| run_traced(lo, nest, JobTopology::line(2), policy, mode, kind).0.block)
    };
    let tomcatv = tomcatv::build(64).unwrap();
    let nest = scan_nest(&tomcatv);
    for (policy, mode, b) in [
        (BlockPolicy::Fixed(6), KernelMode::Lanes, 6),
        (BlockPolicy::FullPortion, KernelMode::Lanes, 62),
        (BlockPolicy::Model2, KernelMode::Scalar, 6),
        (BlockPolicy::Model2, KernelMode::Interpreted, 6),
    ] {
        assert_eq!(blocks(&tomcatv, &nest, &policy, mode), [b; 3], "{policy:?} {mode:?}");
    }

    // SOR's lanes run along the wavefront diagonal, not the tile axis.
    let sor = sor::build(64).unwrap();
    let nest = scan_nest(&sor);
    assert!(matches!(
        NestRunner::auto(&nest).lane_plan().map(|p| p.shape),
        Some(LaneShape::Wavefront { .. })
    ));
    assert_eq!(blocks(&sor, &nest, &BlockPolicy::Model2, KernelMode::Lanes), [6; 3]);

    // Figure 3(d) on six columns: the lane axis is the tile dimension,
    // but shorter than the strip.
    let narrow = compile_str::<2>(
        "var a : [1..40, 1..6] float; direction north = (-1, 0);
         [2..40, 1..6] a := 2.0 * a'@north;",
        &[],
        Layout::ColMajor,
    )
    .unwrap();
    let nest = scan_nest(&narrow);
    let plan = WavefrontPlan::build(&nest, JobTopology::line(2), &BlockPolicy::Model2, &cray_t3e())
        .unwrap();
    assert_eq!(plan.tile_dim, Some(1));
    assert_eq!(
        NestRunner::auto(&nest).lane_plan().map(|p| p.shape),
        Some(LaneShape::Axis { dim: 1 })
    );
    let b = plan.block;
    assert_eq!(blocks(&narrow, &nest, &BlockPolicy::Model2, KernelMode::Lanes), [b; 3]);
}
