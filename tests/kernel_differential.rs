//! Differential fuzzing of the compiled tile kernels: for random legal
//! scan programs, every kernel tier — the scalar tape and the
//! lane-parallel tape — must be **bit-identical** to the reference
//! expression interpreter — standalone, on the sequential engine, on
//! the threaded engine, and on the 2-D mesh engines — and nests the
//! lowering refuses must still execute correctly through the
//! transparent fallback chain (lanes → scalar → interpreter).
//!
//! Sampled deterministically with the crate's own [`SplitMix64`] (the
//! build is fully offline, so no property-testing dependency): every run
//! exercises the same case set, and any failure message pins the exact
//! configuration for replay.

use wavefront::core::kernel::{
    FallbackReason, KernelMode, KernelTier, LaneCause, NestRunner, TileKernel,
};
use wavefront::core::prelude::*;
use wavefront::kernels::rng::SplitMix64;
use wavefront::kernels::{smith_waterman, sor, sweep3d, tomcatv};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{BlockPolicy, EngineKind, Session, Session2D};

/// Primed directions that keep a single-assignment scan legal.
const PRIMED: [[i64; 2]; 5] = [[-1, 0], [-1, -1], [-1, 1], [-2, 0], [-1, -2]];
/// Free shifts for the read-only array (any direction is legal).
const FREE: [[i64; 2]; 6] = [[0, 0], [1, 0], [0, -1], [-1, 1], [2, 2], [-2, 0]];

/// A random expression tree over `a` (the written array, primed reads
/// only) and `b` (read-only, arbitrary shifts). Every operator the
/// lowering supports can appear, including coordinates.
fn random_expr(rng: &mut SplitMix64, a: usize, b: usize, depth: usize) -> Expr<2> {
    if depth == 0 || rng.gen_range(5) == 0 {
        return match rng.gen_range(4) {
            0 => Expr::lit(0.25 + rng.gen_range(8) as f64 * 0.5),
            1 => Expr::read_primed_at(a, PRIMED[rng.gen_range(PRIMED.len())]),
            2 => Expr::read_at(b, FREE[rng.gen_range(FREE.len())]),
            _ => Expr::IndexVar(rng.gen_range(2)),
        };
    }
    let lhs = random_expr(rng, a, b, depth - 1);
    match rng.gen_range(8) {
        0 => -lhs,
        // Keep radicands non-negative: sqrt of a negative is NaN, and
        // NaN sign/payload propagation through mul/min/max is not
        // IEEE-specified — a bit comparison would then pin the
        // compiler's operand ordering, not kernel correctness.
        1 => (lhs.clone() * lhs).sqrt(),
        2 => lhs + random_expr(rng, a, b, depth - 1),
        3 => lhs - random_expr(rng, a, b, depth - 1),
        4 => lhs * random_expr(rng, a, b, depth - 1),
        5 => lhs.min(random_expr(rng, a, b, depth - 1)),
        6 => lhs.max(random_expr(rng, a, b, depth - 1)),
        // Keep quotients tame: x² + 1 never crosses zero.
        _ => {
            let d = random_expr(rng, a, b, depth - 1);
            lhs / (d.clone() * d + Expr::lit(1.0))
        }
    }
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

/// Random programs: the kernel must compile (no snapshots, small tapes)
/// and be bit-identical to the interpreter standalone and on both real
/// engines, at random processor counts and block sizes.
#[test]
fn kernel_is_bit_identical_to_interpreter() {
    let mut rng = SplitMix64::new(0x7E_A9E5);
    let mut compiled_cases = 0usize;
    let mut lane_cases = 0usize;
    for case in 0..64 {
        let n = 8 + rng.gen_range(12) as i64;
        let layout = if rng.next_u64() & 1 == 0 {
            Layout::RowMajor
        } else {
            Layout::ColMajor
        };
        let depth = 1 + rng.gen_range(4);
        let p = 1 + rng.gen_range(4);
        let blk = 1 + rng.gen_range(9);
        let seed = rng.next_u64();

        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let mut prog = Program::<2>::new();
        let a = prog.array_with_layout("a", bounds, layout);
        let b = prog.array_with_layout("b", bounds, layout);
        let rhs =
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + random_expr(&mut rng, a, b, depth);
        let region = Region::rect([2, 2], [n - 1, n - 1]);
        prog.stmt(region, a, rhs);

        let compiled = match compile(&prog) {
            Ok(c) => c,
            Err(Error::OverConstrained { .. }) => continue,
            Err(e) => panic!("case {case}: unexpected legality error: {e}"),
        };
        let nest = compiled.nest(0);

        // Reference: the expression interpreter over the whole nest.
        let mut reference = init_store(&prog, seed);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        // Standalone kernel over the whole nest.
        let runner = NestRunner::auto(nest);
        assert!(
            runner.is_compiled(),
            "case {case}: expected a fast-path kernel, got {:?}",
            runner.fallback()
        );
        compiled_cases += 1;
        if runner.tier() == KernelTier::Lanes {
            lane_cases += 1;
        }
        let mut kern = init_store(&prog, seed);
        let bound = runner.bind(&kern, &nest.structure.order);
        runner.run_tile(
            nest,
            bound.as_ref(),
            nest.region,
            &nest.structure.order,
            &mut kern,
        );

        // The scalar tape standalone (the lane tier's own fallback).
        let scalar_runner = NestRunner::with_mode(nest, KernelMode::Scalar);
        assert_eq!(scalar_runner.tier(), KernelTier::Scalar, "case {case}");
        let mut scal = init_store(&prog, seed);
        let sbound = scalar_runner.bind(&scal, &nest.structure.order);
        scalar_runner.run_tile(
            nest,
            sbound.as_ref(),
            nest.region,
            &nest.structure.order,
            &mut scal,
        );

        let mut seq = init_store(&prog, seed);
        Session::new(&prog, nest)
            .procs(p)
            .block(BlockPolicy::Fixed(blk))
            .machine(cray_t3e())
            .store(&mut seq)
            .run(EngineKind::Seq)
            .unwrap();
        let mut thr = init_store(&prog, seed);
        Session::new(&prog, nest)
            .procs(p)
            .block(BlockPolicy::Fixed(blk))
            .machine(cray_t3e())
            .store(&mut thr)
            .run(EngineKind::Threads)
            .unwrap();

        for id in 0..reference.len() {
            for (what, store) in [
                ("kernel", &kern),
                ("scalar", &scal),
                ("seq", &seq),
                ("threads", &thr),
            ] {
                assert!(
                    reference.get(id).region_eq(store.get(id), region),
                    "case {case}: {what} array {id} differs \
                     (n={n} depth={depth} p={p} b={blk} {layout:?})"
                );
            }
        }
    }
    // The generator must actually exercise the fast path, not skip
    // everything through legality rejections.
    assert!(compiled_cases >= 48, "only {compiled_cases} cases compiled");
    // The generator must also reach the lane tier often, not sit on the
    // scalar fallback.
    assert!(lane_cases >= 32, "only {lane_cases} cases reached lanes");
}

/// Lane blocking must survive every remainder width: sweep extents that
/// leave 0..LANES-1 leftover points after the 8-wide blocks, on both an
/// axis-laned nest (fig3's shape) and a wavefront-laned nest (SOR's
/// five-point stencil), at every kernel tier.
#[test]
fn lane_remainders_are_bit_identical() {
    for n in 9i64..=18 {
        let bounds = Region::rect([0, 0], [n + 1, n + 1]);

        // Axis lanes: the only dependence is along dim 0, so dim 1 is
        // lane-free and its extent (n - 2) walks through every residue
        // mod 8 as n varies.
        let mut axis = Program::<2>::new();
        let a = axis.array("a", bounds);
        axis.stmt(
            Region::rect([2, 2], [n - 1, n - 1]),
            a,
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + Expr::IndexVar(1),
        );

        // Wavefront lanes: both dimensions carry, so lanes run along
        // anti-diagonal segments whose lengths sweep 1..extent.
        let mut wave = Program::<2>::new();
        let w = wave.array("a", bounds);
        wave.stmt(
            Region::rect([2, 2], [n - 1, n - 1]),
            w,
            Expr::lit(0.3) * Expr::read_primed_at(w, [-1, 0])
                + Expr::lit(0.3) * Expr::read_primed_at(w, [0, -1])
                + Expr::read_at(w, [1, 1]),
        );

        for (what, prog) in [("axis", &axis), ("wave", &wave)] {
            let compiled = compile(prog).unwrap();
            let nest = compiled.nest(0);
            let runner = NestRunner::auto(nest);
            assert_eq!(runner.tier(), KernelTier::Lanes, "{what} n={n}");

            let mut reference = init_store(prog, n as u64);
            run_nest_with_sink(nest, &mut reference, &mut NoSink);

            for mode in [KernelMode::Scalar, KernelMode::Lanes] {
                let r = NestRunner::with_mode(nest, mode);
                let mut got = init_store(prog, n as u64);
                let bound = r.bind(&got, &nest.structure.order);
                r.run_tile(
                    nest,
                    bound.as_ref(),
                    nest.region,
                    &nest.structure.order,
                    &mut got,
                );
                let (a_ref, a_got) = (reference.get(0), got.get(0));
                for p in nest.region.iter() {
                    assert_eq!(
                        a_ref.get(p).to_bits(),
                        a_got.get(p).to_bits(),
                        "{what} n={n} {mode:?} at {p}"
                    );
                }
            }
        }
    }
}

/// A tape too wide for the lane register file must fall back to the
/// scalar tier — reported as `LaneUnsupported(WideTape)` — and still
/// match the interpreter bit for bit on every engine.
#[test]
fn wide_tape_forces_scalar_tier_and_still_matches() {
    fn left_held(depth: usize, a: usize) -> Expr<2> {
        if depth == 0 {
            Expr::read_primed_at(a, [-1, 0])
        } else {
            (Expr::read_primed_at(a, [-1, 0]) + Expr::lit(1.0)).min(left_held(depth - 1, a))
        }
    }
    let n = 14i64;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let a = prog.array("a", bounds);
    let region = Region::rect([2, 2], [n - 1, n - 1]);
    prog.stmt(
        region,
        a,
        left_held(wavefront::core::kernel_lanes::MAX_LANE_REGS + 2, a),
    );

    let compiled = compile(&prog).unwrap();
    let nest = compiled.nest(0);
    let runner = NestRunner::auto(nest);
    assert_eq!(runner.tier(), KernelTier::Scalar);
    assert_eq!(
        runner.fallback(),
        Some(FallbackReason::LaneUnsupported(LaneCause::WideTape))
    );

    let mut reference = init_store(&prog, 23);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);

    let mut direct = init_store(&prog, 23);
    let bound = runner.bind(&direct, &nest.structure.order);
    runner.run_tile(nest, bound.as_ref(), region, &nest.structure.order, &mut direct);
    assert!(reference.get(0).region_eq(direct.get(0), region), "direct");

    for kind in [EngineKind::Seq, EngineKind::Threads] {
        let mut got = init_store(&prog, 23);
        let out = Session::new(&prog, nest)
            .procs(3)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .store(&mut got)
            .run(kind)
            .unwrap();
        assert_eq!(out.kernel_tier, Some(KernelTier::Scalar), "{kind:?}");
        assert_eq!(
            out.kernel_fallback,
            Some(FallbackReason::LaneUnsupported(LaneCause::WideTape)),
            "{kind:?}"
        );
        assert!(
            reference.get(0).region_eq(got.get(0), region),
            "{kind:?} differs"
        );
    }
}

/// The 2-D mesh engines at every kernel tier: a 3-D sweep decomposed
/// over a processor mesh must agree with the interpreter bit for bit
/// whether nests run interpreted, on the scalar tape, or lane-parallel.
#[test]
fn mesh_engines_bit_identical_across_tiers() {
    let n = 11i64;
    let bounds = Region::rect([0, 0, 0], [n + 1, n + 1, 6]);
    let cells = Region::rect([2, 2, 1], [n - 1, n - 1, 5]);
    let mut prog = Program::<3>::new();
    let a = prog.array("a", bounds);
    let src = prog.array("s", bounds);
    prog.scan(
        cells,
        vec![Statement::new(
            a,
            Expr::read(src)
                + Expr::lit(0.4) * Expr::read_primed_at(a, [-1, 0, 0])
                + Expr::lit(0.3) * Expr::read_primed_at(a, [0, -1, 0]),
        )],
    );

    let init = |seed: u64| {
        let mut store = Store::new(&prog);
        for id in 0..store.len() {
            let b = store.get(id).bounds();
            *store.get_mut(id) = DenseArray::from_fn(b, |q| {
                let h = (q[0] as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((q[1] as u64).wrapping_mul(seed | 1))
                    .wrapping_add(q[2] as u64 * 77 + id as u64);
                (h % 997) as f64 / 997.0
            });
        }
        store
    };

    let compiled = compile(&prog).unwrap();
    let nest = compiled.nest(0);
    assert_eq!(NestRunner::auto(nest).tier(), KernelTier::Lanes);

    let mut reference = init(5);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);

    for mode in [KernelMode::Interpreted, KernelMode::Scalar, KernelMode::Lanes] {
        for kind in [EngineKind::Seq, EngineKind::Threads] {
            let mut got = init(5);
            Session2D::new(&prog, nest)
                .mesh([2, 2])
                .block(BlockPolicy::Fixed(3))
                .machine(cray_t3e())
                .kernel_mode(mode)
                .store(&mut got)
                .run(kind)
                .unwrap();
            assert!(
                reference.get(a).region_eq(got.get(a), cells),
                "{mode:?} {kind:?} differs"
            );
        }
    }
}

/// Nests the lowering refuses (snapshot semantics, register pressure)
/// still execute — transparently, on the interpreter — and match the
/// reference on every engine.
#[test]
fn fallback_nests_still_run_on_every_engine() {
    // Buffered: unprimed reads in both directions force the
    // array-semantics snapshot, which the tape does not model. Such
    // nests are plain (not scans), so they never see a wavefront plan —
    // the runner itself must fall back.
    let n = 12i64;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut buffered = Program::<2>::new();
    let a = buffered.array("a", bounds);
    buffered.stmt(
        Region::rect([2, 2], [n - 1, n - 1]),
        a,
        Expr::read_at(a, [-1, 0]) + Expr::read_at(a, [1, 0]),
    );

    // Register pressure: every level holds a computed left operand while
    // the right subtree evaluates.
    fn left_held(depth: usize, a: usize) -> Expr<2> {
        if depth == 0 {
            Expr::read_primed_at(a, [-1, 0])
        } else {
            (Expr::read_primed_at(a, [-1, 0]) + Expr::lit(1.0)).min(left_held(depth - 1, a))
        }
    }
    let mut pressured = Program::<2>::new();
    let pa = pressured.array("a", bounds);
    pressured.stmt(
        Region::rect([2, 2], [n - 1, n - 1]),
        pa,
        left_held(wavefront::core::kernel::MAX_REGS + 2, pa),
    );

    for (what, prog, reason) in [
        ("buffered", &buffered, FallbackReason::Buffered),
        ("pressure", &pressured, FallbackReason::RegisterPressure),
    ] {
        let compiled = compile(prog).unwrap();
        let nest = compiled.nest(0);
        assert_eq!(TileKernel::compile(nest).unwrap_err(), reason, "{what}");
        let runner = NestRunner::auto(nest);
        assert!(!runner.is_compiled(), "{what}");
        assert_eq!(runner.fallback(), Some(reason), "{what}");

        let mut reference = init_store(prog, 11);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);
        let region = nest.region;

        // The runner's own dispatch must route the tile to the
        // interpreter and match the reference.
        let mut direct = init_store(prog, 11);
        assert!(
            runner.bind(&direct, &nest.structure.order).is_none(),
            "{what}"
        );
        runner.run_tile(nest, None, region, &nest.structure.order, &mut direct);
        assert!(
            reference.get(0).region_eq(direct.get(0), region),
            "{what}: run_tile differs"
        );

        // Buffered nests are plain (no wavefront dimension), so only
        // scans can go through the pipelined engines.
        if nest.is_scan {
            let mut seq = init_store(prog, 11);
            Session::new(prog, nest)
                .procs(3)
                .block(BlockPolicy::Fixed(4))
                .machine(cray_t3e())
                .store(&mut seq)
                .run(EngineKind::Seq)
                .unwrap();
            assert!(
                reference.get(0).region_eq(seq.get(0), region),
                "{what}: seq differs"
            );
            let mut thr = init_store(prog, 11);
            Session::new(prog, nest)
                .procs(3)
                .block(BlockPolicy::Fixed(4))
                .machine(cray_t3e())
                .store(&mut thr)
                .run(EngineKind::Threads)
                .unwrap();
            assert!(
                reference.get(0).region_eq(thr.get(0), region),
                "{what}: threads differs"
            );
        } else {
            assert_eq!(what, "buffered");
        }
    }
}

/// A lowering refused for a reason no flag asks for — the Tomcatv-like
/// scan with its temporary `r` contracted to a scalar — runs on the
/// interpreter, in place on the shared store: a line of three and a 2x2
/// mesh are bit-identical to Seq and say which tier ran and why.
#[test]
fn a_contracted_nest_runs_in_place_on_the_interpreter() {
    let n = 12i64;
    let bounds = Region::rect([0, 0, 0], [n, n, 4]);
    let mut prog = Program::<3>::new();
    let r = prog.array("r", bounds);
    let aa = prog.array("aa", bounds);
    let d = prog.array("d", bounds);
    prog.scan(
        Region::rect([1, 1, 0], [n, n, 4]),
        vec![
            Statement::new(r, Expr::read(aa) * Expr::read_primed_at(d, [-1, 0, 0])),
            Statement::new(
                d,
                Expr::read(aa) - Expr::read(r) + Expr::lit(0.5) * Expr::read_primed_at(d, [0, -1, 0]),
            ),
        ],
    );
    let compiled = wavefront::core::contract::compile_contracted(&prog, &[]).unwrap();
    let nest = compiled.nest(0);
    assert_eq!(nest.contracted, vec![r]);
    assert_eq!(
        TileKernel::compile(nest).unwrap_err(),
        FallbackReason::Contracted
    );

    let init = || {
        let mut store = Store::new(&prog);
        for id in 0..store.len() {
            *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
                1.0 + 0.01 * ((q[0] * 7 + q[1] * 3 + q[2] + id as i64) % 13) as f64
            });
        }
        store
    };
    let mut reference = init();
    run_nest_with_sink(nest, &mut reference, &mut NoSink);

    for kind in [EngineKind::Seq, EngineKind::Threads] {
        let mut line = init();
        let on_line = Session::new(&prog, nest)
            .procs(3)
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .store(&mut line)
            .run(kind)
            .unwrap();
        let mut mesh = init();
        let on_mesh = Session2D::new(&prog, nest)
            .mesh([2, 2])
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .store(&mut mesh)
            .run(kind)
            .unwrap();
        for (what, out, got) in [("line", on_line, line), ("mesh", on_mesh, mesh)] {
            assert_eq!(out.kernel_tier, Some(KernelTier::Interpreted), "{kind:?} {what}");
            assert_eq!(
                out.kernel_fallback,
                Some(FallbackReason::Contracted),
                "{kind:?} {what}"
            );
            for id in [r, aa, d] {
                assert!(
                    reference.get(id).region_eq(got.get(id), bounds),
                    "{kind:?} {what}: array {id} differs"
                );
            }
        }
    }
}

/// The acceptance gate: every nest of all five benchmark programs
/// lowers all the way to the lane-parallel tier — no silent fallback to
/// the scalar tape or the interpreter.
#[test]
fn all_five_benchmarks_hit_the_fast_path() {
    let sor_lo = sor::build(24).unwrap();
    let tom_lo = tomcatv::build(24).unwrap();
    let sw_lo = smith_waterman::build(24, 20).unwrap();
    let sw3_lo = sweep3d::build_octant(8, [-1, -1, -1]).unwrap();

    // fig3 is inline (the paper's `[2..n,1..n] a := 2 * a'@north`).
    let mut fig3 = Program::<2>::new();
    let bounds = Region::rect([1, 1], [16, 16]);
    let a = fig3.array_with_layout("a", bounds, Layout::ColMajor);
    fig3.stmt(
        Region::rect([2, 1], [16, 16]),
        a,
        Expr::lit(2.0) * Expr::read_primed_at(a, [-1, 0]),
    );

    fn assert_fastpath<const R: usize>(name: &str, prog: &Program<R>) {
        let compiled = compile(prog).unwrap();
        for (i, nest) in compiled.nests().enumerate() {
            match TileKernel::compile(nest) {
                Ok(k) => assert!(k.instr_count() > 0, "{name} nest {i}: empty tape"),
                Err(r) => panic!("{name} nest {i}: fell back to the interpreter ({r})"),
            }
            let runner = NestRunner::auto(nest);
            assert_eq!(
                runner.tier(),
                KernelTier::Lanes,
                "{name} nest {i}: stopped below the lane tier ({:?})",
                runner.fallback()
            );
        }
    }
    assert_fastpath("fig3", &fig3);
    assert_fastpath("sor", &sor_lo.program);
    assert_fastpath("tomcatv", &tom_lo.program);
    assert_fastpath("smith_waterman", &sw_lo.program);
    assert_fastpath("sweep3d", &sw3_lo.program);
}

/// [`init_store`]'s values, written in place, so every array keeps the
/// layout its program declares.
fn init_in_layout(p: &Program<2>, seed: u64) -> Store<2> {
    let values = init_store(p, seed);
    let mut store = Store::new(p);
    for id in 0..store.len() {
        let a = store.get_mut(id);
        for q in a.bounds().iter() {
            a.set(q, values.get(id).get(q));
        }
    }
    store
}

/// A store of a program's arrays, filled from a seed.
type Init = fn(&Program<2>, u64) -> Store<2>;

/// Run `prog`'s one nest on the lane tier standalone, then on Seq and
/// Threads over two and three processors under `Fixed(b)` for every `b`
/// in `blocks`, each from the store `init` fills: every array must
/// match the interpreter bit for bit, and the runner must report the
/// lane `stride` class.
fn lanes_match_interpreter(
    what: &str,
    prog: &Program<2>,
    init: Init,
    stride: &str,
    blocks: std::ops::RangeInclusive<usize>,
) {
    let compiled = compile(prog).unwrap();
    let nest = compiled.nest(0);
    let runner = NestRunner::auto(nest);
    assert_eq!(runner.tier(), KernelTier::Lanes, "{what}");

    let mut reference = init(prog, 7);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);
    let same = |got: &Store<2>, how: &str| {
        for id in 0..reference.len() {
            let r = reference.get(id);
            assert_eq!(r.layout(), got.get(id).layout(), "{what}: {how} array {id}");
            assert!(
                r.region_eq(got.get(id), r.bounds()),
                "{what}: {how} array {id} differs"
            );
        }
    };

    let mut direct = init(prog, 7);
    let shapes: Vec<(Region<2>, Layout)> = direct
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    let order = &nest.structure.order;
    assert_eq!(runner.lane_stride(&shapes, order), Some(stride), "{what}");
    let bound = runner.bind(&direct, order);
    runner.run_tile(
        nest,
        bound.as_ref(),
        nest.region,
        &nest.structure.order,
        &mut direct,
    );
    same(&direct, "standalone");

    for b in blocks {
        for p in [2, 3] {
            for kind in [EngineKind::Seq, EngineKind::Threads] {
                let mut got = init(prog, 7);
                Session::new(prog, nest)
                    .procs(p)
                    .block(BlockPolicy::Fixed(b))
                    .machine(cray_t3e())
                    .store(&mut got)
                    .run(kind)
                    .unwrap();
                same(&got, &format!("{kind:?} p={p} b={b}"));
            }
        }
    }
}

/// One lane block over a row-major and a column-major array: lanes run
/// along dim 1, unit-stride in one array and strided in the other, so a
/// block moves some slots as slices and gathers the rest lane by lane.
/// Both ways round: the written array unit-stride, then strided.
#[test]
fn mixed_stride_lane_blocks_are_bit_identical() {
    let n = 21i64;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    for (wl, rl) in [
        (Layout::RowMajor, Layout::ColMajor),
        (Layout::ColMajor, Layout::RowMajor),
    ] {
        let mut prog = Program::<2>::new();
        let a = prog.array_with_layout("a", bounds, wl);
        let b = prog.array_with_layout("b", bounds, rl);
        prog.stmt(
            Region::rect([2, 2], [n - 1, n - 1]),
            a,
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0])
                + Expr::read_at(b, [0, 1])
                + Expr::lit(0.25) * Expr::read(b)
                - Expr::read_at(a, [0, 0]) * Expr::lit(0.125),
        );
        lanes_match_interpreter(
            &format!("a {wl:?}, b {rl:?}"),
            &prog,
            init_in_layout,
            "strided",
            3..=9,
        );
    }
}

/// A unit-stride lane axis under every block size 1..=17, on Seq and
/// Threads: the tile slabs fall on and off the 8-point lane grid, with
/// scalar remainders of every width.
#[test]
fn unit_stride_lanes_under_every_block_size() {
    let n = 29i64;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let next = prog.array("next", bounds);
    let curr = prog.array("curr", bounds);
    prog.stmt(
        Region::rect([1, 1], [n, n]),
        next,
        Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
            + Expr::lit(0.4) * Expr::read(curr)
            + Expr::lit(0.1) * Expr::read_at(curr, [0, 1]),
    );
    lanes_match_interpreter("relax", &prog, init_in_layout, "unit", 1..=17);
}

/// Two statements chained at one point on unit-stride lanes: the second
/// reads, through a slice, the block the first just stored as one.
#[test]
fn same_point_chain_on_unit_stride_lanes() {
    let n = 19i64;
    let bounds = Region::rect([1, 1], [n, n]);
    let mut prog = Program::<2>::new();
    let r = prog.array("r", bounds);
    let aa = prog.array("aa", bounds);
    let d = prog.array("d", bounds);
    prog.scan(
        Region::rect([2, 1], [n, n]),
        vec![
            Statement::new(r, Expr::read(aa) * Expr::read_primed_at(d, [-1, 0])),
            Statement::new(
                d,
                (Expr::lit(2.0) - Expr::read_at(aa, [-1, 0]) * Expr::read(r)).recip(),
            ),
        ],
    );
    lanes_match_interpreter("chain", &prog, init_in_layout, "unit", 4..=9);
}

/// A nest with more cursors (39: 38 read slots and one write) than a
/// tile call keeps on the stack (32) spills its per-call tables to the
/// heap, on the lane strip and on its scalar remainder, and still
/// matches bit for bit.
#[test]
fn a_nest_past_the_stack_cursor_cap_still_matches() {
    let n = 21i64;
    let mut prog = Program::<2>::new();
    let a = prog.array("a", Region::rect([0, 0], [n + 1, n + 40]));
    let b = prog.array("b", Region::rect([0, 0], [n + 1, n + 40]));
    let mut rhs = Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]);
    for k in -18i64..=18 {
        rhs = rhs + Expr::lit(0.01 * (k + 19) as f64) * Expr::read_at(b, [0, k]);
    }
    prog.stmt(Region::rect([2, 20], [n - 1, n + 19]), a, rhs);
    lanes_match_interpreter("wide", &prog, init_in_layout, "unit", 5..=5);
}

/// Unit-stride row segments of 16 to 200 points, each one piece of the
/// up to 272 points this tape's four physical registers allow, cut as
/// the tile falls. Two statements chained at one point cover
/// every binary and unary operator and both coordinates, over a row
/// recurrence that ascends (`north`) and one that descends (`south`).
/// Standalone, the lane tier must match the interpreter and the scalar
/// tape bit for bit; then the engines, tiled one segment wide.
#[test]
fn wide_row_segments_are_bit_identical() {
    let rows = 6i64;
    for seg in [16i64, 56, 64, 72, 136, 200] {
        for (dir, up) in [("north", [-1, 0]), ("south", [1, 0])] {
            let bounds = Region::rect([0, 0], [rows + 1, seg + 1]);
            let mut prog = Program::<2>::new();
            let a = prog.array("a", bounds);
            let b = prog.array("b", bounds);
            let r = prog.array("r", bounds);
            let ln1p = |e: Expr<2>| (e.unary(UnaryOp::Abs) + Expr::lit(1.0)).unary(UnaryOp::Ln);
            let sin = (Expr::lit(0.5) * Expr::read_primed_at(a, up)).unary(UnaryOp::Sin);
            let pow = Expr::Binary(
                BinOp::Pow,
                Box::new(Expr::read(b) + Expr::lit(1.0)),
                Box::new(Expr::lit(0.5)),
            );
            prog.scan(
                Region::rect([1, 1], [rows, seg]),
                vec![
                    Statement::new(
                        r,
                        ln1p(Expr::read_at(b, [0, 1])) * Expr::IndexVar(1)
                            - sin.max(Expr::read(b).unary(UnaryOp::Cos))
                                / (Expr::IndexVar(0) + Expr::lit(2.0)),
                    ),
                    Statement::new(
                        a,
                        (-Expr::read(r)).min(pow)
                            + (Expr::lit(0.1) * Expr::read(b)).unary(UnaryOp::Exp)
                                * (Expr::read(r) * Expr::read(r) + Expr::lit(1.0)).recip()
                            + (Expr::read(r) * Expr::read(r)).sqrt()
                            + Expr::lit(0.5) * Expr::read_primed_at(a, up),
                    ),
                ],
            );
            let what = format!("{seg} points, {dir}");
            let nest = compile(&prog).unwrap().nest(0).clone();
            let piece = NestRunner::auto(&nest).wide_piece(&prog.shapes(), &nest.structure.order);
            assert_eq!(piece, Some(272), "{what}: four physical registers");
            let ascending = nest.structure.order.ascending[0];
            assert_eq!(ascending, dir == "north", "{what}");
            wide_segments_match(&what, &prog, init_in_layout, seg);
        }
    }
}

/// Run `prog`'s one nest, whose rows are `seg` points long, whole on the
/// scalar tape and on the lane tier, then on the engines tiled one
/// segment wide, each from the store `init` fills: every array must
/// match the interpreter bit for bit.
fn wide_segments_match(what: &str, prog: &Program<2>, init: Init, seg: i64) {
    let compiled = compile(prog).unwrap();
    let nest = compiled.nest(0);
    let order = &nest.structure.order;
    assert_eq!(order.order[1], 1, "{what}: the lane dimension is innermost");

    let mut reference = init(prog, 11);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);
    for mode in [KernelMode::Scalar, KernelMode::Lanes] {
        let runner = NestRunner::with_mode(nest, mode);
        let mut got = init(prog, 11);
        let bound = runner.bind(&got, order);
        runner.run_tile(nest, bound.as_ref(), nest.region, order, &mut got);
        for id in 0..reference.len() {
            let (x, y) = (reference.get(id), got.get(id));
            for p in x.bounds().iter() {
                assert_eq!(x.get(p).to_bits(), y.get(p).to_bits(), "{what} {mode:?} array {id} {p}");
            }
        }
    }
    lanes_match_interpreter(what, prog, init, "unit", seg as usize..=seg as usize);
}

/// The wide path reads `Read` and `Const` operands where they live and
/// writes each result into the register `fold` fixed for it: a tape
/// holding all 16 lane registers live (17 physical registers, the
/// whole file), next to another of 15 in the same piece; `Const` on
/// either side and on both; `x * x` as the same cells on both sides and as a
/// register beside `Prev`; empty tapes whose result is a `Read`, a
/// `Const` and a `Coord`; and a statement reading, at the same point,
/// the array the first one wrote.
#[test]
fn wide_operands_and_renamed_registers_are_bit_identical() {
    let rows = 5i64;
    // Each level holds its left operand in a register while the right
    // one is evaluated, so `depth` levels keep `depth` registers live.
    fn held(depth: usize, b: ArrayId) -> Expr<2> {
        let k = depth as i64;
        let scale = Expr::lit(0.25 + 0.125 * k as f64);
        let left = Expr::read_at(b, [0, k % 3]) * scale + Expr::lit(1.0);
        match depth {
            0 => Expr::read(b),
            _ if depth.is_multiple_of(2) => left.min(held(depth - 1, b)),
            _ => left - held(depth - 1, b),
        }
    }
    for seg in [16i64, 56, 64, 72, 136, 200] {
        let bounds = Region::rect([0, 0], [rows + 1, seg + 2]);
        let mut prog = Program::<2>::new();
        let names = ["a", "b", "c", "d", "e", "f", "g"];
        let [a, b, c, d, e, f, g] = names.map(|n| prog.array(n, bounds));
        let b1 = Expr::read(b) + Expr::lit(1.0);
        prog.scan(
            Region::rect([1, 1], [rows, seg]),
            vec![
                Statement::new(a, Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + held(15, b)),
                Statement::new(c, held(16, b) / (Expr::read(a) * Expr::read(a) + Expr::lit(1.0))),
                Statement::new(d, Expr::lit(2.0) - Expr::read(b)),
                Statement::new(e, Expr::read_at(b, [0, 1]) / Expr::lit(3.0)),
                Statement::new(f, Expr::lit(2.0) * Expr::lit(0.75) + b1.clone() * b1),
                Statement::new(g, Expr::read(a)),
                Statement::new(d, Expr::read(d) + Expr::lit(0.5)),
                Statement::new(e, Expr::lit(0.5)),
                Statement::new(f, Expr::IndexVar(1)),
            ],
        );
        let nest = compile(&prog).unwrap().nest(0).clone();
        let kernel = TileKernel::compile(&nest).unwrap();
        assert_eq!(kernel.reg_count(), 16, "every lane register is live");
        let piece = NestRunner::auto(&nest).wide_piece(&prog.shapes(), &nest.structure.order);
        assert_eq!(piece, Some(64), "17 physical registers: the whole file");
        wide_segments_match(&format!("{seg} points"), &prog, init_in_layout, seg);
    }
}

/// A NaN with a payload, the constant no fold may take.
const NAN_PAYLOAD: u64 = 0x7ff8_0000_0000_0bad;
/// The NaN x86 arithmetic makes (`inf − inf`, `0 · inf`): the one NaN
/// array `b` holds, so every NaN in `b`'s columns has these bits.
const NAN_DEFAULT: u64 = 0xfff8_0000_0000_0000;
/// Constants folded into their consumers: both zeros, both infinities,
/// two subnormals and two ordinary values.
const FOLDED: [f64; 8] = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -2.5e-310, 0.75, -1.5];

/// [`init_store`]'s values moved into `[0.25, 1.25)`, never zero, written
/// in place, then special values planted in the first three arrays, each
/// in its own columns so no two NaNs of different bits ever meet (IEEE
/// leaves open which one an operator returns): array 0 (`b`) takes
/// [`NAN_DEFAULT`], ±0, ±inf and a subnormal in columns 1 (mod 5);
/// array 1 (`c`) a NaN with a payload and subnormals in columns 3 (mod
/// 5); array 2 (`e`) ±0, ±inf and subnormals, no NaN, in columns 2 (mod
/// 5).
fn init_special(p: &Program<2>, seed: u64) -> Store<2> {
    let specials: [&[f64]; 3] = [
        &[f64::from_bits(NAN_DEFAULT), 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-310],
        &[f64::from_bits(0x7ff8_0000_0000_1234), 5e-324, -3e-320],
        &[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -1e-315],
    ];
    let mut store = init_in_layout(p, seed);
    for id in 0..store.len() {
        let a = store.get_mut(id);
        for q in a.bounds().iter() {
            let v = match specials.get(id) {
                Some(s) if q[1].rem_euclid(5) == [1, 3, 2][id] => {
                    s[(q[0] + q[1] / 5).rem_euclid(s.len() as i64) as usize]
                }
                _ => 0.25 + a.get(q),
            };
            a.set(q, v);
        }
    }
    store
}

/// A scan over `rows` rows of `seg` points, on arrays `b`, `c` and `e`:
/// a recurrence down the rows (one wide pass), then `d_i := rhs_i`, one
/// fresh destination each.
fn fresh_destinations(rows: i64, seg: i64, rhs: &[Expr<2>]) -> Program<2> {
    let bounds = Region::rect([0, 0], [rows + 1, seg + 1]);
    let mut prog = Program::<2>::new();
    for name in ["b", "c", "e"] {
        prog.array(name, bounds);
    }
    let w = prog.array("w", bounds);
    let down = Expr::lit(0.5) * Expr::read_primed_at(w, [-1, 0]) + Expr::lit(0.25) * Expr::read(0);
    let stmts = std::iter::once(Statement::new(w, down))
        .chain(
            rhs.iter()
                .enumerate()
                .map(|(i, e)| Statement::new(prog.array(format!("d{i}"), bounds), e.clone())),
        )
        .collect();
    prog.scan(Region::rect([1, 1], [rows, seg]), stmts);
    prog
}

/// The wide path deletes each `Const × Read` (either order, the constant
/// not NaN) and reads its `Read` scaled inside the consumer's loop, and
/// stores each statement's last instruction straight into the
/// destination's cells. Folded reads as the left, right and both
/// operands of every binary operator and under every unary one, `x * x`
/// from one folded read, folded tapes left empty, ±0, ±inf, subnormal
/// and NaN constants and inputs, the destination read folded at the
/// point it writes and at the row above, and a statement reading what
/// the one before wrote: against the interpreter and the scalar tape,
/// then on Seq and Threads over two and three cells, at segments of 16
/// to 200 points. A NaN constant stays unfolded: the wide path's pass
/// count says so.
#[test]
fn folded_reads_and_in_place_stores_are_bit_identical() {
    let rows = 5i64;
    let (b, c, e) = (|| Expr::read(0), || Expr::read(1), || Expr::read(2));
    let k = Expr::lit;
    let nan = || Expr::lit(f64::from_bits(NAN_PAYLOAD));
    let binops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Min, BinOp::Max, BinOp::Pow];
    let bin = |op, x: Expr<2>, y: Expr<2>| Expr::Binary(op, Box::new(x), Box::new(y));
    let mut cases: Vec<(String, Vec<Expr<2>>, usize)> = binops
        .iter()
        .map(|&op| {
            let mut rhs = Vec::new();
            for f in FOLDED {
                rhs.push(bin(op, k(f) * b(), c()));
                rhs.push(bin(op, c(), b() * k(f)));
                rhs.push(bin(op, b() * k(f), k(0.75) * c()));
            }
            let x = k(-1.5) * b();
            rhs.push(x.clone() * x);
            let passes = 1 + rhs.len();
            (format!("{op:?}"), rhs, passes)
        })
        .collect();
    let unary = [
        UnaryOp::Neg,
        UnaryOp::Abs,
        UnaryOp::Sqrt,
        UnaryOp::Exp,
        UnaryOp::Ln,
        UnaryOp::Recip,
        UnaryOp::Sin,
        UnaryOp::Cos,
    ];
    let rhs: Vec<Expr<2>> = unary
        .iter()
        .enumerate()
        .flat_map(|(i, &op)| {
            let (f, g) = (FOLDED[i], FOLDED[(i + 3) % FOLDED.len()]);
            [(k(f) * b()).unary(op), (b() * k(g)).unary(op)]
        })
        .collect();
    // A `Neg` keeps its operand in a register: two passes each.
    let passes = 1 + rhs.len() + 2;
    cases.push(("unary".into(), rhs, passes));
    let rhs = vec![
        k(0.5) * b(),
        b() * k(-0.0),
        nan() * e() + e(),
        e() * nan(),
        e() * nan() - k(0.5) * e(),
    ];
    // One pass per statement, the recurrence's included, and one more
    // for each NaN-scaled read kept as its own instruction.
    cases.push(("empty and NaN".into(), rhs, 1 + 5 + 2));

    for seg in [16i64, 64, 72, 200] {
        for (what, rhs, passes) in &cases {
            let prog = fresh_destinations(rows, seg, rhs);
            let what = format!("{what}, {seg} points");
            assert_wide_passes(&what, &prog, *passes);
            wide_segments_match(&what, &prog, init_special, seg);
        }

        // The destination read folded at the point it writes and at the
        // row above; the second statement reads, folded, what the first
        // wrote.
        let bounds = Region::rect([0, 0], [rows + 1, seg + 1]);
        let mut prog = Program::<2>::new();
        let [b, c, _e, a, r, s] = ["b", "c", "e", "a", "r", "s"].map(|n| prog.array(n, bounds));
        prog.scan(
            Region::rect([1, 1], [rows, seg]),
            vec![
                Statement::new(
                    a,
                    k(0.5) * Expr::read_primed_at(a, [-1, 0])
                        + k(0.25) * Expr::read(a)
                        + Expr::read(b) * k(0.125),
                ),
                Statement::new(r, k(0.75) * Expr::read(b) - Expr::read(c) * k(0.5)),
                Statement::new(s, k(0.25) * Expr::read(r) + Expr::read(r) * k(2.0)),
            ],
        );
        let what = format!("recurrence and chain, {seg} points");
        assert_wide_passes(&what, &prog, 2 + 1 + 1);
        wide_segments_match(&what, &prog, init_special, seg);
    }
}

/// `prog`'s one nest runs `passes` passes over each piece on the wide
/// path.
fn assert_wide_passes(what: &str, prog: &Program<2>, passes: usize) {
    let compiled = compile(prog).unwrap();
    let nest = compiled.nest(0);
    let shapes: Vec<(Region<2>, Layout)> = Store::new(prog)
        .arrays()
        .iter()
        .map(|a| (a.bounds(), a.layout()))
        .collect();
    let runner = NestRunner::auto(nest);
    assert_eq!(runner.wide_passes(&shapes, &nest.structure.order), Some(passes), "{what}");
}

/// Unit-stride row segments of 65 to 1,100 points, which the lane
/// executor runs in pieces as long as its register file holds: 1,088
/// points on a tape that needs one physical register, 360 on one that
/// names 2 registers, 120 on 8, 64 on 16 (each holding every named
/// register while one more takes a result; a tape reading coordinates
/// too, which need no register of their own), 1,088 on a tape folded
/// empty. Each tape is one
/// statement after a recurrence down the rows; against the interpreter
/// and the scalar tape, then on Seq and Threads over two and three
/// cells, tiled one segment wide.
#[test]
fn long_segments_run_in_pieces_the_registers_allow() {
    let rows = 4i64;
    let (b, c) = (|| Expr::read(0), || Expr::read(1));
    // Each level holds its left operand in a register while the right
    // one is evaluated, so `depth` levels name `depth` registers.
    fn held(depth: usize) -> Expr<2> {
        let k = depth as i64;
        let scale = Expr::lit(0.25 + 0.125 * k as f64);
        let left = Expr::read_at(0, [0, k % 2]) * scale + Expr::lit(1.0);
        match depth {
            0 => Expr::read(1),
            _ if depth.is_multiple_of(2) => left.min(held(depth - 1)),
            _ => left - held(depth - 1),
        }
    }
    let (i, j) = (|| Expr::IndexVar(0), || Expr::IndexVar(1));
    let coords = (j() + b()) * (i() - c()) / (j() + Expr::lit(1.0));
    let cases: [(&str, Expr<2>, usize, usize); 6] = [
        ("1 register", held(1), 1, 1088),
        ("2 registers", held(2), 2, 360),
        ("8 registers", held(8), 8, 120),
        ("16 registers", held(16), 16, 64),
        ("coordinates", coords, 2, 360),
        ("empty", Expr::lit(0.75) * b(), 0, 1088),
    ];
    for seg in [65i64, 127, 128, 129, 544, 545, 1100] {
        for (what, rhs, regs, piece) in &cases {
            let prog = fresh_destinations(rows, seg, std::slice::from_ref(rhs));
            let what = format!("{what}, {seg} points");
            let nest = compile(&prog).unwrap().nest(0).clone();
            let kernel = TileKernel::compile(&nest).unwrap();
            // The recurrence's own tape names two registers.
            assert_eq!(kernel.reg_count(), 2.max(*regs), "{what}: registers named");
            let shapes: Vec<(Region<2>, Layout)> = prog.shapes();
            let got = NestRunner::auto(&nest).wide_piece(&shapes, &nest.structure.order);
            assert_eq!(got, Some(*piece), "{what}: points per piece");
            wide_segments_match(&what, &prog, init_in_layout, seg);
        }
    }
}
