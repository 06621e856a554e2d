//! Property test for the 2-D mesh runtimes: decomposing a 3-D sweep
//! over any processor mesh with any block size must reproduce the
//! sequential executor's results bit for bit, for both the shared-store
//! and the threaded message-passing engines.
//!
//! Cases are sampled deterministically with [`SplitMix64`] (no offline
//! property-testing dependency); every run covers the same set.

use wavefront::core::prelude::*;
use wavefront::kernels::rng::SplitMix64;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{BlockPolicy, EngineKind, JobTopology, Session2D, WavefrontPlan};

const DIRS: [[i64; 3]; 5] = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 0], [-2, 0, 0]];

fn build_sweep(n: i64, extra: Option<usize>) -> (Program<3>, Region<3>) {
    let bounds = Region::rect([0, 0, 0], [n + 1, n + 1, 6]);
    let cells = Region::rect([2, 2, 1], [n - 1, n - 1, 5]);
    let mut p = Program::<3>::new();
    let a = p.array("a", bounds);
    let s = p.array("s", bounds);
    let mut rhs = Expr::read(s)
        + Expr::lit(0.4) * Expr::read_primed_at(a, [-1, 0, 0])
        + Expr::lit(0.3) * Expr::read_primed_at(a, [0, -1, 0]);
    if let Some(e) = extra {
        rhs = rhs + Expr::lit(0.2) * Expr::read_primed_at(a, DIRS[e % DIRS.len()]);
    }
    p.scan(cells, vec![Statement::new(a, rhs)]);
    (p, cells)
}

fn init_store(p: &Program<3>, seed: u64) -> Store<3> {
    let mut store = Store::new(p);
    for id in 0..store.len() {
        let bounds = store.get(id).bounds();
        *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
            let h = (q[0] as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((q[1] as u64).wrapping_mul(seed | 1))
                .wrapping_add(q[2] as u64 * 77 + id as u64);
            (h % 997) as f64 / 997.0
        });
    }
    store
}

/// The rank-4 SWEEP3D (angles × space) on a 2-D spatial mesh: the
/// planner must pick the angle dimension for pipelining (the real
/// benchmark's angle blocks) and the engines must agree bit for bit.
#[test]
fn rank4_angle_blocks_on_spatial_mesh() {
    let lo = wavefront::kernels::sweep3d::build_octant_angles(6, 8).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = compiled.nest(0);

    let plan = WavefrontPlan::build(
        nest,
        JobTopology::Mesh {
            mesh: [2, 2],
            wave_dims: Some([1, 2]),
        },
        &BlockPolicy::Fixed(2),
        &cray_t3e(),
    )
    .unwrap();
    assert_eq!([plan.axes[0].dim, plan.axes[1].dim], [1, 2]);
    assert_eq!(plan.tile_dim, Some(0), "must pipeline angle blocks");
    assert_eq!(plan.tiles.len(), 4); // 8 angles in blocks of 2

    let init = |store: &mut Store<4>| {
        let src = lo.array("src").unwrap();
        let sigt = lo.array("sigt").unwrap();
        for p in lo.region("Grid").unwrap().iter() {
            store.get_mut(src).set(p, 1.0 + 0.1 * p[0] as f64);
            store
                .get_mut(sigt)
                .set(p, 0.5 + 0.001 * ((p[1] + p[2] + p[3]) % 7) as f64);
        }
    };
    let mut reference = Store::new(&lo.program);
    init(&mut reference);
    run_nest_with_sink(nest, &mut reference, &mut NoSink);

    let mut seq = Store::new(&lo.program);
    init(&mut seq);
    Session2D::new(&lo.program, nest)
        .mesh([2, 2])
        .wave_dims([1, 2])
        .block(BlockPolicy::Fixed(2))
        .machine(cray_t3e())
        .store(&mut seq)
        .run(EngineKind::Seq)
        .unwrap();
    let mut thr = Store::new(&lo.program);
    init(&mut thr);
    Session2D::new(&lo.program, nest)
        .mesh([2, 2])
        .wave_dims([1, 2])
        .block(BlockPolicy::Fixed(2))
        .machine(cray_t3e())
        .store(&mut thr)
        .run(EngineKind::Threads)
        .unwrap();

    let cells = lo.region("Cells").unwrap();
    for name in ["flux", "phi"] {
        let id = lo.array(name).unwrap();
        assert!(
            reference.get(id).region_eq(seq.get(id), cells),
            "seq {name}"
        );
        assert!(
            reference.get(id).region_eq(thr.get(id), cells),
            "thr {name}"
        );
    }
}

#[test]
fn mesh_decomposition_matches_sequential() {
    let mut rng = SplitMix64::new(0x2D_2D2D);
    for case in 0..32 {
        let n = 6 + rng.gen_range(8) as i64;
        let extra = (rng.next_u64() & 1 == 0).then(|| rng.gen_range(5));
        let p1 = 1 + rng.gen_range(3);
        let p2 = 1 + rng.gen_range(3);
        let b = 1 + rng.gen_range(7);
        let seed = rng.next_u64();

        let (program, region) = build_sweep(n, extra);
        let compiled = match compile(&program) {
            Ok(c) => c,
            Err(Error::OverConstrained { .. }) => continue,
            Err(e) => panic!("case {case}: {e}"),
        };
        let nest = compiled.nest(0);
        let mesh = JobTopology::mesh([p1, p2]);
        if WavefrontPlan::build(nest, mesh, &BlockPolicy::Fixed(b), &cray_t3e()).is_err() {
            continue; // undecomposable direction mix
        }

        let mut reference = init_store(&program, seed);
        run_nest_with_sink(nest, &mut reference, &mut NoSink);

        let mut seq = init_store(&program, seed);
        Session2D::new(&program, nest)
            .mesh([p1, p2])
            .block(BlockPolicy::Fixed(b))
            .machine(cray_t3e())
            .store(&mut seq)
            .run(EngineKind::Seq)
            .unwrap();
        let mut thr = init_store(&program, seed);
        Session2D::new(&program, nest)
            .mesh([p1, p2])
            .block(BlockPolicy::Fixed(b))
            .machine(cray_t3e())
            .store(&mut thr)
            .run(EngineKind::Threads)
            .unwrap();

        for id in 0..reference.len() {
            assert!(
                reference.get(id).region_eq(seq.get(id), region),
                "case {case}: sequential-mesh array {id} differs \
                 (n={n} mesh {p1}x{p2} b={b} extra {extra:?})"
            );
            assert!(
                reference.get(id).region_eq(thr.get(id), region),
                "case {case}: threaded-mesh array {id} differs \
                 (n={n} mesh {p1}x{p2} b={b} extra {extra:?})"
            );
        }
    }
}
