//! Integration tests of the optimization layers through the public API:
//! array contraction interacting with distributed execution, and the
//! WYSIWYG cost classes of the real benchmark programs.

use wavefront::core::prelude::*;
use wavefront::kernels::{simple, tomcatv};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{BlockPolicy, EngineKind, JobTopology, Session, WavefrontPlan};

#[test]
fn tomcatv_contracts_exactly_r() {
    let lo = tomcatv::build(20).unwrap();
    let contracted = contractible_ids(&lo.program);
    assert_eq!(contracted.len(), 1);
    assert_eq!(lo.program.name_of(contracted[0]), "r");
}

#[test]
fn contracted_tomcatv_iteration_matches_uncontracted() {
    let lo = tomcatv::build(18).unwrap();
    let plain = compile(&lo.program).unwrap();
    let contracted = compile_contracted(&lo.program, &[]).unwrap();

    let mut s1 = Store::new(&lo.program);
    tomcatv::init(&lo, &mut s1);
    let mut s2 = s1.clone();
    run_with_sink(&plain, &mut s1, &mut NoSink);
    run_with_sink(&contracted, &mut s2, &mut NoSink);

    // Everything except the contracted temporary is bit-identical.
    let big = lo.region("Big").unwrap();
    for name in ["x", "y", "rx", "ry", "d", "aa", "dd", "cc"] {
        let id = lo.array(name).unwrap();
        assert!(s1.get(id).region_eq(s2.get(id), big), "{name} differs");
    }
    let err = lo.array("err").unwrap();
    assert_eq!(
        s1.get(err).get(Point([1, 1])),
        s2.get(err).get(Point([1, 1]))
    );
}

#[test]
fn contracted_nest_still_decomposes_and_pipelines() {
    // Contraction must compose with the distributed runtimes: the
    // contracted forward sweep runs on threads and matches the
    // uncontracted sequential reference on every non-temporary array.
    let lo = tomcatv::build(34).unwrap();
    let contracted = compile_contracted(&lo.program, &[]).unwrap();
    let nest = contracted
        .nests()
        .find(|x| x.is_scan)
        .expect("has wavefront");
    assert!(!nest.contracted.is_empty(), "r should be contracted");

    let plain = compile(&lo.program).unwrap();
    let plain_nest = plain.nests().find(|x| x.is_scan).unwrap();

    // Run the residual phase first so the sweep divides by sane values.
    let mut seed = Store::new(&lo.program);
    tomcatv::init(&lo, &mut seed);
    for op in &plain.ops {
        if let CompiledOp::Block(b) = op {
            if b.nests.iter().any(|x| x.is_scan) {
                break;
            }
            for x in &b.nests {
                run_nest_with_sink(x, &mut seed, &mut NoSink);
            }
        }
    }
    let mut reference = seed.clone();
    run_nest_with_sink(plain_nest, &mut reference, &mut NoSink);

    let plan =
        WavefrontPlan::build(nest, JobTopology::line(3), &BlockPolicy::Fixed(7), &cray_t3e())
            .expect("plan builds");
    // `r` is contracted, so it no longer flows between processors even
    // though it is written in the nest.
    assert!(
        !plan.axes[0]
            .comm
            .iter()
            .any(|&(id, _)| id == lo.array("r").unwrap()),
        "contracted arrays must not be communicated"
    );
    let mut store = seed.clone();
    Session::new(&lo.program, nest)
        .procs(3)
        .block(BlockPolicy::Fixed(7))
        .machine(cray_t3e())
        .store(&mut store)
        .run(EngineKind::Threads)
        .unwrap();
    for name in ["d", "rx", "ry"] {
        let id = lo.array(name).unwrap();
        assert!(
            reference.get(id).region_eq(store.get(id), nest.region),
            "{name} differs under contracted threaded execution"
        );
    }
}

#[test]
fn benchmark_cost_classes_match_their_structure() {
    let lo = tomcatv::build(16).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let classes = classify_program(&compiled);
    let wavefronts = classes
        .iter()
        .filter(|c| matches!(c, CostClass::Wavefront { .. }))
        .count();
    let reductions = classes
        .iter()
        .filter(|c| matches!(c, CostClass::LogTree))
        .count();
    assert_eq!(wavefronts, 2, "tomcatv has exactly two wavefront phases");
    assert_eq!(reductions, 1, "one convergence reduction");
    // Both wavefronts are pipelinable (2-D region).
    for c in &classes {
        if let CostClass::Wavefront { pipelinable, .. } = c {
            assert!(*pipelinable);
        }
    }

    let lo = simple::build(16).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let classes = classify_program(&compiled);
    let dims: Vec<Vec<usize>> = classes
        .iter()
        .filter_map(|c| match c {
            CostClass::Wavefront { dims, .. } => Some(dims.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(dims, vec![vec![1], vec![0]], "SIMPLE's orthogonal sweeps");
}

#[test]
fn jacobi_is_point_to_point_only() {
    let lo = wavefront::kernels::jacobi::build(8).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let classes = classify_program(&compiled);
    assert!(
        classes
            .iter()
            .all(|c| !matches!(c, CostClass::Wavefront { .. })),
        "jacobi must not contain wavefronts: {classes:?}"
    );
    assert!(classes
        .iter()
        .any(|c| matches!(c, CostClass::PointToPoint { .. })));
    assert!(classes.iter().any(|c| matches!(c, CostClass::LogTree)));
}
