//! Front-end and compiler-analysis costs: lexing/parsing/lowering WL,
//! loop-structure derivation, and plan construction.

use wavefront_bench::micro::Harness;
use wavefront_core::deps::{DepConstraint, DepKind};
use wavefront_core::index::Offset;
use wavefront_core::loops::find_structure;
use wavefront_core::prelude::compile;
use wavefront_machine::cray_t3e;
use wavefront_pipeline::{BlockPolicy, JobTopology, WavefrontPlan};

fn main() {
    let mut h = Harness::from_args();

    h.bench("analysis/compile_str_tomcatv", || {
        wavefront_kernels::tomcatv::build(66).unwrap()
    });
    {
        let lo = wavefront_kernels::tomcatv::build(66).unwrap();
        h.bench("analysis/core_compile_tomcatv", || compile(&lo.program).unwrap());
    }

    let cs2: Vec<DepConstraint<2>> = vec![
        DepConstraint { vector: Offset([1, 0]), kind: DepKind::True, array: 0, stmt: 0 },
        DepConstraint { vector: Offset([0, 1]), kind: DepKind::True, array: 1, stmt: 1 },
        DepConstraint { vector: Offset([1, -1]), kind: DepKind::Anti, array: 2, stmt: 0 },
    ];
    h.bench("analysis/loop_structure_rank2", || find_structure(&cs2, Some(0)).unwrap());
    let cs4: Vec<DepConstraint<4>> = vec![
        DepConstraint { vector: Offset([1, 0, 0, 0]), kind: DepKind::True, array: 0, stmt: 0 },
        DepConstraint { vector: Offset([0, 1, 0, 0]), kind: DepKind::True, array: 0, stmt: 0 },
        DepConstraint { vector: Offset([0, 0, 1, -1]), kind: DepKind::Anti, array: 1, stmt: 0 },
        DepConstraint { vector: Offset([0, 0, 0, 1]), kind: DepKind::Flow, array: 2, stmt: 1 },
    ];
    h.bench("analysis/loop_structure_rank4", || find_structure(&cs4, Some(3)).unwrap());

    {
        let lo = wavefront_kernels::tomcatv::build(258).unwrap();
        let compiled = compile(&lo.program).unwrap();
        let nest = compiled.nests().find(|x| x.is_scan).unwrap().clone();
        let params = cray_t3e();
        h.bench("analysis/wavefront_plan_model2", || {
            WavefrontPlan::build(&nest, JobTopology::line(16), &BlockPolicy::Model2, &params)
                .unwrap()
        });
        let probe = BlockPolicy::default_probe(256);
        h.bench("analysis/wavefront_plan_probe", || {
            WavefrontPlan::build(&nest, JobTopology::line(16), &probe, &params).unwrap()
        });
    }

    h.finish();
}
