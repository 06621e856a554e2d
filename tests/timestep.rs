//! Differential harness for resident-array time-stepping loops
//! (`WavefrontService::submit_loop`).
//!
//! Every loop variant must be **bit-identical** to hand-chained
//! sequential `Session` runs on a private store: the fused Tomcatv
//! loop across all three kernel tiers, a double-buffered relaxation
//! (fused rotation, the per-step fallback, and the barrier ablation), a
//! fused three-buffer cycle (its drain waits three sweeps back),
//! the same three regimes on 2x2 and 2x1 processor meshes, and a
//! SWEEP3D two-octant DAG chain across every scheduler. Misuse
//! — freed handles, aliased rotations, written arrays left out of the
//! handle table — draws typed errors, never silent corruption.

use std::collections::HashMap;
use std::sync::Arc;

use wavefront::core::prelude::*;
use wavefront::kernels::{sweep3d, tomcatv};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    ArrayHandle, BlockPolicy, DagSpec, EngineKind, JobSpec, JobSpecBuilder, LoopOutcome, LoopSpec,
    PipelineError, SchedulerKind, Session, WavefrontService,
};

/// `Result::unwrap_err` without a `Debug` bound on the success type.
fn expect_err<T>(r: std::result::Result<T, PipelineError>) -> PipelineError {
    match r {
        Ok(_) => panic!("expected a typed error, got success"),
        Err(e) => e,
    }
}

fn assert_bits<const R: usize>(ctx: &str, name: &str, got: &DenseArray<R>, want: &DenseArray<R>) {
    assert!(
        got.bounds() == want.bounds(),
        "{ctx}: `{name}` bounds {} != {}",
        got.bounds(),
        want.bounds()
    );
    for p in want.bounds().iter() {
        assert!(
            got.get(p).to_bits() == want.get(p).to_bits(),
            "{ctx}: `{name}` differs at {p:?}: got {}, want {}",
            got.get(p),
            want.get(p)
        );
    }
}

/// Names the nest writes, deduplicated in statement order.
fn written_names<const R: usize>(program: &Program<R>, nest: &CompiledNest<R>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for stmt in &nest.stmts {
        let name = program.name_of(stmt.lhs);
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// The program's wavefront scan nest (largest, when several qualify).
fn scan_nest<const R: usize>(compiled: &CompiledProgram<R>) -> CompiledNest<R> {
    compiled
        .nests()
        .filter(|x| x.is_scan)
        .max_by_key(|x| x.region.len())
        .expect("program has a scan nest")
        .clone()
}

/// Bind every program array to its resident handle: nest-written
/// arrays in place (output), the rest read-only (input).
fn bind_all<const R: usize>(
    mut b: JobSpecBuilder<R>,
    program: &Program<R>,
    nest: &CompiledNest<R>,
    handles: &HashMap<String, ArrayHandle<R>>,
) -> JobSpecBuilder<R> {
    let written = written_names(program, nest);
    let mut names: Vec<&String> = handles.keys().collect();
    names.sort();
    for name in names {
        let h = &handles[name];
        b = if written.contains(name) {
            b.output_handle(name.clone(), h)
        } else {
            b.input_handle(name.clone(), h)
        };
    }
    b
}

// --- Tomcatv: rotation-free steady-state loop, all kernel tiers --------

fn tomcatv_case(n: i64) -> (Arc<Program<2>>, Arc<CompiledNest<2>>, Store<2>) {
    let lo = tomcatv::build(n).expect("tomcatv builds");
    let compiled = compile(&lo.program).expect("tomcatv compiles");
    let nest = scan_nest(&compiled);
    let mut store = Store::new(&lo.program);
    tomcatv::init(&lo, &mut store);
    (Arc::new(lo.program), Arc::new(nest), store)
}

/// An N-step resident loop over the Tomcatv forward-elimination scan is
/// bit-identical to N back-to-back `Session` runs, on every kernel
/// tier, and runs as one fused chunk (a single engine invocation whose
/// put-backs bump each written handle's epoch exactly once).
#[test]
fn tomcatv_loop_is_bit_identical_to_sessions_across_kernel_tiers() {
    let steps = 5;
    for mode in [KernelMode::Interpreted, KernelMode::Scalar, KernelMode::Lanes] {
        let (program, nest, store) = tomcatv_case(14);
        let mut want = store.clone();
        for _ in 0..steps {
            Session::new(&program, &nest)
                .procs(4)
                .block(BlockPolicy::Fixed(3))
                .machine(cray_t3e())
                .kernel_mode(mode)
                .store(&mut want)
                .run(EngineKind::Threads)
                .expect("reference step runs");
        }

        let service: WavefrontService<2> = WavefrontService::new();
        let handles: HashMap<String, ArrayHandle<2>> =
            service.import_store(&program, store).into_iter().collect();
        let body = bind_all(
            JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(4)
                .block(BlockPolicy::Fixed(3))
                .machine(cray_t3e())
                .kernel_mode(mode)
                .engine(EngineKind::Threads),
            &program,
            &nest,
            &handles,
        )
        .build()
        .expect("valid body");
        let out = service
            .submit_loop(
                LoopSpec::builder()
                    .job(body)
                    .steps(steps)
                    .build()
                    .expect("valid loop"),
            )
            .wait()
            .expect("loop runs");

        assert_eq!(out.steps_run, steps);
        assert!(!out.converged);
        assert!(
            out.stats.fused,
            "{mode:?}: a rotation-free threads/line body must fuse"
        );
        assert_eq!(
            out.stats.chunks, 1,
            "{mode:?}: one fused chunk covers every step"
        );
        for name in written_names(&program, &nest) {
            let got = service.read(&handles[&name]).expect("resident array readable");
            let id = program.find(&name).expect("written array declared");
            assert_bits(&format!("tomcatv {mode:?}"), &name, &got, want.get(id));
            assert_eq!(
                service.handle_epoch(&handles[&name]).unwrap(),
                1,
                "{mode:?}: one chunk puts `{name}` back exactly once"
            );
        }
    }
}

// --- double-buffered relaxation: rotation in all three regimes --------

struct Diffuse {
    program: Arc<Program<2>>,
    nest: Arc<CompiledNest<2>>,
    initial: Store<2>,
}

/// A double-buffered relaxation: `next` is a scan over its own primed
/// north value, the previous step's field (`curr`), and a constant
/// `load`. `pointwise_curr` controls whether `curr` is read at the
/// cell itself (fusible under rotation) or one column east (a ghost
/// margin on a rotated buffer — must fall back to per-step jobs).
fn diffuse_case(n: i64, pointwise_curr: bool) -> Diffuse {
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let next = prog.array("next", bounds);
    let curr = prog.array("curr", bounds);
    let load = prog.array("load", bounds);
    let curr_read = if pointwise_curr {
        Expr::read_at(curr, [0, 0])
    } else {
        Expr::read_at(curr, [0, 1])
    };
    prog.stmt(
        Region::rect([2, 2], [n - 1, n - 1]),
        next,
        Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
            + Expr::lit(0.4) * curr_read
            + Expr::lit(0.1) * Expr::read_at(load, [0, 1]),
    );
    let compiled = compile(&prog).expect("diffuse compiles");
    let nest = Arc::new(compiled.nest(0).clone());
    let mut initial = Store::new(&prog);
    for id in 0..initial.len() {
        let b = initial.get(id).bounds();
        *initial.get_mut(id) = DenseArray::from_fn(b, |q| {
            let h = (q[0] as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(q[1] as u64)
                .wrapping_mul(0x0071_57E9)
                .wrapping_add(id as u64);
            (h % 1009) as f64 / 1009.0
        });
    }
    Diffuse {
        program: Arc::new(prog),
        nest,
        initial,
    }
}

/// The reference: one `Session` per step on a private store, buffers
/// swapped **between** steps only — the final state is exactly the
/// assignment the loop's last step ran with.
fn diffuse_reference(case: &Diffuse, steps: usize) -> Store<2> {
    let mut store = case.initial.clone();
    let next_id = case.program.find("next").unwrap();
    let curr_id = case.program.find("curr").unwrap();
    for step in 0..steps {
        Session::new(&case.program, &case.nest)
            .procs(4)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .store(&mut store)
            .run(EngineKind::Threads)
            .expect("reference step runs");
        if step + 1 < steps {
            store.arrays_mut().swap(next_id, curr_id);
        }
    }
    store
}

fn diffuse_loop(
    case: &Diffuse,
    steps: usize,
    pipelined: bool,
) -> (
    WavefrontService<2>,
    HashMap<String, ArrayHandle<2>>,
    LoopOutcome<2>,
) {
    let service: WavefrontService<2> = WavefrontService::new();
    let handles: HashMap<String, ArrayHandle<2>> = service
        .import_store(&case.program, case.initial.clone())
        .into_iter()
        .collect();
    let body = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(EngineKind::Threads)
        .output_handle("next", &handles["next"])
        .output_handle("curr", &handles["curr"])
        .input_handle("load", &handles["load"])
        .build()
        .expect("valid body");
    let out = service
        .submit_loop(
            LoopSpec::builder()
                .job(body)
                .steps(steps)
                .swap("next", "curr")
                .pipelined(pipelined)
                .build()
                .expect("valid loop"),
        )
        .wait()
        .expect("loop runs");
    (service, handles, out)
}

/// A pointwise double-buffer rotation fuses into one chunk and matches
/// the swapped-`Session` reference bit for bit — at both rotation
/// parities (even and odd step counts land the roles on different
/// buffers).
#[test]
fn rotated_loop_fuses_and_matches_swapped_sessions() {
    for steps in [4, 5] {
        let case = diffuse_case(16, true);
        let want = diffuse_reference(&case, steps);
        let (service, _handles, out) = diffuse_loop(&case, steps, true);
        assert!(out.stats.fused, "pointwise rotation must fuse");
        assert_eq!(out.stats.chunks, 1);
        assert_eq!(out.steps_run, steps);
        let fb: HashMap<String, ArrayHandle<2>> = out.final_bindings.into_iter().collect();
        for name in ["next", "curr", "load"] {
            let got = service.read(&fb[name]).expect("final binding readable");
            let id = case.program.find(name).unwrap();
            assert_bits(&format!("diffuse fused steps={steps}"), name, &got, want.get(id));
        }
    }
}

/// Disabling cross-iteration overlap (the barrier ablation) changes
/// only the measured overlap — the results stay bit-identical and the
/// reported overlap is exactly zero.
#[test]
fn barrier_ablation_is_bit_identical_with_zero_overlap() {
    let steps = 5;
    let case = diffuse_case(16, true);
    let want = diffuse_reference(&case, steps);
    let (service, _handles, out) = diffuse_loop(&case, steps, false);
    assert!(out.stats.fused);
    assert!(!out.stats.pipelined);
    assert_eq!(
        out.stats.overlap_seconds, 0.0,
        "an iteration barrier admits no cross-iteration overlap"
    );
    assert_eq!(out.stats.overlap_efficiency, 0.0);
    let fb: HashMap<String, ArrayHandle<2>> = out.final_bindings.into_iter().collect();
    for name in ["next", "curr"] {
        let got = service.read(&fb[name]).expect("final binding readable");
        let id = case.program.find(name).unwrap();
        assert_bits("diffuse barrier", name, &got, want.get(id));
    }
}

/// A three-buffer cycle `next` → `curr` → `prev` → `next` over the
/// relaxation `next := 0.5·next'@north + 0.3·curr + 0.1·prev +
/// 0.1·load@east`: `next` is the only written buffer, so the buffer a
/// step overwrites was last read across cells three steps before, and
/// the fused chunk's drain waits reach that far back. It fuses into one
/// chunk and matches one `Session` per step, the buffers cycled between
/// steps, bit for bit at every phase of the cycle.
#[test]
fn a_three_buffer_cycle_fuses_and_matches_cycled_sessions() {
    let n = 16;
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let [next, curr, prev, load] = ["next", "curr", "prev", "load"].map(|a| prog.array(a, bounds));
    prog.stmt(
        Region::rect([2, 2], [n - 1, n - 1]),
        next,
        Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0])
            + Expr::lit(0.3) * Expr::read(curr)
            + Expr::lit(0.1) * Expr::read(prev)
            + Expr::lit(0.1) * Expr::read_at(load, [0, 1]),
    );
    let nest = Arc::new(compile(&prog).expect("the cycle compiles").nest(0).clone());
    let prog = Arc::new(prog);
    let mut initial = Store::new(&prog);
    for id in 0..initial.len() {
        let b = initial.get(id).bounds();
        *initial.get_mut(id) =
            DenseArray::from_fn(b, |q| ((q[0] * 31 + q[1] * 7 + id as i64 * 5) % 97) as f64 / 97.0);
    }
    let cycle = [(next, curr), (curr, prev), (prev, next)];
    let session = Session::new(&prog, &nest).procs(4).block(BlockPolicy::Fixed(4));
    let (chunk, lag) =
        session.chunk_plan(7, &[("next", "curr"), ("curr", "prev"), ("prev", "next")]).unwrap();
    assert_eq!((chunk.block, lag), (4, 3));
    let unknown = session.chunk_plan(7, &[("next", "vorpal"), ("vorpal", "next")]);
    assert!(matches!(expect_err(unknown), PipelineError::InvalidLoop { .. }));
    for steps in [5, 6, 7] {
        let mut want = initial.clone();
        for step in 0..steps {
            Session::new(&prog, &nest)
                .procs(4)
                .block(BlockPolicy::Fixed(4))
                .machine(cray_t3e())
                .store(&mut want)
                .run(EngineKind::Threads)
                .expect("reference step runs");
            if step + 1 < steps {
                let moved: Vec<DenseArray<2>> =
                    cycle.iter().map(|&(from, _)| want.get(from).clone()).collect();
                for (&(_, to), buffer) in cycle.iter().zip(moved) {
                    *want.get_mut(to) = buffer;
                }
            }
        }
        let service: WavefrontService<2> = WavefrontService::new();
        let handles: HashMap<String, ArrayHandle<2>> =
            service.import_store(&prog, initial.clone()).into_iter().collect();
        let body = JobSpec::builder(Arc::clone(&prog), Arc::clone(&nest))
            .line(4)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .engine(EngineKind::Threads)
            .output_handle("next", &handles["next"])
            .output_handle("curr", &handles["curr"])
            .output_handle("prev", &handles["prev"])
            .input_handle("load", &handles["load"]);
        let spec = LoopSpec::builder()
            .job(body.build().expect("valid body"))
            .steps(steps)
            .rotate("next", "curr")
            .rotate("curr", "prev")
            .rotate("prev", "next")
            .build()
            .expect("valid loop");
        let out = service.submit_loop(spec).wait().expect("loop runs");
        assert!(out.stats.fused, "a pointwise cycle fuses");
        assert_eq!((out.stats.chunks, out.steps_run), (1, steps));
        let fb: HashMap<String, ArrayHandle<2>> = out.final_bindings.into_iter().collect();
        for name in ["next", "curr", "prev", "load"] {
            let got = service.read(&fb[name]).expect("final binding readable");
            let id = prog.find(name).unwrap();
            assert_bits(&format!("3-cycle steps={steps}"), name, &got, want.get(id));
        }
    }
}

/// Reading a rotated buffer at a nonzero offset needs a fresh ghost
/// exchange every step, so the loop must refuse to fuse — and the
/// per-step path must still match the reference bit for bit.
#[test]
fn ghost_margin_rotation_falls_back_per_step_and_still_matches() {
    let steps = 4;
    let case = diffuse_case(14, false);
    let want = diffuse_reference(&case, steps);
    let (service, handles, out) = diffuse_loop(&case, steps, true);
    assert!(
        !out.stats.fused,
        "a rotated buffer read at an offset must not fuse"
    );
    assert_eq!(out.stats.chunks, steps, "one job per step on the fallback path");
    assert_eq!(out.stats.overlap_seconds, 0.0);
    let fb: HashMap<String, ArrayHandle<2>> = out.final_bindings.into_iter().collect();
    for name in ["next", "curr"] {
        let got = service.read(&fb[name]).expect("final binding readable");
        let id = case.program.find(name).unwrap();
        assert_bits("diffuse per-step", name, &got, want.get(id));
    }
    // Every step checks out and puts back both rotated buffers.
    for name in ["next", "curr"] {
        assert_eq!(service.handle_epoch(&handles[name]).unwrap(), steps as u64);
    }
}

/// A convergence callback stops the loop at `check_every` granularity:
/// the fused path chunks its iterations to that cadence, the view
/// resolves rotated names, and unbound names are typed errors.
#[test]
fn convergence_callback_stops_the_loop_at_chunk_granularity() {
    let case = diffuse_case(12, true);
    let service: WavefrontService<2> = WavefrontService::new();
    let handles: HashMap<String, ArrayHandle<2>> = service
        .import_store(&case.program, case.initial.clone())
        .into_iter()
        .collect();
    let body = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(EngineKind::Threads)
        .output_handle("next", &handles["next"])
        .output_handle("curr", &handles["curr"])
        .input_handle("load", &handles["load"])
        .build()
        .expect("valid body");
    let out = service
        .submit_loop(
            LoopSpec::builder()
                .job(body)
                .steps(99)
                .swap("next", "curr")
                .check_every(2)
                .until(|view| {
                    view.read("next").expect("the view resolves rotated names");
                    assert!(
                        view.read("vorpal").is_err(),
                        "unbound names are typed errors"
                    );
                    view.step() >= 4
                })
                .build()
                .expect("valid loop"),
        )
        .wait()
        .expect("loop runs");
    assert!(out.converged, "the callback fired before the step cap");
    assert_eq!(out.steps_run, 4);
    assert!(out.stats.fused);
    assert_eq!(out.stats.chunks, 2, "iterations chunk to the check cadence");
    for name in ["next", "curr"] {
        assert_eq!(service.handle_epoch(&handles[name]).unwrap(), 2);
    }
}

// --- mesh bodies: the same regimes on a 2-D processor mesh -------------

/// One loop body for the mesh harness: the nest, its initial state, how
/// its arrays bind to resident handles, and the between-step swap.
struct MeshBody<const R: usize> {
    label: &'static str,
    program: Arc<Program<R>>,
    nest: Arc<CompiledNest<R>>,
    initial: Store<R>,
    outputs: &'static [&'static str],
    inputs: &'static [&'static str],
    swap: Option<(&'static str, &'static str)>,
}

/// One SWEEP3D octant (rank 3, wavefront dimensions 0 and 1 on the
/// mesh, k-blocks pipelined): a rotation-free body.
fn octant_body(n: i64) -> MeshBody<3> {
    let lo = sweep3d::build_octant(n, sweep3d::OCTANTS[0]).expect("octant builds");
    let mut initial = Store::new(&lo.program);
    sweep3d::init(&lo, &mut initial);
    let nest = scan_nest(&compile(&lo.program).expect("octant compiles"));
    MeshBody {
        label: "sweep3d octant",
        program: Arc::new(lo.program),
        nest: Arc::new(nest),
        initial,
        outputs: &["flux", "phi"],
        inputs: &["src", "sigt"],
        swap: None,
    }
}

/// The double-buffered relaxation with two wavefront dimensions and a
/// corner (`[-1, -1]`) primed read — rank 2, so a 2x2 mesh leaves no
/// tile dimension and the corner value relays through the first axis.
/// `pointwise_curr` as in [`diffuse_case`].
fn corner_body(n: i64, pointwise_curr: bool) -> MeshBody<2> {
    let bounds = Region::rect([0, 0], [n + 1, n + 1]);
    let mut prog = Program::<2>::new();
    let next = prog.array("next", bounds);
    let curr = prog.array("curr", bounds);
    let load = prog.array("load", bounds);
    let curr_read = Expr::read_at(curr, if pointwise_curr { [0, 0] } else { [0, 1] });
    prog.stmt(
        Region::rect([2, 2], [n - 1, n - 1]),
        next,
        Expr::lit(0.25) * Expr::read_primed_at(next, [-1, -1])
            + Expr::lit(0.25) * Expr::read_primed_at(next, [-1, 0])
            + Expr::lit(0.125) * Expr::read_primed_at(next, [0, -1])
            + Expr::lit(0.25) * curr_read
            + Expr::lit(0.125) * Expr::read_at(load, [0, 1]),
    );
    let compiled = compile(&prog).expect("corner relaxation compiles");
    let nest = Arc::new(compiled.nest(0).clone());
    let mut initial = Store::new(&prog);
    for id in 0..initial.len() {
        let b = initial.get(id).bounds();
        *initial.get_mut(id) =
            DenseArray::from_fn(b, |q| ((q[0] * 31 + q[1] * 17 + id as i64 * 5) % 97) as f64 / 97.0);
    }
    MeshBody {
        label: if pointwise_curr { "corner" } else { "corner, offset curr" },
        program: Arc::new(prog),
        nest,
        initial,
        outputs: &["next", "curr"],
        inputs: &["load"],
        swap: Some(("next", "curr")),
    }
}

/// The reference: one sequential-engine `Session` per step on the same
/// mesh, buffers swapped between steps only.
fn mesh_reference<const R: usize>(body: &MeshBody<R>, mesh: [usize; 2], steps: usize) -> Store<R> {
    let mut store = body.initial.clone();
    for step in 0..steps {
        Session::new(&body.program, &body.nest)
            .mesh(mesh)
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .store(&mut store)
            .run(EngineKind::Seq)
            .expect("reference step runs");
        if let Some((a, b)) = body.swap.filter(|_| step + 1 < steps) {
            let (a, b) = (body.program.find(a).unwrap(), body.program.find(b).unwrap());
            store.arrays_mut().swap(a, b);
        }
    }
    store
}

/// Run `body` as a resident loop on `mesh` and check every bound array
/// against the reference through the loop's final bindings.
fn mesh_loop_matches<const R: usize>(
    body: &MeshBody<R>,
    mesh: [usize; 2],
    steps: usize,
    pipelined: bool,
) -> LoopOutcome<R> {
    let ctx = format!("{} on {}x{} pipelined={pipelined}", body.label, mesh[0], mesh[1]);
    let want = mesh_reference(body, mesh, steps);
    let service: WavefrontService<R> = WavefrontService::new();
    let handles: HashMap<String, ArrayHandle<R>> = service
        .import_store(&body.program, body.initial.clone())
        .into_iter()
        .collect();
    let mut job = JobSpec::builder(Arc::clone(&body.program), Arc::clone(&body.nest))
        .mesh(mesh)
        .block(BlockPolicy::Fixed(2))
        .machine(cray_t3e())
        .engine(EngineKind::Threads);
    for name in body.outputs {
        job = job.output_handle(*name, &handles[*name]);
    }
    for name in body.inputs {
        job = job.input_handle(*name, &handles[*name]);
    }
    let mut spec = LoopSpec::builder()
        .job(job.build().expect("valid body"))
        .steps(steps)
        .pipelined(pipelined);
    if let Some((a, b)) = body.swap {
        spec = spec.swap(a, b);
    }
    let mut out = service
        .submit_loop(spec.build().expect("valid loop"))
        .wait()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(out.steps_run, steps, "{ctx}");
    let fb: HashMap<String, ArrayHandle<R>> =
        std::mem::take(&mut out.final_bindings).into_iter().collect();
    for name in body.outputs {
        let got = service.read(&fb[*name]).expect("final binding readable");
        assert_bits(&ctx, name, &got, want.get(body.program.find(name).unwrap()));
    }
    out
}

/// Cross-iteration fusion is a property of the one threaded engine, not
/// of the line: mesh bodies fuse into one chunk, with and without the
/// iteration barrier, and a 2x1 mesh — a line by another name — does
/// too, on a nest that has two wavefront dimensions and on one (the
/// single-dimension relaxation) that a mesh plan used to refuse.
#[test]
fn mesh_bodies_fuse_and_match_sequential_sessions() {
    fn check<const R: usize>(body: &MeshBody<R>, mesh: [usize; 2]) {
        for steps in [4, 5] {
            let out = mesh_loop_matches(body, mesh, steps, true);
            assert!(out.stats.fused, "{}: mesh bodies fuse", body.label);
            assert_eq!(out.stats.chunks, 1, "{}", body.label);
        }
        let out = mesh_loop_matches(body, mesh, 5, false);
        assert!(out.stats.fused && !out.stats.pipelined, "{}", body.label);
        assert_eq!(
            out.stats.overlap_seconds, 0.0,
            "{}: an iteration barrier admits no cross-iteration overlap",
            body.label
        );
    }
    for mesh in [[2, 2], [2, 1]] {
        check(&octant_body(8), mesh);
        check(&corner_body(14, true), mesh);
    }
    let case = diffuse_case(14, true);
    let single_dim = MeshBody {
        label: "relaxation",
        program: case.program,
        nest: case.nest,
        initial: case.initial,
        outputs: &["next", "curr"],
        inputs: &["load"],
        swap: Some(("next", "curr")),
    };
    check(&single_dim, [2, 1]);
}

/// The per-step fallback on a mesh: a rotated buffer read at an offset
/// must not fuse, and one mesh job per step still matches.
#[test]
fn mesh_ghost_margin_rotation_falls_back_per_step_and_still_matches() {
    let steps = 4;
    for mesh in [[2, 2], [2, 1]] {
        let out = mesh_loop_matches(&corner_body(12, false), mesh, steps, true);
        assert!(!out.stats.fused);
        assert_eq!(out.stats.chunks, steps, "one job per step on the fallback path");
    }
}

// --- SWEEP3D: a two-octant DAG body under every scheduler -------------

/// A DAG loop body — two SWEEP3D octants chained by a data edge, all
/// four arrays resident — matches per-step `Session` pairs bit for bit
/// under every scheduler, and never fuses.
#[test]
fn sweep3d_octant_chain_loop_matches_sessions_across_schedulers() {
    let (n, steps) = (8, 3);
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::CriticalPath,
        SchedulerKind::Locality,
    ] {
        let lo_a = sweep3d::build_octant(n, sweep3d::OCTANTS[0]).expect("octant A builds");
        let mut init = Store::new(&lo_a.program);
        sweep3d::init(&lo_a, &mut init);
        let nest_a = Arc::new(scan_nest(&compile(&lo_a.program).expect("octant A compiles")));
        let prog_a = Arc::new(lo_a.program);
        let lo_b = sweep3d::build_octant(n, sweep3d::OCTANTS[7]).expect("octant B builds");
        let nest_b = Arc::new(scan_nest(&compile(&lo_b.program).expect("octant B compiles")));
        let prog_b = Arc::new(lo_b.program);

        // Reference: both octants back to back per step, one store
        // (the two programs declare identical arrays).
        let mut want = init.clone();
        for _ in 0..steps {
            for (p, nst) in [(&prog_a, &nest_a), (&prog_b, &nest_b)] {
                Session::new(p, nst)
                    .procs(3)
                    .block(BlockPolicy::Fixed(2))
                    .machine(cray_t3e())
                    .store(&mut want)
                    .run(EngineKind::Threads)
                    .expect("reference octant runs");
            }
        }

        let service: WavefrontService<3> = WavefrontService::new();
        let handles: HashMap<String, ArrayHandle<3>> =
            service.import_store(&prog_a, init).into_iter().collect();
        let mut d = DagSpec::builder();
        let a_ref = d.add_labeled(
            "octant-a",
            JobSpec::builder(Arc::clone(&prog_a), Arc::clone(&nest_a))
                .line(3)
                .block(BlockPolicy::Fixed(2))
                .machine(cray_t3e())
                .engine(EngineKind::Threads)
                .input_handle("src", &handles["src"])
                .input_handle("sigt", &handles["sigt"])
                .output_handle("flux", &handles["flux"])
                .output_handle("phi", &handles["phi"])
                .output("sigt")
                .build()
                .expect("octant A spec"),
        );
        d.add_labeled(
            "octant-b",
            JobSpec::builder(Arc::clone(&prog_b), Arc::clone(&nest_b))
                .line(3)
                .block(BlockPolicy::Fixed(2))
                .machine(cray_t3e())
                .engine(EngineKind::Threads)
                // The edge both orders the octants under any scheduler
                // and carries `sigt` the classic way — mixing edge
                // inputs with resident handles in one node.
                .input_from(a_ref, "sigt")
                .input_handle("src", &handles["src"])
                .output_handle("flux", &handles["flux"])
                .output_handle("phi", &handles["phi"])
                .build()
                .expect("octant B spec"),
        );
        d.scheduler(kind);
        let out = service
            .submit_loop(
                LoopSpec::builder()
                    .dag(d.build().expect("valid dag"))
                    .steps(steps)
                    .build()
                    .expect("valid loop"),
            )
            .wait()
            .expect("loop runs");

        assert_eq!(out.steps_run, steps);
        assert!(!out.stats.fused, "DAG bodies take the per-step path");
        assert_eq!(out.stats.chunks, steps);
        for name in ["flux", "phi"] {
            let got = service.read(&handles[name]).expect("resident array readable");
            let id = prog_a.find(name).unwrap();
            assert_bits(&format!("sweep3d {kind:?}"), name, &got, want.get(id));
            // Both octant nodes put the tallies back, every step.
            assert_eq!(
                service.handle_epoch(&handles[name]).unwrap(),
                2 * steps as u64
            );
        }
    }
}

// --- misuse: typed errors, never silent corruption --------------------

#[test]
fn misuse_draws_typed_errors() {
    let case = diffuse_case(10, true);
    let service: WavefrontService<2> = WavefrontService::new();
    let handles: HashMap<String, ArrayHandle<2>> = service
        .import_store(&case.program, case.initial.clone())
        .into_iter()
        .collect();
    let body = || {
        JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
            .line(2)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .engine(EngineKind::Threads)
            .output_handle("next", &handles["next"])
            .output_handle("curr", &handles["curr"])
            .input_handle("load", &handles["load"])
            .build()
            .expect("valid body")
    };

    // Two names on one resident buffer within one job.
    let err = expect_err(JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(2)
        .output_handle("next", &handles["next"])
        .output_handle("curr", &handles["next"])
        .build());
    assert!(matches!(err, PipelineError::HandleConflict { .. }), "got {err}");

    // Loop shapes are validated up front.
    let err = expect_err(LoopSpec::<2>::builder().steps(3).build());
    assert!(matches!(err, PipelineError::InvalidLoop { .. }), "got {err}");
    let err = expect_err(LoopSpec::builder().job(body()).steps(0).build());
    assert!(matches!(err, PipelineError::InvalidLoop { .. }), "got {err}");
    let err = expect_err(LoopSpec::builder()
        .job(body())
        .steps(3)
        .rotate("next", "curr")
        .build());
    assert!(matches!(err, PipelineError::InvalidLoop { .. }), "got {err}");
    let err = expect_err(LoopSpec::builder()
        .job(body())
        .steps(3)
        .swap("next", "vorpal")
        .build());
    assert!(matches!(err, PipelineError::InvalidLoop { .. }), "got {err}");

    // A rotation renames buffers, it cannot reshape them: a swap between
    // arrays of different layout, or of unequal bounds, is refused by
    // name before anything runs.
    for (curr_bounds, curr_layout) in [
        (Region::rect([0, 0], [13, 9]), Layout::ColMajor),
        (Region::rect([0, 0], [13, 11]), Layout::RowMajor),
    ] {
        let mut prog = Program::<2>::new();
        let next = prog.array_with_layout("next", Region::rect([0, 0], [13, 9]), Layout::RowMajor);
        let curr = prog.array_with_layout("curr", curr_bounds, curr_layout);
        prog.stmt(
            Region::rect([1, 0], [13, 9]),
            next,
            Expr::lit(0.5) * Expr::read_primed_at(next, [-1, 0]) + Expr::read(curr),
        );
        let nest = Arc::new(compile(&prog).expect("compiles").nest(0).clone());
        let prog = Arc::new(prog);
        let h: HashMap<String, ArrayHandle<2>> = service
            .import_store(&prog, Store::new(&prog))
            .into_iter()
            .collect();
        let mixed = JobSpec::builder(Arc::clone(&prog), nest)
            .line(3)
            .block(BlockPolicy::Fixed(3))
            .engine(EngineKind::Threads)
            .output_handle("next", &h["next"])
            .output_handle("curr", &h["curr"])
            .build()
            .expect("each handle matches its declaration");
        let err = expect_err(LoopSpec::builder().job(mixed).steps(4).swap("next", "curr").build());
        assert!(
            matches!(&err, PipelineError::InvalidLoop { reason }
                if reason.contains("`next`") && reason.contains("`curr`")),
            "got {err}"
        );
    }

    // A written array left out of the handle table: state could not
    // carry across steps, so the build refuses.
    let unbound = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(2)
        .output_handle("curr", &handles["curr"])
        .input_handle("load", &handles["load"])
        .build()
        .expect("the job alone is valid");
    let err = expect_err(LoopSpec::builder().job(unbound).steps(3).build());
    assert!(matches!(err, PipelineError::InvalidLoop { .. }), "got {err}");

    // Use after free: reads, frees, jobs, and loops all surface
    // UnknownHandle — the table is consulted at dispatch, not build.
    let dead = service.alloc(handles["load"].bounds());
    service.free(&dead).expect("freeing a live handle");
    assert!(matches!(
        service.read(&dead),
        Err(PipelineError::UnknownHandle { .. })
    ));
    assert!(matches!(
        service.free(&dead),
        Err(PipelineError::UnknownHandle { .. })
    ));
    let stale = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(2)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(EngineKind::Threads)
        .output_handle("next", &handles["next"])
        .output_handle("curr", &handles["curr"])
        .input_handle("load", &dead)
        .build()
        .expect("builds against the freed token");
    let err = expect_err(service.submit(stale).wait());
    assert!(matches!(err, PipelineError::UnknownHandle { .. }), "got {err}");

    let dead_out = service.alloc(handles["next"].bounds());
    service.free(&dead_out).expect("freeing a live handle");
    let stale_loop = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(2)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(EngineKind::Threads)
        .output_handle("next", &dead_out)
        .output_handle("curr", &handles["curr"])
        .input_handle("load", &handles["load"])
        .build()
        .expect("builds against the freed token");
    let err = expect_err(service
        .submit_loop(
            LoopSpec::builder()
                .job(stale_loop)
                .steps(3)
                .swap("next", "curr")
                .build()
                .expect("the loop shape is valid"),
        )
        .wait());
    assert!(matches!(err, PipelineError::UnknownHandle { .. }), "got {err}");
}

/// Rotating two names that *start on one buffer* is legal per job (the
/// bindings live in different DAG nodes) but would merge the buffers'
/// histories — the loop build catches it as a handle conflict.
#[test]
fn cross_node_rotation_aliasing_is_a_handle_conflict() {
    let bounds = Region::rect([0, 0], [11, 11]);
    let cells = Region::rect([2, 2], [9, 9]);
    let build_one = |write: &str| {
        let mut prog = Program::<2>::new();
        let w = prog.array(write, bounds);
        let c = prog.array("coef", bounds);
        prog.stmt(
            cells,
            w,
            Expr::lit(0.5) * Expr::read_primed_at(w, [-1, 0]) + Expr::read_at(c, [0, 0]),
        );
        let compiled = compile(&prog).expect("program compiles");
        let nest = Arc::new(compiled.nest(0).clone());
        (Arc::new(prog), nest)
    };
    let (prog_u, nest_u) = build_one("u");
    let (prog_v, nest_v) = build_one("v");

    let service: WavefrontService<2> = WavefrontService::new();
    let shared_buf = service.alloc(bounds);
    let coef_buf = service.alloc(bounds);
    let mut d = DagSpec::builder();
    d.add_labeled(
        "writes-u",
        JobSpec::builder(prog_u, nest_u)
            .line(2)
            .engine(EngineKind::Threads)
            .output_handle("u", &shared_buf)
            .input_handle("coef", &coef_buf)
            .build()
            .expect("node builds"),
    );
    d.add_labeled(
        "writes-v",
        JobSpec::builder(prog_v, nest_v)
            .line(2)
            .engine(EngineKind::Threads)
            .output_handle("v", &shared_buf)
            .input_handle("coef", &coef_buf)
            .build()
            .expect("node builds"),
    );
    let err = expect_err(LoopSpec::builder()
        .dag(d.build().expect("valid dag"))
        .steps(2)
        .swap("u", "v")
        .build());
    assert!(matches!(err, PipelineError::HandleConflict { .. }), "got {err}");
}
