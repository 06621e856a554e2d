//! Behavioural contract of DAG submission: a dependent job graph run
//! through [`WavefrontService::submit_dag`] is bit-identical to running
//! the same jobs one at a time, in topological order, through plain
//! sequential `Session` runs with the outputs copied by hand; cycles
//! are rejected as typed errors before anything runs; and the choice of
//! scheduler (fifo / critical-path / locality) never changes results —
//! only order. Real and simulated execution share one driver, so the
//! scheduler and failure-propagation contracts are checked with the
//! mode as an input.
//!
//! Random programs are sampled with the crate's own [`SplitMix64`]
//! (same harness as `tests/service.rs`), so every run exercises the
//! same deterministic case set.

use std::sync::Arc;

use wavefront::core::prelude::*;
use wavefront::kernels::rng::SplitMix64;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    BlockPolicy, DagOutcome, DagSpec, EngineKind, JobSpec, JobTopology, NodeRef, PipelineError,
    SchedulerKind, Session, WavefrontService,
};

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Fifo,
    SchedulerKind::CriticalPath,
    SchedulerKind::Locality,
];

/// Primed directions that keep a single-assignment scan legal.
const PRIMED: [[i64; 2]; 4] = [[-1, 0], [-1, -1], [-1, 1], [-2, 0]];
/// Free shifts for the read-only array.
const FREE: [[i64; 2]; 4] = [[0, 0], [1, 0], [0, -1], [-1, 1]];

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
    match rng.gen_range(4) {
        0 => lhs + random_expr(rng, a, b, depth - 1),
        1 => lhs - random_expr(rng, a, b, depth - 1),
        2 => lhs * random_expr(rng, a, b, depth - 1),
        _ => lhs.max(random_expr(rng, a, b, depth - 1)),
    }
}

fn init_store<const R: usize>(p: &Program<R>, seed: u64) -> Store<R> {
    let mut store = Store::new(p);
    for id in 0..store.len() {
        let bounds = store.get(id).bounds();
        *store.get_mut(id) = DenseArray::from_fn(bounds, |q| {
            let h = (q[0] as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(q[R - 1] as u64)
                .wrapping_mul(seed | 1)
                .wrapping_add(id as u64);
            (h % 1009) as f64 / 1009.0
        });
    }
    store
}

/// One random scan program plus its compiled nest and an initial store.
struct Case {
    program: Arc<Program<2>>,
    nest: Arc<CompiledNest<2>>,
    initial: Store<2>,
}

fn random_case(rng: &mut SplitMix64) -> Case {
    loop {
        let n = 8 + rng.gen_range(8) as i64;
        let depth = 1 + rng.gen_range(3);
        let seed = rng.next_u64();

        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        let rhs =
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + random_expr(rng, a, b, depth);
        prog.stmt(Region::rect([2, 2], [n - 1, n - 1]), a, rhs);

        let compiled = match compile(&prog) {
            Ok(c) => c,
            Err(Error::OverConstrained { .. }) => continue,
            Err(e) => panic!("unexpected legality error: {e}"),
        };
        let nest = Arc::new(compiled.nest(0).clone());
        let initial = init_store(&prog, seed);
        return Case {
            program: Arc::new(prog),
            nest,
            initial,
        };
    }
}

/// Run `steps` chained `Session` executions sequentially — the
/// reference a DAG chain must match bit-for-bit.
fn sequential_chain(case: &Case, steps: usize) -> Store<2> {
    let mut store = case.initial.clone();
    for _ in 0..steps {
        Session::new(&case.program, &case.nest)
            .procs(4)
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .store(&mut store)
            .run(EngineKind::Seq)
            .unwrap();
    }
    store
}

fn node_spec(case: &Case, engine: EngineKind, prev: Option<NodeRef>) -> JobSpec<2> {
    let mut b = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(engine);
    b = match prev {
        None => b.store(case.initial.clone()),
        Some(p) => ["a", "b"].iter().fold(b, |s, name| s.input_from(p, *name)),
    };
    b.build().expect("valid spec")
}

/// The dispatch record of any run, real or simulated: no node twice,
/// and a node only after every predecessor named in `edges`
/// (`(producer, consumer)` node indices).
fn assert_decisions_topological(out: &DagOutcome<2>, edges: &[(usize, usize)], what: &str) {
    let mut at = vec![None; out.nodes.len()];
    for (i, d) in out.stats.decisions.iter().enumerate() {
        assert_eq!(d.order, i, "{what}: decisions are numbered in order");
        assert!(
            at[d.node].replace(i).is_none(),
            "{what}: node {} dispatched twice",
            d.node
        );
    }
    for &(p, c) in edges {
        if let Some(c_at) = at[c] {
            assert!(
                at[p].is_some_and(|p_at| p_at < c_at),
                "{what}: node {c} dispatched before its producer {p}"
            );
        }
    }
}

/// One seeded random DAG of at most 8 nodes over `case`, on `engine`
/// (sim or real): node `i > 0` takes `a` and `b` from up to two earlier
/// nodes, and node `broken` asks for a distribution dimension its nest
/// does not have, so its plan cannot be built — on data or in the
/// simulator. Returns the spec and its `(producer, consumer)` edges.
fn random_dag(
    seed: u64,
    case: &Case,
    engine: EngineKind,
    kind: SchedulerKind,
) -> (DagSpec<2>, Vec<(usize, usize)>) {
    let mut rng = SplitMix64::new(seed);
    let n = 3 + rng.gen_range(6);
    let broken = rng.gen_range(n);
    let mut b = DagSpec::builder();
    b.scheduler(kind).sim_procs(8);
    let mut refs: Vec<NodeRef> = Vec::new();
    let mut edges = Vec::new();
    for i in 0..n {
        let mut spec = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
            .block(BlockPolicy::Fixed(4))
            .machine(cray_t3e())
            .engine(engine)
            .topology(JobTopology::Line {
                procs: 4,
                dist_dim: (i == broken).then_some(7),
            });
        let mut fed = false;
        for name in ["a", "b"] {
            if i > 0 && rng.gen_range(3) > 0 {
                let p = rng.gen_range(i);
                spec = spec.input_from(refs[p], name);
                edges.push((p, i));
                fed = true;
            }
        }
        if !fed && engine != EngineKind::Sim {
            spec = spec.store(case.initial.clone());
        }
        refs.push(b.add_labeled(format!("n{i}"), spec.build().expect("valid spec")));
    }
    (b.build().expect("acyclic by construction"), edges)
}

/// Chains of dependent jobs through the DAG runner are bit-identical to
/// hand-chained sequential `Session` runs, on both real engines.
#[test]
fn dag_chain_matches_sequential_sessions() {
    let mut rng = SplitMix64::new(0xDA6_C4A1);
    let service: WavefrontService<2> = WavefrontService::new();
    for (i, engine) in [EngineKind::Seq, EngineKind::Threads, EngineKind::Seq]
        .into_iter()
        .enumerate()
    {
        let case = random_case(&mut rng);
        let steps = 3 + i;
        let want = sequential_chain(&case, steps);

        let mut b = DagSpec::builder();
        let mut prev = None;
        for k in 0..steps {
            prev = Some(b.add_labeled(format!("s{k}"), node_spec(&case, engine, prev)));
        }
        let mut out = service.submit_dag(b.build().unwrap()).wait();
        assert!(
            out.all_ok(),
            "case {i}: {:?}",
            out.nodes.iter().find_map(|n| n.result.as_ref().err())
        );
        let last = format!("s{}", steps - 1);
        for (id, name) in [(0usize, "a"), (1usize, "b")] {
            let got = out.take_output(&last, name).unwrap().to_array();
            let bounds = want.get(id).bounds();
            assert!(
                bounds.iter().all(|p| got.get(p) == want.get(id).get(p)),
                "case {i} ({engine:?}): array `{name}` differs from the sequential chain"
            );
        }
        assert!(
            out.stats.bytes_shared > 0,
            "case {i}: chained inputs must be handed over by refcount"
        );
    }
}

/// A diamond (one producer, two parallel consumers, one join reading
/// from both) matches the hand-run reference, including the join's
/// mixed-source store.
#[test]
fn dag_diamond_matches_hand_chained_reference() {
    let mut rng = SplitMix64::new(0xD1A_40D1);
    let case = random_case(&mut rng);
    let service: WavefrontService<2> = WavefrontService::new();

    // Reference: p then (b, c from p's result) then join with a from b,
    // b-array from c.
    let after_p = sequential_chain(&case, 1);
    let mut side = after_p.clone();
    Session::new(&case.program, &case.nest)
        .procs(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .store(&mut side)
        .run(EngineKind::Seq)
        .unwrap();
    // Both sides are identical programs on identical inputs, so the
    // join's store is `side` again; run once more for the join.
    let mut want = side.clone();
    Session::new(&case.program, &case.nest)
        .procs(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .store(&mut want)
        .run(EngineKind::Seq)
        .unwrap();

    let mut b = DagSpec::builder();
    let p = b.add_labeled("p", node_spec(&case, EngineKind::Threads, None));
    let left = b.add_labeled("left", node_spec(&case, EngineKind::Threads, Some(p)));
    let right = b.add_labeled("right", node_spec(&case, EngineKind::Seq, Some(p)));
    let join_spec = JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(4)
        .block(BlockPolicy::Fixed(4))
        .machine(cray_t3e())
        .engine(EngineKind::Threads)
        .input_from(left, "a")
        .input_from(right, "b")
        .build()
        .unwrap();
    b.add_labeled("join", join_spec);
    let mut out = service.submit_dag(b.build().unwrap()).wait();
    assert!(
        out.all_ok(),
        "{:?}",
        out.nodes.iter().find_map(|n| n.result.as_ref().err())
    );
    for (id, name) in [(0usize, "a"), (1usize, "b")] {
        let got = out.take_output("join", name).unwrap().to_array();
        let bounds = want.get(id).bounds();
        assert!(
            bounds.iter().all(|q| got.get(q) == want.get(id).get(q)),
            "join array `{name}` differs from the hand-chained reference"
        );
    }
}

/// The scheduler choice reorders dispatch but never changes values, in
/// either mode: fifo, critical-path, and locality all produce
/// bit-identical outputs for the same two-chain DAG on data, and
/// bit-identical per-node model-unit costs in the simulator; and every
/// dispatch record is a topological order.
#[test]
fn scheduler_choice_never_changes_results() {
    let mut rng = SplitMix64::new(0x5C4ED);
    let case_a = random_case(&mut rng);
    let case_b = random_case(&mut rng);
    let service: WavefrontService<2> = WavefrontService::new();
    let chain_edges = [(0, 1), (1, 2), (3, 4), (4, 5)];

    let run = |kind: SchedulerKind, engine: EngineKind| {
        let mut b = DagSpec::builder();
        b.scheduler(kind).sim_procs(8);
        for (tag, case) in [("a", &case_a), ("b", &case_b)] {
            let mut prev = None;
            for k in 0..3 {
                prev = Some(b.add_labeled(format!("{tag}{k}"), node_spec(case, engine, prev)));
            }
        }
        let mut out = service.submit_dag(b.build().unwrap()).wait();
        assert!(
            out.all_ok(),
            "{kind:?} {engine:?}: {:?}",
            out.nodes.iter().find_map(|n| n.result.as_ref().err())
        );
        assert_eq!(out.stats.scheduler, kind.name());
        assert_eq!(out.stats.decisions.len(), 6, "{kind:?} {engine:?}");
        assert_decisions_topological(&out, &chain_edges, &format!("{kind:?} {engine:?}"));
        let mut values = Vec::new();
        if engine == EngineKind::Sim {
            for node in &out.nodes {
                let cost = node.result.as_ref().unwrap().outcome.makespan;
                values.push(cost.to_bits());
            }
        } else {
            for tag in ["a", "b"] {
                for name in ["a", "b"] {
                    let arr = out.take_output(&format!("{tag}2"), name).unwrap();
                    values.extend(arr.as_slice().iter().map(|v| v.to_bits()));
                }
            }
        }
        values
    };

    for engine in [EngineKind::Threads, EngineKind::Sim] {
        let fifo = run(SchedulerKind::Fifo, engine);
        let cp = run(SchedulerKind::CriticalPath, engine);
        let locality = run(SchedulerKind::Locality, engine);
        assert_eq!(fifo, cp, "{engine:?}: critical-path scheduling changed results");
        assert_eq!(fifo, locality, "{engine:?}: locality scheduling changed results");
    }
}

/// A cyclic graph (constructible only by misusing `NodeRef`s from
/// another builder) is rejected at build time as a typed
/// [`PipelineError::CyclicDag`] naming the cycle.
#[test]
fn cycles_are_rejected_before_anything_runs() {
    let mut rng = SplitMix64::new(0xC1C1E);
    let case = random_case(&mut rng);
    // NodeRef has no public constructor from thin air; mint refs by
    // building a throwaway DAG of the right size, then misuse them in a
    // fresh builder so the edges point forward.
    let mut throwaway = DagSpec::builder();
    let r0 = throwaway.add(node_spec(&case, EngineKind::Seq, None));
    let r1 = throwaway.add(node_spec(&case, EngineKind::Seq, None));

    let mut b = DagSpec::builder();
    b.add_labeled("x", node_spec(&case, EngineKind::Seq, Some(r1)));
    b.add_labeled("y", node_spec(&case, EngineKind::Seq, Some(r0)));
    match b.build() {
        Err(PipelineError::CyclicDag { nodes }) => {
            assert_eq!(nodes.first(), nodes.last(), "cycle lists its start twice");
            assert!(nodes.len() >= 3, "{nodes:?}");
        }
        Err(other) => panic!("expected CyclicDag, got {other}"),
        Ok(_) => panic!("cyclic dag must not build"),
    }
}

/// A node whose input cannot be installed (producer array bounds differ
/// from the consumer's declaration) fails typed, and its successor
/// fails with [`PipelineError::DependencyFailed`] naming the producer —
/// no hang, no panic. And a failure both modes can see — a node whose
/// plan cannot be built — ends the same way on data and in the
/// simulator, under every scheduler: the same nodes `Ok`, failed, or
/// `DependencyFailed` on the same producer.
#[test]
fn runtime_failures_propagate_as_dependency_errors() {
    let mut rng = SplitMix64::new(0xFA11);
    let small = random_case(&mut rng);
    // A structurally different case: bounds won't match `small`'s.
    let big = loop {
        let c = random_case(&mut rng);
        if c.initial.get(0).bounds() != small.initial.get(0).bounds() {
            break c;
        }
    };
    let service: WavefrontService<2> = WavefrontService::new();

    let mut b = DagSpec::builder();
    let p = b.add_labeled("producer", node_spec(&big, EngineKind::Seq, None));
    let bad = b.add_labeled("bad", node_spec(&small, EngineKind::Seq, Some(p)));
    b.add_labeled("downstream", node_spec(&small, EngineKind::Seq, Some(bad)));
    let out = service.submit_dag(b.build().unwrap()).wait();

    assert!(out.node("producer").unwrap().result.is_ok());
    let bad_err = match &out.node("bad").unwrap().result {
        Err(e) => e,
        Ok(_) => panic!("mismatched input bounds must fail the consumer"),
    };
    assert!(
        matches!(bad_err, PipelineError::InvalidJob { .. }),
        "{bad_err}"
    );
    let down_err = match &out.node("downstream").unwrap().result {
        Err(e) => e,
        Ok(_) => panic!("a failed producer must fail its consumers"),
    };
    match down_err {
        PipelineError::DependencyFailed { producer, .. } => assert_eq!(producer, "bad"),
        other => panic!("expected DependencyFailed, got {other}"),
    }
    assert_eq!(out.stats.failed, 2);

    // How every node of `out` ended.
    let endings = |out: &DagOutcome<2>| -> Vec<String> {
        out.nodes
            .iter()
            .map(|n| match &n.result {
                Ok(_) => "ok".to_string(),
                Err(PipelineError::DependencyFailed { producer, .. }) => {
                    format!("after {producer}")
                }
                Err(PipelineError::WaveNotDistributed { .. }) => "unplannable".to_string(),
                Err(other) => panic!("node {}: unexpected failure {other}", n.label),
            })
            .collect()
    };
    let mut chained = false;
    for seed in 0..12u64 {
        let mut want: Option<Vec<String>> = None;
        for engine in [EngineKind::Seq, EngineKind::Sim] {
            for kind in SCHEDULERS {
                let what = format!("seed {seed} {engine:?} {kind:?}");
                let (dag, edges) = random_dag(0xD0_0000 + seed, &small, engine, kind);
                let out = service.submit_dag(dag).wait();
                let got = endings(&out);
                assert_eq!(
                    got.iter().filter(|e| *e == "unplannable").count(),
                    1,
                    "{what}: exactly the broken node fails on its own: {got:?}"
                );
                let failed = got.iter().filter(|e| *e != "ok").count();
                assert_eq!(out.stats.failed, failed, "{what}: {got:?}");
                assert_decisions_topological(&out, &edges, &what);
                // Every node that ended `ok` was dispatched, and nothing
                // downstream of the broken node ever was.
                for (v, ending) in got.iter().enumerate() {
                    let dispatched = out.stats.decisions.iter().any(|d| d.node == v);
                    match ending.as_str() {
                        "ok" => assert!(dispatched, "{what}: node {v} ran undispatched"),
                        // Data runs dispatch it to find out; the
                        // simulator's probe already knew.
                        "unplannable" => {}
                        _ => assert!(!dispatched, "{what}: node {v} ran {ending}"),
                    }
                }
                chained |= got.iter().any(|e| e.starts_with("after"));
                assert_eq!(*want.get_or_insert(got.clone()), got, "{what}");
            }
        }
    }
    assert!(chained, "no sampled dag put a node downstream of the broken one");
}

/// The same chain shape runs as a what-if discrete-event simulation
/// when every node uses the sim engine: placements are recorded, the
/// makespan is in model units, and two chains on twice the processors
/// overlap (makespan < serial sum).
#[test]
fn sim_dags_simulate_placement_and_overlap() {
    let mut rng = SplitMix64::new(0x51AB);
    let case = random_case(&mut rng);
    let service: WavefrontService<2> = WavefrontService::new();

    let mut b = DagSpec::builder();
    b.sim_procs(8);
    for tag in ["a", "b"] {
        let mut prev = None;
        for k in 0..3 {
            prev = Some(b.add_labeled(
                format!("{tag}{k}"),
                node_spec(&case, EngineKind::Sim, prev),
            ));
        }
    }
    let out = service.submit_dag(b.build().unwrap()).wait();
    assert!(
        out.all_ok(),
        "{:?}",
        out.nodes.iter().find_map(|n| n.result.as_ref().err())
    );
    let s = &out.stats;
    assert_eq!(s.time_unit.name(), "model_units");
    assert!(s.makespan > 0.0 && s.makespan.is_finite());
    assert!(
        s.makespan < s.serial_time,
        "two independent chains on 8 simulated procs must overlap: \
         makespan {} vs serial {}",
        s.makespan,
        s.serial_time
    );
    assert!(
        s.decisions.iter().all(|d| d.placement.is_some()),
        "sim dispatches record placements"
    );
}
