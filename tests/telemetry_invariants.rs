//! Invariants the telemetry layer must uphold across engines: observed
//! traffic matches the plan's static prediction, the simulator's phase
//! decomposition tiles the makespan exactly, and the default no-op
//! collector perturbs nothing.

use wavefront::core::prelude::*;
use wavefront::kernels::{sweep3d, tomcatv};
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    chrome_trace, BlockPolicy, EngineKind, JobTopology, JsonValue, Session, Session2D,
    TraceCollector, WavefrontPlan,
};

fn tomcatv_scan(n: i64) -> (wavefront::lang::Lowered<2>, CompiledNest<2>) {
    let lo = tomcatv::build(n).expect("tomcatv builds");
    let compiled = compile(&lo.program).expect("tomcatv compiles");
    let nest = compiled
        .nests()
        .find(|x| x.is_scan)
        .expect("has scan")
        .clone();
    (lo, nest)
}

fn filled_store(lo: &wavefront::lang::Lowered<2>) -> Store<2> {
    let mut store = Store::new(&lo.program);
    tomcatv::init(lo, &mut store);
    store
}

/// Acceptance invariant: the threaded engine's observed boundary-message
/// count equals the count the plan it ran predicts statically — under
/// Model2 the model's plan fitted to the lane strip (`Session::plan`).
#[test]
fn threaded_observed_messages_match_plan_prediction() {
    for (p, policy) in [
        (4, BlockPolicy::Model2),
        (8, BlockPolicy::Fixed(6)),
        (3, BlockPolicy::FullPortion),
    ] {
        let (lo, nest) = tomcatv_scan(64);
        let params = cray_t3e();
        let session = || Session::new(&lo.program, &nest).procs(p).block(policy.clone());
        let plan = session().machine(params).plan().unwrap();
        let predicted = plan.predicted_traffic();

        let mut trace = TraceCollector::default();
        let mut store = filled_store(&lo);
        let out = session()
            .machine(params)
            .collector(&mut trace)
            .store(&mut store)
            .run(EngineKind::Threads)
            .unwrap();
        assert_eq!(out.block, plan.block, "p={p}");

        let report = trace.report();
        assert_eq!(
            report.messages, predicted.messages,
            "p={p}: observed {} != predicted {}",
            report.messages, predicted.messages
        );
        assert_eq!(report.elements, predicted.elements);
        assert_eq!(report.bytes, predicted.bytes);
        assert_eq!(out.messages, report.messages);
        // The report carries the same prediction it was checked against.
        assert_eq!(report.meta.predicted.messages, predicted.messages);
    }
}

/// The simulator sends exactly the messages the threaded runtime sends:
/// both equal the static prediction, so the DES is a faithful traffic
/// model of the real execution. The threads run the model's plan fitted
/// to the lane strip; the simulator prices that plan as a fixed `b`.
#[test]
fn simulator_and_threads_agree_on_traffic() {
    let (lo, nest) = tomcatv_scan(48);
    let p = 6;

    let mut thr_trace = TraceCollector::default();
    let mut store = filled_store(&lo);
    let thr = Session::new(&lo.program, &nest)
        .procs(p)
        .collector(&mut thr_trace)
        .store(&mut store)
        .run(EngineKind::Threads)
        .unwrap();

    let mut sim_trace = TraceCollector::default();
    let sim = Session::new(&lo.program, &nest)
        .procs(p)
        .block(BlockPolicy::Fixed(thr.block))
        .collector(&mut sim_trace)
        .run(EngineKind::Sim)
        .unwrap();

    assert_eq!(sim.messages, thr.messages);
    let (sr, tr) = (sim_trace.report(), thr_trace.report());
    assert_eq!(sr.messages, tr.messages);
    assert_eq!(sr.elements, tr.elements);
    assert_eq!(sr.meta.predicted, tr.meta.predicted);
}

/// In the simulator's model-time event stream the fill / steady / drain
/// decomposition tiles the makespan exactly (it is constructed that way;
/// the epsilon only absorbs float summation).
#[test]
fn sim_phases_sum_to_makespan() {
    for p in [2, 4, 8] {
        let (lo, nest) = tomcatv_scan(56);
        let mut trace = TraceCollector::default();
        let out = Session::new(&lo.program, &nest)
            .procs(p)
            .collector(&mut trace)
            .run(EngineKind::Sim)
            .unwrap();
        let r = trace.report();
        let total = r.phases.fill + r.phases.steady + r.phases.drain;
        assert!(
            (total - r.makespan).abs() <= 1e-9 * r.makespan.max(1.0),
            "p={p}: fill {} + steady {} + drain {} != makespan {}",
            r.phases.fill,
            r.phases.steady,
            r.phases.drain,
            r.makespan
        );
        assert!((r.makespan - out.makespan).abs() <= f64::EPSILON * out.makespan);
        assert!(r.phases.fill >= 0.0 && r.phases.steady >= 0.0 && r.phases.drain >= 0.0);
        // A pipelined multi-processor run actually has a ramp-up.
        if r.meta.pipelined {
            assert!(
                r.phases.fill > 0.0,
                "p={p}: pipelined run has no fill phase"
            );
        }
    }
}

/// Running the threaded engine under the default no-op collector sends
/// exactly the same boundary messages as an instrumented run, and the
/// data is bit-identical: telemetry is observation only.
#[test]
fn noop_collector_adds_no_messages_and_changes_no_data() {
    let (lo, nest) = tomcatv_scan(40);
    let params = cray_t3e();

    let mut noop_store = filled_store(&lo);
    let noop_out = Session::new(&lo.program, &nest)
        .procs(5)
        .block(BlockPolicy::Model2)
        .machine(params)
        .store(&mut noop_store)
        .run(EngineKind::Threads)
        .unwrap();

    let mut trace = TraceCollector::default();
    let mut traced_store = filled_store(&lo);
    let traced_out = Session::new(&lo.program, &nest)
        .procs(5)
        .block(BlockPolicy::Model2)
        .machine(params)
        .collector(&mut trace)
        .store(&mut traced_store)
        .run(EngineKind::Threads)
        .unwrap();

    assert_eq!(noop_out.messages, traced_out.messages);
    assert_eq!(trace.report().messages, noop_out.messages);
    for name in ["r", "d", "rx", "ry"] {
        let id = lo.array(name).unwrap();
        assert!(
            noop_store
                .get(id)
                .region_eq(traced_store.get(id), nest.region),
            "telemetry changed array {name}"
        );
    }
}

fn sweep_scan(n: i64) -> (wavefront::lang::Lowered<3>, CompiledNest<3>) {
    let lo = sweep3d::build_octant(n, [-1, -1, -1]).expect("sweep builds");
    let compiled = compile(&lo.program).expect("sweep compiles");
    let nest = compiled
        .nests()
        .find(|x| x.is_scan)
        .expect("has scan")
        .clone();
    (lo, nest)
}

/// The mesh engines uphold the same predicted==observed invariant as the
/// 1-D ones, through `Session2D`, on both the simulator and the real
/// threaded runtime.
#[test]
fn mesh_observed_traffic_matches_plan_prediction() {
    let (lo, nest) = sweep_scan(12);
    let params = cray_t3e();
    for (mesh, policy) in [
        ([2usize, 2usize], BlockPolicy::Model2),
        ([2, 3], BlockPolicy::Fixed(3)),
        ([2, 2], BlockPolicy::FullPortion),
    ] {
        let plan = WavefrontPlan::build(&nest, JobTopology::mesh(mesh), &policy, &params).unwrap();
        let predicted = plan.predicted_traffic();
        for kind in [EngineKind::Sim, EngineKind::Threads] {
            let mut store = Store::new(&lo.program);
            sweep3d::init(&lo, &mut store);
            let mut trace = TraceCollector::default();
            let mut session = Session2D::new(&lo.program, &nest)
                .mesh(mesh)
                .block(policy.clone())
                .machine(params)
                .collector(&mut trace);
            if kind != EngineKind::Sim {
                session = session.store(&mut store);
            }
            let out = session.run(kind).unwrap();
            let report = trace.report();
            assert_eq!(
                report.messages, predicted.messages,
                "mesh {mesh:?} {policy:?} {kind:?}: observed {} != predicted {}",
                report.messages, predicted.messages
            );
            assert_eq!(report.elements, predicted.elements);
            assert_eq!(report.bytes, predicted.bytes);
            assert_eq!(out.messages, report.messages);
        }
    }
}

/// `fill + steady + drain == makespan` holds through `Session2D` on the
/// mesh simulator, exactly as it does for the 1-D engines.
#[test]
fn mesh_sim_phases_sum_to_makespan() {
    let (lo, nest) = sweep_scan(12);
    for mesh in [[2usize, 2usize], [2, 4], [3, 3]] {
        let mut trace = TraceCollector::default();
        let out = Session2D::new(&lo.program, &nest)
            .mesh(mesh)
            .collector(&mut trace)
            .run(EngineKind::Sim)
            .unwrap();
        let r = trace.report();
        let total = r.phases.fill + r.phases.steady + r.phases.drain;
        assert!(
            (total - r.makespan).abs() <= 1e-9 * r.makespan.max(1.0),
            "mesh {mesh:?}: fill {} + steady {} + drain {} != makespan {}",
            r.phases.fill,
            r.phases.steady,
            r.phases.drain,
            r.makespan
        );
        assert!((r.makespan - out.makespan).abs() <= f64::EPSILON * out.makespan);
        assert!(r.phases.fill >= 0.0 && r.phases.steady >= 0.0 && r.phases.drain >= 0.0);
    }
}

/// The Chrome trace-event export is well-formed: it parses, complete
/// events cover every block, timestamps are sorted, and every flow
/// start (`"s"`) has exactly one matching finish (`"f"`) with the same
/// id.
#[test]
fn chrome_trace_export_is_well_formed() {
    let (lo, nest) = tomcatv_scan(48);
    let mut trace = TraceCollector::default();
    Session::new(&lo.program, &nest)
        .procs(4)
        .collector(&mut trace)
        .run(EngineKind::Sim)
        .unwrap();
    let doc = chrome_trace("tomcatv", &trace).expect("export");
    let v = JsonValue::parse(&doc).expect("chrome trace parses");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();

    let mut last_ts = f64::NEG_INFINITY;
    let mut complete = 0usize;
    let mut starts: Vec<f64> = Vec::new();
    let mut finishes: Vec<f64> = Vec::new();
    for e in events {
        if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
            assert!(ts >= last_ts, "events must be sorted by ts");
            last_ts = ts;
        }
        match e
            .get("ph")
            .and_then(|p| p.as_str())
            .expect("every event has ph")
        {
            "X" => {
                complete += 1;
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            }
            "s" => starts.push(e.get("id").unwrap().as_f64().unwrap()),
            "f" => finishes.push(e.get("id").unwrap().as_f64().unwrap()),
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(complete, trace.blocks().len() + trace.waits().len());
    assert_eq!(starts.len(), trace.messages().len());
    starts.sort_by(f64::total_cmp);
    finishes.sort_by(f64::total_cmp);
    assert_eq!(starts, finishes, "flow ids must pair up");
}

/// The per-processor timelines are internally consistent with the run's
/// totals: every message has one sender and one receiver among the
/// active processors, and compute fits inside [first_start, last_finish].
#[test]
fn per_proc_timelines_are_consistent() {
    let (lo, nest) = tomcatv_scan(64);
    let mut trace = TraceCollector::default();
    let mut store = filled_store(&lo);
    Session::new(&lo.program, &nest)
        .procs(4)
        .collector(&mut trace)
        .store(&mut store)
        .run(EngineKind::Threads)
        .unwrap();
    let r = trace.report();

    let sent: usize = r.per_proc.iter().map(|t| t.msgs_sent).sum();
    let recv: usize = r.per_proc.iter().map(|t| t.msgs_recv).sum();
    assert_eq!(sent, r.messages);
    assert_eq!(recv, r.messages);
    let elems_out: usize = r.per_proc.iter().map(|t| t.elems_sent).sum();
    assert_eq!(elems_out, r.elements);

    for t in &r.per_proc {
        assert!(t.blocks > 0, "active proc {} computed nothing", t.proc);
        assert!(t.first_start <= t.last_finish);
        assert!(
            t.compute <= (t.last_finish - t.first_start) + 1e-9,
            "proc {}: compute {} exceeds its own span {}",
            t.proc,
            t.compute,
            t.last_finish - t.first_start
        );
        assert!(t.last_finish <= r.makespan + 1e-9);
    }
}
