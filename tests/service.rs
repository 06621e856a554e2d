//! Behavioural contract of the persistent [`WavefrontService`]:
//! concurrent jobs are bit-identical to one-shot `Session` runs, the
//! compiled-plan cache accounts every hit and miss exactly, a full
//! submission queue blocks (never drops), steady traffic spawns no
//! per-job threads, and the runner threads of DAGs and loops are joined
//! as they end, not hoarded until shutdown.
//!
//! Random programs are sampled with the crate's own [`SplitMix64`]
//! (same harness as `tests/kernel_differential.rs`), so every run
//! exercises the same deterministic case set.

use std::sync::Arc;

use wavefront::core::prelude::*;
use wavefront::kernels::rng::SplitMix64;
use wavefront::kernels::tomcatv;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    BlockPolicy, DagSpec, EngineKind, JobSpec, JobTopology, LoopSpec, ServiceConfig, Session,
    WavefrontService,
};

/// Primed directions that keep a single-assignment scan legal.
const PRIMED: [[i64; 2]; 5] = [[-1, 0], [-1, -1], [-1, 1], [-2, 0], [-1, -2]];
/// Free shifts for the read-only array (any direction is legal).
const FREE: [[i64; 2]; 6] = [[0, 0], [1, 0], [0, -1], [-1, 1], [2, 2], [-2, 0]];

/// A random expression tree over `a` (written, primed reads only) and
/// `b` (read-only, arbitrary shifts).
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
    match rng.gen_range(6) {
        0 => -lhs,
        1 => lhs + random_expr(rng, a, b, depth - 1),
        2 => lhs - random_expr(rng, a, b, depth - 1),
        3 => lhs * random_expr(rng, a, b, depth - 1),
        4 => lhs.min(random_expr(rng, a, b, depth - 1)),
        _ => lhs.max(random_expr(rng, a, b, depth - 1)),
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

/// One random differential case: a compiled scan program, its initial
/// store, and the reference result of a one-shot sequential `Session`.
struct Case {
    program: Arc<Program<2>>,
    nest: Arc<CompiledNest<2>>,
    initial: Store<2>,
    reference: Store<2>,
    procs: usize,
    block: usize,
    engine: EngineKind,
}

fn random_cases(count: usize) -> Vec<Case> {
    let mut rng = SplitMix64::new(0x5E27_1CE5);
    let mut cases = Vec::new();
    while cases.len() < count {
        let n = 8 + rng.gen_range(12) as i64;
        let depth = 1 + rng.gen_range(3);
        let procs = 1 + rng.gen_range(4);
        let block = 1 + rng.gen_range(9);
        let seed = rng.next_u64();

        let bounds = Region::rect([0, 0], [n + 1, n + 1]);
        let mut prog = Program::<2>::new();
        let a = prog.array("a", bounds);
        let b = prog.array("b", bounds);
        let rhs =
            Expr::lit(0.5) * Expr::read_primed_at(a, [-1, 0]) + random_expr(&mut rng, a, b, depth);
        prog.stmt(Region::rect([2, 2], [n - 1, n - 1]), a, rhs);

        let compiled = match compile(&prog) {
            Ok(c) => c,
            Err(Error::OverConstrained { .. }) => continue,
            Err(e) => panic!("unexpected legality error: {e}"),
        };
        let nest = compiled.nest(0).clone();

        let initial = init_store(&prog, seed);
        let mut reference = initial.clone();
        Session::new(&prog, &nest)
            .procs(procs)
            .block(BlockPolicy::Fixed(block))
            .machine(cray_t3e())
            .store(&mut reference)
            .run(EngineKind::Seq)
            .unwrap();

        let engine = if cases.len() % 2 == 0 {
            EngineKind::Threads
        } else {
            EngineKind::Seq
        };
        cases.push(Case {
            program: Arc::new(prog),
            nest: Arc::new(nest),
            initial,
            reference,
            procs,
            block,
            engine,
        });
    }
    cases
}

fn spec_for(case: &Case) -> JobSpec<2> {
    JobSpec::builder(Arc::clone(&case.program), Arc::clone(&case.nest))
        .line(case.procs)
        .block(BlockPolicy::Fixed(case.block))
        .machine(cray_t3e())
        .engine(case.engine)
        .store(case.initial.clone())
        .build()
        .expect("valid job spec")
}

/// A tiny fixed job (8×8 Tomcatv wavefront) for queue and pool tests.
fn tiny_case() -> (Arc<Program<2>>, Arc<CompiledNest<2>>, Store<2>) {
    let lo = tomcatv::build(8).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = compiled.nests().find(|x| x.is_scan).unwrap().clone();
    let mut store = Store::new(&lo.program);
    tomcatv::init(&lo, &mut store);
    (Arc::new(lo.program), Arc::new(nest), store)
}

/// Jobs submitted concurrently from several threads produce stores
/// bit-identical to one-shot sequential `Session` runs of the same
/// programs — the cache and the shared pool must not leak state
/// between unrelated jobs in flight.
#[test]
fn concurrent_submits_match_sequential_sessions() {
    let cases = random_cases(24);
    let service: WavefrontService<2> = WavefrontService::new();

    std::thread::scope(|scope| {
        for (t, chunk) in cases.chunks(6).enumerate() {
            let service = &service;
            scope.spawn(move || {
                for (i, case) in chunk.iter().enumerate() {
                    let mut out = service
                        .submit(spec_for(case))
                        .wait()
                        .unwrap_or_else(|e| panic!("thread {t} case {i}: job failed: {e}"));
                    let region = case.nest.region;
                    for id in 0..case.reference.len() {
                        let name = case.program.name_of(id);
                        let got = out
                            .take_output(&name)
                            .unwrap_or_else(|e| {
                                panic!("thread {t} case {i}: missing output `{name}`: {e}")
                            })
                            .to_array();
                        assert!(
                            case.reference.get(id).region_eq(&got, region),
                            "thread {t} case {i}: array {id} differs from the \
                             sequential Session run ({:?})",
                            case.engine
                        );
                    }
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.jobs_submitted, 24);
    assert_eq!(stats.jobs_completed, 24);
}

/// The compiled-plan cache accounts exactly: one miss for a new
/// fingerprint, hits for every identical resubmission, and a fresh miss
/// when any plan-relevant knob (here the block policy) changes.
#[test]
fn cache_hit_and_miss_accounting_is_exact() {
    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::new();
    let spec = |policy: BlockPolicy| {
        JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(4)
            .block(policy)
            .machine(cray_t3e())
            .store(store.clone())
            .build()
            .expect("valid job spec")
    };

    for _ in 0..5 {
        service.submit(spec(BlockPolicy::Fixed(2))).wait().unwrap();
    }
    let s = service.stats();
    assert_eq!(s.cache_misses, 1, "first submission compiles the plan");
    assert_eq!(s.cache_hits, 4, "identical resubmissions all hit");
    assert_eq!(s.cache_entries, 1);

    service.submit(spec(BlockPolicy::Fixed(3))).wait().unwrap();
    let s = service.stats();
    assert_eq!(
        s.cache_misses, 2,
        "a changed block policy is a new fingerprint"
    );
    assert_eq!(s.cache_hits, 4);
    assert_eq!(s.cache_entries, 2);

    service.submit(spec(BlockPolicy::Fixed(2))).wait().unwrap();
    let s = service.stats();
    assert_eq!(s.cache_misses, 2, "the original plan is still resident");
    assert_eq!(s.cache_hits, 5);
}

/// One cached entry serves both plans of a Model2 job whose b is
/// narrower than the lane strip: the simulator runs the model's b, Seq
/// and Threads the strip's, on the first submission and on every hit.
#[test]
fn a_cached_entry_runs_the_fitted_plan_on_the_executing_engines() {
    let lo = tomcatv::build(64).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = Arc::new(compiled.nests().find(|x| x.is_scan).unwrap().clone());
    let program = Arc::new(lo.program.clone());
    let mut store = Store::new(&lo.program);
    tomcatv::init(&lo, &mut store);
    let service: WavefrontService<2> = WavefrontService::new();
    for round in 0..2 {
        for (engine, b) in [(EngineKind::Sim, 6), (EngineKind::Seq, 8), (EngineKind::Threads, 8)] {
            let spec = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(2)
                .block(BlockPolicy::Model2)
                .machine(cray_t3e())
                .engine(engine)
                .store(store.clone())
                .build()
                .expect("valid job spec");
            let out = service.submit(spec).wait().unwrap();
            assert_eq!(out.outcome.block, b, "round {round} {engine:?}");
        }
    }
    assert_eq!(service.stats().cache_misses, 1, "one fingerprint, one entry");
}

/// The kernel mode is part of the plan fingerprint: a plan prepared at
/// one tier must never execute a job requesting another, and each job's
/// outcome reports the tier its nest actually ran at.
#[test]
fn kernel_mode_is_a_distinct_fingerprint() {
    use wavefront::core::kernel::{KernelMode, KernelTier};

    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::new();
    let spec = |mode: KernelMode| {
        JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(4)
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .kernel_mode(mode)
            .store(store.clone())
            .build()
            .expect("valid job spec")
    };

    let out = service.submit(spec(KernelMode::Lanes)).wait().unwrap();
    assert_eq!(out.outcome.kernel_tier, Some(KernelTier::Lanes));
    assert_eq!(out.outcome.kernel_fallback, None);
    let out = service.submit(spec(KernelMode::Scalar)).wait().unwrap();
    assert_eq!(out.outcome.kernel_tier, Some(KernelTier::Scalar));
    let out = service.submit(spec(KernelMode::Interpreted)).wait().unwrap();
    assert_eq!(out.outcome.kernel_tier, Some(KernelTier::Interpreted));

    let s = service.stats();
    assert_eq!(
        s.cache_misses, 3,
        "each kernel mode is its own cache entry — a plan compiled at \
         one tier must never serve another"
    );
    assert_eq!(s.cache_hits, 0);
    assert_eq!(s.cache_entries, 3);

    // Resubmitting at an already-cached tier hits that tier's entry and
    // still runs at the requested tier.
    let out = service.submit(spec(KernelMode::Scalar)).wait().unwrap();
    assert_eq!(out.outcome.kernel_tier, Some(KernelTier::Scalar));
    let s = service.stats();
    assert_eq!(s.cache_misses, 3);
    assert_eq!(s.cache_hits, 1);
}

/// A full submission queue applies backpressure: submitters block until
/// space frees, and every accepted job still completes — nothing is
/// dropped on the floor.
#[test]
fn full_queue_blocks_rather_than_drops() {
    // A slow head-of-line job so later submissions find the queue full.
    let lo = tomcatv::build(160).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let big_nest = compiled
        .nests()
        .filter(|x| x.is_scan)
        .max_by_key(|x| x.region.len())
        .unwrap()
        .clone();
    let mut big_store = Store::new(&lo.program);
    tomcatv::init(&lo, &mut big_store);
    let big_program = Arc::new(lo.program);
    let big_nest = Arc::new(big_nest);

    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::with_config(ServiceConfig {
        queue_capacity: 1,
        ..Default::default()
    });

    let mut handles = vec![service.submit(
        JobSpec::builder(Arc::clone(&big_program), Arc::clone(&big_nest))
            .line(2)
            .block(BlockPolicy::Fixed(8))
            .machine(cray_t3e())
            .store(big_store.clone())
            .build()
            .expect("valid job spec"),
    )];
    // With capacity 1 and a slow job at the head, this burst must fill
    // the queue and block at least once — and still lose nothing.
    for _ in 0..16 {
        handles.push(
            service.submit(
                JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                    .line(2)
                    .block(BlockPolicy::Fixed(2))
                    .machine(cray_t3e())
                    .store(store.clone())
                    .build()
                    .expect("valid job spec"),
            ),
        );
    }
    for (i, h) in handles.into_iter().enumerate() {
        assert!(h.wait().is_ok(), "job {i} was dropped or failed");
    }

    let stats = service.stats();
    assert_eq!(stats.jobs_submitted, 17, "every submission was accepted");
    assert_eq!(stats.jobs_completed, 17, "every accepted job completed");
    assert!(
        stats.blocked_submits >= 1,
        "a 1-slot queue behind a slow job must have blocked at least once \
         (blocked {} times)",
        stats.blocked_submits
    );
}

/// Steady traffic runs on the resident pool: after the pool grows to
/// the widest job seen, further jobs spawn no threads at all.
#[test]
fn steady_jobs_spawn_no_new_threads() {
    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::with_config(ServiceConfig {
        workers: 4,
        ..Default::default()
    });
    let spec = || {
        JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(4)
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .store(store.clone())
            .build()
            .expect("valid job spec")
    };

    assert_eq!(
        service.stats().pool_spawns,
        4,
        "workers pre-spawn at construction"
    );

    for h in service.submit_batch((0..100).map(|_| spec())) {
        h.wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, 100);
    assert_eq!(
        stats.pool_spawns, 4,
        "100 steady jobs must not spawn any thread beyond the initial workers"
    );
    assert_eq!(stats.pool_workers, 4);
}

/// The stats snapshot is cut under one lock, so at any instant —
/// including mid-burst, with jobs queued and running — the books
/// balance: submitted == completed + failed + queued + running. A
/// sampler thread hammers `stats()` while bursts drain.
#[test]
fn stats_snapshot_balances_under_load() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (program, nest, store) = tiny_case();
    let service: Arc<WavefrontService<2>> =
        Arc::new(WavefrontService::with_config(ServiceConfig {
            workers: 4,
            ..Default::default()
        }));
    let spec = || {
        JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(2)
            .block(BlockPolicy::Fixed(2))
            .machine(cray_t3e())
            .store(store.clone())
            .build()
            .expect("valid job spec")
    };

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = service.stats();
                assert!(
                    s.balanced(),
                    "unbalanced snapshot: submitted {} != completed {} + failed {} \
                     + queued {} + running {}",
                    s.jobs_submitted,
                    s.jobs_completed,
                    s.jobs_failed,
                    s.jobs_queued,
                    s.jobs_running
                );
                samples += 1;
            }
            samples
        })
    };

    for _ in 0..8 {
        for h in service.submit_batch((0..32).map(|_| spec())) {
            h.wait().unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().expect("sampler thread");
    assert!(samples > 0, "sampler never got a snapshot in");

    let s = service.stats();
    assert!(s.balanced());
    assert_eq!(s.jobs_submitted, 256);
    assert_eq!(s.jobs_completed, 256);
    assert_eq!(s.jobs_failed, 0);
    assert_eq!(s.jobs_queued, 0);
    assert_eq!(s.jobs_running, 0);
}

/// Two tenants submitting at the same time still split the cache
/// traffic exactly: the dispatcher is the one thread that looks plans
/// up, so however many jobs are in flight each job's one lookup lands on
/// its own tenant — hits + misses per tenant equal its jobs, and the
/// tenants sum to the service's totals.
#[test]
fn concurrent_tenants_split_cache_accounting_exactly() {
    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::new();
    const JOBS: u64 = 120;
    std::thread::scope(|scope| {
        for tenant in ["left", "right"] {
            let (service, program, nest, store) = (&service, &program, &nest, &store);
            scope.spawn(move || {
                for i in 0..JOBS {
                    // Three block sizes per tenant, the first shared by
                    // both: misses and hits interleave across tenants.
                    let block = match (tenant, i % 3) {
                        (_, 0) => 2,
                        ("left", k) => 2 + k as usize,
                        (_, k) => 4 + k as usize,
                    };
                    let spec = JobSpec::builder(Arc::clone(program), Arc::clone(nest))
                        .line(2)
                        .block(BlockPolicy::Fixed(block))
                        .machine(cray_t3e())
                        .tenant(tenant)
                        .store(store.clone())
                        .build()
                        .expect("valid job spec");
                    service.submit(spec).wait().expect("job runs");
                }
            });
        }
    });
    let s = service.stats();
    let tenants: Vec<_> = service
        .tenant_stats()
        .into_iter()
        .filter(|t| t.jobs_submitted > 0)
        .collect();
    assert_eq!(tenants.len(), 2);
    for t in &tenants {
        assert_eq!(
            t.cache_hits + t.cache_misses,
            JOBS,
            "tenant {}: one lookup per job",
            t.tenant
        );
    }
    assert_eq!(
        tenants.iter().map(|t| t.cache_hits).sum::<u64>(),
        s.cache_hits
    );
    assert_eq!(
        tenants.iter().map(|t| t.cache_misses).sum::<u64>(),
        s.cache_misses
    );
    assert_eq!(s.cache_misses, 5, "five distinct plans, each compiled once");
}

/// A rank-3 wave `a := Σ c_k·a'@s_k + 0.25·a + 1` on a 10×10×6 grid; the
/// primed shifts set its direction(s).
fn wave3(shifts: &[[i64; 3]]) -> (Arc<Program<3>>, Arc<CompiledNest<3>>) {
    let mut p = Program::<3>::new();
    let a = p.array("a", Region::rect([0, 0, 0], [9, 9, 5]));
    let mut rhs = Expr::lit(0.25) * Expr::read(a) + Expr::lit(1.0);
    for (k, s) in shifts.iter().enumerate() {
        rhs = rhs + Expr::lit(0.5 / (k + 1) as f64) * Expr::read_primed_at(a, *s);
    }
    p.scan(
        Region::rect([1, 1, 0], [8, 8, 5]),
        vec![Statement::new(a, rhs)],
    );
    let nest = compile(&p).unwrap().nest(0).clone();
    (Arc::new(p), Arc::new(nest))
}

fn init3(p: &Program<3>, seed: u64) -> Store<3> {
    let mut store = Store::new(p);
    let b = store.get(0).bounds();
    *store.get_mut(0) = DenseArray::from_fn(b, |q| {
        let h = (q[0] * 31 + q[1] * 17 + q[2] * 7) as u64 + seed * 13;
        (h % 101) as f64 / 101.0
    });
    store
}

/// `sweeps` Seq sweeps through a one-shot `Session`: the reference.
fn seq3(
    program: &Program<3>,
    nest: &CompiledNest<3>,
    topology: JobTopology,
    seed: u64,
    sweeps: usize,
) -> Store<3> {
    let mut store = init3(program, seed);
    for _ in 0..sweeps {
        let session = Session::new(program, nest).block(BlockPolicy::Fixed(2));
        let session = match topology {
            JobTopology::Mesh { mesh, .. } => session.mesh(mesh),
            JobTopology::Line { procs, .. } => session.procs(procs),
        };
        session.store(&mut store).run(EngineKind::Seq).unwrap();
    }
    store
}

/// Threaded jobs overlap on the pool — one job's drain under the next
/// one's fill — and stay bit-identical to one-shot Seq sessions: three
/// callers interleave a corner wave on `line(2)`, `line(3)` and
/// `mesh(3×2)` with a descending wave, fixed and searched blocks, and
/// one of them also runs a fused multi-sweep loop on a resident handle
/// (which waits for the launched jobs and runs joined).
#[test]
fn overlapped_jobs_of_mixed_widths_match_seq_sessions() {
    let corner = wave3(&[[-1, -1, 0], [-1, 0, 0], [0, -1, 0]]);
    let descending = wave3(&[[1, 0, 0]]);
    let ascending = wave3(&[[-1, 0, 0]]);
    let fixed = BlockPolicy::Fixed(2);
    let jobs = [
        ("corner line(2)", &corner, JobTopology::line(2), &fixed),
        ("corner line(3)", &corner, JobTopology::line(3), &fixed),
        ("corner mesh(3x2)", &corner, JobTopology::mesh([3, 2]), &fixed),
        ("descending line(3)", &descending, JobTopology::line(3), &fixed),
        ("adaptive corner line(3)", &corner, JobTopology::line(3), &BlockPolicy::Adaptive),
    ];
    let service: WavefrontService<3> = WavefrontService::new();
    std::thread::scope(|scope| {
        for caller in 0..3u64 {
            let (service, jobs, ascending) = (&service, &jobs, &ascending);
            scope.spawn(move || {
                for round in 0..4u64 {
                    for j in 0..jobs.len() {
                        let (label, (program, nest), topology, block) =
                            &jobs[(j + (caller + round) as usize) % jobs.len()];
                        let seed = caller * 100 + round * 10 + j as u64;
                        let spec = JobSpec::builder(Arc::clone(program), Arc::clone(nest))
                            .topology(*topology)
                            .block((*block).clone())
                            .store(init3(program, seed))
                            .build()
                            .expect("valid job spec");
                        let got = service
                            .submit(spec)
                            .wait()
                            .unwrap_or_else(|e| panic!("{label}: {e}"))
                            .take_output("a")
                            .unwrap()
                            .to_array();
                        let want = seq3(program, nest, *topology, seed, 1);
                        assert!(
                            want.get(0).region_eq(&got, got.bounds()),
                            "caller {caller} round {round}: {label} differs from Seq"
                        );
                    }
                    if caller == 0 {
                        let (program, nest) = ascending;
                        let seed = 1000 + round;
                        let h = service.import(init3(program, seed).get(0).clone());
                        let body = JobSpec::builder(Arc::clone(program), Arc::clone(nest))
                            .line(2)
                            .block(BlockPolicy::Fixed(2))
                            .output_handle("a", &h)
                            .build()
                            .unwrap();
                        let spec = LoopSpec::builder().job(body).steps(5).build().unwrap();
                        assert_eq!(service.submit_loop(spec).wait().unwrap().steps_run, 5);
                        let want = seq3(program, nest, JobTopology::line(2), seed, 5);
                        let got = service.free(&h).unwrap();
                        assert!(
                            want.get(0).region_eq(&got, got.bounds()),
                            "round {round}: the five-sweep loop differs from Seq"
                        );
                    }
                }
            });
        }
    });
    let s = service.stats();
    assert_eq!(s.jobs_failed, 0);
    assert!(s.balanced());
}

/// `try_submit` shares `submit`'s surface: the returned handle resolves
/// to the same typed result (here a success), never a second error
/// channel.
#[test]
fn try_submit_resolves_through_the_handle() {
    let (program, nest, store) = tiny_case();
    let service: WavefrontService<2> = WavefrontService::new();
    let spec = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
        .line(2)
        .block(BlockPolicy::Fixed(2))
        .machine(cray_t3e())
        .store(store)
        .build()
        .expect("valid spec");
    let mut out = service
        .try_submit(spec)
        .wait()
        .expect("admitted job runs to completion");
    assert!(out.take_output("x").is_ok());
}

/// A one-array running sum `a = a'@[-1,0] + 1` on the sequential
/// engine: the cheapest body a DAG node or a loop step can have.
fn running_sum() -> (Arc<Program<2>>, Arc<CompiledNest<2>>) {
    let bounds = Region::rect([0, 0], [7, 7]);
    let mut prog = Program::<2>::new();
    let a = prog.array("a", bounds);
    prog.stmt(
        Region::rect([1, 0], [7, 7]),
        a,
        Expr::read_primed_at(a, [-1, 0]) + Expr::lit(1.0),
    );
    let nest = compile(&prog).unwrap().nest(0).clone();
    (Arc::new(prog), Arc::new(nest))
}

/// Every `submit_dag` and `submit_loop` starts a runner thread, and a
/// thread that has ended keeps its stack mapped until it is joined. The
/// service joins ended runners as it spawns new ones, so 4,000
/// submissions cost no address space; left to pile up until `Drop` they
/// map 2 MiB each (8 GB here — and the process dies at ~32,000, when it
/// runs out of memory mappings).
#[cfg(target_os = "linux")]
#[test]
fn ended_runner_threads_are_joined_as_they_go() {
    fn vm_size_mb() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
        let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        kb / 1024
    }
    // The allocator gives concurrently live threads an arena of 64 MB of
    // address space each, up to a cap, and keeps them. Tests of this
    // binary run beside this one: reach the cap now, so that a thread of
    // theirs cannot move `VmSize` by an arena while it is watched here.
    let crowd = std::sync::Barrier::new(64);
    std::thread::scope(|s| {
        for _ in 0..64 {
            s.spawn(|| {
                let held = std::hint::black_box(vec![0u8; 256]);
                crowd.wait();
                drop(held);
            });
        }
    });

    let (program, nest) = running_sum();
    let service: WavefrontService<2> = WavefrontService::new();
    let job = || JobSpec::builder(Arc::clone(&program), Arc::clone(&nest)).engine(EngineKind::Seq);
    let handle = service.alloc(Region::rect([0, 0], [7, 7]));
    let round = |service: &WavefrontService<2>| {
        let mut dag = DagSpec::builder();
        dag.add(job().store(Store::new(&program)).build().unwrap());
        assert!(service.submit_dag(dag.build().unwrap()).wait().all_ok());
        let body = job().output_handle("a", &handle).build().unwrap();
        let spec = LoopSpec::builder().job(body).steps(1).build().unwrap();
        assert_eq!(service.submit_loop(spec).wait().unwrap().steps_run, 1);
    };
    for _ in 0..16 {
        round(&service);
    }
    let before = vm_size_mb();
    for _ in 0..2000 {
        round(&service);
    }
    let grown = vm_size_mb().saturating_sub(before);
    assert!(
        grown < 64,
        "2,000 DAGs and 2,000 loops grew the address space by {grown} MB: \
         ended runner threads are not being joined"
    );
}

/// Joining runners early must not lose the ones still at work: dropping
/// the service waits for a loop in flight, and the loop's handle
/// resolves with every step run.
#[test]
fn dropping_the_service_waits_for_a_running_loop() {
    use std::sync::mpsc::channel;

    let (program, nest) = running_sum();
    let service: WavefrontService<2> = WavefrontService::new();
    let a = service.alloc(Region::rect([0, 0], [7, 7]));
    let body = JobSpec::builder(program, nest)
        .engine(EngineKind::Seq)
        .output_handle("a", &a)
        .build()
        .unwrap();
    // The callback parks the loop after its first step until released.
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let spec = LoopSpec::builder()
        .job(body)
        .steps(3)
        .until(move |view| {
            if view.step() == 1 {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            false
        })
        .build()
        .unwrap();
    let handle = service.submit_loop(spec);
    started_rx.recv().unwrap();
    let resolved_at_drop = std::thread::scope(|s| {
        let dropper = s.spawn(|| {
            drop(service);
            handle.is_done()
        });
        release_tx.send(()).unwrap();
        dropper.join().unwrap()
    });
    assert!(resolved_at_drop, "drop returned while the loop was still running");
    let out = handle.wait().expect("the loop ran to its end");
    assert_eq!(out.steps_run, 3);
}
