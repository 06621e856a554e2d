//! `wlc` — the WL command-line driver.
//!
//! ```text
//! wlc check <file.wf> [options]           parse, lower, analyze
//! wlc run   <file.wf> [options]           execute sequentially, print arrays
//!                                         (--repeat N: run scan nests N times
//!                                         through a WavefrontService and report
//!                                         cold vs warm job latency)
//! wlc plan  <file.wf> [options]           plan + simulate each wavefront
//! wlc trace <file.wf> [options]           run with telemetry, print report
//!                                         + critical-path analysis
//! wlc timeline <file.wf> [options]        run with telemetry, draw an
//!                                         ASCII Gantt chart per nest
//! wlc tune  <file.wf> [options]           calibrate the host, compare
//!                                         model/adaptive/exhaustive blocks
//! wlc dag   <file.wf> [options]           replicate the program's scan nest
//!                                         into --chains independent chains of
//!                                         --steps dependent jobs, run the
//!                                         graph through a WavefrontService
//!                                         (zero-copy output handoff), print
//!                                         the DAG stats; --engine sim runs
//!                                         the same graph as a what-if
//!                                         discrete-event simulation
//! wlc timestep <file.wf> [options]        make the program's arrays resident
//!                                         in a WavefrontService, run its scan
//!                                         nest as a --steps time-stepping loop
//!                                         (optionally rotating buffers between
//!                                         steps with --swap/--rotate), and
//!                                         report steady-state steps/sec plus
//!                                         the cross-iteration overlap the
//!                                         pipelined dispatcher harvested
//! wlc serve [serve options]               accept `.wf` jobs over TCP and run
//!                                         them through a multi-tenant
//!                                         WavefrontService (no file argument)
//! wlc top [top options]                   poll a running `wlc serve` over the
//!                                         wire METRICS/STATS frames and render
//!                                         a refreshing terminal dashboard:
//!                                         service totals, throughput, cache
//!                                         hit rate, per-tenant queues, and
//!                                         per-stage latency percentiles
//!
//! options:
//!   --rank N            program rank (1..=4; default 2)
//!   -D name=value       set/override an integer constant
//!   --fill name=V       fill an array with the constant V before running
//!   --fill-coords name  fill an array with i*100 + j (+ k*10000)
//!   --print name        print an array after running (repeatable)
//!   --procs P           processors for `plan`/`trace`/`tune` (default 4)
//!   --mesh AxB          `trace`/`timeline`: run on an A x B processor
//!                       mesh instead of a line of --procs
//!   --repeat N          `run`: submit each scan nest N times to a
//!                       persistent WavefrontService; report cold vs warm
//!                       latency and cache statistics (default 1 = off)
//!   --block POLICY      fixed:<b> | model1 | model2 | naive | probe | adaptive
//!   --machine M         t3e | powerchallenge (default t3e)
//!   --engine E          threads | seq | sim — runtime for `trace`/`timeline`
//!                       (default threads)
//!   --kernel-tier T     interpreted | scalar | lanes — ceiling on the
//!                       kernel tier nests may compile to (default lanes;
//!                       nests that cannot reach the ceiling fall back;
//!                       `interpreted` runs the reference expression
//!                       interpreter instead of the compiled tile kernels)
//!   --json              emit the `trace`/`tune` report as JSON
//!   --out FILE          `trace`: write the JSON report to FILE (implies
//!                       --json)
//!   --strict            `trace`: exit non-zero when observed traffic
//!                       differs from the plan's prediction
//!   --chrome FILE       `trace`/`timeline`: also export a Chrome
//!                       trace-event JSON (open in https://ui.perfetto.dev)
//!   --width N           `timeline`: chart width in columns (default 64)
//!   --steps N           `dag`: dependent jobs per chain; `timestep`:
//!                       loop iterations (default 4)
//!   --swap a:b          `timestep`: double-buffer the two arrays — after
//!                       each step the buffers trade names (sugar for
//!                       --rotate a:b --rotate b:a)
//!   --rotate a:b        `timestep`: after each step, republish the
//!                       buffer bound to `a` under `b` (repeatable; the
//!                       pairs must form a permutation)
//!   --no-pipeline       `timestep`: barrier between iterations instead
//!                       of cross-iteration pipelining (the ablation)
//!   --chains N          `dag`: independent chains (default 2)
//!   --scheduler S       `dag`: fifo | critical-path | locality (default
//!                       locality)
//!   --sim-procs N       `dag` with --engine sim: virtual machine size
//!                       (default: the widest node)
//!
//! serve options:
//!   --addr HOST:PORT    listen address (default 127.0.0.1:0; the chosen
//!                       address is printed as `listening on <addr>`)
//!   --rank N            program rank served (1..=4; default 2)
//!   --workers N         worker threads to pre-spawn (default 4)
//!   --cache N           compiled-plan cache capacity (default 32)
//!   --queue N           default tenant's queue capacity (default 64)
//!   --max-in-flight N   default tenant's in-flight admission limit
//!                       (default unlimited; 0 rejects every job — the
//!                       CI rejection self-check)
//!   --tenant SPEC       register a tenant up front; SPEC is
//!                       name[:weight[:inflight[:cap]]] (repeatable;
//!                       inflight 0 = unlimited)
//!   --no-auto-register  deny submissions from unregistered tenants
//!   --stats SECS        print the service stats JSON to stdout every
//!                       SECS seconds
//!   --no-metrics        disable the service metrics registry (spans and
//!                       the wire METRICS frame report nothing)
//!   --chrome FILE       on shutdown, export the most recent job
//!                       lifecycle spans as Chrome trace-event JSON
//!   --allow-shutdown    honour the wire SHUTDOWN frame (for harnesses)
//!
//! top options:
//!   --addr HOST:PORT    server to poll (required)
//!   --interval SECS     refresh period (default 2)
//!   --once              print one dashboard frame and exit (no screen
//!                       clearing — the CI smoke test path)
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wavefront::core::prelude::*;
use wavefront::lang::{compile_str, Lowered};
use wavefront::machine::{cray_t3e, sgi_power_challenge, MachineParams};
use wavefront::pipeline::{
    ascii_timeline, calibrate_host, BlockPolicy, ChromeTraceBuilder, DagSpec, EngineKind,
    JobSpec, JobTopology, LoopSpec, NodeRef, SchedulerKind, ServeConfig, ServiceConfig, Session,
    TenantConfig, TraceAnalysis, TraceCollector, WavefrontPlan, WavefrontService, WireServer,
};
use wavefront::serve::LangCompiler;

struct Opts {
    cmd: String,
    file: String,
    rank: usize,
    consts: Vec<(String, i64)>,
    fills: Vec<(String, f64)>,
    fill_coords: Vec<String>,
    prints: Vec<String>,
    procs: usize,
    mesh: Option<[usize; 2]>,
    repeat: usize,
    block: BlockPolicy,
    machine: MachineParams,
    engine: EngineKind,
    kernel_mode: KernelMode,
    json: bool,
    out: Option<String>,
    strict: bool,
    chrome: Option<String>,
    width: usize,
    // dag options
    steps: usize,
    chains: usize,
    scheduler: SchedulerKind,
    sim_procs: usize,
    // timestep options
    rotate: Vec<(String, String)>,
    pipelined: bool,
    // serve options
    addr: String,
    cache: usize,
    queue: usize,
    max_in_flight: usize,
    tenants: Vec<(String, TenantConfig)>,
    auto_register: bool,
    stats_every: Option<f64>,
    allow_shutdown: bool,
    metrics: bool,
    // top options
    interval: f64,
    once: bool,
}

/// The one diagnostic shape every fatal `wlc` error renders through:
/// `wlc: <context>: <error>` on stderr, exit status 1. Error types carry
/// their own "what failed: why" phrasing (see `PipelineError`), so the
/// context here is just *where* — a file, a nest, an address.
fn fail(context: &str, err: impl std::fmt::Display) -> ExitCode {
    eprintln!("wlc: {context}: {err}");
    ExitCode::FAILURE
}

/// Non-fatal variant of [`fail`] for loops that keep going after a nest
/// fails; the caller tracks the exit status.
fn diag(context: &str, err: impl std::fmt::Display) {
    eprintln!("wlc: {context}: {err}");
}

fn usage() -> ExitCode {
    eprintln!("usage: wlc <check|run|plan|trace|timeline|tune|dag|timestep> <file.wf> [--rank N]");
    eprintln!("           [-D name=value] [--fill name=V] [--fill-coords name] [--print name]");
    eprintln!("           [--procs P] [--mesh AxB] [--repeat N]");
    eprintln!("           [--block fixed:<b>|model1|model2|naive|probe|adaptive]");
    eprintln!("           [--machine t3e|powerchallenge]");
    eprintln!("           [--engine threads|seq|sim] [--kernel-tier T]");
    eprintln!("           [--json] [--out FILE]");
    eprintln!("           [--strict] [--chrome FILE] [--width N]");
    eprintln!("           [--steps N] [--chains N] [--scheduler fifo|critical-path|locality]");
    eprintln!("           [--sim-procs N]");
    eprintln!("           [--swap a:b] [--rotate a:b] [--no-pipeline]");
    eprintln!("       wlc serve [--addr HOST:PORT] [--rank N] [--workers N] [--cache N]");
    eprintln!("           [--queue N] [--max-in-flight N] [--tenant name:weight:inflight:cap]");
    eprintln!("           [--no-auto-register] [--stats SECS] [--no-metrics] [--chrome FILE]");
    eprintln!("           [--allow-shutdown]");
    eprintln!("       wlc top --addr HOST:PORT [--interval SECS] [--once]");
    ExitCode::from(2)
}

/// Parse a `--tenant name[:weight[:inflight[:cap]]]` spec. An in-flight
/// limit of 0 on the command line means "unlimited" (the programmatic
/// API uses `usize::MAX` for that; 0 there rejects everything, which the
/// CLI exposes separately as `--max-in-flight 0` for the self-check).
fn parse_tenant(spec: &str) -> Option<(String, TenantConfig)> {
    let mut parts = spec.split(':');
    let name = parts.next().filter(|n| !n.is_empty())?.to_string();
    let mut cfg = TenantConfig::default();
    if let Some(w) = parts.next() {
        cfg.weight = w.parse().ok().filter(|w: &f64| *w > 0.0)?;
    }
    if let Some(inflight) = parts.next() {
        cfg.max_in_flight = match inflight.parse().ok()? {
            0 => usize::MAX,
            n => n,
        };
    }
    if let Some(cap) = parts.next() {
        cfg.queue_capacity = cap.parse().ok().filter(|c: &usize| *c > 0)?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some((name, cfg))
}

fn parse_args() -> std::result::Result<Opts, ExitCode> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(usage)?;
    // `serve` listens on a socket and `top` polls one; every other
    // command takes a file.
    let file = if cmd == "serve" || cmd == "top" {
        String::new()
    } else {
        args.next().ok_or_else(usage)?
    };
    let mut opts = Opts {
        cmd,
        file,
        rank: 2,
        consts: vec![],
        fills: vec![],
        fill_coords: vec![],
        prints: vec![],
        procs: 4,
        mesh: None,
        repeat: 1,
        block: BlockPolicy::Model2,
        machine: cray_t3e(),
        engine: EngineKind::Threads,
        kernel_mode: KernelMode::Lanes,
        json: false,
        out: None,
        strict: false,
        chrome: None,
        width: 64,
        steps: 4,
        chains: 2,
        scheduler: SchedulerKind::Locality,
        sim_procs: 0,
        rotate: vec![],
        pipelined: true,
        addr: "127.0.0.1:0".to_string(),
        cache: 32,
        queue: 64,
        max_in_flight: usize::MAX,
        tenants: vec![],
        auto_register: true,
        stats_every: None,
        allow_shutdown: false,
        metrics: true,
        interval: 2.0,
        once: false,
    };
    while let Some(a) = args.next() {
        let mut need = |what: &str| -> std::result::Result<String, ExitCode> {
            args.next().ok_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match a.as_str() {
            "--rank" => opts.rank = need("--rank")?.parse().map_err(|_| usage())?,
            "-D" => {
                let kv = need("-D")?;
                let (k, v) = kv.split_once('=').ok_or_else(usage)?;
                opts.consts
                    .push((k.to_string(), v.parse().map_err(|_| usage())?));
            }
            "--fill" => {
                let kv = need("--fill")?;
                let (k, v) = kv.split_once('=').ok_or_else(usage)?;
                opts.fills
                    .push((k.to_string(), v.parse().map_err(|_| usage())?));
            }
            "--fill-coords" => opts.fill_coords.push(need("--fill-coords")?),
            "--print" => opts.prints.push(need("--print")?),
            "--procs" => {
                opts.procs = need("--procs")?.parse().map_err(|_| usage())?;
                if opts.procs == 0 {
                    // `WavefrontPlan::build` would say so once per nest
                    // (`PipelineError::InvalidJob`); say it once, up front.
                    eprintln!("wlc: --procs needs at least one processor");
                    return Err(ExitCode::from(2));
                }
            }
            "--mesh" => {
                let v = need("--mesh")?;
                let (a, b) = v.split_once('x').ok_or_else(usage)?;
                opts.mesh = Some([a.parse().map_err(|_| usage())?, b.parse().map_err(|_| usage())?]);
            }
            "--repeat" => opts.repeat = need("--repeat")?.parse().map_err(|_| usage())?,
            "--block" => {
                let v = need("--block")?;
                opts.block = match v.as_str() {
                    "model1" => BlockPolicy::Model1,
                    "model2" => BlockPolicy::Model2,
                    "naive" => BlockPolicy::FullPortion,
                    "probe" => BlockPolicy::default_probe(4096),
                    "adaptive" => BlockPolicy::Adaptive,
                    other => match other.strip_prefix("fixed:") {
                        Some(b) => BlockPolicy::Fixed(b.parse().map_err(|_| usage())?),
                        None => return Err(usage()),
                    },
                };
            }
            "--machine" => {
                let v = need("--machine")?;
                opts.machine = match v.as_str() {
                    "t3e" => cray_t3e(),
                    "powerchallenge" | "pc" => sgi_power_challenge(),
                    _ => return Err(usage()),
                };
            }
            "--engine" => {
                let v = need("--engine")?;
                opts.engine = EngineKind::parse(&v).ok_or_else(|| {
                    eprintln!("unknown engine {v}");
                    usage()
                })?;
            }
            "--kernel-tier" => {
                opts.kernel_mode = match need("--kernel-tier")?.as_str() {
                    "interpreted" => KernelMode::Interpreted,
                    "scalar" => KernelMode::Scalar,
                    "lanes" => KernelMode::Lanes,
                    v => {
                        eprintln!("unknown kernel tier {v} (interpreted, scalar, lanes)");
                        return Err(usage());
                    }
                };
            }
            "--json" => opts.json = true,
            "--out" => {
                opts.out = Some(need("--out")?);
                opts.json = true;
            }
            "--strict" => opts.strict = true,
            "--chrome" => opts.chrome = Some(need("--chrome")?),
            "--width" => opts.width = need("--width")?.parse().map_err(|_| usage())?,
            "--steps" => opts.steps = need("--steps")?.parse().map_err(|_| usage())?,
            "--chains" => opts.chains = need("--chains")?.parse().map_err(|_| usage())?,
            "--scheduler" => {
                let v = need("--scheduler")?;
                opts.scheduler = SchedulerKind::from_name(&v).ok_or_else(|| {
                    eprintln!("unknown scheduler {v} (fifo, critical-path, locality)");
                    usage()
                })?;
            }
            "--sim-procs" => {
                opts.sim_procs = need("--sim-procs")?.parse().map_err(|_| usage())?;
            }
            "--rotate" => {
                let kv = need("--rotate")?;
                let (from, to) = kv.split_once(':').ok_or_else(usage)?;
                opts.rotate.push((from.to_string(), to.to_string()));
            }
            "--swap" => {
                let kv = need("--swap")?;
                let (a, b) = kv.split_once(':').ok_or_else(usage)?;
                opts.rotate.push((a.to_string(), b.to_string()));
                opts.rotate.push((b.to_string(), a.to_string()));
            }
            "--no-pipeline" => opts.pipelined = false,
            "--addr" => opts.addr = need("--addr")?,
            "--workers" => opts.procs = need("--workers")?.parse().map_err(|_| usage())?,
            "--cache" => opts.cache = need("--cache")?.parse().map_err(|_| usage())?,
            "--queue" => opts.queue = need("--queue")?.parse().map_err(|_| usage())?,
            "--max-in-flight" => {
                opts.max_in_flight = need("--max-in-flight")?.parse().map_err(|_| usage())?;
            }
            "--tenant" => {
                let spec = need("--tenant")?;
                let parsed = parse_tenant(&spec).ok_or_else(|| {
                    eprintln!("bad tenant spec `{spec}` (name[:weight[:inflight[:cap]]])");
                    usage()
                })?;
                opts.tenants.push(parsed);
            }
            "--no-auto-register" => opts.auto_register = false,
            "--stats" => {
                let v: f64 = need("--stats")?.parse().map_err(|_| usage())?;
                if v <= 0.0 || !v.is_finite() {
                    return Err(usage());
                }
                opts.stats_every = Some(v);
            }
            "--allow-shutdown" => opts.allow_shutdown = true,
            "--no-metrics" => opts.metrics = false,
            "--interval" => {
                let v: f64 = need("--interval")?.parse().map_err(|_| usage())?;
                if v <= 0.0 || !v.is_finite() {
                    return Err(usage());
                }
                opts.interval = v;
            }
            "--once" => opts.once = true,
            other => {
                eprintln!("unknown option {other}");
                return Err(usage());
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if opts.cmd == "serve" {
        return match opts.rank {
            1 => serve::<1>(&opts),
            2 => serve::<2>(&opts),
            3 => serve::<3>(&opts),
            4 => serve::<4>(&opts),
            r => fail("serve", format!("unsupported rank {r} (1..=4)")),
        };
    }
    if opts.cmd == "top" {
        // The dashboard reads the server's wire frames — rank-agnostic.
        return top(&opts);
    }
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => return fail(&opts.file, e),
    };
    match opts.rank {
        1 => drive::<1>(&opts, &src),
        2 => drive::<2>(&opts, &src),
        3 => drive::<3>(&opts, &src),
        4 => drive::<4>(&opts, &src),
        r => {
            eprintln!("unsupported rank {r} (1..=4)");
            ExitCode::from(2)
        }
    }
}

/// `wlc serve`: bind a TCP listener and hand it to a
/// [`WireServer`] over a multi-tenant [`WavefrontService`]. Tenants
/// named with `--tenant` get their weight / in-flight / queue limits
/// registered before the first connection; everyone else is admitted
/// under the default tenant template (unless `--no-auto-register`).
/// Prints `listening on <addr>` once the socket is bound — harnesses
/// that pass `--addr 127.0.0.1:0` parse the chosen port from that line.
fn serve<const R: usize>(opts: &Opts) -> ExitCode {
    let service: Arc<WavefrontService<R>> =
        Arc::new(WavefrontService::with_config(ServiceConfig {
            queue_capacity: opts.queue,
            cache_capacity: opts.cache,
            workers: opts.procs,
            default_tenant: TenantConfig {
                max_in_flight: opts.max_in_flight,
                queue_capacity: opts.queue,
                ..TenantConfig::default()
            },
            auto_register: opts.auto_register,
            metrics: opts.metrics,
        }));
    for (name, cfg) in &opts.tenants {
        service.register_tenant(name.clone(), *cfg);
    }
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => return fail(&opts.addr, e),
    };
    let addr = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return fail(&opts.addr, e),
    };
    println!("listening on {addr}");
    if let Some(every) = opts.stats_every {
        let service = Arc::clone(&service);
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs_f64(every));
            println!("{}", service.stats_json());
        });
    }
    let server = WireServer::with_config(
        Arc::clone(&service),
        Arc::new(LangCompiler),
        ServeConfig {
            allow_shutdown: opts.allow_shutdown,
            ..ServeConfig::default()
        },
    );
    match server.serve(listener) {
        Ok(()) => {
            // Final stats on the way out (the shutdown path used by the
            // bench and CI harnesses).
            println!("{}", service.stats_json());
            if let Some(path) = &opts.chrome {
                let traces = service.recent_traces();
                let mut chrome = ChromeTraceBuilder::new();
                chrome.add_job_spans("wlc serve", &traces);
                if !write_file(path, &chrome.finish()) {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&addr, e),
    }
}

/// `wlc top`: poll a live `wlc serve` over its own wire protocol and
/// render a terminal dashboard — service totals and throughput from the
/// STATS frame, cache hit rate, a per-tenant queue table, and per-stage
/// latency percentiles from the METRICS frame's registry dump. Redraws
/// every `--interval` seconds with an ANSI clear; `--once` prints a
/// single frame without touching the screen (the CI smoke path). A
/// server running `--no-metrics` still gets the stats half; the latency
/// table degrades to a notice.
fn top(opts: &Opts) -> ExitCode {
    use wavefront::pipeline::{JsonValue, WireClient};

    if opts.addr == "127.0.0.1:0" {
        return fail("top", "--addr HOST:PORT is required (port 0 is the serve default)");
    }
    let mut client = match WireClient::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => return fail(&opts.addr, e),
    };
    let mut last: Option<(Instant, u64)> = None;
    loop {
        let stats = match client.stats() {
            Ok(s) => s,
            Err(e) => return fail(&opts.addr, e),
        };
        let stats = match JsonValue::parse(&stats) {
            Ok(v) => v,
            Err(e) => return fail(&opts.addr, format!("bad stats json: {e}")),
        };
        let metrics = match client.metrics() {
            Ok((_, json)) => JsonValue::parse(&json).ok(),
            Err(e) => return fail(&opts.addr, e),
        };

        let mut frame = String::new();
        render_top(&mut frame, &stats, metrics.as_ref(), &mut last);
        if opts.once {
            print!("{frame}");
            return ExitCode::SUCCESS;
        }
        // Clear + home, then the frame, so the dashboard repaints in
        // place like top(1).
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_secs_f64(opts.interval));
    }
}

/// Pull `path.to.key` out of a stats/metrics JSON tree as f64 (missing
/// or non-numeric → 0).
fn jget(v: &wavefront::pipeline::JsonValue, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Render one `wlc top` dashboard frame into `out`.
fn render_top(
    out: &mut String,
    stats: &wavefront::pipeline::JsonValue,
    metrics: Option<&wavefront::pipeline::JsonValue>,
    last: &mut Option<(Instant, u64)>,
) {
    use std::fmt::Write as _;

    let svc = |k: &str| jget(stats, &["service", k]);
    let submitted = svc("jobs_submitted") as u64;
    // Throughput over the poll delta (completed jobs / elapsed).
    let completed = svc("jobs_completed") as u64;
    let now = Instant::now();
    let rate = match *last {
        Some((t0, c0)) if completed >= c0 && now > t0 => {
            (completed - c0) as f64 / (now - t0).as_secs_f64()
        }
        _ => 0.0,
    };
    *last = Some((now, completed));
    let hits = svc("cache_hits");
    let lookups = hits + svc("cache_misses");
    let hit_rate = if lookups > 0.0 { 100.0 * hits / lookups } else { 0.0 };

    let _ = writeln!(out, "wlc top — wavefront service");
    let _ = writeln!(
        out,
        "jobs: {submitted} submitted, {completed} completed, {} failed, {} rejected \
         | {} queued, {} running | {rate:.1} jobs/s",
        svc("jobs_failed") as u64,
        svc("jobs_rejected") as u64,
        svc("jobs_queued") as u64,
        svc("jobs_running") as u64,
    );
    let _ = writeln!(
        out,
        "cache: {:.1}% hit rate ({} entries) | workers: {} | dags: {}",
        hit_rate,
        svc("cache_entries") as u64,
        svc("pool_workers") as u64,
        svc("dags_submitted") as u64,
    );

    let _ = writeln!(
        out,
        "\n{:<12} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "tenant", "queued", "running", "completed", "failed", "rejected", "weight"
    );
    if let Some(tenants) = stats.get("tenants").and_then(|t| t.as_array()) {
        for t in tenants {
            let g = |k: &str| jget(t, &[k]);
            let name = t.get("tenant").and_then(|n| n.as_str()).unwrap_or("?");
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9.1}",
                name,
                g("queued") as u64,
                g("in_flight") as u64,
                g("jobs_completed") as u64,
                g("jobs_failed") as u64,
                g("jobs_rejected") as u64,
                g("weight"),
            );
        }
    }

    // Kernel tier mix and per-reason fallback breakdown, from the
    // labeled counters the service bumps on every nest preparation.
    let mut tiers: Vec<(String, u64)> = Vec::new();
    let mut reasons: Vec<(String, u64)> = Vec::new();
    if let Some(counters) = metrics.and_then(|m| m.get("counters")).and_then(|c| c.as_array()) {
        for c in counters {
            let name = c.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let value = jget(c, &["value"]) as u64;
            if let Some(rest) = name.strip_prefix("wavefront_kernel_runs_total{tier=\"") {
                tiers.push((rest.trim_end_matches("\"}").to_string(), value));
            } else if let Some(rest) =
                name.strip_prefix("wavefront_kernel_fallback_runs_total{reason=\"")
            {
                reasons.push((rest.trim_end_matches("\"}").to_string(), value));
            }
        }
    }
    if !tiers.is_empty() {
        let mix: Vec<String> = tiers.iter().map(|(t, v)| format!("{t} {v}")).collect();
        let _ = writeln!(out, "\nkernels: {}", mix.join(", "));
        if reasons.is_empty() {
            let _ = writeln!(out, "  fallbacks: none");
        } else {
            let brk: Vec<String> = reasons.iter().map(|(r, v)| format!("{r} {v}")).collect();
            let _ = writeln!(out, "  fallbacks: {}", brk.join(", "));
        }
    }

    let _ = writeln!(
        out,
        "\n{:<12} {:<7} {:>6} {:>12} {:>12} {:>12}",
        "tenant", "stage", "count", "p50", "p90", "p99"
    );
    let mut rows = 0usize;
    if let Some(hists) = metrics.and_then(|m| m.get("histograms")).and_then(|h| h.as_array()) {
        for h in hists {
            let name = h.get("name").and_then(|n| n.as_str()).unwrap_or("");
            // wavefront_stage_seconds{tenant="acme",stage="run"}
            let Some(rest) = name.strip_prefix("wavefront_stage_seconds{tenant=\"") else {
                continue;
            };
            let Some((tenant, rest)) = rest.split_once("\",stage=\"") else {
                continue;
            };
            let stage = rest.trim_end_matches("\"}");
            let fmt_s = |sec: f64| {
                if sec >= 1.0 {
                    format!("{sec:.2} s")
                } else if sec >= 1e-3 {
                    format!("{:.2} ms", sec * 1e3)
                } else {
                    format!("{:.1} µs", sec * 1e6)
                }
            };
            let _ = writeln!(
                out,
                "{:<12} {:<7} {:>6} {:>12} {:>12} {:>12}",
                tenant,
                stage,
                jget(h, &["count"]) as u64,
                fmt_s(jget(h, &["p50"])),
                fmt_s(jget(h, &["p90"])),
                fmt_s(jget(h, &["p99"])),
            );
            rows += 1;
        }
    }
    if rows == 0 {
        let _ = writeln!(
            out,
            "(no stage latency data — no job has finished yet, or the server runs --no-metrics)"
        );
    }
}

fn drive<const R: usize>(opts: &Opts, src: &str) -> ExitCode {
    let consts: Vec<(&str, i64)> = opts.consts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let lowered = match compile_str::<R>(src, &consts, Layout::ColMajor) {
        Ok(l) => l,
        Err(e) => return fail(&opts.file, e),
    };
    let compiled = match compile(&lowered.program) {
        Ok(c) => c,
        Err(e) => return fail(&opts.file, e),
    };

    match opts.cmd.as_str() {
        "check" => check(&lowered, &compiled, opts.kernel_mode),
        "run" => run(opts, &lowered, &compiled),
        "plan" => plan::<R>(opts, &lowered, &compiled),
        "trace" => trace::<R>(opts, &lowered, &compiled),
        "timeline" => timeline::<R>(opts, &lowered, &compiled),
        "tune" => tune::<R>(opts, &lowered, &compiled),
        "dag" => dag_cmd::<R>(opts, &lowered, &compiled),
        "timestep" => timestep_cmd::<R>(opts, &lowered, &compiled),
        other => {
            eprintln!("unknown command {other}");
            ExitCode::from(2)
        }
    }
}

/// `wlc dag`: build a `--chains` × `--steps` grid of dependent jobs
/// over the program's largest scan nest — node k+1 of a chain consumes
/// every array node k published (refcounted, zero-copy) — run the graph
/// through a WavefrontService with the chosen `--scheduler`, and report
/// the DAG stats. With `--engine sim` the same graph is instead placed
/// onto a virtual machine of `--sim-procs` processors (what-if
/// scheduling at simulated scale).
fn dag_cmd<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let Some(nest) = compiled
        .nests()
        .filter(|n| n.is_scan)
        .max_by_key(|n| n.region.len())
    else {
        return fail(&opts.file, "program has no scan nest to pipeline");
    };
    let nest = Arc::new(nest.clone());
    let program = Arc::new(lowered.program.clone());
    let store0 = match init_store(opts, lowered) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let names: Vec<String> = program.arrays().iter().map(|d| d.name.clone()).collect();

    let service: WavefrontService<R> = WavefrontService::with_config(ServiceConfig {
        workers: opts.procs,
        ..ServiceConfig::default()
    });
    let mut b = DagSpec::builder();
    b.scheduler(opts.scheduler);
    if opts.sim_procs > 0 {
        b.sim_procs(opts.sim_procs);
    }
    for c in 0..opts.chains.max(1) {
        let mut prev: Option<NodeRef> = None;
        for k in 0..opts.steps.max(1) {
            let mut spec = JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(opts.procs)
                .block(opts.block.clone())
                .machine(opts.machine)
                .kernel_mode(opts.kernel_mode)
                .engine(opts.engine);
            spec = match prev {
                None => spec.store(store0.clone()),
                Some(p) => names.iter().fold(spec, |s, n| s.input_from(p, n.clone())),
            };
            let spec = match spec.build() {
                Ok(s) => s,
                Err(e) => return fail(&opts.file, e),
            };
            prev = Some(b.add_labeled(format!("c{c}s{k}"), spec));
        }
    }
    let dag = match b.build() {
        Ok(d) => d,
        Err(e) => return fail(&opts.file, e),
    };
    let out = service.submit_dag(dag).wait();
    if opts.json {
        println!("{}", out.stats.to_json());
    } else {
        let s = &out.stats;
        println!(
            "dag: {} nodes, {} edges, scheduler {}",
            s.nodes, s.edges, s.scheduler
        );
        println!(
            "makespan {:.6} {} (serial {:.6}, critical path {:.6} through {})",
            s.makespan,
            s.time_unit.name(),
            s.serial_time,
            s.critical_path_time,
            s.critical_path.join(" -> ")
        );
        println!(
            "zero-copy: {} bytes shared, {} cow bytes copied, {} simulated transfers",
            s.bytes_shared, s.cow_bytes_copied, s.transfers
        );
        println!("nodes: {} ok, {} failed", s.nodes - s.failed, s.failed);
    }
    for node in &out.nodes {
        if let Err(e) = &node.result {
            diag(&node.label, e);
        }
    }
    if out.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `wlc timestep`: import the program's arrays into a
/// [`WavefrontService`] as resident buffers, run the largest scan nest
/// as a `--steps` time-stepping loop (with `--swap`/`--rotate` buffer
/// rotation between steps), and report steady-state throughput plus the
/// cross-iteration overlap the pipelined dispatcher harvested. Arrays
/// the nest writes (and every rotated name) bind in place; the rest are
/// shared read-only — after the first step the loop copies nothing and
/// allocates nothing.
fn timestep_cmd<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let Some(nest) = compiled
        .nests()
        .filter(|n| n.is_scan)
        .max_by_key(|n| n.region.len())
    else {
        return fail(&opts.file, "program has no scan nest to pipeline");
    };
    let nest = Arc::new(nest.clone());
    let program = Arc::new(lowered.program.clone());
    let store = match init_store(opts, lowered) {
        Ok(s) => s,
        Err(code) => return code,
    };

    // In-place bindings: everything the nest writes, plus every rotated
    // name (a rotation republishes buffers across bindings, so all of
    // its members must be output handles).
    let mut in_place: Vec<String> = Vec::new();
    for stmt in &nest.stmts {
        let name = program.name_of(stmt.lhs);
        if !in_place.contains(&name) {
            in_place.push(name);
        }
    }
    for (from, to) in &opts.rotate {
        for name in [from, to] {
            if lowered.array(name).is_none() {
                return fail("timestep", format!("unknown array `{name}` in rotation"));
            }
            if !in_place.contains(name) {
                in_place.push(name.clone());
            }
        }
    }

    let service: WavefrontService<R> = WavefrontService::with_config(ServiceConfig {
        workers: opts.procs,
        ..ServiceConfig::default()
    });
    let handles = service.import_store(&program, store);
    let mut body = JobSpec::builder(Arc::clone(&program), nest)
        .line(opts.procs)
        .block(opts.block.clone())
        .machine(opts.machine)
        .kernel_mode(opts.kernel_mode)
        .engine(opts.engine);
    for (name, h) in &handles {
        body = if in_place.contains(name) {
            body.output_handle(name.clone(), h)
        } else {
            body.input_handle(name.clone(), h)
        };
    }
    let mut builder = LoopSpec::builder()
        .steps(opts.steps.max(1))
        .pipelined(opts.pipelined);
    builder = match body.build() {
        Ok(spec) => builder.job(spec),
        Err(e) => return fail("timestep", e),
    };
    for (from, to) in &opts.rotate {
        builder = builder.rotate(from.clone(), to.clone());
    }
    let spec = match builder.build() {
        Ok(s) => s,
        Err(e) => return fail("timestep", e),
    };
    let t0 = Instant::now();
    let out = match service.submit_loop(spec).wait() {
        Ok(o) => o,
        Err(e) => return fail("timestep", e),
    };
    let wall = t0.elapsed().as_secs_f64();
    let steps_per_sec = out.steps_run as f64 / wall.max(1e-12);

    if opts.json {
        let bindings: Vec<String> = out
            .final_bindings
            .iter()
            .map(|(n, h)| format!("\"{n}\":{}", h.id()))
            .collect();
        println!(
            "{{\"steps\":{},\"fused\":{},\"chunks\":{},\"block\":{},\"wall_seconds\":{:.6},\
             \"steps_per_second\":{:.3},\"overlap_seconds\":{:.6},\"busy_seconds\":{:.6},\
             \"overlap_efficiency\":{:.4},\"resident_bytes\":{},\"final_bindings\":{{{}}}}}",
            out.steps_run,
            out.stats.fused,
            out.stats.chunks,
            out.stats.block,
            wall,
            steps_per_sec,
            out.stats.overlap_seconds,
            out.stats.busy_seconds,
            out.stats.overlap_efficiency,
            service.resident_bytes(),
            bindings.join(",")
        );
    } else {
        println!(
            "timestep: {} steps in {:.3}s ({:.1} steps/sec), {} bytes resident",
            out.steps_run,
            wall,
            steps_per_sec,
            service.resident_bytes()
        );
        println!(
            "loop: {} in {} chunk{} at b = {}, overlap {:.6}s of {:.6}s busy ({:.1}%)",
            if out.stats.fused { "fused" } else { "per-step" },
            out.stats.chunks,
            if out.stats.chunks == 1 { "" } else { "s" },
            out.stats.block,
            out.stats.overlap_seconds,
            out.stats.busy_seconds,
            100.0 * out.stats.overlap_efficiency
        );
        let names: Vec<String> = out
            .final_bindings
            .iter()
            .map(|(n, h)| format!("{n}=#{}", h.id()))
            .collect();
        println!("final bindings: {}", names.join(" "));
    }
    for name in &opts.prints {
        let Some((_, h)) = out.final_bindings.iter().find(|(n, _)| n == name) else {
            eprintln!("--print: unknown array `{name}`");
            return ExitCode::FAILURE;
        };
        match service.read(h) {
            Ok(arr) => print_array(name, &arr),
            Err(e) => return fail(name, e),
        }
    }
    ExitCode::SUCCESS
}

fn check<const R: usize>(
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
    mode: KernelMode,
) -> ExitCode {
    println!(
        "ok: {} arrays, {} operations, {} loop nests",
        lowered.program.arrays().len(),
        compiled.ops.len(),
        compiled.nests().count()
    );
    let shapes = lowered.program.shapes();
    for (k, nest) in compiled.nests().enumerate() {
        let kind = if nest.is_scan { "scan" } else { "plain" };
        let dirs: Vec<&str> = nest
            .structure
            .order
            .ascending
            .iter()
            .map(|&a| if a { "asc" } else { "desc" })
            .collect();
        println!(
            "  nest {k}: {kind} over {}, WSV {}, loop order {:?} ({}), wavefront dims {:?}",
            nest.region,
            nest.wsv,
            nest.structure.order.order,
            dirs.join("/"),
            nest.structure.wavefront_dims
        );
        println!("           WYSIWYG cost: {}", classify_nest(nest));
        let runner = NestRunner::with_mode(nest, mode);
        let shape = match (runner.kernel(), runner.lane_plan()) {
            (Some(kern), plan) => {
                let stride = runner.lane_stride(&shapes, &nest.structure.order);
                let lanes = plan
                    .zip(stride)
                    .map(|(p, stride)| format!(", {}, {stride} stride", p.describe()))
                    .unwrap_or_default();
                format!(
                    " ({} instrs, {} regs, {} reads{lanes})",
                    kern.instr_count(),
                    kern.reg_count(),
                    kern.read_count()
                )
            }
            (None, _) => String::new(),
        };
        let why = match runner.fallback() {
            Some(reason) => format!(" — fallback: {reason}"),
            None => String::new(),
        };
        println!("           kernel: {} tier{shape}{why}", runner.tier());
    }
    ExitCode::SUCCESS
}

/// Build a store and apply the `--fill` / `--fill-coords` options.
fn init_store<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
) -> std::result::Result<Store<R>, ExitCode> {
    let mut store = Store::new(&lowered.program);
    for (name, v) in &opts.fills {
        match lowered.array(name) {
            Some(id) => store.get_mut(id).fill(*v),
            None => {
                eprintln!("--fill: unknown array `{name}`");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    for name in &opts.fill_coords {
        match lowered.array(name) {
            Some(id) => {
                // Fill in place: replacing the array would lose the
                // layout the front end declared it with.
                let arr = store.get_mut(id);
                for p in arr.bounds().iter() {
                    arr.set(p, (0..R).map(|k| p[k] as f64 * 100f64.powi(k as i32)).sum());
                }
            }
            None => {
                eprintln!("--fill-coords: unknown array `{name}`");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(store)
}

/// `wlc run --repeat N`: submit every scan nest N times to a persistent
/// [`WavefrontService`] and report cold (first job: plan build + kernel
/// bind + cache miss) vs warm (cached plan, parked workers) latency,
/// jobs/sec over the warm tail, and the service's cache statistics.
fn run_repeat<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let program = Arc::new(lowered.program.clone());
    let service: WavefrontService<R> = WavefrontService::with_config(ServiceConfig {
        workers: opts.procs,
        ..ServiceConfig::default()
    });
    let mut any = false;
    for (k, nest) in compiled.nests().enumerate() {
        if !nest.is_scan {
            continue;
        }
        any = true;
        let nest = Arc::new(nest.clone());
        let mut reps: Vec<(f64, f64, f64)> = Vec::with_capacity(opts.repeat);
        let mut tier_line = String::new();
        for _ in 0..opts.repeat {
            let store = match init_store(opts, lowered) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let start = Instant::now();
            let spec = match JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
                .line(opts.procs)
                .block(opts.block.clone())
                .machine(opts.machine)
                .kernel_mode(opts.kernel_mode)
                .engine(opts.engine)
                .store(store)
                .build()
            {
                Ok(s) => s,
                Err(e) => return fail(&format!("nest {k}"), e),
            };
            match service.submit(spec).wait() {
                Ok(out) => {
                    if let Some(tier) = out.outcome.kernel_tier {
                        tier_line = match out.outcome.kernel_fallback {
                            Some(reason) => format!("{tier} (fallback: {reason})"),
                            None => tier.to_string(),
                        };
                    }
                    reps.push((
                        start.elapsed().as_secs_f64(),
                        out.outcome.prep_seconds,
                        out.outcome.run_seconds,
                    ));
                }
                Err(e) => return fail(&format!("nest {k}"), e),
            }
        }
        let (cold, cold_prep, _) = reps[0];
        println!(
            "nest {k}: {} jobs on {} procs ({} engine)",
            reps.len(),
            opts.procs,
            opts.engine.name()
        );
        if !tier_line.is_empty() {
            println!("  kernel: {tier_line}");
        }
        println!("  cold: {cold:.3e} s total ({cold_prep:.3e} s prep)");
        if reps.len() > 1 {
            let warm = &reps[1..];
            let min = warm.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
            let sum: f64 = warm.iter().map(|r| r.0).sum();
            let mean = sum / warm.len() as f64;
            let prep: f64 = warm.iter().map(|r| r.1).sum::<f64>() / warm.len() as f64;
            println!(
                "  warm: min {min:.3e} s, mean {mean:.3e} s ({prep:.3e} s prep), \
                 {:.1} jobs/sec, cold/warm {:.2}x",
                1.0 / mean,
                cold / min
            );
        }
    }
    if !any {
        println!("no wavefront nests (fully parallel program)");
    }
    println!("service: {}", service.stats().to_json());
    ExitCode::SUCCESS
}

fn run<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    if opts.repeat > 1 {
        return run_repeat(opts, lowered, compiled);
    }
    let mut store = match init_store(opts, lowered) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for (k, nest) in compiled.nests().enumerate() {
        let runner = NestRunner::with_mode(nest, opts.kernel_mode);
        match runner.fallback() {
            Some(reason) => println!("nest {k}: kernel {} (fallback: {reason})", runner.tier()),
            None => println!("nest {k}: kernel {}", runner.tier()),
        }
    }
    run_with_sink(compiled, &mut store, &mut NoSink);
    for name in &opts.prints {
        let Some(id) = lowered.array(name) else {
            eprintln!("--print: unknown array `{name}`");
            return ExitCode::FAILURE;
        };
        print_array(name, store.get(id));
    }
    if opts.prints.is_empty() {
        for (name, &id) in {
            let mut v: Vec<_> = lowered.arrays.iter().collect();
            v.sort();
            v
        } {
            if name.starts_with("__") {
                continue;
            }
            let arr = store.get(id);
            let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for p in arr.bounds().iter() {
                let v = arr.get(p);
                lo = lo.min(v);
                hi = hi.max(v);
                sum += v;
            }
            let n = arr.bounds().len().max(1) as f64;
            println!(
                "  {name}: {} min {lo:.4} max {hi:.4} mean {:.4}",
                arr.bounds(),
                sum / n
            );
        }
    }
    ExitCode::SUCCESS
}

fn print_array<const R: usize>(name: &str, arr: &DenseArray<R>) {
    let b = arr.bounds();
    println!("{name} = {b}");
    if R == 2 && b.len() <= 400 {
        for i in b.lo()[0]..=b.hi()[0] {
            print!("   ");
            for j in b.lo()[1]..=b.hi()[1] {
                let mut p = Point::zero();
                p[0] = i;
                p[1] = j;
                print!(" {:>8.3}", arr.get(p));
            }
            println!();
        }
    } else {
        let shown: Vec<String> = b
            .iter()
            .take(12)
            .map(|p| format!("{p}={:.4}", arr.get(p)))
            .collect();
        println!(
            "   {}{}",
            shown.join(", "),
            if b.len() > 12 { ", …" } else { "" }
        );
    }
}

fn plan<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let mut any = false;
    for (k, nest) in compiled.nests().enumerate() {
        if !nest.is_scan {
            continue;
        }
        any = true;
        let line = JobTopology::line(opts.procs);
        match WavefrontPlan::build(nest, line, &opts.block, &opts.machine) {
            Ok(plan) => {
                // Both estimates let the planner choose the distribution,
                // so they price the one printed here.
                let dim = plan.axes[0].dim;
                let session = Session::new(&lowered.program, nest)
                    .procs(opts.procs)
                    .machine(opts.machine)
                    .block(opts.block.clone())
                    .kernel_mode(opts.kernel_mode);
                let pipe = session.estimate().time;
                // The engines' plan differs from the model's by b and,
                // over page-strided rows, by the tile order.
                let engines = session.plan().unwrap_or_else(|_| plan.clone());
                let why = if engines.order == plan.order { "lane strip" } else { "page-strided rows" };
                let b = if engines.block == plan.block {
                    plan.block.to_string()
                } else {
                    format!("{} (model; engines run {}, {why})", plan.block, engines.block)
                };
                let naive = Session::new(&lowered.program, nest)
                    .procs(opts.procs)
                    .machine(opts.machine)
                    .block(BlockPolicy::FullPortion)
                    .estimate()
                    .time;
                println!(
                    "nest {k}: wave dim {dim}, b = {b} ({} tiles), {} arrays downstream; \
                     simulated {}: pipelined {:.0} vs naive {:.0} ({:.2}x)",
                    plan.tiles.len(),
                    plan.axes[0].comm.len(),
                    opts.machine.name,
                    pipe,
                    naive,
                    naive / pipe
                );
            }
            Err(e) => println!("nest {k}: not plannable: {e}"),
        }
    }
    if !any {
        println!("no wavefront nests (fully parallel program)");
    }
    ExitCode::SUCCESS
}

/// Write `doc` to `path`, mapping IO failures to a diagnostic.
fn write_file(path: &str, doc: &str) -> bool {
    match std::fs::write(path, doc) {
        Ok(()) => true,
        Err(e) => {
            diag(path, e);
            false
        }
    }
}

/// The session `trace` and `timeline` run a nest through: the command
/// line's topology (`--mesh`, else a line of `--procs`), block policy,
/// machine and kernel tier.
fn traced_session<'a, const R: usize>(
    opts: &Opts,
    lowered: &'a Lowered<R>,
    nest: &'a CompiledNest<R>,
) -> Session<'a, R> {
    let session = Session::new(&lowered.program, nest);
    match opts.mesh {
        Some(mesh) => session.mesh(mesh),
        None => session.procs(opts.procs),
    }
    .block(opts.block.clone())
    .machine(opts.machine)
    .kernel_mode(opts.kernel_mode)
}

/// `wlc trace`: run every scan nest through a [`Session`] with a
/// [`TraceCollector`] attached and print each nest's execution report —
/// per-processor timelines, message counts and bytes, the
/// fill/steady/drain phase split, and the causal analysis (critical
/// path, pipeline efficiency, latency histograms). With `--strict`,
/// exit non-zero when observed boundary traffic differs from the plan's
/// prediction; with `--chrome FILE`, also export a Chrome trace-event
/// document (one process per nest).
fn trace<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let mut json_nests: Vec<String> = Vec::new();
    let mut chrome = ChromeTraceBuilder::new();
    let mut any = false;
    let mut failed = false;
    for (k, nest) in compiled.nests().enumerate() {
        if !nest.is_scan {
            continue;
        }
        any = true;
        let mut store = match init_store(opts, lowered) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let mut collector = TraceCollector::default();
        let outcome = traced_session(opts, lowered, nest)
            .collector(&mut collector)
            .store(&mut store)
            .run(opts.engine);
        match outcome {
            Ok(out) => {
                let report = collector.report();
                if opts.strict {
                    let pred = report.meta.predicted;
                    if (pred.messages, pred.elements, pred.bytes)
                        != (report.messages, report.elements, report.bytes)
                    {
                        eprintln!(
                            "nest {k}: strict: predicted traffic ({} msgs, {} elems, {} bytes) \
                             != observed ({} msgs, {} elems, {} bytes)",
                            pred.messages,
                            pred.elements,
                            pred.bytes,
                            report.messages,
                            report.elements,
                            report.bytes
                        );
                        failed = true;
                    }
                }
                if opts.chrome.is_some() {
                    chrome.add_run(&format!("nest {k}"), &collector);
                }
                let analysis = TraceAnalysis::from_trace(&collector);
                if opts.json {
                    let a = analysis.map_or("null".to_string(), |a| a.to_json());
                    json_nests.push(format!(
                        "{{\"nest\": {k}, \"prep_seconds\": {}, \"run_seconds\": {}, \
                         \"report\": {}, \"analysis\": {a}}}",
                        out.prep_seconds,
                        out.run_seconds,
                        report.to_json()
                    ));
                } else {
                    println!("nest {k}:");
                    println!(
                        "  setup: prep {:.3e} s (plan + kernel bind), run {:.3e} s",
                        out.prep_seconds, out.run_seconds
                    );
                    println!("{report}");
                    if let Some(a) = analysis {
                        println!("{a}");
                    }
                }
            }
            Err(e) => {
                diag(&format!("nest {k}"), e);
                failed = true;
            }
        }
    }
    if !any && !opts.json {
        println!("no wavefront nests (fully parallel program)");
    }
    if opts.json {
        let doc = format!(
            "{{\"program\": \"{}\", \"nests\": [{}]}}",
            opts.file.replace('\\', "\\\\").replace('"', "\\\""),
            json_nests.join(", ")
        );
        match &opts.out {
            Some(path) => failed |= !write_file(path, &doc),
            None => println!("{doc}"),
        }
    }
    if let Some(path) = &opts.chrome {
        failed |= !write_file(path, &chrome.finish());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `wlc timeline`: run every scan nest instrumented and draw an ASCII
/// Gantt chart — one row per active processor in wave order, so the
/// fill/steady/drain staircase of Figure 4(b) is visible in a terminal
/// — followed by the critical-path summary. With `--chrome FILE`, also
/// export the Chrome trace-event document for Perfetto.
fn timeline<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let mut chrome = ChromeTraceBuilder::new();
    let mut any = false;
    let mut failed = false;
    for (k, nest) in compiled.nests().enumerate() {
        if !nest.is_scan {
            continue;
        }
        any = true;
        let mut store = match init_store(opts, lowered) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let mut collector = TraceCollector::default();
        let outcome = traced_session(opts, lowered, nest)
            .collector(&mut collector)
            .store(&mut store)
            .run(opts.engine);
        match outcome {
            Ok(_) => {
                println!("nest {k}:");
                match ascii_timeline(&collector, opts.width) {
                    Some(chart) => print!("{chart}"),
                    None => println!("  (no blocks recorded)"),
                }
                if let Some(a) = TraceAnalysis::from_trace(&collector) {
                    println!("{a}");
                }
                if opts.chrome.is_some() {
                    chrome.add_run(&format!("nest {k}"), &collector);
                }
            }
            Err(e) => {
                diag(&format!("nest {k}"), e);
                failed = true;
            }
        }
    }
    if !any {
        println!("no wavefront nests (fully parallel program)");
    }
    if let Some(path) = &opts.chrome {
        failed |= !write_file(path, &chrome.finish());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `wlc tune`: calibrate α/β and the per-element compute cost on this
/// host, then for every scan nest compare two block-size choices on the
/// calibrated machine — the model optimum (Equation (1)) and the
/// adaptive search's pick, the best plan over every distinct tile count
/// — and run the adaptive policy on all three engines.
fn tune<const R: usize>(
    opts: &Opts,
    lowered: &Lowered<R>,
    compiled: &CompiledProgram<R>,
) -> ExitCode {
    let cal = match calibrate_host() {
        Ok(c) => c,
        Err(e) => {
            return fail("tune", e);
        }
    };
    let machine = MachineParams::calibrated(cal.alpha_work(), cal.beta_work());
    if !opts.json {
        println!(
            "calibrated: alpha {:.3e} s, beta {:.3e} s/elem, elem cost {:.3e} s",
            cal.alpha, cal.beta, cal.elem_cost
        );
        println!(
            "in work units: alpha {:.1}, beta {:.2} (elements of compute)",
            cal.alpha_work(),
            cal.beta_work()
        );
    }
    let mut json_nests: Vec<String> = Vec::new();
    let mut any = false;
    let mut failed = false;
    for (k, nest) in compiled.nests().enumerate() {
        if !nest.is_scan {
            continue;
        }
        any = true;
        // The model's pick, simulated on the calibrated machine.
        let line = JobTopology::line(opts.procs);
        let model_plan = match WavefrontPlan::build(nest, line, &BlockPolicy::Model2, &machine) {
            Ok(p) => p,
            Err(e) => {
                diag(&format!("nest {k}"), format!("not plannable: {e}"));
                failed = true;
                continue;
            }
        };
        // Every session below plans the line the model plan chose.
        let dim = model_plan.axes[0].dim;
        let estimate = |policy: BlockPolicy| {
            Session::new(&lowered.program, nest)
                .procs(opts.procs)
                .dist_dim(dim)
                .machine(machine)
                .block(policy)
                .estimate()
        };
        let model_b = model_plan.block;
        let model_t = estimate(BlockPolicy::Model2).time;
        // The search over every distinct tile count.
        let searched = estimate(BlockPolicy::Adaptive);
        let (best_b, best_t) = (searched.block.unwrap_or(model_b), searched.time);

        // The adaptive policy on each engine.
        let mut engine_json: Vec<String> = Vec::new();
        let mut lines: Vec<String> = Vec::new();
        for kind in [EngineKind::Sim, EngineKind::Seq, EngineKind::Threads] {
            let mut store = match init_store(opts, lowered) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let mut session = Session::new(&lowered.program, nest)
                .procs(opts.procs)
                .dist_dim(dim)
                .block(BlockPolicy::Adaptive)
                .machine(machine)
                .kernel_mode(opts.kernel_mode);
            if kind != EngineKind::Sim {
                session = session.store(&mut store);
            }
            match session.run(kind) {
                Ok(out) => {
                    engine_json.push(format!(
                        "\"{}\": {{\"block\": {}, \"makespan\": {}, \"time_unit\": \"{}\", \
                         \"messages\": {}}}",
                        kind.name(),
                        out.block,
                        out.makespan,
                        out.time_unit.name(),
                        out.messages
                    ));
                    lines.push(format!(
                        "  {:<7} adaptive b = {:<5} makespan {:.4e} {}",
                        kind.name(),
                        out.block,
                        out.makespan,
                        out.time_unit.name()
                    ));
                }
                Err(e) => {
                    diag(&format!("nest {k} ({})", kind.name()), e);
                    failed = true;
                }
            }
        }

        if opts.json {
            json_nests.push(format!(
                "{{\"nest\": {k}, \"procs\": {}, \"model_b\": {model_b}, \
                 \"model_makespan\": {model_t}, \"exhaustive_b\": {best_b}, \
                 \"exhaustive_makespan\": {best_t}, \"engines\": {{{}}}}}",
                opts.procs,
                engine_json.join(", ")
            ));
        } else {
            println!("nest {k} (p = {}):", opts.procs);
            println!("  model   b = {model_b:<5} makespan {model_t:.4e} model_units");
            println!("  search  b = {best_b:<5} makespan {best_t:.4e} model_units");
            for l in &lines {
                println!("{l}");
            }
        }
    }
    if !any && !opts.json {
        println!("no wavefront nests (fully parallel program)");
    }
    if opts.json {
        println!(
            "{{\"program\": \"{}\", \"calibration\": {{\"alpha_seconds\": {}, \
             \"beta_seconds\": {}, \"elem_cost_seconds\": {}, \"alpha_work\": {}, \
             \"beta_work\": {}}}, \"nests\": [{}]}}",
            opts.file.replace('\\', "\\\\").replace('"', "\\\""),
            cal.alpha,
            cal.beta,
            cal.elem_cost,
            cal.alpha_work(),
            cal.beta_work(),
            json_nests.join(", ")
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
