//! Behavioural contract of the wire-serving front end: programs
//! round-trip over TCP bit-identically to in-process execution,
//! malformed frames are rejected with typed errors (and never wedge the
//! listener), admission failures come back typed with the tenant named,
//! and the weighted fair-share scheduler actually divides throughput by
//! tenant weight under backlog.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wavefront::core::prelude::*;
use wavefront::kernels::tomcatv;
use wavefront::lang::compile_str;
use wavefront::machine::cray_t3e;
use wavefront::pipeline::{
    BlockPolicy, EngineKind, JobSpec, PipelineError, ServeConfig, ServiceConfig, TenantConfig,
    WavefrontService, WireAllocRequest, WireClient, WireLoopRequest, WireRequest, WireServer,
    WireTopology,
};
use wavefront::serve::LangCompiler;

const SOURCE: &str = "
    const n = 12;
    var a : [1..n, 1..n] float;
    direction north = (-1, 0);
    [2..n, 1..n] a := 2.0 * a'@north;
";

/// Start a wire server (with the real `.wf` front end) on a loopback
/// socket. Returns the dial address; the server thread exits when the
/// test sends `SHUTDOWN`.
fn start_server(cfg: ServiceConfig) -> (String, std::thread::JoinHandle<()>) {
    let service: Arc<WavefrontService<2>> = Arc::new(WavefrontService::with_config(cfg));
    let server = Arc::new(WireServer::with_config(
        service,
        Arc::new(LangCompiler),
        ServeConfig {
            allow_shutdown: true,
            ..ServeConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve(listener).expect("serve loop"));
    (addr, handle)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>) {
    WireClient::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown frame");
    handle.join().expect("server thread");
}

/// Submitting a `.wf` program with an input array over TCP returns the
/// same values the reference interpreter computes in-process.
#[test]
fn wire_submission_matches_in_process_execution() {
    // The reference: compile and run the same source locally.
    let lo = compile_str::<2>(SOURCE, &[], Layout::ColMajor).unwrap();
    let a = lo.array("a").unwrap();
    let mut store = Store::new(&lo.program);
    store.get_mut(a).fill(1.0);
    execute(&lo.program, &mut store).unwrap();
    let bounds = store.get(a).bounds();
    let expected: Vec<f64> = bounds.iter().map(|p| store.get(a).get(p)).collect();

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");

    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    req.engine = EngineKind::Threads;
    req.block = BlockPolicy::Fixed(4);
    req.arrays = vec![("a".to_string(), vec![1.0; bounds.len()])];
    req.returns = vec!["a".to_string()];

    let resp = client.submit(&req).expect("job runs");
    assert_eq!(resp.arrays.len(), 1);
    let (name, values) = &resp.arrays[0];
    assert_eq!(name, "a");
    assert_eq!(
        values, &expected,
        "wire result differs from the reference interpreter"
    );
    assert!(resp.run_seconds >= 0.0);

    // A second identical submission hits the server's program cache and
    // the service's plan cache; the result must not change.
    let resp2 = client.submit(&req).expect("warm job runs");
    assert_eq!(&resp2.arrays[0].1, &expected);

    let stats = client.stats().expect("stats frame");
    assert!(
        stats.contains("\"jobs_completed\":2"),
        "server stats should account both jobs: {stats}"
    );
    drop(client);
    stop_server(&addr, handle);
}

/// A well-formed `SUBMIT` frame up to its one array, which claims
/// `count` values and carries none.
fn submit_claiming(count: u64) -> Vec<u8> {
    fn put_str(frame: &mut Vec<u8>, s: &str) {
        frame.extend((s.len() as u32).to_le_bytes());
        frame.extend(s.as_bytes());
    }
    let mut frame = vec![1]; // SUBMIT
    put_str(&mut frame, ""); // default tenant
    frame.extend([0, 2]); // priority, rank
    frame.extend(u16::MAX.to_le_bytes()); // nest: auto
    frame.push(0); // a line ..
    frame.extend(2u32.to_le_bytes()); // .. of two processors
    frame.extend([2, 1, 2, 0]); // threads, lanes, Model2, Cray T3E
    frame.extend(0u16.to_le_bytes()); // no consts
    put_str(&mut frame, SOURCE);
    frame.extend(1u16.to_le_bytes()); // one array
    put_str(&mut frame, "a");
    frame.extend(count.to_le_bytes());
    frame
}

/// A rank-2 zero-fill `ALLOC` frame over the given corners.
fn alloc_over(lo: [i64; 2], hi: [i64; 2]) -> Vec<u8> {
    let mut frame = vec![13, 2]; // ALLOC, rank
    for c in lo.iter().chain(&hi) {
        frame.extend(c.to_le_bytes());
    }
    frame.push(1); // column-major
    frame.extend(0u64.to_le_bytes()); // no values: zero-fill
    frame
}

/// Garbage, truncated, unknown-opcode and hostile-length frames come
/// back as a typed ERROR reply (opcode 3 on the wire) — and the listener
/// survives to serve the next connection.
#[test]
fn malformed_frames_are_rejected_not_fatal() {
    let (addr, handle) = start_server(ServiceConfig::default());

    // Truncations of a SUBMIT frame (opcode 1 with missing fields), an
    // unknown opcode, an empty payload; an array count whose byte size
    // wraps to zero (2^61 * 8); and resident arrays no frame could ever
    // carry home — terabytes from a 43-byte frame, and corners whose
    // extents overflow. Each with the text its ERROR reply must carry.
    let bad_payloads: &[(&[u8], &str)] = &[
        (&[], "opcode"),
        (&[1], "tenant"),
        (&[1, 5, 0, 0, 0], "tenant"),
        (&[1, 5, 0, 0, 0, b'a', b'b'], "tenant"),
        (&[42], "unknown opcode 42"),
        (&[1, 255, 255, 255, 255], "tenant"),
        (&submit_claiming(1 << 61), "reading arrays"),
        (&submit_claiming(u64::MAX), "reading arrays"),
        (&alloc_over([0, 0], [1 << 20, 1 << 20]), "alloc of 1099513724929 elements"),
        (&alloc_over([i64::MIN; 2], [i64::MAX; 2]), "alloc of"),
    ];
    for (payload, why) in bad_payloads {
        let mut client = WireClient::connect(&*addr).expect("connect");
        let reply = client
            .raw_frame(payload)
            .expect("server must reply before closing");
        // Wire format: an ERROR frame leads with opcode 3.
        assert_eq!(
            reply.first(),
            Some(&3u8),
            "payload {payload:?} should draw a typed ERROR reply, got {reply:?}"
        );
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains(why), "payload {payload:?}: expected `{why}` in `{text}`");
    }

    // The server is still alive and still runs well-formed jobs.
    let mut client = WireClient::connect(&*addr).expect("connect after garbage");
    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    client.submit(&req).expect("server survived the garbage");
    drop(client);
    stop_server(&addr, handle);
}

/// Protocol violations that are expressible through the typed client —
/// a rank mismatch — surface as `PipelineError::ProtocolError`, and
/// admission limits surface as `AdmissionDenied` naming the tenant.
#[test]
fn typed_errors_round_trip_the_wire() {
    let (addr, handle) = start_server(ServiceConfig {
        default_tenant: TenantConfig {
            max_in_flight: 0,
            ..TenantConfig::default()
        },
        ..ServiceConfig::default()
    });

    // Rank mismatch: the server is rank 2. Note this client is
    // deliberately shadowed below, NOT dropped — an idle connection
    // left open must not block the server's shutdown (regression:
    // the accept loop joins per-connection handlers on SHUTDOWN).
    let mut client = WireClient::connect(&*addr).expect("connect");
    match client.submit(&WireRequest::new(3, SOURCE)) {
        Err(PipelineError::ProtocolError { reason }) => {
            assert!(reason.contains("rank"), "unhelpful reason: {reason}")
        }
        other => panic!("rank mismatch should be a protocol error, got {other:?}"),
    }

    // Admission: every tenant inherits max_in_flight 0 here.
    let mut client = WireClient::connect(&*addr).expect("connect");
    let mut req = WireRequest::new(2, SOURCE);
    req.tenant = "acme".to_string();
    match client.submit(&req) {
        Err(PipelineError::AdmissionDenied { tenant, reason }) => {
            assert_eq!(tenant, "acme");
            assert!(
                reason.to_string().contains("in-flight"),
                "unhelpful reason: {reason}"
            );
        }
        other => panic!("expected a typed admission rejection, got {other:?}"),
    }
    drop(client);
    stop_server(&addr, handle);
}

/// A program nested past the parser's bound draws a typed `ERROR`
/// frame, not a server abort: 2,000 parentheses fit in a 4 KB frame
/// and once overflowed the parser's stack. The same server then
/// answers a normal job bit-identically to the in-process interpreter.
#[test]
fn a_deeply_nested_program_is_refused_and_the_server_survives() {
    let lo = compile_str::<2>(SOURCE, &[], Layout::ColMajor).unwrap();
    let a = lo.array("a").unwrap();
    let mut store = Store::new(&lo.program);
    store.get_mut(a).fill(1.0);
    execute(&lo.program, &mut store).unwrap();
    let bounds = store.get(a).bounds();
    let expected: Vec<f64> = bounds.iter().map(|p| store.get(a).get(p)).collect();

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");
    let deep = format!(
        "var a : [1..12, 1..12] float; [1..12, 1..12] a := {}1.0{};",
        "(".repeat(2_000),
        ")".repeat(2_000)
    );
    match client.submit(&WireRequest::new(2, &deep)) {
        Err(PipelineError::CompileRejected { reason }) => {
            assert!(reason.contains("nested deeper"), "unhelpful reason: {reason}")
        }
        other => panic!("expected a typed compile rejection, got {other:?}"),
    }

    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    req.engine = EngineKind::Threads;
    req.arrays = vec![("a".to_string(), vec![1.0; bounds.len()])];
    req.returns = vec!["a".to_string()];
    let resp = client.submit(&req).expect("the server still runs jobs");
    let got: Vec<u64> = resp.arrays[0].1.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "wire result differs from the reference interpreter");
    drop(client);
    stop_server(&addr, handle);
}

/// A declaration no frame could carry home draws a typed `ERROR` frame
/// before anything is allocated: `[1..400000, 1..400000]` once asked
/// `Store::new` for 1.28 TB and aborted the whole server. The same
/// server then answers a fig3 job bit-identically to the in-process
/// interpreter.
#[test]
fn a_declaration_past_the_frame_is_refused_and_the_server_survives() {
    let lo = compile_str::<2>(SOURCE, &[], Layout::ColMajor).unwrap();
    let a = lo.array("a").unwrap();
    let mut store = Store::new(&lo.program);
    store.get_mut(a).fill(1.0);
    execute(&lo.program, &mut store).unwrap();
    let bounds = store.get(a).bounds();
    let expected: Vec<u64> = bounds.iter().map(|p| store.get(a).get(p).to_bits()).collect();

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");
    let huge = SOURCE.replace("const n = 12;", "const n = 400000;");
    match client.submit(&WireRequest::new(2, &huge)) {
        Err(PipelineError::InvalidJob { reason }) => assert!(
            reason.contains("declaration of 160000000000 elements"),
            "unhelpful reason: {reason}"
        ),
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    req.engine = EngineKind::Threads;
    req.arrays = vec![("a".to_string(), vec![1.0; bounds.len()])];
    req.returns = vec!["a".to_string()];
    let resp = client.submit(&req).expect("the server still runs jobs");
    let got: Vec<u64> = resp.arrays[0].1.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expected, "wire result differs from the reference interpreter");
    drop(client);
    stop_server(&addr, handle);
}

/// A client-supplied trace ID rides the wire into the job's
/// lifecycle spans and comes back in the RESULT frame with the full
/// phase breakdown — the phases telescope to the job's total wall
/// latency.
#[test]
fn trace_ids_round_trip_with_phase_breakdown() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");

    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    req.engine = EngineKind::Threads;
    req.block = BlockPolicy::Fixed(4);
    req.arrays = vec![("a".to_string(), vec![1.0; 144])];
    req.returns = vec!["a".to_string()];
    req.trace_id = Some(0xFEED_F00D);

    let resp = client.submit(&req).expect("job runs");
    let spans = resp.spans.expect("the result carries spans");
    assert_eq!(spans.trace_id, Some(0xFEED_F00D));
    assert_eq!(spans.tenant, "default");
    assert!(spans.total_seconds > 0.0);
    let telescoped =
        spans.admit_seconds + spans.queue_seconds + spans.exec_seconds + spans.drain_seconds;
    assert!(
        (telescoped - spans.total_seconds).abs() <= 1e-9 * spans.total_seconds.max(1.0),
        "phases {telescoped} must telescope to total {}",
        spans.total_seconds
    );
    assert!(spans.prep_seconds + spans.run_seconds <= spans.exec_seconds + 1e-9);

    // The METRICS frame serves both expositions, and the trace shows up
    // in the registry's stage histograms.
    let (prom, json) = client.metrics().expect("metrics frame");
    assert!(
        prom.contains("wavefront_jobs_submitted_total 1"),
        "prometheus text missing submit counter:\n{prom}"
    );
    assert!(
        prom.contains("wavefront_stage_seconds_count{tenant=\"default\",stage=\"total\"} 1"),
        "prometheus text missing stage histogram:\n{prom}"
    );
    assert!(
        json.contains("\"histograms\""),
        "json dump missing histograms: {json}"
    );
    drop(client);
    stop_server(&addr, handle);
}

/// `HELLO` is an equality check: another version draws a typed error
/// naming both numbers, and the connection stays usable at the one
/// layout — with or without a handshake.
#[test]
fn hello_with_another_version_is_refused_and_the_connection_survives() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");

    let reply = client.raw_frame(&[10, 3, 0]).expect("HELLO v3 gets a reply");
    assert_eq!(reply.first(), Some(&3u8), "expected an ERROR frame, got {reply:?}");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.contains("v3") && text.contains("v4"),
        "the mismatch must name both versions: {text}"
    );

    // No handshake has succeeded yet; submissions run all the same.
    let mut req = WireRequest::new(2, SOURCE);
    req.topology = WireTopology::Line(2);
    req.trace_id = Some(42);
    let resp = client.submit(&req).expect("un-handshaken submit");
    assert_eq!(resp.spans.expect("spans travel without HELLO").trace_id, Some(42));
    assert_eq!(client.hello().expect("matching HELLO"), 4);
    drop(client);
    stop_server(&addr, handle);
}

const LOOP_SOURCE: &str = "
    const n = 10;
    var next, curr : [0..n, 0..n] float;
    direction north = (-1, 0);
    [1..n, 0..n] next := 0.5 * next'@north + 0.5 * curr;
";

/// Resident loops end to end: `ALLOC` parks both buffers server-side,
/// `SUBMIT_LOOP` time-steps the body with a double-buffer swap, and
/// `FREE` brings the final values home — bit-identical to running the
/// same steps in-process with a store swap between iterations. Typed
/// handle errors round-trip the live wire.
#[test]
fn wire_loops_run_over_resident_handles_and_free_returns_results() {
    let steps = 5;

    // In-process reference: interpreter steps with a buffer swap
    // *between* steps (the last step's write stays under its own name).
    let lo = compile_str::<2>(LOOP_SOURCE, &[], Layout::ColMajor).unwrap();
    let next = lo.array("next").unwrap();
    let curr = lo.array("curr").unwrap();
    let mut store = Store::new(&lo.program);
    let seed = |id: ArrayId, k: f64| -> Vec<f64> {
        let bounds = store.get(id).bounds();
        bounds
            .iter()
            .map(|p| 0.3 * p[0] as f64 + 0.7 * p[1] as f64 + k)
            .collect()
    };
    let (seed_next, seed_curr) = (seed(next, 1.0), seed(curr, 2.0));
    for (id, values) in [(next, &seed_next), (curr, &seed_curr)] {
        let bounds = store.get(id).bounds();
        for (p, &v) in bounds.iter().zip(values.iter()) {
            store.get_mut(id).set(p, v);
        }
    }
    for step in 0..steps {
        execute(&lo.program, &mut store).unwrap();
        if step + 1 < steps {
            store.arrays_mut().swap(next, curr);
        }
    }
    let bounds = store.get(next).bounds();
    let expected: Vec<f64> = bounds.iter().map(|p| store.get(next).get(p)).collect();

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = WireClient::connect(&*addr).expect("connect");

    let alloc = |client: &mut WireClient<std::net::TcpStream>, values: Vec<f64>| {
        client
            .alloc(&WireAllocRequest::col_major(
                vec![0, 0],
                vec![10, 10],
                values,
            ))
            .expect("alloc")
    };
    let h_next = alloc(&mut client, seed_next);
    let h_curr = alloc(&mut client, seed_curr);
    assert_ne!(h_next.id, h_curr.id);
    assert_eq!(h_next.epoch, 0);

    let mut body = WireRequest::new(2, LOOP_SOURCE);
    body.topology = WireTopology::Line(2);
    body.engine = EngineKind::Threads;
    body.block = BlockPolicy::Fixed(4);
    let resp = client
        .submit_loop(&WireLoopRequest {
            request: body,
            input_handles: vec![],
            output_handles: vec![
                ("next".to_string(), h_next.id),
                ("curr".to_string(), h_curr.id),
            ],
            steps: steps as u64,
            rotate: vec![
                ("next".to_string(), "curr".to_string()),
                ("curr".to_string(), "next".to_string()),
            ],
            pipelined: true,
        })
        .expect("loop runs");
    assert_eq!(resp.steps_run, steps as u64);
    assert!(resp.fused, "a pointwise-coupled swap loop must fuse");
    assert_eq!(resp.chunks, 1, "no callback, so one fused chunk");
    assert!(resp.busy_seconds > 0.0);

    // The loop's data never travelled: results come home by FREE-ing
    // the buffer that ended up bound to `next`.
    let final_next = resp
        .final_bindings
        .iter()
        .find(|(name, _)| name == "next")
        .expect("final binding for next")
        .1;
    let freed = client.free(final_next).expect("free");
    assert_eq!(freed.epoch, 1, "one fused chunk = one put-back");
    assert_eq!(
        freed.values, expected,
        "wire loop result differs from the in-process reference"
    );

    // Typed handle errors round-trip the live connection.
    match client.free(final_next) {
        Err(PipelineError::UnknownHandle { id }) => assert_eq!(id, final_next),
        other => panic!("double free must be UnknownHandle, got {other:?}"),
    }
    let other_id = resp
        .final_bindings
        .iter()
        .find(|(name, _)| name == "curr")
        .expect("final binding for curr")
        .1;
    client.free(other_id).expect("free the second buffer");
    drop(client);
    stop_server(&addr, handle);
}

/// Weighted fair share: with a backlog from two tenants, completions
/// drain in proportion to tenant weight, not submission order. Tenant
/// `a` (weight 1) enqueues 20 jobs *first*, tenant `b` (weight 3)
/// enqueues 60 after; mid-drain, `b` must be roughly 3× ahead — FIFO
/// would drain all of `a` before touching `b`.
#[test]
fn fair_share_tracks_tenant_weights() {
    let service: WavefrontService<2> = WavefrontService::with_config(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    service.register_tenant(
        "a",
        TenantConfig {
            weight: 1.0,
            queue_capacity: 64,
            ..TenantConfig::default()
        },
    );
    service.register_tenant(
        "b",
        TenantConfig {
            weight: 3.0,
            queue_capacity: 64,
            ..TenantConfig::default()
        },
    );

    // A slow blocker (default tenant) holds the dispatcher while both
    // backlogs build, so scheduling starts from a full queue.
    let blocker = {
        let lo = tomcatv::build(160).unwrap();
        let compiled = compile(&lo.program).unwrap();
        let nest = compiled
            .nests()
            .filter(|x| x.is_scan)
            .max_by_key(|x| x.region.len())
            .unwrap()
            .clone();
        let mut store = Store::new(&lo.program);
        tomcatv::init(&lo, &mut store);
        service.submit(
            JobSpec::builder(Arc::new(lo.program), Arc::new(nest))
                .line(2)
                .block(BlockPolicy::Fixed(8))
                .machine(cray_t3e())
                .store(store)
                .build()
                .unwrap(),
        )
    };

    let lo = tomcatv::build(40).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = Arc::new(
        compiled
            .nests()
            .filter(|x| x.is_scan)
            .max_by_key(|x| x.region.len())
            .unwrap()
            .clone(),
    );
    let mut store = Store::new(&lo.program);
    tomcatv::init(&lo, &mut store);
    let program = Arc::new(lo.program);
    let spec = |tenant: &str| {
        JobSpec::builder(Arc::clone(&program), Arc::clone(&nest))
            .line(2)
            .block(BlockPolicy::Fixed(8))
            .machine(cray_t3e())
            .store(store.clone())
            .tenant(tenant)
            .build()
            .unwrap()
    };
    let mut handles = Vec::new();
    for _ in 0..20 {
        handles.push(service.submit(spec("a")));
    }
    for _ in 0..60 {
        handles.push(service.submit(spec("b")));
    }

    // Snapshot mid-drain: once 40 of the 80 backlogged jobs are done,
    // stride scheduling predicts ~10 from `a` and ~30 from `b`.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (a_done, b_done) = loop {
        let stats = service.tenant_stats();
        let done = |name: &str| {
            stats
                .iter()
                .find(|t| t.tenant == name)
                .map_or(0, |t| t.jobs_completed)
        };
        let (a, b) = (done("a"), done("b"));
        if a + b >= 40 {
            break (a, b);
        }
        assert!(
            Instant::now() < deadline,
            "backlog never drained (a={a}, b={b})"
        );
        std::thread::sleep(Duration::from_micros(100));
    };
    assert!(a_done > 0, "tenant a starved entirely (b={b_done})");
    let ratio = b_done as f64 / a_done as f64;
    assert!(
        (2.0..=4.5).contains(&ratio),
        "b/a completion ratio {ratio:.2} (a={a_done}, b={b_done}) is not \
         tracking the 3:1 weights"
    );

    blocker.wait().unwrap();
    for h in handles {
        h.wait().unwrap();
    }
}
