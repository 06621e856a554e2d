//! End-to-end tests of the `wlc` command-line driver.

use std::process::Command;

fn wlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wlc"))
}

fn programs(rel: &str) -> String {
    format!("{}/programs/{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_reports_wavefront_analysis() {
    let out = wlc()
        .args(["check", &programs("fig3.wf")])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("WSV (-,0)"), "{stdout}");
    assert!(stdout.contains("wavefront dims [0]"), "{stdout}");
}

#[test]
fn check_reports_the_lane_stride() {
    // `wlc` lays arrays out column-major: Tomcatv's parallel nests lane
    // along dim 0, its scans along dim 1.
    for (args, want) in [
        (vec![programs("tomcatv.wf")], "axis dim 0, unit stride"),
        (vec![programs("tomcatv.wf")], "axis dim 1, strided stride"),
        (
            vec![
                programs("sweep_octant.wf"),
                "--rank".into(),
                "3".into(),
                "-D".into(),
                "n=8".into(),
            ],
            "wavefront diagonal, diagonal stride",
        ),
    ] {
        let out = wlc().arg("check").args(&args).output().expect("wlc runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(want), "{args:?}: {stdout}");
    }
}

#[test]
fn run_reproduces_figure_3f() {
    let out = wlc()
        .args(["run", &programs("fig3.wf"), "--fill", "a=1", "--print", "a"])
        .output()
        .expect("wlc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("16.000"), "{stdout}");
    // Rows double: 1, 2, 4, 8, 16.
    let first_idx = stdout.find("1.000").unwrap();
    let last_idx = stdout.rfind("16.000").unwrap();
    assert!(first_idx < last_idx);
}

#[test]
fn plan_reports_pipelining_win() {
    let out = wlc()
        .args([
            "plan",
            &programs("tomcatv.wf"),
            "--procs",
            "8",
            "--block",
            "model2",
        ])
        .output()
        .expect("wlc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pipelined"), "{stdout}");
    assert!(stdout.contains("wave dim 0"), "{stdout}");
}

/// A model's b narrower than the lane strip is printed with the b the
/// engines run; a programmer's b, or a scalar kernel, runs as planned.
#[test]
fn plan_reports_the_b_the_engines_run() {
    let plan = |extra: &[&str]| {
        let out = wlc()
            .args(["plan", &programs("tomcatv.wf"), "--procs", "2", "--machine", "t3e"])
            .args(extra)
            .output()
            .expect("wlc runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let fitted = plan(&["--block", "model2"]);
    assert!(fitted.contains("b = 6 (model; engines run 8, lane strip)"), "{fitted}");
    for extra in [&["--block", "fixed:6"][..], &["--block", "model2", "--kernel-tier", "scalar"]] {
        let kept = plan(extra);
        assert!(kept.contains("b = 6 (") && !kept.contains("engines run"), "{extra:?}: {kept}");
    }
}

/// Over column-major arrays 5,616 bytes a column, a scan whose tiles
/// and lanes run down the unit-stride columns is run wider than Model2's
/// b, and `wlc plan` says why.
#[test]
fn plan_reports_a_width_fitted_to_page_strided_rows() {
    let path = std::env::temp_dir().join(format!("wlc_paged_{}.wf", std::process::id()));
    std::fs::write(
        &path,
        "var a : [0..701, 0..13] float; direction west = (0, -1);
         [1..700, 1..12] a := 0.5 * a'@west + 1.0;",
    )
    .unwrap();
    let out = wlc()
        .args(["plan", path.to_str().unwrap(), "--procs", "2", "--machine", "t3e"])
        .output()
        .expect("wlc runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("page-strided rows)"), "{stdout}");
}

/// `wlc plan` prices the plan it prints: its pipelined time is the
/// model's estimate over the distribution it names, here dimension 1,
/// not the default dimension 0 — over which this scan is not a wavefront
/// at all and pipelining would price the same as naive.
#[test]
fn plan_prices_the_distribution_it_prints() {
    use wavefront::core::prelude::*;
    use wavefront::lang::compile_str;
    use wavefront::machine::cray_t3e;
    use wavefront::pipeline::Session;

    let src = "var a : [0..701, 0..13] float; direction west = (0, -1);
               [1..700, 1..12] a := 0.5 * a'@west + 1.0;";
    let path = std::env::temp_dir().join(format!("wlc_priced_{}.wf", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = wlc()
        .args(["plan", path.to_str().unwrap(), "--procs", "2", "--machine", "t3e"])
        .output()
        .expect("wlc runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The word printed after `key`.
    let after = |key: &str| -> &str {
        let at = stdout.find(key).unwrap_or_else(|| panic!("no {key:?}: {stdout}"));
        stdout[at + key.len()..].split([',', ' ']).next().unwrap()
    };
    let (dim, pipelined, naive) = (after("wave dim "), after("pipelined "), after("vs naive "));
    assert_eq!(dim, "1", "{stdout}");

    let lo = compile_str::<2>(src, &[], Layout::ColMajor).unwrap();
    let compiled = compile(&lo.program).unwrap();
    let nest = compiled.nests().find(|n| n.is_scan).unwrap();
    let estimate = Session::new(&lo.program, nest)
        .procs(2)
        .dist_dim(1)
        .machine(cray_t3e())
        .estimate()
        .time;
    assert_eq!(pipelined, format!("{estimate:.0}"), "{stdout}");
    assert_ne!(pipelined, naive, "{stdout}");
}

#[test]
fn trace_emits_execution_report_json() {
    let out = wlc()
        .args([
            "trace",
            &programs("tomcatv.wf"),
            "--procs",
            "8",
            "--block",
            "model2",
            "--machine",
            "t3e",
            "--json",
        ])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One report per scan nest, wrapped in a program-level object.
    for key in [
        "\"program\"", "\"nests\"", "\"per_proc\"", "\"phases\"", "\"fill\"",
        "\"steady\"", "\"drain\"", "\"messages\"", "\"bytes\"", "\"predicted\"",
        "\"engine\"", "\"makespan\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // Balanced braces — cheap well-formedness check without a JSON parser.
    let opens = stdout.matches('{').count();
    let closes = stdout.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON: {stdout}");
}

#[test]
fn trace_human_output_reports_phases_and_traffic() {
    let out = wlc()
        .args(["trace", &programs("fig3.wf"), "--procs", "4", "--engine", "sim"])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phases:"), "{stdout}");
    assert!(stdout.contains("messages"), "{stdout}");
    assert!(stdout.contains("engine sim"), "{stdout}");
}

#[test]
fn trace_json_includes_analysis_and_out_writes_file() {
    let path = std::env::temp_dir().join(format!("wlc_trace_{}.json", std::process::id()));
    let out = wlc()
        .args([
            "trace",
            &programs("tomcatv.wf"),
            "--procs",
            "4",
            "--engine",
            "sim",
            "--strict",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --out redirects the document: stdout carries no JSON.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"nests\""));
    let doc = std::fs::read_to_string(&path).expect("--out file written");
    for key in ["\"analysis\"", "\"critical_path\"", "\"efficiency\"", "\"histograms\""] {
        assert!(doc.contains(key), "missing {key}");
    }
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_strict_passes_on_every_engine() {
    for engine in ["sim", "seq", "threads"] {
        let out = wlc()
            .args([
                "trace",
                &programs("fig3.wf"),
                "--procs",
                "3",
                "--engine",
                engine,
                "--strict",
            ])
            .output()
            .expect("wlc runs");
        assert!(
            out.status.success(),
            "--strict failed on {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn timeline_draws_the_gantt_chart() {
    let chrome = std::env::temp_dir().join(format!("wlc_chrome_{}.json", std::process::id()));
    let out = wlc()
        .args([
            "timeline",
            &programs("tomcatv.wf"),
            "--procs",
            "4",
            "--engine",
            "sim",
            "--width",
            "48",
            "--chrome",
            chrome.to_str().unwrap(),
        ])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("timeline (sim"), "{stdout}");
    assert!(stdout.contains("proc    0 |"), "{stdout}");
    assert!(stdout.contains("legend"), "{stdout}");
    assert!(stdout.contains("critical path:"), "{stdout}");
    assert!(stdout.contains("pipeline efficiency:"), "{stdout}");
    let doc = std::fs::read_to_string(&chrome).expect("--chrome file written");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\":\"s\"") && doc.contains("\"ph\":\"f\""));
    std::fs::remove_file(&chrome).ok();
}

#[test]
fn rank3_program_checks() {
    let out = wlc()
        .args(["check", &programs("sweep_octant.wf"), "--rank", "3", "-D", "n=8"])
        .output()
        .expect("wlc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("WSV (-,-,-)"), "{stdout}");
}

#[test]
fn legality_errors_fail_with_diagnostics() {
    let dir = std::env::temp_dir().join("wlc_test_bad.wf");
    std::fs::write(
        &dir,
        "var a : [1..8, 1..8] float;
         direction north = (-1, 0);
         direction south = (1, 0);
         [2..7, 1..8] scan begin
             a := a'@north + a'@south;
         end;",
    )
    .unwrap();
    let out = wlc()
        .args(["check", dir.to_str().unwrap()])
        .output()
        .expect("wlc runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("legality (ii)"), "{stderr}");
}

#[test]
fn unknown_options_exit_2() {
    let out = wlc()
        .args(["check", &programs("fig3.wf"), "--bogus"])
        .output()
        .expect("wlc runs");
    assert_eq!(out.status.code(), Some(2));
    // An empty processor line is a usage error too, on every
    // subcommand that plans (a panic would exit 101).
    for cmd in ["plan", "trace", "timeline", "tune", "dag"] {
        let out = wlc()
            .args([cmd, &programs("tomcatv.wf"), "--procs", "0"])
            .output()
            .expect("wlc runs");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs at least one processor"), "{cmd}: {stderr}");
    }
}

#[test]
fn run_without_print_summarizes_arrays() {
    let out = wlc()
        .args(["run", &programs("tomcatv.wf"), "-D", "n=16", "--fill", "d=1"])
        .output()
        .expect("wlc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rx:"), "{stdout}");
    assert!(stdout.contains("mean"), "{stdout}");
}

/// `wlc top --once` against a live `wlc serve`: after one traced job,
/// the dashboard frame shows the service totals, the tenant's row, and
/// per-stage latency percentiles pulled over the wire METRICS frame.
#[test]
fn top_renders_live_stage_latencies() {
    use std::io::{BufRead as _, BufReader};
    use wavefront::pipeline::{WireClient, WireRequest, WireTopology};

    let mut server = wlc()
        .args(["serve", "--addr", "127.0.0.1:0", "--allow-shutdown"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("wlc serve spawns");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("serve prints its address").unwrap();
    let addr = banner.strip_prefix("listening on ").expect(&banner).to_string();

    // One traced job so every stage histogram has a sample.
    let mut client = WireClient::connect(&*addr).expect("connect");
    let mut req = WireRequest::new(
        2,
        "const n = 12;
         var a : [1..n, 1..n] float;
         direction north = (-1, 0);
         [2..n, 1..n] a := 2.0 * a'@north;",
    );
    req.topology = WireTopology::Line(2);
    req.arrays = vec![("a".to_string(), vec![1.0; 144])];
    req.trace_id = Some(7);
    let resp = client.submit(&req).expect("job runs");
    assert!(resp.spans.is_some(), "the result carries spans");

    let out = wlc()
        .args(["top", "--addr", &addr, "--once"])
        .output()
        .expect("wlc top runs");
    client.shutdown().expect("shutdown frame");
    server.wait().expect("server exits");

    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dash = String::from_utf8_lossy(&out.stdout);
    assert!(dash.contains("1 submitted, 1 completed"), "{dash}");
    assert!(dash.contains("default"), "tenant row missing: {dash}");
    for stage in ["admit", "queue", "run", "total"] {
        assert!(dash.contains(stage), "stage {stage} row missing: {dash}");
    }
    assert!(dash.contains("p99"), "{dash}");
    assert!(
        !dash.contains("no stage latency data"),
        "dashboard fell back to the no-data notice: {dash}"
    );
}
