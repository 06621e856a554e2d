#!/usr/bin/env bash
# Full offline verification: build, test, check every WL program, and
# smoke-test the telemetry trace path. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo
echo "== tests (offline): every workspace member, then the benchmark package =="
cargo test -q --offline --workspace
cargo test -q --offline --manifest-path bench/Cargo.toml

echo
echo "== clippy (all targets, warnings are errors) =="
cargo clippy --all-targets --offline -- -D warnings

WLC=target/release/wlc

# The fresh-run bench gates below compare sub-millisecond wall-clock
# latencies against baselines stamped on an otherwise-idle box. Minutes
# of full-parallel compile or benching right before a gated run leaves
# the CPU hot enough to throttle those latencies 40%+ past any honest
# noise threshold, so each gated run gets a settle window first
# (override with VERIFY_COOLDOWN=0 on hosts that don't throttle).
cooldown() { sleep "${VERIFY_COOLDOWN:-45}"; }

echo
echo "== wlc check programs/*.wf =="
"$WLC" check programs/fig3.wf
"$WLC" check programs/tomcatv.wf
"$WLC" check programs/sweep_octant.wf --rank 3 -D n=8
"$WLC" check programs/relax.wf

echo
echo "== wlc trace smoke (threads engine, JSON) =="
out=$("$WLC" trace programs/tomcatv.wf --procs 8 --block model2 --machine t3e --json)
for key in '"per_proc"' '"phases"' '"predicted"' '"messages"'; do
    if ! grep -qF "$key" <<<"$out"; then
        echo "trace output missing $key" >&2
        exit 1
    fi
done
echo "trace JSON contains per_proc / phases / predicted / messages ✔"

echo
echo "== wlc trace --strict over programs/*.wf (predicted == observed) =="
"$WLC" trace programs/fig3.wf --procs 4 --engine sim --strict --json --out /dev/null
"$WLC" trace programs/tomcatv.wf --procs 8 --engine threads --strict --json --out /dev/null
"$WLC" trace programs/sweep_octant.wf --rank 3 -D n=8 --procs 4 --engine sim --strict \
    --json --out /dev/null
echo "strict trace passed on fig3 / tomcatv / sweep_octant ✔"

echo
echo "== wlc timeline smoke (ASCII Gantt + Chrome trace export) =="
chrome_out=$(mktemp)
out=$("$WLC" timeline programs/tomcatv.wf --procs 4 --engine sim --width 48 \
    --chrome "$chrome_out")
for key in 'timeline (sim' 'legend' 'critical path:' 'pipeline efficiency:'; do
    if ! grep -qF "$key" <<<"$out"; then
        echo "timeline output missing $key" >&2
        exit 1
    fi
done
for key in '"traceEvents"' '"ph":"s"' '"ph":"f"' '"process_name"'; do
    if ! grep -qF "$key" "$chrome_out"; then
        echo "chrome trace missing $key" >&2
        exit 1
    fi
done
rm -f "$chrome_out"
echo "timeline chart + critical path + Chrome export ✔"

echo
echo "== wlc tune smoke (calibration + adaptive, JSON) =="
out=$("$WLC" tune programs/fig3.wf --procs 4 --json)
for key in '"calibration"' '"alpha_work"' '"model_b"' '"exhaustive_b"' '"engines"'; do
    if ! grep -qF "$key" <<<"$out"; then
        echo "tune output missing $key" >&2
        exit 1
    fi
done
echo "tune JSON contains calibration / alpha_work / model_b / exhaustive_b / engines ✔"

echo
echo "== wlc dag smoke (chained jobs, real + simulated, JSON) =="
out=$("$WLC" dag programs/tomcatv.wf --procs 4 --steps 3 --chains 2 --json)
for key in '"scheduler"' '"makespan"' '"critical_path"' '"decisions"' '"bytes_shared"'; do
    if ! grep -qF "$key" <<<"$out"; then
        echo "dag output missing $key" >&2
        exit 1
    fi
done
out=$("$WLC" dag programs/tomcatv.wf --engine sim --sim-procs 8 --steps 3 --chains 2 \
    --scheduler critical-path --json)
if ! grep -qF '"time_unit":"model_units"' <<<"$out"; then
    echo "sim dag did not report model-unit makespan" >&2
    exit 1
fi
echo "dag JSON contains scheduler / makespan / critical_path, sim what-if in model units ✔"

echo
echo "== bench_diff self-check (same dir passes; perturbed copy fails) =="
BENCH_DIFF=target/release/bench_diff
"$BENCH_DIFF" results results
tmpdir=$(mktemp -d)
cp results/BENCH_*.json "$tmpdir"/
# Inflate one makespan-class metric by 25% — the gate must catch it.
python3 - "$tmpdir/BENCH_fig5a.json" <<'EOF'
import re, sys
path = sys.argv[1]
s = open(path).read()
m = re.search(r'"time_at_model2_b": (\d+)', s)
v = int(m.group(1))
open(path, 'w').write(s.replace(m.group(0), f'"time_at_model2_b": {int(v * 1.25)}', 1))
EOF
if "$BENCH_DIFF" results "$tmpdir"; then
    echo "bench_diff failed to flag an injected 25% regression" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "bench_diff: self-diff clean, injected regression flagged ✔"

echo
echo "== kernel fast-path coverage (all five benchmarks reach the lane tier) =="
cargo run -q --release --offline -p wavefront-bench --bin kernel_bench -- --check-fastpath

echo
echo "== kernel speedup gate self-check (deflated speedup must fail) =="
tmpdir=$(mktemp -d)
cp results/BENCH_*.json "$tmpdir"/
# Deflate one higher-is-better kernel speedup by 30% — the gate must
# catch the compiled tier getting slower relative to the interpreter.
python3 - "$tmpdir/BENCH_kernels.json" <<'EOF'
import re, sys
path = sys.argv[1]
s = open(path).read()
m = re.search(r'"sor_kernel_speedup": ([0-9.]+)', s)
v = float(m.group(1))
open(path, 'w').write(s.replace(m.group(0), f'"sor_kernel_speedup": {v * 0.7:.2f}', 1))
EOF
if "$BENCH_DIFF" results "$tmpdir"; then
    echo "bench_diff failed to flag a deflated kernel speedup" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "kernel_bench: fast-path coverage clean, speedup regression flagged ✔"

echo
echo "== lane speedup gate self-check (deflated lanes/scalar must fail) =="
tmpdir=$(mktemp -d)
cp results/BENCH_*.json "$tmpdir"/
# Deflate one lanes-over-scalar speedup by 30% — the gate must catch
# the lane tier losing its edge over the scalar tape.
python3 - "$tmpdir/BENCH_kernels.json" <<'EOF'
import re, sys
path = sys.argv[1]
s = open(path).read()
m = re.search(r'"sor_lanes_over_scalar_speedup": ([0-9.]+)', s)
v = float(m.group(1))
open(path, 'w').write(
    s.replace(m.group(0), f'"sor_lanes_over_scalar_speedup": {v * 0.7:.2f}', 1))
EOF
if "$BENCH_DIFF" results "$tmpdir"; then
    echo "bench_diff failed to flag a deflated lane speedup" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "kernel_bench: deflated lanes-over-scalar speedup flagged ✔"

echo
echo "== service bench: fresh run gated against the committed baseline =="
cooldown
tmpdir=$(mktemp -d)
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench --bin service_bench
# Wall-clock latencies on a shared box are noisier than DES makespans —
# the cold side respawns 8 threads per rep and swings ±30% with host
# state alone — so this gate gets the same 45% headroom class as the
# other wall-clock benches; the ratio-based speedup self-check below
# still trips at 10% on any real warm-path loss.
"$BENCH_DIFF" results "$tmpdir" --threshold 45
rm -rf "$tmpdir"
echo "service_bench: fresh cold/warm latencies within 45% of the baseline ✔"

echo
echo "== service speedup gate self-check (deflated speedup must fail) =="
tmpdir=$(mktemp -d)
cp results/BENCH_*.json "$tmpdir"/
# Halve one warm-path speedup — the gate must catch the service losing
# its advantage over cold one-shot sessions.
python3 - "$tmpdir/BENCH_service.json" <<'EOF'
import re, sys
path = sys.argv[1]
s = open(path).read()
m = re.search(r'"tomcatv8_service_speedup": ([0-9.]+)', s)
v = float(m.group(1))
open(path, 'w').write(s.replace(m.group(0), f'"tomcatv8_service_speedup": {v * 0.5:.2f}', 1))
EOF
if "$BENCH_DIFF" results "$tmpdir"; then
    echo "bench_diff failed to flag a halved service speedup" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "service_bench: halved warm-path speedup flagged ✔"

echo
echo "== dag bench: fresh quick run gated against the committed baseline =="
cooldown
tmpdir=$(mktemp -d)
# The quick run also hard-asserts the zero-copy invariant: any COW byte
# on a warm DAG edge aborts the bench itself.
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin dag_bench -- --quick
# Wall-clock chain latencies on a shared box are noisy; 50% headroom
# still catches the DAG path losing its edge over submit-and-wait.
"$BENCH_DIFF" results "$tmpdir" --threshold 50
rm -rf "$tmpdir"
echo "dag_bench: zero-copy held, latencies within 50% of the baseline ✔"

echo
echo "== dag speedup gate self-check (halved speedup must fail) =="
tmpdir=$(mktemp -d)
cp results/BENCH_*.json "$tmpdir"/
# Halve the DAG-vs-submit-and-wait speedup — the gate must catch the
# dependent-job path losing its advantage.
python3 - "$tmpdir/BENCH_dag.json" <<'EOF'
import re, sys
path = sys.argv[1]
s = open(path).read()
m = re.search(r'"dag_vs_submit_wait_speedup": ([0-9.]+)', s)
v = float(m.group(1))
open(path, 'w').write(s.replace(m.group(0), f'"dag_vs_submit_wait_speedup": {v * 0.5:.2f}', 1))
EOF
if "$BENCH_DIFF" results "$tmpdir"; then
    echo "bench_diff failed to flag a halved dag speedup" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "dag_bench: halved dag speedup flagged ✔"

echo
echo "== wlc timestep smoke (resident loop, fused rotation, JSON) =="
out=$("$WLC" timestep programs/relax.wf --steps 8 --swap next:curr \
    --fill-coords curr --json)
for key in '"steps":8' '"fused":true' '"chunks":1' '"overlap_efficiency"' \
    '"resident_bytes"' '"final_bindings"'; do
    if ! grep -qF "$key" <<<"$out"; then
        echo "timestep output missing $key:" >&2
        echo "$out" >&2
        exit 1
    fi
done
# The overlap ablation must still fuse but harvest zero overlap.
out=$("$WLC" timestep programs/relax.wf --steps 8 --swap next:curr \
    --fill-coords curr --no-pipeline --json)
if ! grep -qF '"overlap_seconds":0.000000' <<<"$out"; then
    echo "timestep --no-pipeline still reported overlap:" >&2
    echo "$out" >&2
    exit 1
fi
echo "wlc timestep: fused single-chunk loop, --no-pipeline kills the overlap ✔"

echo
echo "== timestep bench: fresh quick run gated against the committed baseline =="
cooldown
tmpdir=$(mktemp -d)
# The quick run also hard-asserts the steady-state invariants: any COW
# byte, pool spawn, or handle alloc in a timed resident loop aborts the
# bench itself.
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin timestep_bench -- --quick
# Wall-clock loop latencies share the dag gate's 50% headroom; that
# still catches the resident path losing its edge over per-step submit.
"$BENCH_DIFF" results "$tmpdir" --threshold 50
rm -rf "$tmpdir"
echo "timestep_bench: invariants held, latencies within 50% of the baseline ✔"

echo
echo "== timestep overlap gate self-check (--no-overlap must fail) =="
tmpdir=$(mktemp -d)
# With cross-iteration pipelining disabled the loop's overlap efficiency
# collapses to zero — the bench_diff gate must flag the -100% drop, or
# the overlap metric is not actually being gated.
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin timestep_bench -- --quick --no-overlap
if "$BENCH_DIFF" results "$tmpdir" --threshold 50; then
    echo "bench_diff failed to flag the zeroed overlap efficiency" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "timestep_bench: zeroed overlap efficiency flagged ✔"

echo
echo "== wlc serve smoke (wire protocol, two tenants, gated bench) =="
serve_log=$(mktemp)
"$WLC" serve --addr 127.0.0.1:0 --workers 4 --tenant alpha:1 --tenant beta:3 \
    --allow-shutdown >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "wlc serve never reported its listen address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
tmpdir=$(mktemp -d)
# --shutdown makes the bench send the wire SHUTDOWN frame, so the serve
# process exits cleanly and `wait` below checks its exit status.
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin serve_bench -- --quick --addr "$addr" --shutdown
wait "$serve_pid"
# Wire latencies under open-loop load are the noisiest artifact we gate;
# 50% headroom still catches the serving path falling off a cliff.
"$BENCH_DIFF" results "$tmpdir" --threshold 50
rm -rf "$tmpdir" "$serve_log"
echo "wlc serve: bench drove both tenants, latencies within 50% of baseline ✔"

echo
echo "== serve admission self-check (in-flight limit 0 must reject) =="
# serve_bench --expect-reject spins up a zero-admission server and
# exits non-zero unless the submission draws a typed AdmissionDenied.
cargo run -q --release --offline -p wavefront-bench --bin serve_bench -- --expect-reject
echo "serve_bench: admission limit 0 drew a typed rejection ✔"

echo
echo "== service soak (30 s of tiny jobs; pool spawns must stay flat) =="
cargo run -q --release --offline -p wavefront-bench --bin service_bench -- --soak 30

echo
echo "== wlc top smoke (live dashboard over the wire METRICS frame) =="
serve_log=$(mktemp)
"$WLC" serve --addr 127.0.0.1:0 --workers 4 --tenant alpha:1 --tenant beta:3 \
    --allow-shutdown >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "wlc serve never reported its listen address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Drive warm jobs through the wire so every stage histogram has samples,
# leaving the server up for the dashboard poll (artifact discarded — the
# gated serve run already happened above).
tmpdir=$(mktemp -d)
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin serve_bench -- --quick --addr "$addr"
top_out=$("$WLC" top --addr "$addr" --once)
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -rf "$tmpdir" "$serve_log"
# One frame must show service totals, both tenant rows, and per-stage
# percentiles pulled over METRICS — proving the v3 round trip end-to-end.
for key in 'submitted' 'alpha' 'beta' 'kernels:' 'admit' 'queue' 'run' 'total' 'p99'; do
    if ! grep -qF "$key" <<<"$top_out"; then
        echo "wlc top frame missing $key:" >&2
        echo "$top_out" >&2
        exit 1
    fi
done
if grep -qF 'no stage latency data' <<<"$top_out"; then
    echo "wlc top fell back to the no-metrics notice against a v3 server" >&2
    echo "$top_out" >&2
    exit 1
fi
echo "wlc top: tenants, totals, and stage p99s rendered from a live server ✔"

echo
echo "== obs bench: fresh run gated against the committed baseline =="
cooldown
tmpdir=$(mktemp -d)
# obs_bench itself exits non-zero if metrics overhead reaches 2%; the
# bench_diff pass then gates the absolute warm latencies (30% headroom,
# same as the other wall-clock artifacts).
BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench --bin obs_bench
"$BENCH_DIFF" results "$tmpdir" --threshold 30
rm -rf "$tmpdir"
echo "obs_bench: metrics overhead under budget, latencies within 30% of baseline ✔"

echo
echo "== obs overhead gate self-check (injected delay must fail) =="
tmpdir=$(mktemp -d)
# --inject-overhead busy-waits 200 µs in every histogram observation;
# the < 2% budget must trip or the gate is dead.
if BENCH_OUT="$tmpdir" cargo run -q --release --offline -p wavefront-bench \
    --bin obs_bench -- --inject-overhead; then
    echo "obs_bench failed to flag an injected per-observation delay" >&2
    exit 1
fi
rm -rf "$tmpdir"
echo "obs_bench: injected observation delay blew the 2% budget as required ✔"

echo
echo "All verification steps passed."
