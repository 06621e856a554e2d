#!/usr/bin/env bash
# Full offline verification: build, test (incl. the golden check of the
# paper's figures), lint, smoke every `wlc` surface, and bit-check the
# five perfbench workloads against their floors. No step compares a
# wall-clock time with a threshold — timing is `perfbench`'s job, argued
# by paired runs (bench/README.md), not by a gate here.
set -euo pipefail
cd "$(dirname "$0")/.."
start=$SECONDS

# expect <what> <text> <key>...: every key must occur in the text.
expect() {
    local what=$1 text=$2 key
    shift 2
    for key in "$@"; do
        if ! grep -qF -- "$key" <<<"$text"; then
            echo "$what missing $key:" >&2
            echo "$text" >&2
            exit 1
        fi
    done
}

echo "== build (release, offline) =="
cargo build --release --offline

echo
echo "== tests (offline): every workspace member, the benchmark package, the kernels optimised =="
cargo test -q --offline --workspace
cargo test -q --offline --manifest-path bench/Cargo.toml
# The kernels' bit-identity and allocation pins again, on the optimised
# (autovectorised) code the benchmark and the binaries run, and the
# engines' equivalence and the resident loops through both engines there.
cargo test -q --offline --release --test kernel_differential --test kernel_allocs \
    --test parallel_equivalence --test timestep --test timestep_steady

echo
echo "== clippy (all targets, warnings are errors) =="
cargo clippy --all-targets --offline -- -D warnings

echo
echo "== rustdoc (every workspace crate, warnings are errors: no dead doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

WLC=target/release/wlc

echo
echo "== wlc check programs/*.wf =="
"$WLC" check programs/fig3.wf
"$WLC" check programs/tomcatv.wf
"$WLC" check programs/sweep_octant.wf --rank 3 -D n=8
"$WLC" check programs/relax.wf

echo
echo "== wlc trace smoke (threads engine, JSON) =="
out=$("$WLC" trace programs/tomcatv.wf --procs 8 --block model2 --machine t3e --json)
expect "trace output" "$out" '"per_proc"' '"phases"' '"predicted"' '"messages"'
echo "trace JSON contains per_proc / phases / predicted / messages ✔"

echo
echo "== wlc trace --strict over programs/*.wf (predicted == observed) =="
"$WLC" trace programs/fig3.wf --procs 4 --engine sim --strict --json --out /dev/null
"$WLC" trace programs/tomcatv.wf --procs 8 --engine threads --strict --json --out /dev/null
"$WLC" trace programs/sweep_octant.wf --rank 3 -D n=8 --procs 4 --engine sim --strict \
    --json --out /dev/null
# The threads engine's posts stand for the predicted messages: checked
# on a line (above) and on a mesh, where a cell posts for two links.
"$WLC" trace programs/sweep_octant.wf --rank 3 -D n=8 --mesh 2x2 --engine threads --strict \
    --json --out /dev/null
# Seq is the same engine on the calling thread: over both wave axes of
# the mesh it must observe exactly the zero traffic it predicts.
"$WLC" trace programs/sweep_octant.wf --rank 3 -D n=8 --mesh 2x2 --engine seq --strict \
    --json --out /dev/null
# Model2's b = 6 here is narrower than the lane strip on Tomcatv's lane
# axis, so the threads run the plan re-cut at b = 8 (`wlc plan` prints
# both): its posts must equal that plan's prediction.
"$WLC" trace programs/tomcatv.wf -D n=256 --procs 2 --block model2 --machine t3e \
    --engine threads --strict --json --out /dev/null
# The interpreter runs in place like every other tier: same posts.
"$WLC" trace programs/tomcatv.wf --procs 8 --engine threads --kernel-tier interpreted --strict \
    --json --out /dev/null
"$WLC" trace programs/sweep_octant.wf --rank 3 -D n=8 --mesh 2x2 --engine threads \
    --kernel-tier interpreted --strict --json --out /dev/null
echo "strict trace passed on fig3 / tomcatv / sweep_octant (line and 2x2 mesh, threads and seq, compiled and interpreted, a lane-fitted plan) ✔"

echo
echo "== wlc timeline smoke (ASCII Gantt + Chrome trace export) =="
chrome_out=$(mktemp)
out=$("$WLC" timeline programs/tomcatv.wf --procs 4 --engine sim --width 48 \
    --chrome "$chrome_out")
expect "timeline output" "$out" 'timeline (sim' 'legend' 'critical path:' 'pipeline efficiency:'
expect "chrome trace" "$(cat "$chrome_out")" '"traceEvents"' '"ph":"s"' '"ph":"f"' '"process_name"'
rm -f "$chrome_out"
echo "timeline chart + critical path + Chrome export ✔"

echo
echo "== wlc tune smoke (calibration + adaptive search, JSON) =="
out=$("$WLC" tune programs/fig3.wf --procs 4 --json)
expect "tune output" "$out" '"calibration"' '"alpha_work"' '"model_b"' '"exhaustive_b"' '"engines"'
# The simulator engine runs the plan the search picked on the same
# calibrated machine, so its block is the searched one, nest by nest.
python3 -c '
import json, sys
nests = json.load(sys.stdin)["nests"]
assert nests, "no scan nest reported"
for n in nests:
    sim, best = n["engines"]["sim"]["block"], n["exhaustive_b"]
    assert sim == best, "nest %s: sim ran b = %s, the search chose %s" % (n["nest"], sim, best)
' <<<"$out"
echo "tune JSON contains calibration / alpha_work / model_b / exhaustive_b / engines; sim block == exhaustive_b ✔"

echo
echo "== wlc dag smoke (chained jobs, real + simulated, JSON) =="
out=$("$WLC" dag programs/tomcatv.wf --procs 4 --steps 3 --chains 2 --json)
expect "dag output" "$out" '"scheduler"' '"makespan"' '"critical_path"' '"decisions"' '"bytes_shared"'
out=$("$WLC" dag programs/tomcatv.wf --engine sim --sim-procs 8 --steps 3 --chains 2 \
    --scheduler critical-path --json)
expect "sim dag output" "$out" '"time_unit":"model_units"'
echo "dag JSON contains scheduler / makespan / critical_path, sim what-if in model units ✔"

echo
echo "== wlc timestep smoke (resident loop, fused rotation, JSON) =="
out=$("$WLC" timestep programs/relax.wf --steps 8 --swap next:curr \
    --fill-coords curr --json)
expect "timestep output" "$out" '"steps":8' '"fused":true' '"chunks":1' \
    '"overlap_efficiency"' '"resident_bytes"' '"final_bindings"'
# The overlap ablation must still fuse but harvest zero overlap.
out=$("$WLC" timestep programs/relax.wf --steps 8 --swap next:curr \
    --fill-coords curr --no-pipeline --json)
expect "timestep --no-pipeline output" "$out" '"overlap_seconds":0.000000'
# The width a fused chunk ran is deterministic. `wlc` lays arrays out
# column-major, so the relaxation's lanes are strided here: no row is a
# page-strided slice, and the chunk keeps Model2's b.
out=$("$WLC" timestep programs/relax.wf -D n=1024 --procs 2 --swap next:curr --json)
expect "timestep block" "$out" '"fused":true' '"block":10,'
echo "wlc timestep: fused single-chunk loop, --no-pipeline kills the overlap, chunk width reported ✔"

echo
echo "== perfbench smoke (five workloads, every sampled op bit-checked against its floor) =="
for w in sweep_large jobs_small wire_jobs loop_small loop_large; do
    line=$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$w" --seed 1 --quick --trace 0 | tail -n 1)
    expect "perfbench $w" "$line" '"correct":true' '"failed":0,'
    echo "perfbench $w: correct, 0 failed ✔"
done

echo
echo "All verification steps passed in $((SECONDS - start)) s."
# The tracked numbers (ROADMAP item 5), by the commands CHANGES.md quotes.
rs_lines=$(find . -name '*.rs' -not -path './target/*' -not -path './bench/*' | xargs cat | wc -l)
pub_lines=$(grep -rE '^\s*pub ' crates/pipeline/src | wc -l)
# `unsafe { … }` blocks in shipped code: each file up to its first
# top-level `#[cfg(test)]`, comment lines and test-only files skipped
# (docs/PERF.md names the sites and what they rest on).
unsafe_blocks=$(find crates src -name '*.rs' -not -name '*_tests.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[[:space:]]*\/\// && /unsafe[[:space:]]*\{/ { n++ } END { print n + 0 }')
# The threaded engine's shipped lines: everything above its test modules.
engine_lines=$(awk '/^#\[cfg\(test\)\]/ { t = NR } /^mod / { print t - 1; exit }' \
    crates/pipeline/src/exec_threads.rs)
# The service control plane's shipped lines: each file up to its first
# top-level `#[cfg(test)]`.
service_lines=$(awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' \
    crates/pipeline/src/service/*.rs)
# The simulator's shipped lines: everything above its first top-level
# `#[cfg(test)]`.
sim_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/pipeline/src/exec_sim.rs)
# The plan's shipped lines: everything above its first top-level
# `#[cfg(test)]`. The tile graph the simulator and the threaded engine
# both read lives here, so the three files are read together.
plan_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/pipeline/src/plan.rs)
# The wire protocol's shipped lines: everything above its first
# top-level `#[cfg(test)]`.
wire_lines=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; exit }' crates/pipeline/src/service/wire.rs)
# The pipeline crate's shipped lines: each file up to its first
# top-level `#[cfg(test)]`, test-only `*_tests.rs` files skipped.
crate_lines=$(find crates/pipeline/src -name '*.rs' -not -name '*_tests.rs' -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }')
# The kernel tiers' shipped lines: each `crates/core/src/kernel*.rs` up to
# its first top-level `#[cfg(test)]` (ROADMAP item 7 deletes the scalar
# tape, and this is the number it moves).
kernel_lines=$(awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' \
    crates/core/src/kernel*.rs)
echo "tracked: $rs_lines workspace .rs lines outside target/ and bench/;" \
    "$pub_lines pub lines in crates/pipeline/src;" \
    "$unsafe_blocks unsafe blocks outside #[cfg(test)] in crates/ and src/;" \
    "$engine_lines shipped lines in crates/pipeline/src/exec_threads.rs;" \
    "$service_lines shipped lines in crates/pipeline/src/service/*.rs;" \
    "$sim_lines shipped lines in crates/pipeline/src/exec_sim.rs;" \
    "$plan_lines shipped lines in crates/pipeline/src/plan.rs;" \
    "$wire_lines shipped lines in crates/pipeline/src/service/wire.rs;" \
    "$crate_lines shipped lines in crates/pipeline/src;" \
    "$kernel_lines shipped lines in crates/core/src/kernel*.rs"
