#!/usr/bin/env bash
# Tier-1 verification, plain and sanitized.
#
# 1. Configure + build + ctest with the default toolchain flags plus
#    DXBSP_WERROR=ON (any compiler warning fails the build), then
#    the parallel-isolation leg: the suites that write files (svc,
#    stream, flight, resilience; ctest label "writes-files") rerun under
#    `ctest -j` ten times over (--repeat until-fail:10). Each test
#    process works in its own scratch directory (tests/test_tmp.hpp); a
#    shared path shows up here as a flaky failure.
# 2. Configure + build + ctest a second tree with DXBSP_SANITIZE=ON
#    (-fsanitize=address,undefined), and run the chaos fault harness and
#    the framed-file corruption fuzz explicitly under the sanitizers
#    (random seeded fault plans and attacker-shaped snapshot, spill,
#    wire and flight-ring bytes are the likeliest places for a latent
#    memory bug to hide). Every leg that runs a --gtest_filter subset
#    fails when its filter selects no test, so a renamed test cannot
#    turn a leg into a silent no-op. The whole
#    engine-equivalence and attribution suites also run explicitly
#    under the sanitizers: they diff every forced engine strategy and
#    the unforced selector, traced and untraced, against the reference
#    engine, so every specialized loop runs there. So do the bank
#    array's combining tests, which diff a table seeded with only the
#    repeated addresses against one seeded with every address.
# 3. Kill-and-resume smoke: SIGTERM a checkpointing sweep mid-flight,
#    resume it, and require the output to be byte-identical to a
#    straight-through run. Also checks that --deadline=0.000001 produces
#    the structured Interrupted outcome (exit 75) and a loadable
#    checkpoint.
# 4. Observability smoke: a traced fig4 run must produce JSON that
#    `python3 -m json.tool` accepts (Chrome trace + run report), its CSV
#    twin must hold one row per leaf of the JSON report with equal
#    values, and the report, CSV and trace must be byte-identical
#    between --threads=1 and --threads=4 (docs/observability.md). A
#    bench's --csv tables, whose labels hold commas, must parse with
#    Python's csv module into rows of their header's width.
# 5. Attribution & drift smoke (docs/observability.md): the healthy
#    fig4 report from step 4 and a seeded faulty r1 sweep must both
#    carry schema-versioned "attribution"/"drift" sections whose cost
#    terms sum exactly to the attributed cycles, the faulty report must
#    be byte-identical across --threads=1/4, every drift sample must
#    stay inside the ±25% model band, the attribution identity and
#    drift-band tests rerun under the sanitizers, and
#    scripts/bench_history.py must lint the committed BENCH_*.json
#    baselines.
# 6. Cache smoke (docs/cache.md): a small bench_fig20_cache_sweep must
#    detect a bank_service -> cache_hit binding crossover, its report
#    must attribute every cycle across all seven terms and stay
#    byte-identical across --threads=1/4, a capacity=0 machine must
#    produce byte-identical output to one with no cache configured at
#    all, the deleted cache-policy/cache-mode keys must exit 64 as
#    unknown keys, and the tier's state machinery reruns under the
#    sanitizers.
# 7. Streaming smoke (docs/streaming.md): the out-of-core pressure
#    bench's budget sweep must stay byte-equivalent to its in-RAM
#    baseline; the same workload must complete under `ulimit -v` at
#    probed-peak + 25%; injected ENOSPC must exit 69 (degraded) and a
#    hung spill write must exit 75 (revoked by the stall window), not
#    crash or wedge; SIGKILL at the worst spill instant must leave an
#    fsck-clean spill directory and resume byte-identically; the spill
#    store's on-disk damage and pressure-model tests rerun under the
#    sanitizers next to the framed-file corruption fuzz of step 2.
# 8. Perf smoke (docs/performance.md): bench_perf_hotpath --quick on the
#    plain (optimized) build must emit valid metrics JSON, and on every
#    one of the five headline workload classes the auto-engine
#    (EngineSelector) speedup over the better fixed engine must stay
#    within 20% of the committed BENCH_9.json baseline (capped, so a
#    fast dev host can't commit a baseline CI machines can't reach).
#    The sanitizer build runs the same bench for its engine cross-check
#    plus the full selector test suite, but skips the throughput gate —
#    sanitized timings measure the sanitizer.
# 9. Scalar build leg (DXBSP_SIMD=OFF): the vectorization toggle must be
#    a pure speed knob. A scalar build of the fig4 bench must produce a
#    byte-identical run report, the hotpath bench's three-engine
#    cross-check must still pass, and contention_diff_test must pass:
#    the scalar bank_of_batch loops against per-element bank_of, the
#    simulator's access profile (which rests on them) against
#    predict_scatter, and the location counter against its sort oracle.
# 10. Trace-off build leg (DXBSP_OBS_TRACE=OFF): compiling tracing out
#     must be a pure observability knob. A trace-off tree must pass the
#     full tier-1 ctest (the few assertions that count trace events are
#     guarded by obs::kTraceCompiledIn) and produce a fig4 run report
#     byte-identical to the plain build's.
# 11. Fleet-observability smoke (docs/observability.md §fleet): every
#     fleet runs with observability on and its healthy, kill and hang
#     reports cmp equal to the serial run's; the final fleet.status
#     holds the lifecycle counters, a chaos-killed worker's flight ring
#     surfaces as the fleet directory's post_mortem.json (last protocol
#     phase + selector records), the fleet timeline fleet.trace.json is
#     valid Chrome JSON with the killed attempt's lane drawn from its
#     ring and no worker event before its grant, the healthy and kill
#     fleet directories hold no *.res file and every done shard's last
#     aggregates message says "completed", sweep_top renders a
#     live fleet, exits 0 on a fleet that
#     ended degraded and refuses an empty dir or an unknown flag,
#     sweep_coordinator refuses an unknown flag and a stray argument
#     after a boolean flag, and the trend reader
#     degrades gracefully when no BENCH_*.json baselines match.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# run_filtered BINARY FILTER: runs the gtest subset FILTER selects and
# fails when it selects no test. gtest exits 0 on an empty selection, so
# without the check a renamed test would make the leg a silent no-op.
run_filtered() {
  local listed
  listed=$("$1" --gtest_list_tests --gtest_filter="$2")
  if ! grep -q '^  ' <<<"$listed"; then
    echo "ci.sh: --gtest_filter='$2' selects no test in $1" >&2
    exit 1
  fi
  "$1" --gtest_filter="$2"
}

echo "== tier-1 (plain) =="
cmake -B build-ci -S . -DDXBSP_WERROR=ON >/dev/null
cmake --build build-ci -j"$JOBS"
ctest --test-dir build-ci -j"$JOBS" --output-on-failure

echo "== parallel test isolation (file-writing suites, repeated) =="
ctest --test-dir build-ci -j"$JOBS" --output-on-failure \
    -L writes-files --repeat until-fail:10

echo "== tier-1 (address+UB sanitizers) =="
cmake -B build-ci-san -S . -DDXBSP_SANITIZE=ON >/dev/null
cmake --build build-ci-san -j"$JOBS"
ctest --test-dir build-ci-san -j"$JOBS" --output-on-failure

echo "== chaos fault harness under sanitizers =="
run_filtered ./build-ci-san/tests/fault_test 'Chaos.*:FaultDeterminism.*'

echo "== framed-file corruption fuzz under sanitizers =="
# Every truncation point and every single-bit flip of a snapshot, spill
# chunk, wire message and flight ring, through each format's parse.
./build-ci-san/tests/framed_file_test

echo "== snapshot resume and spill store under sanitizers =="
# Cancel.* and Sweep.Stall*: pool threads beat and poll the token's
# stall clock concurrently.
run_filtered ./build-ci-san/tests/resilience_test \
  'Snapshot.*:Sweep.Resume*:Cancel.*:Sweep.Stall*'
run_filtered ./build-ci-san/tests/stream_test \
  'SpillFuzz.*:SpillStore.*:SpillCodec.*:PressureModel.*'

echo "== engine matrix under sanitizers =="
# One machine per forced EngineChoice plus an unforced one, each run
# traced and untraced against forced kReference: the observer-free and
# ring-free scheduled loops, the dense path and the SoA kernel all run
# with asan/ubsan watching.
./build-ci-san/tests/engine_equivalence_test > /dev/null
./build-ci-san/tests/attribution_test > /dev/null
# The combining table holds only seeded (repeated) addresses and is
# updated in place through the pointer its lookup returned.
run_filtered ./build-ci-san/tests/sim_features_test 'Combining.*' > /dev/null
echo "engine matrix is sanitizer-clean"

echo "== kill-and-resume smoke =="
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
BENCH=./build-ci/bench/bench_fig7_expansion
SMOKE_ARGS=(--n=32768 --seed=1995)

# Reference: one uninterrupted run.
"$BENCH" "${SMOKE_ARGS[@]}" > "$SMOKE/reference.txt"

# Interrupted run: SIGTERM it mid-flight. Exit 75 = interrupted with a
# checkpoint (the common case); exit 0 means the sweep finished before
# the signal landed, which is fine — resume is then a pure replay.
"$BENCH" "${SMOKE_ARGS[@]}" --checkpoint="$SMOKE/ck.snap" \
  > "$SMOKE/interrupted.txt" &
PID=$!
sleep 0.2
kill -TERM "$PID" 2>/dev/null || true
RC=0
wait "$PID" || RC=$?
if [[ "$RC" != 75 && "$RC" != 0 ]]; then
  echo "kill-and-resume: unexpected exit $RC from interrupted run" >&2
  exit 1
fi
echo "interrupted run exited $RC"

# Resume and require byte-identical output.
"$BENCH" "${SMOKE_ARGS[@]}" --resume="$SMOKE/ck.snap" > "$SMOKE/resumed.txt"
cmp "$SMOKE/reference.txt" "$SMOKE/resumed.txt"
echo "resumed output is byte-identical to the uninterrupted run"

# Deadline path: must exit 75 with the structured outcome and leave a
# loadable checkpoint behind (the resumed run proves loadability).
RC=0
"$BENCH" "${SMOKE_ARGS[@]}" --deadline=0.000001 \
  --checkpoint="$SMOKE/dl.snap" > "$SMOKE/deadline.txt" || RC=$?
if [[ "$RC" != 75 ]]; then
  echo "deadline smoke: expected exit 75, got $RC" >&2
  exit 1
fi
grep -q "INTERRUPTED cause=deadline" "$SMOKE/deadline.txt"
"$BENCH" "${SMOKE_ARGS[@]}" --resume="$SMOKE/dl.snap" > "$SMOKE/dl_resumed.txt"
cmp "$SMOKE/reference.txt" "$SMOKE/dl_resumed.txt"
echo "deadline interrupt is structured and resumable"

echo "== observability smoke =="
OBS_BENCH=./build-ci/bench/bench_fig4_contention_sweep
OBS_ARGS=(--n=16384 --seed=1995)

# Traced run: the Chrome trace, the run report, and the metrics dump
# must all be valid JSON.
"$OBS_BENCH" "${OBS_ARGS[@]}" --threads=1 \
  --trace="$SMOKE/t1.trace.json" --report="$SMOKE/report1.json" \
  --report-csv="$SMOKE/report1.csv" --metrics="$SMOKE/metrics1.json" \
  > /dev/null
python3 -m json.tool "$SMOKE/t1.trace.json" > /dev/null
python3 -m json.tool "$SMOKE/report1.json" > /dev/null
python3 -m json.tool "$SMOKE/metrics1.json" > /dev/null
echo "trace, report and metrics dumps are valid JSON"

# The CSV twin is the JSON report flattened: one section,key,value row
# per scalar leaf, in document order, with the leaf's JSON text as the
# value (strings unquoted, numbers exactly as written).
python3 - "$SMOKE/report1.json" "$SMOKE/report1.csv" <<'EOF'
import csv, json, sys

def leaves(v, section, path, out):
    if isinstance(v, dict):
        for k, m in v.items():
            leaves(m, section, f"{path}.{k}" if path else k, out)
    elif isinstance(v, list):
        for i, m in enumerate(v):
            leaves(m, section, f"{path}.{i}" if path else str(i), out)
    elif v is None:
        out.append([section, path, "null"])
    elif isinstance(v, bool):
        out.append([section, path, "true" if v else "false"])
    else:
        out.append([section, path, v])

doc = json.load(open(sys.argv[1]), parse_int=str, parse_float=str)
want = []
for key, v in doc.items():
    if isinstance(v, (dict, list)):
        leaves(v, key, "", want)
    else:
        leaves(v, "run", key, want)
with open(sys.argv[2], newline="") as f:
    rows = list(csv.reader(f))
assert rows[0] == ["section", "key", "value"], rows[0]
rows = rows[1:]
assert len(rows) == len(want), (len(rows), len(want))
for got, leaf in zip(rows, want):
    assert got == leaf, (got, leaf)
print(f"report CSV twin: {len(rows)} rows, one per JSON leaf, equal values")
EOF

# Determinism: reports and traces must not depend on --threads.
"$OBS_BENCH" "${OBS_ARGS[@]}" --threads=4 \
  --trace="$SMOKE/t4.trace.json" --report="$SMOKE/report4.json" \
  --report-csv="$SMOKE/report4.csv" > /dev/null
cmp "$SMOKE/report1.json" "$SMOKE/report4.json"
cmp "$SMOKE/report1.csv" "$SMOKE/report4.csv"
cmp "$SMOKE/t1.trace.json" "$SMOKE/t4.trace.json"
echo "report, CSV twin and trace are byte-identical across --threads=1/4"

# Bench --csv tables quote their cells: "x=4, 1 port" is one field. Each
# blank-line-separated block whose first line holds a comma is a table.
./build-ci/bench/bench_a9_bank_ports --csv > "$SMOKE/a9.csv"
python3 - "$SMOKE/a9.csv" <<'EOF'
import csv, sys

tables = 0
for block in open(sys.argv[1]).read().split("\n\n"):
    lines = block.strip("\n").splitlines()
    if not lines or "," not in lines[0]:
        continue
    rows = list(csv.reader(lines))
    assert all(len(r) == len(rows[0]) for r in rows), rows
    tables += 1
assert tables >= 2, f"found {tables} CSV tables"
print(f"bench_a9 --csv: {tables} tables, every row the header's width")
EOF

# Reconciliation + registry stress under the sanitizers.
run_filtered ./build-ci-san/tests/obs_test \
  'Reconcile.*:Metrics.ConcurrentUpdatesAreExact'

echo "== attribution & drift smoke =="
ATTR_BENCH=./build-ci/bench/bench_r1_fault_sweep
# n=65536 keeps the deliberately pathological "lossy, tight budget"
# scenario's retry tail inside the ±25% band (at tiny n its relative
# error is dominated by per-attempt constants).
ATTR_ARGS=(--n=65536 --seed=1995)

"$ATTR_BENCH" "${ATTR_ARGS[@]}" --threads=1 --report="$SMOKE/attr1.json" \
  > /dev/null
python3 -m json.tool "$SMOKE/attr1.json" > /dev/null

# The healthy fig4 report from the observability smoke and the faulty
# r1 report must both decompose every attributed cycle (terms sum
# exactly to cycles) and keep every per-superstep drift sample inside
# the model band.
python3 - "$SMOKE/report1.json" "$SMOKE/attr1.json" <<'EOF'
import json, sys

for path in sys.argv[1:]:
    doc = json.load(open(path))
    attr = doc["attribution"]
    assert attr["schema_version"] == 2, (path, attr)
    assert attr["supersteps"] > 0, (path, attr)
    assert sum(attr["terms"].values()) == attr["cycles"], (path, attr)
    sketch = attr["bank_load"]
    assert len(sketch["counts"]) == 65, (path, len(sketch["counts"]))
    drift = doc["drift"]
    assert drift["schema_version"] == 2, (path, drift)
    assert drift["supersteps"] == attr["supersteps"], (path, drift)
    assert drift["out_of_band"] == 0, (path, drift)
    worst = drift["worst"]
    assert worst is None or abs(worst["rel_err"]) <= drift["band"], worst
    print(f"{path}: {attr['supersteps']} supersteps, "
          f"{attr['cycles']} cycles fully attributed; "
          f"max |rel err| {drift['max_abs_rel_err']:.4f} "
          f"within the {drift['band']:.2f} band")
EOF

# Faulty-path determinism: the attribution/drift sections must not
# depend on --threads any more than the rest of the report does.
"$ATTR_BENCH" "${ATTR_ARGS[@]}" --threads=4 --report="$SMOKE/attr4.json" \
  > /dev/null
cmp "$SMOKE/attr1.json" "$SMOKE/attr4.json"
echo "faulty-sweep report is byte-identical across --threads=1/4"

# Identity property matrix and the drift-band acceptance tests under
# the sanitizers (the attributor's origin maps and the sketch merge are
# fresh pointer-heavy code).
run_filtered ./build-ci-san/tests/attribution_test \
  'AttributionIdentity.*:DriftBand.*:AttributionUnserved.*'

# Trend-reader lint over the committed baselines: malformed BENCH_*.json
# exits non-zero here instead of surprising the first person to chart it.
python3 scripts/bench_history.py BENCH_*.json > /dev/null
echo "bench_history.py lint passed on committed baselines"

echo "== cache smoke (two-level tier, docs/cache.md) =="
FIG20=./build-ci/bench/bench_fig20_cache_sweep
FIG20_ARGS=(--n=8192 --seed=1995)

# Small C x x x d sweep: the run must detect at least one binding-term
# crossover (bank_service -> cache_hit), and its report must decompose
# every attributed cycle across all SEVEN terms exactly.
"$FIG20" "${FIG20_ARGS[@]}" --threads=1 --report="$SMOKE/cache1.json" \
  > "$SMOKE/cache1.out"
grep -q "^crossover:" "$SMOKE/cache1.out"
python3 - "$SMOKE/cache1.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
attr = doc["attribution"]
assert attr["schema_version"] == 2, attr
terms = attr["terms"]
assert len(terms) == 7 and "cache_hit" in terms, sorted(terms)
assert terms["cache_hit"] > 0, terms
assert sum(terms.values()) == attr["cycles"], attr
print(f"cache sweep: {attr['supersteps']} supersteps, {attr['cycles']} "
      f"cycles fully attributed across 7 terms "
      f"(cache_hit = {terms['cache_hit']})")
EOF

# Determinism: the cached-machine report must not depend on --threads.
"$FIG20" "${FIG20_ARGS[@]}" --threads=4 --report="$SMOKE/cache4.json" \
  > /dev/null
cmp "$SMOKE/cache1.json" "$SMOKE/cache4.json"
echo "cache sweep report is byte-identical across --threads=1/4"

# capacity=0 must be byte-identical to never configuring the tier at
# all: same explorer sweep, cache knobs present but capacity 0.
./build-ci/examples/machine_explorer --n=20000 --k=512 --explain \
  > "$SMOKE/cache_off.out"
./build-ci/examples/machine_explorer --n=20000 --k=512 --explain \
  --cache=0 --cache-line=16 --cache-write=through \
  > "$SMOKE/cache_zero.out"
cmp "$SMOKE/cache_off.out" "$SMOKE/cache_zero.out"
echo "cache capacity=0 output is byte-identical to cache-off"

# Replacement is LRU with automatic fills: the deleted policy and mode
# keys must be refused as unknown keys (exit 64), not silently ignored.
for KNOB in cache-policy=fifo cache-mode=scratchpad; do
  RC=0
  ./build-ci/bench/bench_fig4_contention_sweep --n=4096 \
    --machine="j90,cache=64,$KNOB" > /dev/null 2> "$SMOKE/cache_knob.err" \
    || RC=$?
  if [[ "$RC" != 64 ]]; then
    echo "--machine=j90,cache=64,$KNOB: expected exit 64, got $RC" >&2
    exit 1
  fi
  grep -q "unknown key '${KNOB%%=*}'" "$SMOKE/cache_knob.err"
done
echo "cache-policy and cache-mode are refused as unknown keys (64)"

# The tier's tag/state machinery and the cached engine-equivalence
# scenarios rerun under the sanitizers.
./build-ci-san/tests/cache_test
run_filtered ./build-ci-san/tests/engine_equivalence_test \
  'EngineEquivalence.CacheTier*'
echo "cache tier is sanitizer-clean"

echo "== perf smoke (event-engine throughput) =="
PERF=./build-ci/bench/bench_perf_hotpath

# Engine cross-check plus the selector suite under the sanitizers
# (throughput numbers from a sanitized build are meaningless, so no
# gate — the bench itself fails on any reference/calendar/auto
# telemetry mismatch).
./build-ci-san/bench/bench_perf_hotpath --quick --reps=1 > /dev/null
./build-ci-san/tests/engine_select_test > /dev/null
echo "sanitized engine cross-check and selector suite passed"

# Throughput gate on the optimized build, against the committed
# baseline: on every headline class the auto engine's speedup over the
# better fixed engine must stay within 20% of BENCH_9.json. Baselines
# are capped at 2.5x before applying the tolerance: the gate catches
# "the selector stopped winning", not host-to-host variance above the
# acceptance bar.
"$PERF" --quick --metrics="$SMOKE/perf.json" > "$SMOKE/perf.txt"
python3 -m json.tool "$SMOKE/perf.json" > /dev/null
python3 - "$SMOKE/perf.json" BENCH_9.json <<'EOF'
import json, sys

CLASSES = ["uniform_p64_x4_d8", "hot_tight_window", "combining_multihot",
           "cached_stride", "faulty_drop_retry"]
current = json.load(open(sys.argv[1]))["metrics"]
baseline = json.load(open(sys.argv[2]))["metrics"]
failed = []
for cls in CLASSES:
    key = f"perf.{cls}.speedup_x100"
    cur = current[key]["value"]
    base = baseline[key]["value"]
    floor = 0.8 * min(base, 250)
    verdict = "ok" if cur >= floor else "FAIL"
    print(f"{cls:>20}: current {cur/100:.2f}x, baseline {base/100:.2f}x, "
          f"gate >= {floor/100:.2f}x [{verdict}]")
    if cur < floor:
        failed.append(cls)
if failed:
    sys.exit("perf smoke: auto-vs-best-fixed speedup regressed >20% vs the "
             f"committed baseline on: {', '.join(failed)}; if intended, "
             "refresh BENCH_9.json (docs/performance.md)")
EOF
echo "perf smoke passed (all five headline classes gated)"

echo "== scalar build leg (DXBSP_SIMD=OFF) =="
# The vectorized kernels must be a pure speed knob: a scalar build has
# to produce byte-identical reports and pass the same three-engine
# cross-check and contention diff. Only the targets this leg runs are
# built.
cmake -B build-ci-scalar -S . -DDXBSP_SIMD=OFF >/dev/null
cmake --build build-ci-scalar -j"$JOBS" \
  --target bench_fig4_contention_sweep bench_perf_hotpath contention_diff_test
"$OBS_BENCH" "${OBS_ARGS[@]}" --report="$SMOKE/report_vec.json" > /dev/null
./build-ci-scalar/bench/bench_fig4_contention_sweep "${OBS_ARGS[@]}" \
  --report="$SMOKE/report_scalar.json" > /dev/null
cmp "$SMOKE/report_vec.json" "$SMOKE/report_scalar.json"
./build-ci-scalar/bench/bench_perf_hotpath --quick --reps=1 > /dev/null
run_filtered ./build-ci-scalar/tests/contention_diff_test \
  'BankCounterDiff.*:ProfileDiff.*:LocationCounterDiff.*'
echo "scalar build is byte-identical to the vectorized build"

echo "== trace-off build leg (DXBSP_OBS_TRACE=OFF) =="
# Tracing compiled out must change no simulated number: the whole tier-1
# suite passes in a trace-off tree, and its fig4 report (untraced, so
# the trace section never appears) matches the plain build's bytes.
cmake -B build-ci-notrace -S . -DDXBSP_OBS_TRACE=OFF >/dev/null
cmake --build build-ci-notrace -j"$JOBS"
ctest --test-dir build-ci-notrace -j"$JOBS" --output-on-failure
./build-ci-notrace/bench/bench_fig4_contention_sweep "${OBS_ARGS[@]}" \
  --report="$SMOKE/report_notrace.json" > /dev/null
cmp "$SMOKE/report_vec.json" "$SMOKE/report_notrace.json"
echo "trace-off build passes tier-1 and is byte-identical to the plain build"

echo "== coordinator smoke (fleet mode) =="
COORD=./build-ci/tools/sweep_coordinator

# Serial baseline with exactly the worker invocation (no --trace: a
# traced report carries a "timeline" section the untraced fleet merge
# never has, so report1.json from the observability smoke is not a
# valid baseline here).
"$OBS_BENCH" "${OBS_ARGS[@]}" --report="$SMOKE/serial.json" > /dev/null

# Healthy fleet: a 4-worker sharded fig4 sweep's merged report must be
# byte-identical to the serial run's. Fleet observability is always on;
# its host-time outputs go to the fleet directory, never the report.
"$COORD" --quiet --workers=4 --shards=4 --dir="$SMOKE/fleet" \
  --report="$SMOKE/fleet.json" \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > "$SMOKE/fleet.txt"
grep -q "FLEET completed" "$SMOKE/fleet.txt"
cmp "$SMOKE/serial.json" "$SMOKE/fleet.json"
# The lifecycle counters live in the final fleet.status (a framed wire
# message: header line, then a CRC-32-guarded JSON payload). A healthy
# fleet harvests no flight ring, so it writes no post_mortem.json.
python3 - "$SMOKE/fleet/fleet.status" <<'EOF'
import json, sys, zlib

raw = open(sys.argv[1], "rb").read()
header, payload = raw.split(b"\n", 1)
magic, kind, size, crc = header.decode().split(" ")
assert (magic, kind) == ("DXSVCW1", "fleet_status"), header
assert int(size) == len(payload), (size, len(payload))
assert int(crc, 16) == zlib.crc32(payload), "fleet.status CRC mismatch"
st = json.loads(payload)
assert st["leases_granted"] >= 4, st
assert st["strikes"] == 0, st
done = [r for r in st["rows"] if r["phase"] == "done"]
assert len(done) == 4, st["rows"]
print(f"final fleet.status: {st['leases_granted']} leases, 4 done rows")
EOF
if [[ -e "$SMOKE/fleet/post_mortem.json" ]]; then
  echo "healthy fleet wrote a post_mortem.json" >&2
  exit 1
fi
echo "healthy 4-worker fleet report is byte-identical to the serial run"

# Crash recovery: SIGKILL one worker mid-shard (deterministically, via
# the chaos hook) and require the same bytes again.
"$COORD" --quiet --workers=4 --shards=4 --dir="$SMOKE/fleet-kill" \
  --report="$SMOKE/fleet-kill.json" --backoff=0.05 \
  --chaos='shard=1,attempt=0,phase=point:1,action=kill' \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > "$SMOKE/fleet-kill.txt"
grep -q "deaths=1" "$SMOKE/fleet-kill.txt"
cmp "$SMOKE/serial.json" "$SMOKE/fleet-kill.json"
echo "fleet survives a mid-shard SIGKILL with byte-identical output"

# An attempt's outcome is its last aggregates message: no fleet writes a
# separate result file, and every done shard's completing attempt left
# one whose status is "completed".
python3 - "$SMOKE/fleet" "$SMOKE/fleet-kill" <<'EOF'
import glob, json, sys

def frame(path):
    header, payload = open(path, "rb").read().split(b"\n", 1)
    return header.decode().split(" ")[1], json.loads(payload)

for d in sys.argv[1:]:
    assert not glob.glob(f"{d}/*.res"), f"{d} holds a result file"
    kind, st = frame(f"{d}/fleet.status")
    done = [r for r in st["rows"] if r["phase"] == "done"]
    assert len(done) == 4, st["rows"]
    for r in done:
        shard = r["shard"].split("/")[0]
        kind, agg = frame(f"{d}/shard-{shard}.attempt-{r['attempt']}.agg")
        assert kind == "aggregates", kind
        assert agg["status"] == "completed", (d, r["shard"], agg["status"])
    print(f"{d}: no *.res file, {len(done)} done shards' last aggregates "
          "say completed")
EOF

# Wedge recovery: one worker hangs mid-shard and stops heartbeating; the
# coordinator must revoke it once its heartbeat age reaches --hb-timeout
# and requeue the rest of the shard — same bytes again.
"$COORD" --quiet --workers=4 --shards=4 --dir="$SMOKE/fleet-hang" \
  --report="$SMOKE/fleet-hang.json" --backoff=0.05 --hb-timeout=0.5 \
  --chaos='shard=1,attempt=0,phase=point:1,action=hang' \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > "$SMOKE/fleet-hang.txt"
grep -q "stalls=1" "$SMOKE/fleet-hang.txt"
cmp "$SMOKE/serial.json" "$SMOKE/fleet-hang.json"
echo "fleet revokes a wedged worker with byte-identical output"

# Degraded path: a shard that dies at every lease grant must be
# quarantined (exit 69, poisoned range in the report), never hung.
RC=0
"$COORD" --quiet --workers=2 --shards=4 --dir="$SMOKE/fleet-poison" \
  --report="$SMOKE/fleet-poison.json" --max-strikes=2 --backoff=0.05 \
  --chaos='shard=2,phase=lease,action=kill' \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > "$SMOKE/fleet-poison.txt" || RC=$?
if [[ "$RC" != 69 ]]; then
  echo "coordinator smoke: expected exit 69 (degraded), got $RC" >&2
  exit 1
fi
grep -q "POISONED shard=2/4" "$SMOKE/fleet-poison.txt"
python3 -m json.tool "$SMOKE/fleet-poison.json" > /dev/null
grep -q '"degraded"' "$SMOKE/fleet-poison.json"
echo "permanently-failing shard degrades the fleet (exit 69) with a repro"

# A mistyped coordinator flag is a usage error (exit 64) naming the
# flag, never a run with the default in its place.
RC=0
"$COORD" --quiet --wokers=4 --shards=4 --dir="$SMOKE/fleet-typo" \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > /dev/null 2> "$SMOKE/fleet-typo.err" \
  || RC=$?
if [[ "$RC" != 64 ]]; then
  echo "sweep_coordinator --wokers=4: expected exit 64, got $RC" >&2
  exit 1
fi
grep -q -- "--wokers" "$SMOKE/fleet-typo.err"
echo "sweep_coordinator refuses an unknown flag (64)"

# A stray argument after a boolean flag is a usage error too, not the
# flag's value: the fleet must not start.
RC=0
"$COORD" --quiet stray --shards=4 --dir="$SMOKE/fleet-stray" \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > /dev/null 2> "$SMOKE/fleet-stray.err" \
  || RC=$?
if [[ "$RC" != 64 ]]; then
  echo "sweep_coordinator --quiet stray: expected exit 64, got $RC" >&2
  exit 1
fi
grep -q "unexpected argument 'stray'" "$SMOKE/fleet-stray.err"
echo "sweep_coordinator refuses a stray argument after a boolean flag (64)"

# Scaling model check (docs/resilience.md §fleet mode): fleet wall
# clock vs the BSF master-worker prediction, generous CI band.
./build-ci/bench/bench_svc_scaling --n=131072 --points=8 --shards=4 \
  --dir="$SMOKE/svc-scaling" --band=1.0 > /dev/null
echo "coordinator scaling stays within the master-worker model band"

# The multi-process chaos harness under the sanitizers: protocol
# parsing, partial-aggregate banking and merge run asan/ubsan-clean.
./build-ci-san/tests/svc_chaos_test > /dev/null
./build-ci-san/tests/svc_test > /dev/null
echo "chaos harness is sanitizer-clean"

echo "== fleet observability smoke (docs/observability.md §fleet) =="
# The chaos-kill fleet above harvested the dead attempt's flight ring
# into post_mortem.json in its directory: it must name the dying shard's
# last protocol phase and carry its engine-selector records (each one's
# n and measured makespan).
python3 - "$SMOKE/fleet-kill/post_mortem.json" <<'EOF'
import json, sys

pm = json.load(open(sys.argv[1]))
assert pm["schema_version"] == 1, pm
deaths = [d for d in pm["deaths"] if d["shard"] == "1/4"]
assert deaths, f"no harvest for the killed shard: {pm}"
d = deaths[0]
assert d["last_phase"] == "point", d
assert any(e["kind"] == "selector" for e in d["events"]), \
    f"flight tail carries no selector events: {d['events']}"
print(f"post_mortem: shard 1/4 died at phase '{d['last_phase']}' with "
      f"{len(d['events'])} flight events ({d['records']} records, "
      f"{d['torn']} torn)")
EOF

# The standalone flight reader must decode the harvested ring, and the
# coordinator's fleet timeline must be valid Chrome JSON whose lane for
# the killed attempt (drawn from its flight ring) holds at least one
# point span and no worker event before that lane's lease grant.
./build-ci/tools/flight_reader "$SMOKE/fleet-kill/shard-1.attempt-0.flight" \
  > "$SMOKE/flight.txt"
grep -q "phase point" "$SMOKE/flight.txt"
python3 -m json.tool "$SMOKE/fleet-kill/fleet.trace.json" > /dev/null
python3 - "$SMOKE/fleet-kill/fleet.trace.json" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
lanes = {e["tid"]: e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "thread_name"}
tid = [t for t, name in lanes.items() if name == "shard 1/4 attempt 0"]
assert len(tid) == 1, f"no lane for the killed attempt: {lanes}"
lane = [e for e in events if e["ph"] != "M" and e["tid"] == tid[0]]
grants = [e["ts"] for e in lane if e["name"] == "grant"]
assert len(grants) == 1, lane
worker = [e for e in lane if "seq" in e.get("args", {})]
points = [e for e in worker if e["name"] == "point" and e["ph"] == "X"]
assert points, f"the killed attempt's lane has no point span: {lane}"
early = [e for e in worker if e["ts"] < grants[0]]
assert not early, f"worker events before the lease grant: {early}"
print(f"fleet.trace.json: shard 1/4 attempt 0 lane holds {len(points)} "
      f"point span(s), {len(worker)} worker events, none before its grant")
EOF
for stale in stitch.json coordinator.trace.json; do
  if [[ -e "$SMOKE/fleet-kill/$stale" ]]; then
    echo "the fleet directory holds $stale" >&2
    exit 1
  fi
done
echo "flight ring decodes standalone; fleet timeline is valid JSON"

# Live telemetry: sweep_top --once must render a running fleet and exit
# 0. The fleet runs in the background; fleet.status appears on the
# coordinator's first status publication. The frame has the fleet line,
# an ETA line and one table row per shard, all from fleet.status: the
# fleet writes no other live-status file.
"$COORD" --quiet --workers=2 --shards=4 --dir="$SMOKE/fleet-live" \
  -- "$OBS_BENCH" "${OBS_ARGS[@]}" > /dev/null &
FLEET_PID=$!
for _ in $(seq 1 100); do
  [[ -f "$SMOKE/fleet-live/fleet.status" ]] && break
  sleep 0.05
done
./build-ci/tools/sweep_top --once --dir="$SMOKE/fleet-live" \
  > "$SMOKE/sweep_top.txt"
grep -q "fleet:" "$SMOKE/sweep_top.txt"
grep -q "^eta: " "$SMOKE/sweep_top.txt"
ROWS=$(grep -cE '^ *[0-9]+/4 ' "$SMOKE/sweep_top.txt" || true)
if [[ "$ROWS" -ne 4 ]]; then
  echo "sweep_top printed $ROWS shard rows, expected 4"
  cat "$SMOKE/sweep_top.txt"
  exit 1
fi
wait "$FLEET_PID"
if compgen -G "$SMOKE/fleet-live/*.telem" > /dev/null; then
  echo "the fleet directory holds a *.telem file"
  exit 1
fi
echo "sweep_top rendered the live fleet (and the fleet completed)"

# Every running fleet publishes fleet.status before its first grant, so
# live mode has nothing to wait for: a directory without one is exit 74
# (EX_IOERR) at once, and an unknown flag is exit 64 (EX_USAGE).
mkdir -p "$SMOKE/empty"
RC=0
timeout 5 ./build-ci/tools/sweep_top --dir="$SMOKE/empty" 2> /dev/null || RC=$?
if [[ "$RC" != 74 ]]; then
  echo "sweep_top on an empty dir: expected exit 74, got $RC" >&2
  exit 1
fi
RC=0
./build-ci/tools/sweep_top --bogus 2> /dev/null || RC=$?
if [[ "$RC" != 64 ]]; then
  echo "sweep_top --bogus: expected exit 64, got $RC" >&2
  exit 1
fi
echo "sweep_top refuses an empty dir (74) and an unknown flag (64)"

# Live mode ends on any ended fleet, not only a completed one: the
# poisoned fleet's final fleet.status says it ended degraded, and
# sweep_top renders it once and exits 0.
RC=0
timeout 5 ./build-ci/tools/sweep_top --dir="$SMOKE/fleet-poison" \
  --interval=0.5 > "$SMOKE/sweep_top_poison.txt" || RC=$?
if [[ "$RC" != 0 ]]; then
  echo "sweep_top on an ended degraded fleet: expected exit 0, got $RC" >&2
  exit 1
fi
grep -q "^fleet ended (degraded)$" "$SMOKE/sweep_top_poison.txt"
echo "sweep_top exits on a fleet that ended degraded"

# The trend reader degrades gracefully when no baselines match: a clear
# note and exit 0, not a stack trace — a fresh repo has no trend yet.
python3 scripts/bench_history.py "$SMOKE/NO_SUCH_BENCH_*.json" \
  | grep -q "no baselines to fold"
echo "bench_history degrades gracefully with no baselines"

echo "== streaming smoke (out-of-core, docs/streaming.md) =="
STREAM=./build-ci/bench/bench_stream_pressure
STREAM_ARGS=(--n=65536 --slab-bytes=8192 --seed=1995)

# Budget sweep: the bench runs the same stream in RAM and at budgets of
# 1/2, 1/4 and 1/8 of the data size, and itself fails on any checksum
# divergence or MemoryInvariant violation.
"$STREAM" "${STREAM_ARGS[@]}" --spill-dir="$SMOKE/stream-sweep" \
  > "$SMOKE/stream-sweep.txt"
grep -q "byte-equivalent to the in-RAM baseline" "$SMOKE/stream-sweep.txt"
echo "budget sweep: spilled runs byte-equivalent, invariant held"

# Bounded footprint under a hard address-space cap: probe the spilled
# run's true VmPeak, then rerun the identical workload under
# `ulimit -v` at peak + 25% and require byte-identical canonical output.
"$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
  --spill-dir="$SMOKE/stream-probe" --out="$SMOKE/stream-probe.out" \
  > "$SMOKE/stream-probe.txt"
PEAK_KB=$(sed -n 's/.*vm_peak_kb=\([0-9]*\).*/\1/p' "$SMOKE/stream-probe.txt")
CAP_KB=$(( PEAK_KB + PEAK_KB / 4 ))
( ulimit -v "$CAP_KB"
  exec "$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
    --spill-dir="$SMOKE/stream-capped" --out="$SMOKE/stream-capped.out" \
    > /dev/null )
cmp "$SMOKE/stream-probe.out" "$SMOKE/stream-capped.out"
echo "streaming run completed under ulimit -v ${CAP_KB}kB (peak ${PEAK_KB}kB)"

# A disk that is full and stays full must end the run with the
# structured degraded outcome (exit 69), never a crash or a wedge.
RC=0
"$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
  --spill-dir="$SMOKE/stream-enospc" --faults=disk=enospc:1 \
  --disk-retries=1 > "$SMOKE/stream-enospc.txt" || RC=$?
if [[ "$RC" != 69 ]]; then
  echo "streaming smoke: expected exit 69 on injected ENOSPC, got $RC" >&2
  exit 1
fi
grep -q "STREAM DEGRADED" "$SMOKE/stream-enospc.txt"
echo "injected ENOSPC degrades structurally (exit 69)"

# A spill write that hangs forever must be revoked by the token's stall
# window: structured exit 75 with cause=stalled, not a wedged process.
RC=0
"$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
  --spill-dir="$SMOKE/stream-hang" --stall-timeout=0.25 \
  --chaos='shard=0,attempt=0,phase=spill:1,action=hang' \
  > "$SMOKE/stream-hang.txt" || RC=$?
if [[ "$RC" != 75 ]]; then
  echo "streaming smoke: expected exit 75 on hung spill, got $RC" >&2
  exit 1
fi
grep -q "STREAM INTERRUPTED cause=stalled" "$SMOKE/stream-hang.txt"
echo "hung spill write is revoked by the stall window (exit 75)"

# SIGKILL at the worst instant (spill tmp fsynced, rename pending),
# then resume from the partition bank: output must be byte-identical to
# the probe run above (same stream config, budgets don't matter).
RC=0
"$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
  --spill-dir="$SMOKE/stream-kill" --checkpoint="$SMOKE/stream-kill.snap" \
  --chaos='shard=0,attempt=0,phase=spill:3,action=kill' \
  > /dev/null 2>&1 || RC=$?
if [[ "$RC" == 0 ]]; then
  echo "streaming smoke: chaos kill did not fire" >&2
  exit 1
fi

# The freshly-crashed spill directory must pass the offline integrity
# check: a crash leaves orphaned *.tmp at worst, never a torn .spl chunk.
./build-ci/tools/spill_fsck --dir="$SMOKE/stream-kill" \
  > "$SMOKE/stream-fsck.txt"
grep -q ", 0 bad," "$SMOKE/stream-fsck.txt"
echo "post-crash spill directory is fsck-clean (no torn chunks)"

"$STREAM" "${STREAM_ARGS[@]}" --mem-budget=65536 \
  --spill-dir="$SMOKE/stream-kill" --checkpoint="$SMOKE/stream-kill.snap" \
  --resume --out="$SMOKE/stream-resumed.out" > /dev/null
cmp "$SMOKE/stream-probe.out" "$SMOKE/stream-resumed.out"
echo "SIGKILL mid-spill resumes byte-identically from the partition bank"

echo "ci.sh: all green"
