#!/bin/sh
# One-shot CI gate for the whole repository: configure, build, run the test
# suite, lint every shipped instance, round-trip a certificate for each
# instance through the independent checker (tools/rtlb_check), and smoke an
# instrumented --trace run per instance (tools/trace_validate). Any failing
# leg aborts the script (set -e), so "ci.sh exited 0" is the full gate the
# ROADMAP tier-1 line refers to. The sanitizer legs are separate on purpose
# (tools/tsan.sh, tools/sanitize.sh) -- they rebuild the tree and triple the
# wall time, so they are run on demand rather than per push.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Static gate: the shipped (good) instances must carry no error findings.
# (Warnings and notes are expected -- the paper's own example has eleven
# zero-slack tasks -- so no --werror here.)
"$BUILD_DIR/tools/rtlb_lint" --quiet examples/instances/*.rtlb

# Audit gate: the repository's OWN sources must satisfy the project
# invariants in audit/rules.json (layering, determinism, parallel-write and
# numeric discipline) modulo the committed audit.baseline. Then a jq schema
# gate on the JSON output: the clean-run counters, and the per-finding keys
# exercised via the planted corpus (whose nonzero exit is expected and
# swallowed -- only the schema is under test here; test_audit pins the exact
# findings).
"$BUILD_DIR/tools/rtlb_audit" --baseline audit.baseline
if command -v jq >/dev/null 2>&1; then
  "$BUILD_DIR/tools/rtlb_audit" --format=json --baseline audit.baseline \
    > "$BUILD_DIR/audit_head.json"
  jq -e '(.files_scanned > 0) and .errors == 0 and (.findings | type) == "array"
         and has("warnings") and has("notes") and has("suppressed")
         and has("baselined")' "$BUILD_DIR/audit_head.json" > /dev/null || {
    echo "ci.sh: rtlb_audit JSON lost its top-level schema" >&2; exit 1;
  }
  "$BUILD_DIR/tools/rtlb_audit" --manifest audit/rules.json \
    --root tests/audit/bad --format=json > "$BUILD_DIR/audit_corpus.json" || true
  jq -e '(.errors > 0) and ([.findings[]
           | has("file") and has("line") and has("code") and has("severity")
             and has("subject") and has("message") and has("hint")
             and has("baselined")] | all)' \
    "$BUILD_DIR/audit_corpus.json" > /dev/null || {
    echo "ci.sh: rtlb_audit JSON lost its per-finding schema" >&2; exit 1;
  }
else
  echo "ci.sh: jq not on PATH; skipping the audit schema check" >&2
fi

# Fix-it gate: copy the bad-instance corpus aside, apply every machine fix
# in place, and require the repair to hold: a second --fix application must
# change nothing (byte-stable fixed point), and the known-fixable instances
# must re-lint with no error findings at all. parse_error is skipped (no
# model, no fixes); the rest of the corpus rides along to prove --fix never
# corrupts a file it cannot help.
FIXDIR="$BUILD_DIR/lint-fix-smoke"
rm -rf "$FIXDIR" && mkdir -p "$FIXDIR"
cp examples/instances/bad/*.rtlb "$FIXDIR"
rm -f "$FIXDIR/parse_error.rtlb"
for f in "$FIXDIR"/*.rtlb; do
  "$BUILD_DIR/tools/rtlb_lint" --quiet --fix "$f" > /dev/null || true
  cp "$f" "$f.once"
  "$BUILD_DIR/tools/rtlb_lint" --quiet --fix "$f" > /dev/null || true
  cmp -s "$f" "$f.once" || { echo "ci.sh: --fix not idempotent on $f" >&2; exit 1; }
done
"$BUILD_DIR/tools/rtlb_lint" --quiet \
  "$FIXDIR/tight_window.rtlb" "$FIXDIR/no_host.rtlb" \
  "$FIXDIR/window_collapse.rtlb" "$FIXDIR/camera_contention.rtlb" \
  "$FIXDIR/redundant_edge.rtlb" \
  "$FIXDIR/period_zero.rtlb" "$FIXDIR/offset_outside.rtlb" \
  "$FIXDIR/late_release.rtlb" "$FIXDIR/deadline_overrun.rtlb" \
  "$FIXDIR/template_window.rtlb" "$FIXDIR/sporadic_unbounded.rtlb"

# Certificate gate: every shipped instance round-trips through --emit and the
# independent checker; the model is auto-selected from the file's node lines.
for f in examples/instances/*.rtlb; do
  cert="$BUILD_DIR/$(basename "$f" .rtlb).cert.json"
  "$BUILD_DIR/tools/rtlb_check" --emit "$f" > "$cert"
  "$BUILD_DIR/tools/rtlb_check" "$f" "$cert"
done

# Trace smoke: an instrumented run on every shipped instance, through both
# analyze_file and rtlb_check --emit, must emit a Chrome trace-event file
# that parses and names all five pipeline stages exhaustively
# (tools/trace_validate re-checks against the Stage enum).
for f in examples/instances/*.rtlb; do
  tracefile="$BUILD_DIR/$(basename "$f" .rtlb).trace.json"
  "$BUILD_DIR/examples/example_analyze_file" --trace "$tracefile" "$f" > /dev/null
  "$BUILD_DIR/tools/trace_validate" "$tracefile"
  "$BUILD_DIR/tools/rtlb_check" --emit --trace "$tracefile" "$f" > /dev/null
  "$BUILD_DIR/tools/trace_validate" "$tracefile"
done

# Fleet smoke: the full differential gauntlet (serial vs parallel vs
# warm-session bit-identity, certificate emit->check round-trip, lint-gate
# agreement) over the ~200-instance smoke grid must come back clean --
# rtlb_fleet exits 0 only when the run is complete with ZERO divergences.
# The single-process run sets RTLB_SESSION_VERIFY, so every query of the
# session oracle is also cross-checked against a cold analyze() (a mismatch
# aborts). The same grid is then re-run as two shards and merged; the merged
# report must be byte-identical to the single-process one (the determinism
# contract that makes sharded 10^5-instance runs trustworthy).
FLEETDIR="$BUILD_DIR/fleet-smoke"
rm -rf "$FLEETDIR" && mkdir -p "$FLEETDIR"
RTLB_SESSION_VERIFY=1 "$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json \
  --out "$FLEETDIR/whole.json"
"$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json \
  --shards 2 --shard 0 --out "$FLEETDIR/s0.json"
"$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json \
  --shards 2 --shard 1 --out "$FLEETDIR/s1.json"
"$BUILD_DIR/tools/rtlb_fleet" merge --out "$FLEETDIR/merged.json" \
  "$FLEETDIR/s0.json" "$FLEETDIR/s1.json"
cmp "$FLEETDIR/whole.json" "$FLEETDIR/merged.json" || {
  echo "ci.sh: sharded fleet merge is not byte-identical to the whole run" >&2
  exit 1
}

# Oracle-off leg: the fleet path perfbench's fleet_small times (baseline
# analysis and statistics only, every oracle off). Its report must equal the
# all-oracle run's in everything but the analysis count.
"$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json --no-parallel \
  --no-session --no-certificate --no-lint --out "$FLEETDIR/oracles_off.json"
if command -v jq >/dev/null 2>&1; then
  jq -S 'del(.aggregates.analyses)' "$FLEETDIR/whole.json" > "$FLEETDIR/whole.proj.json"
  jq -S 'del(.aggregates.analyses)' "$FLEETDIR/oracles_off.json" > "$FLEETDIR/oracles_off.proj.json"
  cmp "$FLEETDIR/whole.proj.json" "$FLEETDIR/oracles_off.proj.json" || {
    echo "ci.sh: oracle-off fleet run disagrees with the all-oracle run" >&2
    exit 1
  }
else
  echo "ci.sh: jq not on PATH; skipping the oracle-off fleet comparison" >&2
fi

# Bench smoke + schema legs: one scaled-down rep of each recording bench
# must run to completion and keep the key paths of its committed
# BENCH_<name>.json -- values are machine-dependent and not compared.
# Catches a bench that silently stops exporting a field (reps,
# hardware_concurrency, degraded, a stage) as a CI failure instead of a
# quietly thinner record. Leaves are selected by type, not with
# paths(scalars), which drops every false or null leaf (a row's
# `degraded: false` would go unchecked). RTLB_BENCH_REPS=1 keeps each leg
# short; RTLB_CSV_DIR keeps the fresh JSON out of the tree. Entries are
# <record name>:<bench binary>.
for leg in pipeline:bench_pipeline fleet:bench_fleet workloads:bench_workloads \
           lower_bound:bench_contention session:bench_session verify:bench_verify; do
  name="${leg%%:*}"
  binary="${leg#*:}"
  RTLB_BENCH_REPS=1 RTLB_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/$binary" --benchmark_filter='^$' > /dev/null
  if command -v jq >/dev/null 2>&1; then
    leaves='[paths(type != "object" and type != "array") | join(".")] | sort | .[]'
    jq -r "$leaves" "BENCH_$name.json" > "$BUILD_DIR/bench_$name.schema.committed"
    jq -r "$leaves" "$BUILD_DIR/BENCH_$name.json" > "$BUILD_DIR/bench_$name.schema.fresh"
    diff -u "$BUILD_DIR/bench_$name.schema.committed" \
      "$BUILD_DIR/bench_$name.schema.fresh"
  else
    echo "ci.sh: jq not on PATH; skipping the BENCH_$name.json schema check" >&2
  fi
done

# Bench honesty gate: a committed benchmark row recorded with more workers
# than hardware threads (degraded: true) measures oversubscription, so it
# must not publish a speedup headline -- its speedup_vs_serial must be null,
# with the reason recorded alongside.
if command -v jq >/dev/null 2>&1; then
  jq -e '[(.configs[], .pipeline_instance.configs[])
          | select(.degraded == true and .speedup_vs_serial != null)]
         | length == 0' BENCH_lower_bound.json > /dev/null || {
    echo "ci.sh: BENCH_lower_bound.json has a degraded row with a speedup headline" >&2
    exit 1
  }
  jq -e '.degraded == false or ([.configs[].instances_per_sec] | length) == 0' \
    BENCH_fleet.json > /dev/null || {
    echo "ci.sh: BENCH_fleet.json throughput rows were recorded degraded" >&2
    exit 1
  }
else
  echo "ci.sh: jq not on PATH; skipping the bench honesty checks" >&2
fi

# Benchmark smoke: perfbench/smoke.py builds the benchmark package against
# this tree and runs every workload for one second, untraced and traced,
# checking each output against perfbench/golden.json. An API change that
# breaks the benchmark build or its golden digests fails this gate instead
# of a later benchmark run. DEFAULT-ON; RTLB_CI_PERFBENCH=0 skips it loudly.
if [ "${RTLB_CI_PERFBENCH:-1}" = "0" ]; then
  echo "ci.sh: perfbench smoke leg SKIPPED (RTLB_CI_PERFBENCH=0) -- benchmark build and golden digests NOT checked" >&2
else
  python3 perfbench/smoke.py
fi

# Committed golden certificate stays in sync with the checker, and a fresh
# --emit reproduces it byte for byte (this pins the pretty JSON writer).
"$BUILD_DIR/tools/rtlb_check" examples/instances/paper.rtlb \
  examples/certificates/paper_dedicated.cert.json
"$BUILD_DIR/tools/rtlb_check" --emit examples/instances/paper.rtlb \
  > "$BUILD_DIR/paper_dedicated.fresh.cert.json"
cmp "$BUILD_DIR/paper_dedicated.fresh.cert.json" \
  examples/certificates/paper_dedicated.cert.json || {
  echo "ci.sh: rtlb_check --emit no longer reproduces the committed certificate" >&2
  exit 1
}

# clang-tidy leg: DEFAULT-ON (the check set in .clang-tidy is part of the
# gate), with two escape hatches:
#   RTLB_CI_TIDY=0        skip explicitly (the leg reconfigures and rebuilds
#                         the tree, roughly doubling the gate's wall time);
#   no clang-tidy on PATH loud skip -- environments without the LLVM
#                         toolchain still get the rest of the gate, and the
#                         skip line makes the reduced coverage visible in the
#                         CI log instead of silently passing.
if [ "${RTLB_CI_TIDY:-1}" = "0" ]; then
  echo "ci.sh: tidy leg skipped (RTLB_CI_TIDY=0)" >&2
elif ! command -v clang-tidy >/dev/null 2>&1; then
  echo "ci.sh: tidy leg SKIPPED -- no clang-tidy on PATH (install clang-tidy for full coverage)" >&2
else
  tools/tidy.sh "${BUILD_DIR}-tidy"
fi

echo "ci.sh: all gates passed"
