#!/bin/sh
# Build the full tree with ThreadSanitizer (plus assertions, -UNDEBUG) and
# run the test suite. The parallel paths are the main customers: the
# lower-bound engine fan-out (tests/test_parallel_bound,
# tests/test_thread_pool) and the chunked parallel sensitivity sweeps /
# memoized sessions (tests/test_sensitivity, tests/test_session).
# RTLB_SESSION_VERIFY is forced on so every session query under TSan is also
# cross-checked against a cold analyze(), and RTLB_WINDOWS_REFERENCE so every
# compute_windows() call (one serial sweep, inside whichever worker runs the
# query) is cross-checked against the verbatim Figure 2/3 reference
# implementation.
#
# Usage: tools/tsan.sh [build-dir]   (default: build-tsan)
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
cmake -B "$BUILD_DIR" -S . -DRTLB_SANITIZE=thread -DRTLB_SESSION_VERIFY=ON \
  -DRTLB_WINDOWS_REFERENCE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Fleet smoke grid under TSan: the ~200-instance differential gauntlet
# (serial vs parallel vs warm-session legs) is the densest ThreadPool
# workload in the repo -- every instance exercises the parallel block scan,
# the chunked sensitivity sweeps and the session memo under real contention.
# TSan forces a nonzero exit on any report, so set -eu turns a single data
# race anywhere in the grid into a failed leg. The second run raises both
# the outer ThreadPool and the parallel oracle's worker counts to widen the
# interleaving space beyond the defaults; the reports must still be
# byte-identical (the fleet determinism contract).
"$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json \
  --out "$BUILD_DIR/fleet-tsan.json"
"$BUILD_DIR/tools/rtlb_fleet" run --spec examples/fleet/smoke.json \
  --threads 4 --parallel-threads 5 \
  --out "$BUILD_DIR/fleet-tsan-mt.json"
cmp "$BUILD_DIR/fleet-tsan.json" "$BUILD_DIR/fleet-tsan-mt.json" || {
  echo "tsan.sh: fleet report differs across worker counts" >&2
  exit 1
}
