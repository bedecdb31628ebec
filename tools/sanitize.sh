#!/bin/sh
# Build the full tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (comma-list RTLB_SANITIZE, plus assertions via -UNDEBUG) and run the test
# suite. The memory-facing paths are the main customers: the JSON parser and
# certificate (de)serialization (tests/test_common, tests/test_verify), the
# text-format reader (tests/test_io), and the I128 arithmetic of the
# independent checker. RTLB_SESSION_VERIFY is forced on so every session
# query under the sanitizers is also cross-checked against a cold analyze(),
# and RTLB_WINDOWS_REFERENCE so every compute_windows() call is cross-checked
# against the verbatim Figure 2/3 reference implementation. Any UBSan
# report is fatal (-fno-sanitize-recover, set by CMake), so a test cannot
# pass over undefined behaviour.
# Sibling of tools/tsan.sh (TSan cannot be combined with ASan, hence two
# scripts).
#
# Usage: tools/sanitize.sh [build-dir]   (default: build-asan)
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
cmake -B "$BUILD_DIR" -S . -DRTLB_SANITIZE=address,undefined -DRTLB_SESSION_VERIFY=ON \
  -DRTLB_WINDOWS_REFERENCE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure
# Hostile inputs: every bad-corpus instance must end in a documented status
# (0, 1 or 2) with no sanitizer report, through rtlb_check --emit and through
# rtlb_lint in both output formats (diagnostics view registry text, so a view
# that outlives its text shows here).
hostile() {
  rc=0
  "$@" > /dev/null 2> "$BUILD_DIR/hostile.err" || rc=$?
  if [ "$rc" -gt 2 ] || grep -q "runtime error\|Sanitizer" "$BUILD_DIR/hostile.err"; then
    echo "sanitize.sh: $* exited $rc" >&2
    cat "$BUILD_DIR/hostile.err" >&2
    exit 1
  fi
}
for f in examples/instances/bad/*.rtlb; do
  hostile "$BUILD_DIR/tools/rtlb_check" --emit "$f"
  hostile "$BUILD_DIR/tools/rtlb_lint" --format=json "$f"
  hostile "$BUILD_DIR/tools/rtlb_lint" --format=text "$f"
done
