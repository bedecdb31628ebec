#!/usr/bin/env python3
"""Build and run the rtlb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the rtlb library
from src/) into .bench_build/; later calls only rebuild what changed. Build
output goes to standard error; standard output is the benchmark's, whose
last line is the JSON result. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rtlb_perfbench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no rtlb sources (src/CMakeLists.txt) next to perfbench/")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(ROOT / ".bench_build" / "out"),
               "--golden", str(ROOT / "perfbench" / "golden.json")]
    # A terminated caller must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.stdout.write(out)
    if child.returncode != 0:
        sys.exit(child.returncode)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: the benchmark printed no result line")


if __name__ == "__main__":
    main()
