#!/usr/bin/env python3
"""Smoke test of the rtlb benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
through perfbench/run.py, and checks that:
  * each run prints a result line with every declared metric, in its unit;
  * every run is correct: no failed operation, golden digests matched, and
    the traced replay reproduced the pipeline byte for byte;
  * layer self times cover at least 90% of the traced operation time, and
    the trace exports were written;
  * the benchmark refuses to report when RTLB_SESSION_VERIFY is set.
Exits 0 when all hold, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
MIN_COVERAGE = 0.9


def run(workload, trace, env=None):
    command = ["python3", str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, env=env,
                          timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{tag}: incorrect run: " + " | ".join(lines[:-1]))
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(metrics) ^ set(declared[trace]))}")
            for name, unit in declared[trace].items():
                m = metrics.get(name, {})
                value = m.get("value")
                if m.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    errors.append(f"{tag}: metric {name} = {m}")
                elif trace == 0 and value <= 0:
                    errors.append(f"{tag}: end-to-end metric {name} is {value}")
            if trace == 1:
                coverage = metrics.get("trace.coverage", {}).get("value", 0)
                if coverage < MIN_COVERAGE:
                    errors.append(f"{tag}: layer self times cover {coverage:.3f} of the "
                                  f"traced operation time")
                for suffix in ("trace", "chrome"):
                    path = ROOT / ".bench_build" / "out" / f"{workload}-{suffix}.json"
                    if not path.is_file() or not json.loads(path.read_text()):
                        errors.append(f"{tag}: no trace export {path.name}")
            print(f"smoke: {tag}: {'ok' if not errors else 'checked'}", flush=True)

    refused = run(spec["workloads"][0]["name"], 0, dict(os.environ, RTLB_SESSION_VERIFY="1"))
    if refused.returncode == 0 or refused.stdout.strip():
        errors.append("a run with RTLB_SESSION_VERIFY=1 was not refused")

    for e in errors:
        print("smoke: FAIL " + e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
