#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json briefly through perfbench/run.py and
checks that
  * every declared metric is printed with its declared unit (end-to-end
    metrics untraced, per-layer metrics traced),
  * the result check passes (correct, no failed operations),
  * the same seed run twice gives identical count metrics
    (wire_bytes_per_req untraced; agent.emits_per_req and
    simsys.events_per_req traced).

Usage, from the repository root:  python3 perfbench/smoke_test.py
Exit code 0 means every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11
SECONDS = 1
COUNT_METRICS = {0: ["wire_bytes_per_req"], 1: ["agent.emits_per_req", "simsys.events_per_req"]}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first = run(workload, trace)
            second = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    failures.append("%s: result check failed: %s" % (label, result))
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != declared[trace]:
                    failures.append("%s: metrics/units %s != declared %s" %
                                    (label, got, declared[trace]))
            for name in COUNT_METRICS[trace]:
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a is None or a != b:
                    failures.append("%s: %s differs between same-seed runs: %s vs %s" %
                                    (label, name, a, b))
            print("%-28s ok" % label if not failures else "%-28s checked" % label, flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("smoke test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
