#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py --size tiny:
twice untraced with one seed, once traced. It checks that each run is
correct, that every end_to_end (untraced) and per_layer (traced) metric is
printed with its unit, and that the two same-seed runs report the same
digest and identical sim-time metrics. Exits non-zero on any failure.
"""

import json
import subprocess
import sys

SEED = 11
# End-to-end metrics measured in sim time: equal for equal seeds.
SIM_METRICS = ("goal_attainment", "at_goal_share", "queue_wait_s",
               "unserved_share", "premium_attainment")


def run(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().split("\n")
    digest = next((line for line in lines if line.startswith("digest ")), None)
    return out.returncode, json.loads(lines[-1]), digest


def check_metrics(where, result, specs, errors):
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            errors.append(f"{where}: metric {spec['name']} missing")
        elif metric.get("unit") != spec["unit"]:
            errors.append(f"{where}: metric {spec['name']} has unit "
                          f"{metric.get('unit')!r}, expected {spec['unit']!r}")
    extra = set(result["metrics"]) - {spec["name"] for spec in specs}
    if extra:
        errors.append(f"{where}: unlisted metrics {sorted(extra)}")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        benchmark = json.load(f)
    errors = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [run(workload, 0), run(workload, 0), run(workload, 1)]
        for (status, result, _), label in zip(runs, ("untraced", "untraced", "traced")):
            if status != 0 or not result["correct"] or result["failed"] != 0:
                errors.append(f"{workload} {label}: exit {status}, result {result}")
        check_metrics(f"{workload} untraced", runs[0][1], benchmark["end_to_end"], errors)
        check_metrics(f"{workload} traced", runs[2][1], benchmark["per_layer"], errors)
        if len({r[2] for r in runs}) != 1 or runs[0][2] is None:
            errors.append(f"{workload}: digests differ: {[r[2] for r in runs]}")
        for name in SIM_METRICS:
            values = [r[1]["metrics"][name]["value"] for r in runs[:2]]
            if values[0] != values[1]:
                errors.append(f"{workload}: {name} differs across same-seed runs: {values}")
        print(f"{workload}: {runs[0][2]}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
