#!/usr/bin/env python3
"""End-to-end benchmark of numaplace: builds the driver and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fleet_steady, fleet_overload, machine_tenancy (see
perfbench/NOTES.md). The first run configures and builds the driver
(perfbench/CMakeLists.txt) into .bench_build; later runs reuse it. The
driver's output is passed through, and its last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the driver writes its spans as Chrome trace-event JSON under
.bench_build/spans/, and this script checks them with
tools/validate_telemetry.py --trace. Any failed check exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fleet_steady", "fleet_overload", "machine_tenancy")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-test only)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "cluster", "fleet.h")):
        log("no numaplace sources under ./src; run from the root of a checkout")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    spans = None
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}.json")
        command += ["--spans-out", spans]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("the driver did not finish in time")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        log(f"the driver printed no result (exit status {run.returncode})")
        return 1
    status = run.returncode

    if spans is not None and result["correct"]:
        check = subprocess.run([sys.executable, "tools/validate_telemetry.py",
                                "--trace", spans],
                               stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            log("the traced run's spans failed validation")
            result["correct"] = False
            result["failed"] += 1
            status = status or 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
