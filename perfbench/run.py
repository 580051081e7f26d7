#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the simulator libraries
from src/) into .bench_build/perfbench; later runs only re-check the build.
Build output goes to standard error. The benchmark's own output goes to
standard output, and its last line is the JSON result object. `all` runs
every workload of BENCHMARK.json in turn, each in its own process, and ends
with one JSON object over all of them (metrics named <workload>.<metric>).
Exits non-zero, without a result, when the build or a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; stop a stuck one a little before that.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run to trust.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the build failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def run_workload(workload, args):
    """Runs one workload, echoes its output but the result line, returns the result."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        # The traced run's own spans (Chrome trace-event JSON).
        command += ["--spans", os.path.join(BUILD_DIR, f"spans-{workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed the benchmark and waited for it.
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        fail(f"{workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}'s last line is not a JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"{workload}'s result has keys {sorted(result)}, not {sorted(RESULT_KEYS)}")
    return lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    if args.workload != "all":
        line, _ = run_workload(args.workload, args)
        print(line, flush=True)
        return
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        _, result = run_workload(workload, args)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(f"cell_fail_ratio over all workloads: "
          f"{combined['failed'] / combined['attempted']:.6f}")
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
