#!/usr/bin/env python3
"""Build and run the open-loop ExpFinderService benchmark.

Usage (from the repository root):

    python3 loadbench/run.py --workload hot_read|cold_read|write_churn|all \\
        --seed N [--seconds 15] [--trace 0|1] [--report FILE]

Builds the library from src/ and the loadbench program with CMake into
$CARGO_TARGET_DIR/loadbench (default .bench_build/loadbench), prepares the
seeded store in a process of its own, then runs the program. Its
last stdout line is the result JSON; with --workload all the three results
are merged into one final line with metric names prefixed by the workload.
Build output goes to stderr. Chrome traces of --trace 1 runs are written to
<build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["hot_read", "cold_read", "write_churn"]
# A run (prepare + measure) must end within 180 s; the build may take longer.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "loadbench")


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", out, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(out, "loadbench")
    return binary if os.path.isfile(binary) else None


def run_one(binary, out, args, workload):
    work = os.path.join(out, "work", "%s-%d-%d" % (workload, args.seed, os.getpid()))
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", work]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        prep = subprocess.run([binary, "prepare"] + common, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if prep.returncode != 0:
            return None, prep.returncode
        cmd = [binary, "run"] + common + ["--trace", str(args.trace)]
        if args.report:
            report = args.report if args.workload != "all" else "%s.%s" % (args.report, workload)
            cmd += ["--report", report]
        if args.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    return lines, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", default="")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("loadbench: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        lines, code = run_one(binary, out, args, args.workload)
        if lines is None:
            return code or 1
        for line in lines:
            print(line)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        lines, code = run_one(binary, out, args, workload)
        if lines is None or not lines:
            return code or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
        worst = worst or code
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
