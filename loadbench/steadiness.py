#!/usr/bin/env python3
"""Steadiness report of the open-loop benchmark.

Runs the workloads back to back, alternating their order from seed to seed,
each time with another seed, and prints for every end-to-end metric the
median, the quartiles and the spread (quartile distance as a share of the
median) next to the bound recorded in BENCHMARK.json. It also prints the
median read-latency CDF around p50 and p99, so a percentile sitting on a gap
between request classes shows as a jump between neighbouring rows.

With --sets 2 the same seeds run twice, one whole set after the other, and
the report also compares each metric's median in the second set with the
first: the drift a comparison of two runs of the same code would see.

    python3 loadbench/steadiness.py --seeds 10 [--first-seed 1] [--sets 1]
        [--workloads hot_read,cold_read,write_churn]

Exits 1 when a run failed or gave no result (every timed phase fell behind
its schedule), when a check found a mismatch, when a spread exceeds its
metric's bound, or when a median drifted beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
from run import build_dir  # noqa: E402

# Printed by every run but left out of the result JSON (see README.md).
REPORT_ONLY = ["read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms",
               "ryw_read_p50_ms"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_set(args, bench, workloads, tmp, label):
    """Runs every seed on every workload; returns {workload: [(result, detail)]}."""
    results = {w: [] for w in workloads}
    failures = 0
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            report = os.path.join(tmp, "%s-%s-%d.json" % (label, w, seed))
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--report", report]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
                with open(report) as f:
                    detail = json.load(f)
            except (ValueError, OSError):
                result, detail = None, None
            if proc.returncode != 0 or result is None or detail is None:
                failures += 1
                print("%s seed %d %-12s FAILED (exit %d, no result)" % (
                    label, seed, w, proc.returncode), flush=True)
                continue
            results[w].append((result, detail))
            print("%s seed %d %-12s correct=%s attempts=%d checks=%d mismatches=%d" % (
                label, seed, w, result["correct"], detail["attempts"], detail["checks"],
                detail["mismatches"]), flush=True)
    return results, failures


def report_set(label, results, workloads, bounds):
    """Prints the set's spreads; returns (ok, {workload: {metric: median}})."""
    ok = True
    medians = {}
    for w in workloads:
        runs = results[w]
        incorrect = sum(not r["correct"] for r, _ in runs)
        ok = ok and incorrect == 0
        print("\n%s %s: %d runs, %d incorrect, %d repeated a discarded phase" % (
            label, w, len(runs), incorrect, sum(d["attempts"] > 1 for _, d in runs)))
        if len(runs) < 2:
            ok = False
            continue
        print("  %-16s %12s %12s %12s %8s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "samples"))
        medians[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3, s = spread(values)
            medians[w][name] = med
            samples = statistics.median(d["samples"].get(name, 0) for _, d in runs)
            ok = ok and s <= bound
            note = "" if s <= bound / 3 else (
                "<- above bound/3" if s <= bound else "<- ABOVE BOUND")
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %6.3f  n=%-6d %s" % (
                name, q1, med, q3, s, bound, samples, note))
        for name in REPORT_ONLY:
            q1, med, q3, s = spread([d["e2e"][name] for _, d in runs])
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %6s  (printed, not in the result)" % (
                name, q1, med, q3, s, "-"))
        fingerprint = statistics.median(d["fingerprint_cpu_ms"] for _, d in runs)
        print("  answer fingerprints in completion callbacks: median %.3f ms CPU per run" %
              fingerprint)
        print("  read latency CDF (median over runs):")
        cdf = [d["read_cdf"] for _, d in runs]
        for k, (q, _) in enumerate(cdf[0]):
            print("    q%.3f %10.4f ms" % (q, statistics.median(c[k][1] for c in cdf)))
    return ok, medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--workloads", default="hot_read,cold_read,write_churn")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    ok = True
    sets = []
    os.makedirs(build_dir(), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        for k in range(args.sets):
            label = "set%d" % (k + 1)
            results, failures = run_set(args, bench, workloads, tmp, label)
            ok = ok and failures == 0
            set_ok, medians = report_set(label, results, workloads, bounds)
            ok = ok and set_ok
            sets.append(medians)
    if len(sets) == 2:
        print("\nmedian drift, set2 against set1 (worse-direction share of set1's median)")
        for w in workloads:
            for name, bound in bounds.items():
                if w not in sets[0] or w not in sets[1]:
                    ok = False
                    continue
                first, second = sets[0][w][name], sets[1][w][name]
                worse = (second - first) if better[name] == "lower" else (first - second)
                drift = worse / first
                ok = ok and drift <= bound
                print("  %-12s %-16s %12.5g %12.5g %8.4f %6.3f %s" % (
                    w, name, first, second, drift, bound,
                    "" if drift <= bound else "<- ABOVE BOUND"))
    print("\nsteadiness: %s" % ("within every bound" if ok else "NOT within the bounds"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
