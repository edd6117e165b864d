#!/usr/bin/env python3
"""Appends one labelled entry to a BENCH_*.json perf-trajectory file.

Usage: bench_append.py TRAJECTORY_FILE LABEL GOOGLE_BENCHMARK_JSON [BUILD_TYPE]

BUILD_TYPE is the CMAKE_BUILD_TYPE our benchmark binaries were compiled
with (recorded lower-case). Without it the entry falls back to Google
Benchmark's "library_build_type", which describes how the *benchmark
library* was compiled — on systems with a debug libbenchmark package that
field says "debug" even for a -O3 binary, which is what polluted the
pre-PR-5 trajectory entries.

The trajectory file holds {"entries": [...]}, one entry per recorded run:
  {"label": ..., "date": ..., "host": {...}, "benchmarks":
      [{"name": ..., "real_time_ms": ..., "cpu_time_ms": ..., "iterations": ...,
        "repetitions": ..., "spread": ..., "counters": {...}}]}
where "counters" carries any user counters the benchmark reported (e.g.
bench_service's queue_ms_mean admission-queue latency) and is omitted when
there are none.

A run with --benchmark_repetitions=N (N > 1) and
--benchmark_report_aggregates_only=true reports aggregate rows only. Each
benchmark then records its median's times, "repetitions": N, and "spread",
the standard deviation of its real time over the repetitions divided by the
median (0.05 = the runs scatter by about 5% of the median); "iterations" is
left out, since the aggregate rows do not carry it. A single-repetition run
records its one row as before, with "iterations" and without "spread".

Entries with the same label are replaced (re-running a label refreshes its
numbers instead of piling up duplicates). After appending, the deltas
against the previous entry are printed so a before/after comparison is one
`scripts/bench.sh` away.
"""

import json
import sys

# Keys Google Benchmark emits for every run; anything else numeric is a
# user counter worth keeping in the trajectory.
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "label",
    "error_occurred", "error_message",
    # Derived from SetItemsProcessed/SetBytesProcessed — redundant with the
    # recorded times, not user counters.
    "items_per_second", "bytes_per_second",
}


# Google Benchmark reports times in the unit the benchmark chose with
# ->Unit(); the trajectory normalizes everything to milliseconds.
_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def _benchmark_entry(b: dict) -> dict:
    to_ms = _UNIT_TO_MS.get(b.get("time_unit", "ns"), 1e-6)
    entry = {
        "name": b["name"],
        "real_time_ms": round(b["real_time"] * to_ms, 4),
        "cpu_time_ms": round(b["cpu_time"] * to_ms, 4),
        "iterations": b["iterations"],
    }
    counters = {
        k: round(v, 4)
        for k, v in b.items()
        if k not in _STANDARD_KEYS and isinstance(v, (int, float))
    }
    if counters:
        entry["counters"] = counters
    return entry


def _median_entry(median: dict, stddev) -> dict:
    """The row of one repeated benchmark: its median's times plus spread."""
    entry = _benchmark_entry(median)
    entry["name"] = median["run_name"]
    del entry["iterations"]  # an aggregate row's count is the repetitions
    entry["repetitions"] = median.get("repetitions")
    if stddev is not None and median["real_time"] > 0:
        entry["spread"] = round(stddev["real_time"] / median["real_time"], 4)
    return entry


def _benchmark_entries(rows: list) -> list:
    """Median + spread per benchmark when the run has aggregate rows, else
    the plain iteration rows (a single repetition)."""
    medians, stddevs = {}, {}
    for b in rows:
        if b.get("run_type") != "aggregate":
            continue
        if b.get("aggregate_name") == "median":
            medians[b["run_name"]] = b
        elif b.get("aggregate_name") == "stddev":
            stddevs[b["run_name"]] = b
    if not medians:
        return [_benchmark_entry(b) for b in rows
                if b.get("run_type", "iteration") == "iteration"]
    return [_median_entry(b, stddevs.get(name)) for name, b in medians.items()]


def main() -> int:
    if len(sys.argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    trajectory_path, label, run_path = sys.argv[1], sys.argv[2], sys.argv[3]
    build_type = sys.argv[4].lower() if len(sys.argv) == 5 else None

    with open(run_path) as f:
        run = json.load(f)
    ctx = run.get("context", {})
    entry = {
        "label": label,
        "date": ctx.get("date", ""),
        "host": {
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "build_type": build_type or ctx.get("library_build_type"),
        },
        "benchmarks": _benchmark_entries(run.get("benchmarks", [])),
    }

    try:
        with open(trajectory_path) as f:
            trajectory = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        trajectory = {"entries": []}

    entries = [e for e in trajectory.get("entries", []) if e.get("label") != label]
    previous = entries[-1] if entries else None
    entries.append(entry)
    trajectory["entries"] = entries

    with open(trajectory_path, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")

    print(f"{trajectory_path}: recorded '{label}' ({len(entry['benchmarks'])} benchmarks)")
    if previous is not None:
        prev_times = {b["name"]: b["real_time_ms"] for b in previous["benchmarks"]}
        for b in entry["benchmarks"]:
            if b["name"] in prev_times and b["real_time_ms"] > 0:
                speedup = prev_times[b["name"]] / b["real_time_ms"]
                print(
                    f"  {b['name']:45s} {prev_times[b['name']]:10.3f} -> "
                    f"{b['real_time_ms']:10.3f} ms  ({speedup:.2f}x vs '{previous['label']}')"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
