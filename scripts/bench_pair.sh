#!/usr/bin/env bash
# Before/after pair for one Google-Benchmark suite: runs two build
# directories' binaries of the suite alternately, one repetition each, so a
# drift in the host's speed hits both sides alike. scripts/bench.sh records
# one checkout per call; two such recordings minutes apart can disagree by
# up to 2x on a shared host.
#
# Per benchmark it prints each side's median real time and quartiles, the
# head/base ratio of the medians, and the head's win count: the pairs in
# which head ran faster. A gain holds when head wins at least nine tenths of
# the pairs and the medians differ by more than the base's interquartile
# range.
#
# Usage: scripts/bench_pair.sh BASE_BUILD HEAD_BUILD [filter]
#   BASE_BUILD, HEAD_BUILD  build directories holding bench/bench_<suite>
#   filter                  --benchmark_filter regex (default: everything)
# Env:
#   BENCH_SUITE       suite to run (default: service)
#   BENCH_PAIRS       pairs to run, alternating which side goes first
#                     (default: 10)
#   BENCH_MIN_TIME    per-benchmark min time in seconds (default: 0.2)
#   BENCH_BASE_LABEL, BENCH_HEAD_LABEL
#                     when both are set, each side's medians (with spread =
#                     stddev / median over its runs) are appended to
#                     BENCH_<suite>.json under these labels
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
BASE=$1
HEAD=$2
FILTER=${3:-}
SUITE=${BENCH_SUITE:-service}
PAIRS=${BENCH_PAIRS:-10}
MIN_TIME=${BENCH_MIN_TIME:-0.2}

for dir in "$BASE" "$HEAD"; do
  if [[ ! -x "$dir/bench/bench_$SUITE" ]]; then
    echo "error: $dir/bench/bench_$SUITE not built" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
args=(--benchmark_out_format=json --benchmark_min_time="$MIN_TIME")
if [[ -n "$FILTER" ]]; then
  args+=(--benchmark_filter="$FILTER")
fi
for ((i = 0; i < PAIRS; ++i)); do
  if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
  for side in $order; do
    if [[ $side == base ]]; then dir=$BASE; else dir=$HEAD; fi
    if ! "$dir/bench/bench_$SUITE" "${args[@]}" --benchmark_out="$tmp/$side-$i.json" \
        >/dev/null 2>"$tmp/stderr"; then
      cat "$tmp/stderr" >&2
      exit 1
    fi
  done
done

python3 - "$tmp" "$PAIRS" <<'EOF'
import json
import statistics
import sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load(side, i):
    with open("%s/%s-%d.json" % (tmp, side, i)) as f:
        return json.load(f)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


runs = {side: [load(side, i) for i in range(pairs)] for side in ("base", "head")}
# name -> side -> per-pair rows
rows = {}
for side, side_runs in runs.items():
    for i, run in enumerate(side_runs):
        for b in run.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            rows.setdefault(b["name"], {}).setdefault(side, [None] * pairs)[i] = b

print("%-48s %24s %24s %7s %6s" % ("benchmark (real time, ms)", "base median [q1-q3]",
                                   "head median [q1-q3]", "ratio", "wins"))
for name, sides in rows.items():
    if set(sides) != {"base", "head"} or None in sides["base"] + sides["head"]:
        print("%-48s only on %s" % (name, ", ".join(sorted(sides))))
        continue
    ms = {s: [b["real_time"] * UNIT_TO_MS.get(b.get("time_unit", "ns"), 1e-6)
              for b in sides[s]] for s in sides}
    med = {s: statistics.median(ms[s]) for s in ms}
    q = {s: quartiles(ms[s]) for s in ms}
    wins = sum(1 for b, h in zip(ms["base"], ms["head"]) if h < b)
    ratio = med["head"] / med["base"] if med["base"] > 0 else float("nan")
    print("%-48s %10.4f [%.4f-%.4f] %10.4f [%.4f-%.4f] %6.2fx %3d/%d" % (
        name, med["base"], q["base"][0], q["base"][1], med["head"], q["head"][0],
        q["head"][1], ratio, wins, pairs))

# One aggregate-style Google Benchmark file per side, the shape
# bench_append.py records: a median row and a stddev row per benchmark,
# counters taken as their medians over the runs.
for side, side_runs in runs.items():
    out = []
    for name, sides in rows.items():
        if side not in sides or None in sides[side]:
            continue
        bs = sides[side]
        median = dict(bs[0])
        for key, value in bs[0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                median[key] = statistics.median(b.get(key, value) for b in bs)
        median.update(run_name=name, run_type="aggregate", aggregate_name="median",
                      repetitions=pairs)
        stddev = dict(median, aggregate_name="stddev",
                      real_time=statistics.pstdev(b["real_time"] for b in bs))
        out += [median, stddev]
    with open("%s/%s.json" % (tmp, side), "w") as f:
        json.dump({"context": side_runs[0].get("context", {}), "benchmarks": out}, f)
EOF

if [[ -n "${BENCH_BASE_LABEL:-}" && -n "${BENCH_HEAD_LABEL:-}" ]]; then
  for side in base head; do
    if [[ $side == base ]]; then dir=$BASE label=$BENCH_BASE_LABEL;
    else dir=$HEAD label=$BENCH_HEAD_LABEL; fi
    build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$dir/CMakeCache.txt")
    python3 scripts/bench_append.py "BENCH_$SUITE.json" "$label" "$tmp/$side.json" \
      "${build_type:-unknown}" >/dev/null
    echo "recorded $label in BENCH_$SUITE.json"
  done
fi
