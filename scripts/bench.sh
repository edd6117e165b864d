#!/usr/bin/env bash
# Benchmark-trajectory harness: builds the Google-Benchmark binaries with
# -DEXPFINDER_BUILD_BENCH=ON, runs the benchmark suites with JSON output,
# and appends one labelled entry per suite to BENCH_<suite>.json at the repo
# root. Successive PRs run this to extend the trajectory, so every
# optimization lands with comparable before/after numbers on the same
# machine.
#
# Usage: scripts/bench.sh [extra cmake args...]
# Env:
#   BENCH_LABEL      trajectory entry label (default: git short sha;
#                    re-using a label replaces that entry)
#   BENCH_MIN_TIME   per-benchmark min time in seconds, e.g. 0.01 for a
#                    smoke run (default: 0.2; plain double — older Google
#                    Benchmark releases reject the "s"-suffixed form)
#   BENCH_REPETITIONS  repetitions per benchmark (default: 3). Above 1,
#                    only the aggregates are reported and each benchmark
#                    records its median plus "spread" (stddev / median);
#                    1 records the single run (CI's smoke does that)
#   BENCH_FILTER     --benchmark_filter regex (default: run everything)
#   BENCH_BUILD_DIR  build directory (default: build)
#   BENCH_BUILD_TYPE CMAKE_BUILD_TYPE for the bench build (default:
#                    Release). Benchmarks built without optimization are
#                    not worth recording — every pre-PR-5 trajectory entry
#                    says "build_type": "debug" and undercuts comparisons;
#                    from PR 5 on, entries are Release unless explicitly
#                    overridden.
#   BENCH_SUITES    space-separated subset of "matching engine service
#                   storage index replication topk" (default: all seven) — e.g.
#                   record an async serving baseline alone with
#                   BENCH_SUITES=service BENCH_LABEL=pr4 scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BENCH_BUILD_DIR:-build}
LABEL=${BENCH_LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabelled)}
MIN_TIME=${BENCH_MIN_TIME:-0.2}
REPETITIONS=${BENCH_REPETITIONS:-3}
FILTER=${BENCH_FILTER:-}
SUITES=${BENCH_SUITES:-"matching engine service storage index replication topk"}
BUILD_TYPE=${BENCH_BUILD_TYPE:-Release}

targets=()
for suite in $SUITES; do
  targets+=("bench_$suite")
done
cmake -B "$BUILD_DIR" -S . -DEXPFINDER_BUILD_BENCH=ON \
  -DCMAKE_BUILD_TYPE="$BUILD_TYPE" "$@"
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${targets[@]}"

for suite in $SUITES; do
  bin="$BUILD_DIR/bench/bench_$suite"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (is the Google Benchmark library installed?)" >&2
    exit 2
  fi
  out=$(mktemp)
  args=(--benchmark_out="$out" --benchmark_out_format=json
        --benchmark_min_time="$MIN_TIME"
        --benchmark_repetitions="$REPETITIONS"
        --benchmark_report_aggregates_only=true)
  if [[ -n "$FILTER" ]]; then
    args+=(--benchmark_filter="$FILTER")
  fi
  echo "=== bench_$suite (label: $LABEL, min_time: $MIN_TIME, repetitions: $REPETITIONS) ==="
  "$bin" "${args[@]}" >/dev/null
  python3 scripts/bench_append.py "BENCH_$suite.json" "$LABEL" "$out" "$BUILD_TYPE"
  rm -f "$out"
done
