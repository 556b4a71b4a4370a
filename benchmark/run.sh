#!/usr/bin/env bash
# The ccra benchmark: builds the repository (Release) into build-bench/ and
# runs each workload in its own ccra_bench process.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--trace [0|1]] [--smoke]
#                    [--out DIR] [--seconds S]
#
# Options also take the --name=value form. Without --workload every
# workload runs in turn (corpus_cold corpus_zipf fuzz_large paper_grid).
# --trace (or --trace 1) reports the per-layer metrics and writes
# OUT/trace-<workload>.json; --smoke runs every workload at 1/50 of its
# size, untraced and traced, with every correctness check on.
#
# A run measures for run_seconds of BENCHMARK.json, so every run of one
# commit is equally long. Benchmark runners pass that value as --seconds;
# any other value is refused.
#
# Each run prints "workload metric value unit" lines, then one JSON line,
# and writes OUT/results-<workload>-seed<N>[-trace].json (OUT defaults to
# build-bench/out). The exit status is non-zero on any correctness failure.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ]; then
  echo "run.sh: no run_seconds in BENCHMARK.json" >&2
  exit 2
fi
workload=""
seed=1
trace=0
smoke=0
out=build-bench/out
while [ $# -gt 0 ]; do
  arg=$1
  shift
  case $arg in
    --*=*) key=${arg%%=*}; value=${arg#*=} ;;
    --smoke) key=$arg; value=1 ;;
    --trace)
      key=$arg; value=1
      if [ $# -gt 0 ] && { [ "$1" = 0 ] || [ "$1" = 1 ]; }; then
        value=$1; shift
      fi ;;
    *)
      key=$arg
      if [ $# -eq 0 ]; then echo "run.sh: $arg needs a value" >&2; exit 2; fi
      value=$1; shift ;;
  esac
  case $key in
    --workload) workload=$value ;;
    --seed) seed=$value ;;
    --seconds)
      if [ "$value" != "$seconds" ]; then
        echo "run.sh: runs last run_seconds of BENCHMARK.json ($seconds)," \
          "not $value" >&2
        exit 2
      fi ;;
    --trace) trace=$value ;;
    --smoke) smoke=1 ;;
    --out) out=$value ;;
    *) echo "run.sh: unknown option $key" >&2; exit 2 ;;
  esac
done

build=build-bench
# Compiler temporaries stay inside the checkout too.
export TMPDIR=$PWD/$build/tmp
mkdir -p "$TMPDIR"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  cmake -S benchmark -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ccra_bench ccra_serve -j "$(nproc)" >&2
mkdir -p "$out"

bench() {
  "$build/ccra_bench" --workload="$1" --seed="$seed" --seconds="$seconds" \
    --trace="$2" --serve="$build/ccra/tools/ccra_serve" --root=. \
    --out="$out" "${@:3}"
}

if [ "$smoke" = 1 ]; then
  status=0
  for w in ${workload:-corpus_cold corpus_zipf fuzz_large paper_grid}; do
    for t in 0 1; do bench "$w" "$t" --smoke || status=1; done
  done
  exit $status
fi
if [ -n "$workload" ]; then
  bench "$workload" "$trace"
  exit
fi
status=0
for w in corpus_cold corpus_zipf fuzz_large paper_grid; do
  bench "$w" "$trace" || status=1
done
exit $status
