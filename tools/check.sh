#!/usr/bin/env bash
# Repository check: configure, build, and run the full test suite; then
# rebuild with ThreadSanitizer (-DCCRA_TSAN=ON) and rerun the
# concurrency-sensitive tests — the thread pool, the parallel-vs-serial
# determinism suite, and the telemetry recorder — under it; finally run
# the Release-mode perf smokes: the grid-throughput benchmark
# (bench/perf_grid), which exits non-zero if the shared cache/pool grid
# ever diverges bit-for-bit from plain per-point runs, and the
# per-function scaling benchmark (bench/perf_scaling), which exits
# non-zero if the Auto graph + worklist simplifier ever build different
# edges or a different stack than the dense graph + O(V^2) reference
# simplifier; and last, the time-boxed differential-fuzz smoke
# (tools/ccra_fuzz --smoke): a fixed seed range through the full oracle
# lattice and its per-function component check — the same range the CI
# smoke step sweeps, so a local pass predicts a CI pass; and the serving
# stack's gates: a live ccra_serve daemon with its caches off driven
# through a mixed client burst (valid frames, malformed frames, and
# well-formed frames with hostile payloads that must be answered
# "malformed") that holds serve.batch to 1.5x allocate_total, and drained
# with SIGTERM, a cache smoke (a Zipfian burst against a cache-enabled
# daemon that must produce a nonzero hit rate with every response still
# bit-identical); then perf_grid's gate against BENCH_grid.json; and last,
# the benchmark declared in BENCHMARK.json: its smoke (benchmark/run.sh
# --smoke: every workload at 1/50 size, untraced and traced, every
# correctness check on), then one full-length run (--seed 1) gated by
# tools/bench_gate against the committed runs in BENCH_workloads/.
#
# Usage: tools/check.sh [extra cmake args...]
#   JOBS=N   parallel build jobs (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== build + full test suite =="
cmake -B build -S . "$@"
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "== C frontend smoke: compile, verify, round-trip the committed corpus =="
# Every examples/corpus_c program must compile through the C frontend,
# pass the IR verifier, and round-trip byte-exactly through the printer
# and parser (--check-corpus exits non-zero otherwise), and allocate
# through the tools' allocation path (--alloc). Then recompile
# into a scratch dir and diff against the committed fuzz/corpus lowering:
# frontend changes must regenerate cc-*.ccra in the same commit.
./build/tools/ccra_cc --check-corpus examples/corpus_c/*.c
./build/tools/ccra_cc --alloc examples/corpus_c/*.c > /dev/null
rm -rf build/cc-corpus-check
./build/tools/ccra_cc --emit-corpus=build/cc-corpus-check \
      examples/corpus_c/*.c > /dev/null
for f in build/cc-corpus-check/cc-*.ccra; do
  diff -u "fuzz/corpus/$(basename "$f")" "$f"
done

echo "== ThreadSanitizer: tests labeled 'concurrency' (tests/CMakeLists.txt) =="
cmake -B build-tsan -S . -DCCRA_TSAN=ON "$@"
cmake --build build-tsan -j "$JOBS" --target test_parallel test_telemetry \
      test_service test_cache test_binarycodec
ctest --test-dir build-tsan --output-on-failure -L concurrency

echo "== Release perf smokes: bit-identity gates (perf_grid, perf_scaling) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j "$JOBS" --target perf_grid perf_scaling
(cd build-release && ./bench/perf_grid)
(cd build-release && ./bench/perf_scaling)

echo "== Differential-fuzz smoke: oracle lattice over the fixed seed range =="
cmake --build build-release -j "$JOBS" --target ccra_fuzz
# --smoke pins the seed range and shrink budget; the 10-minute box only
# guards against a pathological slowdown, it is not reached normally.
./build-release/tools/ccra_fuzz --smoke --time-budget=600 --keep-going

echo "== Codec sweep: wire v2 encode/decode equivalent to the text path =="
./build-release/tools/ccra_fuzz --codec-sweep=500

echo "== Service smokes: burst + drain via .github/scripts/service_smoke.sh =="
cmake --build build-release -j "$JOBS" --target ccra_serve ccra_client
# 2,000 mixed requests (valid across the proxy/config grid, malformed
# frames, tiny deadlines) from 4 concurrent clients; every valid response
# is checked bit-identical to in-process allocation. The daemon's caches
# are off, so every valid request is allocated and the burst holds
# serve.batch to 1.5x allocate_total.
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=2000 --clients=4 --serve-args="--cache-bytes=0" --stats
# Zipf-sampled cases repeat, so the burst exits non-zero unless the
# daemon's STATS report a nonzero cache hit count AND every response
# (cached or cold) is bit-identical to in-process allocation.
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=300 --clients=4 --client-args="--zipf"
# The same mixed burst over the binary module codec (wire v2).
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=200 --clients=4 --client-args="--wire=v2"

echo "== Grid bench gate: fresh Release numbers vs BENCH_grid.json =="
tools/bench_gate --baseline BENCH_grid.json \
      --fresh build-release/BENCH_grid.json

echo "== Benchmark smoke: BENCHMARK.json workloads at 1/50 size =="
benchmark/run.sh --smoke

echo "== Serving bench gate: benchmark/run.sh --seed 1 vs BENCH_workloads =="
# A directory of its own: the gate reads every results file in it, and
# build-bench/out keeps whatever earlier runs left there.
rm -rf build-bench/gate
benchmark/run.sh --seed 1 --out build-bench/gate
tools/bench_gate --baseline BENCH_workloads --fresh build-bench/gate

echo "check.sh: all green"
