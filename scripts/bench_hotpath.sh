#!/bin/sh
# Rebuilds the tracked perf benches in Release and refreshes
# BENCH_hotpath.json at the repo root. Run after touching the request hot
# path (cdr/, orb/message, orb/orb, net/network, sim/event_loop, trace/)
# and commit the refreshed JSON alongside the change. The *_trace_off rows
# guard the zero-cost-when-off claim: they must stay within noise of the
# untraced rows.
set -e

cd "$(dirname "$0")/.."

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$(nproc)" --target maqs_bench

# The gated artifact runs FIRST: the f2/f3 google-benchmark binaries peg
# the CPU long enough to trip container bandwidth throttling, and a
# throttled tail flakes the throughput floor below.
./build-release/bench/bench_f4_hotpath BENCH_hotpath.json
./build-release/bench/bench_f2_weaving
./build-release/bench/bench_f3_dispatch

# Hard gate: the streaming pipeline's allocation budget (plain add <= 1,
# woven add <= 1 allocs/request) and throughput floors (woven blob4k
# >= 100k req/s). Fails the run on regression.
./scripts/check_alloc_budget.sh BENCH_hotpath.json

echo "wrote $(pwd)/BENCH_hotpath.json"
