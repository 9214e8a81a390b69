#!/bin/sh
# Builds everything, runs the full test suite, every experiment, and every
# CI gate, and captures the outputs the repo's EXPERIMENTS.md refers to.
# A clean exit here means CI will be green (modulo sanitizer jobs).
set -e
cd "$(dirname "$0")/.."

# Default generator, as the tier-1 command and CI configure build/: forcing
# another one aborts on a tree they already configured.
cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do
  [ -x "$b" ] && "$b"
done 2>&1 | tee bench_output.txt

# The perf gates CI runs, locally. bench_hotpath.sh rebuilds the tracked
# benches in Release, refreshes BENCH_hotpath.json at the repo root and
# runs the alloc-budget/throughput-floor gate over it (the loop above ran
# the default build's benches for the experiment tables only — its f4
# numbers are not the gated artifact).
./scripts/bench_hotpath.sh

# Latency artifact gate: schema, percentile monotonicity, per-class
# accounting and the headline QoS-differentiation claims over the tracked
# 1M-client BENCH_latency.json.
./scripts/check_latency_schema.sh BENCH_latency.json

# Chaos suite across the CI seed matrix (41 42 1337).
./scripts/chaos.sh build

# Wall-clock benchmark smoke: every workload for one second, layer probes
# off and on; fails unless every call was correct (no speed gate).
./scripts/perfbench_smoke.sh
