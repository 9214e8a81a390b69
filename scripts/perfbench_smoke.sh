#!/bin/sh
# Smoke run of the wall-clock benchmark (perfbench/): every workload that
# BENCHMARK.json declares, for one second on seed 1, first with the layer
# probes off and then on. Fails (exit 1) unless every run reports
# "correct": true and "failed": 0. It gates no metric: one-second runs on
# a shared machine are too noisy for a speed gate.
#
# usage: perfbench_smoke.sh
set -e

cd "$(dirname "$0")/.."

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for workload in $workloads; do
  for trace in 0 1; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 1 --trace "$trace" | tail -n 1)
    echo "$workload --trace $trace: $result"
    printf '%s\n' "$result" | python3 -c 'import json, sys
report = json.load(sys.stdin)
sys.exit(0 if report["correct"] is True and report["failed"] == 0 else 1)' ||
      { echo "FAIL: $workload --trace $trace"; exit 1; }
  done
done
