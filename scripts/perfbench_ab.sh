#!/bin/sh
# A/B comparison of the wall-clock benchmark (perfbench/) between two
# source trees, e.g. a checkout of the parent commit and the working tree.
#
# usage: perfbench_ab.sh <parent-tree> <change-tree> <workload> <seed> \
#            <pairs> [seconds] [trace]
#
# Each tree's perfbench is built in run.py's default directory under that
# tree, <tree>/.bench_build/perfbench; CARGO_TARGET_DIR is unset so that an
# exported one cannot make the two trees share a build. A one-second
# warm-up run per side builds it. Then it runs <pairs> pairs of
# `run.py --workload <workload> --seed <seed> --seconds <seconds>
# --trace <trace>` (seconds defaults to 4, trace to 0), alternating which
# side goes first. It prints one line per run (side, failed calls, p50,
# p75, calls/s, setup_s), then for each metric both sides' median and
# quartiles, the pairs the change won and whether the gap between the
# medians exceeds the parent's interquartile range. Traced runs report
# the per-layer split instead of the end-to-end metrics, so with trace 1
# the run line shows call_ns, wire_bytes and pool_hit_pct, and the
# comparison covers every *_ns and *_allocs metric, call_ns, wire_bytes
# and pool_hit_pct: per-layer figures too come from alternating pairs
# rather than from one traced run per tree.
#
# Exits 1 as soon as a run, the warm-ups included, fails, reports
# "correct": false or a failed call.
set -e
unset CARGO_TARGET_DIR

if [ $# -lt 5 ] || [ $# -gt 7 ]; then
  echo "usage: $0 <parent-tree> <change-tree> <workload> <seed> <pairs> [seconds] [trace]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
seconds=${6:-4}
trace=${7:-0}
case $trace in
  0|1) ;;
  *) echo "trace must be 0 or 1" >&2; exit 2 ;;
esac

results=$(mktemp)
trap 'rm -f "$results"' EXIT

# run <side> <tree> <seconds>: one run. Appends "<side> <json>" to
# $results and prints the run's line; exits 1 unless the run is correct
# with no failed call. Build output and errors go to
# <tree>/.bench_build/ab.log.
run() {
  json=$(cd "$2" && python3 perfbench/run.py --workload "$workload" \
      --seed "$seed" --seconds "$3" --trace "$trace" 2>>"$2/.bench_build/ab.log") ||
    { echo "FAIL: $1 run failed, see $2/.bench_build/ab.log" >&2; exit 1; }
  line="$1 $(printf '%s\n' "$json" | tail -n 1)"
  echo "$line" >> "$results"
  printf '%s\n' "$line" | python3 -c 'import json, sys
side, report = sys.stdin.read().split(" ", 1)
report = json.loads(report)
m = {k: v["value"] for k, v in report["metrics"].items()}
if sys.argv[1] == "1":
    print("%-6s failed %d  call %.0f ns  wire %.1f B  pool hits %.1f%%"
          % (side, report["failed"], m["call_ns"], m["wire_bytes"],
             m["pool_hit_pct"]))
else:
    print("%-6s failed %d  p50 %.3f us  p75 %.3f us  %.0f calls/s  setup %.6f s"
          % (side, report["failed"], m["p50_us"], m["p75_us"],
             m["calls_per_s"], m["setup_s"]))
if report["correct"] is not True or report["failed"] != 0:
    print("FAIL: a %s run reported correct: false or a failed call" % side)
    sys.exit(1)' "$trace" || exit 1
}

# Build both sides and warm them with a one-second run each, checked like
# the others but left out of the comparison.
for side in parent change; do
  eval tree=\$$side
  echo "building $side: $tree" >&2
  mkdir -p "$tree/.bench_build"
  run "$side" "$tree" 1 >&2
done
: > "$results"

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    eval tree=\$$side
    run "$side" "$tree" "$seconds"
  done
  i=$((i + 1))
done

python3 - "$results" "$trace" <<'EOF'
import json
import statistics
import sys

runs = {"parent": [], "change": []}
with open(sys.argv[1]) as results:
    for line in results:
        side, report = line.split(" ", 1)
        report = json.loads(report)
        runs[side].append({k: v["value"] for k, v in report["metrics"].items()})

if sys.argv[2] == "1":
    # The per-layer split, in the report's order.
    BETTER = {}
    for metric in runs["parent"][0]:
        if (metric.endswith("_ns") or metric.endswith("_allocs")
                or metric == "wire_bytes"):
            BETTER[metric] = "lower"
        elif metric == "pool_hit_pct":
            BETTER[metric] = "higher"
else:
    BETTER = {"p50_us": "lower", "p75_us": "lower", "calls_per_s": "higher",
              "setup_s": "lower"}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print()
for metric, better in BETTER.items():
    parent = [run[metric] for run in runs["parent"]]
    change = [run[metric] for run in runs["change"]]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won = sum(1 for p, c in zip(parent, change)
              if (c < p if better == "lower" else c > p))
    gap = cm - pm
    improved = gap < 0 if better == "lower" else gap > 0
    print("%-17s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
          "%+.1f%%  won %d/%d  gap %s parent IQR (%s)"
          % (metric, pm, p1, p3, cm, c1, c3,
             100.0 * gap / pm if pm else 0.0, won, len(parent),
             "exceeds" if abs(gap) > p3 - p1 else "within",
             "better" if improved else "worse" if gap else "level"))
EOF
