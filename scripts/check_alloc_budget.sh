#!/bin/sh
# Alloc-budget regression gate over BENCH_hotpath.json.
#
# The streaming transform pipeline holds the request hot path to a fixed
# allocation budget; this check fails (exit 1) when a tracked row exceeds
# it, so CI catches an alloc regression even when throughput noise hides
# it. Budgets are allocs/request upper bounds, deliberately a little
# above steady state to absorb warm-up amortization, never throughput.
#
# It also gates throughput floors (req/s lower bounds) on the rows where a
# scale regression once slipped past the alloc budget: floors are set well
# below tracked numbers so only a real regression (not machine noise)
# trips them.
#
# usage: check_alloc_budget.sh [path-to-BENCH_hotpath.json]
set -e

json="${1:-BENCH_hotpath.json}"

python3 - "$json" <<'EOF'
import json
import sys

# (scenario, op) -> max allocs/request.
BUDGETS = {
    # Small frames are pooled (acquire reserves at least the pool's 64-byte
    # floor), and the pending-reply table, the in-flight slots and the
    # event loop reuse their capacity: steady state is 0.
    ("plain", "add"): 1.0,
    ("plain", "blob4k"): 8.0,
    ("plain_replicated", "add"): 8.0,
    # The full compress+encrypt weave: steady state 0 (the mediator stage
    # points at the call's target instead of copying it, and the routed
    # call's argument buffer goes back to the pool), the same headroom as
    # plain/add.
    ("woven_streaming", "add"): 1.0,
    # Steady state after a renegotiated lattice step (lz77 -> rle on the
    # fused channel): rebinding under the bumped channel version must not
    # add per-request heap traffic over the first binding.
    ("woven_renegotiated", "add"): 1.0,
    # Edge gateway rows: one keep-alive HTTP round trip including JSON
    # (or MTOM multipart) translation and the DII bridge. Tracked steady
    # state is 4/6/8 allocs/request; the budgets, set when it was 5/7/9,
    # leave headroom so a copy sneaking into the parse->marshal->invoke
    # path still trips.
    ("gateway_json", "add"): 7.0,
    ("gateway_json", "echo"): 9.0,
    ("gateway_blob4k", "blob4k"): 12.0,
}

# (scenario, op) -> min requests/sec. The woven blob4k floor is the
# regression that motivated this gate: pool fragmentation once dropped it
# under 100k req/s while allocs/request stayed flat.
FLOORS = {
    ("woven_streaming", "blob4k"): 100_000.0,
    ("plain", "add"): 200_000.0,
    # Gateway floors: tracked ~260k (json add) and ~145k (MTOM blob4k)
    # req/s; a floor breach means the HTTP front-end stopped riding the
    # zero-copy pipeline, not machine noise.
    ("gateway_json", "add"): 100_000.0,
    ("gateway_blob4k", "blob4k"): 50_000.0,
}

with open(sys.argv[1]) as f:
    rows = json.load(f)["rows"]

seen = set()
floors_seen = set()
failed = False
for row in rows:
    key = (row["scenario"], row["op"])
    if key in BUDGETS:
        seen.add(key)
        allocs = row["allocs_per_request"]
        budget = BUDGETS[key]
        status = "FAIL" if allocs > budget else "ok"
        print(f"[{status}] {key[0]}/{key[1]}: {allocs:.2f} allocs/request "
              f"(budget {budget:.0f})")
        if allocs > budget:
            failed = True
    if key in FLOORS:
        floors_seen.add(key)
        rps = row["requests_per_sec"]
        floor = FLOORS[key]
        status = "FAIL" if rps < floor else "ok"
        print(f"[{status}] {key[0]}/{key[1]}: {rps:.0f} req/s "
              f"(floor {floor:.0f})")
        if rps < floor:
            failed = True

for key in sorted(BUDGETS.keys() - seen):
    print(f"[FAIL] {key[0]}/{key[1]}: row missing from {sys.argv[1]}")
    failed = True
for key in sorted(FLOORS.keys() - floors_seen):
    print(f"[FAIL] {key[0]}/{key[1]}: row missing from {sys.argv[1]}")
    failed = True

sys.exit(1 if failed else 0)
EOF
