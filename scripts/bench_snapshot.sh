#!/usr/bin/env bash
# Run the derivation micro-benchmarks and write a machine-readable
# snapshot of median ns-per-op to BENCH_5.json (or $1 if given).
#
# The vendored criterion stand-in appends one JSON line per benchmark to
# $CRITERION_SNAPSHOT; this script collects the lines and adds the
# headline ratios: the greedy-step speedup of the frozen-cache scan
# kernel over the serial incremental DerivationState probe, and the
# warm-store ratios (cold-start greedy or MCTS session over the identical
# session seeded from a warm snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_5.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

CRITERION_SNAPSHOT="$tmp" cargo bench -p ixtune-bench --bench derivation

python3 - "$tmp" "$out" <<'EOF'
import json
import os
import sys

lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
medians = {e["bench"]: e["median_ns"] for e in lines}
doc = {"median_ns_per_op": medians, "host_threads": os.cpu_count()}
for universe in (64, 256, 1024):
    inc = medians.get(f"greedy-step/incremental-u{universe}")
    par = medians.get(f"greedy-step/parallel-u{universe}")
    if inc and par:
        doc[f"greedy_step_parallel_u{universe}_speedup"] = round(inc / par, 2)
for budget in (256, 1024):
    cold = medians.get(f"greedy-step/coldstart-u{budget}")
    warm = medians.get(f"greedy-step/warm-u{budget}")
    if cold and warm:
        doc[f"warm_session_u{budget}_speedup"] = round(cold / warm, 2)
serial = medians.get("mcts/episodes-serial")
warm = medians.get("mcts/episodes-warm")
if serial and warm:
    doc["mcts_warm_session_speedup"] = round(serial / warm, 2)
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print("wrote", sys.argv[2])
EOF
