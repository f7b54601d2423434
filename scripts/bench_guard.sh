#!/usr/bin/env bash
# Guard the disabled-obs hot path: re-measure the derivation
# micro-benchmarks and fail if any greedy-step median regresses more
# than IXTUNE_BENCH_TOLERANCE (default 3%) against the committed
# BENCH_5.json snapshot (or the baseline given as $1).
#
# The observability layer must be zero-cost when disabled — the benches
# run with `Obs::disabled()`, so a regression here means the disabled
# path stopped being free. Speedups are always fine; only slowdowns
# beyond the tolerance fail. The bench is repeated IXTUNE_BENCH_RUNS
# times (default 3) and the per-series *minimum* across all samples is
# compared against the snapshot median: the floor is the least
# noise-contaminated estimate of what the code can still do, so a
# loaded host does not fail the guard spuriously while a real slowdown
# (which lifts the floor, not just the tail) still does.
#
# A scaling leg needs no snapshot: the floor of an MCTS session at 4x the
# budget (`mcts/episodes-b4000`) must stay within 8x that of
# `mcts/episodes-b1000`. Per-episode cost is about flat in the budget, so
# the ratio sits near 4; a configuration hash whose table slots ignored
# high candidate ids made it 15-23.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_5.json}"
tolerance="${IXTUNE_BENCH_TOLERANCE:-0.03}"
runs="${IXTUNE_BENCH_RUNS:-3}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# The criterion stand-in appends one line per benchmark, so repeated
# runs accumulate samples in the same file. IXTUNE_BENCH_DURABLE=1 adds
# the gated `greedy-step/durable-coldstart-*` series: the same cold-start
# sessions interleaved with settle-time WAL appends, proving the persist
# layer is inert for the tuning hot path (guarded against the plain
# coldstart floors below).
for _ in $(seq "$runs"); do
    CRITERION_SNAPSHOT="$tmp" IXTUNE_BENCH_DURABLE=1 \
        cargo bench -p ixtune-bench --bench derivation
done

python3 - "$tmp" "$baseline" "$tolerance" <<'EOF'
import json
import sys

measured = {}
for line in open(sys.argv[1]):
    if line.strip():
        e = json.loads(line)
        floor = e.get("min_ns", e["median_ns"])
        prev = measured.get(e["bench"])
        measured[e["bench"]] = floor if prev is None else min(prev, floor)
baseline = json.load(open(sys.argv[2]))["median_ns_per_op"]
tolerance = float(sys.argv[3])

# The shipped hot paths: the incremental DerivationState probe, the
# frozen-cache parallel kernel (the one that takes the Obs handle),
# whole cold-start and warm-seeded greedy sessions (now served by the
# compiled kernel + sparse informed-candidate scan), and the raw
# compiled what-if call.
guarded = sorted(
    name
    for name in baseline
    if name.startswith(
        (
            "greedy-step/incremental-",
            "greedy-step/parallel-",
            "greedy-step/coldstart-",
            "greedy-step/warm-",
            "whatif/compiled-",
        )
    )
    and name in measured
)
if not guarded:
    sys.exit("no guarded series shared between run and baseline")

failures = []
for name in guarded:
    old, new = baseline[name], measured[name]
    ratio = new / old
    verdict = "OK" if ratio <= 1 + tolerance else "REGRESSION"
    print(f"{verdict:>10}  {name}: {old} -> {new} ns/op ({(ratio - 1):+.1%})")
    if ratio > 1 + tolerance:
        failures.append(name)

# The durability leg: the same cold-start session with settle-time WAL
# appends interleaved must cost nothing on the tuning hot path. Each
# durable series is compared against the plain companion measured
# back-to-back in the same process (so host load drift cannot masquerade
# as persist overhead), floored by the committed BENCH_5.json coldstart
# number — on a quiet host the committed floor is the binding one.
durable = sorted(
    name for name in measured if name.startswith("greedy-step/durable-coldstart-")
)
if not durable:
    sys.exit("durability leg missing: no greedy-step/durable-coldstart-* measured")
for name in durable:
    companion = name.replace("durable-coldstart-", "durable-baseline-")
    committed = name.replace("durable-", "", 1)
    if companion not in measured:
        sys.exit(f"durability leg missing its companion series {companion}")
    old = max(measured[companion], baseline.get(committed, 0))
    new = measured[name]
    ratio = new / old
    verdict = "OK" if ratio <= 1 + tolerance else "REGRESSION"
    print(f"{verdict:>10}  {name}: {old} -> {new} ns/op ({(ratio - 1):+.1%})")
    if ratio > 1 + tolerance:
        failures.append(name)

# The scaling leg: a ratio of two floors measured in the same process.
low, high, bound = "mcts/episodes-b1000", "mcts/episodes-b4000", 8.0
if low not in measured or high not in measured:
    sys.exit(f"scaling leg missing: {low} and {high} must both be measured")
ratio = measured[high] / measured[low]
verdict = "OK" if ratio <= bound else "REGRESSION"
print(f"{verdict:>10}  {high} / {low}: {ratio:.2f} (bound {bound:g})")
if ratio > bound:
    failures.append(f"{high} / {low}")

if failures:
    sys.exit(
        f"hot path regressed (floors beyond {tolerance:.0%} vs {sys.argv[2]}, "
        f"or MCTS scaling beyond {bound:g}x): " + ", ".join(failures)
    )
print(
    f"bench guard passed ({len(guarded)} series + {len(durable)} durability "
    f"legs within {tolerance:.0%}, MCTS scaling {ratio:.2f} <= {bound:g})"
)
EOF
