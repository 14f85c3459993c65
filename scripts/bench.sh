#!/usr/bin/env bash
# Tier-1 verification plus the LP kernel microbenchmarks.
#
# Usage: scripts/bench.sh [--baseline <json>]
#
# Runs the workspace build + tests (the tier-1 gate), then the LP kernel
# benchmark with --emit-json, which rewrites BENCH_lp.json at the repo
# root. With --baseline, diffs the fresh numbers against a saved copy so
# perf regressions show up next to the speedup column.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=""
if [[ "${1:-}" == "--baseline" ]]; then
    BASELINE="${2:?--baseline needs a path}"
fi

echo "== tier-1: build =="
cargo build --release --offline

echo "== tier-1: lints =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: tests =="
cargo test -q --offline

echo "== lp kernel benchmarks =="
cargo bench -q --offline -p bate-bench --bench lp -- --emit-json

echo "== BENCH_lp.json =="
cat BENCH_lp.json

# The churn benchmark inside the lp bench already asserts the bar (the
# bench aborts below 10x); re-check the emitted JSON here so a stale or
# hand-edited BENCH_lp.json can't slip past the gate.
echo "== churn warm-start gate (DESIGN.md §5e) =="
CHURN_SPEEDUP=$(sed -n 's/.*"churn_warm".*"speedup": \([0-9.]*\).*/\1/p' BENCH_lp.json)
if [[ -z "$CHURN_SPEEDUP" ]]; then
    echo "FAILED: BENCH_lp.json has no churn_warm speedup"
    exit 1
fi
if awk -v s="$CHURN_SPEEDUP" 'BEGIN { exit !(s >= 10.0) }'; then
    echo "churn warm-start speedup ${CHURN_SPEEDUP}x >= 10x: OK"
else
    echo "FAILED: churn warm-start speedup ${CHURN_SPEEDUP}x below the 10x bar"
    exit 1
fi

# Same for the scenario sweeps (DESIGN.md §5): the shipped bitset partition
# against the scenario-by-scenario walk, ATT / 250 demands.
echo "== scenario sweep gate (DESIGN.md §5) =="
for SWEEP in collapse_ms hard_check_ms; do
    SPEEDUP=$(sed -n "s/.*\"scenario_sweep\".*\"$SWEEP\": {[^}]*}[^}]*}, \"speedup\": \([0-9.]*\).*/\1/p" BENCH_lp.json)
    if [[ -z "$SPEEDUP" ]] || ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 5.0) }'; then
        echo "FAILED: scenario_sweep $SWEEP speedup '${SPEEDUP}' is missing or below the 5x bar"
        exit 1
    fi
    echo "scenario_sweep $SWEEP speedup ${SPEEDUP}x >= 5x: OK"
done

# And for the cold set-up (DESIGN.md §5b item 4): a cold solve on the
# thread's swept scratch workspace against one on a fresh workspace, the
# ATT / 250-demand master, layouts alternated. Faults are absent off Linux.
echo "== cold set-up gate (DESIGN.md §5b item 4) =="
COLD=$(grep '"cold_setup"' BENCH_lp.json || true)
COLD_SPEEDUP=$(sed -n 's/.*"solve_ms": {.*"speedup": \([0-9.]*\)}.*/\1/p' <<<"$COLD")
COLD_FAULTS=$(sed -n 's/.*"minor_faults_per_solve": {[^}]*"scratch": \([0-9]*\)}.*/\1/p' <<<"$COLD")
if [[ -z "$COLD_SPEEDUP" ]] || ! awk -v s="$COLD_SPEEDUP" -v f="${COLD_FAULTS:-0}" 'BEGIN { exit !(s >= 1.4 && f <= 500) }'; then
    echo "FAILED: cold_setup speedup '${COLD_SPEEDUP}' (bar 1.4x) or scratch faults per solve '${COLD_FAULTS}' (bar 500) missing or off the bar"
    exit 1
fi
echo "cold_setup speedup ${COLD_SPEEDUP}x >= 1.4x, ${COLD_FAULTS:-no count of} minor faults per scratch solve <= 500: OK"

# And for the live master's memory (DESIGN.md §5e): a warm apply of the
# 250-demand ATT churn writes into pages the master already faulted in,
# across appended rows and compactions. Before this gate it read ~990 per
# apply (a matrix `resize`d row by row, and a fresh workspace per
# compaction; EXPERIMENTS.md E32). Faults are absent off Linux only.
echo "== live-master faults gate (DESIGN.md §5e) =="
POOL=$(grep '"churn_warm_pool250"' BENCH_lp.json || true)
POOL_FAULTS=$(sed -n 's/.*"minor_faults_per_warm_apply": {"median": \([0-9.]*\),.*/\1/p' <<<"$POOL")
if [[ -z "$POOL_FAULTS" && -r /proc/self/stat ]] \
    || ! awk -v f="${POOL_FAULTS:-0}" 'BEGIN { exit !(f <= 100) }'; then
    echo "FAILED: churn_warm_pool250 median minor faults per warm apply '${POOL_FAULTS}' missing or above the bar of 100"
    exit 1
fi
echo "churn_warm_pool250 ${POOL_FAULTS:-no count of} minor faults per warm apply (median) <= 100: OK"

# And for the columns a solve never uses (DESIGN.md §5b): the same master
# with three times as many idle variables appended, same pivots. With a
# pivot-row gather and a `price_out` that scan whole rows it reads 1.77
# (EXPERIMENTS.md E31).
echo "== idle-column gate (DESIGN.md §5b) =="
WIDE_RATIO=$(sed -n 's/.*"wide_master".*"ratio": \([0-9.]*\)}.*/\1/p' BENCH_lp.json)
if [[ -z "$WIDE_RATIO" ]] || ! awk -v s="$WIDE_RATIO" 'BEGIN { exit !(s <= 1.6) }'; then
    echo "FAILED: wide_master ratio '${WIDE_RATIO}' is missing or above the 1.6x bar"
    exit 1
fi
echo "wide_master ratio ${WIDE_RATIO}x <= 1.6x: OK"

if [[ -n "$BASELINE" ]]; then
    echo "== diff vs $BASELINE =="
    diff -u "$BASELINE" BENCH_lp.json && echo "(no change)" || true
fi
