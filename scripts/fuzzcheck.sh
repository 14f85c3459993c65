#!/usr/bin/env bash
# Differential-fuzzing gate: the seeded exact-oracle campaign plus the
# certificate-bearing golden corpora, at a larger-than-tier-1 budget.
#
# Usage: scripts/fuzzcheck.sh [--fast] [BUDGET]
#
# Every instance is generated from a fixed per-family seed sequence, so a
# run is deterministic for a given budget: a failure prints a
# `family:seed` tag that reproduces the instance bit for bit (append it
# to the matching REGRESSION_SEEDS array — see DESIGN.md §7).
#
# --fast keeps the tier-1 default budgets (quick smoke of the harness
# itself); the default sweeps FUZZ_BUDGET=2000 cases per family. An
# explicit BUDGET argument overrides either.
set -uo pipefail
cd "$(dirname "$0")/.."

BUDGET=2000
if [[ "${1:-}" == "--fast" ]]; then
    BUDGET=""
    shift
fi
if [[ -n "${1:-}" ]]; then
    BUDGET="$1"
fi

STATUS=0

run() {
    echo "== ${FUZZ_BUDGET:+FUZZ_BUDGET=$FUZZ_BUDGET }$* =="
    "$@" || STATUS=$?
}

if [[ -n "$BUDGET" ]]; then
    export FUZZ_BUDGET="$BUDGET"
fi

# The differential campaign: synthetic LP/MILP families (including the
# SRLG-shaped correlated scheduling/admission models), the
# stale_batch_mates gadget, scheduling/admission models across all solve
# modes, the certified independent-vs-correlated divergence case, and
# the recovery-storm MILP certification — each float-vs-exact
# differenced and certificate-checked.
run cargo test -q --offline -p bate-bench --test fuzz_campaign

# The scenario sweeps (profile collapse, hard-availability check: bitset
# algebra over ScenarioSet::partition) against the scenario-by-scenario
# walk kept in bate_reference::walk, bit for bit, over seeded demands and
# allocations on independent and SRLG scenario sets.
run cargo test -q --offline -p bate-bench --test scenario_sweep

# The references themselves (crates/reference): exact rationals, the exact
# simplex and branch-and-bound against the float kernel, the KKT
# certificates, and the Monte-Carlo availability against the analytic one.
run cargo test -q --offline -p bate-reference

# Random contract-edit sequences through one live WarmState tableau,
# every answer differenced against a fresh cold solve (and certified while
# the instance is small), plus 600 in-place churn rounds on one tableau.
run cargo test -q --offline -p bate-lp --test live_edits

# Correlated-scenario properties (joint-mass conservation, generator
# determinism, SRLG/link-state consistency) and the pinned storm/demand
# golden traces (budget-independent, bitwise).
run cargo test -q --offline -p bate-net --test property
run cargo test -q --offline -p bate-sim --test golden_traces

# LP text round-trip property + one-byte mutation fuzzing.
run cargo test -q --offline -p bate-lp --test export_roundtrip

# Certificate-bearing golden corpora (budget-independent, pinned).
run cargo test -q --offline -p bate-lp --test golden
run cargo test -q --offline -p bate-core --test rowgen_golden
run cargo test -q --offline -p bate-core --test ba_invariant
run cargo test -q --offline -p bate-baselines --test golden

if [[ "$STATUS" -ne 0 ]]; then
    echo "FAIL: differential fuzzing gate exited with status $STATUS" >&2
    exit "$STATUS"
fi

echo "OK: differential campaign, round-trip fuzz, and certified goldens passed"
