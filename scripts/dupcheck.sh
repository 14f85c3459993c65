#!/usr/bin/env bash
# Duplicate-path check: fails when a copy that DESIGN.md §5c says exists
# once has grown back. Greps only; runs in well under a second.
#
# Usage: scripts/dupcheck.sh
set -uo pipefail
cd "$(dirname "$0")/.."
STATUS=0
# check <what> <found> <allowed> [<required>, default 0]
check() {
    [ "$2" -le "$3" ] && [ "$2" -ge "${4:-0}" ] && return
    echo "FAILED: $1: found $2, allowed ${4:-0}..$3"
    STATUS=1
}
# Non-test code of a source file: everything before its first test module.
src() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

check "names of the install-basis warm start (one warm start: simplex/live.rs behind WarmState)" \
    "$(grep -rhoE 'install_basis|append_rows|set_warm|clear_warm|final_basis|install_pivots|cold_verifies' \
        crates/*/src crates/*/tests crates/*/benches | wc -l)" 0
check "branch-and-bound loops in milp.rs" \
    "$(grep -c 'while !stack.is_empty()' crates/lp/src/milp.rs)" 1 1
check "state-mask bit walks outside profile.rs and model.rs" \
    "$(find crates/core/src -name '*.rs' ! -name profile.rs ! -name model.rs \
        -exec grep -hE 'masks\[.*>> *[a-z]+ *& *1|trailing_zeros' {} + | wc -l)" 0
check "per-scenario loops in crates/core/src non-test code (relaxed_availability, which only tests call, keeps its walk; the others are bate_net::ScenarioSet::partition classes, DESIGN.md §5)" \
    "$(find crates/core/src -name '*.rs' | while read -r f; do src "$f"; done | tr -d ' \n' \
        | grep -oE 'scenarios\.iter\(\)|\.scenarios\.scenarios' | wc -l)" 1
check "public schedule* functions in scheduling.rs" \
    "$(grep -c '^pub fn schedule' crates/core/src/scheduling.rs)" 3
check "fields of ControllerConfig" \
    "$(awk '/^pub struct ControllerConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' \
        crates/system/src/controller.rs)" 5
# The all-zero-at-rest tableau (DESIGN.md §5b item 4): `Tableau::sweep` is
# the one routine that zeroes tableau cells in bulk; the one other source of
# zeros is `build` replacing a buffer that is too small.
SIMPLEX="$(src crates/lp/src/simplex.rs)"
check "matrix memsets or a layout special case in simplex.rs non-test code" \
    "$(echo "$SIMPLEX" | grep -cE 'self\.a\.(resize|clear|fill)\(|same_layout')" 0
check "sites that replace the matrix in simplex.rs non-test code (build, when the buffer must grow)" \
    "$(echo "$SIMPLEX" | grep -c 'self\.a = ')" 1 1
# No O(rows x cols) scan on the cold start path: the scan that prices
# phase 1 off the matrix is called once, by a live tableau's `resume`.
check "calls of the phase-1 matrix scan in lp non-test code" \
    "$(find crates/lp/src -name '*.rs' | while read -r f; do src "$f"; done | grep -c 'phase1_costs()')" 1 1
check "calls of the phase-1 matrix scan in simplex/live.rs" \
    "$(src crates/lp/src/simplex/live.rs | grep -c 'phase1_costs()')" 1 1
[ "$STATUS" -eq 0 ] && echo "dupcheck: ok"
exit "$STATUS"
