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
check "per-scenario loops in crates/core/src non-test code (the sweeps are bate_net::ScenarioSet::partition classes, DESIGN.md §5; the walks are in bate_reference::walk)" \
    "$(find crates/core/src -name '*.rs' | while read -r f; do src "$f"; done | tr -d ' \n' \
        | grep -oE 'scenarios\.iter\(\)|\.scenarios\.scenarios' | wc -l)" 0
check "public schedule* functions in scheduling.rs" \
    "$(grep -c '^pub fn schedule' crates/core/src/scheduling.rs)" 3
check "fields of ControllerConfig" \
    "$(awk '/^pub struct ControllerConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' \
        crates/system/src/controller.rs)" 5
check "fields of SimConfig (the simulator charges a fixed outage window; there is no timing knob)" \
    "$(awk '/^pub struct SimConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' \
        crates/sim/src/engine.rs)" 7
check "listener.accept() in crates/system/src non-test code (the controller's poll loop is the one server)" \
    "$(find crates/system/src -name '*.rs' | while read -r f; do src "$f"; done | grep -c 'listener\.accept()')" 1 1
# The all-zero-at-rest tableau (DESIGN.md §5b item 4): `Tableau::sweep` is
# the one routine that zeroes tableau cells in bulk; the one other source of
# zeros is `build` replacing a buffer that is too small. The cold kernel is
# simplex.rs and its child modules; live.rs grows a tableau it keeps.
KERNEL="$(for f in crates/lp/src/simplex.rs crates/lp/src/simplex/*.rs; do
    [ "$f" = crates/lp/src/simplex/live.rs ] || src "$f"; done)"
check "matrix memsets or a layout special case in the cold kernel's non-test code" \
    "$(echo "$KERNEL" | grep -cE 'self\.a\.(resize|clear|fill)\(|same_layout')" 0
check "sites that replace the matrix in the cold kernel's non-test code (build, when the buffer must grow)" \
    "$(echo "$KERNEL" | grep -c 'self\.a = ')" 1 1
LP_SRC="$(find crates/lp/src -name '*.rs' | while read -r f; do src "$f"; done)"
# No O(rows x cols) scan on the cold start path: the scan that prices
# phase 1 off the matrix is called once, by a live tableau's `resume`.
check "calls of the phase-1 matrix scan in lp non-test code" \
    "$(echo "$LP_SRC" | grep -c 'phase1_costs()')" 1 1
check "calls of the phase-1 matrix scan in simplex/live.rs" \
    "$(src crates/lp/src/simplex/live.rs | grep -c 'phase1_costs()')" 1 1
# One float simplex, in files a newcomer can read (DESIGN.md §5b).
check "names of the retired dense kernel under crates/" \
    "$(grep -rhoE 'dense_reference|solve_relaxation_dense' crates | wc -l)" 0
check "lines of the longest file under crates/lp/src" \
    "$(find crates/lp/src -name '*.rs' -exec wc -l {} + | grep -v ' total$' | sort -n | tail -1 | awk '{ print $1 }')" 900
check "wall-clock deadlines in crates/lp/src non-test code (ROADMAP item 2 takes the last one out)" \
    "$(echo "$LP_SRC" | grep -c 'Instant::now() + ')" 1
# Offline shims (compat/README.md). The benchmark resolves its dependency
# graph through its own [patch.crates-io]; if a path there has no
# Cargo.toml, the benchmark cannot resolve its dependencies and cannot run.
check "benchmark/Cargo.toml [patch.crates-io] paths without a Cargo.toml" \
    "$(awk '/^\[/ { on = ($0 == "[patch.crates-io]") } on && /path *=/' benchmark/Cargo.toml \
        | sed -E 's/.*path *= *"([^"]*)".*/\1/' \
        | while read -r p; do [ -f "benchmark/$p/Cargo.toml" ] || echo "$p"; done | wc -l)" 0
check "criterion in a Cargo.toml outside comments (the criterion benches and their shim are gone)" \
    "$(find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*' \
        -exec grep -hv '^[[:space:]]*#' {} + | grep -c criterion)" 0
check "[[bench]] targets of crates/bench (lp, the one scripts/bench.sh gates)" \
    "$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)" 1 1
# The references (exact oracle, scenario walks, Monte-Carlo) stay out of
# what the controller and the benchmark link: those crates name
# bate-reference only as a dev-dependency, so benchmark/Cargo.lock never
# sees it, and the `bate` facade neither depends on it nor re-exports it.
check "bate-reference outside [dev-dependencies] of lp, core, net, routing, obs, sim, baselines, system and the facade" \
    "$(for f in crates/{lp,core,net,routing,obs,sim,baselines,system}/Cargo.toml Cargo.toml; do
        awk '/^\[/ { sec = $0 } /^bate-reference/ && sec != "[dev-dependencies]" && sec != "[workspace.dependencies]"' "$f"
    done | wc -l)" 0
check "bate_reference in the facade's src/" "$(grep -rc 'bate_reference' src | awk -F: '{ n += $2 } END { print n + 0 }')" 0
check "names of the LP text format in the non-test code of lp, core, net, routing, obs, sim, baselines, system and src/ (it is bate_reference::lp_text)" \
    "$(find crates/{lp,core,net,routing,obs,sim,baselines,system}/src src -name '*.rs' | while read -r f; do src "$f"; done \
        | grep -oE 'to_lp_format|from_lp_format|LpParseError' | wc -l)" 0
# One admission path in the controller (DESIGN.md §6y): a batch of one is
# the n = 1 case of the batch steps, the serving state decides and returns
# what to install, and only the poll loop touches a connection.
SYSTEM_SRC="$(find crates/system/src -name '*.rs' | while read -r f; do src "$f"; done)"
check "defer_push or too_many_arguments in crates/system/src non-test code (one submit path)" \
    "$(echo "$SYSTEM_SRC" | grep -oE 'defer_push|too_many_arguments' | wc -l)" 0
check "HashMap<u64, Conn> in controller.rs non-test code (the poll loop's field; no other function takes the connection map)" \
    "$(src crates/system/src/controller.rs | grep -c 'HashMap<u64, Conn>')" 1 1
check "Mutex<SessionStats> in crates/system/src (the session is read under the state lock)" \
    "$(grep -rho 'Mutex<SessionStats>' crates/system/src | wc -l)" 0
check "DemandProfile under crates/ (MaskedProfile is the one collapsed-state type)" \
    "$(grep -rho 'DemandProfile' crates | wc -l)" 0
# One hardening scan (DESIGN.md §6y): `harden` is the session's memoised
# pass on an empty memo, and there is no second scan beside it.
check "fn harden, fn harden_* and empty-memo Hardener runs in crates/core/src non-test code (one fn harden, which is the one Hardener::default().run)" \
    "$(find crates/core/src -name '*.rs' | while read -r f; do src "$f"; done \
        | grep -oE 'fn harden(_[a-z0-9_]+)?\(|Hardener::default\(\)\.run\(' | wc -l)" 2 2
check "yield_now in crates/system/src non-test code (the hand-off before a batch's warm solve in CtrlState::settle)" \
    "$(echo "$SYSTEM_SRC" | grep -o 'yield_now' | wc -l)" 1 1
[ "$STATUS" -eq 0 ] && echo "dupcheck: ok"
exit "$STATUS"
