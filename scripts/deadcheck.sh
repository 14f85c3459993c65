#!/usr/bin/env bash
# No-caller check, two lists in one awk pass over the sources.
#
# 1. Public items without a caller. For each
#    `pub fn|struct|enum|trait|type|const|static|mod NAME` in the non-test
#    code of crates/*/src (everything before a file's first `#[cfg(test)]`,
#    as dupcheck's src() cuts it), NAME must occur as a whole word either in
#    another .rs file under crates/, benchmark/src, examples/, tests/ or
#    src/, or in its own file's non-test code outside the definition. A name
#    only its own file's tests use is dead.
# 2. Public items of a shipped crate that only tests call. For each such
#    item of crates/{lp,core,net,routing,obs,sim,baselines,system}/src, NAME
#    must occur as a whole word, outside the definition, in a real caller:
#    the non-test code of those eight crates, of crates/bench/src except
#    fuzz.rs (the figures), of benchmark/src, src/ or examples/. A comment or
#    doc-comment line is not a caller (a doctest is a test), and neither is
#    anything under tests/ or benches/, a `#[cfg(test)]` module,
#    crates/reference, crates/faultline or the fuzz generators.
#
# Act on a listed item: delete it (its tests use an API that exists),
# move it into its file's test module, move it to crates/reference (a
# format or a reference), or list it in scripts/deadcheck.allow with a
# reason — as `path name reason` for the first list, and as
# `tests-only path name reason` for the second (a test hook, an observer a
# harness reads, a formulation entry point the goldens or the fuzz campaign
# certify). An item on the first list is on the second too; its first-list
# entry covers both. An allow-list entry that names no item of its list (or
# has no reason) fails too, so the list cannot go stale.
#
# The scan is by name, not by resolution: a common name (`new`, `len`) is
# always live. It catches the helper that nothing calls, which is the kind
# of dead code that otherwise builds up unseen. Greps and one awk pass.
#
# Usage: scripts/deadcheck.sh
set -uo pipefail
cd "$(dirname "$0")/.."
ALLOW=scripts/deadcheck.allow

FILES="$(find crates benchmark/src examples tests src -name '*.rs' -not -path '*/target/*' | sort)"
# shellcheck disable=SC2086
LISTS="$(awk '
    FNR == 1 {
        cut = 0
        lib = (FILENAME ~ /^crates\/[^\/]+\/src\//)
        ship = (FILENAME ~ /^crates\/(lp|core|net|routing|obs|sim|baselines|system)\/src\//)
        real = ship || (FILENAME ~ /^crates\/bench\/src\// && FILENAME !~ /\/fuzz\.rs$/) \
            || FILENAME ~ /^(benchmark\/src|src|examples)\//
    }
    /#\[cfg\(test\)\]/ { cut = 1 }
    {
        line = $0
        def = ""
        if (lib && !cut && match(line, /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", def)
            defs[++n] = FILENAME " " def
        }
        caller = real && !cut && line !~ /^[ \t]*\/\//
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!((w, FILENAME) in seen)) { seen[w, FILENAME] = 1; nfiles[w]++ }
            if (lib && !cut && w != def) own[FILENAME, w]++
            if (caller && w != def) called[w]++
        }
    }
    END {
        for (i = 1; i <= n; i++) {
            if (defs[i] in done) continue
            done[defs[i]] = 1
            split(defs[i], d, " ")
            if (nfiles[d[2]] <= 1 && own[d[1], d[2]] == 0) print "dead " defs[i]
            else if (d[1] ~ /^crates\/(lp|core|net|routing|obs|sim|baselines|system)\// && !called[d[2]])
                print "tests-only " defs[i]
        }
    }
' $FILES | sort)"
DEAD="$(sed -n 's/^dead //p' <<<"$LISTS")"
TESTS_ONLY="$(sed -n 's/^tests-only //p' <<<"$LISTS")"

STATUS=0
ALLOWED="$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" 2>/dev/null || true)"
while read -r first rest; do
    [ -n "$first" ] || continue
    if [ "$first" = tests-only ]; then
        list="$TESTS_ONLY" what="a public item only tests call"
        read -r path name reason <<<"$rest"
    else
        list="$DEAD" what="a public item without a caller"
        path="$first"
        read -r name reason <<<"$rest"
    fi
    if [ -z "$reason" ]; then
        echo "FAILED: allow-list entry without a reason: $first $rest"
        STATUS=1
    elif ! grep -qxF "$path $name" <<<"$list"; then
        echo "FAILED: stale allow-list entry (not $what): $first $path $name"
        STATUS=1
    fi
done <<<"$ALLOWED"
while read -r path name; do
    [ -n "$path" ] || continue
    grep -qE "^[[:space:]]*$path[[:space:]]+$name[[:space:]]" <<<"$ALLOWED" && continue
    echo "FAILED: public item without a caller: $path $name"
    STATUS=1
done <<<"$DEAD"
while read -r path name; do
    [ -n "$path" ] || continue
    grep -qE "^[[:space:]]*tests-only[[:space:]]+$path[[:space:]]+$name[[:space:]]" <<<"$ALLOWED" && continue
    echo "FAILED: public item of a shipped crate that only tests call: $path $name"
    STATUS=1
done <<<"$TESTS_ONLY"
[ "$STATUS" -eq 0 ] && echo "deadcheck: ok"
exit "$STATUS"
