#!/usr/bin/env bash
# No-caller check: fails when a public item of a library crate has no
# caller. For each `pub fn|struct|enum|trait|type|const|static|mod NAME` in
# the non-test code of crates/*/src (everything before a file's first
# `#[cfg(test)]`, as dupcheck's src() cuts it), NAME must occur as a whole
# word either in another .rs file under crates/, benchmark/src, examples/,
# tests/ or src/, or in its own file's non-test code outside the
# definition. A name only its own file's tests use is dead: delete it, move
# it into that test module, or list it in scripts/deadcheck.allow as
# `path name reason`. An allow-list entry that no longer names a dead item
# (or has no reason) fails too, so the list cannot go stale.
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
DEAD="$(awk '
    FNR == 1 { cut = 0; lib = (FILENAME ~ /^crates\/[^\/]+\/src\//) }
    lib && /#\[cfg\(test\)\]/ { cut = 1 }
    {
        line = $0
        def = ""
        if (lib && !cut && match(line, /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", def)
            defs[++n] = FILENAME " " def
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!((w, FILENAME) in seen)) { seen[w, FILENAME] = 1; nfiles[w]++ }
            if (lib && !cut && w != def) own[FILENAME, w]++
        }
    }
    END {
        for (i = 1; i <= n; i++) {
            split(defs[i], d, " ")
            if (nfiles[d[2]] > 1 || own[d[1], d[2]] > 0 || (defs[i] in done)) continue
            done[defs[i]] = 1
            print defs[i]
        }
    }
' $FILES | sort)"

STATUS=0
ALLOWED="$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" 2>/dev/null || true)"
while read -r path name reason; do
    [ -n "$path" ] || continue
    if [ -z "$reason" ]; then
        echo "FAILED: allow-list entry without a reason: $path $name"
        STATUS=1
    elif ! grep -qxF "$path $name" <<<"$DEAD"; then
        echo "FAILED: stale allow-list entry (not a public item without a caller): $path $name"
        STATUS=1
    fi
done <<<"$ALLOWED"
while read -r path name; do
    [ -n "$path" ] || continue
    grep -qE "^[[:space:]]*$path[[:space:]]+$name[[:space:]]" <<<"$ALLOWED" && continue
    echo "FAILED: public item without a caller: $path $name"
    STATUS=1
done <<<"$DEAD"
[ "$STATUS" -eq 0 ] && echo "deadcheck: ok"
exit "$STATUS"
