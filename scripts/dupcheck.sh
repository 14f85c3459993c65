#!/usr/bin/env bash
# Duplicate-path check: fails when a copy that DESIGN.md §5c says exists
# once has grown back. Greps only; runs in well under a second.
#
# Usage: scripts/dupcheck.sh
set -uo pipefail
cd "$(dirname "$0")/.."
STATUS=0
# check <what> <found> <allowed>
check() {
    [ "$2" -le "$3" ] && return
    echo "FAILED: $1: found $2, allowed $3"
    STATUS=1
}
# Non-test code of a source file: everything before its first test module.
src() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

check "call sites of Workspace::append_rows outside tests (the one cutting-plane loop)" \
    "$(for f in $(find crates/*/src -name '*.rs'); do src "$f"; done | grep -c '\.append_rows(')" 1
check "state-mask bit walks outside profile.rs and model.rs" \
    "$(find crates/core/src -name '*.rs' ! -name profile.rs ! -name model.rs \
        -exec grep -hE 'masks\[.*>> *[a-z]+ *& *1|trailing_zeros' {} + | wc -l)" 0
check "public schedule* functions in scheduling.rs" \
    "$(grep -c '^pub fn schedule' crates/core/src/scheduling.rs)" 3
check "fields of ControllerConfig" \
    "$(awk '/^pub struct ControllerConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' \
        crates/system/src/controller.rs)" 5
[ "$STATUS" -eq 0 ] && echo "dupcheck: ok"
exit "$STATUS"
