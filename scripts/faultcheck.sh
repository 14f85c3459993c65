#!/usr/bin/env bash
# Fault-injection gate: the seeded faultline suite plus the full workspace
# tests, with a panic leak detector.
#
# Usage: scripts/faultcheck.sh [--fast]
#
# `cargo test` already fails on assertion failures, but a panic in a
# *detached* thread (a controller connection loop, a broker reader, a
# proxy pump) does not fail the owning test — it leaks a "thread ...
# panicked" line to stderr while the suite stays green. This script fails
# on any such leak: the control plane must degrade with typed errors, not
# panics, no matter what the fault proxy injects.
#
# --fast runs only the faultline suite (seconds); the default also runs
# the full workspace tests.
set -uo pipefail
cd "$(dirname "$0")/.."

STDERR_LOG="$(mktemp)"
trap 'rm -f "$STDERR_LOG"' EXIT

run() {
    echo "== $* =="
    # Tee stderr so panics are both visible and inspectable afterwards.
    "$@" 2> >(tee -a "$STDERR_LOG" >&2)
}

STATUS=0

run cargo test -q --offline -p faultline || STATUS=$?

# Flake detector: the e2e suite is condvar/poll-until driven (no blind
# sleeps), so three serialized back-to-back runs must all pass. A test
# that only passes when the scheduler cooperates fails here long before
# it starts flaking in CI.
for i in 1 2 3; do
    echo "== e2e flake detector: run $i/3 (--test-threads=1) =="
    run cargo test -q --offline -p bate-system --test end_to_end -- --test-threads=1 \
        || { STATUS=$?; break; }
done

# The batched-admission suite reads verdicts on one socket and installs
# or session counters on another, so it is where an ordering race
# between sockets shows first. Three back-to-back runs under default
# parallelism: no --test-threads=1.
for i in 1 2 3; do
    echo "== batched admission flake detector: run $i/3 =="
    run cargo test -q --offline -p bate-system --test batched_admission \
        || { STATUS=$?; break; }
done

if [[ "${1:-}" != "--fast" ]]; then
    run cargo test -q --offline --workspace || STATUS=$?
fi

if grep -E "panicked at|stack backtrace" "$STDERR_LOG" >/dev/null; then
    echo "FAIL: panics leaked to stderr (a detached thread died):" >&2
    grep -E "panicked at" "$STDERR_LOG" | sort -u >&2
    exit 1
fi

if [[ "$STATUS" -ne 0 ]]; then
    echo "FAIL: test suite exited with status $STATUS" >&2
    exit "$STATUS"
fi

echo "OK: all fault-injection and workspace tests passed, no panic leaks"
