#!/usr/bin/env bash
# Benchmark contract check: the standalone benchmark crate (benchmark/,
# BENCHMARK.json) still builds against the workspace crates' public items,
# its own tests pass (quick runs of all four workloads, each of which exits
# non-zero when a declared expectation breaks, e.g. wan_cycle's 250 installs
# per step or burst_batched's one pool-wide push per wave; ~1.5 min), and
# neither benchmark/ nor BENCHMARK.json has been edited.
#
# Usage: scripts/benchcheck.sh
set -uo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR=.bench_build
STATUS=0

run() {
    echo "+ $*"
    "$@"
    local rc=$?
    if [ $rc -ne 0 ]; then
        echo "FAILED (exit $rc): $*"
        STATUS=1
    fi
    return $rc
}

run cargo build --release --offline --manifest-path benchmark/Cargo.toml || exit 1
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
EDITED="$(git status --porcelain -- benchmark BENCHMARK.json)"
if [ -n "$EDITED" ]; then
    echo "FAILED: benchmark/ or BENCHMARK.json differs from the committed tree:"
    echo "$EDITED"
    STATUS=1
fi
[ "$STATUS" -eq 0 ] && echo "benchcheck: ok"
exit "$STATUS"
