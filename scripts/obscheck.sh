#!/usr/bin/env bash
# Telemetry determinism check: run the seeded obs_trace example twice (two
# separate processes, so the global registry starts from zero each time) and
# require the JSONL trace and the counter-only metrics snapshot to be
# byte-identical. Then sanity-check that the expected metric families and
# event names actually appeared — an empty-but-identical pair of files
# would otherwise pass.
#
# Usage: scripts/obscheck.sh [seed]
set -uo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-42}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
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

run cargo build --release --offline --example obs_trace || exit 1
BIN=target/release/examples/obs_trace

# The two extra outputs exercise the causal-tracing layer: the e2e
# admission slice and the forced cert-fallback flight dump. The binary itself validates tree well-formedness
# (flight::validate_tree) and required span names, and exits nonzero on
# violation — the diffs below add the cross-run determinism contract.
run "$BIN" "$OUT_DIR/trace1.jsonl" "$OUT_DIR/metrics1.jsonl" "$SEED" \
    "$OUT_DIR/e2e1.jsonl" "$OUT_DIR/flight1.jsonl" || exit 1
run "$BIN" "$OUT_DIR/trace2.jsonl" "$OUT_DIR/metrics2.jsonl" "$SEED" \
    "$OUT_DIR/e2e2.jsonl" "$OUT_DIR/flight2.jsonl" || exit 1

for pair in trace:jsonl metrics:jsonl e2e:jsonl flight:jsonl; do
    name="${pair%%:*}"
    ext="${pair##*:}"
    if diff -q "$OUT_DIR/${name}1.$ext" "$OUT_DIR/${name}2.$ext" >/dev/null; then
        echo "$name: byte-identical across runs (seed $SEED)"
    else
        echo "FAILED: $name differs between same-seed runs"
        diff "$OUT_DIR/${name}1.$ext" "$OUT_DIR/${name}2.$ext" | head -20
        STATUS=1
    fi
done

# Content sanity: the trace must contain the core event names and the
# snapshot must contain the solver/admission counter families.
for name in admission.verdict sched.round sim.round; do
    if ! grep -q "\"name\":\"$name\"" "$OUT_DIR/trace1.jsonl"; then
        echo "FAILED: trace missing event $name"
        STATUS=1
    fi
done
for family in bate_solver_ bate_admission_ bate_sched_ bate_warm_ bate_storm_; do
    if ! grep -q "\"metric\":\"$family" "$OUT_DIR/metrics1.jsonl"; then
        echo "FAILED: metrics snapshot missing family $family*"
        STATUS=1
    fi
done

# Causal artifacts: the e2e slice must link the whole flow under one
# trace id, and the flight dump must be the cert-fallback slice.
for name in client.submit admission.pipeline lp.solve broker.install; do
    if ! grep -q "\"name\":\"$name\"" "$OUT_DIR/e2e1.jsonl"; then
        echo "FAILED: e2e slice missing span $name"
        STATUS=1
    fi
done
E2E_TRACES=$(grep -o '"trace":"[0-9a-f]*"' "$OUT_DIR/e2e1.jsonl" | sort -u | wc -l)
if [ "$E2E_TRACES" -ne 1 ]; then
    echo "FAILED: e2e slice spans $E2E_TRACES trace ids (want exactly 1)"
    STATUS=1
fi
if ! head -1 "$OUT_DIR/flight1.jsonl" | grep -q '"flight":"cert_cold_fallback"'; then
    echo "FAILED: flight artifact is not the cert-fallback dump"
    STATUS=1
fi

# METRICS.md drift, both ways: every metric the deterministic harness
# exports must be documented in the inventory, and every family in the
# inventory's tables must be registered by a string literal in the code.
if [ -f METRICS.md ]; then
    MISSING=0
    for metric in $(grep -o '"metric":"[a-z_]*"' "$OUT_DIR/metrics1.jsonl" \
                    | sed 's/"metric":"\([a-z_]*\)"/\1/' | sort -u); do
        if ! grep -q "\`$metric\`" METRICS.md; then
            echo "FAILED: $metric exported but not documented in METRICS.md"
            MISSING=1
        fi
    done
    [ $MISSING -eq 0 ] && echo "METRICS.md: inventory covers the exported snapshot"
    STALE=0
    DOCUMENTED=$(grep -oE '^\| `bate_[a-z0-9_]+`' METRICS.md | tr -d '|` ' | sort -u)
    for family in $DOCUMENTED; do
        if ! grep -rqF "\"$family\"" crates/*/src; then
            echo "FAILED: $family documented in METRICS.md but registered nowhere under crates/*/src"
            STALE=1
        fi
    done
    [ $STALE -eq 0 ] && echo "METRICS.md: all $(echo "$DOCUMENTED" | wc -l) documented families are registered"
    STATUS=$((STATUS | MISSING | STALE))
else
    echo "FAILED: METRICS.md missing"
    STATUS=1
fi

if [ $STATUS -eq 0 ]; then
    echo "obscheck: OK"
else
    echo "obscheck: FAILED"
fi
exit $STATUS
