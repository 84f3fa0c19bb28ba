#!/usr/bin/env bash
# Kernel-admission gate for CI.
#
# Exercises the untrusted-kernel pipeline end to end against a live
# daemon:
#
#   1. every suite kernel is dumped to assembly, round-tripped through
#      text -> Program -> BVFK bytecode -> text, and the bytecode
#      assembled from the dump must be bit-identical to the bytecode
#      encoded straight from the builder;
#   2. every kernel's bytecode is submitted to bvfd with `bvf_client
#      submit`; all 58 must come back admitted (the static verifier
#      must prove termination and memory bounds for the whole suite),
#      and /metrics must then count exactly one abstract-interpreter
#      fixpoint per submission (bvfd_kernels_analysis_steps_total);
#   3. for a sample of kernels the admitted copy is simulated with
#      `--eval` -- under the runtime admission contract -- and its
#      per-scenario chip energy must match the compiled-in path
#      (`bvf_client energy`) line for line;
#   4. a crafted non-terminating kernel must be rejected with a
#      budget-exceeded finding, and a rejected kernel must never gain
#      an eval digest.
#
# Usage: scripts/ci_kernel_admission.sh [bvfd] [bvf_client] [bvf_asm]

set -u

BVFD="${1:-build/examples/bvfd}"
CLIENT="${2:-build/examples/bvf_client}"
ASM="${3:-build/examples/bvf_asm}"
WORK="$(mktemp -d /tmp/bvf-kernel-admission.XXXXXX)"
SOCK="$WORK/bvfd.sock"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
    [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

for bin in "$BVFD" "$CLIENT" "$ASM"; do
    [ -x "$bin" ] || fail "binary '$bin' not found or not executable"
done

"$BVFD" --unix "$SOCK" --host "" --workers 4 --log-level warn \
    > "$WORK/bvfd.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup:
$(cat "$WORK/bvfd.log")"
    sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon socket never appeared"

APPS="$("$ASM" list)" || fail "bvf_asm list failed"
COUNT=0

# Apps whose submitted-path energy is diffed against the compiled-in
# path (every app would double the job's simulation time).
EVAL_SAMPLE="BCK BFS KMN TRI GES HSP MRQ GEM"

for APP in $APPS; do
    "$ASM" dump "$APP" -o "$WORK/$APP.s" \
        || fail "$APP: dump failed"
    "$ASM" roundtrip "$WORK/$APP.s" > /dev/null \
        || fail "$APP: assembly round trip failed"
    "$ASM" encode "$APP" -o "$WORK/$APP.bvfk" \
        || fail "$APP: encode failed"
    "$ASM" asm "$WORK/$APP.s" -o "$WORK/$APP.fromasm.bvfk" \
        || fail "$APP: assembling the dump failed"
    cmp -s "$WORK/$APP.bvfk" "$WORK/$APP.fromasm.bvfk" \
        || fail "$APP: dumped assembly does not reassemble to the same
bytecode"

    "$CLIENT" --unix "$SOCK" submit "$WORK/$APP.bvfk" \
        > "$WORK/$APP.submit" 2>&1 \
        || fail "$APP: submit failed:
$(cat "$WORK/$APP.submit")"
    grep -q '^admitted ' "$WORK/$APP.submit" \
        || fail "$APP: not admitted:
$(cat "$WORK/$APP.submit")"
    COUNT=$((COUNT + 1))
done
[ "$COUNT" -eq 58 ] || fail "expected 58 admitted kernels, got $COUNT"
echo "PASS: all $COUNT suite kernels admitted and round-trip exactly"

# Exactly one abstract-interpreter fixpoint per submission: the steps
# counter must equal one analyzeProgram pass over the suite (the figure
# tests/analysis_pins.hh pins).
SUITE_ANALYSIS_STEPS=1188980
"$CLIENT" --unix "$SOCK" metrics > "$WORK/metrics.submit" 2>&1 \
    || fail "metrics scrape after the submit loop failed"
grep -q "^bvfd_kernels_analysis_steps_total $SUITE_ANALYSIS_STEPS\$" \
    "$WORK/metrics.submit" \
    || fail "analysis steps after 58 submissions are not one fixpoint each
(expected $SUITE_ANALYSIS_STEPS):
$(grep '^bvfd_kernels_analysis_steps_total' "$WORK/metrics.submit")"
echo "PASS: 58 submissions ran $SUITE_ANALYSIS_STEPS fixpoint steps, one
analysis each"

for APP in $EVAL_SAMPLE; do
    "$CLIENT" --unix "$SOCK" submit "$WORK/$APP.bvfk" --eval \
        > "$WORK/$APP.eval" 2>&1 \
        || fail "$APP: submit --eval failed:
$(cat "$WORK/$APP.eval")"
    "$CLIENT" --unix "$SOCK" energy "$APP" > "$WORK/$APP.energy" 2>&1 \
        || fail "$APP: compiled-in energy failed:
$(cat "$WORK/$APP.energy")"
    # Both outputs end with the identical five-scenario energy table;
    # the submitted path must price exactly what the compiled-in path
    # prices (same program, same accounting, same model).
    grep ' chip ' "$WORK/$APP.eval" > "$WORK/$APP.eval.table"
    grep ' chip ' "$WORK/$APP.energy" > "$WORK/$APP.energy.table"
    cmp -s "$WORK/$APP.eval.table" "$WORK/$APP.energy.table" \
        || fail "$APP: submitted-path energy diverged from compiled-in
path:
$(diff "$WORK/$APP.eval.table" "$WORK/$APP.energy.table")"
done
echo "PASS: submitted-path energy matches the compiled-in path for:
$EVAL_SAMPLE"

# A kernel that provably never terminates: unconditional self-loop.
cat > "$WORK/nonterm.s" <<'EOF'
.kernel nonterminating
.launch 1 32
L0:
    BRA L0, join=L1
L1:
    EXIT
EOF
"$ASM" asm "$WORK/nonterm.s" -o "$WORK/nonterm.bvfk" \
    || fail "non-terminating kernel did not assemble"
"$CLIENT" --unix "$SOCK" submit "$WORK/nonterm.bvfk" \
    > "$WORK/nonterm.out" 2>&1
STATUS=$?
[ "$STATUS" -eq 1 ] || fail "non-terminating kernel: expected submit
exit 1, got $STATUS:
$(cat "$WORK/nonterm.out")"
grep -q 'budget-exceeded' "$WORK/nonterm.out" \
    || fail "non-terminating kernel not rejected as budget-exceeded:
$(cat "$WORK/nonterm.out")"
grep -q '^admitted ' "$WORK/nonterm.out" \
    && fail "non-terminating kernel gained a digest"
echo "PASS: non-terminating kernel rejected (budget-exceeded) before
any SM cycle"

"$CLIENT" --unix "$SOCK" metrics > "$WORK/metrics.out" 2>&1 \
    || fail "metrics scrape failed"
# Resubmissions (the --eval pass) count as admissions again, so the
# counter is 58 + sample; the resident gauge is the dedup'd truth.
grep -q '^bvfd_kernels_resident 58' "$WORK/metrics.out" \
    || fail "resident-kernel gauge mismatch:
$(grep '^bvfd_kernels' "$WORK/metrics.out")"
grep -q 'bvfd_kernels_rejected_total{reason="budget-exceeded"} 1' \
    "$WORK/metrics.out" \
    || fail "budget-exceeded rejection not counted:
$(grep '^bvfd_kernels' "$WORK/metrics.out")"
echo "PASS: /metrics admission counters consistent"
exit 0
