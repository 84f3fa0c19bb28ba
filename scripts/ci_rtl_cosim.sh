#!/usr/bin/env bash
# RTL co-simulation gate for the netlist subsystem.
#
# Four checks, any failure is fatal:
#  1. Emission: every canonical netlist (NV, both VS pivots, the four
#     paper ISA masks plus every suite-specialized mask, SECDED
#     encoder/decoder) is written to disk; the emitter round-trip
#     (emit -> parse -> re-emit byte-identical) runs as part of `emit`,
#     so this is also the syntax check for the .v files.
#  2. Co-simulation: the full 58-application suite is replayed through
#     the CosimSink (every word the machine touches goes through both
#     the netlist and the C++ coder) plus 10k seeded random vectors per
#     generator, SECDED fault injection included. Any bit mismatch
#     exits nonzero.
#  3. Trace round trip: `bvf_sim --trace` records NQU's access stream
#     (the tap the run pipeline hands the machine's raw events to) and
#     `bvf_rtl cosim --trace` replays it through the netlists; the
#     replay must see records and zero mismatches.
#  4. Gate-count drift: `stats --json` must match the checked-in
#     baseline exactly. A generator change that shifts a gate count
#     must update scripts/rtl_gate_baseline.json in the same commit.
#
# Usage: scripts/ci_rtl_cosim.sh [path/to/bvf_rtl] [baseline.json]
#                                [path/to/bvf_sim]

set -u

RTL="${1:-build/examples/bvf_rtl}"
BASELINE="${2:-scripts/rtl_gate_baseline.json}"
SIM="${3:-build/examples/bvf_sim}"
WORK="$(mktemp -d /tmp/bvf-rtl-cosim.XXXXXX)"
echo "work directory: $WORK"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

[ -x "$RTL" ] || fail "bvf_rtl '$RTL' not found or not executable"
[ -f "$BASELINE" ] || fail "baseline '$BASELINE' missing"
[ -x "$SIM" ] || fail "bvf_sim '$SIM' not found or not executable"

echo "== emit every canonical netlist (round-trip checked) =="
"$RTL" emit -o "$WORK/rtl" --suite-masks > "$WORK/emit.log" 2>&1 \
    || { cat "$WORK/emit.log"; fail "netlist emission failed"; }
cat "$WORK/emit.log"
V_COUNT="$(ls "$WORK"/rtl/*.v 2>/dev/null | wc -l)"
# NV + 2 VS + SECDED enc/dec + 4 paper masks = 9 floor; suite masks
# dedupe on top of the paper masks.
[ "$V_COUNT" -ge 9 ] || fail "only $V_COUNT .v files emitted (want >= 9)"

echo "== co-simulate the full suite + 10k random vectors =="
"$RTL" cosim --vectors 10000 --seed 1 > "$WORK/cosim.log" 2>&1 \
    || { tail -20 "$WORK/cosim.log"; fail "co-simulation mismatch"; }
tail -3 "$WORK/cosim.log"

echo "== trace round trip: bvf_sim --trace, then bvf_rtl cosim --trace =="
"$SIM" --trace "$WORK/nqu.bvft" NQU > "$WORK/sim.log" 2>&1 \
    || { cat "$WORK/sim.log"; fail "bvf_sim --trace failed"; }
"$RTL" cosim --trace "$WORK/nqu.bvft" > "$WORK/trace-cosim.log" 2>&1 \
    || { tail -20 "$WORK/trace-cosim.log"
         fail "trace co-simulation mismatch"; }
cat "$WORK/trace-cosim.log"
RECORDS="$(sed -n 's|^.*/nqu.bvft: \([0-9]*\) records.*$|\1|p' \
    "$WORK/trace-cosim.log")"
[ "${RECORDS:-0}" -gt 0 ] || fail "the trace replay delivered no records"
grep -q '^cosim total: [0-9]* checks, 0 mismatches$' \
    "$WORK/trace-cosim.log" || fail "trace co-simulation reported mismatches"

echo "== gate-count drift vs checked-in baseline =="
"$RTL" stats --json > "$WORK/stats.json" 2>&1 \
    || { cat "$WORK/stats.json"; fail "stats failed"; }
if ! diff -u "$BASELINE" "$WORK/stats.json"; then
    fail "gate counts drifted from $BASELINE (update the baseline if \
the generator change is intentional)"
fi

echo "PASS: emission, co-simulation, trace round trip and gate-count \
baseline all green"
rm -rf "$WORK"
