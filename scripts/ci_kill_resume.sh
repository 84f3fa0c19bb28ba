#!/usr/bin/env bash
# Crash-recovery acceptance check for the campaign runner.
#
# Runs a reference campaign to completion, then starts the identical
# campaign again, SIGKILLs it mid-run, resumes it from the journal, and
# asserts that the resumed report is byte-identical to the reference.
# Also exercises the golden check: the reference report, given to
# --golden, must accept the resumed campaign, and a copy with one hex
# digit flipped must fail it with exit status 1, naming the app and the
# column that drifted.
#
# Usage: scripts/ci_kill_resume.sh [path/to/bvf_sim]
# The work directory is printed on entry; CI uploads it on failure.

set -u

BVF_SIM="${1:-build/examples/bvf_sim}"
APPS=(BCK BFS BTR CFD GAU HWL)
WORK="$(mktemp -d /tmp/bvf-kill-resume.XXXXXX)"
echo "work directory: $WORK"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

[ -x "$BVF_SIM" ] || fail "simulator '$BVF_SIM' not found or not executable"

echo "== reference campaign (uninterrupted) =="
"$BVF_SIM" --journal "$WORK/ref.journal" --report "$WORK/ref.report" \
    "${APPS[@]}" || fail "reference campaign exited nonzero"

echo "== interrupted campaign: SIGKILL mid-run =="
"$BVF_SIM" --journal "$WORK/int.journal" --report "$WORK/int.report" \
    "${APPS[@]}" &
PID=$!
# Kill as soon as one app is journaled ("JREC" starts each record):
# far short of all six on any host. A fixed sleep outlived the whole
# campaign on a fast host (six apps take about 0.5 s on 4 cores).
for _ in $(seq 1 3000); do
    [ "$(grep -a -o JREC "$WORK/int.journal" 2>/dev/null | wc -l)" -ge 1 ] \
        && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.01
done
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
[ -f "$WORK/int.journal" ] \
    || fail "no journal survived the kill; nothing was persisted"
[ ! -f "$WORK/int.report" ] \
    || fail "interrupted campaign wrote a report; it died too late to test resume"

echo "== resume from the journal =="
"$BVF_SIM" --journal "$WORK/int.journal" --resume \
    --report "$WORK/int.report" "${APPS[@]}" \
    || fail "resumed campaign exited nonzero"

cmp "$WORK/ref.report" "$WORK/int.report" \
    || fail "resumed report differs from the uninterrupted reference"
echo "resumed report is byte-identical to the reference"

echo "== golden report: the reference report checks the resumed campaign =="
"$BVF_SIM" --journal "$WORK/int.journal" --resume \
    --golden "$WORK/ref.report" "${APPS[@]}" >/dev/null \
    || fail "--golden rejected the resumed campaign"
echo "golden check clean on the resumed campaign"

echo "== golden report: a perturbed value must be caught =="
# Flip one hex digit of the first hexfloat of the first app line, the
# chip:Baseline energy of ${APPS[0]}.
awk '!done && /^app / {
         i = index($0, " 0x1.")
         if (i) {
             d = substr($0, i + 5, 1)
             $0 = substr($0, 1, i + 4) (d == "0" ? "1" : "0") substr($0, i + 6)
             done = 1
         }
     }
     { print }
     END { exit done ? 0 : 1 }' "$WORK/ref.report" > "$WORK/perturbed.report" \
    || fail "could not perturb the reference report"
cmp -s "$WORK/ref.report" "$WORK/perturbed.report" \
    && fail "perturbation did not change the report"
"$BVF_SIM" --journal "$WORK/int.journal" --resume \
    --golden "$WORK/perturbed.report" "${APPS[@]}" \
    >/dev/null 2>"$WORK/perturbed.err"
status=$?
[ "$status" -eq 1 ] \
    || fail "--golden exited $status on a perturbed report, expected 1"
grep -q "golden drift: ${APPS[0]} chip:Baseline expected" "$WORK/perturbed.err" \
    || fail "the drift report does not name ${APPS[0]} chip:Baseline: $(cat "$WORK/perturbed.err")"
echo "golden check rejected the perturbed report: $(head -n 1 "$WORK/perturbed.err")"

rm -rf "$WORK"
echo "PASS: kill -9 / resume / golden checks all green"
