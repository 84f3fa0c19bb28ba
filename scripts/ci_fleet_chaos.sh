#!/usr/bin/env bash
# Chaos test for the bvfd fleet coordinator.
#
# Golden first: a serial `bvf_sim` campaign over the full 58-app suite
# writes the reference report. Then a 3-worker bvfd fleet runs the same
# campaign through bvf_fleet while this script SIGKILLs one worker
# mid-run and restarts it on the same port. The fleet must fail the
# dead worker over, keep every app exactly-once, and produce a report
# that is byte-for-byte identical (cmp) to the serial golden.
# A second leg runs a 2-app --ecc campaign through the same fleet and
# cmps it against `bvf_sim --ecc` on the same apps. A last leg SIGKILLs
# the coordinator itself once its journal holds one app, resumes the
# campaign with `bvf_fleet --resume`, and cmps the result against
# `bvf_sim` on the same apps.
#
# Usage: scripts/ci_fleet_chaos.sh [path/to/bvfd] [path/to/bvf_fleet] \
#                                  [path/to/bvf_sim]
# The work directory is printed on entry; CI uploads it on failure.

set -u

BVFD="${1:-build/examples/bvfd}"
FLEET="${2:-build/examples/bvf_fleet}"
SIM="${3:-build/examples/bvf_sim}"
WORK="$(mktemp -d /tmp/bvf-fleet-chaos.XXXXXX)"
echo "work directory: $WORK"

WORKER_PIDS=""
FLEET_PID=""

fail() {
    echo "FAIL: $*" >&2
    for pid in $WORKER_PIDS $FLEET_PID; do
        kill -9 "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    exit 1
}

[ -x "$BVFD" ] || fail "daemon '$BVFD' not found or not executable"
[ -x "$FLEET" ] || fail "coordinator '$FLEET' not found or not executable"
[ -x "$SIM" ] || fail "simulator '$SIM' not found or not executable"

echo "== serial golden: bvf_sim campaign over the full suite =="
"$SIM" --jobs 4 --report "$WORK/golden.txt" all \
    > "$WORK/serial.log" 2>&1 \
    || fail "serial campaign failed (see $WORK/serial.log)"
[ -s "$WORK/golden.txt" ] || fail "serial campaign wrote no report"

# scrape_port LOGFILE: the port bvfd announced, empty until it did.
scrape_port() {
    sed -n 's/^bvfd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$1"
}

# start_worker NAME PORT(0=ephemeral): sets WORKER_PID and WORKER_PORT.
# Runs in this shell (no subshell) so the pid survives for later kills.
start_worker() {
    local name="$1" port="$2" log="$WORK/worker-$1.log"
    "$BVFD" --port "$port" --workers 2 > "$log" 2>&1 &
    WORKER_PID=$!
    WORKER_PIDS="$WORKER_PIDS $WORKER_PID"
    WORKER_PORT=""
    for _ in $(seq 1 100); do
        WORKER_PORT="$(scrape_port "$log")"
        [ -n "$WORKER_PORT" ] && break
        kill -0 "$WORKER_PID" 2>/dev/null \
            || fail "worker $name died on startup (see $log)"
        sleep 0.1
    done
    [ -n "$WORKER_PORT" ] || fail "worker $name never announced its port"
}

echo "== start a 3-worker fleet on ephemeral ports =="
start_worker 0 0; PORT0="$WORKER_PORT"
start_worker 1 0; PORT1="$WORKER_PORT"
start_worker 2 0; PORT2="$WORKER_PORT"; WORKER2_PID="$WORKER_PID"
echo "workers on ports $PORT0 $PORT1 $PORT2"

echo "== launch the campaign across the fleet =="
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" \
    --heartbeat-ms 100 --deadline-ms 60000 --backoff-ms 50 \
    campaign all --journal "$WORK/campaign.bvfj" \
    --report "$WORK/fleet.txt" --jobs 4 \
    > "$WORK/fleet.log" 2>&1 &
FLEET_PID=$!

# Wait until the campaign is demonstrably underway (its journal
# exists), so the kill below lands mid-run, not before or after.
for _ in $(seq 1 300); do
    [ -f "$WORK/campaign.bvfj" ] && break
    kill -0 "$FLEET_PID" 2>/dev/null \
        || fail "bvf_fleet exited before journaling any app"
    sleep 0.1
done
[ -f "$WORK/campaign.bvfj" ] \
    || fail "no campaign journal appeared; cannot stage the chaos kill"

echo "== SIGKILL worker 2 mid-campaign =="
kill -9 "$WORKER2_PID" || fail "could not SIGKILL worker 2"
wait "$WORKER2_PID" 2>/dev/null

sleep 1
echo "== restart worker 2 on port $PORT2 =="
start_worker 2-restarted "$PORT2"
[ "$WORKER_PORT" = "$PORT2" ] \
    || fail "restarted worker bound $WORKER_PORT, wanted $PORT2"

echo "== wait for the campaign to finish =="
wait "$FLEET_PID"
STATUS=$?
FLEET_PID=""
cat "$WORK/fleet.log"
[ "$STATUS" -eq 0 ] \
    || fail "bvf_fleet exited with status $STATUS (see $WORK/fleet.log)"

echo "== the fleet report must be byte-identical to the golden =="
cmp "$WORK/golden.txt" "$WORK/fleet.txt" \
    || fail "fleet report differs from the serial golden"

echo "== exactly-once and failover accounting =="
grep -q "completed 58 quarantined 0" "$WORK/fleet.log" \
    || fail "campaign did not complete all 58 apps exactly-once"
FAILOVERS="$(sed -n 's/.*failovers \([0-9][0-9]*\).*/\1/p' "$WORK/fleet.log")"
[ -n "$FAILOVERS" ] || fail "no failover accounting in the fleet output"
[ "$FAILOVERS" -ge 1 ] \
    || fail "the SIGKILL produced no failovers; the kill missed the run"

echo "== --ecc leg: a 2-app fleet report equals bvf_sim --ecc =="
"$SIM" --ecc --report "$WORK/ecc-serial.txt" GAU HWL \
    > "$WORK/ecc-serial.log" 2>&1 \
    || fail "serial --ecc campaign failed (see $WORK/ecc-serial.log)"
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" --deadline-ms 60000 \
    campaign GAU HWL --ecc --journal "$WORK/ecc.bvfj" \
    --report "$WORK/ecc-fleet.txt" > "$WORK/ecc-fleet.log" 2>&1 \
    || fail "fleet --ecc campaign failed (see $WORK/ecc-fleet.log)"
cmp "$WORK/ecc-serial.txt" "$WORK/ecc-fleet.txt" \
    || fail "fleet --ecc report differs from bvf_sim --ecc"

echo "== coordinator leg: SIGKILL bvf_fleet, resume, cmp with bvf_sim =="
KILL_APPS=(BCK BFS BTR CFD GAU HWL)
"$SIM" --report "$WORK/kill-serial.txt" "${KILL_APPS[@]}" \
    > "$WORK/kill-serial.log" 2>&1 \
    || fail "serial campaign failed (see $WORK/kill-serial.log)"
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" --deadline-ms 60000 \
    campaign "${KILL_APPS[@]}" --jobs 1 --journal "$WORK/kill.bvfj" \
    --report "$WORK/kill-fleet.txt" > "$WORK/kill-fleet.log" 2>&1 &
FLEET_PID=$!
# Kill as soon as one app is journaled ("JREC" starts each record),
# as scripts/ci_kill_resume.sh does for bvf_sim.
for _ in $(seq 1 3000); do
    [ "$(grep -a -o JREC "$WORK/kill.bvfj" 2>/dev/null | wc -l)" -ge 1 ] \
        && break
    kill -0 "$FLEET_PID" 2>/dev/null || break
    sleep 0.01
done
kill -9 "$FLEET_PID" 2>/dev/null
wait "$FLEET_PID" 2>/dev/null
FLEET_PID=""
[ -f "$WORK/kill.bvfj" ] \
    || fail "no journal survived the coordinator kill"
[ ! -f "$WORK/kill-fleet.txt" ] \
    || fail "the killed coordinator wrote a report; it died too late to test resume"
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" --deadline-ms 60000 \
    campaign "${KILL_APPS[@]}" --jobs 1 --journal "$WORK/kill.bvfj" \
    --resume --report "$WORK/kill-fleet.txt" \
    > "$WORK/kill-resume.log" 2>&1 \
    || fail "bvf_fleet --resume failed (see $WORK/kill-resume.log)"
cat "$WORK/kill-resume.log"
cmp "$WORK/kill-serial.txt" "$WORK/kill-fleet.txt" \
    || fail "resumed fleet report differs from bvf_sim"
RESTORED="$(sed -n 's/.* restored \([0-9][0-9]*\) .*/\1/p' "$WORK/kill-resume.log")"
[ -n "$RESTORED" ] && [ "$RESTORED" -ge 1 ] \
    || fail "the resumed campaign restored no app from the journal"

for pid in $WORKER_PIDS; do
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
done
echo "PASS: fleet survived worker and coordinator SIGKILLs with bit-identical reports"
rm -rf "$WORK"
exit 0
