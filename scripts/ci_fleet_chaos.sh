#!/usr/bin/env bash
# Chaos test for the bvfd fleet coordinator.
#
# Golden first: a serial `bvf_sim` campaign over the full 58-app suite
# writes the reference report. Then a 3-worker bvfd fleet runs the same
# campaign through bvf_fleet while this script SIGKILLs one worker
# mid-run and restarts it on the same port. The fleet must fail the
# dead worker over, keep every app exactly-once, and produce a merged
# report that is byte-for-byte identical (cmp) to the serial golden.
# A last leg runs a 2-app --ecc campaign through the same fleet and
# cmps it against `bvf_sim --ecc` on the same apps.
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

echo "== launch the sharded campaign =="
mkdir -p "$WORK/shards"
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" \
    --heartbeat-ms 100 --deadline-ms 60000 --backoff-ms 50 \
    campaign all --journal-dir "$WORK/shards" \
    --report "$WORK/merged.txt" --jobs 4 \
    > "$WORK/fleet.log" 2>&1 &
FLEET_PID=$!

# Wait until the campaign is demonstrably underway (a shard journal
# exists), so the kill below lands mid-run, not before or after.
for _ in $(seq 1 300); do
    ls "$WORK/shards"/*.bvfj >/dev/null 2>&1 && break
    kill -0 "$FLEET_PID" 2>/dev/null \
        || fail "bvf_fleet exited before writing any shard"
    sleep 0.1
done
ls "$WORK/shards"/*.bvfj >/dev/null 2>&1 \
    || fail "no shard journal appeared; cannot stage the chaos kill"

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

echo "== the merged report must be byte-identical to the golden =="
cmp "$WORK/golden.txt" "$WORK/merged.txt" \
    || fail "merged report differs from the serial golden"

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
mkdir -p "$WORK/ecc-shards"
"$FLEET" --worker "127.0.0.1:$PORT0" --worker "127.0.0.1:$PORT1" \
    --worker "127.0.0.1:$PORT2" --deadline-ms 60000 \
    campaign GAU HWL --ecc --journal-dir "$WORK/ecc-shards" \
    --report "$WORK/ecc-fleet.txt" > "$WORK/ecc-fleet.log" 2>&1 \
    || fail "fleet --ecc campaign failed (see $WORK/ecc-fleet.log)"
cmp "$WORK/ecc-serial.txt" "$WORK/ecc-fleet.txt" \
    || fail "fleet --ecc report differs from bvf_sim --ecc"

for pid in $WORKER_PIDS; do
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
done
echo "PASS: fleet survived a SIGKILL+restart with a bit-identical report"
rm -rf "$WORK"
exit 0
