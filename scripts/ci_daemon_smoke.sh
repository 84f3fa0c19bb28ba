#!/usr/bin/env bash
# Daemon smoke test for bvfd + bvf_client.
#
# Starts bvfd on an ephemeral port, scrapes the bound port from its
# stdout announcement, drives every request type through bvf_client
# (pipelined pings, coder evaluation, static predictor, static coder
# advice, chip energy, bit density, kernel submission with evaluation,
# and an evaluation the daemon refuses), checks that /metrics exports
# every message-table label for requests, responses and request errors
# and counted all of it, checks that a repeated advise adds nothing to
# bvfd_static_analysis_steps_total (static advice is memoized per
# process), then starts bvf_fleet serve in front of the
# daemon (its worker named by host name) and checks that ping, energy
# and advise answered through the fleet print exactly what bvfd
# answered directly. Last it sends SIGTERM and asserts a clean drain:
# exit status 0, the drained log line, and the exiting banner.
#
# Usage: scripts/ci_daemon_smoke.sh [path/to/bvfd] [path/to/bvf_client]
#        [path/to/bvf_fleet]
# The work directory is printed on entry; CI uploads it on failure.

set -u

BVFD="${1:-build/examples/bvfd}"
CLIENT="${2:-build/examples/bvf_client}"
FLEET="${3:-build/examples/bvf_fleet}"
WORK="$(mktemp -d /tmp/bvf-daemon-smoke.XXXXXX)"
echo "work directory: $WORK"

DAEMON_PID=""
FLEET_PID=""

fail() {
    echo "FAIL: $*" >&2
    for pid in $FLEET_PID $DAEMON_PID; do
        kill -9 "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    exit 1
}

[ -x "$BVFD" ] || fail "daemon '$BVFD' not found or not executable"
[ -x "$CLIENT" ] || fail "client '$CLIENT' not found or not executable"
[ -x "$FLEET" ] || fail "fleet '$FLEET' not found or not executable"

echo "== start bvfd on an ephemeral port =="
# Started directly (no subshell wrapper) so $! is the daemon itself and
# SIGTERM reaches the process with the signal handler installed.
# --log-level info: the drain confirmation this test asserts on is an
# info-level line.
"$BVFD" --port 0 --workers 2 --log-level info > "$WORK/bvfd.log" 2>&1 &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^bvfd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
        "$WORK/bvfd.log")"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "bvfd died during startup"
    sleep 0.1
done
[ -n "$PORT" ] || fail "bvfd never announced its port"
echo "bvfd pid $DAEMON_PID on port $PORT"

client() {
    "$CLIENT" --port "$PORT" "$@" \
        || fail "bvf_client $* exited nonzero"
}

echo "== one request of every type =="
client ping 8 > "$WORK/ping.out"
grep -q "8 ping(s) echoed in order" "$WORK/ping.out" \
    || fail "pipelined pings did not come back in order"
client eval-coder nv deadbeefcafef00d 0011223344556677 \
    > "$WORK/eval.out"
grep -q "^coder nv:" "$WORK/eval.out" || fail "eval-coder gave no result"
client static KMN > "$WORK/static.out"
client advise KMN > "$WORK/advise.out"
grep -q "VS register pivot" "$WORK/advise.out" \
    || fail "advise gave no pivot ranking"
client density BFS > "$WORK/density.out"
client energy KMN > "$WORK/energy.out"
# A one-warp kernel in assembly (bvf_client assembles it), admitted and
# then evaluated by its digest.
cat > "$WORK/smoke.s" <<'KERNEL'
.kernel smoke
.launch 1 32
.global 64
    S2R R1, SR_TIDX
    MOV R2, #1
    IADD R3, R1, R2
    EXIT
KERNEL
client submit "$WORK/smoke.s" --eval > "$WORK/submit.out"
grep -q "^admitted " "$WORK/submit.out" || fail "submit was not admitted"
# A digest nothing was stored under: the daemon answers ErrorResponse
# and the client exits nonzero.
if "$CLIENT" --port "$PORT" eval k00000000-0 > "$WORK/refused.out" 2>&1
then
    fail "evaluating an unknown digest succeeded"
fi

echo "== scrape /metrics =="
client metrics > "$WORK/metrics.out"
check_metric() {
    grep -q "^$1\$" "$WORK/metrics.out" \
        || fail "metrics missing '$1' (see $WORK/metrics.out)"
}
# Every row of the message table, for every per-type family: a dropped
# or renamed row fails here.
for family in requests responses request_errors; do
    for label in ping eval_coder bit_density chip_energy static_query \
        static_advice submit_kernel eval_submitted error; do
        grep -q "^bvfd_${family}_total{type=\"$label\"} [0-9][0-9]*\$" \
            "$WORK/metrics.out" \
            || fail "metrics missing bvfd_${family}_total for '$label'"
    done
done
check_metric 'bvfd_requests_total{type="ping"} 8'
check_metric 'bvfd_responses_total{type="eval_coder"} 1'
check_metric 'bvfd_responses_total{type="static_query"} 1'
check_metric 'bvfd_responses_total{type="static_advice"} 1'
check_metric 'bvfd_responses_total{type="bit_density"} 1'
check_metric 'bvfd_responses_total{type="chip_energy"} 1'
check_metric 'bvfd_responses_total{type="submit_kernel"} 1'
check_metric 'bvfd_requests_total{type="eval_submitted"} 2'
check_metric 'bvfd_responses_total{type="eval_submitted"} 1'
check_metric 'bvfd_request_errors_total{type="eval_submitted"} 1'
check_metric 'bvfd_responses_total{type="error"} 1'
check_metric 'bvfd_protocol_errors_total 0'

echo "== a repeated advise runs no analysis =="
# Static advice is memoized per process: the second identical advise
# must not add a single fixpoint step.
static_steps() {
    sed -n 's/^bvfd_static_analysis_steps_total \([0-9][0-9]*\)$/\1/p' "$1"
}
STEPS_BEFORE="$(static_steps "$WORK/metrics.out")"
[ -n "$STEPS_BEFORE" ] && [ "$STEPS_BEFORE" -gt 0 ] \
    || fail "bvfd_static_analysis_steps_total missing or 0 after advise"
client advise KMN > "$WORK/advise-again.out"
cmp "$WORK/advise.out" "$WORK/advise-again.out" \
    || fail "a repeated advise KMN printed a different answer"
client metrics > "$WORK/metrics-again.out"
STEPS_AFTER="$(static_steps "$WORK/metrics-again.out")"
[ "$STEPS_AFTER" = "$STEPS_BEFORE" ] \
    || fail "a repeated advise KMN ran the analysis again" \
        "(bvfd_static_analysis_steps_total $STEPS_BEFORE -> $STEPS_AFTER)"

echo "== the same answers through bvf_fleet serve =="
"$FLEET" --worker "localhost:$PORT" serve --port 0 > "$WORK/fleet.log" 2>&1 &
FLEET_PID=$!
FLEET_PORT=""
for _ in $(seq 1 100); do
    FLEET_PORT="$(sed -n 's/^bvf_fleet: listening on 127\.0\.0\.1:\([0-9][0-9]*\) .*$/\1/p' \
        "$WORK/fleet.log")"
    [ -n "$FLEET_PORT" ] && break
    kill -0 "$FLEET_PID" 2>/dev/null || fail "bvf_fleet died during startup"
    sleep 0.1
done
[ -n "$FLEET_PORT" ] || fail "bvf_fleet never announced its port"
"$CLIENT" --port "$FLEET_PORT" ping 8 > "$WORK/fleet-ping.out" \
    || fail "ping 8 through the fleet exited nonzero"
cmp "$WORK/ping.out" "$WORK/fleet-ping.out" \
    || fail "ping 8 through the fleet differs from bvfd's"
for app_cmd in energy advise; do
    "$CLIENT" --port "$FLEET_PORT" "$app_cmd" KMN \
        > "$WORK/fleet-$app_cmd.out" \
        || fail "$app_cmd KMN through the fleet exited nonzero"
    cmp "$WORK/$app_cmd.out" "$WORK/fleet-$app_cmd.out" \
        || fail "$app_cmd KMN through the fleet differs from bvfd's"
done
kill -TERM "$FLEET_PID" || fail "could not signal bvf_fleet"
wait "$FLEET_PID"
STATUS=$?
FLEET_PID=""
[ "$STATUS" -eq 0 ] \
    || fail "bvf_fleet exited with status $STATUS after SIGTERM"

echo "== SIGTERM must drain cleanly =="
kill -TERM "$DAEMON_PID" || fail "could not signal bvfd"
wait "$DAEMON_PID"
STATUS=$?
DAEMON_PID=""
[ "$STATUS" -eq 0 ] || fail "bvfd exited with status $STATUS after SIGTERM"
grep -q "bvfd: drained (served" "$WORK/bvfd.log" \
    || fail "no drain confirmation in the daemon log"
grep -q "bvfd: exiting" "$WORK/bvfd.log" \
    || fail "no exit banner in the daemon log"

echo "PASS: daemon served every request type, answered the same through"
echo "      bvf_fleet, and drained on SIGTERM"
rm -rf "$WORK"
exit 0
