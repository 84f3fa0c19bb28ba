#!/usr/bin/env bash
# Paired comparison of two bench_pipeline builds on one workload.
#
# Runs one parent and one change process per seed, alternating which
# of the two goes first, then prints, per end-to-end metric, each
# side's median and quartiles and how many pairs the change won (ties
# count for neither). The same rows follow for the raw times of each
# run's `detail` line (wall_raw_s, setup_raw_s and the HostScale
# reference_ms the scaled times are divided by), so a scaled change
# that only the reference moved shows beside the raw one. Exits
# non-zero if any run fails or reports "correct": false.
#
# Usage:
#   scripts/bench_pairs.sh [--seconds S] [--out FILE] \
#       PARENT_BIN PARENT_ROOT CHANGE_BIN CHANGE_ROOT WORKLOAD SEED...
#
# Each binary runs from its own checkout root, against that checkout's
# bench/pipeline/pins.txt. The end-to-end metrics and which direction
# is better come from CHANGE_ROOT/BENCHMARK.json. --seconds is the run
# length of every run (default 35, the benchmark's); --out keeps the
# raw result and detail lines (JSON, one per run).
#
# Example, with each checkout's binary built by bench/pipeline/run.sh:
#   scripts/bench_pairs.sh ../parent/.bench_build/pipeline/bench_pipeline \
#       ../parent .bench_build/pipeline/bench_pipeline . dense-ecc \
#       $(seq 501 510)

set -euo pipefail

seconds=35
out=
while [[ $# -gt 0 && $1 == --* ]]; do
    case $1 in
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "bench_pairs.sh: unknown option $1" >&2; exit 2 ;;
    esac
done
if [[ $# -lt 6 ]]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi

abs() { (cd "$(dirname "$1")" && echo "$PWD/$(basename "$1")"); }
parent_bin=$(abs "$1") parent_root=$(cd "$2" && pwd)
change_bin=$(abs "$3") change_root=$(cd "$4" && pwd)
workload=$5
shift 5
seeds=("$@")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
runs=${out:-$tmp/runs.jsonl}
: >"$runs"

# run_one SIDE SEED: one process; appends {"side", "seed", "status",
# "detail", "result"}.
run_one() {
    local side=$1 seed=$2 bin root out detail result status=0
    if [[ $side == parent ]]; then bin=$parent_bin root=$parent_root
    else bin=$change_bin root=$change_root; fi
    echo "== $side $workload seed $seed" >&2
    mkdir -p "$tmp/$side"
    out=$(cd "$root" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --pins bench/pipeline/pins.txt \
        --tmp "$tmp/$side") || status=$?
    detail=$(grep '^detail ' <<<"$out" | tail -n 1 | cut -c8-) || true
    result=$(tail -n 1 <<<"$out")
    if [[ $status -ne 0 || $result != \{* ]]; then
        result='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    [[ $detail == \{* ]] || detail=null
    printf '{"side": "%s", "seed": %d, "status": %d, "detail": %s, "result": %s}\n' \
        "$side" "$seed" "$status" "$detail" "$result" >>"$runs"
}

i=0
for seed in "${seeds[@]}"; do
    if ((i++ % 2)); then sides=(change parent); else sides=(parent change); fi
    for side in "${sides[@]}"; do
        run_one "$side" "$seed"
    done
done

python3 - "$runs" "$change_root/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

runs_path, bench_path, workload = sys.argv[1:]
runs = [json.loads(line) for line in open(runs_path)]
metrics = json.load(open(bench_path))["end_to_end"]

bad = [r for r in runs if r["status"] != 0 or not r["result"]["correct"]]
for r in bad:
    print(f"FAIL {r['side']} seed {r['seed']}: status {r['status']}, "
          f"correct {r['result']['correct']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


by_seed = {}
for r in runs:
    by_seed.setdefault(r["seed"], {})[r["side"]] = r
pairs = [p for p in by_seed.values() if len(p) == 2
         and all(side["result"]["correct"] for side in p.values())]

for side in ("parent", "change"):
    attempted = sum(r["result"]["attempted"] for r in runs
                    if r["side"] == side)
    failed = sum(r["result"]["failed"] for r in runs if r["side"] == side)
    print(f"{workload} {side} failed {failed} of {attempted}")

print(f"{workload}: {len(pairs)} pairs")


def compare(label, unit, lower, vals):
    """One row: each side's median and quartiles, and the change's wins."""
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(vals["parent"], vals["change"]))
    row = []
    for side in ("parent", "change"):
        q1, q3 = quartiles(vals[side])
        row.append(f"{side} {statistics.median(vals[side]):.6g} "
                   f"(q1 {q1:.6g}, q3 {q3:.6g})")
    pm = statistics.median(vals["parent"])
    cm = statistics.median(vals["change"])
    delta = (cm - pm) / pm if pm else 0.0
    q1, q3 = quartiles(vals["parent"])
    print(f"{workload} {label} {unit}: {row[0]}; {row[1]}; "
          f"change {delta:+.1%}, wins {wins}/{len(vals['parent'])}, "
          f"parent IQR {q3 - q1:.6g}")


def series(section, name):
    """Each side's values of @name from every pair's @section line."""
    return {side: [p[side][section]["metrics"][name]["value"]
                   for p in pairs if p[side].get(section)
                   and name in p[side][section]["metrics"]]
            for side in ("parent", "change")}


# The end-to-end metrics, then the raw times behind the scaled ones.
rows = [("result", m["name"], m["unit"], m["better"] == "lower")
        for m in metrics]
rows += [("detail", "wall_raw_s", "s", True),
         ("detail", "setup_raw_s", "s", True),
         ("detail", "reference_ms", "ms", True)]
for section, name, unit, lower in rows:
    vals = series(section, name)
    if not vals["parent"] or len(vals["parent"]) != len(pairs) \
            or len(vals["change"]) != len(pairs):
        print(f"{workload} {name}: missing from some runs")
        continue
    compare(name, unit, lower, vals)
sys.exit(1 if bad else 0)
EOF
