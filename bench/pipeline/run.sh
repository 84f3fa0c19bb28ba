#!/usr/bin/env bash
# Build and run the pipeline benchmark (see README.md in this directory).
#
# One run of one workload, the form BENCHMARK.json names:
#   bash bench/pipeline/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   The last line of stdout is the result JSON.
#
# The whole benchmark:
#   bash bench/pipeline/run.sh [--reps R] [--seconds S]
#     R untraced runs of every workload, each in its own process, in an
#     order that alternates per repetition (default R=5), then one traced
#     run per workload. Prints `workload metric value unit` with median
#     and quartiles and writes .bench_build/pipeline/results.json.
#   bash bench/pipeline/run.sh --aa [--reps R] [--seconds S]
#     Two interleaved sets of R runs on the same build; reports whether
#     each metric's medians agree within its bound.
#   bash bench/pipeline/run.sh --smoke
#     Every workload on a cut-down input, traced and untraced.
#
# Exits non-zero when any correctness check fails.
set -euo pipefail

cd "$(dirname "$0")/../.."
BUILD=.bench_build/pipeline
BIN=$BUILD/bench_pipeline
PINS=bench/pipeline/pins.txt
# The workloads BENCHMARK.json names. `campaign` (all 58 apps, a 15-30 s
# pass) stays runnable through --workload but is left out: with a fourth
# workload the runs would not fit BENCHMARK.json's time budget.
WORKLOADS=(stall dense-ecc bvfd-submit)

build() {
    if [[ ! -f src/CMakeLists.txt ]]; then
        echo "run.sh: no src/ tree here to build the benchmark from" >&2
        exit 2
    fi
    mkdir -p "$BUILD/tmp"
    (
        if command -v flock >/dev/null; then flock 9; fi
        if [[ ! -f $BUILD/CMakeCache.txt ]]; then
            gen=()
            command -v ninja >/dev/null && gen=(-G Ninja)
            cmake -S bench/pipeline -B "$BUILD" "${gen[@]}" \
                -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
        fi
        cmake --build "$BUILD" --target bench_pipeline -j 2 >&2
    ) 9>"$BUILD/.lock"
}

if [[ " $* " == *" --workload "* ]]; then
    build
    exec "$BIN" "$@" --pins "$PINS" --tmp "$BUILD/tmp"
fi

reps=5 seconds=35 aa=0
while [[ $# -gt 0 ]]; do
    case $1 in
        --reps) reps=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --aa) aa=1; shift ;;
        --smoke) build; exec "$BIN" --smoke --tmp "$BUILD/tmp" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
build

runs=$BUILD/runs.jsonl
: >"$runs"

# run_one SET WORKLOAD SEED TRACE: one process, appended to $runs.
run_one() {
    local set=$1 w=$2 seed=$3 trace=$4 out status=0
    echo "== set $set $w seed $seed trace $trace" >&2
    out=$("$BIN" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --pins "$PINS" --tmp "$BUILD/tmp") || status=$?
    local detail result
    detail=$(grep '^detail ' <<<"$out" | tail -n 1 | cut -c8-) || true
    result=$(tail -n 1 <<<"$out")
    if [[ $status -ne 0 || -z $detail ]]; then
        detail=null
        result='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    printf '{"set": "%s", "workload": "%s", "seed": %d, "trace": %d, "status": %d, "detail": %s, "result": %s}\n' \
        "$set" "$w" "$seed" "$trace" "$status" "$detail" "$result" >>"$runs"
}

for ((r = 1; r <= reps; r++)); do
    order=()
    for w in "${WORKLOADS[@]}"; do
        if ((r % 2)); then order+=("$w"); else order=("$w" "${order[@]}"); fi
    done
    for w in "${order[@]}"; do
        if ((aa)); then
            # Alternate which set goes first, so drift hits both alike.
            if ((r % 2)); then sets=(A B); else sets=(B A); fi
            for set in "${sets[@]}"; do
                if [[ $set == A ]]; then seed=$((2 * r - 1)); else seed=$((2 * r)); fi
                run_one "$set" "$w" "$seed" 0
            done
        else
            run_one A "$w" "$r" 0
        fi
    done
done
if ((!aa)); then
    for w in "${WORKLOADS[@]}"; do
        run_one T "$w" 1 1
    done
fi

args=(--runs "$runs" --benchmark BENCHMARK.json --out "$BUILD/results.json")
((aa)) && args+=(--aa)
exec python3 bench/pipeline/aggregate.py "${args[@]}"
