#!/usr/bin/env python3
"""Summarize bench_pipeline runs collected by run.sh.

Reads one JSON line per run (set, workload, trace flag, the binary's
detail line and its result line), prints every metric as
`workload metric median unit (q1, q3, n)`, checks correctness and
metric names against BENCHMARK.json, and writes results.json. With
--aa it compares the medians of sets A and B against each metric's
bound instead. Exit status 1 means a check failed.
"""

import argparse
import json
import statistics
import sys

# Metrics run.sh reports beside BENCHMARK.json's, from the detail line.
# BENCHMARK.json holds only metrics every workload reports; these apply
# to some workloads, so their bounds live here. Latencies get the same
# bound as wall_s: their A/A spread is as wide.
EXTRA_BOUNDS = {
    "submit_p50_ms": 0.25,
    "submit_p80_ms": 0.25,
    "advise_p50_ms": 0.25,
    "advise_p80_ms": 0.25,
    "eval_p50_ms": 0.25,
    "failed_frac": 0.0,
}

# Detail-line metrics printed without a bound: the unscaled times and
# the reference loop time they were scaled by.
UNBOUNDED_DETAIL = ("setup_raw_s", "wall_raw_s", "reference_ms")

# The traced run's layer self times must cover its wall time this well.
ATTRIBUTION_TOLERANCE = 0.05


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def collect(runs, set_name, trace):
    """{workload: {metric: ([values], unit)}} for one set of runs."""
    table = {}
    for run in runs:
        if run["set"] != set_name or run["trace"] != trace:
            continue
        metrics = dict(run["result"]["metrics"])
        if run["detail"]:
            metrics.update({k: v for k, v in run["detail"]["metrics"].items()
                            if k in EXTRA_BOUNDS or k in UNBOUNDED_DETAIL})
        for name, m in metrics.items():
            entry = table.setdefault(run["workload"], {}).setdefault(
                name, ([], m["unit"]))
            entry[0].append(m["value"])
    return table


def check_runs(runs, bench):
    """Correctness and metric-name problems, one string each."""
    problems = []
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    for run in runs:
        where = "%s %s seed %d trace %d" % (run["set"], run["workload"],
                                            run["seed"], run["trace"])
        result = run["result"]
        if run["status"] != 0 or not result["correct"] or result["failed"]:
            problems.append("%s: incorrect (exit %d, %d/%d failed)" % (
                where, run["status"], result["failed"], result["attempted"]))
            continue
        if list(result["metrics"]) != names[run["trace"]]:
            problems.append("%s: metrics differ from BENCHMARK.json" % where)
        if run["trace"]:
            frac = result["metrics"]["trace.attributed_frac"]["value"]
            if abs(frac - 1.0) > ATTRIBUTION_TOLERANCE:
                problems.append("%s: layers cover %.3f of the traced wall"
                                % (where, frac))
    return problems


def summarize(table):
    out = {}
    for workload, metrics in table.items():
        for name, (values, unit) in metrics.items():
            q1, q3 = quartiles(values)
            med = statistics.median(values)
            out.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "unit": unit, "values": values,
                "spread": (q3 - q1) / abs(med) if med else 0.0,
            }
    return out


def print_summary(summary):
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print("%-12s %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, "
                  "spread %.1f%%, n=%d)" % (
                      workload, name, s["median"], s["unit"], s["q1"],
                      s["q3"], 100 * s["spread"], s["n"]))


def aa_compare(a, b, bench):
    """Per (workload, metric): do the two medians agree within bound?"""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    bounds.update({k: (v, "lower") for k, v in EXTRA_BOUNDS.items()})
    rows, ok = [], True
    for workload in a:
        for name, sa in a[workload].items():
            sb = b.get(workload, {}).get(name)
            if sb is None or name not in bounds:
                continue
            bound, better = bounds[name]
            ma, mb = sa["median"], sb["median"]
            if ma:
                worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
                agree = abs(worse) <= bound
            else:
                worse, agree = mb - ma, mb == ma
            ok = ok and agree
            rows.append({"workload": workload, "metric": name,
                         "median_a": ma, "median_b": mb, "delta": worse,
                         "bound": bound, "spread_a": sa["spread"],
                         "spread_b": sb["spread"], "agree": agree})
            print("%-12s %-16s A %-12.6g B %-12.6g delta %+6.1f%% "
                  "bound %4.0f%% spread %.1f%%/%.1f%% %s" % (
                      workload, name, ma, mb, 100 * worse, 100 * bound,
                      100 * sa["spread"], 100 * sb["spread"],
                      "agree" if agree else "DISAGREE"))
    return rows, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--aa", action="store_true")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(args.runs) as f:
        runs = [json.loads(line) for line in f if line.strip()]

    problems = check_runs(runs, bench)
    nproc = next((int(r["detail"]["metrics"]["nproc"]["value"])
                  for r in runs if r["detail"]), None)
    results = {"nproc": nproc, "runs": runs}

    if args.aa:
        a = summarize(collect(runs, "A", 0))
        b = summarize(collect(runs, "B", 0))
        rows, agree = aa_compare(a, b, bench)
        results.update({"set_a": a, "set_b": b, "aa": rows})
        if not agree:
            problems.append("A/A medians disagree beyond their bounds")
    else:
        summary = summarize(collect(runs, "A", 0))
        traced = summarize(collect(runs, "T", 1))
        print("# end to end, tracing off (nproc %s)" % nproc)
        print_summary(summary)
        print("# per layer, one traced run per workload")
        print_summary(traced)
        results.update({"end_to_end": summary, "per_layer": traced})

    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print("wrote %s" % args.out)
    for p in problems:
        print("FAIL: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
