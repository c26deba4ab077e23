#!/usr/bin/env python3
"""Measure this checkout and print one row for bench/perf/history.jsonl.

Runs every workload in BENCHMARK.json for seeds 1-10, first untraced
(--trace 0) and then traced (--trace 1), cycling through the workloads
so that slow periods of the host spread over all of them. Each metric is
summarised over the seeds by its median and its interquartile range
(statistics.quantiles with n=4). Any run that reports correct: false
stops the script.

usage, from the repository root:
    python3 bench/perf/history.py --commit SHA [--host TEXT] \
        >> bench/perf/history.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = ["bash", "bench/perf/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect result")
    return result


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--host", default="", help="hardware the row was measured on")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for trace in (0, 1):
        for seed in SEEDS:
            for w in workloads:
                result = run(w, seed, bench["run_seconds"], trace)
                for name, m in result["metrics"].items():
                    entry = values[w].setdefault(name, {"unit": m["unit"], "values": []})
                    entry["values"].append(m["value"])
                print(f"{w} seed {seed} trace {trace} done", file=sys.stderr)

    row = {
        "commit": args.commit,
        "host": args.host,
        "run_seconds": bench["run_seconds"],
        "seeds": [SEEDS[0], SEEDS[-1]],
        "workloads": {
            w: {name: {"unit": e["unit"], **summary(e["values"])}
                for name, e in metrics.items()}
            for w, metrics in values.items()
        },
    }
    print(json.dumps(row))


if __name__ == "__main__":
    main()
