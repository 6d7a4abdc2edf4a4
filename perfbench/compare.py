#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds WORKLOAD.SEED.json files, the standard output of one
run each (perfbench/sweep.sh writes them). For every workload and metric it
prints the median and quartiles of each set, the spread (distance between
the quartiles as a share of the median) and, given two sets, the change of
the median. An end-to-end metric whose median worsened by more than its
bound in BENCHMARK.json is flagged WORSE; one whose own spread exceeds its
bound is flagged SPREAD.
"""
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory):
    runs = defaultdict(dict)  # workload -> {seed: result}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, seed = name.split(".")[:2]
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            sys.exit(f"{name}: empty output")
        result = json.loads(lines[-1])
        if not result.get("correct"):
            sys.exit(f"{name}: run reported incorrect output")
        runs[workload][seed] = result
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    return (q3 - q1) / med if med else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    base = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None

    for workload in sorted(base):
        print(f"== {workload}: {len(base[workload])} base runs"
              + (f", {len(new.get(workload, []))} new runs" if new else ""))
        header = f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
        if new:
            header += f" {'new median':>12} {'spread':>8} {'delta':>8} {'paired':>8}"
        print(header)
        runs = base[workload]
        names = sorted({k for r in runs.values() for k in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in runs.values() if name in r["metrics"])
            q1, med, q3 = summary(vals)
            sp = spread(q1, med, q3)
            line = f"{name:34} {unit:8} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%}"
            flags = []
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and name != "setup_s" and sp > bound:
                flags.append("SPREAD")
            if new and new.get(workload):
                nruns = new[workload]
                nvals = [r["metrics"][name]["value"] for r in nruns.values() if name in r["metrics"]]
                if nvals:
                    n1, nmed, n3 = summary(nvals)
                    delta = (nmed - med) / med if med else float("inf")
                    line += f" {nmed:12.6g} {spread(n1, nmed, n3):8.2%} {delta:+8.2%}"
                    pairs = [(runs[s]["metrics"][name]["value"], nruns[s]["metrics"][name]["value"])
                             for s in runs if s in nruns and name in runs[s]["metrics"] and name in nruns[s]["metrics"]]
                    changes = [(b - a) / a for a, b in pairs if a]
                    line += f" {statistics.median(changes):+8.2%}" if changes else f" {'-':>8}"
                    worse = delta if better.get(name) == "lower" else -delta
                    if bound is not None and worse > bound:
                        flags.append("WORSE")
            print(line + ("  " + " ".join(flags) if flags else ""))
        print()


if __name__ == "__main__":
    main()
