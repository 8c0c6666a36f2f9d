#!/usr/bin/env python3
"""Steadiness check for the broker benchmark.

Runs every workload of BENCHMARK.json several times, each with another
seed, and prints per end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread between the
quartiles as a share of the median, against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--save set.json] [--compare first.json]

Run it from the repository root. --save keeps the raw results; --compare
prints, per metric, how far this set's median moved from a saved set's,
in the metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = bench["end_to_end"]
    results = {}
    for workload in names:
        runs = []
        for i in range(args.runs):
            result, wall = run_once(bench, workload, args.seed0 + i, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {args.seed0 + i}: incorrect output")
            runs.append({"wall": wall, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        results[workload] = runs
        walls = [r["wall"] for r in runs]
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {failed:.6f}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs]
            med, q1, q3, s = spread(values)
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print(f"  {m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:8.3f} {m['bound']:6.2f}  {verdict}")

    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    if args.compare:
        with open(args.compare) as f:
            first = json.load(f)
        print("\nmedian shift against the saved set (positive = worse):")
        for workload in names:
            if workload not in first:
                continue
            for m in metrics:
                a = statistics.median(r["metrics"][m["name"]] for r in first[workload])
                b = statistics.median(r["metrics"][m["name"]] for r in results[workload])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                print(f"  {workload:17} {m['name']:18} {worse:+8.3f} bound {m['bound']:.2f}  {verdict}")


if __name__ == "__main__":
    main()
