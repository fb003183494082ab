#!/usr/bin/env python3
"""Steadiness check: runs each workload k times and reports the spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--trace-runs 2]
        [--workloads select,join,churn]

Every run lasts BENCHMARK.json's run_seconds, and run i uses seed SEED + i.
For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4), and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json: "ok" when the spread is
under a third of the bound, "in" when under the bound, "WIDE" otherwise;
setup_s is judged the same way.  It also
prints each workload's failed-operation share and, from --trace-runs traced
runs, the tracing overhead: the traced run's median read latency over the
untraced one's.  Pass another --seed to show the bounds do not depend on one
input.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed + i, seconds, 0)
                for i in range(args.runs)]
        traced = [run_once(workload, args.seed + i, seconds, 1)
                  for i in range(args.trace_runs)]
        print(f"\n== {workload}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {seconds:g} s each")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            mark = ("ok" if rel < bound / 3 else "in" if rel <= bound
                    else "WIDE")
            print(f"{name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{rel:>9.4f}{bound:>7.2f}  {mark}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs + traced)
        print(f"failed share per run: {shares}; all correct: {correct}")
        if traced:
            untraced = statistics.median(
                r["metrics"]["read_p50_ms"]["value"] for r in runs)
            with_spans = statistics.median(
                r["metrics"]["trace.read_p50_ms"]["value"] for r in traced)
            print(f"tracing overhead (read p50): "
                  f"{(with_spans / untraced - 1) * 100:+.1f}% "
                  f"({untraced:.4g} ms untraced, {with_spans:.4g} ms traced)")
            for name in traced[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in traced]
                unit = traced[0]["metrics"][name]["unit"]
                print(f"  {name:<34}{statistics.median(vals):>14.6g} {unit}")


if __name__ == "__main__":
    main()
