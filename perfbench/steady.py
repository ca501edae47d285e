#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report per-metric spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--traced N]

Each workload runs --runs times untraced, seed first-seed, first-seed+1, ...
For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: (Q3 - Q1) / median. It
also prints the share of failed operations, which must be the same in every
run. With --traced N it then makes N traced runs and reports each per-layer
metric's median and the tracing overhead: the traced verdict_s median
against the untraced one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        results = [
            run_once(workload, args.first_seed + i, args.seconds, 0)
            for i in range(args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {correct}, failed shares {sorted(shares)}")
        steady &= correct and len(shares) == 1
        untraced = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            untraced[name] = median
            limit = bounds[name] / 3
            ok = name == "setup_s" or rel <= limit
            steady &= ok
            print(
                f"  {name:<14} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {rel:.2%} (bound/3 {limit:.2%}){'' if ok else '  <-- too wide'}"
            )
            print(f"  {'':<14} values {[round(v, 4) for v in values]}")
        if args.traced:
            traced = [
                run_once(workload, args.first_seed + i, args.seconds, 1)
                for i in range(args.traced)
            ]
            for layer in spec["per_layer"]:
                values = [r["metrics"][layer["name"]]["value"] for r in traced]
                print(f"  {layer['name']:<26} {statistics.median(values):.6g} {layer['unit']}")
            traced_verdict = statistics.median(r["metrics"]["trace.verdict_s"]["value"] for r in traced)
            overhead = traced_verdict / untraced["verdict_s"] - 1
            print(f"  tracing overhead: verdict_s {traced_verdict:.6g} traced vs "
                  f"{untraced['verdict_s']:.6g} untraced ({overhead:+.2%})")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
