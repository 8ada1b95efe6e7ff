#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload shared_windows --runs 10

Runs perfbench/run.py once per seed (seeds 1..runs, or --first-seed on)
and prints, per metric, the median, the quartiles (statistics.quantiles
with n=4) and the spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json. A spread at or above a third of its bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ratio = spread / bound if bound else 0
        worst = max(worst, ratio if name != "setup_s" else 0)
        flag = " <-- over a third of its bound" if ratio >= 1 / 3 else ""
        print(f"{name:24s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
              f"  spread {spread:7.4f}  bound {bound}{flag}")
        print(f"{'':24s} values " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
