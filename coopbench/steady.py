#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports each metric's spread.

    python3 coopbench/steady.py [--workloads kitti_pair ...] [--runs 10]
                                [--first-seed 1] [--same-seed]
                                [--seconds S] [--trace 0|1]

Each run uses the next seed, or with --same-seed always the first one, which
leaves out the variance between seeds' inputs and keeps only run-to-run
noise.  For every metric the script prints the median, the first and third
quartiles (statistics.quantiles, n=4), and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json; a spread above a third of its
bound is flagged.  Run from the repository root.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=workloads,
                    choices=workloads)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed or incorrect" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        print("\n%s (%d runs)" % (workload, args.runs))
        print("  %-28s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print("  %-28s %12.4f %12.4f %12.4f %8.4f %6s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.3f" % bound, flag))
            print("  %28s %s" % ("", " ".join("%.4g" % v for v in vals)))
    if args.trace == 0:
        print("\nworst spread / bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
