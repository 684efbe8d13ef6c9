#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, untraced and traced.

    python3 coopbench/smoke.py

Runs each workload at tiny sizes (--tiny: fewer, thinner scans and an
8-vehicle fleet) for a handful of frames, in both modes, and checks that the
result line has the contract's shape, reports every metric named in
BENCHMARK.json with finite values, is correct, and that the traced run wrote a
Chrome trace of "X" events.  Exits non-zero on the first problem.  Run from
the repository root.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FRAMES = {"kitti_pair": 4, "tj_lot4_lossy": 8, "edge_fleet64": 20}


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    seed = 7
    for w in bench["workloads"]:
        workload = w["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", "1", "--trace",
                 str(trace), "--tiny", "--frames", str(FRAMES[workload])],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                fail("%s exited %d" % (label, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (label, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0:
                fail("%s: incorrect or failed frames: %s" % (label, result))
            if result["attempted"] < 1:
                fail("%s: nothing attempted" % label)
            metrics = result["metrics"]
            if sorted(metrics) != sorted(expected[trace]):
                fail("%s: metric names differ from BENCHMARK.json" % label)
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    fail("%s: %s is not a finite number" % (label, name))
            if trace == 0:
                for name in ("frame_ms_p50", "fused_fps", "fused_ap",
                             "wire_kb_per_frame", "setup_s"):
                    if metrics[name]["value"] <= 0:
                        fail("%s: %s is not positive" % (label, name))
            else:
                if metrics["trace.composed_match"]["value"] != 1.0:
                    fail("%s: composed steps differ from the session" % label)
                path = os.path.join(ROOT, ".bench_out",
                                    "trace_%s_%d.json" % (workload, seed))
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e.get("ph") == "X" for e in events):
                    fail("%s: no X events in %s" % (label, path))
            print("smoke: ok   %s (%d frames)" % (label, result["attempted"]))
    print("smoke: all workloads passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
