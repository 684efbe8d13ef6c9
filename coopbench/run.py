#!/usr/bin/env python3
"""Cooper benchmark: one workload, one seed, one result line.

    python3 coopbench/run.py --workload kitti_pair --seed 1 --seconds 30 --trace 0

Run from the repository root.  The script builds the `coopbench` program from
source (cmake, into $CARGO_TARGET_DIR or .bench_build), runs the workload,
checks its detections against the stored reference digests, and prints the
metrics as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the spans as a Chrome trace under .bench_out/).  See
coopbench/README.md for the workloads, the metrics and the reference files.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kitti_pair", "tj_lot4_lossy", "edge_fleet64")
# kitti_pair runs as four processes, one per noise draw of the four KITTI
# scenarios, each for a quarter of the timed phase.  Its peak memory follows
# the clustering scratch, which keeps the largest size any input so far asked
# for; one process over all sixteen inputs reads its heaviest draws only, and
# swings by a quarter from seed to seed.  The median over four processes of
# four inputs each does not.
PARTS = {"kitti_pair": 4}
# Set-ups per process: kitti_pair measures 2 in each of its 4 processes.
SETUPS = {"kitti_pair": 2}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fnv_chain(hex_digests, seed=0xCBF29CE484222325):
    """FNV-1a 64 chained over the 8 little-endian bytes of each digest."""
    h = seed
    for d in hex_digests:
        for b in int(d, 16).to_bytes(8, "little"):
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("coopbench: no Cooper sources next to %s; run from a full checkout"
            % HERE)
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "coopbench")
    # Keep the compiler's scratch files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "coopbench",
                    "-j", jobs], stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "coopbench")


def source_stamp():
    """Commit when the tree is a git checkout, plus a digest of the sources."""
    commit = "none"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.join("coopbench", "cc")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_program(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log("coopbench: program exited with %d" % proc.returncode)
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def reference_key(workload, seed, part):
    """Key of a stored reference: the seed, or seed:part on workloads that
    run in parts."""
    return "%d:%d" % (seed, part) if workload in PARTS else str(seed)


def load_reference(workload, seed, part):
    path = reference_path(workload)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)["seeds"].get(reference_key(workload, seed, part))


def split_pairs(items):
    return [tuple(item.split(":")) for item in items]


def check_vehicle(rec, ref):
    """Returns (timed frames that mismatched, problems)."""
    warmup, period = rec["warmup"], rec["period"]
    seen = {int(g): d for g, d in split_pairs(rec["digests"])}
    problems, bad = [], set()
    # The inputs cycle, so frame g must repeat frame g - period.
    for g, d in seen.items():
        if g >= warmup + period and g - period in seen and seen[g - period] != d:
            bad.add(g)
    if bad:
        problems.append("%d frames break the input period" % len(bad))
    if ref is not None:
        expected = ref["digests"]
        n = len(expected)
        for g, d in seen.items():
            e = expected[g] if g < n else expected[warmup + (g - warmup) % period]
            if e != d:
                bad.add(g)
        prefix = [seen[g] for g in range(n) if g in seen]
        if len(prefix) == n and fnv_chain(prefix) != ref["chain"]:
            problems.append("chained digest differs from the reference")
    mismatched = sum(1 for g in bad if g >= warmup)
    if any(g < warmup for g in bad):
        problems.append("warm-up frames differ from the reference")
    if mismatched:
        problems.append("%d timed frames differ from the reference" % mismatched)
    return mismatched, problems


def check_edge(rec, ref):
    problems = []
    # Sampled fusions over the whole timed phase, recomposed from public
    # calls by the program: needs no reference.
    recomposed = rec["check_mismatch"]
    if recomposed:
        problems.append("%d of %d sampled fusions differ from their "
                        "recomposition" % (recomposed, rec["ap_frames"]))
    if ref is None:
        return recomposed, problems
    horizon = min(ref["ticks"], rec["ticks"], rec["check_ticks"])
    expected = {(int(t), int(v)): d for t, v, d in split_pairs(ref["fusions"])
                if int(t) <= horizon}
    seen = {(int(t), int(v)): d for t, v, d in split_pairs(rec["fusions"])
            if int(t) <= horizon}
    bad = {k for k in set(expected) | set(seen) if expected.get(k) != seen.get(k)}
    checkpoints = dict(split_pairs(ref["checkpoints"]))
    for tick, d in split_pairs(rec["checkpoints"]):
        if int(tick) <= horizon and checkpoints.get(tick) != d:
            problems.append("serve event digest differs at tick %s" % tick)
            break
    if rec["ticks"] >= ref["ticks"]:
        chains = {}
        for (tick, v), d in sorted(seen.items()):
            chains.setdefault(str(v), []).append(d)
        for v, chain in ref["vehicle_chains"].items():
            if fnv_chain(chains.get(v, [])) != chain:
                problems.append("vehicle %s chained digest differs" % v)
                break
    mismatched = sum(1 for tick, _ in bad if tick > rec["warmup_ticks"])
    if bad:
        problems.append("%d fusions differ from the reference" % len(bad))
    return recomposed + mismatched, problems


def percentile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(rec, failed, attempted):
    """Every timing covers the whole untraced timed phase."""
    frames = max(1, rec["frames"])
    return {
        "setup_s": (statistics.median(rec["setup_s"]), "s"),
        "frame_ms_p50": (percentile(rec["frame_ms"], 0.5), "ms"),
        "frame_ms_p90": (percentile(rec["frame_ms"], 0.9), "ms"),
        "fused_fps": (rec["frames"] / rec["timed_s"], "1/s"),
        "cpu_ms_per_frame": (rec["cpu_s"] * 1e3 / frames, "ms"),
        "wire_kb_per_frame": (rec["wire_bytes"] / 1024.0 / frames, "KiB"),
        "fused_ap": (rec["fused_ap"], "ratio"),
        "ok_frac": (1.0 - failed / max(1, attempted), "ratio"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MiB"),
    }


def trace_overhead_ms(rec):
    """Traced minus untraced frame_ms_p50.

    Vehicle frames are compared input by input (the pool mixes frames of
    very different cost, and the two halves of the run need not cover it
    evenly); edge batches are compared directly.
    """
    untraced, traced = rec["frame_ms"], rec["traced_frame_ms"]
    if "period" not in rec:
        return statistics.median(traced) - statistics.median(untraced)
    period, first = rec["period"], rec["warmup"]
    by_input = {}
    for i, ms in enumerate(untraced):
        by_input.setdefault((first + i) % period, ([], []))[0].append(ms)
    for i, ms in enumerate(traced):
        by_input.setdefault((first + len(untraced) + i) % period,
                            ([], []))[1].append(ms)
    deltas = [statistics.median(t) - statistics.median(u)
              for u, t in by_input.values() if u and t]
    return statistics.median(deltas)


def per_layer(rec, names):
    layers = dict(rec.get("layers", {}))
    if "trace.overhead_ms" not in layers:
        layers["trace.overhead_ms"] = trace_overhead_ms(rec)
    out = {}
    for name, unit in names:
        out[name] = (float(layers.get(name, 0.0)), unit)
    return out


def layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def merge_parts(recs):
    """One record from a workload's per-part records.

    Samples are pooled and counts summed; fused_ap is the mean of the parts'
    AP (each over its own input period) and peak_rss_mb the median of their
    peaks.
    """
    if len(recs) == 1:
        return recs[0]
    merged = dict(recs[0])
    for key in ("setup_s", "frame_ms", "traced_frame_ms"):
        if key in merged:
            merged[key] = [v for r in recs for v in r[key]]
    for key in ("timed_s", "cpu_s", "frames", "attempted", "failed",
                "wire_bytes", "ap_frames"):
        merged[key] = sum(r[key] for r in recs)
    merged["fused_ap"] = statistics.mean(r["fused_ap"] for r in recs)
    merged["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in recs)
    if "layers" in merged:
        # Per-frame layer figures, weighted by each part's traced frames.
        weights = [len(r["traced_frame_ms"]) for r in recs]
        layers = {}
        for name in recs[0]["layers"]:
            layers[name] = sum(w * r["layers"][name]
                               for w, r in zip(weights, recs)) / sum(weights)
        layers["trace.composed_match"] = min(
            r["layers"]["trace.composed_match"] for r in recs)
        layers["trace.overhead_ms"] = sum(
            w * trace_overhead_ms(r) for w, r in zip(weights, recs)) / sum(weights)
        merged["layers"] = layers
    return merged


def write_reference(binary, workload, seeds):
    path = reference_path(workload)
    data = {"seeds": {}}
    if os.path.isfile(path):
        with open(path) as f:
            data = json.load(f)
    for seed, part in [(s, p) for s in seeds for p in range(PARTS.get(workload, 1))]:
        base = ["--workload", workload, "--seed", str(seed), "--setups", "1",
                "--part", str(part)]
        probe = run_program(binary, base + ["--frames", "1"])
        if workload == "edge_fleet64":
            ticks = probe["check_ticks"] - probe["warmup_ticks"]
            rec = run_program(binary, base + ["--frames", str(ticks)])
            chains = {}
            for tick, v, d in split_pairs(rec["fusions"]):
                chains.setdefault(v, []).append(d)
            data["seeds"][str(seed)] = {
                "ticks": rec["ticks"],
                "checkpoints": rec["checkpoints"],
                "vehicle_chains": {v: fnv_chain(c) for v, c in
                                   sorted(chains.items(), key=lambda kv: int(kv[0]))},
                "fusions": rec["fusions"],
            }
        else:
            rec = run_program(binary, base + ["--frames", str(probe["period"])])
            digests = [d for _, d in split_pairs(rec["digests"])]
            data["seeds"][reference_key(workload, seed, part)] = {
                                        "warmup": rec["warmup"],
                                        "period": rec["period"],
                                        "chain": fnv_chain(digests),
                                        "digests": digests}
        log("reference: %s %s" % (workload, reference_key(workload, seed, part)))
    # One compact line per seed keeps the file small and diffs readable.
    seeds = sorted(data["seeds"].items(),
                   key=lambda kv: [int(x) for x in kv[0].split(":")])
    with open(path, "w") as f:
        f.write('{"seeds": {\n')
        f.write(",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                           for k, v in seeds))
        f.write("\n}}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (no stored reference)")
    ap.add_argument("--frames", type=int, default=0,
                    help="run a fixed number of timed frames (edge: ticks)")
    ap.add_argument("--write-reference", type=int, nargs="*", metavar="SEED",
                    help="store reference digests for these seeds and exit")
    args = ap.parse_args()

    binary = build()
    if args.write_reference is not None:
        write_reference(binary, args.workload, args.write_reference)
        return 0

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    parts = PARTS.get(args.workload, 1)
    recs, mismatched, problems, no_reference = [], 0, [], False
    for part in range(parts):
        program_args = ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds / parts),
                        "--trace", str(args.trace), "--part", str(part)]
        if args.workload in SETUPS:
            program_args += ["--setups", str(SETUPS[args.workload])]
        # The Chrome trace holds the first part's spans.
        if args.trace and part == 0:
            program_args += ["--trace-out", os.path.join(
                out_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
        if args.tiny:
            program_args.append("--tiny")
        if args.frames:
            program_args += ["--frames", str(args.frames)]
        rec = run_program(binary, program_args)
        recs.append(rec)

        ref = (None if args.tiny
               else load_reference(args.workload, args.seed, part))
        no_reference = no_reference or ref is None
        if args.workload == "edge_fleet64":
            bad, found = check_edge(rec, ref)
        else:
            bad, found = check_vehicle(rec, ref)
            if not rec["warmup_ok"]:
                found.append("a warm-up frame failed")
        mismatched += bad
        problems += ["part %d: %s" % (part, p) if parts > 1 else p
                     for p in found]
    if no_reference:
        print("# no reference for %s seed %d: digests checked for internal "
              "consistency only" % (args.workload, args.seed))
    rec = merge_parts(recs)
    # The raw record (every frame time, setup and counter) for later analysis.
    with open(os.path.join(out_dir, "record_%s_%d_trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(rec, f)
    attempted = max(1, rec["attempted"])
    failed = min(attempted, rec["failed"] + mismatched)
    correct = not problems
    for p in problems:
        log("coopbench: " + p)

    commit, sources = source_stamp()
    stamp = dict(rec["stamp"], commit=commit, sources=sources,
                 seconds=args.seconds, trace=args.trace, processes=parts)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        metrics = per_layer(rec, layer_names())
    else:
        metrics = end_to_end(rec, failed, attempted)
        for name, (value, unit) in metrics.items():
            log("%-18s %12.4f %-6s (%s)" % (name, value, unit,
                "%d of %d failed" % (failed, attempted) if name == "ok_frac"
                else "median of %d" % len(rec["setup_s"]) if name == "setup_s"
                else "%d frames" % rec["ap_frames"] if name == "fused_ap"
                else "median of %d processes" % parts
                if name == "peak_rss_mb" and parts > 1
                else "whole run" if name == "peak_rss_mb"
                else "%d frames" % rec["frames"]))
    print("# failed_frac %.6f (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
