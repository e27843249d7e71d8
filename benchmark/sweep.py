#!/usr/bin/env python3
"""Repeated benchmark runs: per-metric spread and confirmed bounds.

    python3 benchmark/sweep.py --bench build-bench/polyast_bench --repeat K
        [--seed S] [--spec BENCHMARK.json] [--work-dir DIR] [--write-bounds]

Runs every workload of the spec K times for its run_seconds, untraced,
alternating workloads (run i of each before run i+1 of any), run i with
seed S+i. For each (end-to-end metric, workload) it prints the median,
the quartiles as statistics.quantiles(values, n=4) gives them, the
interquartile spread (q3-q1)/median and the range (max-min)/median. Any
failed or incorrect run makes the exit code 1.

--write-bounds confirms each end-to-end bound in the spec: the workload's
starting bound, widened to 1.5x the measured range and to 3x the
interquartile spread when those are larger, taking the widest over the
workloads. A bound above 0.25 cannot be written; the metric is reported
as unresolved and capped. setup_s gets the cap, the widest bound allowed.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import time

# Starting regression bounds by workload, before widening.
START = {
    "suite-compile": 0.05,
    "scop-scale": 0.05,
    "run-serial": 0.05,
    "jit-cold": 0.10,
    "run-parallel": 0.15,
}
MAX_BOUND = 0.25


def run_once(args, workload, seed, seconds):
    cmd = [args.bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--work-dir", args.work_dir]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = (proc.returncode == 0 and result.get("correct")
          and not result.get("failed"))
    return ok, result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr": (q3 - q1) / med if med else math.inf,
        "range": (max(values) - min(values)) / med if med else math.inf,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bench", required=True)
    p.add_argument("--repeat", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--spec", default="BENCHMARK.json")
    p.add_argument("--work-dir", default="build-bench/work")
    p.add_argument("--write-bounds", action="store_true")
    args = p.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.repeat < 2:
        p.error("--repeat needs at least 2 runs for quartiles")

    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    failures = 0
    for i in range(args.repeat):
        for w in workloads:
            ok, result, wall = run_once(args, w, args.seed + i,
                                        spec["run_seconds"])
            failures += not ok
            walls[w].append(wall)
            metrics = result.get("metrics", {})
            counts = "{}/{}".format(result.get("failed", "?"),
                                    result.get("attempted", "?"))
            shown = " ".join(f"{n}={m['value']:.6g}"
                             for n, m in metrics.items())
            print(f"run {i + 1}/{args.repeat} {w} seed {args.seed + i}: "
                  f"{'ok' if ok else 'FAILED'} {wall:.1f} s "
                  f"({counts} failed) {shown}", flush=True)
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])

    print("\nwall s per run: " + ", ".join(
        f"{w} {statistics.median(walls[w]):.1f}" for w in workloads))
    needed = {}
    print(f"\n{'workload':<14} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'range/med':>9}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vs = values[w].get(m["name"], [])
            if len(vs) < 2:
                continue
            s = spread(vs)
            print(f"{w:<14} {m['name']:<30} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['iqr']:>8.3f} "
                  f"{s['range']:>9.3f}")
            want = max(START.get(w, MAX_BOUND), 1.5 * s["range"], 3 * s["iqr"])
            if want > needed.get(m["name"], (0, ""))[0]:
                needed[m["name"]] = (want, w)

    if args.write_bounds:
        for m in spec["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = MAX_BOUND
            elif m["name"] in needed:
                want, w = needed[m["name"]]
                if want > MAX_BOUND:
                    print(f"unresolved: {m['name']} on {w} needs a bound of "
                          f"{want:.3f} > {MAX_BOUND}")
                m["bound"] = min(math.ceil(want * 100) / 100, MAX_BOUND)
        with open(args.spec, "w") as f:
            json.dump(spec, f, indent=2)
            f.write("\n")
        print("bounds: " + ", ".join(f"{m['name']}={m['bound']}"
                                     for m in spec["end_to_end"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
