#!/usr/bin/env python3
"""Run the benchmark once per seed on one workload and report, per
metric, the median, the quartiles and the quartile spread as a share of
the median (the steadiness test BENCHMARK.json's bounds are set against).

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--trace 0|1]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open("BENCHMARK.json") as f:
        seconds = args.seconds or str(json.load(f)["run_seconds"])
    values = {}
    for seed in seeds:
        t0 = time.time()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
        print(f"seed {seed}: {time.time() - t0:.1f}s {shown}", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:7.4f}")


if __name__ == "__main__":
    main()
