#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

Runs every workload twice at a tiny size with one seed, untraced and
traced, and asserts that
  * every run is correct (all answers checked, mirror guard passed);
  * the metric names each run emits are exactly the end_to_end
    (untraced) or per_layer (traced) names of BENCHMARK.json;
  * every metric that counts work rather than time (allocation, plans
    explored, rows processed, hit ratios, cache bytes, peak heap, ...)
    repeats exactly between the two runs.

Run from the repository root:  python3 perfbench/test/selftest.py
"""
import json
import subprocess
import sys

SEED = "3"
# wall-clock metrics: they may differ between two runs
TIMED_UNITS = {"ms", "s", "1/s"}


def run(workload, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", trace, "--tiny"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {"0": [m["name"] for m in bench["end_to_end"]],
                "1": [m["name"] for m in bench["per_layer"]]}
    problems = []
    for w in [wl["name"] for wl in bench["workloads"]]:
        for trace in ("0", "1"):
            first, second = run(w, trace), run(w, trace)
            tag = f"{w} --trace {trace}"
            for res in (first, second):
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"{tag}: incorrect run {res}")
                if list(res["metrics"]) != expected[trace]:
                    problems.append(f"{tag}: metric names {list(res['metrics'])} "
                                    f"differ from BENCHMARK.json {expected[trace]}")
            counts = 0
            for name, m in first["metrics"].items():
                if m["unit"] in TIMED_UNITS:
                    continue
                counts += 1
                again = second["metrics"].get(name, {}).get("value")
                if m["value"] != again:
                    problems.append(f"{tag}: {name} not repeatable: {m['value']} vs {again}")
            print(f"{tag}: {counts} count metrics compared", file=sys.stderr)
    for p in problems:
        print("FAIL", p)
    if problems:
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
