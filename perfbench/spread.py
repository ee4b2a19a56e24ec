#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py --workloads route-B churn-B --seeds 1-10

Runs perfbench/run.py once per (workload, seed), untraced, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is marked; setup_s is exempt from the
spread rule and only its median is compared between sets of runs. With
--json the raw results are also written to a file for later comparison.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="write raw results here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    status = 0
    for workload in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            # Unscaled times from the report's raw: line, for comparison.
            for line in lines:
                if line.startswith("raw:"):
                    for field in line[4:].split():
                        name, value = field.split("=")
                        values.setdefault("raw." + name, []).append(
                            float(value))
                for host in ("host_slowdown", "host_par_ref_ms"):
                    found = re.search(host + r"=([0-9.]+)", line)
                    if found:
                        values.setdefault(host, []).append(
                            float(found.group(1)))
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED "
                      f"({result['failed']}/{result['attempted']})")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        raw[workload] = values
        print(f"\n{workload} ({len(parse_seeds(args.seeds))} seeds)")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = ""
            if name in bounds and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3" if spread <= bound else "  > BOUND"
            print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {bound:6.2f}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(status)


if __name__ == "__main__":
    main()
