#!/usr/bin/env python3
"""Self-test of the benchmark's determinism and correctness checks.

    python3 perfbench/selftest.py [--workloads route-B ...] [--seconds 2]

For each workload: two untraced and two traced runs with the same seed must
report identical counts (attempted operations, scores, answered ratio and
the per-layer counters below), every run must be correct with no failed
operation, the traced runs' ledger must cover at least 95% of the timed
end-to-end metrics named in COVERED, and a run with a second seed must also
be clean. Exits 1 on any mismatch or failure.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics that are counts or deterministic functions of the seeded inputs.
COUNTS = {
    0: ["ctcr_score", "cct_score", "route_answered_ratio"],
    1: ["data.raw_queries", "data.input_sets", "kernel.pairs_visited",
        "kernel.pairs_pruned", "delta.sets_rebuilt", "delta.dirty_components",
        "store.entries", "store.bytes_per_commit"],
}

COVERED = ["coverage.build_s", "coverage.route_p50_us",
           "coverage.delta_publish_p50_ms", "coverage.recover_ms"]


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    clean = (done.returncode == 0 and result["correct"]
             and result["failed"] == 0 and result["attempted"] > 0)
    return clean, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=["build-D", "route-B", "churn-B"])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    problems = []
    for workload in args.workloads:
        for trace, names in COUNTS.items():
            runs = [run(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            for clean, result in runs:
                if not clean:
                    problems.append(f"{workload} trace={trace}: not clean: "
                                    f"{result['failed']} failed")
            (_, a), (_, b) = runs
            for name in COVERED if trace else []:
                share = a["metrics"][name]["value"]
                print(f"{workload:8} {name:30} {share:.4f}")
                if share < 0.95:
                    problems.append(f"{workload} {name} = {share:.4f} < 0.95")
            keys = [("attempted", a["attempted"], b["attempted"])]
            keys += [(n, a["metrics"][n]["value"], b["metrics"][n]["value"])
                     for n in names]
            for name, x, y in keys:
                status = "same" if x == y else "DIFFERENT"
                print(f"{workload:8} {name:24} {x!r:>22} {y!r:>22} {status}")
                if x != y:
                    problems.append(f"{workload} {name}: {x!r} != {y!r}")
        clean, result = run(workload, args.seed + 1, args.seconds, 0)
        print(f"{workload:8} second seed {args.seed + 1}: "
              f"{'clean' if clean else 'NOT CLEAN'}")
        if not clean:
            problems.append(f"{workload} seed {args.seed + 1} not clean")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
