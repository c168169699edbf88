#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how much each metric spreads.

    python3 perfbench/steadiness.py --workload bus-job --seeds 1-10
    python3 perfbench/steadiness.py --workload all --seeds 1-10 --trace 1

Run it from the repository root. Every run is `run.py --workload W --seed N
--seconds S --trace T`, with S taken from BENCHMARK.json unless --seconds is
given. Each run's result line is kept in .bench_results/W-seedN-traceT.json.
For each metric the report gives the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json, with the share of
failed operations. The exit code is 1 when a run failed or a spread, other
than that of setup_s, exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = ".bench_results"


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(RESULTS, exist_ok=True)

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, done.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                                % (workload, seed, args.trace))
            with open(path, "w") as f:
                json.dump(result, f)
            runs.append(result)
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("== %s: %d runs, failed share %s, all correct: %s"
              % (workload, len(runs), sorted(shares),
                 all(r["correct"] for r in runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "bound %.2f (%.0f%% of it)" % (bound,
                                                      100 * spread / bound)
                if spread > bound and name != "setup_s":
                    flag += "  OVER"
                    ok = False
            print("  %-36s median %-14.6g q1 %-14.6g q3 %-14.6g spread "
                  "%6.2f%%  %s" % (name, q2, q1, q3, 100 * spread, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
