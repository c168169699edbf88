#!/usr/bin/env python3
"""Builds the benchmark in Release and measures one workload.

    python3 perfbench/run.py --workload campus-mbt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; checkpoints go to .bench_scratch.

Each simulation runs in a fresh process, so every one is cold, as a user's
job is, and each simulates its own trace: the run's seed yields one trace
seed per simulation. Simulations repeat until the next one would overrun
--seconds (at least one runs). A metric averages over the run's traces:
contacts_per_s is all contacts over all stepping time, setup_s the median
cold set-up, the others means. A traced run simulates every trace twice,
traced and untraced, and checks that both give the same result.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. The exit code is 0 only
when every check passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["campus-mbt", "bus-job", "city-stream"]
END_TO_END = [
    ("contacts_per_s", "contacts/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]
# Per-process figures that are not per-layer metrics.
PROCESS_ONLY = {"step_s"} | {name for name, _ in END_TO_END}
# A simulation that has not ended by then is reported as a failure.
PROCESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def simulate(binary, workload, seed, traced, verify):
    """Runs one simulation process and returns its parsed result line."""
    t0 = time.monotonic_ns()
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--trace", "1" if traced else "0", "--verify", "1" if verify else "0",
         "--t0-ns", str(t0), "--scratch", ".bench_scratch"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=PROCESS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s exited %d without a result"
                           % (workload, done.returncode))
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def trace_seed(seed, index):
    """Trace seed of a run's index-th simulation; distinct for every pair."""
    return seed * 1000003 + index


def mean_of(results, name):
    return statistics.fmean(r["values"][name]["value"] for r in results)


def sum_of(results, name):
    return math.fsum(r["values"][name]["value"] for r in results)


def measure(binary, workload, seed, seconds, traced):
    """Runs simulation processes for one workload; returns the report."""
    results = []
    start = time.monotonic()
    index = 0
    while True:
        begun = time.monotonic()
        sub = trace_seed(seed, index)
        if traced:
            results.append(simulate(binary, workload, sub, True, True))
        # In an untraced run the first process also verifies; its timings
        # end before the verification starts.
        results.append(simulate(binary, workload, sub, False,
                                not traced and index == 0))
        index += 1
        last = time.monotonic() - begun
        if time.monotonic() - start + last > seconds:
            break

    errors = []
    for r in results:
        errors += ["%s: %s" % (workload, e) for e in r["errors"]]
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    for t, p in zip(traced_runs, plain):
        if t["digest"] != p["digest"]:
            errors.append("%s: the traced and untraced results of one "
                          "trace differ" % workload)
    metrics = {}
    if traced:
        for name, value in traced_runs[0]["values"].items():
            if name not in PROCESS_ONLY:
                metrics[name] = {"value": mean_of(traced_runs, name),
                                 "unit": value["unit"]}
        metrics["obs.tracing_overhead"] = {
            "value": sum_of(traced_runs, "wall_s") / sum_of(plain, "wall_s"),
            "unit": "ratio"}
    else:
        aggregate = {
            "contacts_per_s": sum(r["processed"] for r in plain)
            / sum_of(plain, "step_s"),
            "wall_s": mean_of(plain, "wall_s"),
            "setup_s": statistics.median(
                r["values"]["setup_s"]["value"] for r in plain),
            "cpu_s": mean_of(plain, "cpu_s"),
            "peak_rss_mib": mean_of(plain, "peak_rss_mib"),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": aggregate[name], "unit": unit}
    return {
        "correct": not errors,
        "attempted": sum(r["fed"] for r in results),
        "failed": sum(max(0, r["fed"] - r["processed"]) for r in results),
        "metrics": metrics,
        "errors": errors,
        "processes": len(results),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        reports = {w: measure(binary, w, args.seed, args.seconds,
                              args.trace == 1) for w in names}
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    for workload, report in reports.items():
        print("== %s (seed %d, %d processes, %d contacts attempted, "
              "%d failed)" % (workload, args.seed, report["processes"],
                              report["attempted"], report["failed"]))
        for name, m in report["metrics"].items():
            print("  %-36s %22.6f %s" % (name, m["value"], m["unit"]))
        for e in report["errors"]:
            log("check failed: " + e)

    if len(reports) == 1:
        report = next(iter(reports.values()))
        metrics = report["metrics"]
    else:
        metrics = {"%s/%s" % (w, name): m for w, r in reports.items()
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
