#!/usr/bin/env python3
"""Build and run the PathIx serving benchmark.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run builds the benchmark (and
the pathix library it links) under .bench_build/perfbench; later runs only
re-check the build. The benchmark's last stdout line is the result JSON
object; build output goes to stderr. --trace 1 also writes the traced
window's spans as Trace Event JSON to
.bench_build/perfbench/trace-<workload>-<seed>.json.

--smoke is the benchmark's self-test: every workload, traced and untraced,
must print exactly the metric names BENCHMARK.json lists and pass its
correctness gate, and two same-seed churn_drift runs of one drift cycle
must repeat their page and controller counts exactly.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pathix_perfbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_bench(workload, seed, seconds, trace, echo=True):
    """Runs one benchmark invocation; returns (exit code, result dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_bench(w["name"], 1, 1, trace, echo=False)
            where = "%s --trace %d" % (w["name"], trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, result %r" % (where, code, result))
                continue
            printed = list(result["metrics"].keys())
            if sorted(printed) != sorted(names[trace]):
                problems.append("%s prints %s, BENCHMARK.json lists %s"
                                % (where, sorted(printed), sorted(names[trace])))
            print("smoke: %s ok (%d metrics)" % (where, len(printed)))

    # churn_drift is bounded by ops, not time: --seconds 0.25 is one whole
    # 9000-op drift cycle (0.25 s at its nominal 30k ops/s, rounded up to
    # whole cycles). Twice per mode, same seed: every count repeats.
    repeat = {0: ["pages_per_op", "cost_per_op"],
              1: ["online.reconfigurations", "index.parts_built"]}
    for trace, keys in repeat.items():
        runs = [run_bench("churn_drift", 7, 0.25, trace, echo=False)
                for _ in range(2)]
        if any(code != 0 or r is None for code, r in runs):
            problems.append("churn_drift one-cycle runs failed: %r" % (runs,))
            continue
        for key in keys:
            a, b = (r["metrics"][key]["value"] for _, r in runs)
            if a != b:
                problems.append("churn_drift %s differs across same-seed "
                                "runs: %r vs %r" % (key, a, b))
            else:
                print("smoke: churn_drift %s repeats (%r)" % (key, a))
    for p in problems:
        print("smoke FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    code, _ = run_bench(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
