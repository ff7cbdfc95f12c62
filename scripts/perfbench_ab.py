#!/usr/bin/env python3
"""A/B-compare two pathix_perfbench binaries in alternating pairs.

    python3 scripts/perfbench_ab.py PARENT_BIN CHANGE_BIN \\
        --workload lookup --seeds 901-910 --seconds 20
    python3 scripts/perfbench_ab.py --selftest

Each seed is one pair: both binaries run the workload on that seed with
--trace 0, the parent first on the first seed, the change first on the
next, and so on, because the host's throughput drifts between minutes and
only alternating pairs compare. Every run prints one row.

The end-to-end metrics, their direction (`better`) and their regression
bound are read from BENCHMARK.json at the root of this checkout. For each
metric the summary prints both sides' median and quartiles and the pairs
the change won (ties count for neither side), then one verdict:

  gain              the change won at least 9/10 of all pairs and its
                    median beats the parent's by more than the parent's
                    interquartile range;
  worse than bound  the change's median is worse than the parent's by more
                    than the bound (a fraction of the parent's median);
  within bound      anything else.

The exit code is 1 when a run fails (non-zero exit or `correct: false`) or
a metric is worse than its bound, else 0. --selftest checks the verdict
rules on canned rows and that BENCHMARK.json declares every field read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end_metrics():
    """The (name, better, bound) triples BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"], float(m["bound"]))
            for m in spec["end_to_end"]]


def parse_seeds(text):
    """'901-905,910' -> [901, 902, 903, 904, 905, 910]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns a row dict (metrics empty on failure)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = {}
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return {"correct": proc.returncode == 0 and bool(result.get("correct")),
            "attempted": result.get("attempted", 0), "metrics": metrics}


def quartiles(values):
    """(q1, median, q3), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summarize(pairs, metrics):
    """Per metric: both sides' quartiles, the change's wins and a verdict.

    pairs is a list of {"parent": row, "change": row}; a metric missing
    from either row of a pair leaves that pair out of the metric.
    """
    out = []
    for name, better, bound in metrics:
        sign = 1 if better == "higher" else -1
        values = {side: [] for side in SIDES}
        wins = losses = ties = 0
        for pair in pairs:
            p = pair["parent"]["metrics"].get(name)
            c = pair["change"]["metrics"].get(name)
            if p is None or c is None:
                continue
            values["parent"].append(p)
            values["change"].append(c)
            if c == p:
                ties += 1
            elif (c - p) * sign > 0:
                wins += 1
            else:
                losses += 1
        n = wins + losses + ties
        if n == 0:
            continue
        pq = quartiles(values["parent"])
        cq = quartiles(values["change"])
        gap = (cq[1] - pq[1]) * sign  # > 0: the change's median is better
        if wins >= 0.9 * n and gap > pq[2] - pq[0]:
            verdict = "gain"
        elif -gap > bound * abs(pq[1]):
            verdict = "worse than bound"
        else:
            verdict = "within bound"
        out.append({"name": name, "better": better, "bound": bound,
                    "parent": pq, "change": cq, "wins": wins,
                    "losses": losses, "ties": ties, "verdict": verdict})
    return out


def fmt(x):
    return "%.6g" % x


def print_summary(summary):
    print("%-16s %-6s %5s  %-32s %-32s %-13s %s" % (
        "metric", "better", "bound", "parent median [q1, q3]",
        "change median [q1, q3]", "won/lost/tied", "verdict"))
    for s in summary:
        p, c = s["parent"], s["change"]
        print("%-16s %-6s %5s  %-32s %-32s %-13s %s" % (
            s["name"], s["better"], fmt(s["bound"]),
            "%s [%s, %s]" % (fmt(p[1]), fmt(p[0]), fmt(p[2])),
            "%s [%s, %s]" % (fmt(c[1]), fmt(c[0]), fmt(c[2])),
            "%d/%d/%d" % (s["wins"], s["losses"], s["ties"]), s["verdict"]))


def selftest():
    problems = []
    declared = end_to_end_metrics()
    if not declared:
        problems.append("BENCHMARK.json declares no end-to-end metric")
    for name, better, bound in declared:
        if better not in ("higher", "lower") or bound < 0:
            problems.append("BENCHMARK.json: %s has better=%r bound=%r"
                            % (name, better, bound))

    def pairs(parent, change):
        return [{"parent": {"metrics": {"m": p}},
                 "change": {"metrics": {"m": c}}}
                for p, c in zip(parent, change)]

    parent = [100, 104, 98, 101, 99, 103, 97, 102, 100, 105]
    cases = [
        # 10/10 wins; median gap 20 against a parent IQR of 3.5.
        ("higher", 0.25, parent, [x + 20 for x in parent], "gain",
         (10, 0, 0)),
        # 9/10 wins (one tie) is still a gain: ties count for neither side
        # but stay in the pair count.
        ("higher", 0.25, parent, [x + 20 for x in parent[:9]] + [105],
         "gain", (9, 0, 1)),
        # 8/10 wins is not enough, however large the gap.
        ("higher", 0.25, parent,
         [x + 20 for x in parent[:8]] + parent[8:], "within bound",
         (8, 0, 2)),
        # All wins, but the median moves less than the parent's IQR.
        ("higher", 0.25, parent, [x + 1 for x in parent], "within bound",
         (10, 0, 0)),
        # Lower is better: a 30% higher median is worse than a 25% bound.
        ("lower", 0.25, parent, [x * 1.3 for x in parent],
         "worse than bound", (0, 10, 0)),
        # ... and a 20% higher one is within it.
        ("lower", 0.25, parent, [x * 1.2 for x in parent], "within bound",
         (0, 10, 0)),
        # Lower is better and the change is lower everywhere: a gain.
        ("lower", 0.25, parent, [x - 10 for x in parent], "gain",
         (10, 0, 0)),
        # Equal runs tie everywhere.
        ("higher", 0.01, parent, parent, "within bound", (0, 0, 10)),
    ]
    for better, bound, p, c, want, counts in cases:
        (s,) = summarize(pairs(p, c), [("m", better, bound)])
        got = (s["wins"], s["losses"], s["ties"])
        if s["verdict"] != want or got != counts:
            problems.append("better=%s bound=%s change=%r: verdict %r %r, "
                            "want %r %r" % (better, bound, c, s["verdict"],
                                            got, want, counts))
    q1, median, q3 = quartiles([1, 2, 3, 4])
    if (q1, median, q3) != (1.75, 2.5, 3.25):
        problems.append("quartiles([1, 2, 3, 4]) = %r" % ((q1, median, q3),))
    if parse_seeds("901-903,910") != [901, 902, 903, 910]:
        problems.append("parse_seeds('901-903,910') = %r"
                        % parse_seeds("901-903,910"))
    for p in problems:
        print("selftest FAILED: " + p, file=sys.stderr)
    if not problems:
        print("selftest: %d verdict cases ok" % len(cases))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="parent pathix_perfbench")
    parser.add_argument("change", nargs="?", help="change pathix_perfbench")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="e.g. 901-910 or 901,903,905")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.parent, args.change, args.workload, args.seeds,
                args.seconds):
        parser.error("PARENT CHANGE --workload --seeds --seconds are "
                     "required")
    metrics = end_to_end_metrics()
    binaries = {"parent": args.parent, "change": args.change}
    names = [m[0] for m in metrics]
    print("seed first side    correct attempted " + " ".join(names))
    pairs = []
    failed = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            row = run_once(binaries[side], args.workload, seed, args.seconds)
            pair[side] = row
            failed += 0 if row["correct"] else 1
            print("%4d %-5s %-6s %-7s %9d %s" % (
                seed, order[0], side, row["correct"], row["attempted"],
                " ".join(fmt(row["metrics"][n]) if n in row["metrics"]
                         else "-" for n in names)))
            sys.stdout.flush()
        pairs.append(pair)
    print()
    summary = summarize(pairs, metrics)
    print_summary(summary)
    if failed:
        print("%d run(s) failed their correctness gate" % failed)
    worse = [s for s in summary if s["verdict"] == "worse than bound"]
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
