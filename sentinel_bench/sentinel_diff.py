#!/usr/bin/env python3
"""Compares two sets of bench_sentinel --json reports (parent vs change).

    python3 sentinel_bench/sentinel_diff.py PARENT_DIR CHANGE_DIR

Each directory holds the timed-mode reports of one set of runs, e.g. a copy
of the .bench_build/sentinel/results/ directory run.py fills. Runs pair up by
workload and seed, in file-name order where a seed was run several times;
each run contributes its median. Alternate which side runs first when
collecting the pairs.

For every workload it prints both sides' median and quartiles, the pairs the
change wins, and a verdict for:

  * each end-to-end metric of BENCHMARK.json, with its bound:
      improved      the change wins at least 9 in 10 pairs (ties count for
                    neither) and the medians differ by more than the
                    parent's own quartile spread
      unresolved    the parent's spread is wider than the bound and not
                    every change run beats every parent run
      regressed     the change's median is worse than the parent's by more
                    than the bound
      within bound  otherwise
  * misid_rate, which is exact for a given seed, by pairs instead: regressed
    if the change is worse at any seed, improved if it is better at some
    seed and worse at none, otherwise within bound. Its bound in
    BENCHMARK.json only has to absorb the spread between seeds.
  * the wall-clock rates, which have no bound because they drift between
    runs on a shared machine: improved or regressed by the same 9-in-10 rule
    (losses instead of wins for regressed), otherwise unresolved.

Exits 1 on any regression or when the change fails more operations than the
parent, 2 on unusable input.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Wall-clock metrics of the timed reports: (name, better).
WALL_CLOCK = [
    ("sharded.frames_per_s", "higher"),
    ("sharded.tte_p50_ms", "lower"),
    ("sharded.tte_p99_ms", "lower"),
]
# End-to-end metrics that repeat exactly for a given seed.
EXACT = {"misid_rate"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(directory):
    """{workload: {seed: [report, ...]}} for the timed-mode reports in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        if report.get("benchmark") != "bench_sentinel" or report.get("mode") != "timed":
            continue
        workload = report["workload"]
        runs.setdefault(workload["name"], {}).setdefault(workload["seed"], []).append(report)
    return runs


def fail_rate(reports):
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def classify(parent, change, pairs, better, bound, exact=False):
    """Verdict and pair wins; `bound` None for the unbounded metrics."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if exact:
        if losses:
            return "regressed", wins
        return ("improved" if wins else "within bound"), wins
    if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1:
            return "regressed", wins
        return "unresolved", wins
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    scale = abs(p_med) if p_med else 1.0
    if (p_q3 - p_q1) / scale > bound and not all_better:
        return "unresolved", wins
    if sign * (p_med - c_med) / scale > bound:
        return "regressed", wins
    return "within bound", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bounded = [(m["name"], m["better"], m["bound"]) for m in json.load(f)["end_to_end"]]
    metrics = bounded + [(name, better, None) for name, better in WALL_CLOCK]
    parent_runs, change_runs = load_set(args.parent), load_set(args.change)
    workloads = sorted(set(parent_runs) & set(change_runs))
    if not workloads:
        print("sentinel_diff: no workload has timed reports on both sides", file=sys.stderr)
        return 2

    status = 0
    print(f"{'workload':11s} {'metric':22s} {'parent median [q1, q3]':>40s} "
          f"{'change median [q1, q3]':>40s} {'wins':>7s}  verdict")
    for workload in workloads:
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            print(f"sentinel_diff: {workload}: no seed on both sides", file=sys.stderr)
            return 2
        p_all = [r for reports in p_runs.values() for r in reports]
        c_all = [r for reports in c_runs.values() for r in reports]
        for name, better, bound in metrics:
            if any(name not in r["metrics"] for r in p_all + c_all):
                continue
            parent = [r["metrics"][name]["median"] for r in p_all]
            change = [r["metrics"][name]["median"] for r in c_all]
            pairs = [(p["metrics"][name]["median"], c["metrics"][name]["median"])
                     for s in seeds for p, c in zip(p_runs[s], c_runs[s])]
            verdict, wins = classify(parent, change, pairs, better, bound,
                                     exact=name in EXACT)
            if verdict == "regressed":
                status = 1
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(f"{workload:11s} {name:22s} "
                  f"{p_med:14.6g} [{p_q1:11.6g}, {p_q3:11.6g}] "
                  f"{c_med:14.6g} [{c_q1:11.6g}, {c_q3:11.6g}] "
                  f"{wins:3d}/{len(pairs):<3d}  {verdict}")
        p_fail = fail_rate(p_all)
        c_fail = fail_rate(c_all)
        print(f"{workload:11s} {'fail_rate':22s} {p_fail:40.6g} {c_fail:40.6g}")
        if c_fail > p_fail:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
