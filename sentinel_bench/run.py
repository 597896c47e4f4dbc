#!/usr/bin/env python3
"""Builds bench_sentinel from source and runs one benchmark invocation.

    python3 sentinel_bench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
harness (Release) into .bench_build/sentinel; later runs rebuild
incrementally. Build output goes to stderr. The harness's last stdout line,
passed through unchanged, is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Every run also writes its full --json report (per-repetition values,
quartiles, machine block) to .bench_build/sentinel/results/, the input of
sentinel_diff.py.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sentinel")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("steady", "onboarding", "churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_sentinel",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(step)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    mode = "trace" if args.trace else "timed"
    stem = os.path.join(RESULTS, f"{args.workload}-{mode}-seed{args.seed}")
    cmd = [os.path.join(BUILD, "bench_sentinel"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", stem + ".json"]
    if args.trace:
        cmd += ["--trace", "--trace-out", stem + ".spans.tsv"]
    # Own process group: a timeout also stops the harness's forked
    # repetition processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
