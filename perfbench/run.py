#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload, or all.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The last line of standard output
is the result object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run keeps
spans, and the metrics are the per-layer ones that perfbench/trace_report.py
derives from them. Without --workload every workload runs in turn and the
last line maps each workload to its result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_report  # noqa: E402

WORKLOADS = ("read_hot", "emotion_storm", "campaign")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "recsys", "engine.h")):
        print("perfbench: no program sources under src/ in " + ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "spa_perfbench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, workload, seed, seconds, spans):
    """Runs one workload; returns (stdout lines, result dict) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if spans else "0"]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print("perfbench: %s exited with %d" % (workload, done.returncode),
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return None
    return lines[:-1], result


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload and returns its result object, or None."""
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%d" % (workload, seed)
    spans = os.path.join(results_dir, tag + ".spans") if trace else None
    ran = run_binary(binary, workload, seed, seconds, spans)
    if ran is None:
        return None
    lines, result = ran
    print("\n".join(lines))
    if not trace:
        with open(os.path.join(results_dir, tag + ".json"), "w") as f:
            json.dump(result, f)
        return result
    untraced = None
    untraced_path = os.path.join(results_dir, tag + ".json")
    if os.path.exists(untraced_path):
        with open(untraced_path) as f:
            untraced = json.load(f)
    spans_read = trace_report.load(spans)
    trace_report.print_report(spans_read, traced=result, untraced=untraced)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": trace_report.per_layer_metrics(spans_read)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(binary, name, args.seed, args.seconds,
                              args.trace == 1)
        if result is None:
            return 1
        results[name] = result
    sys.stdout.flush()
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
