#!/usr/bin/env python3
"""Runs each workload N times and reports how steady every metric is.

    python3 perfbench/steady.py --runs 10 [--workload W ...] [--seed0 1]
                                [--save set.json] [--against other.json]

Each run uses its own seed (seed0, seed0+1, ...). For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json, and the failed share of the runs. --save keeps the values;
--against compares this set's medians with a saved set, each against the
metric's bound, the way two sets of runs of one commit must agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def summarize(spec, sets, against=None):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, results in sets.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed share %s" % (workload, len(results),
                                                ", ".join(map(str, shares))))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            target = m["bound"] / 3.0
            gated = name != "setup_s"
            verdict = ("ok" if spread < target else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            if gated and spread > m["bound"]:
                ok = False
            line = ("  %-12s median %14.6f %-5s q1 %14.6f q3 %14.6f "
                    "spread %6.3f bound %.2f  %s"
                    % (name, med, m["unit"], q1, q3, spread, m["bound"],
                       verdict if gated else "(not gated on spread)"))
            if against and workload in against:
                other = statistics.median(
                    [r["metrics"][name]["value"] for r in against[workload]])
                worse = ((med - other) / other if m["better"] == "lower"
                         else (other - med) / other)
                line += "  vs saved %+.3f" % -worse
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets = {}
    for workload in workloads:
        sets[workload] = []
        for i in range(args.runs):
            seed = args.seed0 + i
            result = run_once(spec, workload, seed)
            if not result["correct"]:
                print("%s seed %d: incorrect output" % (workload, seed))
                return 1
            sets[workload].append(result)
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f)
    return 0 if summarize(spec, sets, against) else 1


if __name__ == "__main__":
    sys.exit(main())
