#!/usr/bin/env python3
"""Run one feedbench workload N times and summarise each metric.

    python3 feedbench/repeat.py --workload read-mostly --runs 10 [--seed 1]
        [--seconds S] [--trace 0|1]

Run k uses seed (--seed + k). For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json: "ok" when the spread is under a third of the bound, "near"
when under the bound, "WIDE" otherwise. It also prints the failed share of
every run, which must be identical across runs. Exits non-zero if any run
fails, reports correct=false, or a spread exceeds its bound.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for k in range(args.runs):
        out = run_once(args.workload, args.seed + k, args.seconds, args.trace)
        results.append(out)
        share = out["failed"] / out["attempted"]
        print(f"run {k + 1}/{args.runs} seed={args.seed + k} correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']} share={share:.6g}",
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = not all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        bad = True
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        verdict = ""
        if name in bounds:
            bound = bounds[name]
            verdict = f"{bound:6.2f} " + ("ok" if spread < bound / 3 else
                                          "near" if spread <= bound else "WIDE")
            if spread > bound:
                bad = True
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':40} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
