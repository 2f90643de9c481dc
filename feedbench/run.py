#!/usr/bin/env python3
"""Build and run one feedbench workload from the root of a checkout.

    python3 feedbench/run.py --workload plan|read-mostly|write-churn \
        --seed N --seconds S --trace 0|1

The first call builds the checkout's own src/ tree plus the benchmark into
.bench_build/feedbench (Release); later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Durable state and traces go to .bench_out/ and the durable state is
removed when the run ends.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("plan", "read-mostly", "write-churn")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "feedbench")
OUT = os.path.join(ROOT, ".bench_out")
# Files whose absence means this is not a checkout of the program.
REQUIRED = (
    "src/store/feed_service.h",
    "src/cluster/cluster_service.h",
    "src/core/planner.h",
    "src/gen/generators.h",
    "feedbench/CMakeLists.txt",
    "feedbench/feedbench.cc",
)


def die(message, code=2):
    print(f"feedbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="feedbench/run.py", allow_abbrev=False,
        description="Build and run one feedbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        die("this directory holds no program sources to build "
            f"(missing: {', '.join(missing)}); run from the root of a checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(f"'{tool}' is not on PATH; it is needed to build the program")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        # Compiler scratch files stay inside the checkout too.
        env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if done.returncode != 0:
                die(f"build failed: {' '.join(cmd)}", code=3)
    return os.path.join(BUILD, "feedbench")


def main(argv):
    args = parse_args(argv)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
