#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload figures|sweep|size-study \
      --seed N --seconds S --trace 0|1

The first run builds perfbench/ together with the library sources in
src/ into .bench_build/perfbench (a few minutes); later runs reuse the
build. Build output goes to stderr. The harness prints a detail line
and, as the last line of stdout, the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 is the traced run,
which reports the per-layer metrics and writes its spans to
.bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tepic_perfbench")
DIGESTS = os.path.join(HERE, "expected_digests.txt")
WORKLOADS = ("figures", "sweep", "size-study")
HARNESS_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to perfbench/; "
             "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "tepic_perfbench"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(step))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def harness_command(args, digests=DIGESTS):
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--digests", digests]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    return command


def main(argv):
    args = parse_args(argv)
    build()
    try:
        code = subprocess.run(harness_command(args), cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    if code != 0:
        fail("harness exited with code %d" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
