#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

  python3 perfbench/selftest.py [--results A.jsonl B.jsonl]

1. Comparator: two synthetic result sets drawn from one distribution
   pass; a 2x slower job_ms_p50 on one workload is flagged by metric
   and workload name; so is a higher failed_frac. With --results, two
   collected sets of the same code must also pass.
2. Digest check: a harness run against a deliberately wrong expected
   digest counts its jobs as failed (correct = false), while the same
   run against expected_digests.txt fails none.
3. Metric names: a short run prints exactly the end-to-end metrics
   BENCHMARK.json lists, and a traced run exactly the per-layer ones.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import compare  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def synthetic(spec, rng, slow=None, failing=None):
    """Ten results per workload with +-1% noise around fixed values."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for seed in range(1, 11):
            metrics = {}
            for metric in spec["end_to_end"]:
                value = 100.0 * (1 + rng.uniform(-0.01, 0.01))
                if metric["name"] == "ok_frac":
                    value = 1.0
                if (name, metric["name"]) == slow:
                    value *= 2
                metrics[metric["name"]] = {"value": value,
                                           "unit": metric["unit"]}
            failed = 1 if name == failing else 0
            rows.append({"workload": name, "seed": seed, "detail": {},
                         "result": {"correct": failed == 0,
                                    "attempted": 10, "failed": failed,
                                    "metrics": metrics}})
    return rows


def test_comparator(spec, results):
    rng = random.Random(7)
    base = synthetic(spec, rng)
    same = synthetic(spec, rng)
    expect(compare.regressions(spec, base, same) == [],
           "comparator passes two sets from one distribution")

    slow = synthetic(spec, rng, slow=("sweep", "job_ms_p50"))
    flagged = compare.regressions(spec, base, slow)
    expect([(w, m) for w, m, *_ in flagged] == [("sweep", "job_ms_p50")],
           "comparator flags a 2x slower job_ms_p50 on sweep, by name")

    failing = synthetic(spec, rng, failing="figures")
    flagged = compare.regressions(spec, base, failing)
    expect(("figures", "failed_frac") in [(w, m) for w, m, *_ in flagged],
           "comparator flags a higher failed_frac on figures, by name")

    if results:
        a, b = (compare.load_results(path) for path in results)
        flagged = compare.regressions(spec, a, b)
        expect(flagged == [], "comparator passes the two collected sets "
               "%s and %s %s" % (results[0], results[1], flagged or ""))


def harness_run(workload, trace, digests):
    args = run.parse_args(["--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)])
    proc = subprocess.run(run.harness_command(args, digests), cwd=run.ROOT,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_digests_and_names(spec):
    run.build()
    code, good = harness_run("size-study", 0, run.DIGESTS)
    expect(code == 0 and good["correct"] and good["failed"] == 0,
           "size-study against expected_digests.txt fails no job")
    expect(sorted(good["metrics"]) ==
           sorted(m["name"] for m in spec["end_to_end"]),
           "an untraced run prints exactly the end-to-end metrics")
    expect(all(good["metrics"][m["name"]]["unit"] == m["unit"]
               for m in spec["end_to_end"]),
           "end-to-end units match BENCHMARK.json")

    with open(run.DIGESTS) as f:
        lines = f.read().splitlines()
    wrong = []
    for line in lines:
        if line.startswith("size/gcc "):
            key, value = line.split()
            line = key + " " + ("0" if value[0] != "0" else "1") + value[1:]
        wrong.append(line)
    with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=run.BUILD_DIR,
                                     delete=False) as f:
        f.write("\n".join(wrong) + "\n")
        wrong_path = f.name
    try:
        code, bad = harness_run("size-study", 0, wrong_path)
    finally:
        os.unlink(wrong_path)
    expect(code == 0 and not bad["correct"] and
           bad["failed"] == bad["attempted"] and bad["attempted"] >= 1,
           "a wrong expected digest counts every job as failed "
           "(%d of %d)" % (bad["failed"], bad["attempted"]))

    code, traced = harness_run("sweep", 1, run.DIGESTS)
    expect(code == 0 and traced["correct"], "a traced sweep run passes")
    expect(sorted(traced["metrics"]) ==
           sorted(m["name"] for m in spec["per_layer"]),
           "a traced run prints exactly the per-layer metrics")
    expect(all(traced["metrics"][m["name"]]["unit"] == m["unit"]
               for m in spec["per_layer"]),
           "per-layer units match BENCHMARK.json")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", nargs=2, metavar="FILE")
    args = parser.parse_args(argv)
    spec = compare.load_spec()
    test_comparator(spec, args.results)
    test_digests_and_names(spec)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
