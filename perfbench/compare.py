#!/usr/bin/env python3
"""Collect, summarise and compare sets of benchmark results.

Run from the repository root:

  # run every workload of BENCHMARK.json once per seed, untraced,
  # and append the results
  python3 perfbench/compare.py collect --out runs.jsonl [--seeds 1-10]

  # per workload and end-to-end metric: median and quartile spread
  # (IQR / median) against the metric's bound in BENCHMARK.json
  python3 perfbench/compare.py spread runs.jsonl

  # flag every (workload, metric) whose median got worse than its
  # bound, and any rise in failed_frac (failed / attempted)
  python3 perfbench/compare.py compare base.jsonl new.jsonl

Each line of a result file is {"workload", "seed", "detail", "result"},
where result is the object run.py prints last.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def load_results(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    """One untraced run.py invocation; returns (detail, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: run.py exited %d" %
                           (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    detail = {}
    if len(lines) > 1 and lines[-2].startswith('{"detail"'):
        detail = json.loads(lines[-2])["detail"]
    return detail, result


def collect(args):
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in parse_seeds(args.seeds):
            detail, result = run_once(workload, seed, spec["run_seconds"])
            row = {"workload": workload, "seed": seed, "detail": detail,
                   "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(row, sort_keys=True) + "\n")
            print("%-10s seed %-3d correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                file=sys.stderr)
    return 0


def by_workload(rows):
    groups = {}
    for row in rows:
        groups.setdefault(row["workload"], []).append(row)
    return groups


def metric_values(rows, name):
    return [row["result"]["metrics"][name]["value"] for row in rows
            if name in row["result"]["metrics"]]


def failed_frac(rows):
    attempted = sum(row["result"]["attempted"] for row in rows)
    failed = sum(row["result"]["failed"] for row in rows)
    return failed / attempted if attempted else 0.0


def quartile_spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def spread(args):
    spec = load_spec()
    groups = by_workload(load_results(args.results))
    bad = []
    for workload, rows in sorted(groups.items()):
        seeds = sorted(row["seed"] for row in rows)
        print("%s: %d runs, seeds %s, failed_frac %.4g" % (
            workload, len(rows), seeds, failed_frac(rows)))
        for metric in spec["end_to_end"]:
            values = metric_values(rows, metric["name"])
            if not values:
                bad.append("%s/%s missing" % (workload, metric["name"]))
                continue
            s = quartile_spread(values)
            note = ""
            if s > metric["bound"]:
                note = "OVER BOUND"
                bad.append("%s/%s" % (workload, metric["name"]))
            elif s > metric["bound"] / 3:
                note = "over bound/3"
            print("  %-16s median %-14.6g spread %6.2f%%  bound %5.1f%%  %s"
                  % (metric["name"], statistics.median(values), 100 * s,
                     100 * metric["bound"], note))
    if bad:
        print("spread check FAILED: " + ", ".join(bad))
        return 1
    return 0


def regressions(spec, base_rows, new_rows):
    """Every (workload, metric) of new worse than base beyond its bound."""
    flagged = []
    base_groups = by_workload(base_rows)
    new_groups = by_workload(new_rows)
    for workload in sorted(set(base_groups) & set(new_groups)):
        base, new = base_groups[workload], new_groups[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = metric_values(base, name)
            new_values = metric_values(new, name)
            if not base_values or not new_values:
                flagged.append((workload, name, "missing", None, None))
                continue
            b = statistics.median(base_values)
            n = statistics.median(new_values)
            if metric["better"] == "lower":
                worse = (n - b) / b if b else 0.0
            else:
                worse = (b - n) / b if b else 0.0
            if worse > metric["bound"]:
                flagged.append((workload, name, "%+.1f%%" % (100 * worse),
                                b, n))
        b, n = failed_frac(base), failed_frac(new)
        if n > b:
            flagged.append((workload, "failed_frac", "higher", b, n))
    return flagged


def compare(args):
    spec = load_spec()
    flagged = regressions(spec, load_results(args.base),
                          load_results(args.new))
    for workload, name, change, b, n in flagged:
        print("REGRESSION workload=%s metric=%s change=%s base=%s new=%s"
              % (workload, name, change, b, n))
    if not flagged:
        print("OK: no end-to-end metric worse than its bound, "
              "failed_frac not higher")
    return 1 if flagged else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(func=collect)
    p = sub.add_parser("spread")
    p.add_argument("results")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
