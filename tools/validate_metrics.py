#!/usr/bin/env python3
"""Validate tepic observability JSON outputs.

Usage:
  validate_metrics.py FILE...            validate metrics files
                                         (schema tepic-metrics-v1)
  validate_metrics.py --trace FILE...    validate Chrome trace-event
                                         files (--trace=... output)
  validate_metrics.py --compare A B      additionally require the
                                         deterministic sections
                                         (counters, gauges,
                                         histograms) of A and B to be
                                         identical — the --jobs
                                         determinism contract; the
                                         timings and runtime sections
                                         are wall-clock/environment
                                         data and excluded. "prof."
                                         gauges (host throughput) are
                                         compared by key set only:
                                         their values are wall-clock
                                         rates, but which gauges a
                                         binary emits is part of the
                                         contract. "cache.*_rate" and
                                         "hot.*_rate" gauges (derived
                                         miss/coverage ratios) are
                                         masked the same way: their
                                         numerator and denominator
                                         counters are already
                                         compared exactly

Exits non-zero with a diagnostic on the first violation. Only the
standard library is used.
"""

import sys

from tepic_common import die, key_diff, load

DETERMINISTIC_SECTIONS = ("counters", "gauges", "histograms")
ALL_SECTIONS = DETERMINISTIC_SECTIONS + ("timings", "runtime")
SUPPORTED_SCHEMAS = ("tepic-metrics-v1",)


def fail(msg):
    die(msg, 1)


def check_metrics(path, doc):
    schema = doc.get("schema")
    if schema is None:
        fail(f"{path}: missing 'schema' field "
             f"(expected one of {list(SUPPORTED_SCHEMAS)})")
    if schema not in SUPPORTED_SCHEMAS:
        fail(f"{path}: unknown schema version {schema!r} "
             f"(supported: {list(SUPPORTED_SCHEMAS)})")
    for section in ALL_SECTIONS:
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing section '{section}'")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter '{name}' is not a non-negative int")
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(f"{path}: gauge '{name}' is not a number")
    for name, hist in doc["histograms"].items():
        if not isinstance(hist, dict) or "total" not in hist \
                or "bins" not in hist:
            fail(f"{path}: histogram '{name}' malformed")
        binsum = sum(w for _, w in hist["bins"]) + hist.get("overflow", 0)
        if binsum != hist["total"]:
            fail(f"{path}: histogram '{name}' bins+overflow ({binsum}) "
                 f"!= total ({hist['total']})")
    for name, stat in doc["timings"].items():
        for key in ("count", "min", "max", "mean", "sum"):
            if key not in stat:
                fail(f"{path}: timing '{name}' missing '{key}'")
    print(f"validate_metrics: {path}: ok "
          f"({len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, "
          f"{len(doc['histograms'])} histograms, "
          f"{len(doc['timings'])} timings)")


def check_trace(path, doc):
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
    for i, ev in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        if ev["ph"] == "X" and "dur" not in ev:
            fail(f"{path}: complete event {i} missing 'dur'")
    print(f"validate_metrics: {path}: ok ({len(events)} trace events)")


def masked_gauge(key):
    """Gauges whose values are compared as mere presence.

    prof.* gauges are host throughput rates (wall-clock data).
    cache.*_rate, hot.*_rate and sweep.*_rate gauges are derived
    ratios of exact counters (or, for the sweep, of wall time) — the
    counters themselves are compared exactly, so re-comparing the
    float quotient only adds a formatting-sensitive duplicate; like
    prof.*, their key set stays part of the contract.
    """
    if key.startswith("prof."):
        return True
    return key.endswith("_rate") and \
        (key.startswith("cache.") or key.startswith("hot.") or
         key.startswith("sweep."))


def comparable_section(doc, section):
    """The section with env-dependent values masked out.

    The key set of a masked gauge is part of the determinism contract
    (it must not depend on --jobs); only its value is exempt.
    """
    if section != "gauges":
        return doc[section]
    return {k: (None if masked_gauge(k) else v)
            for k, v in doc[section].items()}


def compare(path_a, path_b):
    a, b = load(path_a, fail), load(path_b, fail)
    check_metrics(path_a, a)
    check_metrics(path_b, b)
    for section in DETERMINISTIC_SECTIONS:
        sec_a = comparable_section(a, section)
        sec_b = comparable_section(b, section)
        if sec_a != sec_b:
            fail(f"deterministic section '{section}' differs: " +
                 key_diff(path_a, sec_a, path_b, sec_b))
    print(f"validate_metrics: deterministic sections of {path_a} and "
          f"{path_b} are identical")


def main(argv):
    if len(argv) >= 1 and argv[0] == "--compare":
        if len(argv) != 3:
            fail("--compare takes exactly two files")
        compare(argv[1], argv[2])
        return
    if len(argv) >= 1 and argv[0] == "--trace":
        if len(argv) < 2:
            fail("--trace takes at least one file")
        for path in argv[1:]:
            check_trace(path, load(path, fail))
        return
    if not argv:
        fail("no files given (see --help in the module docstring)")
    for path in argv:
        check_metrics(path, load(path, fail))


if __name__ == "__main__":
    main(sys.argv[1:])
