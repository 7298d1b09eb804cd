#!/usr/bin/env python3
"""Diff two metrics/size snapshots and rank what grew or shrank.

Usage:
  tepic_diff.py OLD NEW [--top N] [--out FILE]
                [--append-trend FILE] [--label LABEL]

OLD and NEW are either:
  * a metrics snapshot (BENCH_*.json, schema tepic-metrics-v1),
  * a size report (SIZE_*.json, schema tepic-size-v1), or
  * directories — every snapshot file name present in both sides is
    paired and diffed (so `tepic_diff.py bench/baselines .` compares a
    fresh run against the committed baselines).

The report is a Markdown ranking of per-leaf deltas — "what grew, what
shrank, and which scheme/field/function is responsible" — plus a
scheme-totals table. Aggregate `*.total_bits` keys are kept out of the
ranked tables so the top-ranked row is always the most specific leaf
(the responsible field), not the total it rolls up into.

--append-trend FILE appends one JSON line to FILE (created if absent)
recording the NEW side's headline totals: label, UTC timestamp,
per-scheme total_bits, the host-throughput gauges ("prof." gauges,
averaged across the snapshots that report them), and the per-scheme
3C miss-class totals ("cache.<scheme>.miss.*" counters, summed across
snapshots — the cache-behavior headline), and the per-scheme
dynamic-fetch concentration ("hot.<scheme>.blocks_simulated" and
"hot.<scheme>.coverage.top10_fetches" counters, summed — their ratio
is the top-10 hot/cold coverage headline). Run it after every bench
sweep to maintain bench/trend.jsonl.

"prof." gauges are host throughput rates (wall-clock data): they are
excluded from the diff/ranking itself — a machine being 5% faster is
not a snapshot difference — and only harvested for the trend log.

Exit codes: 0 = snapshots identical, 1 = differences found,
2 = usage/IO error. Only the standard library is used.
"""

import argparse
import datetime
import json
import os
import sys

from tepic_common import usage_error, load, write_file

SIZE_SCHEMA = "tepic-size-v1"
METRICS_SCHEMA = "tepic-metrics-v1"
GAUGE_EPSILON = 1e-9


# --- flattening ------------------------------------------------------
#
# Both snapshot kinds flatten to {key: number}. Keys are chosen so the
# scheme is always recoverable for the "responsible" column:
#   counter size.<scheme>.<leaf...>      (metrics snapshots)
#   size <workload>/<scheme>/tree/<leaf> (size reports)
#   size <workload>/<scheme>/func/<fn>/<block>


def flatten_tree(flat, prefix, node):
    for key, value in node.items():
        path = f"{prefix}/{key}"
        if isinstance(value, dict):
            flatten_tree(flat, path, value)
        else:
            flat[path] = value


def flatten_size(doc):
    flat = {}
    for workload, wdoc in sorted(doc.get("workloads", {}).items()):
        for scheme, sdoc in sorted(wdoc.get("schemes", {}).items()):
            prefix = f"size {workload}/{scheme}"
            flat[f"{prefix}/total_bits"] = sdoc.get("total_bits", 0)
            flatten_tree(flat, f"{prefix}/tree",
                         sdoc.get("tree", {}))
            # by_function's root key is already "func".
            flatten_tree(flat, prefix, sdoc.get("by_function", {}))
    return flat


def flatten_metrics(doc):
    flat = {}
    for key, value in doc.get("counters", {}).items():
        flat[f"counter {key}"] = value
    for key, value in doc.get("gauges", {}).items():
        # Host throughput is wall-clock data, not a diffable metric;
        # collect() harvests it separately for --append-trend.
        if key.startswith("prof."):
            continue
        flat[f"gauge {key}"] = value
    for key, hist in doc.get("histograms", {}).items():
        flat[f"hist {key}.total"] = hist.get("total", 0)
        for bin_value, count in hist.get("bins", []):
            flat[f"hist {key}.bin{bin_value}"] = count
    return flat


def flatten(path, doc):
    schema = doc.get("schema")
    if schema == SIZE_SCHEMA:
        return flatten_size(doc)
    if schema == METRICS_SCHEMA:
        return flatten_metrics(doc)
    usage_error(f"{path}: unknown schema {schema!r} (expected "
                f"{METRICS_SCHEMA} or {SIZE_SCHEMA})")


def is_total(key):
    return key.endswith("total_bits") or key.endswith(".total")


def responsible(key):
    """Scheme (and field/function detail) a flattened key charges."""
    if key.startswith("size "):
        parts = key[len("size "):].split("/")
        # <workload>/<scheme>/...
        if len(parts) >= 2:
            return parts[1]
        return parts[0]
    name = key.split(" ", 1)[1] if " " in key else key
    if name.startswith("size."):
        # size.<scheme>.<leaf...>; scheme names never contain '.'.
        parts = name.split(".")
        if len(parts) >= 2:
            return parts[1]
    return "-"


# --- diffing ---------------------------------------------------------


def diff_flat(old, new):
    """Returns (changed, added, removed); changed rows carry deltas."""
    changed = []
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if a == b:
            continue
        if isinstance(a, float) or isinstance(b, float):
            scale = max(abs(a), abs(b))
            if abs(a - b) <= GAUGE_EPSILON * scale:
                continue
        changed.append((key, a, b, b - a))
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    return changed, added, removed


def fmt(value):
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def fmt_delta(delta):
    sign = "+" if delta > 0 else ""
    return f"{sign}{fmt(delta)}"


def render_ranked(lines, title, rows, top):
    if not rows:
        return
    lines.append(f"### {title}")
    lines.append("")
    lines.append("| rank | delta | old | new | responsible | key |")
    lines.append("|---:|---:|---:|---:|---|---|")
    for rank, (key, a, b, delta) in enumerate(rows[:top], 1):
        lines.append(f"| {rank} | {fmt_delta(delta)} | {fmt(a)} | "
                     f"{fmt(b)} | {responsible(key)} | `{key}` |")
    if len(rows) > top:
        lines.append(f"| | … | | | | {len(rows) - top} more row(s) "
                     f"omitted (--top) |")
    lines.append("")


def render_pair(name, old, new, top):
    """Markdown report body for one snapshot pair; ([], 0) if equal."""
    changed, added, removed = diff_flat(old, new)
    diff_count = len(changed) + len(added) + len(removed)
    lines = [f"## {name}", ""]
    if diff_count == 0:
        lines.append("No differences.")
        lines.append("")
        return lines, 0

    totals = [row for row in changed if is_total(row[0])]
    leaves = [row for row in changed if not is_total(row[0])]
    leaves.sort(key=lambda row: (-abs(row[3]), row[0]))

    if totals:
        lines.append("### Scheme totals")
        lines.append("")
        lines.append("| delta | old | new | responsible | key |")
        lines.append("|---:|---:|---:|---|---|")
        for key, a, b, delta in sorted(totals):
            lines.append(f"| {fmt_delta(delta)} | {fmt(a)} | {fmt(b)} "
                         f"| {responsible(key)} | `{key}` |")
        lines.append("")

    grew = [row for row in leaves if row[3] > 0]
    shrank = [row for row in leaves if row[3] < 0]
    render_ranked(lines, "What grew", grew, top)
    render_ranked(lines, "What shrank", shrank, top)

    for title, keys, source in (("Added keys", added, new),
                                ("Removed keys", removed, old)):
        if keys:
            lines.append(f"### {title}")
            lines.append("")
            for key in keys[:top]:
                lines.append(f"- `{key}` = {fmt(source[key])}")
            if len(keys) > top:
                lines.append(f"- … {len(keys) - top} more")
            lines.append("")
    return lines, diff_count


# --- trend log -------------------------------------------------------


def headline_totals(flat):
    """Per-scheme total_bits from one flattened snapshot."""
    totals = {}
    for key, value in flat.items():
        if not is_total(key) or not key.endswith("total_bits"):
            continue
        totals[responsible(key)] = totals.get(responsible(key), 0) \
            + value
    return totals


def cache_miss_totals(flat):
    """Per-scheme 3C miss-class counters from one flattened snapshot:
    "counter cache.<scheme>.miss.<class>" -> {"<scheme>.<class>": n}.
    """
    totals = {}
    for key, value in flat.items():
        if not key.startswith("counter cache."):
            continue
        parts = key[len("counter "):].split(".")
        if len(parts) == 4 and parts[2] == "miss":
            slot = f"{parts[1]}.{parts[3]}"
            totals[slot] = totals.get(slot, 0) + value
    return totals


def hotness_totals(flat):
    """Per-scheme dynamic-fetch concentration from one flattened
    snapshot: "counter hot.<scheme>.blocks_simulated" and
    "counter hot.<scheme>.coverage.top10_fetches" ->
    {"<scheme>.blocks_simulated": n, "<scheme>.top10_fetches": n}.
    The ratio is the top-10 hot/cold coverage headline."""
    totals = {}
    for key, value in flat.items():
        if not key.startswith("counter hot."):
            continue
        parts = key[len("counter "):].split(".")
        if len(parts) == 3 and parts[2] == "blocks_simulated":
            slot = f"{parts[1]}.blocks_simulated"
        elif len(parts) == 4 and parts[2] == "coverage" \
                and parts[3] == "top10_fetches":
            slot = f"{parts[1]}.top10_fetches"
        else:
            continue
        totals[slot] = totals.get(slot, 0) + value
    return totals


def sweep_summary(path):
    """Pareto-front extrema from SWEEP_*.json files next to the
    snapshots (tepic-sweep-v1). The sweep answers "what should this
    core look like?"; the trend records whether that answer moved:
    per report, the configuration count, the front size, and the
    front's best size / best aggregate IPC."""
    if not os.path.isdir(path):
        return {}
    out = {}
    for name in sorted(os.listdir(path)):
        if not (name.startswith("SWEEP_") and name.endswith(".json")):
            continue
        doc = load(os.path.join(path, name))
        structure = doc.get("structure")
        if doc.get("schema") != "tepic-sweep-v1" \
                or not isinstance(structure, dict):
            continue
        aggregates = structure.get("aggregates", {})
        front = [key for key in structure.get("front", [])
                 if key in aggregates]
        if not front:
            continue
        metrics = [aggregates[key]["metrics"] for key in front]
        out[doc.get("name") or name] = {
            "configs": len(aggregates),
            "front_size": len(front),
            "front_min_size_bits": min(m["size_bits"]
                                       for m in metrics),
            "front_max_ipc_e6": max(m["ipc_e6"] for m in metrics),
        }
    return out


def append_trend(trend_path, label, new_flats, new_throughput,
                 sweeps):
    totals = {}
    misses = {}
    hotness = {}
    for flat in new_flats.values():
        for scheme, bits in headline_totals(flat).items():
            totals[scheme] = totals.get(scheme, 0) + bits
        for slot, count in cache_miss_totals(flat).items():
            misses[slot] = misses.get(slot, 0) + count
        for slot, count in hotness_totals(flat).items():
            hotness[slot] = hotness.get(slot, 0) + count
    # Mean across the snapshots that measured each rate (a binary
    # that did no fetch work reports no fetch gauge at all).
    rates = {}
    for gauges in new_throughput.values():
        for key, value in gauges.items():
            if value > 0:
                rates.setdefault(key, []).append(value)
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
        "label": label,
        "total_bits": dict(sorted(totals.items())),
        "throughput": {key: round(sum(vs) / len(vs), 3)
                       for key, vs in sorted(rates.items())},
        "cache_misses": dict(sorted(misses.items())),
        "hotness": dict(sorted(hotness.items())),
        "sweep": dict(sorted(sweeps.items())),
    }
    try:
        with open(trend_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as e:
        usage_error(f"{trend_path}: {e}")
    return record


# --- entry point -----------------------------------------------------


def snapshot_names(directory):
    return sorted(n for n in os.listdir(directory)
                  if (n.startswith("BENCH_") or n.startswith("SIZE_"))
                  and n.endswith(".json"))


def throughput_gauges(doc):
    """The snapshot's prof.* gauges (empty for size reports)."""
    if doc.get("schema") != METRICS_SCHEMA:
        return {}
    return {k: v for k, v in doc.get("gauges", {}).items()
            if k.startswith("prof.")}


def collect(path):
    """({name: flat}, {name: prof gauges}) for a file or directory."""
    if os.path.isdir(path):
        flats, rates = {}, {}
        for name in snapshot_names(path):
            full = os.path.join(path, name)
            doc = load(full)
            flats[name] = flatten(full, doc)
            rates[name] = throughput_gauges(doc)
        if not flats:
            usage_error(f"no BENCH_*.json or SIZE_*.json in '{path}'")
        return flats, rates
    if not os.path.exists(path):
        usage_error(f"'{path}' not found")
    doc = load(path)
    name = os.path.basename(path)
    return ({name: flatten(path, doc)},
            {name: throughput_gauges(doc)})


def main(argv):
    parser = argparse.ArgumentParser(
        prog="tepic_diff",
        description="Diff two metrics/size snapshots, ranked by "
                    "|delta|.")
    parser.add_argument("old", help="snapshot file or directory")
    parser.add_argument("new", help="snapshot file or directory")
    parser.add_argument("--top", type=int, default=20,
                        help="rows per ranked table (default 20)")
    parser.add_argument("--out", default=None,
                        help="write the Markdown report here "
                             "(default stdout)")
    parser.add_argument("--append-trend", default=None, metavar="FILE",
                        help="append NEW's headline totals to this "
                             "JSONL trend log")
    parser.add_argument("--label", default=None,
                        help="trend record label (default: NEW's "
                             "basename)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        sys.exit(2)
    if args.top <= 0:
        usage_error("--top must be > 0")

    old_flats, _ = collect(args.old)
    new_flats, new_throughput = collect(args.new)

    lines = [f"# tepic_diff: `{args.old}` -> `{args.new}`", ""]
    diff_count = 0
    if len(old_flats) == 1 and len(new_flats) == 1:
        pairs = [(next(iter(old_flats)), next(iter(new_flats)))]
    else:
        shared = sorted(set(old_flats) & set(new_flats))
        if not shared:
            usage_error("no snapshot names shared between "
                        f"'{args.old}' and '{args.new}'")
        pairs = [(name, name) for name in shared]
        for name in sorted(set(old_flats) ^ set(new_flats)):
            side = args.old if name in old_flats else args.new
            lines.append(f"- `{name}` only in `{side}` (skipped)")
            lines.append("")

    for old_name, new_name in pairs:
        title = old_name if old_name == new_name \
            else f"{old_name} -> {new_name}"
        body, count = render_pair(title, old_flats[old_name],
                                  new_flats[new_name], args.top)
        lines.extend(body)
        diff_count += count

    verdict = "identical" if diff_count == 0 \
        else f"{diff_count} differing key(s)"
    lines.append(f"**Verdict:** {verdict} across {len(pairs)} "
                 f"snapshot pair(s).")
    report = "\n".join(lines) + "\n"
    if args.out:
        write_file(args.out, report)
    else:
        sys.stdout.write(report)

    if args.append_trend:
        label = args.label or os.path.basename(
            os.path.abspath(args.new))
        record = append_trend(args.append_trend, label, new_flats,
                              new_throughput, sweep_summary(args.new))
        print(f"tepic_diff: appended trend record for "
              f"'{record['label']}' to {args.append_trend}",
              file=sys.stderr)

    sys.exit(0 if diff_count == 0 else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
