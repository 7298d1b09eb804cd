#!/usr/bin/env python3
"""Validate and render tepic design-space sweep reports
(tepic-sweep-v1, the SWEEP_*.json files `tepic-sweep` emits).

Usage:
  tepic_sweep.py REPORT...            validate SWEEP_*.json files and
                                      print a summary
  tepic_sweep.py REPORT --md FILE     also write a Markdown "what
                                      should this core look like?"
                                      report for the first REPORT
  tepic_sweep.py REPORT --scatter FILE  also write an SVG of 2-D
                                      Pareto scatter panels (one per
                                      objective pair) for the first
                                      REPORT
  tepic_sweep.py --compare A B        require the two reports'
                                      "structure" sections to be
                                      identical — the determinism
                                      contract: every record and the
                                      front are pure functions of
                                      (grid, workloads) and must not
                                      depend on --jobs.

Validation re-derives everything the C++ driver promises:

  * per point: ipc_e6 is exactly ops_delivered * 1e6 // cycles, the
    four stall causes tile stall.total, cycles == ideal_cycles +
    stall.total, and (when recorded) compulsory + capacity + conflict
    tile the L1 misses; schemes without an L0 buffer report zero
    l0_saved and zero decode_stage stalls,
  * every point key spells its own config ("<workload>/<scheme>@S..x
    W..xL../l0:../atb:../p:../pen:.."),
  * per aggregate: each metric is the exact sum of its workload
    points, and its ipc_e6 is recomputed from the summed cycles,
  * the timing section carries the per-layer split (front_end_ms,
    back_end_ms), which fits inside wall_ms (--compare also accepts a
    report written before the split existed),
  * the Pareto front: every member exists, no member is dominated by
    any aggregate (the first wrongly-kept member is named together
    with its dominator), every non-dominated aggregate is on the
    front (the first wrongly-missing key is named), and the front is
    sorted in dominance order (oriented objective tuple ascending,
    key as tie-break).

Exit codes: 0 = ok, 1 = invariant violation (including --compare
mismatch), 2 = usage/schema error. Only the standard library is used.
"""

import argparse
import sys

from tepic_common import (usage_error, invariant_error, load, write_file,
                          check_keys, check_nonneg_int, compare_structure,
                          svg_escape)

SWEEP_SCHEMA = "tepic-sweep-v1"

# The objective space, in report order. Senses mirror core/sweep.cc.
OBJECTIVES = (("size_bits", "min"), ("ipc_e6", "max"),
              ("decoder_transistors", "min"), ("bus_bit_flips", "min"))

# The band-gated timing section: the whole run and its per-layer
# split (front end: ATT builds and ATB/L0 passes; back end: the
# geometry groups' L1/bus/cycle passes). Reports written before the
# split existed carry only the first two keys.
TIMING_KEYS = ("jobs", "wall_ms")
LAYER_TIMING_KEYS = ("front_end_ms", "back_end_ms")
STRUCTURE_KEYS = ("objectives", "grid", "config_count", "point_count",
                  "points", "aggregates", "front")
GRID_KEYS = ("workloads", "schemes", "sets", "ways", "line_bytes",
             "l0_ops", "atb_entries", "predictors", "penalties")
CONFIG_KEYS = ("scheme", "sets", "ways", "line_bytes", "l0_ops",
               "atb_entries", "predictor", "penalties")
POINT_METRIC_KEYS = ("size_bits", "cycles", "ideal_cycles",
                     "ops_delivered", "blocks_fetched", "ipc_e6",
                     "stall", "l1", "bus", "decoder_transistors",
                     "cache3c")
STALL_KEYS = ("total", "mispredict", "l1_refill", "decode_stage",
              "atb_miss", "l0_saved")
AGG_METRIC_KEYS = ("size_bits", "cycles", "ideal_cycles",
                   "ops_delivered", "stall_cycles", "ipc_e6",
                   "decoder_transistors", "bus_bit_flips")
# Aggregate metric -> (point metric path) summed over workloads.
AGG_SUM_FIELDS = (("size_bits", ("size_bits",)),
                  ("cycles", ("cycles",)),
                  ("ideal_cycles", ("ideal_cycles",)),
                  ("ops_delivered", ("ops_delivered",)),
                  ("stall_cycles", ("stall", "total")),
                  ("decoder_transistors", ("decoder_transistors",)),
                  ("bus_bit_flips", ("bus", "bit_flips")))

SCHEME_COLORS = {"base": "#7f7f7f", "compressed": "#1f77b4",
                 "tailored": "#d62728"}


# --- dominance (mirror of support/sweep.cc) --------------------------


def objective_vector(agg):
    return tuple(agg["metrics"][name] for name, _ in OBJECTIVES)


def oriented(vector):
    """Orient every axis so smaller means better."""
    return tuple(v if sense == "min" else -v
                 for v, (_, sense) in zip(vector, OBJECTIVES))


def dominates(a, b):
    """a no worse everywhere and strictly better somewhere."""
    oa, ob = oriented(a), oriented(b)
    return all(x <= y for x, y in zip(oa, ob)) and oa != ob


def config_key(config):
    """The C++ spelling of a configuration key (core/sweep.cc)."""
    return (f"{config['scheme']}@S{config['sets']}xW{config['ways']}"
            f"xL{config['line_bytes']}/l0:{config['l0_ops']}"
            f"/atb:{config['atb_entries']}/p:{config['predictor']}"
            f"/pen:{config['penalties']}")


# --- validation ------------------------------------------------------


def validate_schema(path, doc, require_layer_timing=True):
    """Shape checks (exit 2 on failure); returns the structure.

    With require_layer_timing false (--compare), a report without the
    per-layer timing split still passes; one that has it is checked.
    """
    if doc.get("schema") != SWEEP_SCHEMA:
        usage_error(f"{path}: schema {doc.get('schema')!r} is not "
                    f"{SWEEP_SCHEMA!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        usage_error(f"{path}: missing report 'name'")
    check_keys(path, "report", doc, ("structure", "timing"))
    structure = doc["structure"]
    check_keys(path, "structure", structure, STRUCTURE_KEYS)
    timing = doc["timing"]
    keys = TIMING_KEYS
    if require_layer_timing or any(k in timing for k in LAYER_TIMING_KEYS):
        keys += LAYER_TIMING_KEYS
    check_keys(path, "timing", timing, keys)
    for key in keys:
        check_nonneg_int(path, f"timing['{key}']", timing[key])
    if keys != TIMING_KEYS and (timing["front_end_ms"] +
                                timing["back_end_ms"] > timing["wall_ms"]):
        invariant_error(f"{path}: timing front_end_ms + back_end_ms "
                        f"exceeds wall_ms")

    objs = structure["objectives"]
    if not isinstance(objs, list):
        usage_error(f"{path}: structure['objectives'] is not a list")
    got = tuple((o.get("name"), o.get("sense")) for o in objs
                if isinstance(o, dict))
    if got != OBJECTIVES:
        usage_error(f"{path}: objectives {got!r} are not the "
                    f"tepic-sweep-v1 axes {OBJECTIVES!r}")

    check_keys(path, "grid", structure["grid"], GRID_KEYS)
    for key in GRID_KEYS:
        if not isinstance(structure["grid"][key], list) \
                or not structure["grid"][key]:
            usage_error(f"{path}: grid['{key}'] is not a non-empty "
                        f"list")

    check_nonneg_int(path, "config_count", structure["config_count"])
    check_nonneg_int(path, "point_count", structure["point_count"])

    for section in ("points", "aggregates"):
        if not isinstance(structure[section], dict):
            usage_error(f"{path}: structure['{section}'] is not an "
                        f"object")
    if not isinstance(structure["front"], list):
        usage_error(f"{path}: structure['front'] is not a list")

    for key, point in structure["points"].items():
        what = f"point '{key}'"
        check_keys(path, what, point,
                   ("workload", "config", "metrics"))
        check_keys(path, f"{what} config", point["config"],
                   CONFIG_KEYS)
        check_keys(path, f"{what} metrics", point["metrics"],
                   POINT_METRIC_KEYS)
        check_keys(path, f"{what} stall", point["metrics"]["stall"],
                   STALL_KEYS)
        check_keys(path, f"{what} l1", point["metrics"]["l1"],
                   ("hits", "misses"))
        check_keys(path, f"{what} bus", point["metrics"]["bus"],
                   ("bit_flips", "beats", "bytes"))
        check_keys(path, f"{what} cache3c",
                   point["metrics"]["cache3c"],
                   ("recorded", "compulsory", "capacity", "conflict"))
        for field in ("size_bits", "cycles", "ideal_cycles",
                      "ops_delivered", "blocks_fetched", "ipc_e6",
                      "decoder_transistors"):
            check_nonneg_int(path, f"{what} metrics['{field}']",
                             point["metrics"][field])
        for field in STALL_KEYS:
            check_nonneg_int(path, f"{what} stall['{field}']",
                             point["metrics"]["stall"][field])

    for key, agg in structure["aggregates"].items():
        what = f"aggregate '{key}'"
        check_keys(path, what, agg,
                   ("config", "workloads", "metrics"))
        check_keys(path, f"{what} config", agg["config"], CONFIG_KEYS)
        check_keys(path, f"{what} metrics", agg["metrics"],
                   AGG_METRIC_KEYS)
        for field in AGG_METRIC_KEYS:
            check_nonneg_int(path, f"{what} metrics['{field}']",
                             agg["metrics"][field])
        check_nonneg_int(path, f"{what} workloads", agg["workloads"])
    return structure


def validate_invariants(path, structure):
    """Semantic checks (exit 1 on failure). Every message names the
    point or front member that broke."""
    points = structure["points"]
    aggregates = structure["aggregates"]
    front = structure["front"]

    if structure["config_count"] != len(aggregates):
        invariant_error(
            f"{path}: config_count {structure['config_count']} != "
            f"{len(aggregates)} aggregates")
    if structure["point_count"] != len(points):
        invariant_error(
            f"{path}: point_count {structure['point_count']} != "
            f"{len(points)} points")

    for key, point in sorted(points.items()):
        where = f"{path}: point '{key}'"
        m = point["metrics"]
        stall = m["stall"]
        expect_key = f"{point['workload']}/{config_key(point['config'])}"
        if key != expect_key:
            invariant_error(f"{where}: key does not spell its own "
                            f"config (expected '{expect_key}')")
        cause_sum = (stall["mispredict"] + stall["l1_refill"] +
                     stall["decode_stage"] + stall["atb_miss"])
        if cause_sum != stall["total"]:
            invariant_error(
                f"{where}: stall causes must tile the total: "
                f"{cause_sum} != {stall['total']}")
        if m["ideal_cycles"] + stall["total"] != m["cycles"]:
            invariant_error(
                f"{where}: cycles {m['cycles']} != ideal_cycles "
                f"{m['ideal_cycles']} + stall {stall['total']}")
        expect_ipc = (m["ops_delivered"] * 10**6 // m["cycles"]
                      if m["cycles"] else 0)
        if m["ipc_e6"] != expect_ipc:
            invariant_error(
                f"{where}: ipc_e6 {m['ipc_e6']} != ops_delivered * "
                f"1e6 // cycles = {expect_ipc}")
        if point["config"]["scheme"] != "compressed":
            if stall["l0_saved"]:
                invariant_error(
                    f"{where}: scheme has no L0 buffer but reports "
                    f"l0_saved {stall['l0_saved']}")
            if stall["decode_stage"]:
                invariant_error(
                    f"{where}: scheme has no decode stage but "
                    f"reports decode_stage {stall['decode_stage']}")
        c3 = m["cache3c"]
        if c3["recorded"]:
            split = c3["compulsory"] + c3["capacity"] + c3["conflict"]
            if split != m["l1"]["misses"]:
                invariant_error(
                    f"{where}: 3C split must tile the L1 misses: "
                    f"{split} != {m['l1']['misses']}")

    # Aggregates are exact sums of their workload points.
    by_config = {}
    for key, point in points.items():
        by_config.setdefault(config_key(point["config"]),
                             []).append(point)
    for key, agg in sorted(aggregates.items()):
        where = f"{path}: aggregate '{key}'"
        if config_key(agg["config"]) != key:
            invariant_error(f"{where}: key does not spell its own "
                            f"config")
        members = by_config.get(key, [])
        if agg["workloads"] != len(members):
            invariant_error(
                f"{where}: claims {agg['workloads']} workloads but "
                f"{len(members)} points carry this config")
        for field, path_keys in AGG_SUM_FIELDS:
            total = 0
            for point in members:
                value = point["metrics"]
                for k in path_keys:
                    value = value[k]
                total += value
            if agg["metrics"][field] != total:
                invariant_error(
                    f"{where}: {field} {agg['metrics'][field]} is "
                    f"not the sum of its points ({total})")
        expect_ipc = (agg["metrics"]["ops_delivered"] * 10**6 //
                      agg["metrics"]["cycles"]
                      if agg["metrics"]["cycles"] else 0)
        if agg["metrics"]["ipc_e6"] != expect_ipc:
            invariant_error(
                f"{where}: ipc_e6 {agg['metrics']['ipc_e6']} != "
                f"summed ops * 1e6 // summed cycles = {expect_ipc}")

    # The Pareto front: membership, dominance, completeness, order.
    seen = set()
    for key in front:
        if key not in aggregates:
            invariant_error(f"{path}: front names unknown aggregate "
                            f"'{key}'")
        if key in seen:
            invariant_error(f"{path}: front lists '{key}' twice")
        seen.add(key)
    vectors = {key: objective_vector(agg)
               for key, agg in aggregates.items()}
    for key in front:  # front order: name the FIRST wrong member
        for other, vec in sorted(vectors.items()):
            if other != key and dominates(vec, vectors[key]):
                invariant_error(
                    f"{path}: front member '{key}' is dominated by "
                    f"'{other}' "
                    f"({list(vec)} dominates {list(vectors[key])}) — "
                    f"a dominated configuration must not be on the "
                    f"front")
    for key in sorted(vectors):
        if key in seen:
            continue
        if not any(dominates(vectors[other], vectors[key])
                   for other in vectors if other != key):
            invariant_error(
                f"{path}: aggregate '{key}' is non-dominated but "
                f"missing from the front")
    expect_order = sorted(front,
                          key=lambda k: (oriented(vectors[k]), k))
    if front != expect_order:
        for got, want in zip(front, expect_order):
            if got != want:
                invariant_error(
                    f"{path}: front is not in dominance order: got "
                    f"'{got}' where '{want}' belongs")


# --- Markdown "what should this core look like?" report --------------


def fmt_ipc(ipc_e6):
    return f"{ipc_e6 / 1e6:.4f}"


def front_rows(structure):
    return [(key, structure["aggregates"][key])
            for key in structure["front"]]


def recommend(structure):
    """The smallest front member within 5% of the best front IPC —
    the report's one-line answer; the front table holds the rest."""
    rows = front_rows(structure)
    if not rows:
        return None
    best_ipc = max(agg["metrics"]["ipc_e6"] for _, agg in rows)
    eligible = [(key, agg) for key, agg in rows
                if agg["metrics"]["ipc_e6"] * 20 >= best_ipc * 19]
    return min(eligible,
               key=lambda kv: (kv[1]["metrics"]["size_bits"], kv[0]))


def render_markdown(path, doc):
    structure = doc["structure"]
    aggs = structure["aggregates"]
    rows = front_rows(structure)
    lines = [f"# Design-space sweep: {doc['name']}", ""]
    lines.append(
        f"What should this core look like? {len(aggs)} "
        f"configurations ({structure['point_count']} simulations "
        f"over {', '.join(structure['grid']['workloads'])}) were "
        f"swept across the objective space "
        f"{' x '.join(n for n, _ in OBJECTIVES)}; {len(rows)} are "
        f"Pareto-optimal. A configuration is on the front when no "
        f"other is at least as good on every axis and better on one "
        f"— everything else is strictly dominated hardware.")
    lines.append("")

    pick = recommend(structure)
    if pick:
        key, agg = pick
        m = agg["metrics"]
        lines.append(
            f"**Recommendation:** `{key}` — the smallest front "
            f"member within 5% of the best aggregate IPC "
            f"({m['size_bits']} code bits, IPC {fmt_ipc(m['ipc_e6'])}"
            f", {m['decoder_transistors']} decoder transistors, "
            f"{m['bus_bit_flips']} bus bit flips).")
        lines.append("")

    lines.append("## Pareto front (dominance order)")
    lines.append("")
    lines.append("| configuration | size bits | IPC | decoder "
                 "transistors | bus bit flips |")
    lines.append("|---|---:|---:|---:|---:|")
    for key, agg in rows:
        m = agg["metrics"]
        lines.append(f"| `{key}` | {m['size_bits']} "
                     f"| {fmt_ipc(m['ipc_e6'])} "
                     f"| {m['decoder_transistors']} "
                     f"| {m['bus_bit_flips']} |")
    lines.append("")

    lines.append("## Front attribution by dimension")
    lines.append("")
    lines.append(
        "How often each swept value survives to the front — a "
        "dimension whose values split sharply is a real design "
        "decision; an even split means the axis barely matters for "
        "this suite.")
    lines.append("")
    front_keys = set(structure["front"])
    for dim in CONFIG_KEYS:
        counts = {}
        for key, agg in aggs.items():
            value = agg["config"][dim]
            total, on_front = counts.get(value, (0, 0))
            counts[value] = (total + 1,
                             on_front + (1 if key in front_keys
                                         else 0))
        if len(counts) < 2:
            continue
        lines.append(f"**{dim}**")
        lines.append("")
        lines.append("| value | configs | on front | share |")
        lines.append("|---|---:|---:|---:|")
        for value in sorted(counts, key=str):
            total, on_front = counts[value]
            share = f"{100.0 * on_front / total:.0f}%" if total else "-"
            lines.append(f"| {value} | {total} | {on_front} "
                         f"| {share} |")
        lines.append("")

    lines.append(f"*(generated by tools/tepic_sweep.py from "
                 f"`{path}`)*")
    return "\n".join(lines) + "\n"


# --- SVG Pareto scatter panels ---------------------------------------


def render_scatter(doc):
    """One panel per objective pair: every aggregate as a gray dot,
    front members colored by scheme."""
    structure = doc["structure"]
    aggs = structure["aggregates"]
    front_keys = set(structure["front"])
    pairs = [(i, j) for i in range(len(OBJECTIVES))
             for j in range(i + 1, len(OBJECTIVES))]
    panel_w, panel_h, pad = 260, 200, 56
    cols = 3
    width = cols * (panel_w + pad) + pad
    rows_n = (len(pairs) + cols - 1) // cols
    height = rows_n * (panel_h + pad + 30) + pad + 20

    vectors = {key: objective_vector(agg)
               for key, agg in aggs.items()}
    body = []
    for p, (i, j) in enumerate(pairs):
        px = pad + (p % cols) * (panel_w + pad)
        py = pad + 20 + (p // cols) * (panel_h + pad + 30)
        xi = [v[i] for v in vectors.values()]
        yj = [v[j] for v in vectors.values()]
        xmin, xmax = min(xi), max(xi)
        ymin, ymax = min(yj), max(yj)
        xspan = (xmax - xmin) or 1
        yspan = (ymax - ymin) or 1
        name_x, name_y = OBJECTIVES[i][0], OBJECTIVES[j][0]
        body.append(f'<text x="{px}" y="{py - 8}" font-size="11">'
                    f'{svg_escape(name_x)} vs {svg_escape(name_y)}'
                    f'</text>')
        body.append(f'<rect x="{px}" y="{py}" width="{panel_w}" '
                    f'height="{panel_h}" fill="#ffffff" '
                    f'stroke="#cccccc"/>')
        # Dominated cloud first so front dots draw on top.
        for on_front in (False, True):
            for key in sorted(vectors):
                if (key in front_keys) != on_front:
                    continue
                v = vectors[key]
                cx = px + (v[i] - xmin) / xspan * (panel_w - 12) + 6
                cy = py + panel_h - \
                    ((v[j] - ymin) / yspan * (panel_h - 12) + 6)
                if on_front:
                    scheme = aggs[key]["config"]["scheme"]
                    color = SCHEME_COLORS.get(scheme, "#2ca02c")
                    body.append(f'<circle cx="{cx:.1f}" '
                                f'cy="{cy:.1f}" r="3.5" '
                                f'fill="{color}"><title>'
                                f'{svg_escape(key)}</title></circle>')
                else:
                    body.append(f'<circle cx="{cx:.1f}" '
                                f'cy="{cy:.1f}" r="2" fill="#bbbbbb" '
                                f'fill-opacity="0.6"/>')
        body.append(f'<text x="{px}" y="{py + panel_h + 12}" '
                    f'font-size="9">{xmin} .. {xmax} (x), '
                    f'{ymin} .. {ymax} (y)</text>')

    legend = ", ".join(f"{scheme} = {color}"
                       for scheme, color in SCHEME_COLORS.items())
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{pad}" y="{pad - 24}" font-size="13">'
        f'{svg_escape(doc["name"])} — Pareto scatter, '
        f'{len(aggs)} configurations, {len(front_keys)} on the front '
        f'(colored: {svg_escape(legend)}; gray: dominated)</text>',
    ]
    out.extend(body)
    out.append('</svg>')
    return "\n".join(out) + "\n"


# --- determinism compare ---------------------------------------------


def compare(path_a, path_b):
    compare_structure(
        path_a, path_b,
        lambda path, doc: validate_invariants(
            path, validate_schema(path, doc, require_layer_timing=False)),
        lambda s: f"{len(s['points'])} points, front {len(s['front'])}",
        "sweep record")


# --- entry point -----------------------------------------------------


def summarize(path, structure):
    print(f"tepic_sweep: {path}: ok ({len(structure['aggregates'])} "
          f"configs, {len(structure['points'])} points validated, "
          f"front {len(structure['front'])} in dominance order)")


def main(argv):
    parser = argparse.ArgumentParser(
        prog="tepic_sweep",
        description="Validate and render tepic-sweep-v1 reports.")
    parser.add_argument("reports", nargs="*",
                        help="SWEEP_*.json files to validate")
    parser.add_argument("--md", default=None, metavar="FILE",
                        help="write a Markdown design-space report "
                             "for the first REPORT")
    parser.add_argument("--scatter", default=None, metavar="FILE",
                        help="write SVG Pareto scatter panels for "
                             "the first REPORT")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="check two reports for structural "
                             "identity")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        sys.exit(2)

    if args.compare:
        if args.reports or args.md or args.scatter:
            usage_error("--compare takes no other inputs")
        compare(*args.compare)
        return

    if not args.reports:
        usage_error("no SWEEP report given (see module docstring)")
    for i, path in enumerate(args.reports):
        doc = load(path)
        structure = validate_schema(path, doc)
        validate_invariants(path, structure)
        summarize(path, structure)
        if i == 0 and args.md:
            write_file(args.md, render_markdown(path, doc))
            print(f"tepic_sweep: wrote {args.md}")
        if i == 0 and args.scatter:
            write_file(args.scatter, render_scatter(doc))
            print(f"tepic_sweep: wrote {args.scatter}")


if __name__ == "__main__":
    main(sys.argv[1:])
