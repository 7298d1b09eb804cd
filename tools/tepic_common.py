"""Helpers shared by the tools/ report validators (stdlib only).

Every validator reports the same way: "<prog>: error: ..." with exit
code 2 for usage and I/O errors, "<prog>: invariant violated: ..."
with exit code 1 for a report that breaks its contract. <prog> is the
running script's file name without ".py", so a tool that imports
these helpers keeps its own message prefix.

Also here: JSON loading, the key/type checks the schema validators
build on, the first-divergence search and the structure-identity
--compare used by the exact-gated report families, the "only in A /
only in B / changed" key diff, and small rendering helpers.
"""

import json
import os
import sys

PROG = os.path.splitext(os.path.basename(sys.argv[0]))[0]


def die(msg, code):
    print(f"{PROG}: {msg}", file=sys.stderr)
    sys.exit(code)


def usage_error(msg):
    die(f"error: {msg}", 2)


def invariant_error(msg):
    die(f"invariant violated: {msg}", 1)


def load(path, error=usage_error):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        error(f"{path}: {e}")


def write_file(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        usage_error(f"{path}: {e}")


def check_keys(path, what, obj, keys):
    if not isinstance(obj, dict):
        usage_error(f"{path}: {what} is not an object")
    for key in keys:
        if key not in obj:
            usage_error(f"{path}: {what} is missing '{key}'")


def check_nonneg_int(path, what, value):
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < 0:
        usage_error(f"{path}: {what} is not a non-negative integer")


def first_divergence(a, b, crumb):
    """Depth-first search for the first differing JSON path."""
    if type(a) is not type(b):
        return crumb, f"{a!r} vs {b!r}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{crumb}.{key}", "missing on the left"
            if key not in b:
                return f"{crumb}.{key}", "missing on the right"
            hit = first_divergence(a[key], b[key], f"{crumb}.{key}")
            if hit:
                return hit
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return crumb, f"{len(a)} vs {len(b)} elements"
        for i, (va, vb) in enumerate(zip(a, b)):
            hit = first_divergence(va, vb, f"{crumb}[{i}]")
            if hit:
                return hit
        return None
    if a != b:
        return crumb, f"{a!r} vs {b!r}"
    return None


def compare_structure(path_a, path_b, validate, summary, what):
    """--compare for a report whose "structure" is exact-gated.

    Both files are validated (validate(path, doc)) first; identical
    structures print one line with summary(structure), anything else
    names the first divergent JSON path and fails.
    """
    a, b = load(path_a), load(path_b)
    for path, doc in ((path_a, a), (path_b, b)):
        validate(path, doc)
    if a["structure"] == b["structure"]:
        print(f"{PROG}: {path_a} and {path_b} have identical "
              f"structure ({summary(a['structure'])})")
        return
    hit = first_divergence(a["structure"], b["structure"],
                           "structure")
    where, detail = hit if hit else ("structure", "unknown")
    invariant_error(
        f"{path_a} and {path_b} disagree at {where}: {detail} — "
        f"every {what} must be identical for any --jobs value")


def key_diff(path_a, a, path_b, b, changed=True):
    """Which keys of two dicts are only in one, and (optionally)
    which shared keys hold different values."""
    text = (f"only in {path_a}: {sorted(set(a) - set(b))}; "
            f"only in {path_b}: {sorted(set(b) - set(a))}")
    if changed:
        diff = sorted(k for k in set(a) & set(b) if a[k] != b[k])
        text += f"; changed: {diff}"
    return text


def fmt_pct(num, den):
    return f"{100.0 * num / den:.1f}%" if den else "-"


def svg_escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
