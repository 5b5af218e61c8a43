"""Field-by-field difference of two catalog stores.

    python tools/record_diff.py STORE_A STORE_B

Each store is a directory holding the ``records/*.json`` files that
``dessinjulia.catalog.Store`` writes.  Records are matched by their
``tree_code``.  For each code whose records differ, the tool prints the code
and then one line per differing field: its path in the record, the value in
A and in B and, when both are numbers, the absolute and relative size of the
difference.  A code found in one store only is printed with the store that
has it.  The ``timings`` field is ignored, since it differs between any two
runs.  Nothing is printed when the stores match.

Exit status: 0 when the stores hold the same records, 1 when they differ,
2 when a store has no ``records`` directory.
"""

import argparse
import glob
import json
import math
import os
import sys

IGNORED = ("timings",)


def load_store(root):
    """tree code -> record (parsed JSON, ignored fields removed)."""
    recs = {}
    for path in glob.glob(os.path.join(root, "records", "*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        for key in IGNORED:
            rec.pop(key, None)
        recs[rec["tree_code"]] = rec
    return recs


def _leaves(value, path=""):
    """(path, value) for every scalar and every empty list or object in a
    JSON value, in document order."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(a, b):
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def field_diffs(rec_a, rec_b):
    """One line per field that differs between two records."""
    la, lb = dict(_leaves(rec_a)), dict(_leaves(rec_b))
    lines = []
    for path in [*la, *(p for p in lb if p not in la)]:
        a, b = la.get(path, "(absent)"), lb.get(path, "(absent)")
        if _same(a, b):
            continue
        line = f"{path}: {json.dumps(a)} -> {json.dumps(b)}"
        if _is_number(a) and _is_number(b):
            size = abs(b - a)
            scale = max(abs(a), abs(b))
            line += f"  abs {size:.3g}  rel {size / scale if scale else 0:.3g}"
        lines.append(line)
    return lines


def store_diff(root_a, root_b):
    """The report lines for two stores; empty when they match."""
    recs_a, recs_b = load_store(root_a), load_store(root_b)
    out = []
    for code in sorted(recs_a.keys() | recs_b.keys()):
        if code not in recs_b:
            out.append(f"{code}: only in {root_a}")
        elif code not in recs_a:
            out.append(f"{code}: only in {root_b}")
        else:
            lines = field_diffs(recs_a[code], recs_b[code])
            if lines:
                out.append(code)
                out.extend("  " + line for line in lines)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("store_a")
    ap.add_argument("store_b")
    args = ap.parse_args(argv)
    for root in (args.store_a, args.store_b):
        if not os.path.isdir(os.path.join(root, "records")):
            print(f"record_diff: {root} has no records directory",
                  file=sys.stderr)
            return 2
    out = store_diff(args.store_a, args.store_b)
    for line in out:
        print(line)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main())
