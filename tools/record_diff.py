"""Field-by-field difference of two catalog stores.

    python tools/record_diff.py STORE_A STORE_B
    python tools/record_diff.py --write-digest DIGEST STORE

Each store is a directory holding the ``records/*.json`` files that
``dessinjulia.catalog.Store`` writes.  Records are matched by their
``tree_code``.  For each code whose records differ, the tool prints the code
and then one line per differing field: its path in the record, the value in
A and in B and, when both are numbers, the absolute and relative size of the
difference.  A code found in one store only is printed with the store that
has it.  The ``timings`` field is ignored, since it differs between any two
runs.  Nothing is printed when the stores match.

With ``--write-digest`` the tool writes the digest of one store instead
(``digest``): per record, the outcome, the coefficients, the fates and the
dimension estimates.  ``digest_diff`` compares two digests with fixed
tolerances; ``tests/test_record_diff.py`` checks the 2-6 edge catalog
against the digest checked in as ``tests/catalog_digest.json``.

Exit status: 0 when the stores hold the same records (or the digest was
written), 1 when they differ, 2 when a store has no ``records`` directory.
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


def field_diffs(rec_a, rec_b, tolerance=lambda path: None):
    """One line per field that differs between two records.  Two numbers at
    a path for which ``tolerance`` gives a bound match when they lie within
    it; every other field must be equal."""
    la, lb = dict(_leaves(rec_a)), dict(_leaves(rec_b))
    lines = []
    for path in [*la, *(p for p in lb if p not in la)]:
        a, b = la.get(path, "(absent)"), lb.get(path, "(absent)")
        tol = tolerance(path)
        if _same(a, b) or (tol is not None and _is_number(a)
                           and _is_number(b) and abs(b - a) <= tol):
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


def _digest_record(rec):
    cls = rec["classification"]
    return {
        "tree": rec["tree_code"],
        "passport": rec["passport"],
        "sz_absent_reason": rec["sz_absent_reason"],
        "taxonomy": cls["taxonomy"] if cls else None,
        "coefficients": rec["sz"]["coefficients"] if rec["sz"] else [],
        "fates": [{k: cls[side][k]
                   for k in ("kind", "period", "multiplier", "points")}
                  for side in ("plus", "minus")] if cls else [],
        "dims": [{k: d[k] for k in ("method", "value", "confidence")}
                 for d in rec["dims"]],
    }


def digest(root):
    """The digest of a store: per record, in tree-code order, its tree,
    passport, absent reason, taxonomy, coefficients, the kind, period,
    multiplier and cycle points of both fates, and the method, value and
    confidence of each dimension estimate."""
    return [_digest_record(rec) for _, rec in sorted(load_store(root).items())]


def _digest_tolerance(path, scale):
    """The bound of a digest field: 1e-10 scale for each part of a
    coefficient, 1e-9 for fate multipliers and points and for dimension
    values, None (equal) for the rest."""
    if path.startswith("coefficients"):
        return 1e-10 * scale
    if path.startswith("fates") and (".multiplier" in path
                                     or ".points" in path):
        return 1e-9
    if path.startswith("dims") and path.endswith(".value"):
        return 1e-9
    return None


def digest_diff(want, got):
    """The report lines for two digests, empty when every record of each
    is in the other and its fields lie within the digest tolerances
    (``_digest_tolerance``; the scale is the largest |c_k| in ``want``)."""
    want = {r["tree"]: r for r in want}
    got = {r["tree"]: r for r in got}
    out = []
    for code in sorted(want.keys() | got.keys()):
        if code not in got or code not in want:
            out.append(f"{code}: only in {'want' if code in want else 'got'}")
            continue
        scale = max((math.hypot(*c) for c in want[code]["coefficients"]),
                    default=0.0)
        lines = field_diffs(want[code], got[code],
                            lambda path: _digest_tolerance(path, scale))
        if lines:
            out.append(code)
            out.extend("  " + line for line in lines)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write-digest", metavar="DIGEST",
                    help="write the digest of STORE_A to DIGEST")
    ap.add_argument("store_a")
    ap.add_argument("store_b", nargs="?")
    args = ap.parse_args(argv)
    if (args.store_b is None) != (args.write_digest is not None):
        ap.error("give two stores, or --write-digest and one store")
    for root in filter(None, (args.store_a, args.store_b)):
        if not os.path.isdir(os.path.join(root, "records")):
            print(f"record_diff: {root} has no records directory",
                  file=sys.stderr)
            return 2
    if args.write_digest:
        with open(args.write_digest, "w") as fh:
            json.dump(digest(args.store_a), fh, indent=1)
            fh.write("\n")
        return 0
    out = store_diff(args.store_a, args.store_b)
    for line in out:
        print(line)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main())
