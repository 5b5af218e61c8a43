"""Checks of the program's outputs against independently computed values.

Nothing here calls the package: polynomials are evaluated with
``numpy.polyval`` or plain Python Horner steps, tree codes are parsed here,
and the expected taxonomies are the paper's tables.  Every check returns a
list of problems, empty when the output is correct.  Catalog records are
checked in their JSON form (``CatalogRecord.to_json()``).
"""

import numpy as np

# the paper's twelve 7-edge catalog entries and their critical-orbit fates
# (inf: both orbits escape, p: attracting fixed points, cN: one shared
# N-cycle, s2/s3: distinct cycles / one bounded and one escaping)
SEVEN_EDGE_TABLE = {
    "W(())()()()()()": "c4",
    "W((()))()()()()": "c2",
    "W(())()(())()()": "p",
    "W((()()))()()()": "p",
    "W(())()((()))()": "p",
    "W(()())()(())()": "c4",
    "W(())(())(())()": "p",
    "W((())(()))()()": "c2",
    "W((()))((()))()": "inf",
    "W((((()))))()()": "s2",
    "W((())())()(())": "p",
    "W(())((()))(())": "s3",
}

# the paper's caterpillar series <n, family | 2, 1, ..., 1>
SERIES_TABLE = {
    1: {3: "c10", 4: "c24", 5: "inf", 6: "c4", 7: "inf", 8: "inf"},
    2: {3: "c2", 4: "c2", 5: "c2", 6: "c2", 7: "c4", 8: "c16"},
    3: {4: "p", 5: "c2", 6: "c2", 7: "c2", 8: "c2", 9: "c2", 10: "c2"},
}
SERIES_STEMS = {1: "W(())", 2: "W((()))", 3: "W((()()))"}

INVARIANT_TOL = 1e-8


def series_code(family, n):
    return SERIES_STEMS[family] + "()" * (n - 1)


# ------------------------------------------------------------- plane trees


def parse_code(code):
    """(colors, neighbours) of a parenthesis code: children in the order of
    the string, a non-root vertex lists its parent first."""
    colors, nbs, stack = [code[0]], [[]], [0]
    for ch in code[1:]:
        if ch == "(":
            v = len(colors)
            colors.append("B" if colors[stack[-1]] == "W" else "W")
            nbs.append([stack[-1]])
            nbs[stack[-1]].append(v)
            stack.append(v)
        else:
            stack.pop()
    return colors, nbs


def _walk(nbs, root, start):
    out = []

    def visit(v, parent):
        i = nbs[v].index(parent)
        for child in nbs[v][i + 1:] + nbs[v][:i]:
            out.append("(")
            visit(child, v)
            out.append(")")

    order = nbs[root][start:] + nbs[root][:start]
    for child in order:
        out.append("(")
        visit(child, root)
        out.append(")")
    return "".join(out)


def canonical_code(colors, nbs):
    """Minimal rooted walk over every root and start edge; on a tie the
    white root wins."""
    walk, color = min((_walk(nbs, v, s), colors[v] != "W")
                      for v in range(len(colors))
                      for s in range(max(len(nbs[v]), 1)))
    return ("B" if color else "W") + walk


def code_variants(code):
    """Canonical codes of the tree and of its colour swap."""
    colors, nbs = parse_code(code)
    swap = ["W" if c == "B" else "B" for c in colors]
    return [canonical_code(colors, nbs), canonical_code(swap, nbs)]


def rotationally_symmetric(code):
    colors, nbs = parse_code(code)
    for v in range(len(colors)):
        walks = {_walk(nbs, v, s) for s in range(len(nbs[v]))}
        if len(nbs[v]) >= 2 and len(walks) < len(nbs[v]):
            return True
    return False


def degrees_by_color(code):
    colors, nbs = parse_code(code)
    out = {"W": [], "B": []}
    for c, nb in zip(colors, nbs):
        out[c].append(len(nb))
    return sorted(out["W"]), sorted(out["B"])


# ------------------------------------------------------------- polynomials


def coefficients(rec_sz):
    """Ascending complex coefficients of a stored SZ solution."""
    return np.array([complex(re, im) for re, im in rec_sz["coefficients"]])


def _derivative(c):
    return c[1:] * np.arange(1, len(c))


def _poly_residual(c, z, target):
    """|p(z) - target| over the size of the terms it sums."""
    val = np.polyval(c[::-1], z) - target
    scale = np.polyval(np.abs(c[::-1]), abs(z)) + abs(target)
    return abs(val) / scale


def escape_radius(c):
    """R with |z| > R implying |p(z)| >= 2|z|."""
    return max(1.0, (2.0 + float(np.sum(np.abs(c[:-1])))) / abs(c[-1]))


def horner(c, z):
    acc = c[-1]
    for a in c[-2::-1]:
        acc = acc * z + a
    return acc


def check_sz(rec):
    """Zapponi invariants, the vertex values and multiplicities of p."""
    code, sz = rec["tree_code"], rec["sz"]
    c = coefficients(sz)
    problems = []
    whites = [(complex(w["re"], w["im"]), w["mult"]) for w in sz["white"]]
    blacks = [(complex(b["re"], b["im"]), b["mult"]) for b in sz["black"]]
    devs = (abs(c[-2] / c[-1]), abs(sum(z for z, _ in whites) - 1.0),
            abs(sum(z for z, _ in blacks) + 1.0))
    if max(devs) > INVARIANT_TOL:
        problems.append(f"{code}: Zapponi invariants off by {max(devs):.2e}")
    for vertices, target in ((whites, 1.0), (blacks, -1.0)):
        for z, mult in vertices:
            d = c
            for order in range(mult):
                if _poly_residual(d, z, target if order == 0 else 0.0) \
                        > INVARIANT_TOL:
                    problems.append(f"{code}: p^({order}) at vertex {z:.6g} "
                                    f"does not vanish to order {mult}")
                    break
                d = _derivative(d)
    want_w, want_b = degrees_by_color(code)
    got_w = sorted(m for _, m in whites)
    got_b = sorted(m for _, m in blacks)
    if (got_w, got_b) != (want_w, want_b) or len(c) - 1 != sum(want_w):
        problems.append(f"{code}: multiplicities {got_w}|{got_b} differ from "
                        f"the passport {want_w}|{want_b}")
    return problems


# ---------------------------------------------------------------- dynamics


def fate_signature(cls):
    tax = cls["taxonomy"]
    if tax == "g4":
        return "inf"
    if tax == "g1":
        return "p"
    if tax in ("g2", "g3"):
        return f"c{cls['plus']['period']}"
    return tax


def _same_cycle(a, b, tol=1e-6):
    return len(a) == len(b) and all(min(abs(x - y) for y in b) < tol
                                    for x in a)


def taxonomy_of(plus, minus):
    """Taxonomy and connectedness from two verified critical-orbit fates."""
    esc_p, esc_m = plus["kind"] == "escape", minus["kind"] == "escape"
    if esc_p and esc_m:
        return "g4", "totally_disconnected"
    if esc_p or esc_m:
        return "s3", "infinitely_many_components"
    if plus["period"] == 1 and minus["period"] == 1:
        return "g1", "connected"
    if plus["period"] == 1 or minus["period"] == 1:
        return "s1", "connected"
    pts_p = [complex(*z) for z in plus["points"]]
    pts_m = [complex(*z) for z in minus["points"]]
    if _same_cycle(pts_p, pts_m):
        return ("g2" if plus["period"] == 2 else "g3"), "connected"
    return "s2", "connected"


def check_fate(c, z0, fate):
    """Replay the orbit of z0 and confirm the recorded fate."""
    cl = [complex(a) for a in c]
    radius = escape_radius(c)
    z = z0
    if fate["kind"] == "escape":
        for _ in range(fate["iterations_used"] + 10):
            z = horner(cl, z)
            if abs(z) > radius:
                return None
        return f"orbit of {z0} does not escape"
    if fate["kind"] not in ("attracting_point", "attracting_cycle"):
        return f"orbit of {z0} left undetermined"
    pts = [complex(*p) for p in fate["points"]]
    if len(pts) != fate["period"]:
        return f"cycle of {z0} has {len(pts)} points for period " \
               f"{fate['period']}"
    mult = 1.0 + 0j
    dc = [complex(a) for a in _derivative(np.asarray(c))]
    for i, p in enumerate(pts):
        mult *= horner(dc, p)
        nxt = pts[(i + 1) % len(pts)]
        if abs(horner(cl, p) - nxt) > 1e-8 * (1.0 + abs(nxt)):
            return f"cycle of {z0} does not close"
    if not abs(mult) < 1.0 or \
            abs(mult - complex(*fate["multiplier"])) > 1e-6:
        return f"cycle of {z0} multiplier {mult:.6g} is not the recorded " \
               f"attracting {complex(*fate['multiplier']):.6g}"
    for _ in range(min(fate["iterations_used"], 200_000)):
        z = horner(cl, z)
    if min(abs(z - p) for p in pts) > 1e-5 * (1.0 + abs(z)):
        return f"orbit of {z0} does not reach its recorded cycle"
    return None


def check_classification(rec):
    code, cls = rec["tree_code"], rec["classification"]
    c = coefficients(rec["sz"])
    problems = []
    for z0, key in ((1.0 + 0j, "plus"), (-1.0 + 0j, "minus")):
        bad = check_fate(c, z0, cls[key])
        if bad:
            problems.append(f"{code}: {bad}")
    if not problems:
        want = taxonomy_of(cls["plus"], cls["minus"])
        if (cls["taxonomy"], cls["connectedness"]) != want:
            problems.append(f"{code}: recorded {cls['taxonomy']}/"
                            f"{cls['connectedness']}, fates give {want}")
    return problems


# ----------------------------------------------------------------- catalog


def _lookup(records, code):
    for variant in code_variants(code):
        if variant in records:
            return records[variant]
    return None


def check_catalog(seven, series, written, resumed):
    """``seven``: records of the 7-edge catalog; ``series``: {(family, n):
    record}; ``written``/``resumed``: {code: record} before and after a
    resume pass."""
    problems = []
    for rec in written.values():
        code = rec["tree_code"]
        if rec["sz"] is None:
            if not rotationally_symmetric(code):
                problems.append(f"{code}: no Zapponi form recorded for a "
                                "tree without rotational symmetry")
            continue
        if rotationally_symmetric(code):
            problems.append(f"{code}: symmetric tree given a Zapponi form")
        problems += check_sz(rec)
        problems += check_classification(rec)

    if len(seven) != 34:
        problems.append(f"7-edge catalog has {len(seven)} trees, not 34")
    solved = [coefficients(r["sz"]) for r in seven if r["sz"] is not None]
    distinct = []
    for c in solved:
        if all(len(c) != len(d) or np.max(np.abs(c - d)) > 1e-6
               for d in distinct):
            distinct.append(c)
    if len(solved) != 33 or len(distinct) != 33:
        problems.append(f"{len(solved)} solved 7-edge trees give "
                        f"{len(distinct)} distinct polynomials, not 33")

    by_code = {r["tree_code"]: r for r in seven}
    for code, want in SEVEN_EDGE_TABLE.items():
        rec = _lookup(by_code, code)
        got = fate_signature(rec["classification"]) if rec and \
            rec["classification"] else None
        if got != want:
            problems.append(f"7-edge {code}: {got}, paper {want}")
    for family, table in SERIES_TABLE.items():
        for n, want in table.items():
            rec = series.get((family, n))
            got = fate_signature(rec["classification"]) if rec and \
                rec["classification"] else None
            if got != want:
                problems.append(f"series <{n},{family}>: {got}, paper {want}")

    if resumed != written:
        lost = sorted(set(written) ^ set(resumed))
        changed = [k for k in written if k in resumed
                   and resumed[k] != written[k]]
        problems.append(f"resume differs: {len(lost)} records missing or "
                        f"extra, {len(changed)} changed")
    return problems


# ------------------------------------------------------------------- dims

DIM_ANCHORS = {
    # name: (expected value, tolerance)
    "pressure:z2": (1.0, 1e-3),       # the unit circle
    "box:segment": (1.0, 0.05),
    "box:square": (2.0, 0.05),
    "box:q2": (1.24, 0.10),           # the paper's section-4 anchors
    "pressure:q3": (0.83, 0.10),
    "box:t7": (1.02, 0.10),
}


def check_dims(values, clouds, polys, rng, samples=200):
    """``values``: {op name: dimension} of the operations that succeeded;
    ``clouds``: {poly name: Julia cloud}; ``polys``: {poly name: ascending
    coefficients}."""
    problems = []
    for name, v in values.items():
        if not 0.0 <= v <= 2.0:
            problems.append(f"{name}: {v} outside [0, 2]")
        if name in DIM_ANCHORS:
            want, tol = DIM_ANCHORS[name]
            if not abs(v - want) <= tol:
                problems.append(f"{name}: {v:.6f}, expected {want} ± {tol}")
    for name, cloud in clouds.items():
        c = polys[name]
        scale = float(np.max(np.abs(cloud)))
        picks = cloud[rng.integers(0, len(cloud), samples)]
        fwd = np.polyval(c[::-1], picks)
        dist = np.array([np.min(np.abs(cloud - w)) for w in fwd])
        if float(np.quantile(dist, 0.99)) > 0.02 * scale:
            problems.append(f"{name}: cloud is not forward-invariant")
    return problems


# ----------------------------------------------------------------- render


def pixel_point(viewport, size, i, j):
    cx, cy, hw, hh = viewport
    w, h = size
    return complex(cx + hw * (2.0 * (j + 0.5) / w - 1.0),
                   cy + hh * (2.0 * (i + 0.5) / h - 1.0))


def escape_count(cl, z, max_iter, radius):
    if abs(z) > radius:
        return 0
    for it in range(1, max_iter + 1):
        z = horner(cl, z)
        if not abs(z) <= radius:
            return it
    return -1


def first_entry(cl, z, max_iter, radius, traps, trap_r):
    for it in range(max_iter + 1):
        if not abs(z) <= radius:
            return it
        if any(abs(z - t) <= trap_r for t in traps):
            return it
        if it < max_iter:
            z = horner(cl, z)
    return -1


def band_of(steps, thresholds):
    t1, t2, t3 = thresholds
    if steps < 0:
        return 4
    return 0 if steps <= t1 else 1 if steps <= t2 else 2 if steps <= t3 \
        else 3


def check_escape(c, viewport, size, max_iter, counts, pixels):
    """``counts[i, j]``: the escape raster; ``pixels``: (i, j) samples."""
    cl = [complex(a) for a in c]
    radius = escape_radius(c)
    for i, j in pixels:
        want = escape_count(cl, pixel_point(viewport, size, i, j), max_iter,
                            radius)
        if counts[i, j] != want:
            return [f"escape count {counts[i, j]} at ({i},{j}), "
                    f"recomputed {want}"]
    return []


def check_basins(c, viewport, size, max_iter, traps, trap_r, thresholds,
                 steps, band, pixels):
    cl = [complex(a) for a in c]
    radius = escape_radius(c)
    for i, j in pixels:
        want = first_entry(cl, pixel_point(viewport, size, i, j), max_iter,
                           radius, traps, trap_r)
        if steps[i, j] != want or band[i, j] != band_of(want, thresholds):
            return [f"basin entry {steps[i, j]} band {band[i, j]} at "
                    f"({i},{j}), recomputed {want}"]
    return []
