"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL line.

The criteria pin exact reference polynomials, cycle data, the taxonomy table
of the small-tree catalog, dimension anchors, property suites, and the
banded basin rendering.  Expensive artifacts (SZ solutions, classifications)
are cached and shared across criteria.
"""

import numpy as np

import _acceptance_report

from dessinjulia.dynamics import classify, escape_radius
from dessinjulia.fractal import (box_dim, julia_cloud, pressure_dim,
                                 render_basins)
from dessinjulia.plane_tree import (BLACK, WHITE, PlaneTree, enumerate_trees,
                                    invert_colors, parse_plane_code,
                                    plane_code, symmetry_flags)
from dessinjulia.polynomial import ComplexPoly, parse_poly, poly_from_roots
from dessinjulia.shabat import (NoZapponiFormError, identify_tree, solve_tree)
from dessinjulia.catalog import series_tree

# --------------------------------------------------------------- shared data

EXAMPLE1 = "W((()()))"          # 4-edge tree, attracting 10-cycle
SECTION5 = "W((()))()()()"      # 6-edge tree, superattracting 2-cycle {1,-1}

# the twelve 7-edge catalog entries with their critical-orbit fates
SEVEN_EDGE_TABLE = [
    ("W(())()()()()()", "c4"),
    ("W((()))()()()()", "c2"),
    ("W(())()(())()()", "p"),
    ("W((()()))()()()", "p"),
    ("W(())()((()))()", "p"),
    ("W(()())()(())()", "c4"),
    ("W(())(())(())()", "p"),
    ("W((())(()))()()", "c2"),
    ("W((()))((()))()", "inf"),
    ("W((((()))))()()", "s2"),
    ("W((())())()(())", "p"),
    ("W(())((()))(())", "s3"),
]

# reference expansions for the five 5-edge trees
QUINTICS = [
    poly_from_roots([-1 / 3, 4 / 3], [4, 1], 243 / 128) + 1.0,
    poly_from_roots([-2.0, 3.0], [3, 2], -1 / 54) + 1.0,
    parse_poly("0,-15/4,0,10,0,-12"),
    (ComplexPoly((1, 2)) * ComplexPoly((1, 2)) * ComplexPoly((1, 2))
     * ComplexPoly((18, -3, 2)) * (1 / 432.0)) + 1.0,
    parse_poly("0,5/2,0,-5/2,0,1/2"),
]

FOUR_CYCLE = (0.500469, 0.953491, 0.610612, 0.999810)

_SOLUTIONS = {}
_CLASSIFICATIONS = {}


def _solve(code):
    if code not in _SOLUTIONS:
        sol = solve_tree(parse_plane_code(code))
        _SOLUTIONS[code] = sol
    return _SOLUTIONS[code]


def _classified(code):
    if code not in _CLASSIFICATIONS:
        _CLASSIFICATIONS[code] = classify(_solve(code).poly)
    return _CLASSIFICATIONS[code]


def _nonsym_codes(n):
    return [plane_code(t) for t in enumerate_trees(n)
            if not symmetry_flags(t)["rotational"]]


def _solvable(codes):
    out = []
    for code in codes:
        try:
            _solve(code)
            out.append(code)
        except NoZapponiFormError:
            pass
    return out


def _fate_sig(cls):
    """Collapse a classification to the catalog's fate shorthand."""
    if cls.taxonomy == "g4":
        return "inf"
    if cls.taxonomy == "g1":
        return "p"
    if cls.taxonomy in ("g2", "g3"):
        return f"c{cls.fate_plus.period}"
    return cls.taxonomy  # s1/s2/s3/undetermined


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    _acceptance_report.LINES.append(line)
    assert ok, line


def _match(p, ref, tol=1e-6):
    a, b = p.as_array(), ref.as_array()
    return len(a) == len(b) and bool(np.max(np.abs(a - b)) < tol)


def _swapped_poly(p):
    return p.compose_affine(-1.0, 0.0) * -1.0


# ------------------------------------------------------------ the criteria


def test_criterion_01_zapponi_invariants():
    codes = (_solvable(_nonsym_codes(5) + _nonsym_codes(6))
             + [c for c, _ in SEVEN_EDGE_TABLE] + [EXAMPLE1, SECTION5])
    worst = 0.0
    for code in codes:
        worst = max(worst, max(_solve(code).invariant_deviations()))
    _report(1, "zapponi-invariants", worst < 1e-8,
            f"{len(set(codes))} solutions, worst deviation {worst:.2e}")


def test_criterion_02_exact_quintics():
    reps = _solvable(_nonsym_codes(5))
    assert len(reps) == 5
    matched = {}
    for i, ref in enumerate(QUINTICS):
        for code in reps:
            p = _solve(code).poly
            if _match(p, ref) or _match(_swapped_poly(p), ref):
                matched[i] = code
                break
    ok = len(matched) == 5 and len(set(matched.values())) == 5
    _report(2, "exact-quintic-reproduction", ok,
            "all five references matched one tree each")


def test_criterion_03_sextic_and_quartic():
    ref6 = parse_poly("4/8,-12/8,-9/8,4/8,6/8,0,-1/8")
    ok6 = _match(_solve(SECTION5).poly, ref6)
    ref4 = (ComplexPoly((1, 2)) * ComplexPoly((1, 2)) * ComplexPoly((1, 2))
            * ComplexPoly((-3, 2)) * (2 / 27.0)) + 1.0
    ok4 = _match(_solve(EXAMPLE1).poly, ref4)
    _report(3, "sextic-and-quartic-reproduction", ok6 and ok4,
            f"sextic {'ok' if ok6 else 'FAIL'}, "
            f"quartic {'ok' if ok4 else 'FAIL'}")


def test_criterion_04_cycle_data():
    cls = classify(QUINTICS[4])
    assert cls.taxonomy == "s2"
    plus = sorted(z.real for z in cls.fate_plus.cycle_points)
    minus = sorted(z.real for z in cls.fate_minus.cycle_points)
    want = sorted(FOUR_CYCLE)
    imag = max(max(abs(z.imag) for z in cls.fate_plus.cycle_points),
               max(abs(z.imag) for z in cls.fate_minus.cycle_points))
    err = max(np.max(np.abs(np.array(plus) - want)),
              np.max(np.abs(np.array(minus) + np.array(want)[::-1])), imag)
    _report(4, "cycle-data", err < 1e-4, f"max deviation {err:.2e}")


def test_criterion_05_taxonomy_table():
    problems = []

    # section-4 reference polynomials: g3 (period 24), g2, g4, g4, s2
    want4 = [("g3", 24), ("g2", 2), ("g4", None), ("g4", None), ("s2", None)]
    for i, (tax, per) in enumerate(want4):
        cls = classify(QUINTICS[i])
        if cls.taxonomy != tax or (per and cls.fate_plus.period != per):
            problems.append(f"quintic {i + 1}: {cls.taxonomy}")

    # section-5 tree: superattracting 2-cycle through the critical values,
    # and the only connected Julia set among the 6-edge representatives
    cls5 = _classified(SECTION5)
    if not (cls5.taxonomy == "g2" and abs(cls5.fate_plus.multiplier) < 1e-8
            and {round(z.real) for z in cls5.fate_plus.cycle_points}
            == {1, -1}):
        problems.append("section-5 tree not superattracting g2")
    connected = [c for c in _solvable(_nonsym_codes(6))
                 if _classified(c).connectedness == "connected"]
    if connected != [plane_code(parse_plane_code(SECTION5))]:
        problems.append(f"connected 6-edge trees: {connected}")

    # the twelve 7-edge entries
    for i, (code, want) in enumerate(SEVEN_EDGE_TABLE):
        got = _fate_sig(_classified(code))
        if got != want:
            problems.append(f"7-edge item {i + 1}: {got} != {want}")
    s2 = _classified(SEVEN_EDGE_TABLE[9][0])
    if not (s2.fate_plus.period == 4 and s2.fate_minus.period == 2):
        problems.append("7-edge item 10 cycle periods")
    s3 = _classified(SEVEN_EDGE_TABLE[11][0])
    if not (s3.fate_plus.kind == "escape"
            and s3.fate_minus.kind == "attracting_point"):
        problems.append("7-edge item 12 fates")

    # example-1 tree: attracting 10-cycle
    ex = _classified(EXAMPLE1)
    if not (ex.taxonomy == "g3" and ex.fate_plus.period == 10):
        problems.append(f"example 1: {ex.taxonomy} "
                        f"period {ex.fate_plus.period}")

    # caterpillar series
    series_want = {
        1: {3: "c10", 4: "c24", 5: "inf", 6: "c4", 7: "inf", 8: "inf"},
        2: {3: "c2", 4: "c2", 5: "c2", 6: "c2", 7: "c4", 8: "c16"},
        # <4,3> is a genuine attracting fixed point (multiplier ~0.95);
        # n = 5..10 share a 2-cycle
        3: {4: "p", **{n: "c2" for n in range(5, 11)}},
    }
    for family, table in series_want.items():
        for n, want in table.items():
            code = plane_code(series_tree(family, n))
            got = _fate_sig(_classified(code))
            if got != want:
                problems.append(f"series <{n},{family}>: {got} != {want}")

    _report(5, "taxonomy-table", not problems,
            "; ".join(problems) or "34 classifications checked")


def test_criterion_06_color_inversion():
    codes = _solvable(_nonsym_codes(3) + _nonsym_codes(4) + _nonsym_codes(5)
                      + _nonsym_codes(6))
    worst = 0.0
    for code in codes:
        p = _solve(code).poly
        q = solve_tree(invert_colors(parse_plane_code(code))).poly
        worst = max(worst, float(np.max(np.abs(
            q.as_array() - _swapped_poly(p).as_array()))))
    _report(6, "color-inversion", worst < 1e-6,
            f"{len(codes)} trees, worst coefficient gap {worst:.2e}")


def test_criterion_07_dimension_analytic_anchors():
    rng = np.random.default_rng(20240820)
    seg = box_dim(rng.uniform(0, 1, 400_000).astype(np.complex128)).value
    sq = box_dim(rng.uniform(0, 1, 400_000)
                 + 1j * rng.uniform(0, 1, 400_000)).value
    circ = pressure_dim(ComplexPoly((0, 0, 1))).value
    ok = abs(seg - 1) < 0.05 and abs(sq - 2) < 0.05 and abs(circ - 1) < 0.001
    _report(7, "dimension-analytic-anchors", ok,
            f"segment {seg:.4f}, square {sq:.4f}, circle {circ:.6f}")


def test_criterion_08_dimension_paper_anchors():
    cloud2 = julia_cloud(QUINTICS[1], 200_000, rng_seed=0)
    d2 = box_dim(cloud2).value
    d3 = pressure_dim(QUINTICS[2]).value
    cloud11 = julia_cloud(_solve("W((())())()(())").poly, 200_000, rng_seed=0)
    d11 = box_dim(cloud11).value
    ok = abs(d2 - 1.24) < 0.10 and abs(d3 - 0.83) < 0.10 \
        and abs(d11 - 1.02) < 0.10
    _report(8, "dimension-paper-anchors", ok,
            f"box {d2:.4f} (ref 1.24), pressure {d3:.4f} (ref 0.83), "
            f"box {d11:.4f} (ref 1.02)")


def test_criterion_09_property_suites():
    problems = []
    rng = np.random.default_rng(20240821)

    # cycle closure and attracting multipliers over the small-tree catalog
    # (cached if criterion 5 already classified them)
    for code in (_solvable(_nonsym_codes(5) + _nonsym_codes(6))
                 + [c for c, _ in SEVEN_EDGE_TABLE] + [EXAMPLE1]):
        _classified(code)
    checked = 0
    for code, cls in sorted(_CLASSIFICATIONS.items()):
        p = _SOLUTIONS[code].poly
        for fate in (cls.fate_plus, cls.fate_minus):
            if not fate.bounded:
                continue
            checked += 1
            if not abs(fate.multiplier) < 1.0:
                problems.append(f"multiplier >= 1 on {code}")
            z = fate.cycle_points[0]
            for _ in range(fate.period):
                z = p(z)
            if abs(z - fate.cycle_points[0]) > 1e-8:
                problems.append(f"cycle not closed on {code}")

    # escape-radius soundness on 1000 random polynomials
    for _ in range(1000):
        deg = int(rng.integers(2, 7))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(c[-1]) < 1e-3:
            c[-1] += 1.0
        p = ComplexPoly(tuple(c))
        R = escape_radius(p)
        z = (R + 1e-9) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        if not np.all(np.abs(p(z)) >= 2 * np.abs(z) - 1e-9):
            problems.append("escape radius unsound")
            break

    # julia_cloud forward-invariance
    for p in (ComplexPoly((-1, 0, 1)), QUINTICS[1]):
        cloud = julia_cloud(p, 20000, rng_seed=3)
        scale = float(np.max(np.abs(cloud)))
        fwd = p(cloud[:400])
        d = np.array([np.min(np.abs(cloud - w)) for w in fwd])
        if float(np.quantile(d, 0.99)) > 0.02 * scale:
            problems.append("cloud not forward-invariant")

    # identify(solve(T)) round trip for every solvable tree with <= 7 edges
    trips = 0
    for n in range(3, 8):
        for code in _solvable(_nonsym_codes(n)):
            got = plane_code(identify_tree(_solve(code).poly))
            trips += 1
            if got != code:
                problems.append(f"round trip failed on {code}")

    # enumeration counts against an independent leaf-growth generator
    other = {WHITE: BLACK, BLACK: WHITE}
    for n in range(1, 8):
        level = {WHITE: PlaneTree([WHITE], [[]]),
                 BLACK: PlaneTree([BLACK], [[]])}
        for _ in range(n):
            grown = {}
            for tree in level.values():
                for v in range(tree.n_vertices):
                    for slot in range(max(1, tree.degree(v))):
                        colors = list(tree.colors) + [other[tree.colors[v]]]
                        nbs = [list(nb) for nb in tree.neighbors] + [[v]]
                        nbs[v] = nbs[v][:slot] + [tree.n_vertices] \
                            + nbs[v][slot:]
                        new = PlaneTree(colors, nbs)
                        grown[plane_code(new)] = new
            level = grown
        mine = {plane_code(t)
                for t in enumerate_trees(n, dedup_color_swap=False)}
        if mine != set(level):
            problems.append(f"enumeration mismatch at n={n}")

    _report(9, "property-suites", not problems,
            "; ".join(problems)
            or f"{checked} cycles, 1000 polynomials, {trips} round trips")


def test_criterion_10_rendering():
    p = _solve(EXAMPLE1).poly
    cls = _classified(EXAMPLE1)
    cycle = cls.fate_plus.cycle_points
    kwargs = dict(viewport=(0.0, 0.0, 2.0, 2.0), size=(200, 200),
                  trap_radius=0.01, thresholds=(5, 7, 10), escape_bound=3.0)
    r1 = render_basins(p, cls, max_iter=2000, **kwargs)
    problems = []

    # independent per-pixel oracle on a random sample: first entry into
    # {|z| > 3} union {0.01-balls around the cycle}, banded 0-5 / 6-7 /
    # 8-10 / 11+ / never
    xs, ys = r1.pixel_axes()
    rng = np.random.default_rng(20240822)
    for _ in range(400):
        i = int(rng.integers(0, 200))
        j = int(rng.integers(0, 200))
        z = complex(xs[j], ys[i])
        steps = -1
        for it in range(2001):
            if abs(z) > 3.0 or min(abs(z - c) for c in cycle) <= 0.01:
                steps = it
                break
            z = p(z)
        if steps != r1.escaped_at[i, j]:
            problems.append(f"entry step mismatch at ({i},{j})")
            break
        want = 4 if steps < 0 else \
            0 if steps <= 5 else 1 if steps <= 7 else 2 if steps <= 10 else 3
        if want != r1.band[i, j]:
            problems.append(f"band mismatch at ({i},{j})")
            break

    r2 = render_basins(p, cls, max_iter=4000, **kwargs)
    stable = float(np.mean(r1.band == r2.band))
    if stable < 0.99:
        problems.append(f"stability {stable:.4f} < 0.99")

    _report(10, "rendering", not problems,
            "; ".join(problems)
            or f"400 pixels audited, stability {stable:.4f}")
