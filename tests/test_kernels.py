"""Each kernel against an independent reference: Aberth against
``np.roots``, Brent's orbit kernel against a replay with
``polynomial.evaluate``, the render loop against a plain-Python first-entry
loop and periodic Newton against the roots of p(p(z)) - z; and the
backward-tree kernel solves p(w) = z level by level, its warm-started
solve against the cold one."""

import numpy as np
import pytest

from dessinjulia import _kernels as K, fractal
from dessinjulia.dynamics import (attracting_cycles, classify, escape_radius,
                                  trapping_radius)
from dessinjulia.fractal import repelling_fixed_point
from dessinjulia.plane_tree import parse_plane_code
from dessinjulia.polynomial import (ComplexPoly, derivative, evaluate,
                                    parse_poly, poly_from_roots)
from dessinjulia.shabat import solve_tree
from test_acceptance import QUINTICS


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module", params=["z2", "quintic", "tree7"])
def poly(request):
    if request.param == "z2":
        return ComplexPoly((0, 0, 1))
    if request.param == "quintic":
        return parse_poly("0,-15/4,0,10,0,-12")
    return solve_tree(parse_plane_code("W((())())()(())")).poly


def _derivative(c):
    return c[1:] * np.arange(1, len(c))


def _start_circle(c, z):
    """The start circle of _cold: d points at the start radius."""
    d = len(c) - 1
    r = K._start_radius(c, np.asarray(z, dtype=np.complex128))
    return r[:, None] * np.exp(1j * (2 * np.pi * np.arange(d) / d + 0.77))


def _assert_roots(got, c):
    """got holds every root of c, one point each, as np.roots finds them."""
    want = np.roots(c[::-1])
    dist = np.abs(got[:, None] - want[None, :])
    assert sorted(dist.argmin(axis=1)) == list(range(len(want)))
    assert (dist.min(axis=1) <= 1e-10 * (1 + np.abs(want).max())).all()


def test_aberth_iterate(poly):
    # roots of p(w) - z at a generic z are simple
    c = poly.as_array().copy()
    c[0] -= 0.3 + 0.2j
    w0 = _start_circle(c, [0.0])
    got = K._aberth_iterate(c, _derivative(c), w0, np.zeros(1), 1000,
                            1e-14)[0]
    _assert_roots(got, c)


def test_polyval2_is_polyval_bit_for_bit(poly):
    # the Aberth step's p and p' are those of _polyval, to the last bit
    c = poly.as_array()
    dc = _derivative(c)
    w = np.random.default_rng(3).normal(size=(2, 5, 300))
    w = 3.0 * (w[0] + 1j * w[1])
    p, dp = K._polyval2(c, dc, w)
    assert p.tobytes() == K._polyval(c, w).tobytes()
    assert dp.tobytes() == K._polyval(dc, w).tobytes()


def test_aberth_start_radius_fits_the_roots():
    # the 7-edge anchor tree's Zapponi polynomial leads with 5.5e-10 while
    # its roots and those of p(w) - z lie within |w| <= 33: the start circle
    # belongs next to them, not at 1 + max|c_i| / |a_n| (7e8)
    c = solve_tree(parse_plane_code("W((())())()(())")).poly.as_array()
    for z in (0.0, 1.0, -1.0, 0.3 + 0.2j):
        cz = c.copy()
        cz[0] -= z
        largest = np.abs(np.roots(cz[::-1])).max()
        start = K._start_radius(c, np.array([z], dtype=np.complex128))[0]
        assert 0.5 * largest <= start <= 2 * largest


def _pair_sums_by_loop(w):
    """sum over j != i of 1 / (w[i, r] - w[j, r]) term by term, and the sum
    of the terms' moduli."""
    d, rows = w.shape
    s = np.zeros(w.shape, dtype=np.complex128)
    size = np.zeros(w.shape)
    for r in range(rows):
        for i in range(d):
            for j in range(d):
                if j != i:
                    term = 1.0 / (complex(w[i, r]) - complex(w[j, r]))
                    s[i, r] += term
                    size[i, r] += abs(term)
    return s, size


@pytest.mark.parametrize("d", range(2, 10))
def test_pair_sums(d):
    # each pair reciprocated once, against the direct double loop, on 40
    # rows of which ten are scaled by 1e-4 to 1e4
    rng = np.random.default_rng(d)
    w = rng.normal(size=(d, 40)) + 1j * rng.normal(size=(d, 40))
    w[:, :10] *= 10.0 ** rng.uniform(-4, 4, 10)
    want, size = _pair_sums_by_loop(w)
    for repair in (False, True):
        got = K._pair_sums(w, repair)
        assert got.shape == w.shape
        assert (np.abs(got - want) <= 1e-14 * size).all()


def test_pair_sums_repair_is_antisymmetric():
    # w is (d, rows), one row per column: equal points i < j of a row count
    # each other at -(1e-12 + 1e-12j)(1 + |w_i|) and its negative, the rest
    # of their sums is the same, and rows without equal points are left
    # alone
    w = np.array([[0.3 + 0.1j, 0.5 + 0.5j, 2.0],
                  [1.0 - 2.0j, -1.0 + 0.2j, -2.0],
                  [0.3 + 0.1j, 0.4 - 0.3j, -1.0j],
                  [-0.7 + 0.4j, -1.0 + 0.2j, 1.0 + 1.0j]])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(K._pair_sums(w, False)).all()
    got = K._pair_sums(w, True)
    assert np.isfinite(got).all()
    # column 0: points 0 and 2 are equal, column 1: points 1 and 3
    for col, (i, j) in enumerate(((0, 2), (1, 3))):
        step = 1.0 / (-(1e-12 + 1e-12j) * (1.0 + abs(w[i, col])))
        rest = sum(1.0 / (w[i, col] - w[k, col]) for k in range(4)
                   if k not in (i, j))
        assert got[i, col] - rest == pytest.approx(step, rel=1e-12)
        assert got[j, col] - rest == pytest.approx(-step, rel=1e-12)
    want, size = _pair_sums_by_loop(w[:, 2:])
    assert (np.abs(got[:, 2:] - want) <= 1e-14 * size).all()


def test_aberth_repairs_equal_start_points(poly, monkeypatch):
    # two equal start points make the pair sums non-finite; the zero
    # differences are then repaired and the iteration still finds every root
    c = poly.as_array()
    z = np.array([0.3 + 0.2j, -0.1 + 0.5j, 0.7 - 0.4j])
    w0 = _start_circle(c, z)
    w0[0, 1] = w0[0, 0]
    w0[1, -1] = w0[1, 0]
    repairs = []
    pair_sums = K._pair_sums
    monkeypatch.setattr(K, "_pair_sums",
                        lambda w, repair: repairs.append(repair)
                        or pair_sums(w, repair))
    got = K._aberth_iterate(c, _derivative(c), w0, z, 1000, 1e-14)
    assert True in repairs
    for r in range(3):
        cz = c.copy()
        cz[0] -= z[r]
        _assert_roots(got[r], cz)


def test_orbit_brent(poly):
    # the kernel against the orbit replayed with polynomial.evaluate
    c = poly.as_array()
    radius = escape_radius(poly)
    for z0 in (1.0 + 0j, -1.0 + 0j, 0.1 + 0.05j):
        orbit = [z0]
        for _ in range(300):
            orbit.append(evaluate(poly, orbit[-1]))
        inside = [abs(z) <= radius for z in orbit]
        status, lam, z, steps = K.orbit_brent(c, z0, 5000, radius, 1e-9)
        assert z == orbit[steps] and all(inside[:steps])
        if status == K.ORBIT_ESCAPE:
            assert not inside[steps]
        else:
            # the orbit came within tol of its tortoise, lam steps back
            assert status == K.ORBIT_CYCLE and 1 <= lam <= steps
            assert abs(z - orbit[steps - lam]) < 1e-9 * (1.0 + abs(z))


def _brent_replay(c, z0, max_iter, radius, tol):
    """orbit_brent's verdict from an orbit stepped by a plain Horner loop:
    the tortoise sits at steps 0, 1, 3, 7, ..., 2^j - 1."""
    cl = [complex(a) for a in c]
    z, tortoise, mark = complex(z0), complex(z0), 1
    for steps in range(1, max_iter + 1):
        acc = cl[-1]
        for a in reversed(cl[:-1]):
            acc = acc * z + a
        z = acc
        if not abs(z) <= radius or not np.isfinite(abs(z)):
            return K.ORBIT_ESCAPE, 0, z, steps
        if abs(z - tortoise) < tol * (1.0 + abs(z)):
            return K.ORBIT_CYCLE, steps - (mark - 1), z, steps
        if steps == 2 * mark - 1:
            tortoise, mark = z, 2 * mark
    return K.ORBIT_RUNNING, 0, z, max_iter


def _same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


def test_orbit_brent_matches_a_plain_replay_on_a_long_orbit():
    # both critical orbits of the <3,1> caterpillar W((()())) take 16,403
    # steps to close on its weakly attracting 10-cycle, the longest search
    # of the catalog; the verdict, the step count and the last point's bits
    # are those of the replay
    p = solve_tree(parse_plane_code("W((()()))")).poly
    c = p.as_array()
    radius = escape_radius(p)
    for z0 in (1.0 + 0j, -1.0 + 0j):
        got = K.orbit_brent(c, z0, 200_000, radius, 1e-9)
        want = _brent_replay(c, z0, 200_000, radius, 1e-9)
        assert got[:2] == want[:2] == (K.ORBIT_CYCLE, 20)
        assert got[3] == want[3] == 16_403
        assert _same_bits(got[2], want[2])


def test_orbit_brent_escapes_on_nan_and_overflow():
    # a NaN start is not finite at its first step; z^2 from 2 overflows to
    # inf at its 10th step (2^1024), which an infinite radius lets through
    c = np.array([0, 0, 1], dtype=np.complex128)
    status, _, z, steps = K.orbit_brent(c, complex(np.nan, 0.0), 100, 2.0,
                                        1e-9)
    assert (status, steps) == (K.ORBIT_ESCAPE, 1) and np.isnan(z.real)
    got = K.orbit_brent(c, 2.0 + 0j, 100, np.inf, 1e-9)
    assert got[0] == K.ORBIT_ESCAPE and got[3] == 10
    assert got[2] == complex(np.inf, 0.0)
    assert _same_bits(got, _brent_replay(c, 2.0, 100, np.inf, 1e-9))


def test_orbit_brent_escapes_past_the_largest_double():
    # c = 1.3e308(1 + i) is finite, but |c| is not a double: abs raises
    # OverflowError, and the orbit of 0 under z^2 + c escapes at step 1
    c = 1.3e308 + 1.3e308j
    coeffs = np.array([c, 0, 1], dtype=np.complex128)
    with np.errstate(over="ignore"):
        radius = escape_radius(ComplexPoly(tuple(coeffs)))
    assert radius == np.inf
    assert K.orbit_brent(coeffs, 0j, 100, radius, 1e-9) == \
        (K.ORBIT_ESCAPE, 0, c, 1)


def _grids():
    """A square grid with ys close to xs, and a non-square off-centre one
    that a row/column mix-up in the flat pixel indexing would fail on."""
    xs = np.linspace(-1.6, 1.6, 24)
    yield xs, xs + 0.01
    yield np.linspace(-1.3, 0.9, 37), np.linspace(-0.4, 1.1, 23)


_NO_TRAPS = (np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.int16))


def _basin_pair(c, xs, ys, max_iter, radius, traps, groups, trap_r):
    """The numpy loop against the plain-Python one; returns the steps."""
    sa, wa = K.render_basin_grid(c, xs, ys, max_iter, radius, traps, groups,
                                 trap_r)
    sb, wb = _first_entry_plain(c, xs, ys, max_iter, radius, traps, groups,
                                trap_r)
    assert sa.shape == (len(ys), len(xs))
    np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(wa, wb)
    return sa


def _check_escape(poly, interior=(), max_iter=60):
    c = poly.as_array()
    radius = escape_radius(poly)
    for xs, ys in _grids():
        np.testing.assert_array_equal(
            K.render_escape_grid(c, xs, ys, max_iter, radius, interior),
            _first_entry_plain(c, xs, ys, max_iter, radius, *_NO_TRAPS,
                               0.0)[0])


def test_render_escape_is_basin_without_traps(poly):
    _check_escape(poly)


def _check_basins(poly, max_iter=200):
    c = poly.as_array()
    cls = classify(poly)
    traps = [z for f in (cls.fate_plus, cls.fate_minus) if f.bounded
             for z in f.cycle_points] or [1e6 + 0j]  # beyond escape
    traps = np.asarray(traps, dtype=np.complex128)
    groups = np.arange(len(traps), dtype=np.int16)
    radius = escape_radius(poly)
    for xs, ys in _grids():
        _basin_pair(c, xs, ys, max_iter, radius, traps, groups, 0.05)
        _basin_pair(c, xs, ys, max_iter, radius, *_NO_TRAPS, 0.0)
        # traps whose bounding box holds the whole grid: the box test
        # passes every live pixel
        corners = np.array([-9 - 9j, 9 + 9j, 9 - 9j])
        _basin_pair(c, xs, ys, max_iter // 2, radius, corners,
                    np.arange(3, dtype=np.int16), 0.5)


def test_render_basin(poly):
    _check_basins(poly)


@pytest.mark.parametrize("tile", [1, 7, 64])
def test_render_tiles(poly, tile, monkeypatch):
    # the grids span many tiles of 1, 7 or 64 points; the escape rasters
    # take the certified discs of the polynomial's attracting cycles.  10
    # steps, since a tile of one point costs a full loop pass per pixel
    monkeypatch.setattr(K, "_TILE", tile)
    _check_basins(poly, 10)
    radius = escape_radius(poly)
    interior = [(cyc[0], rho[0]) for cyc in attracting_cycles(classify(poly))
                if (rho := trapping_radius(poly, cyc)) is not None]
    _check_escape(poly, interior, 10)
    _check_escape(poly, (), 10)
    # 7 pixels a row, the first row outside the escape disc: with tiles of
    # 1 or 7 points, every later tile keeps all its pixels at step 0 and
    # moves down in place behind the tiles that lost all theirs; most of
    # those pixels escape at later steps
    c = poly.as_array()
    xs = np.linspace(-0.7, 0.7, 7)
    ys = np.concatenate([[2 * radius], np.linspace(0.9, 1.6, 5) * radius / 2])
    steps = _basin_pair(c, xs, ys, 200, radius, *_NO_TRAPS, 0.0)
    assert (steps[0] == 0).all() and (steps[1:] != 0).all()
    assert (steps[1:] > 0).mean() > 0.5


def test_render_edge_grids():
    # q2, the section-4 quintic with an attracting 2-cycle
    q2 = poly_from_roots([-2.0, 3.0], [3, 2], -1 / 54) + 1.0
    c = q2.as_array()
    radius = escape_radius(q2)
    cycle = np.array(classify(q2).fate_plus.cycle_points)
    # every pixel outside the radius at step 0
    xs, ys = np.linspace(300, 320, 7), np.linspace(-5, 5, 4)
    steps = _basin_pair(c, xs, ys, 50, radius, cycle, np.zeros(2, np.int16),
                        0.01)
    assert (steps == 0).all()
    # a small grid inside the cycle's basin: nothing escapes by max_iter,
    # and with the cycle as traps every pixel enters one
    z = cycle[0]
    xs = np.linspace(z.real - 0.05, z.real + 0.05, 9)
    ys = np.linspace(z.imag - 0.03, z.imag + 0.04, 7)
    steps = _basin_pair(c, xs, ys, 100, radius, *_NO_TRAPS, 0.0)
    assert (steps == -1).all()
    steps = _basin_pair(c, xs, ys, 100, radius, cycle,
                        np.zeros(2, np.int16), 0.01)
    assert (steps >= 0).all()
    # trap radius 0: only a pixel exactly on a trap enters it
    xs, ys = np.linspace(-3, 3, 13), np.linspace(-2, 2, 9)
    exact = np.array([xs[4] + 1j * ys[6], cycle[0]])
    steps = _basin_pair(c, xs, ys, 60, radius, exact,
                        np.arange(2, dtype=np.int16), 0.0)
    assert steps[6, 4] == 0
    # q1's 48 traps: the 24-cycle of +1 and again of -1 (g3)
    q1 = QUINTICS[0]
    cls = classify(q1)
    traps = np.array(cls.fate_plus.cycle_points + cls.fate_minus.cycle_points)
    groups = np.repeat(np.arange(2, dtype=np.int16), 24)
    assert len(traps) == 48
    xs, ys = np.linspace(-2, 2, 31), np.linspace(-0.6, 0.8, 17)
    for trap_r in (0.01, 0.2):
        steps = _basin_pair(q1.as_array(), xs, ys, 200, escape_radius(q1),
                            traps, groups, trap_r)
        assert (steps > 0).any()


def _first_entry_plain(c, xs, ys, max_iter, radius, traps, groups, trap_r):
    """The first-entry raster in plain Python complex arithmetic, every
    step up to max_iter with no early exit."""
    cl = [complex(a) for a in c]
    steps = np.full((len(ys), len(xs)), -1, dtype=np.int32)
    which = np.zeros(steps.shape, dtype=np.int16)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            z = complex(x, y)
            for it in range(max_iter + 1):
                if not abs(z) <= radius:
                    steps[iy, ix] = it
                    break
                hit = [t for t, trap in enumerate(traps)
                       if abs(z - trap) <= trap_r]
                if hit:
                    steps[iy, ix] = it
                    which[iy, ix] = groups[hit[0]] + 1
                    break
                acc = cl[-1]
                for a in cl[-2::-1]:
                    acc = acc * z + a
                z = acc
    return steps, which


def _counting_polyval(monkeypatch):
    """Patch the render loop's Horner step to record the size of each
    array it evaluates; returns the list of sizes."""
    sizes = []
    polyval = K._polyval

    def counting(c, z):
        sizes.append(z.size)
        return polyval(c, z)

    monkeypatch.setattr(K, "_polyval", counting)
    return sizes


def _full_steps(steps, max_iter):
    """The Horner steps of the loop with no early exit: a pixel escaping at
    step s takes s, one that never escapes max_iter."""
    return int(np.where(steps >= 0, steps, max_iter).sum())


@pytest.fixture(scope="module",
                params=["basilica", "tree7", "q1", "q2", "t7s3", "ex1"])
def interior_case(request):
    """A polynomial, a half-width that frames its Julia set (the catalog's
    framing), an escape budget and whether an attracting cycle of the
    polynomial gets a trapping disc at that budget: ex1's 10-cycle
    (|multiplier| 0.9944) is still undetermined after 500 steps."""
    name = request.param
    span, max_iter = {"basilica": (1.6, 200), "tree7": (49.0, 200),
                      "q1": (2.0, 200), "q2": (5.63, 200),
                      "t7s3": (3.0, 200), "ex1": (2.25, 500)}[name]
    trees = {"tree7": "W((())())()(())", "t7s3": "W(())((()))(())",
             "ex1": "W((()()))"}
    if name in trees:
        p = solve_tree(parse_plane_code(trees[name])).poly
    elif name == "basilica":
        p = parse_poly("-1,0,1")
    else:
        p = QUINTICS[int(name[1]) - 1]
    return p, span, max_iter, name != "ex1"


def test_render_is_exact_with_the_interior_exit(interior_case, monkeypatch):
    # the escape raster against the plain loop on grids where the interior
    # exit fires: the same raster from fewer Horner steps
    p, span, max_iter, has_disc = interior_case
    c = p.as_array()
    radius = escape_radius(p)
    sizes = _counting_polyval(monkeypatch)
    views = [((0.0, 0.01 * span, span, span), (24, 24)),
             ((-0.125 * span, 0.225 * span, 0.675 * span, 0.475 * span),
              (37, 23))]
    for viewport, size in views:
        sizes.clear()
        r = fractal.render_escape(p, viewport, size, max_iter)
        xs, ys = r.pixel_axes()
        steps = _first_entry_plain(c, xs, ys, max_iter, radius,
                                   *_NO_TRAPS, 0.0)[0]
        np.testing.assert_array_equal(r.escaped_at, steps)
        if has_disc:
            assert sum(sizes) < _full_steps(steps, max_iter)
        else:
            assert sum(sizes) == _full_steps(steps, max_iter)

    # max_iter 0 takes no step and classifies nothing
    def refuse(*args):
        raise AssertionError("classify called")

    monkeypatch.setattr(fractal, "classify", refuse)
    viewport, size = views[1]
    r = fractal.render_escape(p, viewport, size, 0)
    xs, ys = r.pixel_axes()
    np.testing.assert_array_equal(
        r.escaped_at,
        _first_entry_plain(c, xs, ys, 0, radius, *_NO_TRAPS, 0.0)[0])


def test_interior_exit_saves_most_steps_on_q2(monkeypatch):
    # the bounded orbits of q2 settle on its real 2-cycle without repeating
    # a value exactly; the trapping disc stops them within a few steps
    q2 = QUINTICS[1]
    sizes = _counting_polyval(monkeypatch)
    r = fractal.render_escape(q2, (0.0, 0.0, 5.63, 5.63), (60, 60), 500)
    assert (r.escaped_at == -1).sum() > 400
    assert 4 * sum(sizes) <= _full_steps(r.escaped_at, 500)


def test_backward_tree(poly):
    # the deepest level of each polynomial solves at least 2 * _CHUNK rows
    # (the rows of level depth-1 outside the copied block), so it takes the
    # warm-started path of preimages
    c = poly.as_array()
    d = poly.degree
    z0 = repelling_fixed_point(poly)
    depth = {2: 13, 5: 6}.get(d, 5)
    assert d ** (depth - 1) - d ** (depth - 2) >= 2 * K._CHUNK
    levels = K.cloud_chains(c, z0, depth)
    assert len(levels) == depth
    parents = np.array([z0])
    for k, level in enumerate(levels, 1):
        assert level.shape == (d ** k,)
        # the preimages of point i of level k-1 sit at [d*i, d*i + d)
        want = parents[np.arange(d ** k) // d]
        assert np.all(np.abs(poly(level) - want) <= 1e-8 * (np.abs(want) + 1))
        if d == 2:
            # level k is every 2^k-th root of unity, each once
            near = np.round(np.angle(level) * 2 ** k / (2 * np.pi))
            near = near.astype(np.int64) % 2 ** k
            roots = np.exp(2j * np.pi * near / 2 ** k)
            assert np.abs(level - roots).max() < 1e-12
            assert len(set(near)) == 2 ** k
        parents = level


def test_backward_tree_copies_the_fixed_points_block(poly, monkeypatch):
    # z0 is the level-1 root j0, so the block [j0 d^(k-1), (j0+1) d^(k-1))
    # of level k is level k-1 bit for bit, and only the other
    # d^(k-1) - d^(k-2) rows of level k-1 are solved
    c = poly.as_array()
    d = poly.degree
    z0 = repelling_fixed_point(poly)
    rows, preimages = [], K.preimages

    def counting(c, z):
        rows.append(len(z))
        return preimages(c, z)

    monkeypatch.setattr(K, "preimages", counting)
    depth = {2: 8, 5: 4}.get(d, 3)
    levels = K.cloud_chains(c, z0, depth)
    assert rows == [1] + [d ** (k - 1) - d ** (k - 2)
                          for k in range(2, depth + 1)]
    j0 = int(np.flatnonzero(levels[0] == z0)[0])
    for k in range(2, depth + 1):
        n = d ** (k - 1)
        assert levels[k - 1][j0 * n:(j0 + 1) * n].tobytes() == \
            levels[k - 2].tobytes()


def test_julia_cloud_solves_no_parent_in_the_block(poly, monkeypatch):
    # the deepest level's draws inside the block are read from level k-1;
    # preimages sees only parents outside the block of level k-1
    d = poly.degree
    k = {2: 12, 5: 5}.get(d, 5)
    z0 = repelling_fixed_point(poly)
    levels = K.cloud_chains(poly.as_array(), z0, k - 1)
    j0 = int(np.flatnonzero(levels[0] == z0)[0])
    n = d ** (k - 2)
    block = levels[-1][j0 * n:(j0 + 1) * n]
    seen, preimages = [], K.preimages

    def recording(c, z):
        seen.append(z.copy())
        return preimages(c, z)

    monkeypatch.setattr(K, "preimages", recording)
    cloud = fractal.julia_cloud(poly, 3000, rng_seed=5)
    top, drawn = cloud[:d ** (k - 1)], cloud[d ** (k - 1):]
    np.testing.assert_array_equal(top, levels[-1])
    pick = np.random.default_rng(5).choice(d ** k, len(drawn), replace=False)
    inside = pick // d ** (k - 1) == j0
    assert inside.any() and not inside.all()
    # one solve per level, the last k calls; the deepest is of the distinct
    # parents outside the block
    parents = len(np.unique(pick[~inside] // d))
    assert [len(z) for z in seen[-k:]] == \
        [1] + [d ** (j - 1) - d ** (j - 2) for j in range(2, k)] + [parents]
    assert not np.isin(seen[-1], block).any()
    # a draw in the block is its point of level k-1, bit for bit
    assert drawn[inside].tobytes() == \
        top[pick[inside] - j0 * d ** (k - 1)].tobytes()
    assert not np.isin(drawn[~inside], top).any()


def test_julia_cloud_draws_from_the_first_level(poly):
    # a target of at most d points is z0 plus target - 1 points of level 1
    d = poly.degree
    z0 = repelling_fixed_point(poly)
    level = K.cloud_chains(poly.as_array(), z0, 1)[0]
    for target in (1, 2, d):
        cloud = fractal.julia_cloud(poly, target, rng_seed=3)
        assert len(cloud) == target and cloud[0] == z0
        # drawn without replacement; a draw of root j0 repeats z0
        assert len(set(cloud[1:])) == target - 1
        assert np.isin(cloud, level).all()
        # p maps every point onto z0, so the cloud into itself
        assert np.abs(poly(cloud) - z0).max() <= 1e-8 * (1 + abs(z0))


def test_cloud_chains_rejects_a_point_that_is_not_fixed():
    with pytest.raises(ValueError):
        K.cloud_chains(np.array([0, 0, 1], dtype=np.complex128), 0.5, 2)


def _warm_targets(poly):
    """More than two chunks of targets, shuffled: uniform ones over a square
    around the roots of p, some repeated, and the critical values of p and
    +-1, each exactly and at 1e-9 and 1e-10 in eight directions.  Returns
    the targets and the critical values."""
    c = poly.as_array()
    rng = np.random.default_rng(11)
    half = np.abs(K.aberth_roots(c)).max() + 1.0
    z = rng.uniform(-half, half, (2 * K._CHUNK + 300, 2)) @ [1, 1j]
    crit = poly(np.roots(_derivative(c)[::-1]))
    special = np.concatenate([crit, [1.0, -1.0]])
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    near = (special[:, None] + np.concatenate([[0], 1e-9 * ring, 1e-10 * ring])
            [None, :]).ravel()
    z = np.concatenate([z, z[:64], z[:32], near]).astype(np.complex128)
    return rng.permutation(z), crit


def _assert_solved(c, w, z):
    """Every row holds finite roots with residual <= 1e-8(|z| + 1)."""
    assert np.isfinite(w).all()
    resid = np.abs(np.polyval(c[::-1], w) - z[:, None]).max(axis=1)
    assert (resid <= 1e-8 * (np.abs(z) + 1)).all()


def test_warm_preimages_match_cold(poly):
    # the warm path against a cold solve of every row: generic rows hold
    # the cold root set one to one, rows at or next to a critical value
    # (multiple roots, split by ~1e-6 on both paths) are held to the residual
    c = poly.as_array()
    z, crit = _warm_targets(poly)
    warm = K.preimages(c, z)
    cold = K._cold(c, _derivative(c), z)
    _assert_solved(c, warm, z)
    _assert_solved(c, cold, z)
    generic = np.abs(z[:, None] - crit[None, :]).min(axis=1) > 1e-3
    assert generic.sum() >= 2 * K._CHUNK
    dist = np.abs(warm[generic][:, :, None] - cold[generic][:, None, :])
    pair = dist.argmin(axis=2)
    assert (np.sort(pair, axis=1) == np.arange(poly.degree)).all()
    assert (dist.min(axis=2) <= 1e-12 * (1 + np.abs(warm[generic]))).all()


def test_warm_rows_that_fail_are_solved_cold(poly, monkeypatch):
    # a warm row left above the residual bound (here: every warm row is cut
    # to one Aberth step) is solved again by the cold solve
    c = poly.as_array()
    z, _ = _warm_targets(poly)
    cold, iterate = K._cold, K._aberth_iterate
    inside, again = [], []

    def flagged(c, dc, z):
        again.append(len(z))
        inside.append(True)
        try:
            return cold(c, dc, z)
        finally:
            inside.pop()

    def cut(c, dc, w, z, maxiter, tol):
        return iterate(c, dc, w, z, maxiter if inside else 1, tol)

    monkeypatch.setattr(K, "_cold", flagged)
    monkeypatch.setattr(K, "_aberth_iterate", cut)
    w = K.preimages(c, z)
    # the leaders, then the failed rows
    assert len(again) == 2 and again[1] > 0
    _assert_solved(c, w, z)


def test_small_solves_stay_cold(poly):
    # below _CHUNK rows preimages is one _cold solve, bit for bit,
    # and aberth_roots is its one-row case at z = 0
    c = poly.as_array()
    dc = _derivative(c)
    z, _ = _warm_targets(poly)
    z = z[:K._CHUNK - 1]
    np.testing.assert_array_equal(K.preimages(c, z), K._cold(c, dc, z))
    np.testing.assert_array_equal(K.aberth_roots(c),
                                  K._cold(c, dc, np.zeros(1))[0])


def test_warm_cloud_takes_fewer_iterations(monkeypatch):
    # a regression guard on the warm start: the 50k-point cloud of the
    # 7-edge anchor tree takes 2.4 Aberth row-iterations per solved row,
    # 3.2 without the predictor step and 5.7 when every row starts cold
    p = solve_tree(parse_plane_code("W((())())()(())")).poly
    iterations, rows = [0], [0]
    pair_sums, preimages = K._pair_sums, K.preimages

    def counted_sums(w, repair):
        # w is (d, rows): one row-iteration per column
        iterations[0] += w.shape[1]
        return pair_sums(w, repair)

    def counted_rows(c, z):
        rows[0] += len(z)
        return preimages(c, z)

    monkeypatch.setattr(K, "_pair_sums", counted_sums)
    monkeypatch.setattr(K, "preimages", counted_rows)
    fractal.julia_cloud(p, 50_000)
    assert iterations[0] <= 3 * rows[0]


def test_newton_periodic(poly):
    # converged points are roots of p(p(z)) - z, the walk's second point is
    # p(z), and each multiplier is p'(z) p'(p(z)) there
    c = poly.as_array()
    seeds = np.random.default_rng(1).uniform(-1, 1, (40, 2)) @ [1, 1j]
    pp = ComplexPoly((c[-1],))
    for a in c[-2::-1]:
        pp = pp * poly + a
    fixed = pp - ComplexPoly((0, 1))
    dfixed = derivative(fixed)
    roots = np.roots(fixed.as_array()[::-1])
    # np.roots is good to about 1e-11 on the quintic's degree-25 p(p(z)) - z,
    # short of the 1e-12 compared below: polish each root by Newton
    for _ in range(3):
        roots = roots - evaluate(fixed, roots) / evaluate(dfixed, roots)
    dp = derivative(poly)
    converged = 0
    for seed in seeds:
        pts, mult, ok = K.newton_periodic(c, seed, 2)
        if not ok:
            continue
        converged += 1
        z = pts[0]
        _close(z, roots[np.abs(z - roots).argmin()])
        _close(pts[1], evaluate(poly, z))
        _close(mult, evaluate(dp, z) * evaluate(dp, evaluate(poly, z)))
    assert converged


def test_newton_periodic_parabolic_point():
    # z^2 + 1/4 has the fixed point 1/2 with multiplier exactly 1, where
    # the Newton step (p(z) - z) / (p'(z) - 1) would divide by zero
    pts, mult, ok = K.newton_periodic([0.25, 0, 1], 0.5, 1)
    assert pts == [0.5] and mult == 1.0 and ok
