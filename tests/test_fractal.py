import numpy as np
import pytest

from dessinjulia import fractal
from dessinjulia._kernels import _morton, cloud_chains
from dessinjulia.dynamics import classify
from dessinjulia.fractal import (DimensionEstimate, FractalError,
                                 _box_ladder, box_dim, julia_cloud,
                                 pressure_dim, render_basins, render_escape,
                                 repelling_fixed_point)
from dessinjulia.plane_tree import parse_plane_code
from dessinjulia.polynomial import ComplexPoly, derivative, evaluate
from dessinjulia.shabat import solve_tree
from test_acceptance import QUINTICS

RNG = np.random.default_rng(20240819)

BASILICA = ComplexPoly((-1, 0, 1))  # z^2 - 1
SQUARE = ComplexPoly((0, 0, 1))  # z^2, Julia set = unit circle


# ------------------------------------------------------------------ rasters


def test_render_escape_basic():
    r = render_escape(BASILICA, (0, 0, 2, 2), (64, 48), 80)
    assert r.escaped_at.shape == (48, 64)
    # corners escape, the superattracting orbit of 0 never does
    assert r.escaped_at[0, 0] >= 0
    assert r.escaped_at[24, 32] == -1
    xs, ys = r.pixel_axes()
    assert len(xs) == 64 and abs(xs[0] + 2 * (1 - 1 / 64)) < 1e-12
    rgb = r.to_rgb()
    assert rgb.shape == (48, 64, 3) and rgb.dtype == np.uint8
    # interior black, exterior shaded
    assert tuple(rgb[24, 32]) == (0, 0, 0)
    assert rgb[0, 0].max() > 0


def test_render_escape_deterministic():
    a = render_escape(SQUARE, (0, 0, 1.5, 1.5), (50, 50), 60)
    b = render_escape(SQUARE, (0, 0, 1.5, 1.5), (50, 50), 60)
    assert np.array_equal(a.escaped_at, b.escaped_at)


def test_write_ppm(tmp_path):
    r = render_escape(BASILICA, (0, 0, 2, 2), (20, 10), 40)
    path = tmp_path / "img.ppm"
    r.write_ppm(path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n20 10\n255\n")
    assert len(data) == len(b"P6\n20 10\n255\n") + 20 * 10 * 3
    # rows come out top-down: first written row is the raster's last
    body = data[len(b"P6\n20 10\n255\n"):]
    first_row = np.frombuffer(body[:60], dtype=np.uint8).reshape(20, 3)
    assert np.array_equal(first_row, r.to_rgb()[-1])


def test_raster_validation():
    with pytest.raises(ValueError):
        render_escape(BASILICA, size=(0, 10))


def test_render_rejects_out_of_range_arguments():
    # a negative budget or trap radius would give a raster that is wrong,
    # not empty: every pixel "never escaped", or no trap ever entered; an
    # escape bound that is not positive lets every pixel escape at step 0
    cls = classify(BASILICA)
    with pytest.raises(ValueError):
        render_escape(BASILICA, size=(8, 8), max_iter=-1)
    for bad in ({"max_iter": -1}, {"trap_radius": -0.01},
                {"trap_radius": float("nan")}, {"escape_bound": 0.0},
                {"escape_bound": -1.0}, {"escape_bound": float("nan")}):
        with pytest.raises(ValueError):
            render_basins(BASILICA, cls, size=(8, 8), **bad)
    # a zero budget tests step 0 only: the corners lie beyond the escape
    # radius 3
    r = render_escape(BASILICA, (0, 0, 4, 4), (8, 8), 0)
    assert set(np.unique(r.escaped_at)) == {-1, 0}
    r = render_basins(BASILICA, cls, (0, 0, 4, 4), (8, 8), max_iter=0,
                      trap_radius=0.0)
    assert set(np.unique(r.escaped_at)) == {-1, 0}


@pytest.mark.parametrize("viewport", [
    (float("nan"), 0, 1, 1), (0, float("inf"), 1, 1), (0, 0, float("nan"), 1),
    (0, 0, 1, float("inf")), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, -1, 1),
    (0, 0, 1, -1)])
def test_render_rejects_bad_viewports(viewport):
    # a non-finite viewport gave every pixel step 0, a negative half-width
    # a mirrored raster
    with pytest.raises(ValueError, match="viewport"):
        render_escape(BASILICA, viewport, (8, 8), 50)
    with pytest.raises(ValueError, match="viewport"):
        render_basins(BASILICA, classify(BASILICA), viewport, (8, 8))


def test_render_basins_rejects_an_infinite_trap_radius():
    # an infinite trap put every pixel in attractor 1 at step 0
    with pytest.raises(ValueError, match="trap_radius"):
        render_basins(BASILICA, classify(BASILICA), size=(8, 8),
                      trap_radius=float("inf"))


def test_render_basins_bands():
    cls = classify(BASILICA)
    r = render_basins(BASILICA, cls, (0, 0, 2, 2), (80, 80),
                      trap_radius=0.05, thresholds=(3, 6, 12), max_iter=300)
    assert r.band is not None
    assert set(np.unique(r.band)) <= {0, 1, 2, 3, 4}
    # almost every pixel eventually enters a trap
    assert np.mean(r.band == 4) < 0.01
    # near the superattracting point 0 entry is immediate (band 0)
    assert r.band[40, 40] == 0
    # entry times respect the band thresholds
    entered = r.escaped_at >= 0
    assert np.all(r.escaped_at[entered & (r.band == 0)] <= 3)
    assert np.all(r.escaped_at[entered & (r.band == 3)] > 12)


@pytest.mark.parametrize("thresholds", [(5, 7, 10), (3, 6, 12), (4, 4, 9)])
def test_render_basins_band_edges(thresholds):
    # the bands against one mask per band, on a raster whose entry steps
    # run from 0 past the last threshold
    cls = classify(BASILICA)
    r = render_basins(BASILICA, cls, (0, 0, 3, 3), (60, 60),
                      trap_radius=0.02, thresholds=thresholds, max_iter=14)
    steps = r.escaped_at
    t1, t2, t3 = thresholds
    want = np.full(steps.shape, 4, dtype=np.int8)
    want[(steps >= 0) & (steps <= t1)] = 0
    want[(steps > t1) & (steps <= t2)] = 1
    want[(steps > t2) & (steps <= t3)] = 2
    want[steps > t3] = 3
    assert r.band.dtype == np.int8
    np.testing.assert_array_equal(r.band, want)
    assert set(np.unique(steps)) >= set(range(t3 + 2)) | {-1}


@pytest.mark.parametrize("thresholds", [(10, 7, 5), (5, 3, 7), (5, 7)])
def test_render_basins_rejects_bad_thresholds(thresholds):
    with pytest.raises(ValueError, match="thresholds"):
        render_basins(BASILICA, classify(BASILICA), size=(4, 4),
                      thresholds=thresholds)


def test_render_basins_escape_only():
    p = ComplexPoly((3, 0, 1))  # z^2 + 3: both critical orbits escape
    cls = classify(p)
    r = render_basins(p, cls, (0, 0, 2, 2), (40, 40), max_iter=100)
    assert np.mean(r.band == 4) < 0.05


# -------------------------------------------------------------- point cloud


def test_repelling_fixed_point():
    z = repelling_fixed_point(BASILICA)
    assert abs(z * z - 1 - z) < 1e-9
    assert abs(2 * z) > 1


def test_repelling_fixed_point_does_not_depend_on_root_rounding(
        monkeypatch):
    # the fixed points of a real quintic come in conjugate pairs, those of
    # the 7-edge anchor tree in pairs z, -conj(z); the two points of a pair
    # have equal |p'|, and the pick must not follow the order of the roots
    # or the last bits of the solve, here swapped between the two points
    mirrored = [(p, np.conj) for p in QUINTICS] + [
        (solve_tree(parse_plane_code("W((())())()(())")).poly,
         lambda r: -np.conj(r))]
    roots = fractal.aberth_roots
    for p, mirror in mirrored:
        want = repelling_fixed_point(p)
        for change in (lambda r: r[::-1], lambda r: np.roll(r, 2), mirror):
            monkeypatch.setattr(fractal, "aberth_roots",
                                lambda c: change(roots(c)))
            got = repelling_fixed_point(p)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))
        monkeypatch.undo()
        # of a tied pair, the larger imaginary part, then the larger real
        # part wins
        other = complex(mirror(want))
        if abs(other - want) > 1e-8:
            assert (want.imag, want.real) > (other.imag, other.real)


def test_julia_cloud_on_circle():
    pts = julia_cloud(SQUARE, 5000, rng_seed=1)
    assert len(pts) == 5000
    assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-8


def test_julia_cloud_deterministic_and_invariant():
    a = julia_cloud(BASILICA, 3000, rng_seed=7)
    b = julia_cloud(BASILICA, 3000, rng_seed=7)
    assert np.array_equal(a, b)
    c = julia_cloud(BASILICA, 3000, rng_seed=8)
    assert not np.array_equal(a, c)
    # forward images of cloud points stay on the Julia set: compare against
    # the distance scale of the cloud itself
    fwd = BASILICA(a[:500])
    d = np.array([np.min(np.abs(a - w)) for w in fwd])
    assert float(np.quantile(d, 0.99)) < 0.02


def test_julia_cloud_maps_into_itself():
    # z0 is one of its own preimages, so level k-1 of the backward tree
    # reappears in level k and p(cloud) lies in the cloud up to rounding
    for p in (BASILICA, QUINTICS[1]):
        cloud = julia_cloud(p, 3000, rng_seed=3)
        d = [np.min(np.abs(cloud - w)) for w in p(cloud)]
        assert max(d) < 1e-9


def test_cloud_validation():
    with pytest.raises(FractalError):
        julia_cloud(ComplexPoly((0, 1)), 100)
    with pytest.raises(ValueError):
        julia_cloud(SQUARE, 0)


# --------------------------------------------------------------- dimensions


def test_box_dim_segment_and_square():
    n = 400_000
    seg = RNG.uniform(0, 1, size=n).astype(np.complex128)
    d = box_dim(seg)
    assert abs(d.value - 1.0) < 0.05
    sq = RNG.uniform(0, 1, size=n) + 1j * RNG.uniform(0, 1, size=n)
    d2 = box_dim(sq)
    assert abs(d2.value - 2.0) < 0.05
    assert d.method == "box_counting" and "fit_r2" in d.diagnostics


def _ladder_by_unique(pts, coarsest_div, finest_div):
    """The box ladder counted scale by scale: integer box indices at each
    division, one np.unique of ix + 2**32 iy for the cloud and one for the
    half sample pts[::2]."""
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    x0, y0 = pts.real.min(), pts.imag.min()

    def count(q, e):
        ix = np.floor((q.real - x0) / e).astype(np.int64)
        iy = np.floor((q.imag - y0) / e).astype(np.int64)
        return len(np.unique(ix + 2 ** 32 * iy))

    ladder = []
    div = coarsest_div
    while div <= finest_div:
        n = count(pts, extent / div)
        if n >= len(pts) / 4:
            break
        ladder.append((div, n, n / count(pts[::2], extent / div)))
        div *= 2
    return ladder


def _ladder_by_argsort(pts, coarsest_div, finest_div):
    """The box ladder from one argsort of the finest Morton keys: the sorted
    keys are gathered through the order, and the half sample is the sorted
    keys whose index in pts is even."""
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    divs = [coarsest_div]
    while divs[-1] * 2 <= finest_div:
        divs.append(divs[-1] * 2)
    e = extent / divs[-1]
    keys = _morton(np.floor((pts.real - pts.real.min()) / e).astype(np.int64),
                   np.floor((pts.imag - pts.imag.min()) / e).astype(np.int64))
    order = np.argsort(keys)
    keys = keys[order]
    half = keys[order % 2 == 0]

    def count(k, shift):
        k = k >> np.uint64(shift)
        return 1 + int(np.count_nonzero(k[1:] != k[:-1]))

    ladder = []
    for j, div in enumerate(divs):
        shift = 2 * (len(divs) - 1 - j)
        n = count(keys, shift)
        if n >= len(pts) / 4:
            break
        ladder.append((div, n, n / count(half, shift)))
    return ladder


def test_box_ladder_is_the_per_scale_count():
    # the sorted Morton keys give every scale's N and half-sample ratio of
    # the per-scale definition exactly, and the ladder of one argsort
    k = np.arange(129 ** 2)
    lattice = (k % 129 + 1j * (k // 129)) / 32  # extent 4
    clouds = {
        "quintic": julia_cloud(QUINTICS[2], 50_000),
        "segment": RNG.uniform(-3, 5, 30_000).astype(np.complex128),
        "square": RNG.uniform(0, 1, 30_000) + 1j * RNG.uniform(0, 1, 30_000),
        # dyadic points on box edges at every scale, the largest on the
        # last edge (index = div)
        "edges": lattice,
    }
    for name, pts in clouds.items():
        for coarsest, finest in ((8, 2 ** 18), (3, 1000), (1, 2 ** 31)):
            want = _ladder_by_unique(pts, coarsest, finest)
            assert want, name
            assert _box_ladder(pts, coarsest, finest) == want, (name, coarsest)
            assert _ladder_by_argsort(pts, coarsest, finest) == want


def test_box_dim_validation():
    with pytest.raises(ValueError):
        box_dim(np.zeros(100, dtype=np.complex128))
    with pytest.raises(FractalError):
        box_dim(np.zeros(20000, dtype=np.complex128))  # degenerate set
    d = box_dim(RNG.uniform(0, 1, 50000).astype(np.complex128),
                disconnected=True)
    assert d.confidence == "low"


def test_dimension_estimate_range():
    with pytest.raises(ValueError):
        DimensionEstimate(2.5, "box_counting")
    rec = DimensionEstimate(1.2, "pressure", {"drift": 0.0}).to_json()
    assert rec == {"value": 1.2, "method": "pressure", "confidence": "ok",
                   "diagnostics": {"drift": 0.0}}


def test_pressure_dim_circle():
    # the unit circle has dimension exactly 1
    d = pressure_dim(SQUARE, max_period=9)
    assert d.method == "pressure"
    assert abs(d.value - 1.0) < 0.02
    assert d.diagnostics["drift"] <= 0.02 and d.confidence == "ok"


def test_pressure_dim_validation():
    with pytest.raises(FractalError):
        pressure_dim(SQUARE, max_period=20)  # 2^20 over the root cap
    # +1 and -1 fall into the fixed point -0.46 of z^2 - 0.6716, of
    # multiplier -0.92: the depths agree within the drift bound, so the weak
    # attractor alone makes the estimate low
    d = pressure_dim(ComplexPoly((-0.6716, 0, 1)), max_period=10)
    assert d.diagnostics["drift"] <= 0.02 and d.confidence == "low"


def test_pressure_dim_refuses_fixed_points_past_the_largest_double():
    # both fixed points of z^2 + 1.3e308(1 + i) overflow to inf in the root
    # solve.  classify first catches an OverflowError of the built-in abs,
    # and CPython's abs of a complex NaN, which leaves errno as it finds
    # it, then raises too: the non-finite candidates are never measured
    p = ComplexPoly((1.3e308 + 1.3e308j, 0, 1))
    classify(p)
    with pytest.raises(FractalError, match="no repelling fixed point"):
        pressure_dim(p)


def test_pressure_dim_rejects_a_bad_max_period():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            pressure_dim(SQUARE, max_period=bad)


def test_pressure_dim_confidence_on_the_quintics():
    # q3 is hyperbolic and settles by the default depth; the other section-4
    # quintics drift over the last three depths, and q5 still gets a value
    q3 = pressure_dim(QUINTICS[2])
    assert q3.confidence == "ok" and abs(q3.value - 0.8605) < 1e-3
    for q in (QUINTICS[0], QUINTICS[1], QUINTICS[3], QUINTICS[4]):
        d = pressure_dim(q)
        assert d.confidence == "low" and 0.0 < d.value < 2.0


def _full_bisection(prev, cur):
    """``_step_root`` as 60 bisection steps with no early end."""
    def f(s):
        return (fractal._log_sum_exp(-s * cur)
                - fractal._log_sum_exp(-s * prev))
    lo, hi = 0.0, 2.0
    if not f(hi) < 0:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def test_step_root_is_the_full_bisection_bit_for_bit():
    # the bisection ends once the midpoint is lo or hi, and the root and
    # bracket width keep their bits: on the depths of pressure_dim on z^2,
    # the section-4 quintics and the 7-edge anchor tree, and on random
    # log-derivative levels
    t7 = solve_tree(parse_plane_code("W((())())()(())")).poly
    cases = []
    for p, depth in [(SQUARE, 9), *[(q, 3) for q in QUINTICS], (t7, 2)]:
        dp = derivative(p)
        prev = np.zeros(1)
        for level in cloud_chains(p.as_array(), repelling_fixed_point(p),
                                  depth):
            cur = (np.repeat(prev, p.degree)
                   + np.log(np.abs(evaluate(dp, level))))
            cases.append((prev, cur))
            prev = cur
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(2, 8))
        prev = rng.normal(0.0, 1.0, d ** int(rng.integers(0, 3)))
        mu = rng.uniform(0.3, 3.0) * np.log(d)
        cases.append((prev, np.repeat(prev, d)
                      + rng.normal(mu, rng.uniform(0.0, 2.0), len(prev) * d)))
    found = 0
    for prev, cur in cases:
        got, want = fractal._step_root(prev, cur), _full_bisection(prev, cur)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array(got).tobytes() == np.array(want).tobytes()
            found += 1
    assert found > 200
