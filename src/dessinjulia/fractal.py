"""Julia set rendering and Hausdorff dimension estimation.

Two renderers (escape time, basin first-entry with banded coloring), an
inverse-iteration point cloud, and two dimension estimators: box counting
on a cloud, and a periodic-orbit pressure method (root of the truncated
topological pressure P(s) = (1/k) log sum |(p^k)'|^-s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (aberth_roots, cloud_chains, newton_periodic,
                       render_basin_grid, render_escape_grid)
from .dynamics import escape_radius
from .polynomial import derivative, evaluate


class FractalError(RuntimeError):
    pass


# band codes for basin rasters
BAND_NAMES = ("white", "green", "light_red", "deep_red", "blue")
_BAND_RGB = np.array([
    [255, 255, 255],   # fast entry
    [0, 160, 60],      # medium
    [255, 120, 120],   # slow
    [170, 0, 0],       # very slow
    [70, 70, 255],     # never entered
], dtype=np.uint8)


@dataclass
class Raster:
    """Pixel grid over a complex-plane viewport.

    ``viewport`` is (center_x, center_y, half_width, half_height); pixel
    centers sample the rectangle uniformly, row 0 at the bottom.
    ``escaped_at[i, j]`` is the first-entry iteration count (-1 = never),
    ``attractor_id`` 0 for the escape trap, 1.. for bounded attractors
    (basin rasters only), ``band`` an index into BAND_NAMES.
    """
    width: int
    height: int
    viewport: tuple
    escaped_at: np.ndarray
    attractor_id: np.ndarray = None
    band: np.ndarray = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("raster must be at least 1x1 pixels")

    def pixel_axes(self):
        cx, cy, hw, hh = self.viewport
        xs = cx + hw * (2.0 * (np.arange(self.width) + 0.5) / self.width - 1.0)
        ys = cy + hh * (2.0 * (np.arange(self.height) + 0.5) / self.height - 1.0)
        return xs, ys

    def to_rgb(self):
        if self.band is not None:
            return _BAND_RGB[self.band]
        # escape render: interior black, exterior shaded by escape time
        e = self.escaped_at
        img = np.zeros((self.height, self.width, 3), dtype=np.uint8)
        out = e >= 0
        if out.any():
            t = np.log1p(e[out].astype(np.float64))
            t = t / max(float(t.max()), 1e-12)
            shade = (90 + 165 * (1.0 - t)).astype(np.uint8)
            img[out, 0] = shade
            img[out, 1] = shade
            img[out, 2] = np.minimum(255, shade.astype(np.int32) + 40)
        return img

    def write_ppm(self, path):
        write_ppm(self.to_rgb(), path)


def write_ppm(rgb, path):
    """Binary P6 image; rows are written top-down, so the raster's bottom-up
    row order is flipped here."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb[::-1].tobytes())


def render_escape(p, viewport=(0.0, 0.0, 2.0, 2.0), size=(400, 400),
                  max_iter=200):
    """Escape-time raster: per pixel, iterations until |z| exceeds the
    escape radius (-1 if still bounded after max_iter)."""
    raster = Raster(int(size[0]), int(size[1]), tuple(viewport), None)
    xs, ys = raster.pixel_axes()
    raster.escaped_at = render_escape_grid(p.as_array(), xs, ys, max_iter,
                                           escape_radius(p))
    return raster


def render_basins(p, classification, viewport=(0.0, 0.0, 2.0, 2.0),
                  size=(400, 400), trap_radius=0.01, thresholds=(5, 7, 10),
                  max_iter=200, escape_bound=None):
    """First-entry raster into the trap set
    {|z| > escape_bound} union trap_radius-balls around every attractor
    point, banded by the entry-time thresholds."""
    fates = [classification.fate_plus, classification.fate_minus]
    traps, groups = [], []
    gid = 0
    for fate in fates:
        if not fate.bounded:
            continue
        pts = fate.cycle_points
        # skip a cycle already present (g2/g3 share one attractor)
        if traps and all(min(abs(z - t) for t in traps) < 1e-9 for z in pts):
            continue
        traps.extend(pts)
        groups.extend([gid] * len(pts))
        gid += 1
    has_escape = any(f.kind == "escape" for f in fates)
    if not traps and not has_escape:
        raise FractalError("no attractor and no escaping critical orbit; "
                           "nothing to trap on")
    if escape_bound is None:
        escape_bound = escape_radius(p)
    raster = Raster(int(size[0]), int(size[1]), tuple(viewport), None)
    xs, ys = raster.pixel_axes()
    if not traps:
        traps, groups = [1e300 + 0j], [0]  # unreachable dummy
    steps, which = render_basin_grid(p.as_array(), xs, ys, max_iter,
                                     escape_bound, traps, groups, trap_radius)
    t1, t2, t3 = thresholds
    band = np.full(steps.shape, 4, dtype=np.int8)
    entered = steps >= 0
    band[entered & (steps <= t1)] = 0
    band[entered & (steps > t1) & (steps <= t2)] = 1
    band[entered & (steps > t2) & (steps <= t3)] = 2
    band[entered & (steps > t3)] = 3
    raster.escaped_at, raster.attractor_id, raster.band = steps, which, band
    return raster


# ------------------------------------------------------------- point cloud


def repelling_fixed_point(p):
    """A fixed point with |p'| > 1 (the one of largest multiplier)."""
    c = p.as_array().copy()
    c[1] -= 1.0  # p(z) - z
    cand = aberth_roots(c)
    dp = derivative(p)
    best = None
    for z in cand:
        m = abs(evaluate(dp, complex(z)))
        if m > 1.0 + 1e-9 and (best is None or m > best[1]):
            best = (complex(z), m)
    if best is None:
        raise FractalError("no repelling fixed point found")
    return best[0]


def julia_cloud(p, target_points=20000, rng_seed=0, n_chains=64, burn=20):
    """Point cloud on the Julia set by randomized inverse iteration from a
    repelling fixed point.  Deterministic given rng_seed."""
    if p.degree < 2:
        raise FractalError("need degree >= 2")
    if target_points < 1:
        raise ValueError("target_points must be positive")
    z0 = repelling_fixed_point(p)
    per_chain = -(-target_points // n_chains)
    length = burn + per_chain
    rng = np.random.default_rng(rng_seed)
    choices = rng.integers(0, p.degree, size=(n_chains, length))
    pts = cloud_chains(p.as_array(), np.full(n_chains, z0), choices, burn)
    return pts.ravel()[:target_points]


def save_cloud(points, path):
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for z in points:
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


# ------------------------------------------------------- dimension estimates


@dataclass
class DimensionEstimate:
    value: float
    method: str  # box_counting | pressure
    diagnostics: dict = field(default_factory=dict)
    confidence: str = "ok"  # ok | low

    def __post_init__(self):
        if not 0.0 <= self.value <= 2.0:
            raise ValueError("dimension estimate out of [0, 2]")

    def to_json(self):
        return {"value": self.value, "method": self.method,
                "confidence": self.confidence,
                "diagnostics": {k: v for k, v in self.diagnostics.items()}}


def box_dim(points, coarsest_div=8, finest_div=2 ** 18, disconnected=False,
            completeness_ratio=1.05):
    """Box-counting dimension of a point cloud: slope of log N(eps) against
    log(1/eps) over a dyadic ladder of box sizes.

    Only resolution-complete scales enter the fit: a scale is kept when the
    box count barely moves on halving the sample (ratio below
    completeness_ratio), i.e. the sample already visits every box the set
    meets there.  Finer scales count the sampling measure, not the set, and
    systematically underestimate.  Saturated scales (N >= points/4) are
    dropped too.  Confidence is low on a poor fit or when the set is known
    to be totally disconnected (box counting needs unreachable sample
    density on Cantor dusts)."""
    pts = np.asarray(points, dtype=np.complex128)
    if len(pts) < 10 ** 4:
        raise ValueError("need at least 10^4 points")
    xr = pts.real.max() - pts.real.min()
    yr = pts.imag.max() - pts.imag.min()
    extent = max(xr, yr)
    if extent <= 0:
        raise FractalError("degenerate point set")
    x0, y0 = pts.real.min(), pts.imag.min()
    half = pts[::2]

    def count(q, e):
        ix = np.floor((q.real - x0) / e).astype(np.int64)
        iy = np.floor((q.imag - y0) / e).astype(np.int64)
        return len(np.unique(ix + (2 ** 32) * iy))

    # scan the dyadic ladder, then keep the contiguous resolution-complete
    # run: the ratio can start high (boxes barely touching the set are
    # rarely visited at coarse scales), dips, and rises again past the
    # sampling resolution
    ladder = []
    div = coarsest_div
    while div <= finest_div:
        e = extent / div
        n = count(pts, e)
        if n >= len(pts) / 4:
            break
        ladder.append((div, n, n / count(half, e)))
        div *= 2
    logs, counts = [], []
    started = False
    for div, n, ratio in ladder:
        if ratio <= completeness_ratio:
            started = True
            logs.append(np.log(div))
            counts.append(np.log(n))
        elif started:
            break
    if len(logs) < 3:
        raise FractalError("fewer than 3 resolution-complete scales; "
                           "supply a denser cloud")
    A = np.vstack([logs, np.ones(len(logs))]).T
    (slope, icept), res, *_ = np.linalg.lstsq(A, counts, rcond=None)
    pred = A @ (slope, icept)
    ss_res = float(np.sum((np.array(counts) - pred) ** 2))
    ss_tot = float(np.sum((counts - np.mean(counts)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    conf = "ok" if r2 >= 0.99 and not disconnected else "low"
    return DimensionEstimate(min(max(float(slope), 0.0), 2.0), "box_counting",
                             {"fit_r2": r2, "scales_used": len(logs),
                              "raw_slope": float(slope)}, conf)


def _periodic_data(p, k, cloud, radius, max_rounds=60):
    """|(p^k)'| of the distinct repelling solutions of p^k(z) = z.

    Newton on the period-k equation from the cloud seeds, then a closure
    loop: forward images of found points are again periodic (completing any
    partially found cycle exactly), and their polynomial preimages supply
    seeds ever closer to whatever remains.  Iterate until nothing new turns
    up.  Deduplication on a spatial hash grid."""
    c = p.as_array()
    found = {}
    state = {"tol": None}

    def absorb(seeds):
        pts, mult, ok = newton_periodic(c, seeds, k, maxiter=80, tol=1e-13,
                                        bound=4 * radius)
        keep = ok & (np.abs(mult) > 1.0 + 1e-9) & (np.abs(pts) <= radius)
        pts, mult = pts[keep], mult[keep]
        if len(pts) == 0:
            return 0
        if state["tol"] is None:
            state["tol"] = 1e-8 * (float(np.max(np.abs(pts))) + 1.0)
        tol = state["tol"]
        new = 0
        for z, m in zip(pts, mult):
            z = complex(z)
            ci, cj = round(z.real / tol), round(z.imag / tol)
            if any((ci + di, cj + dj) in found and
                   abs(z - found[(ci + di, cj + dj)][0]) < tol
                   for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                continue
            found[(ci, cj)] = (z, abs(complex(m)))
            new += 1
        return new

    absorb(cloud)
    for _ in range(max_rounds):
        pts = np.array([v[0] for v in found.values()])
        if len(pts) == 0:
            break
        fwd = evaluate(p, pts)
        pre = []
        for z in pts:
            shifted = c.copy()
            shifted[0] -= z
            pre.append(aberth_roots(shifted))
        if absorb(np.concatenate([fwd] + pre)) == 0:
            break
    return np.array([v[1] for v in found.values()])


def _pressure_root(lams, k):
    """Bisection root of P(s) = (1/k) log sum lam^-s on (0, 2)."""
    def P(s):
        return float(np.log(np.sum(lams ** (-s))) / k)
    lo, hi = 0.0, 2.0
    if P(hi) > 0:
        raise FractalError("pressure still positive at s = 2; set not "
                           "resolved as hyperbolic at this truncation")
    if P(lo) < 0:
        raise FractalError("pressure negative at s = 0; too few periodic "
                           "points found")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if P(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def pressure_dim(p, max_period=None, rng_seed=0, degree_cap=20000,
                 attractor_multipliers=()):
    """Hausdorff dimension via periodic orbits: the root s of the truncated
    pressure at period k = max_period.

    Periodic points are found by Newton on p^k(z) = z seeded from an
    inverse-iteration cloud (they are dense in the Julia set), filtered to
    repelling ones.  Diagnostics carry the root drift between k-1 and k and
    the point coverage; confidence is low on large drift or a weakly
    hyperbolic attractor (|multiplier| > 0.9)."""
    if max_period is None:
        max_period = 1
        while p.degree ** (max_period + 1) <= degree_cap:
            max_period += 1
    if p.degree ** max_period > degree_cap:
        raise FractalError(
            f"degree^{max_period} exceeds the root-finding cap {degree_cap}; "
            "use a smaller max_period")
    radius = escape_radius(p)
    cloud = julia_cloud(p, target_points=min(100000, max(12000,
                        4 * p.degree ** max_period)), rng_seed=rng_seed)
    roots_by_k = {}
    for k in (max_period - 1, max_period):
        if k < 1:
            continue
        lams = _periodic_data(p, k, cloud, radius)
        if len(lams) == 0:
            raise FractalError(f"no repelling period-{k} points found")
        root, width = _pressure_root(lams, k)
        roots_by_k[k] = (root, width, len(lams))
    root, width, n_pts = roots_by_k[max_period]
    drift = abs(root - roots_by_k[max_period - 1][0]) \
        if max_period - 1 in roots_by_k else 0.0
    weak = any(abs(m) > 0.9 for m in attractor_multipliers)
    conf = "ok" if drift <= 0.02 and not weak else "low"
    diag = {"pressure_bracket": width, "max_period": max_period,
            "drift": drift, "points_at_max_period": n_pts,
            "coverage": n_pts / p.degree ** max_period}
    return DimensionEstimate(min(max(root, 0.0), 2.0), "pressure", diag, conf)
