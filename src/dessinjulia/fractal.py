"""Julia set rendering and Hausdorff dimension estimation.

Two renderers (escape time, basin first-entry with banded coloring) and two
dimension estimators that read one backward tree, the levels of iterated
preimages of a repelling fixed point (equidistributed to the Brolin
measure): box counting on a point cloud drawn from its deepest levels, and
tree pressure, the root of P_k(s) - P_(k-1)(s) with
P_k(s) = log sum |(p^k)'(w)|^-s over level k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (_morton, aberth_roots, cloud_chains, render_basin_grid,
                       render_escape_grid)
from .dynamics import (attracting_cycles, classify, escape_radius,
                       trapping_radius)
from .polynomial import derivative, evaluate


class FractalError(RuntimeError):
    pass


# colours of the band codes of basin rasters (``Raster.band``)
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

    ``viewport`` is (center_x, center_y, half_width, half_height), all
    finite and both halves > 0; pixel centers sample the rectangle
    uniformly, row 0 at the bottom.
    ``escaped_at[i, j]`` is the first-entry iteration count (-1 = never)
    and ``band`` the entry-time band (basin rasters only).  The five
    band codes are the rows of ``_BAND_RGB``: 0 white, 1 green, 2 light
    red, 3 deep red and 4 blue (never entered).
    """
    width: int
    height: int
    viewport: tuple
    escaped_at: np.ndarray
    band: np.ndarray = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("raster must be at least 1x1 pixels")
        _, _, hw, hh = self.viewport
        if not (np.isfinite(self.viewport).all() and hw > 0 and hh > 0):
            raise ValueError("viewport must be finite, with half-width and "
                             "half-height > 0")

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
        """Binary P6 image; rows are written top-down, so the raster's
        bottom-up row order is flipped here."""
        rgb = self.to_rgb()
        h, w, _ = rgb.shape
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode())
            fh.write(rgb[::-1].tobytes())


def render_escape(p, viewport=(0.0, 0.0, 2.0, 2.0), size=(400, 400),
                  max_iter=200):
    """Escape-time raster: per pixel, iterations until |z| exceeds the
    escape radius (-1 if still bounded after max_iter).

    The attracting cycles that the orbits of +1 and -1 reach within
    max_iter steps (``classify``) each get a certified trapping disc
    (``trapping_radius``) where one exists, and a pixel whose orbit enters
    one stops there, unescaped: the raster is that of the full loop.  On a
    polynomial whose cycles attract neither +1 nor -1 every bounded pixel
    runs max_iter steps."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    raster = Raster(int(size[0]), int(size[1]), tuple(viewport), None)
    xs, ys = raster.pixel_axes()
    radius = escape_radius(p)
    interior = []
    if max_iter >= 1:
        for cyc in attracting_cycles(classify(p, max_iter)):
            rho = trapping_radius(p, cyc)
            if rho is not None:
                interior.append((cyc[0], rho[0]))
    raster.escaped_at = render_escape_grid(p.as_array(), xs, ys, max_iter,
                                           radius, interior)
    return raster


def render_basins(p, classification, viewport=(0.0, 0.0, 2.0, 2.0),
                  size=(400, 400), trap_radius=0.01, thresholds=(5, 7, 10),
                  max_iter=200, escape_bound=None):
    """First-entry raster into the trap set
    {|z| > escape_bound} union trap_radius-balls around every attractor
    point, banded by the entry-time thresholds t1 <= t2 <= t3: band 0 holds
    the entry steps up to t1, band 1 those in (t1, t2], band 2 those in
    (t2, t3], band 3 those above t3 and band 4 the pixels never entered."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    thresholds = np.asarray(thresholds)
    if thresholds.shape != (3,) or (np.diff(thresholds) < 0).any():
        raise ValueError("thresholds must be three non-decreasing steps")
    if not 0 <= trap_radius < np.inf:
        raise ValueError("trap_radius must be finite and >= 0")
    traps = [z for cyc in attracting_cycles(classification) for z in cyc]
    if not traps and "escape" not in (classification.fate_plus.kind,
                                      classification.fate_minus.kind):
        raise FractalError("no attractor and no escaping critical orbit; "
                           "nothing to trap on")
    if escape_bound is None:
        escape_bound = escape_radius(p)
    elif not escape_bound > 0:
        raise ValueError("escape_bound must be > 0")
    raster = Raster(int(size[0]), int(size[1]), tuple(viewport), None)
    xs, ys = raster.pixel_axes()
    steps = render_basin_grid(p.as_array(), xs, ys, max_iter, escape_bound,
                              traps, trap_radius)
    band = np.searchsorted(thresholds, steps).astype(np.int8)
    band[steps < 0] = 4
    raster.escaped_at, raster.band = steps, band
    return raster


# ------------------------------------------------------------- point cloud


def repelling_fixed_point(p):
    """The repelling fixed point (|p'| > 1) of largest multiplier.  A tie,
    |p'| within 1e-9 relative of the largest (the two points of a conjugate
    pair of a real polynomial), goes to the largest imaginary part, compared
    with a 1e-9(1 + |z|) tolerance, then to the largest real part, so that
    the rounding of the root solve does not decide it.  A root of
    p(z) - z that the solve overflowed to inf or NaN is no candidate."""
    c = p.as_array().copy()
    c[1] -= 1.0  # p(z) - z
    dp = derivative(p)
    cand = aberth_roots(c)
    cand = [complex(z) for z in cand[np.isfinite(cand)]]
    mult = [abs(evaluate(dp, z)) for z in cand]
    top = max(mult, default=0.0)
    if not top > 1.0 + 1e-9:
        raise FractalError("no repelling fixed point found")
    cand = [z for z, m in zip(cand, mult)
            if m >= top * (1.0 - 1e-9) and m > 1.0 + 1e-9]
    y = max(z.imag for z in cand)
    return max((z for z in cand if z.imag >= y - 1e-9 * (1.0 + abs(z))),
               key=lambda z: z.real)


def julia_cloud(p, target_points=20000, rng_seed=0):
    """Point cloud on the Julia set from the backward tree of a repelling
    fixed point z0.  With k the first depth where d^k >= target_points, the
    cloud is all of level k-1 (z0 when k = 1) plus target_points - d^(k-1)
    points of level k, drawn without replacement (deterministic given
    rng_seed); ``cloud_chains`` builds both.  p maps level k onto level
    k-1, and z0 is one of its own preimages, so level k-1 reappears inside
    level k as the block below z0: p maps the cloud into itself, and a
    draw inside that block is an exact duplicate of a point of level k-1."""
    if p.degree < 2:
        raise FractalError("need degree >= 2")
    if target_points < 1:
        raise ValueError("target_points must be positive")
    d = p.degree
    k = 1
    while d ** k < target_points:
        k += 1
    z0 = repelling_fixed_point(p)
    pick = np.random.default_rng(rng_seed).choice(
        d ** k, target_points - d ** (k - 1), replace=False)
    levels = cloud_chains(p.as_array(), z0, k, pick)
    return np.concatenate([levels[-2] if k > 1 else [z0], levels[-1]])


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

    @classmethod
    def from_json(cls, rec):
        return cls(rec["value"], rec["method"], rec["diagnostics"],
                   rec["confidence"])


def _box_ladder(pts, coarsest_div, finest_div):
    """(div, N, ratio) for div = coarsest_div, 2 coarsest_div, ... up to
    finest_div, stopping before the first saturated scale (N >= points/4).
    N counts the boxes of side extent/div that the cloud meets, ratio is N
    over the count for the half sample pts[::2].

    Every scale comes from one sort of the cloud's keys and one of the half
    sample's.  The box indices are computed once, at the finest division
    top; since extent/(2 div) is exactly half of extent/div, the index at
    division top / 2**j is the finest one shifted right by j, bit for bit.
    So the boxes at every scale are runs of the sorted Morton keys shifted
    right by 2j."""
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    if extent <= 0:
        raise FractalError("degenerate point set")
    divs = [coarsest_div]
    while divs[-1] * 2 <= finest_div:
        divs.append(divs[-1] * 2)
    e = extent / divs[-1]
    keys = _morton(np.floor((pts.real - pts.real.min()) / e).astype(np.int64),
                   np.floor((pts.imag - pts.imag.min()) / e).astype(np.int64))
    half = np.sort(keys[::2])
    keys = np.sort(keys)

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


def box_dim(points, disconnected=False):
    """Box-counting dimension of a point cloud: slope of log N(eps) against
    log(1/eps) over the dyadic ladder of box sizes eps = extent/div, div =
    8, 16, ..., 2**18.  The boxes of every scale are counted from one sort
    of the cloud's Morton keys at the finest division (see _box_ladder).

    Only resolution-complete scales enter the fit: a scale is kept when the
    box count barely moves on halving the sample (ratio at most 1.05),
    i.e. the sample already visits every box the set meets there.  Finer
    scales count the sampling measure, not the set, and systematically
    underestimate.  Saturated scales (N >= points/4) are dropped too.
    Confidence is low on a poor fit or when the set is known to be totally
    disconnected (box counting needs unreachable sample density on Cantor
    dusts)."""
    pts = np.asarray(points, dtype=np.complex128)
    if len(pts) < 10 ** 4:
        raise ValueError("need at least 10^4 points")
    # scan the dyadic ladder, then keep the contiguous resolution-complete
    # run: the ratio can start high (boxes barely touching the set are
    # rarely visited at coarse scales), dips, and rises again past the
    # sampling resolution
    ladder = _box_ladder(pts, 8, 2 ** 18)
    logs, counts = [], []
    started = False
    for div, n, ratio in ladder:
        if ratio <= 1.05:
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


# largest backward-tree level that pressure_dim solves for
LEVEL_CAP = 20000


def _log_sum_exp(x):
    m = float(np.max(x))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(x - m))))


def _step_root(prev, cur):
    """Bisection root on (0, 2) of P_k(s) - P_(k-1)(s), where P_k(s) =
    log sum exp(-s L) over the log-derivatives L of level k; None when s = 2
    does not bracket it (the difference is log d > 0 at s = 0).  Once the
    midpoint is lo or hi, no later step of the 60 moves them."""
    def f(s):
        return _log_sum_exp(-s * cur) - _log_sum_exp(-s * prev)
    lo, hi = 0.0, 2.0
    if not f(hi) < 0:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi), hi - lo


def pressure_dim(p, max_period=None):
    """Hausdorff dimension by tree pressure (Przytycki, Rivera-Letelier &
    Smirnov 2004).

    Level k of the backward tree of a repelling fixed point gives P_k(s) =
    log sum |(p^k)'(w)|^-s; the estimate is the root in (0, 2) of
    P_k - P_(k-1) at the deepest depth k <= max_period whose step brackets
    one.  max_period is that depth bound, by default the largest with
    d^k <= LEVEL_CAP.  drift is the spread of the roots over the last three
    depths; confidence is low when it exceeds 0.02, when one of those
    depths brackets no root, or when ``classify`` finds +1 or -1 attracted
    by a weakly hyperbolic cycle (|multiplier| > 0.9)."""
    d = p.degree
    if d < 2:
        raise FractalError("need degree >= 2")
    if max_period is None:
        max_period = 1
        while d ** (max_period + 1) <= LEVEL_CAP:
            max_period += 1
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if d ** max_period > LEVEL_CAP:
        raise FractalError(
            f"degree^{max_period} exceeds the level cap {LEVEL_CAP}; "
            "use a smaller max_period")
    dp = derivative(p)
    prev = np.zeros(1)  # log|(p^0)'| at the base point
    roots = []
    with np.errstate(divide="ignore"):
        for level in cloud_chains(p.as_array(), repelling_fixed_point(p),
                                  max_period):
            # (p^k)'(w) = p'(w) (p^(k-1))'(p(w)), and p(w) is w's parent
            cur = np.repeat(prev, d) + np.log(np.abs(evaluate(dp, level)))
            roots.append(_step_root(prev, cur))
            prev = cur
    bracketed = [k for k, r in enumerate(roots, 1) if r]
    if not bracketed:
        raise FractalError(f"no depth up to {max_period} brackets a root of "
                           "the tree pressure step in (0, 2)")
    depth = bracketed[-1]
    root, width = roots[depth - 1]
    last = [r[0] for r in roots[-3:] if r]
    drift = max(last) - min(last) if last else 0.0
    cls = classify(p)
    weak = any(abs(f.multiplier) > 0.9
               for f in (cls.fate_plus, cls.fate_minus) if f.bounded)
    conf = "ok" if (drift <= 0.02 and len(last) == len(roots[-3:])
                    and not weak) else "low"
    diag = {"pressure_bracket": width, "max_period": max_period,
            "depth": depth, "drift": drift,
            "points_at_max_period": d ** max_period}
    return DimensionEstimate(min(max(root, 0.0), 2.0), "pressure", diag, conf)
