"""Numerical hot loops.

Aberth and the render loop are vectorized numpy.  The orbit kernels follow
one point in plain Python complex arithmetic, one Horner step at a time:
Brent's cycle search (``orbit_brent``, its steps written out in the loop)
and Newton on p^k(z) - z from one seed (``newton_periodic``).  One Aberth
iteration runs in batches of _CHUNK rows: ``preimages`` starts each row
cold and ``aberth_roots`` is its one-row case.  In the backward tree of a
fixed point z0 (``cloud_chains``, one batched solve per level), level k-1
holds level k-2 with the roots of each of its points, as z0 is one of its
own preimages: from level 2 on a row starts from the roots of its nearest
such anchor, moved by one predictor step (``_anchored``).  A
batched Aberth step works on a (d, rows) array, root i of every row one
contiguous vector: one Horner pass gives p and p', each pair i < j is
reciprocated once for the pair sums of both its points, and the correction
is p / (p' - p s), one division; zero differences (two equal points) are
repaired only when the sums come out non-finite.  Every array Horner
evaluation (``_polyval``, ``_polyval2``) starts from one multiply,
c[-1] z + c[-2], and runs its later steps in place.  Both renderers run one
first-entry loop (``render_basin_grid``) over the pixels still live;
escape time is that loop with no traps.  Each step of the loop goes over
the live pixels in tiles of _TILE points and does all its work on a tile
(Horner step, tests, writes and moving the survivors down in place) while
the tile is still in cache: a 400x400 grid's values are 2.5 MB, more than
an L2 cache holds.  Its trap test takes two stages: one pass picks the
points in the traps' imaginary band, and only those are tested on the real
range and by one membership matrix that decides every trap at once.  An
escape raster drops a pixel unwritten once it lies in a disc that p
provably maps into a chain of discs around an attracting cycle, inside the
escape disc: its orbit can never escape.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------- polyval


def _polyval(c, z, out=None):
    """p(z) elementwise for an array z: the first Horner step c[-1] z +
    c[-2] makes the accumulator, the later ones run in place, and for p not
    constant the last one writes into out when given (out may be z)."""
    if len(c) == 1:
        return np.full_like(z, c[0], dtype=np.complex128)
    acc = np.multiply(c[-1], z, out=out if len(c) == 2 else None)
    acc += c[-2]
    for i in range(len(c) - 3, -1, -1):
        acc = np.multiply(acc, z, out=acc if i or out is None else out)
        acc += c[i]
    return acc


def _polyval2(c, dc, z):
    """p(z) and p'(z) in one Horner pass, dc the coefficients of p'; each
    is accumulated as ``_polyval`` does, so both match it bit for bit."""
    if len(dc) == 1:
        return _polyval(c, z), _polyval(dc, z)
    p = np.multiply(c[-1], z)
    p += c[-2]
    dp = np.multiply(dc[-1], z)
    dp += dc[-2]
    for i in range(len(dc) - 3, -1, -1):
        p *= z
        p += c[i + 1]
        dp *= z
        dp += dc[i]
    p *= z
    p += c[0]
    return p, dp


def _horner(cl, z):
    """p(z) for one point, with cl the coefficients as a sequence of Python
    complex numbers."""
    acc = cl[-1]
    for a in cl[-2::-1]:
        acc = acc * z + a
    return acc


# ---------------------------------------------------------------- Aberth

def _start_radius(c, z):
    """Fujiwara-type start radius of p(w) - z[r] for every r: the largest
    (|c_i| / |c_d|)^(1/(d - i)), with c_0 - z[r] in place of c_0.  It is
    at least half the largest root modulus (Fujiwara) and at most d times
    it."""
    d = len(c) - 1
    an = abs(c[-1])
    bound = max([(abs(c[i]) / an) ** (1.0 / (d - i)) for i in range(1, d)],
                default=0.0)
    return np.maximum(bound, (np.abs(c[0] - z) / an) ** (1.0 / d))


def _pair_sums(w, repair):
    """s[i, r] = sum over j != i of 1 / (w[i, r] - w[j, r]) for a (d, rows)
    array w, so that root i of every row is one contiguous vector.  Each
    pair i < j is reciprocated once: the block 1 / (w[i] - w[i+1:]) is
    added to s[i] and, as 1 / (w[j] - w[i]) = -1 / (w[i] - w[j]),
    subtracted from s[i+1:].  With repair, a zero difference w[i] - w[j],
    i < j, counts as -(1e-12 + 1e-12j)(1 + |w[i, r]|): a step above the
    rounding of the two equal points that pushes them apart instead of
    moving them together."""
    d = len(w)
    s = np.zeros_like(w)
    buf = np.empty((d - 1,) + w.shape[1:], dtype=w.dtype)
    for i in range(d - 1):
        inv = np.subtract(w[i], w[i + 1:], out=buf[:d - 1 - i])
        if repair:
            np.copyto(inv, -(1e-12 + 1e-12j) * (1.0 + np.abs(w[i])),
                      where=inv == 0.0)
        np.divide(1.0, inv, out=inv)
        s[i] += inv.sum(axis=0)
        s[i + 1:] -= inv
    return s


def _aberth_iterate(c, dc, w, z, maxiter, tol):
    """Aberth iteration on p(w) = z[r] for every row r of the (rows, d)
    array w at once, run on a (d, rows) copy.  One Horner pass gives p and
    p' (``_polyval2``), and the correction of each root is p / (p' - p s)
    with s its pair sums: a non-finite one (p = 0 next to a multiple root,
    or an overflow) takes no step.  A row stops when its largest relative
    correction falls below tol.  Two equal points make their pair sums
    non-finite; only then are the sums taken again with the zero
    differences repaired.  Both repairs are guarded by one sum over the
    array, not a test of every entry: a non-finite entry makes the sum
    non-finite, and a sum that overflows from finite entries only takes
    the repair, which changes nothing when no difference is zero and no
    correction is non-finite, so the bits are those of a test per entry."""
    out = np.empty_like(w)
    w = w.T.copy()
    rows = np.arange(len(out))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(maxiter):
            p, dp = _polyval2(c, dc, w)
            p -= z
            s = _pair_sums(w, False)
            if not np.isfinite(s.sum()):
                s = _pair_sums(w, True)
            s *= p
            np.subtract(dp, s, out=s)
            corr = np.divide(p, s, out=p)
            if not np.isfinite(corr.sum()):
                corr[~np.isfinite(corr)] = 0.0
            w -= corr
            done = (np.abs(corr) / (1.0 + np.abs(w))).max(axis=0) < tol
            if done.any():
                out[rows[done]] = w[:, done].T
                keep = ~done
                rows, w, z = rows[keep], w[:, keep], z[keep]
                if not len(rows):
                    break
    out[rows] = w.T
    return out


def aberth_roots(coeffs):
    """All roots of the dense ascending-coefficient polynomial at once: the
    one-row case of ``preimages`` (p(w) = 0), solved cold."""
    c = np.asarray(coeffs, dtype=np.complex128)
    n = len(c) - 1
    if n < 1:
        return np.empty(0, dtype=np.complex128)
    if n == 1:
        return np.array([-c[0] / c[1]])
    return preimages(c, np.zeros(1))[0]


# ---------------------------------------------------------------- orbits

ORBIT_RUNNING = 0
ORBIT_ESCAPE = 1
ORBIT_CYCLE = 2


def orbit_brent(coeffs, z0, max_iter, radius, tol):
    """Brent's cycle search on the orbit of z0: (ORBIT_ESCAPE, 0, z, steps)
    once |z| > radius, (ORBIT_CYCLE, lam, z, steps) once z comes within tol
    of the tortoise lam steps back, else ORBIT_RUNNING after max_iter.
    Each step is ``_horner`` written out in the loop, on the coefficients
    reversed once, so the orbit has the same bits.  A point that is not
    finite has escaped, and so has one whose modulus, or distance to the
    tortoise, is past the largest double (``abs`` raises OverflowError):
    the orbit has left what doubles hold."""
    top, *rest = [complex(x) for x in
                  np.asarray(coeffs, dtype=np.complex128)[::-1]]
    tortoise = hare = complex(z0)
    power, lam, steps = 1, 0, 0
    while steps < max_iter:
        acc = top
        for a in rest:
            acc = acc * hare + a
        hare = acc
        steps += 1
        lam += 1
        try:
            ah = abs(hare)
            if ah > radius or not math.isfinite(ah):
                return ORBIT_ESCAPE, 0, hare, steps
            if abs(hare - tortoise) < tol * (1.0 + ah):
                return ORBIT_CYCLE, lam, hare, steps
        except OverflowError:
            return ORBIT_ESCAPE, 0, hare, steps
        if lam == power:
            tortoise = hare
            power *= 2
            lam = 0
    return ORBIT_RUNNING, 0, hare, steps


# ---------------------------------------------------------------- rendering

# Live pixels per tile of the render loop: a tile's values take 256 kB.
# On the 16 perfbench render rasters (2 MB L2 per core; sums of per-raster
# minima over 9 runs, measured twice) 16k points was fastest, 8k and 32k
# within 8% of it, 4k and 64k 7-13% slower and one tile per step 33-36%.
_TILE = 16384


def render_basin_grid(coeffs, xs, ys, max_iter, radius, traps, trap_r,
                      interior=()):
    """Per pixel, the first step at which the orbit leaves the disc of the
    given radius or comes within trap_r of a trap; -1 if neither within
    max_iter.

    The loop runs over the live pixels only: their values and flat pixel
    indices sit at the front of two 1-D arrays, z and pix.  Each step goes
    over them in tiles of _TILE points and, while a tile is still in cache,
    takes its Horner step (the last multiply and add writing into z), tests
    it, writes the pixels that entered through their indices and moves the
    survivors down to the front of z and pix (never past the tile, so
    nothing is overwritten before it is read); a tile that drops nothing
    while nothing has moved down stays where it is, not copied.  The traps
    are tested in two stages.  One ``flatnonzero`` picks the tile's points
    inside the imaginary band of the traps' bounding box widened by 2
    trap_r, and only those are tested on its real range and for not having
    escaped: every pixel within trap_r of a trap in floating point passes
    both, as the box's edges are compared with directly.  One membership
    matrix |z - traps[t]| <= trap_r, a row per trap and a column per point
    left, then decides every trap at once: a point enters if its column
    holds a True.  It is taken in blocks of trap rows of at most _TILE
    entries, and a point that hits leaves the later blocks.  ``interior`` is
    a list of (centre, rho) discs whose orbits provably never leave the
    escape disc (``dynamics.trapping_radius``); a pixel with |z - centre| <=
    rho(1 - 1e-9) is dropped unwritten, as the full loop would also leave it
    at -1.  Only an escape raster may pass discs: a basin pixel inside one
    would still enter a trap later."""
    c = np.asarray(coeffs, dtype=np.complex128)
    traps = np.asarray(traps, dtype=np.complex128)
    if len(traps):
        x0, x1 = traps.real.min() - 2 * trap_r, traps.real.max() + 2 * trap_r
        y0, y1 = traps.imag.min() - 2 * trap_r, traps.imag.max() + 2 * trap_r
    discs = [(complex(centre), rho * (1.0 - 1e-9)) for centre, rho in interior]
    shape = (len(ys), len(xs))
    z = np.empty(shape, dtype=np.complex128)
    z.real = xs
    z.imag = ys[:, None]
    z = z.ravel()
    steps = np.full(z.size, -1, dtype=np.int32)
    pix = np.arange(z.size, dtype=np.int32)
    live = z.size
    with np.errstate(invalid="ignore", over="ignore"):
        for it in range(max_iter + 1):
            m = 0
            for a in range(0, live, _TILE):
                b = min(a + _TILE, live)
                pt = pix[a:b]
                zt = _polyval(c, z[a:b], z[a:b]) if it else z[a:b]
                done = ~(np.abs(zt) <= radius)
                if len(traps):
                    near = np.flatnonzero((zt.imag >= y0) & (zt.imag <= y1))
                    zn = zt[near]
                    box = (zn.real >= x0) & (zn.real <= x1) & ~done[near]
                    near, zn = near[box], zn[box]
                    t0 = 0
                    while len(near) and t0 < len(traps):
                        t1 = t0 + max(1, _TILE // len(near))
                        hit = (np.abs(zn - traps[t0:t1, None])
                               <= trap_r).any(axis=0)
                        if hit.any():
                            done[near[hit]] = True
                            if t1 < len(traps):
                                near, zn = near[~hit], zn[~hit]
                        t0 = t1
                drop = done
                for centre, rho in discs:
                    drop = drop | (np.abs(zt - centre) <= rho)
                if drop.any():
                    steps[pt[done]] = it
                    keep = ~drop
                    zt, pt = zt[keep], pt[keep]
                elif m == a:
                    # nothing dropped here or before: the tile stays put
                    m = b
                    continue
                z[m:m + zt.size] = zt
                pix[m:m + pt.size] = pt
                m += zt.size
            live = m
            if not live:
                break
    return steps.reshape(shape)


def render_escape_grid(coeffs, xs, ys, max_iter, radius, interior=()):
    """Escape time: the first-entry loop with no traps, dropping the pixels
    that reach an ``interior`` disc as never escaping."""
    return render_basin_grid(coeffs, xs, ys, max_iter, radius, (), 0.0,
                             interior)


# ------------------------------------------------------------ backward tree

_CHUNK = 1024  # rows per batched Aberth solve; bounds its (d, rows) arrays


def _morton(ix, iy):
    """Interleave the bits of two index arrays below 2**32 into one uint64
    key: x in the even bits, y in the odd ones.  Shifting a key right by 2j
    gives the key of the indices shifted right by j."""
    def spread(v):
        v = v.astype(np.uint64)
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                            (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                            (1, 0x5555555555555555)):
            v = (v | (v << np.uint64(shift))) & np.uint64(mask)
        return v
    return spread(ix) | (spread(iy) << np.uint64(1))


def preimages(coeffs, z):
    """All d roots of p(w) = z[r] for every r, as a (len(z), d) array, in
    batches of _CHUNK rows.  Each row starts cold, on a circle at the
    Fujiwara bound of p(w) - z[r]."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    circle = np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.77))
    out = np.empty((len(z), d), dtype=np.complex128)
    for i in range(0, len(z), _CHUNK):
        zi = z[i:i + _CHUNK]
        out[i:i + _CHUNK] = _aberth_iterate(
            c, dc, _start_radius(c, zi)[:, None] * circle, zi, 80, 1e-13)
    return out


def _anchored(c, dc, z, a, ra):
    """``preimages`` of z, given the roots ra[j] of p(w) = a[j] of anchors a.

    A row starts from the roots w of its nearest anchor a along one Morton
    sort of targets and anchors (the nearer of the two beside it), moved by
    one predictor step (z - a) / p'(w).  The anchors are sorted once, the
    targets keyed per batch of _CHUNK rows.  A row left with a residual
    above 1e-8(|z| + 1) is solved again by ``preimages``.  Only the order
    of the d roots inside a row depends on the start."""
    x0 = z.real.min(initial=a.real.min())
    y0 = z.imag.min(initial=a.imag.min())
    extent = max(z.real.max(initial=a.real.max()) - x0,
                 z.imag.max(initial=a.imag.max()) - y0)
    scale = (2 ** 20 - 1) / extent if extent > 0 else 0.0

    def key(v):
        return _morton(np.floor((v.real - x0) * scale).astype(np.int64),
                       np.floor((v.imag - y0) * scale).astype(np.int64))

    keys = key(a)
    order = np.argsort(keys)
    keys = keys[order]
    out = np.empty((len(z), len(c) - 1), dtype=np.complex128)
    fail = np.zeros(len(z), dtype=bool)
    for i in range(0, len(z), _CHUNK):
        zi = z[i:i + _CHUNK]
        j = np.searchsorted(keys, key(zi))
        lo, hi = order[np.maximum(j - 1, 0)], order[np.minimum(j, len(a) - 1)]
        near = np.where(np.abs(zi - a[lo]) <= np.abs(zi - a[hi]), lo, hi)
        w = ra[near]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 1.0 / _polyval(dc, w)
        # an anchor root at a critical point takes no predictor step
        step[~np.isfinite(step)] = 0.0
        w = _aberth_iterate(c, dc, w + (zi - a[near])[:, None] * step, zi,
                            80, 1e-13)
        resid = np.abs(_polyval(c, w) - zi[:, None]).max(axis=1)
        fail[i:i + _CHUNK] = ~(resid <= 1e-8 * (np.abs(zi) + 1.0))
        out[i:i + _CHUNK] = w
    if fail.any():
        out[fail] = preimages(c, z[fail])
    return out


def cloud_chains(coeffs, z0, depth, pick=None):
    """Levels 1..depth of the backward tree of a fixed point z0 of p: level
    k holds the d^k solutions of p^k(w) = z0, and the preimages of point i
    of level k-1 sit at [d*i, d*i + d) of level k.  With pick, the deepest
    level holds only its points at the indices pick.

    z0 is one of its own preimages: the level-1 root j0 nearest z0 is set
    to z0 exactly, and a ValueError is raised when none lies within
    1e-8(1 + |z0|) of it.  The points of level k below that root, the block
    [j0 d^(k-1), (j0 + 1) d^(k-1)), are then level k-1 itself in layout
    order, so from level 2 on a point in the block is read from level k-1
    and ``_anchored`` solves the distinct parents of the others once each,
    in ascending order.  Its anchors are the block of level k-1 (level k-2),
    whose point i has the roots [d*i, d*i + d) of level k-1."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    level = preimages(c, np.array([z0], dtype=np.complex128))[0]
    gap = np.abs(level - z0)
    j0 = int(gap.argmin())
    if not gap[j0] <= 1e-8 * (1.0 + abs(z0)):
        raise ValueError("z0 is not a fixed point of the polynomial")
    level[j0] = z0
    levels = [level if pick is None or depth > 1 else level[pick]]
    for k in range(2, depth + 1):
        top, n = levels[-1], d ** (k - 1)  # n points in z0's block
        idx = np.arange(n * d) if pick is None or k < depth else pick
        inside = idx // n == j0
        level = np.empty(len(idx), dtype=np.complex128)
        level[inside] = top[idx[inside] % n]
        parent, root = np.divmod(idx[~inside], d)
        solve = np.zeros(n, dtype=bool)
        solve[parent] = True
        row = np.cumsum(solve)[parent] - 1
        m = n // d
        level[~inside] = _anchored(c, dc, top[solve], top[j0 * m:(j0 + 1) * m],
                                   top.reshape(m, d))[row, root]
        levels.append(level)
    return levels[:depth]


# ------------------------------------------------- periodic point refinement

_NEWTON_STEPS = 100   # Newton steps of newton_periodic at most
_NEWTON_TOL = 1e-12   # a relative step below this ends Newton
_NEWTON_BOUND = 1e6   # a walk that leaves this disc ends the run


def newton_periodic(coeffs, z, k):
    """Newton on p^(k)(z) - z from the one seed z, in ``_horner`` steps.

    Returns (points, multiplier, converged) from the walk of k steps that
    follows the last Newton step: the orbit points z, p(z), ..., p^(k-1)(z),
    the multiplier (p^k)'(z) and whether p^k(z) is within 1e-6(1 + |z|) of
    z.  Newton stops once a step is below _NEWTON_TOL (1 + |z|) or after
    _NEWTON_STEPS steps.  A walk that leaves the disc of radius
    _NEWTON_BOUND ends the run, unconverged, with the points it reached.
    Where (p^k)'(z) = 1 the step is zero, which ends Newton there."""
    c = np.asarray(coeffs, dtype=np.complex128)
    cl = [complex(x) for x in c]
    dcl = [complex(x) for x in c[1:] * np.arange(1, len(c))]
    z = complex(z)
    done = False
    for it in range(_NEWTON_STEPS + 1):
        points, w, mult = [], z, 1.0 + 0j
        for _ in range(k):
            points.append(w)
            mult *= _horner(dcl, w)
            w = _horner(cl, w)
            if not abs(w) <= _NEWTON_BOUND:
                return points, mult, False
        if done or it == _NEWTON_STEPS:
            return points, mult, abs(w - z) < 1e-6 * (1.0 + abs(z))
        step = (w - z) / (mult - 1.0) if mult != 1.0 else 0j
        z -= step
        done = abs(step) / (1.0 + abs(z)) < _NEWTON_TOL
