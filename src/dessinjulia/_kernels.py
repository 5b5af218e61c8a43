"""Numerical hot loops.

Aberth and the render loop are vectorized numpy.  The orbit kernels follow
one point in plain Python complex arithmetic, one Horner step at a time:
Brent's cycle search (``orbit_brent``, its steps written out in the loop)
and Newton on p^k(z) - z from one seed (``newton_periodic``).  There is
one Aberth driver, ``preimages``:
each level of the backward tree of a fixed point z0 (``cloud_chains``) is
one batched solve, and ``aberth_roots`` is its one-row case.  z0 is one of
its own preimages, so the block of level k below it is a copy of level
k-1: a full or sampled level k >= 2 reads its points there from level k-1
and solves only the distinct parents of the others.  A solve of
_CHUNK rows or more is warm-started: its rows are sorted along a Morton
curve, every _STRIDE-th is solved cold from the Fujiwara circle, and the
others start from their leader's roots moved by one predictor step.  A
batched Aberth step works on a (d, rows) array, root i of every row one
contiguous vector: one Horner pass gives p and p', each pair i < j is
reciprocated once for the pair sums of both its points, and the correction
is p / (p' - p s), one division; zero differences (two equal points) are
repaired only when the sums come out non-finite.  Both renderers run one
first-entry loop (``render_basin_grid``) over the pixels still live,
testing trap distances only inside the traps' bounding box; escape time is
that loop with no traps.  Each step of the loop goes over the live pixels in tiles of _TILE
points and does all its work on a tile (Horner step, tests, writes and
moving the survivors down in place) while the tile is still in cache: a
400x400 grid's values are 2.5 MB, more than an L2 cache holds.  An escape
raster drops a pixel unwritten once it lies in a disc that p provably maps
into a chain of discs around an attracting cycle, inside the escape disc:
its orbit can never escape.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------- polyval


def _polyval(c, z):
    """p(z) elementwise for an array z, accumulated in place."""
    acc = np.full_like(z, c[-1], dtype=np.complex128)
    for i in range(len(c) - 2, -1, -1):
        acc *= z
        acc += c[i]
    return acc


def _polyval2(c, dc, z):
    """p(z) and p'(z) in one Horner pass, dc the coefficients of p'; each
    is accumulated as ``_polyval`` does, so both match it bit for bit."""
    p = np.full_like(z, c[-1], dtype=np.complex128)
    dp = np.full_like(z, dc[-1], dtype=np.complex128)
    for i in range(len(dc) - 2, -1, -1):
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
    differences repaired."""
    out = np.empty_like(w)
    w = w.T.copy()
    rows = np.arange(len(out))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(maxiter):
            p, dp = _polyval2(c, dc, w)
            p -= z
            s = _pair_sums(w, False)
            if not np.isfinite(s).all():
                s = _pair_sums(w, True)
            s *= p
            np.subtract(dp, s, out=s)
            corr = np.divide(p, s, out=p)
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
    one-row case of ``preimages`` (p(w) = 0)."""
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


def render_basin_grid(coeffs, xs, ys, max_iter, radius, traps, groups, trap_r,
                      interior=()):
    """Per pixel, the first step at which the orbit leaves the disc of the
    given radius (attractor id 0) or comes within trap_r of traps[t]
    (attractor id groups[t] + 1); -1 and 0 if neither within max_iter.

    The loop runs over the live pixels only: their values and flat pixel
    indices sit at the front of two 1-D arrays, z and pix.  Each step goes
    over them in tiles of _TILE points and, while a tile is still in cache,
    takes its Horner step, tests it, writes the pixels that entered through
    their indices and moves the survivors down to the front of z and pix
    (never past the tile, so nothing is overwritten before it is read).
    The trap distances are taken only for the live pixels inside the traps'
    bounding box widened by 2 trap_r, whose corners are compared with
    directly: every pixel within trap_r of a trap in floating point passes
    that test.  ``interior`` is a list of (centre, rho) discs whose orbits
    provably never leave the escape disc (``dynamics.trapping_radius``); a
    pixel with |z - centre| <= rho(1 - 1e-9) is dropped unwritten, as the
    full loop would also leave it at -1.  Only an escape raster may pass
    discs: a basin pixel inside one would still enter a trap later."""
    c = np.asarray(coeffs, dtype=np.complex128)
    traps = np.asarray(traps, dtype=np.complex128)
    groups = np.asarray(groups, dtype=np.int16)
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
    which = np.zeros(z.size, dtype=np.int16)
    pix = np.arange(z.size)
    live = z.size
    for it in range(max_iter + 1):
        m = 0
        for a in range(0, live, _TILE):
            b = min(a + _TILE, live)
            pt = pix[a:b]
            with np.errstate(invalid="ignore", over="ignore"):
                zt = _polyval(c, z[a:b]) if it else z[a:b]
                done = ~(np.abs(zt) <= radius)
            if len(traps):
                near = np.flatnonzero(~done & (zt.real >= x0)
                                      & (zt.real <= x1) & (zt.imag >= y0)
                                      & (zt.imag <= y1))
                zn = zt[near]
                for t in range(len(traps)):
                    hit = near[np.abs(zn - traps[t]) <= trap_r]
                    hit = hit[~done[hit]]
                    which[pt[hit]] = groups[t] + 1
                    done[hit] = True
            drop = done
            for centre, rho in discs:
                drop = drop | (np.abs(zt - centre) <= rho)
            if drop.any():
                steps[pt[done]] = it
                keep = ~drop
                zt, pt = zt[keep], pt[keep]
            z[m:m + zt.size] = zt
            pix[m:m + pt.size] = pt
            m += zt.size
        live = m
        if not live:
            break
    return steps.reshape(shape), which.reshape(shape)


def render_escape_grid(coeffs, xs, ys, max_iter, radius, interior=()):
    """Escape time: the first-entry loop with no traps, dropping the pixels
    that reach an ``interior`` disc as never escaping."""
    return render_basin_grid(coeffs, xs, ys, max_iter, radius, (), (), 0.0,
                             interior)[0]


# ------------------------------------------------------------ backward tree

_CHUNK = 1024  # rows per batched Aberth solve; bounds its (d, rows) arrays
_STRIDE = 16   # a warm solve takes every _STRIDE-th Morton-sorted row cold


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


def _cold(c, dc, z):
    """All d roots of p(w) = z[r] for every row r, as a (len(z), d) array,
    in batches of _CHUNK rows.  Each row starts on a circle at the Fujiwara
    bound of p(w) - z[r]."""
    d = len(c) - 1
    circle = np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.77))
    out = np.empty((len(z), d), dtype=np.complex128)
    for i in range(0, len(z), _CHUNK):
        zi = z[i:i + _CHUNK]
        out[i:i + _CHUNK] = _aberth_iterate(
            c, dc, _start_radius(c, zi)[:, None] * circle, zi, 80, 1e-13)
    return out


def preimages(coeffs, z):
    """All d roots of p(w) = z[r] for every r, as a (len(z), d) array.

    Fewer than _CHUNK rows are one ``_cold`` solve.  From _CHUNK rows on
    the solve is warm-started: the rows are sorted by the Morton key of z,
    every _STRIDE-th sorted row (a leader) is solved cold, and each other
    row starts from the roots w of its leader z_lead, moved by one
    predictor step (z - z_lead) / p'(w), since nearby targets have
    nearby preimage sets.  Those rows take the same Aberth iteration and
    stop rule, in batches of _CHUNK; a row left with a residual above
    1e-8(|z| + 1) is solved again cold.  Only the order of the d roots
    inside a row depends on the path taken."""
    c = np.asarray(coeffs, dtype=np.complex128)
    deg = len(c) - 1
    dc = c[1:] * np.arange(1, deg + 1)
    n = len(z)
    if n < _CHUNK:
        return _cold(c, dc, z)
    x, y = z.real - z.real.min(), z.imag - z.imag.min()
    extent = max(x.max(), y.max())
    scale = (2 ** 20 - 1) / extent if extent > 0 else 0.0
    order = np.argsort(_morton(np.floor(x * scale).astype(np.int64),
                               np.floor(y * scale).astype(np.int64)))
    zs = z[order]
    out = np.empty((n, deg), dtype=np.complex128)
    lead = _cold(c, dc, zs[::_STRIDE])
    out[order[::_STRIDE]] = lead
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 1.0 / _polyval(dc, lead)
    # a leader root at a critical point takes no predictor step
    step[~np.isfinite(step)] = 0.0
    rows = np.flatnonzero(np.arange(n) % _STRIDE)
    bad = []
    for i in range(0, len(rows), _CHUNK):
        r = rows[i:i + _CHUNK]
        k = r // _STRIDE
        start = lead[k] + (zs[r] - zs[k * _STRIDE])[:, None] * step[k]
        w = _aberth_iterate(c, dc, start, zs[r], 80, 1e-13)
        resid = np.abs(_polyval(c, w) - zs[r, None]).max(axis=1)
        bad.append(r[~(resid <= 1e-8 * (np.abs(zs[r]) + 1.0))])
        out[order[r]] = w
    bad = np.concatenate(bad)
    if len(bad):
        out[order[bad]] = _cold(c, dc, zs[bad])
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
    and ``preimages`` solves the distinct parents of the others once each,
    in ascending order."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(c) - 1
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
        level[~inside] = preimages(c, top[solve])[row, root]
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
