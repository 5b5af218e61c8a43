"""Dense complex polynomials: evaluation, derivatives, and simultaneous
root finding with multiplicity clustering.

Coefficients are stored ascending (a0 ... an).  The text format is
comma-separated complex coefficients, ``x+yi`` for complex entries and
``p/q`` for exact rationals, e.g. ``0,-15/4,0,10,0,-12``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import _horner, _polyval, aberth_roots


class PolynomialError(ValueError):
    pass


class RootFindingError(PolynomialError):
    pass


@dataclass(frozen=True)
class RootCluster:
    location: complex
    multiplicity: int


@dataclass(frozen=True)
class ComplexPoly:
    coeffs: tuple  # ascending, trailing zeros trimmed

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0j,)
        object.__setattr__(self, "coeffs", c)

    # -- basic queries ----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def as_array(self):
        return np.asarray(self.coeffs, dtype=np.complex128)

    def __call__(self, z):
        return evaluate(self, z)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ComplexPoly):
            other = ComplexPoly((complex(other),))
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=np.complex128)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return ComplexPoly(tuple(a))

    def __sub__(self, other):
        if not isinstance(other, ComplexPoly):
            other = ComplexPoly((complex(other),))
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            return ComplexPoly(tuple(np.convolve(self.as_array(),
                                                 other.as_array())))
        return ComplexPoly(tuple(np.asarray(self.coeffs) * complex(other)))

    __rmul__ = __mul__

    def compose_affine(self, alpha, beta):
        """Coefficients of p(alpha*z + beta)."""
        lin = ComplexPoly((beta, alpha))
        acc = ComplexPoly((self.coeffs[-1],))
        for a in self.coeffs[-2::-1]:
            acc = acc * lin + ComplexPoly((a,))
        return acc

    def __str__(self):
        return format_poly(self)


def expand_roots(roots, mults, leading=1.0):
    """Ascending coefficient array of leading * prod (z - r)^m, multiplied
    out one linear factor at a time in place, in descending order and
    Python complex arithmetic: the degrees used here are too small for a
    numpy call per factor to pay."""
    acc = [complex(leading)]
    for r, m in zip(roots, mults):
        r = complex(r)
        for _ in range(m):
            acc.append(0j)
            for j in range(len(acc) - 1, 0, -1):
                acc[j] -= r * acc[j - 1]
    return np.array(acc[::-1], dtype=np.complex128)


def poly_from_roots(roots, mults, leading=1.0):
    return ComplexPoly(tuple(expand_roots(roots, mults, leading)))


def evaluate(p, z):
    """Horner evaluation; accepts scalars or arrays."""
    if np.isscalar(z) or isinstance(z, complex):
        return _horner(p.coeffs, z)
    return _polyval(p.coeffs, np.asarray(z, dtype=np.complex128))


def derivative(p):
    if p.degree < 1:
        return ComplexPoly((0j,))
    c = p.as_array()
    return ComplexPoly(tuple(c[1:] * np.arange(1, len(c))))


# -------------------------------------------------------------- text format


def _parse_real(text):
    text = text.replace(" ", "")
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialError(f"bad coefficient {text!r}") from exc


def parse_complex(token):
    """Accepts '1.5', '-3/4', '2i', '1+2i', '1-1/3i', 'i', '-i'."""
    t = token.strip().replace(" ", "")
    if not t:
        raise PolynomialError("empty coefficient")
    if t.endswith(("i", "I", "j", "J")):
        body = t[:-1]
        # split real and imaginary at the last +/- not at position 0 or after e/E
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = _parse_real(im_part)
        real = _parse_real(re_part) if re_part else 0.0
        return complex(real, im)
    return complex(_parse_real(t), 0.0)


def parse_poly(text):
    return ComplexPoly(tuple(parse_complex(t) for t in text.split(",")))


def _fmt_real(x):
    return f"{x:.12g}"


def format_complex(z):
    z = complex(z)
    if z.imag == 0:
        return _fmt_real(z.real)
    if z.real == 0:
        return f"{_fmt_real(z.imag)}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def format_poly(p):
    return ",".join(format_complex(c) for c in p.coeffs)


# ------------------------------------------------------------- root finding

# a clustering ladder rung within this factor of the best rung's error
# counts as reproducing the coefficients (``roots``)
RUNG_SLACK = 10.0


def _single_linkage(points, tol):
    """Greedy single-linkage clusters of a 1D complex point set."""
    pts = list(points)
    clusters = [[z] for z in pts]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if any(abs(a - b) < tol for a in clusters[i]
                       for b in clusters[j]):
                    clusters[i].extend(clusters[j])
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    return clusters


def _polish_cluster(p, center, mult, rounds=12):
    """A root of multiplicity m is a simple root of the (m-1)-th derivative;
    Newton there recovers full accuracy."""
    g = p
    for _ in range(mult - 1):
        g = derivative(g)
    dg = derivative(g)
    c = center
    for _ in range(rounds):
        gv = evaluate(g, c)
        dv = evaluate(dg, c)
        if dv == 0:
            break
        step = gv / dv
        c -= step
        if abs(step) < 1e-15 * (1 + abs(c)):
            break
    return c


def _cluster_quality(p, clusters):
    """Relative coefficient error of re-expanding the clustered roots."""
    locs = [c.location for c in clusters]
    mults = [c.multiplicity for c in clusters]
    pa, qa = p.as_array(), expand_roots(locs, mults, p.leading)
    return float(np.max(np.abs(pa - qa)) / np.max(np.abs(pa)))


def roots(p):
    """All roots with multiplicities via simultaneous (Aberth-style)
    iteration followed by adaptive clustering.

    Clustering threshold: a numerically split m-fold root spreads over a
    radius ~eps^(1/m), so a ladder of thresholds 1e-6, 4e-6, 1.6e-5, ...
    below 0.45 (each times the root scale max|z| + 1) is tried, and each
    rung is scored by the relative coefficient error of its re-expansion.
    That backward error cannot tell an m-fold root from m copies eps^(1/m)
    apart: both reproduce the coefficients to rounding (on p + 1 of a
    10-edge Shabat polynomial the rung that splits a 4-fold root scored
    1.02e-12, the right one 1.14e-12).  So, as in Zeng (Computing multiple
    roots of inexact polynomials, Math. Comp. 74, 2005), the rung taken is
    the one with the fewest clusters among those within RUNG_SLACK times
    the best error: the highest multiplicity structure that the data
    support.  On p -+ 1 of the solved trees of 2-9 edges the right rung is
    also the best, and every rung with fewer clusters scores above 1e11
    times the best.  Where the best rung is itself poor (error 1e-11 and
    up), two distinct roots closer than about 1e-3 can be read as one.
    """
    if p.degree < 1:
        raise PolynomialError("degree must be >= 1")
    raw = aberth_roots(p.as_array())
    resid = np.abs(evaluate(p, raw))
    scale = float(np.max(np.abs(raw))) + 1.0
    coeff_scale = float(np.max(np.abs(p.as_array())))
    if not np.max(resid) <= 1e-5 * coeff_scale * scale:  # NaN fails too
        raise RootFindingError(
            f"simultaneous iteration did not converge (residual "
            f"{np.max(resid):.3g})")

    rungs = []
    t = 1e-6 * scale
    while t < 0.45 * scale:
        clusters = [RootCluster(_polish_cluster(p, complex(np.mean(g)),
                                                len(g)), len(g))
                    for g in _single_linkage(raw, t)]
        rungs.append((_cluster_quality(p, clusters), clusters))
        t *= 4.0
    slack = RUNG_SLACK * min(err for err, _ in rungs)
    err, clusters = min((r for r in rungs if r[0] <= slack),
                        key=lambda r: (len(r[1]), r[0]))
    if err > 1e-4:
        raise RootFindingError(
            f"could not certify a multiplicity clustering (error {err:.3g})")
    return sorted(clusters, key=lambda c: (c.location.real, c.location.imag))

