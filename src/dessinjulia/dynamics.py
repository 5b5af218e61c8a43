"""Critical orbit iteration, cycle detection/refinement, and the behavior
taxonomy of a Shabat polynomial's critical values +1 and -1.

Taxonomy: g1 both orbits to an attracting point, g2/g3 both to one shared
2-cycle / longer cycle, g4 both to infinity, s1 point + cycle, s2 two
distinct cycles, s3 one bounded one escaping.  Connectedness of the Julia
set follows: bounded+bounded = connected, escape+escape = totally
disconnected, mixed = infinitely many components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (ORBIT_CYCLE, ORBIT_ESCAPE, _horner, newton_periodic,
                       orbit_brent)


@dataclass
class CriticalOrbitFate:
    kind: str  # attracting_point | attracting_cycle | escape | undetermined
    cycle_points: list = field(default_factory=list)
    period: int = 1
    multiplier: complex = 0j
    iterations_used: int = 0

    @property
    def bounded(self):
        return self.kind in ("attracting_point", "attracting_cycle")

    def to_json(self):
        return {
            "kind": self.kind,
            "period": self.period,
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "points": [[z.real, z.imag] for z in self.cycle_points],
            "iterations_used": self.iterations_used,
        }

    @classmethod
    def from_json(cls, rec):
        return cls(rec["kind"], [complex(re, im) for re, im in rec["points"]],
                   rec["period"], complex(*rec["multiplier"]),
                   rec["iterations_used"])


@dataclass
class DynamicsClassification:
    fate_plus: CriticalOrbitFate
    fate_minus: CriticalOrbitFate
    taxonomy: str  # g1..g4, s1..s3, undetermined
    connectedness: str  # connected | infinitely_many_components |
    #                     totally_disconnected | unknown

    def to_json(self):
        return {
            "taxonomy": self.taxonomy,
            "connectedness": self.connectedness,
            "plus": self.fate_plus.to_json(),
            "minus": self.fate_minus.to_json(),
        }

    @classmethod
    def from_json(cls, rec):
        return cls(CriticalOrbitFate.from_json(rec["plus"]),
                   CriticalOrbitFate.from_json(rec["minus"]),
                   rec["taxonomy"], rec["connectedness"])


# Brent's cycle test: the orbit closes once it comes within TOL(1 + |z|)
# of its tortoise.  An orbit still running after max_iter steps gets the
# weak pass: 2 WEAK_MAX_PERIOD + 1 more steps, and a period candidate
# wherever its last point lies within WEAK_TOL(1 + |z|) of the point up to
# WEAK_MAX_PERIOD steps before.
MAX_ITER = 200_000
TOL = 1e-9
WEAK_TOL = 1e-6
WEAK_MAX_PERIOD = 64


def escape_radius(p):
    """R with the guarantee |z| > R implies |p(z)| >= 2|z|."""
    if p.degree < 2:
        raise ValueError("escape radius needs degree >= 2")
    c = p.as_array()
    return max(1.0, (2.0 + float(np.sum(np.abs(c[:-1])))) / abs(c[-1]))


def trapping_radius(p, cycle_points, bound):
    """Radii rho_0, ..., rho_(m-1) of discs D(c_j, rho_j) around the points
    of a cycle c_0 -> c_1 -> ... -> c_(m-1) -> c_0 of p such that p, in
    double-precision Horner steps, maps each disc into the next and the
    last into D(c_0, rho_0), and every disc lies in |z| < bound: an orbit
    that enters a disc never escapes.  None when no rho_0 in 2^0, 2^-1,
    ..., 2^-60 gives such a chain (repelling, neutral and too weakly
    attracting cycles, or points not on a cycle).

    With b_jk the Taylor coefficients of p at c_j, |p(z) - c_(j+1)| is at
    most |b_j0 - c_(j+1)| + sum_(k>=1) |b_jk| rho_j^k on D(c_j, rho_j).
    rho_(j+1) is that sum times 1 + 1e-12, plus
    1e-13 sum_i |a_i| (|c_j| + rho_j)^i for the rounding of the Taylor
    coefficients and of Horner's rule; the chain closes when
    rho_m <= 0.999 rho_0.  All 61 candidates for rho_0 run at once, and the
    largest that closes is taken."""
    pts = [complex(z) for z in cycle_points]
    mags = np.abs(p.as_array())[::-1]
    rho0 = 2.0 ** -np.arange(61.0)
    rho, ok, radii = rho0, np.ones(len(rho0), dtype=bool), []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, z in enumerate(pts):
            b = p.compose_affine(1.0, z).as_array()
            ok &= (abs(z) + rho) * (1.0 + 1e-12) < bound
            radii.append(rho)
            tail = np.polyval(np.append(np.abs(b[:0:-1]), 0.0), rho)
            rho = ((abs(b[0] - pts[(j + 1) % len(pts)]) + tail)
                   * (1.0 + 1e-12)
                   + 1e-13 * np.polyval(mags, abs(z) + rho))
        ok &= rho <= 0.999 * rho0
    if not ok.any():
        return None
    k = int(np.argmax(ok))
    return [float(r[k]) for r in radii]


def _fate_from_candidate(p, period, guess, iters):
    """The fate of an orbit that came back near itself after ``period``
    steps.  Newton-polish the cycle (``newton_periodic``, to a step below
    1e-12(1 + |z|)), and read its least period q from the polished orbit:
    the first divisor of period with |p^q(z) - z| < 1e-8(1 + |z|).  When
    q < period, Newton runs again at period q from the polished point: the
    longer equation leaves the point about 1e-13 off, which moved the
    multiplier of a |multiplier| = 0.9944 10-cycle found at period 20 by
    1e-10.  Undetermined when either Newton run fails to converge."""
    c = p.as_array()
    points, mult, ok = newton_periodic(c, guess, period)
    if ok:
        z = points[0]
        q = next((q for q in range(1, period) if period % q == 0
                  and abs(points[q] - z) < 1e-8 * (1.0 + abs(z))), period)
        if q < period:
            points, mult, ok = newton_periodic(c, z, q)
    if not ok:
        return CriticalOrbitFate("undetermined", [], period, 0j, iters)
    if abs(mult) >= 1.0:
        # not attracting; the orbit only brushed past a neutral/repelling spot
        return CriticalOrbitFate("undetermined", [], q, mult, iters)
    kind = "attracting_point" if q == 1 else "attracting_cycle"
    return CriticalOrbitFate(kind, points, q, mult, iters)


def iterate_orbit(p, z0, max_iter=MAX_ITER):
    """Fate of the forward orbit of z0 under p."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    radius = escape_radius(p)
    c = p.as_array()
    status, lam, z, steps = orbit_brent(c, complex(z0), max_iter, radius, TOL)
    if status == ORBIT_ESCAPE:
        return CriticalOrbitFate("escape", [], 1, 0j, steps)
    if status == ORBIT_CYCLE:
        return _fate_from_candidate(p, lam, z, steps)
    # bounded but undetected: continue the orbit for slow (weakly
    # attracting) convergence
    cl = [complex(x) for x in c]
    tail = [z]
    try:
        for _ in range(2 * WEAK_MAX_PERIOD + 1):
            z = _horner(cl, z)
            steps += 1
            if not abs(z) <= radius:
                return CriticalOrbitFate("escape", [], 1, 0j, steps)
            tail.append(z)
        near = [per for per in range(1, WEAK_MAX_PERIOD + 1)
                if abs(tail[-1 - per] - z) < WEAK_TOL * (1.0 + abs(z))]
    except OverflowError:  # past the largest double, as in orbit_brent
        return CriticalOrbitFate("escape", [], 1, 0j, steps)
    for per in near:
        fate = _fate_from_candidate(p, per, z, steps)
        if fate.kind != "undetermined":
            return fate
    return CriticalOrbitFate("undetermined", [], 1, 0j, steps)


def _same_cycle(a, b):
    """Equal length, and every point of a within 1e-6 of a point of b."""
    if len(a) != len(b):
        return False
    return all(min(abs(x - y) for y in b) < 1e-6 for x in a)


def attracting_cycles(classification):
    """The distinct attracting cycles that +1 and -1 reach (g2/g3 share
    one), told apart by the rule that separates g2/g3 from s2."""
    cycles = []
    for fate in (classification.fate_plus, classification.fate_minus):
        pts = fate.cycle_points
        if fate.bounded and not any(_same_cycle(pts, c) for c in cycles):
            cycles.append(pts)
    return cycles


def classify(p, max_iter=MAX_ITER):
    """Map the fates of +1 and -1 to the taxonomy and connectedness verdict."""
    plus = iterate_orbit(p, 1.0, max_iter)
    minus = iterate_orbit(p, -1.0, max_iter)

    if plus.kind == "undetermined" or minus.kind == "undetermined":
        return DynamicsClassification(plus, minus, "undetermined", "unknown")
    esc_p, esc_m = plus.kind == "escape", minus.kind == "escape"
    if esc_p and esc_m:
        return DynamicsClassification(plus, minus, "g4",
                                      "totally_disconnected")
    if esc_p or esc_m:
        return DynamicsClassification(plus, minus, "s3",
                                      "infinitely_many_components")
    # both bounded
    if plus.period == 1 and minus.period == 1:
        tax = "g1"
    elif plus.period == 1 or minus.period == 1:
        tax = "s1"
    elif _same_cycle(plus.cycle_points, minus.cycle_points):
        tax = "g2" if plus.period == 2 else "g3"
    else:
        tax = "s2"
    return DynamicsClassification(plus, minus, tax, "connected")
