"""Critical orbit iteration, cycle detection/refinement, and the behavior
taxonomy of a Shabat polynomial's critical values +1 and -1.

Taxonomy: g1 both orbits to an attracting point, g2/g3 both to one shared
2-cycle / longer cycle, g4 both to infinity, s1 point + cycle, s2 two
distinct cycles, s3 one bounded one escaping.  Connectedness of the Julia
set follows: bounded+bounded = connected, escape+escape = totally
disconnected, mixed = infinitely many components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import (ORBIT_CYCLE, ORBIT_ESCAPE, newton_periodic,
                       orbit_brent, orbit_tail)
from .polynomial import ComplexPoly, derivative, evaluate


class CycleRefinementError(RuntimeError):
    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


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


@dataclass
class OrbitConfig:
    max_iter: int = 200_000
    tol: float = 1e-9
    # second pass for weakly attracting cycles
    weak_tol: float = 1e-6
    weak_max_period: int = 64


def escape_radius(p):
    """R with the guarantee |z| > R implies |p(z)| >= 2|z|."""
    if p.degree < 2:
        raise ValueError("escape radius needs degree >= 2")
    c = p.as_array()
    return max(1.0, (2.0 + float(np.sum(np.abs(c[:-1])))) / abs(c[-1]))


def refine_cycle(p, period, guess, tol=1e-12):
    """Newton-polish a periodic point; returns cycle points and multiplier."""
    if period < 1:
        raise ValueError("period must be >= 1")
    pts, mult, ok = newton_periodic(p.as_array(), [complex(guess)], period,
                                    maxiter=100, tol=tol)
    if not ok[0]:
        raise CycleRefinementError(
            f"Newton did not converge on the period-{period} equation",
            complex(pts[0]))
    z = complex(pts[0])
    dp = derivative(p)
    points = []
    m = 1.0 + 0j
    for _ in range(period):
        points.append(z)
        m *= evaluate(dp, z)
        z = evaluate(p, z)
    return {"points": points, "multiplier": complex(m)}


def _minimal_period(p, period, z, tol=1e-8):
    scale = 1.0 + abs(z)
    changed = True
    while changed:
        changed = False
        for q in _prime_factors(period):
            d = period // q
            w = z
            for _ in range(d):
                w = evaluate(p, w)
            if abs(w - z) < tol * scale:
                period = d
                changed = True
                break
    return period


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _fate_from_candidate(p, period, guess, iters):
    period = _minimal_period(p, period, guess)
    try:
        ref = refine_cycle(p, period, guess)
    except CycleRefinementError:
        return CriticalOrbitFate("undetermined", [], period, 0j, iters)
    period = _minimal_period(p, period, ref["points"][0])
    if period != len(ref["points"]):
        ref = refine_cycle(p, period, ref["points"][0])
    mult = ref["multiplier"]
    if abs(mult) >= 1.0:
        # not attracting; the orbit only brushed past a neutral/repelling spot
        return CriticalOrbitFate("undetermined", [], period, mult, iters)
    kind = "attracting_point" if period == 1 else "attracting_cycle"
    return CriticalOrbitFate(kind, ref["points"], period, mult, iters)


def iterate_orbit(p, z0, max_iter=None, tol=None, cfg=None):
    """Fate of the forward orbit of z0 under p."""
    cfg = cfg or OrbitConfig()
    if max_iter is not None:
        cfg = replace(cfg, max_iter=max_iter)
    if tol is not None:
        cfg = replace(cfg, tol=tol)
    if cfg.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    radius = escape_radius(p)
    c = p.as_array()
    status, lam, z, steps = orbit_brent(c, complex(z0), cfg.max_iter, radius,
                                        cfg.tol)
    if status == ORBIT_ESCAPE:
        return CriticalOrbitFate("escape", [], 1, 0j, steps)
    if status == ORBIT_CYCLE:
        return _fate_from_candidate(p, lam, z, steps)
    # bounded but undetected: slow (weakly attracting) convergence pass
    keep = 2 * cfg.weak_max_period + 2
    escaped, tail = orbit_tail(c, complex(z0), cfg.max_iter, keep, radius)
    if escaped:
        return CriticalOrbitFate("escape", [], 1, 0j, cfg.max_iter)
    last = tail[-1]
    for per in range(1, min(cfg.weak_max_period, len(tail) - 1) + 1):
        if abs(tail[-1 - per] - last) < cfg.weak_tol * (1.0 + abs(last)):
            fate = _fate_from_candidate(p, per, last, cfg.max_iter)
            if fate.kind != "undetermined":
                return fate
    return CriticalOrbitFate("undetermined", [], 1, 0j, cfg.max_iter)


def _same_cycle(a, b, tol=1e-6):
    if len(a) != len(b):
        return False
    return all(min(abs(x - y) for y in b) < tol for x in a)


def classify(p, cfg=None):
    """Map the fates of +1 and -1 to the taxonomy and connectedness verdict."""
    cfg = cfg or OrbitConfig()
    plus = iterate_orbit(p, 1.0, cfg=cfg)
    minus = iterate_orbit(p, -1.0, cfg=cfg)

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
