"""Shabat polynomials in Zapponi normalization.

The unknowns are the white vertex coordinates x_i (multiplicities k_i = white
degrees), black coordinates y_j (l_j), and the leading factor a, tied by

    p - 1 = a * prod (z - x_i)^{k_i},    p + 1 = a * prod (z - y_j)^{l_j},

so a*(B - A) = 2 identically, plus the normalization sum x_i = 1,
sum y_j = -1.  Damped Newton from geometric tree layouts, leaf-removal
continuation and random restarts solves the system of one tree; path-lifting
of p(z(t)) = t over [-1, 1] recovers which plane tree a solution realizes.
A passport is solved tree by tree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import plane_tree as pt
from .polynomial import (ComplexPoly, RootCluster, derivative, evaluate,
                         poly_from_roots, roots)


class ShabatError(RuntimeError):
    pass


class NoZapponiFormError(ShabatError):
    pass


class ExhaustedError(ShabatError):
    pass


class PathLiftingError(ShabatError):
    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


@dataclass
class SZSolution:
    poly: ComplexPoly
    white: list  # RootCluster per white vertex
    black: list
    leading: complex
    residual: float

    def invariant_deviations(self):
        """(subleading/an, |sum x - 1|, |sum y + 1|, |sum k x - sum l y|)."""
        c = self.poly.as_array()
        sub = abs(c[-2] / c[-1]) if len(c) >= 2 else 0.0
        sx = sum(w.location for w in self.white)
        sy = sum(b.location for b in self.black)
        wx = sum(w.location * w.multiplicity for w in self.white)
        wy = sum(b.location * b.multiplicity for b in self.black)
        return (sub, abs(sx - 1.0), abs(sy + 1.0), abs(wx - wy))

    def to_json(self, passport=None, tree_code=None):
        rec = {
            "coefficients": [[c.real, c.imag] for c in self.poly.coeffs],
            "white": [{"re": w.location.real, "im": w.location.imag,
                       "mult": w.multiplicity} for w in self.white],
            "black": [{"re": b.location.real, "im": b.location.imag,
                       "mult": b.multiplicity} for b in self.black],
            "leading": [self.leading.real, self.leading.imag],
            "residual": self.residual,
        }
        if passport is not None:
            rec["passport"] = str(passport)
        if tree_code is not None:
            rec["tree_code"] = tree_code
        return rec

    @classmethod
    def from_json(cls, rec):
        poly = ComplexPoly(tuple(complex(re, im)
                                 for re, im in rec["coefficients"]))
        white = [RootCluster(complex(w["re"], w["im"]), w["mult"], 0.0)
                 for w in rec["white"]]
        black = [RootCluster(complex(b["re"], b["im"]), b["mult"], 0.0)
                 for b in rec["black"]]
        return cls(poly, white, black,
                   complex(rec["leading"][0], rec["leading"][1]),
                   rec["residual"])


# ----------------------------------------------------------- residual system


def _monic_from(roots_, mults):
    acc = np.array([1.0 + 0j])
    for r, m in zip(roots_, mults):
        lin = np.array([-r, 1.0 + 0j])
        for _ in range(m):
            acc = np.convolve(acc, lin)
    return acc


class ResidualSystem:
    """Square holomorphic system for one colored passport."""

    def __init__(self, white_degrees, black_degrees):
        w = tuple(white_degrees)
        b = tuple(black_degrees)
        n = sum(w)
        if sum(b) != n:
            raise ShabatError("degree sums differ")
        if len(w) + len(b) != n + 1:
            raise ShabatError("not a tree passport (s + t must be n + 1)")
        if n < 2:
            raise ShabatError("need at least 2 edges")
        self.k = w
        self.l = b
        self.n = n
        self.s = len(w)
        self.t = len(b)
        self.size = self.s + self.t + 1

    def split(self, u):
        return u[:self.s], u[self.s:self.s + self.t], u[-1]

    def residual(self, u):
        x, y, a = self.split(u)
        A = _monic_from(x, self.k)
        B = _monic_from(y, self.l)
        F = np.empty(self.size, dtype=np.complex128)
        diff = a * (B - A)[: self.n]  # z^0 .. z^{n-1}
        F[: self.n] = diff
        F[0] -= 2.0
        F[self.n] = x.sum() - 1.0
        F[self.n + 1] = y.sum() + 1.0
        return F

    def jacobian(self, u):
        x, y, a = self.split(u)
        A = _monic_from(x, self.k)
        B = _monic_from(y, self.l)
        J = np.zeros((self.size, self.size), dtype=np.complex128)
        for i in range(self.s):
            mults = list(self.k)
            mults[i] -= 1
            Ai = _monic_from(x, mults)
            J[: self.n, i] = a * self.k[i] * Ai[: self.n]
        for j in range(self.t):
            mults = list(self.l)
            mults[j] -= 1
            Bj = _monic_from(y, mults)
            J[: self.n, self.s + j] = -a * self.l[j] * Bj[: self.n]
        J[: self.n, -1] = (B - A)[: self.n]
        J[self.n, : self.s] = 1.0
        J[self.n + 1, self.s: self.s + self.t] = 1.0
        return J

    def scale(self, u):
        x, y, a = self.split(u)
        A = _monic_from(x, self.k)
        B = _monic_from(y, self.l)
        return 1.0 + abs(a) * float(max(np.max(np.abs(A)), np.max(np.abs(B))))


class _AltSystem:
    """Scale-free normalization: monic (a = 1) with the highest-multiplicity
    white vertex pinned at the origin.

    Unlike the Zapponi normalization this system has solutions for every
    plane tree (the Zapponi one degenerates when t*sum(x) = s*sum(y)), so it
    is the internal workhorse; the affine map into Zapponi form is applied
    afterwards when it exists."""

    def __init__(self, white_degrees, black_degrees):
        w = tuple(white_degrees)
        b = tuple(black_degrees)
        n = sum(w)
        if sum(b) != n or len(w) + len(b) != n + 1 or n < 2:
            raise ShabatError("invalid colored tree passport")
        self.k = w
        self.l = b
        self.n = n
        self.s = len(w)
        self.t = len(b)
        self.size = n  # (s - 1) + t

    def split(self, u):
        x = np.concatenate([[0j], u[: self.s - 1]])
        return x, u[self.s - 1:], 1.0

    def residual(self, u):
        x, y, _ = self.split(u)
        A = _monic_from(x, self.k)
        B = _monic_from(y, self.l)
        F = (B - A)[: self.n].copy()
        F[0] -= 2.0
        return F

    def jacobian(self, u):
        x, y, _ = self.split(u)
        J = np.zeros((self.size, self.size), dtype=np.complex128)
        for i in range(1, self.s):
            mults = list(self.k)
            mults[i] -= 1
            J[:, i - 1] = self.k[i] * _monic_from(x, mults)[: self.n]
        for j in range(self.t):
            mults = list(self.l)
            mults[j] -= 1
            J[:, self.s - 1 + j] = -self.l[j] * _monic_from(y, mults)[: self.n]
        return J

    def scale(self, u):
        x, y, _ = self.split(u)
        A = _monic_from(x, self.k)
        B = _monic_from(y, self.l)
        return 1.0 + float(max(np.max(np.abs(A)), np.max(np.abs(B))))


def build_system(passport):
    """Residual system of a normalized passport (whites on the +1 side)."""
    if isinstance(passport, str):
        passport = pt.Passport.parse(passport)
    return ResidualSystem(passport.white, passport.black)


def _newton(system, u0, max_steps=60):
    u = u0.astype(np.complex128).copy()
    F = system.residual(u)
    norm = float(np.max(np.abs(F)))
    for _ in range(max_steps):
        if not np.isfinite(norm):
            return u, norm
        try:
            step = np.linalg.solve(system.jacobian(u), F)
        except np.linalg.LinAlgError:
            return u, norm
        lam = 1.0
        while lam > 1e-4:
            u2 = u - lam * step
            F2 = system.residual(u2)
            n2 = float(np.max(np.abs(F2)))
            if n2 < norm:
                u, F, norm = u2, F2, n2
                break
            lam *= 0.5
        else:
            break
        if norm < 1e-13 * system.scale(u):
            break
    return u, norm


# ------------------------------------------------------------ seed layouts


def _tree_layout(tree, rounds=50):
    """Radial layout then neighbor-centroid relaxation of internal vertices."""
    n = tree.n_vertices
    pos = [0j] * n
    root = max(range(n), key=tree.degree)
    pos[root] = 0j
    # wedge-recursive placement
    stack = [(root, None, 0.0, 2.0 * math.pi)]
    while stack:
        v, parent, a0, a1 = stack.pop()
        nb = [u for u in tree.neighbors[v] if u != parent]
        if not nb:
            continue
        width = (a1 - a0) / len(nb)
        for idx, u in enumerate(nb):
            ang = a0 + (idx + 0.5) * width
            pos[u] = pos[v] + cmath.exp(1j * ang)
            spread = min(width, math.pi * 0.9)
            stack.append((u, v, ang - spread / 2.0, ang + spread / 2.0))
    for _ in range(rounds):
        newpos = list(pos)
        for v in range(n):
            if tree.degree(v) >= 2:
                newpos[v] = sum(pos[u] for u in tree.neighbors[v]) \
                    / tree.degree(v)
        pos = newpos
    return pos


# ------------------------------------------------------------ solving


def _solution_from_vector(system, u, norm):
    x, y, a = system.split(u)
    pa = a * _monic_from(x, system.k)
    pa[0] += 1.0
    poly = ComplexPoly(tuple(pa))
    white = [RootCluster(complex(xi), k, float(abs(evaluate(poly, xi) - 1.0)))
             for xi, k in zip(x, system.k)]
    black = [RootCluster(complex(yj), l, float(abs(evaluate(poly, yj) + 1.0)))
             for yj, l in zip(y, system.l)]
    return SZSolution(poly, white, black, complex(a),
                      float(norm / system.scale(u)))


def _is_valid_solution(system, u, norm):
    """Converged (scaled residual <= 1e-9), nonzero leading factor and
    pairwise distinct vertices."""
    if norm / system.scale(u) > 1e-9:
        return False
    x, y, a = system.split(u)
    if abs(a) < 1e-10:
        return False
    pts = np.concatenate([x, y])
    sep = 1e-5 * (1.0 + float(np.max(np.abs(pts))))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < sep:
                return False
    return True


def _degrees(tree):
    """(white degrees, black degrees), each non-increasing."""
    return tuple(tuple(map(tree.degree, vs))
                 for vs in pt.vertices_by_degree(tree))


def _same_vertex_set(sol1, sol2, tol=1e-6):
    w1 = [(w.location, w.multiplicity) for w in sol1.white]
    w2 = [(w.location, w.multiplicity) for w in sol2.white]
    if len(w1) != len(w2):
        return False
    used = [False] * len(w2)
    for loc, m in w1:
        for idx, (loc2, m2) in enumerate(w2):
            if not used[idx] and m == m2 and abs(loc - loc2) < tol:
                used[idx] = True
                break
        else:
            return False
    return True


def _remove_leaf(tree, leaf):
    """Tree minus a degree-1 vertex; returns (subtree, attachment id, color
    of the removed leaf)."""
    att = tree.neighbors[leaf][0]
    idx = {}
    colors = []
    for v in range(tree.n_vertices):
        if v != leaf:
            idx[v] = len(colors)
            colors.append(tree.colors[v])
    nbrs = [[idx[u] for u in tree.neighbors[v] if u != leaf]
            for v in range(tree.n_vertices) if v != leaf]
    return pt.PlaneTree(colors, nbrs), idx[att], tree.colors[leaf]


def _alt_seed(system, wpos, bpos):
    """Alt-system seed vector from positions aligned with the multiplicity
    layout; translates the first white to the origin."""
    w = np.asarray(wpos, dtype=np.complex128)
    b = np.asarray(bpos, dtype=np.complex128)
    shift = w[0]
    return np.concatenate([w[1:] - shift, b - shift])


def _alt_continuation_seeds(system, tree, rng_seed, memo):
    """Seeds obtained by solving the tree minus one leaf and re-inserting
    the leaf near its attachment vertex.  These land in the right Newton
    basin far more reliably than random restarts."""
    for leaf in range(tree.n_vertices):
        if tree.degree(leaf) != 1:
            continue
        sub, att, leaf_color = _remove_leaf(tree, leaf)
        if sub.n_edges < 2:
            continue
        try:
            xs, ys = _solve_tree_alt(sub, rng_seed, memo)
        except ShabatError:
            continue
        ks, ls = _degrees(sub)
        att_deg = sub.degree(att)
        att_color = sub.colors[att]
        if att_color == pt.WHITE:
            att_idx = [i for i, m in enumerate(ks) if m == att_deg]
        else:
            att_idx = [j for j, m in enumerate(ls) if m == att_deg]
        for ai in att_idx:
            att_pos = xs[ai] if att_color == pt.WHITE else ys[ai]
            for rad in (0.1, 0.3, 0.8):
                for ang in range(8):
                    leaf_pos = att_pos + rad * cmath.exp(
                        2j * math.pi * ang / 8)
                    wm = [(p, k + (1 if att_color == pt.WHITE and i == ai
                                   else 0)) for i, (p, k) in
                          enumerate(zip(xs, ks))]
                    bm = [(p, l + (1 if att_color == pt.BLACK and j == ai
                                   else 0)) for j, (p, l) in
                          enumerate(zip(ys, ls))]
                    (wm if leaf_color == pt.WHITE else bm).append(
                        (leaf_pos, 1))
                    wm.sort(key=lambda q: -q[1])
                    bm.sort(key=lambda q: -q[1])
                    if tuple(m for _, m in wm) != system.k or \
                       tuple(m for _, m in bm) != system.l:
                        continue
                    yield _alt_seed(system, [p for p, _ in wm],
                                    [p for p, _ in bm])


def _alt_identify(system, x, y):
    pa = _monic_from(x, system.k)
    pa[0] += 1.0
    poly = ComplexPoly(tuple(pa))
    white = [RootCluster(complex(xi), k, 0.0) for xi, k in zip(x, system.k)]
    black = [RootCluster(complex(yj), l, 0.0) for yj, l in zip(y, system.l)]
    return _identify_from_vertices(poly, white, black)


def _solve_tree_alt(tree, rng_seed, memo, budget=2000):
    """Vertex coordinates (x, y) of the tree's Shabat polynomial in the
    monic/pinned normalization, ordered by decreasing degree per color."""
    target_code = pt.plane_code(tree)
    if target_code in memo:
        return memo[target_code]
    mirror_code = pt.plane_code(pt.mirror(tree))
    if mirror_code in memo:
        xs, ys = memo[mirror_code]
        sol = (np.conj(xs), np.conj(ys))
        memo[target_code] = sol
        return sol
    w, b = _degrees(tree)
    system = _AltSystem(w, b)
    rng = np.random.default_rng(rng_seed)

    def seed_iter():
        pos = _tree_layout(tree)
        whites, blacks = pt.vertices_by_degree(tree)
        yield _alt_seed(system, [pos[v] for v in whites],
                        [pos[v] for v in blacks])
        yield from _alt_continuation_seeds(system, tree, rng_seed, memo)
        while True:
            scale = math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
            pts = scale * np.sqrt(rng.random(system.n + 1)) * np.exp(
                2j * np.pi * rng.random(system.n + 1))
            yield _alt_seed(system, pts[: system.s], pts[system.s:])

    tries = 0
    for u0 in seed_iter():
        if tries >= budget:
            break
        tries += 1
        u, norm = _newton(system, u0, max_steps=120)
        if not _is_valid_solution(system, u, norm):
            continue
        x, y, _ = system.split(u)
        try:
            found = _alt_identify(system, x, y)
        except PathLiftingError:
            continue
        code = pt.plane_code(found)
        if code not in memo:
            memo[code] = (x.copy(), y.copy())
        if code == target_code:
            return memo[code]
        if code == mirror_code:
            sol = (np.conj(x), np.conj(y))
            memo[target_code] = sol
            return sol
    raise ExhaustedError(
        f"no Shabat polynomial found for tree {target_code} within "
        f"{tries} restarts")


def solve_passport(passport, budget=None, rng_seed=0):
    """All SZ solutions of a (normalized) passport: every plane tree that
    realizes it is solved with solve_tree, and those that admit a Zapponi
    form contribute one solution each."""
    if isinstance(passport, str):
        passport = pt.Passport.parse(passport)
    build_system(passport)  # validates
    memo = {}
    solutions = []
    degenerate = 0
    for t in pt.trees_with_passport(passport.white, passport.black):
        try:
            sol = solve_tree(t, budget=budget, rng_seed=rng_seed, _memo=memo)
        except NoZapponiFormError:
            degenerate += 1
            continue
        if not any(_same_vertex_set(sol, s) for s in solutions):
            solutions.append(sol)
    if not solutions:
        raise NoZapponiFormError(
            f"no tree with passport {passport} admits a Zapponi form "
            f"({degenerate} degenerate)")
    solutions.sort(key=lambda s: tuple(
        (w.location.real, w.location.imag) for w in sorted(
            s.white, key=lambda c: (c.location.real, c.location.imag))))
    return solutions


def solve_tree(tree, budget=None, rng_seed=0, _memo=None):
    """The unique SZ polynomial of a non-symmetric plane tree (colors as
    given: whites are the preimages of +1)."""
    tree.validate()
    if tree.n_edges < 2:
        raise ShabatError("need at least 2 edges")
    if pt.symmetry_flags(tree)["rotational"]:
        raise NoZapponiFormError("symmetric tree has no Zapponi form")
    memo = {} if _memo is None else _memo
    x, y = _solve_tree_alt(tree, rng_seed, memo,
                           budget=budget if budget else 2000)
    # affine map into the Zapponi normalization
    s, t = len(x), len(y)
    beta = (x.sum() + y.sum()) / (s + t)
    alpha = x.sum() - s * beta
    scale_ref = 1.0 + float(np.max(np.abs(np.concatenate([x, y]))))
    if abs(alpha) <= 1e-8 * scale_ref:
        raise NoZapponiFormError(
            "degenerate vertex sums (t*sum(x) = s*sum(y)); tree has no "
            "Zapponi form")
    xz = (x - beta) / alpha
    yz = (y - beta) / alpha
    w, b = _degrees(tree)
    a = alpha ** sum(w)
    system = ResidualSystem(w, b)
    u0 = np.concatenate([xz, yz, [a]])
    u, norm = _newton(system, u0, max_steps=40)
    if not _is_valid_solution(system, u, norm):
        raise ExhaustedError(
            "could not polish the Zapponi form of tree "
            f"{pt.plane_code(tree)} (residual {norm:.3g})")
    return _solution_from_vector(system, u, norm)


# ------------------------------------------------------------ normalization


def zapponi_normalize(p, tol=1e-9):
    """Unique Zapponi form of a Shabat polynomial via shift + rescale."""
    from .polynomial import is_shabat
    if not is_shabat(p, tol=1e-6):
        raise ShabatError("polynomial is not Shabat (critical values not ±1)")
    c = p.as_array()
    n = p.degree
    beta = c[-2] / (n * c[-1])
    q = p.compose_affine(1.0, -beta)
    whites = roots(q - ComplexPoly((1.0,)))
    X = sum(w.location for w in whites)
    if abs(X) <= tol:
        raise NoZapponiFormError(
            "white vertex coordinate sum is zero after centering; "
            "no Zapponi form exists")
    q2 = q.compose_affine(X, 0.0)
    whites = roots(q2 - ComplexPoly((1.0,)))
    blacks = roots(q2 + ComplexPoly((1.0,)))
    sol = SZSolution(q2, list(whites), list(blacks), q2.leading, 0.0)
    sol.residual = float(max(sol.invariant_deviations()[1:3]))
    return sol


# ------------------------------------------------------------ identification


class _FactoredShabat:
    """p - 1 = a*prod(z - x_i)^{k_i} and p + 1 = a*prod(z - y_j)^{l_j}
    evaluated in product form.

    The dense representation of p loses all precision where p is within
    rounding distance of +-1 (exactly the neighborhoods of high-degree
    vertices), while the products keep full relative accuracy there."""

    def __init__(self, xs, ks, ys, ls, a):
        self.x = [complex(v) for v in xs]
        self.k = list(ks)
        self.y = [complex(v) for v in ys]
        self.l = list(ls)
        self.a = complex(a)

    def minus_one(self, z):
        """p(z) - 1"""
        acc = self.a
        for v, m in zip(self.x, self.k):
            acc *= (z - v) ** m
        return acc

    def plus_one(self, z):
        """p(z) + 1"""
        acc = self.a
        for v, m in zip(self.y, self.l):
            acc *= (z - v) ** m
        return acc

    def deriv(self, z):
        """p'(z) via the logarithmic derivative of the product whose vertex
        is nearest: there the dominant pole term makes the sum cancellation
        free, while the other side's sum cancels catastrophically."""
        dx = min(abs(z - v) for v in self.x)
        dy = min(abs(z - v) for v in self.y)
        if dx <= dy:
            return self.minus_one(z) * sum(
                m / (z - v) for v, m in zip(self.x, self.k))
        return self.plus_one(z) * sum(
            m / (z - v) for v, m in zip(self.y, self.l))

    def germ_coeff(self, wi):
        """c with p - 1 ~ c (z - x_wi)^{k_wi} near the white vertex wi."""
        x = self.x[wi]
        acc = self.a
        for j, (v, m) in enumerate(zip(self.x, self.k)):
            if j != wi:
                acc *= (x - v) ** m
        return acc


def _newton_on_level(fs, z, side, val, tol=1e-12, iters=30):
    """Corrector solving p(z) = 1 - val (side 'w') or p(z) = val - 1
    (side 'b').  The offset val from the critical value is carried as its
    own variable: 1 - val rounds to 1.0 in doubles for val below 1e-16,
    which is routine near high-degree vertices."""
    for _ in range(iters):
        f = fs.minus_one(z) + val if side == "w" else fs.plus_one(z) - val
        if abs(f) < tol * val:
            return z
        d = fs.deriv(z)
        if d == 0:
            return None
        z = z - f / d
    f = fs.minus_one(z) + val if side == "w" else fs.plus_one(z) - val
    return z if abs(f) < 1e-6 * val else None


def _lift_edge(fs, wi, germ, dmin, steps=400):
    """Continue p(z(t)) = t from near +1 (white vertex wi, germ index) down
    to the black end; returns (black index, departure angle, arrival angle).

    The step guard scales with the distance to the nearest vertex: inside
    the fan-out zone of a high-degree vertex the level-set branches are only
    ~2*pi*|z - v|/k apart, so a fixed guard would allow hops between germs.
    """
    x = fs.x[wi]
    k = fs.k[wi]
    vertices = fs.x + fs.y
    c = fs.germ_coeff(wi)
    r = 0.05 * dmin
    delta = max(min(abs(c) * r ** k, 0.5), 1e-280)
    r = (delta / abs(c)) ** (1.0 / k)
    theta = (math.pi - cmath.phase(c) + 2.0 * math.pi * germ) / k
    z = _newton_on_level(fs, x + r * cmath.exp(1j * theta), "w", delta)
    if z is None:
        raise PathLiftingError("could not start continuation", edge=(wi, germ))
    ds0 = 2.0 / steps
    iters = 0

    def guard(zc):
        return min(0.2 * dmin, 0.5 * min(abs(zc - v) for v in vertices))

    # white half: s = 1 - t grows from delta to 1 (t from 1-delta to 0)
    s = delta
    ds = delta
    while s < 1.0:
        iters += 1
        if iters > 100 * steps or ds == 0.0:
            raise PathLiftingError("stalled continuation", edge=(wi, germ))
        step = min(ds, s)
        if 1.0 - s < step:
            step = 1.0 - s
        zp = fs.deriv(z)
        if zp == 0:
            raise PathLiftingError("stalled continuation (p' = 0 on path)",
                                   edge=(wi, germ))
        z_new = _newton_on_level(fs, z - step / zp, "w", s + step)
        if z_new is None or abs(z_new - z) > guard(z):
            ds *= 0.5
            continue
        z = z_new
        s += step
        ds = min(ds * 1.5, ds0)
    # black half: u = 1 + t shrinks from 1 until z reaches a black vertex
    stop = 0.05 * dmin
    u = 1.0
    du = min(ds, ds0)
    while True:
        dy = [abs(z - v) for v in fs.y]
        yi = int(np.argmin(dy))
        if dy[yi] < stop:
            break
        iters += 1
        if iters > 100 * steps or du == 0.0 or u < 1e-280:
            raise PathLiftingError("stalled continuation", edge=(wi, germ))
        step = min(du, 0.5 * u)
        zp = fs.deriv(z)
        if zp == 0:
            raise PathLiftingError("stalled continuation (p' = 0 on path)",
                                   edge=(wi, germ))
        z_new = _newton_on_level(fs, z - step / zp, "b", u - step)
        if z_new is None or abs(z_new - z) > guard(z):
            du *= 0.5
            continue
        z = z_new
        u -= step
        du = min(du * 1.5, ds0)
    return yi, theta, cmath.phase(z - fs.y[yi])


def _identify_from_vertices(p, whites, blacks):
    locs = [w.location for w in whites] + [b.location for b in blacks]
    dmin = min(abs(a - b) for i, a in enumerate(locs)
               for b in locs[i + 1:])
    if dmin <= 0:
        raise PathLiftingError("coincident vertices")
    fs = _FactoredShabat([w.location for w in whites],
                         [w.multiplicity for w in whites],
                         [b.location for b in blacks],
                         [b.multiplicity for b in blacks],
                         p.leading)
    s = len(whites)
    edges = []  # (white index, black index, angle at white, angle at black)
    for wi, w in enumerate(whites):
        for germ in range(w.multiplicity):
            bi, aw, ab = _lift_edge(fs, wi, germ, dmin)
            edges.append((wi, bi, aw, ab))
    for bi, b in enumerate(blacks):
        got = sum(1 for e in edges if e[1] == bi)
        if got != b.multiplicity:
            raise PathLiftingError(
                f"black vertex {bi} received {got} paths, expected "
                f"{b.multiplicity}", edge=bi)
    colors = [pt.WHITE] * s + [pt.BLACK] * len(blacks)
    neighbors = [[] for _ in colors]
    for wi in range(s):
        mine = sorted((e for e in edges if e[0] == wi), key=lambda e: e[2])
        neighbors[wi] = [s + e[1] for e in mine]
    for bi in range(len(blacks)):
        mine = sorted((e for e in edges if e[1] == bi), key=lambda e: e[3])
        neighbors[s + bi] = [e[0] for e in mine]
    tree = pt.PlaneTree(colors, neighbors)
    try:
        tree.validate()
    except pt.PlaneTreeError as exc:
        raise PathLiftingError(f"lifted edges do not form a tree: {exc}") \
            from exc
    return tree


def identify_tree(p):
    """Reconstruct the plane tree p^{-1}([-1, 1]) of a Shabat polynomial."""
    from .polynomial import is_shabat
    if not is_shabat(p, tol=1e-6):
        raise ShabatError("polynomial is not Shabat")
    whites = roots(p - ComplexPoly((1.0,)))
    blacks = roots(p + ComplexPoly((1.0,)))
    return _identify_from_vertices(p, whites, blacks)


# ------------------------------------------------------------ pcf form


def pcf_form(sz, white_id, black_id):
    """Affine change pinning a white vertex of degree > 1 at +1 and a black
    vertex of degree > 1 at -1; the result is postcritically finite."""
    w = sz.white[white_id]
    b = sz.black[black_id]
    if w.multiplicity <= 1 or b.multiplicity <= 1:
        raise ShabatError("chosen vertices must have degree > 1")
    alpha = (w.location - b.location) / 2.0
    beta = (w.location + b.location) / 2.0
    return sz.poly.compose_affine(alpha, beta)
