"""Shabat polynomials in Zapponi normalization.

The unknowns are the white vertex coordinates x_i (multiplicities k_i = white
degrees), black coordinates y_j (l_j), and the leading factor a, tied by

    p - 1 = a * prod (z - x_i)^{k_i},    p + 1 = a * prod (z - y_j)^{l_j},

so a*(B - A) = 2 identically for the two monic products A and B.  One
Newton system is built on that coefficient block, in a monic normalization
(a = 1, first white at 0).  It solves one tree by damped Newton from a
finite seed list: the geometric tree layout, then leaf-removal
continuations.  Each seed's leading factor is fitted by least squares and
the seed scaled to make it 1, so it lands next to one of the system's n
rotated copies of the solution.  Its affine image with sum x_i = 1 and
sum y_j = -1, leading factor a = alpha^n for the scale alpha of the map, is
the Zapponi form, which is unique.  A passport is solved tree by tree.

A converged solution is matched to its tree by path lifting (below), unless
the tree is alone on its passport.  Tutte's count of the plane trees with
given white and black degree multisets, rooted at an edge, is
n (s-1)! (t-1)! / (prod m_i! prod m'_j!), m_i (m'_j) the number of white
(black) vertices of degree i (j) (W. T. Tutte, Amer. Math. Monthly 71,
1964; in this bicoloured form, Goulden & Jackson, Europ. J. Combin. 13,
1992).  A tree that is not rotational has n edge rootings, so when the
count is n it is the passport's only tree.  Every accepted solution has
that passport (distinct vertices of multiplicities k_i and l_j, s + t =
n + 1), so it is that tree's, with no lift.

The other way, a polynomial's vertices are the clustered roots of p - 1 and
p + 1, found once and accepted by the Riemann-Hurwitz count s + t = n + 1.
Path lifting joins them into its plane tree: each edge is lifted from both
ends, p - 1 = -v from its white vertex and p + 1 = +v from its black one,
as v grows to 1, and the two lifts meet at the edge's zero of p.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import plane_tree as pt
from .polynomial import (ComplexPoly, PolynomialError, RootCluster,
                         expand_roots, roots)


class ShabatError(RuntimeError):
    pass


class NoZapponiFormError(ShabatError):
    pass


class ExhaustedError(ShabatError):
    pass


class PathLiftingError(ShabatError):
    pass


@dataclass
class SZSolution:
    poly: ComplexPoly
    white: list  # RootCluster per white vertex
    black: list

    @property
    def leading(self):
        return self.poly.leading

    @property
    def residual(self):
        """Largest deviation of the Zapponi sums, |sum x - 1| and
        |sum y + 1|."""
        return float(max(self.invariant_deviations()[1:3]))

    def invariant_deviations(self):
        """(subleading/an, |sum x - 1|, |sum y + 1|, |sum k x - sum l y|)."""
        c = self.poly.as_array()
        sub = abs(c[-2] / c[-1]) if len(c) >= 2 else 0.0
        sx = sum(w.location for w in self.white)
        sy = sum(b.location for b in self.black)
        wx = sum(w.location * w.multiplicity for w in self.white)
        wy = sum(b.location * b.multiplicity for b in self.black)
        return (sub, abs(sx - 1.0), abs(sy + 1.0), abs(wx - wy))

    def to_json(self):
        return {
            "coefficients": [[c.real, c.imag] for c in self.poly.coeffs],
            "white": [{"re": w.location.real, "im": w.location.imag,
                       "mult": w.multiplicity} for w in self.white],
            "black": [{"re": b.location.real, "im": b.location.imag,
                       "mult": b.multiplicity} for b in self.black],
            "leading": [self.leading.real, self.leading.imag],
            "residual": self.residual,
        }

    @classmethod
    def from_json(cls, rec):
        poly = ComplexPoly(tuple(complex(re, im)
                                 for re, im in rec["coefficients"]))
        white = [RootCluster(complex(w["re"], w["im"]), w["mult"])
                 for w in rec["white"]]
        black = [RootCluster(complex(b["re"], b["im"]), b["mult"])
                 for b in rec["black"]]
        return cls(poly, white, black)


# ----------------------------------------------------------- newton system


class _AltSystem:
    """Newton system of one colored tree passport in the scale-free
    normalization: monic (a = 1) with the highest-multiplicity white vertex
    pinned at the origin.  The unknowns are the other s - 1 whites, then
    every black; the n rows are the coefficient block (B - A)[:n] - 2e_0 of
    the monic A and B.

    Unlike the Zapponi normalization this system has solutions for every
    plane tree (the Zapponi one degenerates when t*sum(x) = s*sum(y)), so
    solve_tree maps its solution into Zapponi form afterwards, when that
    exists."""

    def __init__(self, white_degrees, black_degrees):
        self.k = tuple(white_degrees)
        self.l = tuple(black_degrees)
        self.n = sum(self.k)  # (s - 1) + t unknowns
        self.s = len(self.k)
        self.t = len(self.l)
        self.free_white = np.arange(self.n) < self.s - 1  # columns by x_i
        self.weights = np.array(self.k[1:] + tuple(-m for m in self.l),
                                dtype=np.complex128)
        self.powers = np.arange(self.n + 1)[:, None]
        self.rows = self.powers[:-1]

    def split(self, u):
        return np.concatenate([[0j], u[: self.s - 1]]), u[self.s - 1:]

    def monics(self, u):
        """The monic products A and B at u."""
        x, y = self.split(u)
        return expand_roots(x, self.k), expand_roots(y, self.l)

    def residual(self, A, B):
        F = (B - A)[: self.n]  # z^0 .. z^{n-1}
        F[0] -= 2.0
        return F

    def jacobian(self, u, A, B):
        """Derivatives of the block by the free x_i, then by every y_j, at u
        with its products A and B: column i is k_i*A/(z - x_i) and column j
        is -l_j*B/(z - y_j).  The unknowns u are those roots, so all columns
        are deflated at once by synthetic division with c the column's
        product: q_(m-1) = c_m + r*q_m from the leading coefficient down,
        and q_m = (q_(m-1) - c_m)/r from the constant up.  Row m takes the
        direction whose sum leaves out the largest term |c_j r^j| (j > m
        down, j <= m up): either one alone loses up to |r|^n of the
        accuracy when r is far from the scale of the other roots."""
        n = self.n
        C = np.where(self.free_white, A[:, None], B[:, None])
        down = np.empty((n, n), dtype=np.complex128)
        down[-1] = 1.0  # A and B are monic
        for m in range(n - 1, 0, -1):
            np.multiply(u, down[m], out=down[m - 1])
            down[m - 1] += C[m]
        up = np.empty((n, n), dtype=np.complex128)
        # r = 0 divides by zero here, but its largest term is j = 0, so all
        # its rows are taken from down
        with np.errstate(all="ignore"):
            np.divide(-C[0], u, out=up[0])
            for m in range(1, n):
                np.subtract(up[m - 1], C[m], out=up[m])
                up[m] /= u
            top = np.argmax(np.abs(C) * np.abs(u) ** self.powers, axis=0)
        return np.where(self.rows >= top, down, up) * self.weights

    @staticmethod
    def scale(A, B):
        return 1.0 + float(max(np.max(np.abs(A)), np.max(np.abs(B))))


def _newton(system, u0):
    """Damped Newton, at most 120 steps, each halved until the residual
    drops; stops at a scaled residual below 1e-13.  The products A and B
    are expanded once per point, for the residual, the Jacobian and the
    scale."""
    u = u0.astype(np.complex128).copy()
    A, B = system.monics(u)
    F = system.residual(A, B)
    norm = float(np.max(np.abs(F)))
    for _ in range(120):
        if not np.isfinite(norm):
            return u, norm
        try:
            step = np.linalg.solve(system.jacobian(u, A, B), F)
        except np.linalg.LinAlgError:
            return u, norm
        lam = 1.0
        while lam > 1e-4:
            u2 = u - lam * step
            A2, B2 = system.monics(u2)
            F2 = system.residual(A2, B2)
            n2 = float(np.max(np.abs(F2)))
            if n2 < norm:
                u, A, B, F, norm = u2, A2, B2, F2, n2
                break
            lam *= 0.5
        else:
            break
        if norm < 1e-13 * system.scale(A, B):
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
    inner = [(v, tree.neighbors[v], tree.degree(v)) for v in range(n)
             if tree.degree(v) >= 2]
    for _ in range(rounds):
        newpos = list(pos)
        for v, nb, deg in inner:
            newpos[v] = sum(pos[u] for u in nb) / deg
        pos = newpos
    return pos


# ------------------------------------------------------------ solving


def _vertex_polynomial(k, l, x, y, a):
    """p = a*prod (z - x_i)^{k_i} + 1 with its white and black vertices."""
    pa = a * expand_roots(x, k)
    pa[0] += 1.0
    return (ComplexPoly(tuple(pa)),
            [RootCluster(complex(z), m) for z, m in zip(x, k)],
            [RootCluster(complex(z), m) for z, m in zip(y, l)])


def _zapponi_form(k, l, x, y, a):
    """Zapponi form q(w) = p(alpha*w + beta), with its white and black
    vertices, of the Shabat polynomial p = a*prod (z - x_i)^{k_i} + 1 whose
    black vertices are y (degrees l).  beta = (sum x + sum y)/(s + t) and
    alpha = sum x - s*beta move each vertex v to (v - beta)/alpha, the white
    sum to 1 and the black sum to -1; q's leading factor is a*alpha^n.  No
    affine map reaches those sums when t*sum(x) = s*sum(y), i.e. alpha = 0:
    NoZapponiFormError when |alpha| <= 1e-8 * (1 + max |vertex|)."""
    s, t = len(x), len(y)
    beta = (x.sum() + y.sum()) / (s + t)
    alpha = x.sum() - s * beta
    scale_ref = 1.0 + float(np.max(np.abs(np.concatenate([x, y]))))
    if abs(alpha) <= 1e-8 * scale_ref:
        raise NoZapponiFormError(
            "degenerate vertex sums (t*sum(x) = s*sum(y)); tree has no "
            "Zapponi form")
    return _vertex_polynomial(k, l, (x - beta) / alpha, (y - beta) / alpha,
                              a * alpha ** sum(k))


def _is_valid_solution(system, u, norm):
    """Converged (scaled residual <= 1e-9) and pairwise distinct vertices."""
    if not norm / system.scale(*system.monics(u)) <= 1e-9:  # NaN fails too
        return False
    pts = np.concatenate(system.split(u))
    sep = 1e-5 * (1.0 + float(np.max(np.abs(pts))))
    gaps = np.abs(pts[:, None] - pts)
    np.fill_diagonal(gaps, np.inf)
    return not np.any(gaps < sep)


def _degrees(tree):
    """(white degrees, black degrees), each non-increasing."""
    return tuple(tuple(map(tree.degree, vs))
                 for vs in pt.vertices_by_degree(tree))


def _same_vertex_set(w1, w2, tol=1e-6):
    """Whether two lists of (location, multiplicity) pairs agree up to order,
    locations within tol."""
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


def _one_tree(k, l):
    """Whether Tutte's count of the edge-rooted plane trees with white
    degrees k and black degrees l (module docstring) is n, that is
    (s-1)! (t-1)! = prod m_i! prod m'_j!."""
    mults = [*Counter(k).values(), *Counter(l).values()]
    return (math.factorial(len(k) - 1) * math.factorial(len(l) - 1)
            == math.prod(map(math.factorial, mults)))


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
    layout.

    The first white is translated to the origin.  The alt system's
    solutions are the tree's n copies rotated by the n-th roots of unity
    about that vertex, at one fixed scale, while a layout or a leaf
    continuation has arbitrary scale and orientation.  So the leading factor
    the seed implies is fitted by least squares, a = argmin |a*d - 2e_0|
    with d = (B - A)[:n], and every position is scaled by 1/mu, mu =
    (1/a)^(1/n) the principal root: the smallest rotation that makes the
    implied leading factor 1.  A seed with a fit of 0 or not finite stays
    unscaled."""
    w = np.asarray(wpos, dtype=np.complex128)
    b = np.asarray(bpos, dtype=np.complex128)
    u = np.concatenate([w[1:], b]) - w[0]
    A, B = system.monics(u)
    d = (B - A)[: system.n]
    with np.errstate(all="ignore"):
        a = 2.0 * np.conj(d[0]) / np.sum(np.abs(d) ** 2)
        mu = (1.0 / a) ** (1.0 / system.n)
    if np.isfinite(mu) and mu != 0:
        u = u / mu
    return u


def _alt_continuation_seeds(system, tree, memo):
    """Seeds obtained by solving the tree minus one leaf and re-inserting
    the leaf near its attachment vertex, at three radii and eight angles
    about each vertex of the attachment's degree and color.  The leaf and
    its attachment rebuild the tree's own degree multisets, so sorting by
    degree puts the positions in the system's layout.  _alt_seed then fits
    the whole seed to the alt system's scale and orientation."""
    for leaf in range(tree.n_vertices):
        if tree.degree(leaf) != 1:
            continue
        sub, att, leaf_color = _remove_leaf(tree, leaf)
        if sub.n_edges < 2:
            continue
        try:
            xs, ys = _solve_tree_alt(sub, memo)
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
                    yield _alt_seed(system, [p for p, _ in wm],
                                    [p for p, _ in bm])


def _solve_tree_alt(tree, memo):
    """Vertex coordinates (x, y) of the tree's Shabat polynomial in the
    monic/pinned normalization, ordered by decreasing degree per color.

    Newton runs from a finite seed list: the tree layout, then the leaf
    continuations; ExhaustedError when none of them reaches the tree.
    memo maps plane codes to solutions, and to None for a tree whose seeds
    all failed: that tree raises again without a new search, unless an
    identification has reached it since.  Each valid solution is identified
    by path lifting, except for a tree that is not rotational and alone on
    its passport (_one_tree): there it can belong to no other tree, so it
    is the target's.  Each identification stores the solution under the
    code of the tree it found, and its conjugate under the code of that
    tree's mirror image, unless those trees are solved already."""
    target_code = pt.plane_code(tree)
    sol = memo.get(target_code)
    if sol is not None:
        return sol
    if target_code in memo:
        raise ExhaustedError(
            f"no Shabat polynomial found for tree {target_code}; its seeds "
            "failed before")
    w, b = _degrees(tree)
    system = _AltSystem(w, b)

    def seed_iter():
        pos = _tree_layout(tree)
        whites, blacks = pt.vertices_by_degree(tree)
        yield _alt_seed(system, [pos[v] for v in whites],
                        [pos[v] for v in blacks])
        yield from _alt_continuation_seeds(system, tree, memo)

    alone = not pt.is_rotational(tree) and _one_tree(w, b)
    lifted = []  # white vertices of every solution lifted so far
    tries = 0
    for u0 in seed_iter():
        tries += 1
        u, norm = _newton(system, u0)
        if not _is_valid_solution(system, u, norm):
            continue
        x, y = system.split(u)
        if alone:
            found = tree
        else:
            # a repeat already lifted to a tree that is neither target nor
            # mirror
            whites = list(zip(x, system.k))
            if any(_same_vertex_set(whites, seen) for seen in lifted):
                continue
            lifted.append(whites)
            try:
                found = _identify_from_vertices(
                    *_vertex_polynomial(system.k, system.l, x, y, 1.0))
            except PathLiftingError:
                continue
        for code, sol in ((pt.plane_code(found), (x.copy(), y.copy())),
                          (pt.plane_code(pt.mirror(found)),
                           (np.conj(x), np.conj(y)))):
            if memo.get(code) is None:
                memo[code] = sol
        if memo.get(target_code) is not None:
            return memo[target_code]
    memo[target_code] = None
    raise ExhaustedError(
        f"no Shabat polynomial found for tree {target_code} after "
        f"{tries} seeds")


def solve_passport(passport):
    """All SZ solutions of a (normalized) passport: every plane tree that
    realizes it is solved with solve_tree, and those that admit a Zapponi
    form contribute one solution each, in the order of the plane codes of
    the trees they were solved for.  Distinct trees have distinct SZ
    polynomials, so no two solutions repeat."""
    if isinstance(passport, str):
        passport = pt.Passport.parse(passport)
    n = passport.n_edges
    if len(passport.white) + len(passport.black) != n + 1:
        raise ShabatError("not a tree passport (s + t must be n + 1)")
    if n < 2:
        raise ShabatError("need at least 2 edges")
    memo = {}
    solutions = []
    degenerate = 0
    for t in pt.trees_with_passport(passport.white, passport.black):
        try:
            solutions.append(solve_tree(t, _memo=memo))
        except NoZapponiFormError:
            degenerate += 1
    if not solutions:
        raise NoZapponiFormError(
            f"no tree with passport {passport} admits a Zapponi form "
            f"({degenerate} degenerate)")
    return solutions


def solve_tree(tree, _memo=None):
    """The unique SZ polynomial of a non-symmetric plane tree (colors as
    given: whites are the preimages of +1): the monic solution of
    _solve_tree_alt, moved into Zapponi form by _zapponi_form, which also
    decides when there is none."""
    tree.validate()
    if tree.n_edges < 2:
        raise ShabatError("need at least 2 edges")
    if pt.is_rotational(tree):
        raise NoZapponiFormError("symmetric tree has no Zapponi form")
    memo = {} if _memo is None else _memo
    x, y = _solve_tree_alt(tree, memo)
    return SZSolution(*_zapponi_form(*_degrees(tree), x, y, 1.0))


# ------------------------------------------------------------ normalization


def zapponi_normalize(p):
    """Unique Zapponi form of a Shabat polynomial p, by solve_tree's map and
    degeneracy rule (_zapponi_form): p's vertices are found once, in p's
    coordinates, and p - 1 = leading * prod (z - x_i)^{k_i} is rebuilt from
    their images."""
    (x, k), (y, l) = ((np.array([v.location for v in vs]),
                       [v.multiplicity for v in vs])
                      for vs in _tree_vertices(p))
    return SZSolution(*_zapponi_form(k, l, x, y, p.leading))


# ------------------------------------------------------------ identification


def _product_form(z, verts, mult, s, a):
    """p - 1 = a*prod(z - x)^k and p + 1 = a*prod(z - y)^l at every point z,
    as the two columns of one array (the first s vertices are the whites),
    and p' from the product whose vertex is nearest: there the dominant
    pole term keeps the logarithmic derivative exact."""
    zv = z[:, None] - verts
    cut = (0, s)
    pq = a * np.multiply.reduceat(zv ** mult, cut, axis=1)
    lg = np.add.reduceat(mult / zv, cut, axis=1)
    near = np.minimum.reduceat(np.abs(zv), cut, axis=1)
    dp = np.where(near[:, 0] <= near[:, 1], pq[:, 0] * lg[:, 0],
                  pq[:, 1] * lg[:, 1])
    return pq, dp


def _to_level(z, v, white, form):
    """Newton from z onto p - 1 = -v (white germs) or p + 1 = +v (black),
    with ``form`` the trailing arguments of _product_form: the roots, p'
    there and which roots met |p -+ 1 -+ v| < 1e-12 * v."""
    sign = np.where(white, -1.0, 1.0)
    for _ in range(12):
        pq, dp = _product_form(z, *form)
        f = np.where(white, pq[:, 0], pq[:, 1]) - sign * v
        done = np.abs(f) < 1e-12 * v
        if done.all():
            break
        z = np.where(done, z, z - f / dp)
    return z, dp, done


def _lift_edges(whites, blacks, a):
    """Lift all n edges of p^{-1}([-1, 1]) from both ends at once: n roots
    start from germs at the white vertices on p - 1 = -v, n from germs at
    the black vertices on p + 1 = +v, and all 2n follow one schedule,
    v = delta^(1 - tau) for tau in [0, 1], to a zero of p.  The two lifts of
    an edge meet at its zero.  Returns one tuple (white index, black index,
    departure angle, arrival angle) per edge, both angles those of the germs.

    p - 1 = a*prod(z - x)^k and p + 1 = a*prod(z - y)^l are evaluated in
    product form: the dense p loses all precision where p is within
    rounding distance of +-1, next to high-degree vertices.  The offset v
    from the critical value is carried as its own variable, since 1 - v
    rounds to 1.0 for v below 1e-16.

    Every length is local to a root: a vertex's spacing is its distance to
    the nearest other vertex, and a germ starts at 0.05 * spacing from its
    vertex.  A step is taken only if every root converged and moved less
    than 0.2 * max(spacing of the vertex c nearest it, |z - c|), 0.5 *
    |z - c| and 0.3 * its distance to the nearest other root of its colour
    (the colours meet at the end): around a degree-k vertex the branches
    are only ~2*pi*|z - c|/k apart, so a fixed guard would allow hops
    between them.  A root farther from c than c's spacing has no vertex,
    so no critical point of p, within |z - c|, and c's spacing does not cap
    it: a close pair of vertices does not slow the roots far from it.

    Newton starts from a power-law predictor about c: z - c grows like
    v^g, with g = 1/k exactly where p -+ 1 = C (z - c)^k, so the predictor
    lands on the level set there.  Each step is sized beforehand by the
    predictor's own move: for L = log(v1/v0) it moves a root by
    |(z - c)(e^(gL) - 1)| <= |z - c| (e^(|g|L) - 1) (term by term in the
    exponential series), which is kept at most 0.8 * the root's guard; a
    step that still breaks a guard is halved.  (The Euler move
    |z - c| (e^L - 1)/k grows like v1 where the predictor's grows like
    v1^(1/k), and would hold a degree-k vertex's roots to far shorter
    steps.)  At the end each white lift must meet exactly one black lift,
    within 1e-6 * its distance to the nearest other zero of p."""
    verts = np.array([v.location for v in (*whites, *blacks)],
                     dtype=np.complex128)
    mult = np.array([v.multiplicity for v in (*whites, *blacks)])
    s, n = len(whites), sum(w.multiplicity for w in whites)
    diff = verts[:, None] - verts
    gaps = np.abs(diff)
    np.fill_diagonal(gaps, np.inf)
    spacing = gaps.min(axis=1)  # each vertex's distance to its nearest other
    if spacing.min() <= 0:
        raise PathLiftingError("coincident vertices")
    vi = np.repeat(np.arange(len(verts)), mult)  # the vertex of each germ
    germ = np.arange(2 * n) - np.repeat(np.cumsum(mult) - mult, mult)
    col = np.arange(len(verts)) < s  # the white vertices
    white = col[vi]
    sign = np.where(white, -1.0, 1.0)  # p -+ 1 = sign * v
    form = (verts, mult, s, a)

    # p -+ 1 = c (z - v)^m near a vertex v: the product over its own colour
    same = np.equal.outer(col, col) & ~np.eye(len(verts), dtype=bool)
    c = a * np.prod(np.where(same, diff ** mult, 1.0), axis=1)[vi]
    kv = mult[vi]
    delta = np.clip(np.abs(c) * (0.05 * spacing[vi]) ** kv, 1e-280, 0.5)
    theta = (np.angle(sign) - np.angle(c) + 2.0 * np.pi * germ) / kv
    z = verts[vi] + (delta / np.abs(c)) ** (1.0 / kv) * np.exp(1j * theta)
    log_delta = np.log(delta)
    other = np.not_equal.outer(white, white) | np.eye(2 * n, dtype=bool)
    with np.errstate(all="ignore"):
        z, dp, ok = _to_level(z, delta, white, form)
        if not ok.all():
            raise PathLiftingError("could not start continuation")
        tau, dtau, steps = 0.0, 0.05, 0
        while tau < 1.0:
            steps += 1
            if steps > 40000 or dtau < 1e-15:
                raise PathLiftingError("stalled continuation")
            if np.any(dp == 0):
                raise PathLiftingError("stalled continuation (p' = 0 on path)")
            gap = np.where(other, np.inf, np.abs(z[:, None] - z))
            dv = np.abs(z[:, None] - verts)
            near = dv.argmin(axis=1)
            dnear = np.minimum.reduce(dv, axis=1)
            guard = np.minimum(
                np.minimum(0.2 * np.maximum(spacing[near], dnear),
                           0.5 * dnear),
                0.3 * np.minimum.reduce(gap, axis=1))
            v0 = np.exp(log_delta * (1.0 - tau))
            # power-law predictor about the nearest vertex c: z - c grows
            # like v^g with g = (sign*v0/p')/(z - c), which is 1/k where
            # p -+ 1 = C (z - c)^k, and to first order the Euler step
            zc = z - verts[near]
            g = sign * v0 / (dp * zc)
            # it moves a root by |zc (e^(g*L) - 1)| <= |zc| (e^(|g|*L) - 1)
            # for L = -log(delta) * dtau: at most 0.8 * guard for every root
            dtau = min(dtau, float(np.minimum.reduce(
                np.log1p(0.8 * guard / np.abs(zc))
                / (np.abs(g) * -log_delta))))
            t1 = min(tau + dtau, 1.0)
            v1 = np.exp(log_delta * (1.0 - t1))
            z1, dp1, ok = _to_level(
                verts[near] + zc * np.exp(g * (log_delta * (tau - t1))), v1,
                white, form)
            if ok.all() and np.all(np.abs(z1 - z) < guard):
                z, dp, tau = z1, dp1, t1
                dtau *= 1.5
            else:
                dtau *= 0.5
    # each white lift meets the black lift of its own edge at a zero of p
    meet = np.abs(z[:n, None] - z[n:])
    bi = meet.argmin(axis=1)
    zero_gap = np.where(other[:n, :n], np.inf, np.abs(z[:n, None] - z[:n]))
    if len(set(bi.tolist())) < n or not np.all(
            meet[np.arange(n), bi] < 1e-6 * zero_gap.min(axis=1)):
        raise PathLiftingError("white and black lifts do not meet pairwise")
    return list(zip(vi[:n].tolist(), (vi[n:][bi] - s).tolist(),
                    theta[:n].tolist(), theta[n:][bi].tolist()))


def _identify_from_vertices(p, whites, blacks):
    s = len(whites)
    # (white index, black index, angle at white, angle at black)
    edges = _lift_edges(whites, blacks, complex(p.leading))
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


def _tree_vertices(p):
    """White and black vertices of a Shabat polynomial of degree n: the
    clustered roots of p - 1 and p + 1.  With s and t distinct roots they
    carry 2n - s - t of the n - 1 critical points, so (Riemann-Hurwitz) p
    is Shabat exactly when s + t = n + 1 and s, t < n; ShabatError
    otherwise, also when a split multiple root stayed unclustered."""
    n = p.degree
    try:
        whites = roots(p - 1.0)
        blacks = roots(p + 1.0)
    except PolynomialError as exc:
        raise ShabatError(f"polynomial is not Shabat: {exc}") from exc
    s, t = len(whites), len(blacks)
    if s + t != n + 1 or s >= n or t >= n:
        raise ShabatError(
            f"polynomial is not Shabat: p - 1 and p + 1 have {s} and {t} "
            f"distinct roots, degree {n}")
    return whites, blacks


def identify_tree(p):
    """Reconstruct the plane tree p^{-1}([-1, 1]) of a Shabat polynomial
    by path lifting between its vertices."""
    return _identify_from_vertices(p, *_tree_vertices(p))

