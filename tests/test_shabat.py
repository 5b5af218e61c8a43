import numpy as np
import pytest

from dessinjulia import _kernels, shabat
from dessinjulia.catalog import catalog_trees, series_tree
from dessinjulia.plane_tree import (Passport, _partitions, enumerate_trees,
                                    invert_colors, is_rotational, mirror,
                                    parse_plane_code, passport_of, plane_code,
                                    symmetry_flags, trees_with_passport)
from dessinjulia.polynomial import (ComplexPoly, RootCluster, expand_roots,
                                    parse_poly, poly_from_roots, roots)
from dessinjulia.shabat import (ExhaustedError, NoZapponiFormError,
                                PathLiftingError, ShabatError, SZSolution,
                                identify_tree, solve_passport, solve_tree,
                                zapponi_normalize)


_DEGENERATE = (r"^degenerate vertex sums \(t\*sum\(x\) = s\*sum\(y\)\); "
               r"tree has no Zapponi form$")


def _nonsym(n):
    return [t for t in enumerate_trees(n)
            if not symmetry_flags(t)["rotational"]]


# ----------------------------------------------------------- solving anchors


def test_solve_known_quartic():
    # passport 4,1|2,1,1,1: p = (3z+1)^4 (3z-4)/128 + 1
    sol = solve_tree(parse_plane_code("W(())()()()"))
    ref = poly_from_roots([-1 / 3, 4 / 3], [4, 1], 243 / 128) + 1.0
    assert np.allclose(sol.poly.as_array(), ref.as_array(), atol=1e-8)
    assert max(sol.invariant_deviations()) < 1e-9
    assert sol.residual == max(sol.invariant_deviations()[1:3]) < 1e-8


def test_solve_known_quintic():
    # passport 3,2|2,1,1,1: p = -(z+2)^3 (z-3)^2 / 54 + 1
    sol = solve_tree(parse_plane_code("W((()))()()"))
    ref = poly_from_roots([-2.0, 3.0], [3, 2], -1 / 54) + 1.0
    assert np.allclose(sol.poly.as_array(), ref.as_array(), atol=1e-8)
    assert sol.residual == max(sol.invariant_deviations()[1:3]) < 1e-8


def test_solve_passport_self_dual_quintic():
    # 3,1,1|3,1,1 realizes two chiral trees; one solution is the odd
    # polynomial -12z^5 + 10z^3 - 15z/4 (real coefficients, mirror pair
    # glued by conjugation)
    sols = solve_passport("3,1,1|3,1,1")
    ref = parse_poly("0,-15/4,0,10,0,-12").as_array()
    hits = [s for s in sols
            if np.allclose(s.poly.as_array(), ref, atol=1e-7)]
    assert len(hits) == 1


def test_solve_passport_above_nine_edges():
    # one solution per realizing tree, each identified back to its own
    # tree, in the order of the trees' plane codes
    sols = solve_passport("4,3,1,1,1|2,2,2,2,1,1")
    assert len(sols) == 10
    codes = []
    for sol in sols:
        assert max(sol.invariant_deviations()) < 1e-8
        tree = identify_tree(sol.poly)
        assert str(passport_of(tree)) == "4,3,1,1,1|2,2,2,2,1,1"
        codes.append(plane_code(tree))
    assert codes == sorted(set(codes)) and len(codes) == 10


def test_invariants_hold_for_all_small_trees():
    for n in range(3, 7):
        for tree in _nonsym(n):
            try:
                sol = solve_tree(tree)
            except NoZapponiFormError:
                continue
            sub, dx, dy, dk = sol.invariant_deviations()
            assert max(sub, dx, dy, dk) < 1e-8
            assert sol.poly.degree == n
            # white multiplicities realize the tree's white degrees
            pp = passport_of(tree)
            want = pp.black if pp.swapped else pp.white
            assert sorted((w.multiplicity for w in sol.white),
                          reverse=True) == list(want)


def test_no_zapponi_form_for_symmetric_trees():
    with pytest.raises(NoZapponiFormError):
        solve_tree(parse_plane_code("W(()()())"))  # rotational star
    with pytest.raises(NoZapponiFormError):
        solve_tree(parse_plane_code("B(()())"))  # 2-edge path
    # a passport whose only tree is that path
    with pytest.raises(NoZapponiFormError, match=r"\(1 degenerate\)"):
        solve_passport("2|1,1")


def test_no_zapponi_form_degenerate_nonsymmetric():
    # non-symmetric 8-edge chain whose vertex sums are exactly degenerate;
    # its monic polynomial, read back by zapponi_normalize, is refused by
    # the same rule with the same message
    tree = parse_plane_code("W(((((())(())))))")
    assert not symmetry_flags(tree)["rotational"]
    with pytest.raises(NoZapponiFormError, match=_DEGENERATE):
        solve_tree(tree)
    monic, _, _ = shabat._vertex_polynomial(
        *shabat._degrees(tree), *shabat._solve_tree_alt(tree, {}), 1.0)
    with pytest.raises(NoZapponiFormError, match=_DEGENERATE):
        zapponi_normalize(monic)


def test_solve_rejects_tiny_trees():
    with pytest.raises(ShabatError):
        solve_tree(parse_plane_code("W()"))
    with pytest.raises(ShabatError, match="not a tree passport"):
        solve_passport("2,2|2,2")  # s + t != n + 1


@pytest.mark.parametrize("passport",
                         ["4,1|2,1,1,1", "3,2|2,1,1,1", "3,1,1|3,1,1",
                          str(passport_of(series_tree(1, 13)))])
def test_jacobians_match_central_differences(passport):
    # the system is holomorphic, so a real step gives each column; the last
    # passport has the degree-13 hub of the caterpillar <13,1|2,1,...,1>
    pp = Passport.parse(passport)
    rng = np.random.default_rng(11)
    h = 1e-6
    system = shabat._AltSystem(pp.white, pp.black)
    u = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    J = system.jacobian(u, *system.monics(u))
    fd = np.empty_like(J)
    for c in range(system.n):
        e = np.zeros(system.n)
        e[c] = h
        fd[:, c] = (system.residual(*system.monics(u + e))
                    - system.residual(*system.monics(u - e))) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-6 * np.max(np.abs(J))


def _lowered_columns(system, u):
    """Jacobian columns k_i*A/(z - x_i) and -l_j*B/(z - y_j), each expanded
    from the roots with that one multiplicity lowered."""
    x, y = system.split(u)
    cols = []
    for roots_, mults, sign, first in ((x, system.k, 1, 1),
                                       (y, system.l, -1, 0)):
        for i in range(first, len(mults)):
            lowered = list(mults)
            lowered[i] -= 1
            cols.append(sign * mults[i]
                        * expand_roots(roots_, lowered)[: system.n])
    return np.array(cols).T


def test_deflated_jacobian_matches_lowered_multiplicities():
    # deflation from both ends keeps every column within 1e-12 of its
    # largest entry (2.3e-13 at the solved 15-edge tree, 7e-15 elsewhere),
    # at random points of any scale; deflating from the leading coefficient
    # alone errs by up to |r|^n * eps: 2.9e-12 at the tree, 1.5e-11 at
    # scale 1, 5e-4 at scale 3
    tree = series_tree(2, 13)
    assert tree.n_edges == 15
    w, b = shabat._degrees(tree)
    system = shabat._AltSystem(w, b)
    x, y = shabat._solve_tree_alt(tree, {})
    points = [np.concatenate([x[1:], y])]
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 3.0, 30.0):
        for _ in range(10):
            points.append(scale * (rng.normal(size=system.n)
                                   + 1j * rng.normal(size=system.n)))
    for u in points:
        J = system.jacobian(u, *system.monics(u))
        ref = _lowered_columns(system, u)
        err = np.abs(J - ref) / np.max(np.abs(ref), axis=0)
        assert np.max(err) < 1e-12


def test_nan_solution_is_not_valid():
    system = shabat._AltSystem((3, 2), (2, 1, 1, 1))
    u = np.full(system.n, np.nan + 0j)
    assert not shabat._is_valid_solution(system, u, float("nan"))


_ANCHOR = "W((())())()(())"  # the 7-edge anchor tree


def _anchor_system():
    return shabat._AltSystem(*shabat._degrees(parse_plane_code(_ANCHOR)))


def test_newton_stops_on_a_non_finite_residual():
    system = _anchor_system()
    u0 = np.full(system.n, np.nan + 0j)
    u, norm = shabat._newton(system, u0)
    assert np.isnan(norm)
    np.testing.assert_array_equal(u, u0)
    assert not shabat._is_valid_solution(system, u, norm)


def test_newton_stops_on_a_singular_jacobian():
    # two equal free whites make two Jacobian columns equal
    system = shabat._AltSystem((1, 1, 1), (3,))
    u0 = np.array([0.5, 0.5, -0.7], dtype=np.complex128)
    A, B = system.monics(u0)
    F = system.residual(A, B)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(system.jacobian(u0, A, B), F)
    u, norm = shabat._newton(system, u0)
    np.testing.assert_array_equal(u, u0)
    assert norm == np.max(np.abs(F))
    assert not shabat._is_valid_solution(system, u, norm)


def test_newton_stops_when_the_line_search_fails():
    # from this seed Newton reaches, after 19 steps, a point where no
    # damped step (lam = 1, 1/2, ... above 1e-4) lowers the residual, far
    # above the stop tolerance
    system = _anchor_system()
    rng = np.random.default_rng(0)
    u0 = 10.0 * (rng.normal(size=system.n) + 1j * rng.normal(size=system.n))
    jacobian, steps = system.jacobian, []
    system.jacobian = lambda *args: steps.append(1) or jacobian(*args)
    u, norm = shabat._newton(system, u0)
    assert len(steps) < 120
    A, B = system.monics(u)
    F = system.residual(A, B)
    assert norm == np.max(np.abs(F)) > 1e-13 * system.scale(A, B)
    step = np.linalg.solve(jacobian(u, A, B), F)
    for lam in 0.5 ** np.arange(14):
        F2 = system.residual(*system.monics(u - lam * step))
        assert not np.max(np.abs(F2)) < norm
    assert not shabat._is_valid_solution(system, u, norm)


def test_exhausted_after_a_finite_seed_list(monkeypatch):
    # with every Newton run failing, the seed list runs out: the layout
    # seed, then the leaf continuations of sub-trees that cannot be solved
    monkeypatch.setattr(shabat, "_newton",
                        lambda system, u0, **kw: (u0, float("inf")))
    with pytest.raises(ExhaustedError, match=r"after 1 seeds"):
        solve_tree(parse_plane_code("W((()))()()"))


def test_failed_subtrees_are_searched_once(monkeypatch):
    # every Newton run fails: each sub-tree is searched once per memo, not
    # once per leaf-removal order that reaches it (3929 runs without that)
    runs = []

    def newton(system, u0, **kw):
        runs.append(1)
        return u0, float("inf")

    monkeypatch.setattr(shabat, "_newton", newton)
    with pytest.raises(ExhaustedError):
        solve_tree(parse_plane_code("W((()()))()()()()"))
    assert len(runs) <= 200


def test_a_failed_tree_is_stored_once_identified():
    # solving B((((())())())) identifies W(((())())(())) on the way; that
    # solution is stored although the tree is recorded as failed
    found = "W(((())())(()))"
    memo = {found: None}
    with pytest.raises(ExhaustedError, match="failed before"):
        shabat._solve_tree_alt(parse_plane_code(found), memo)
    solve_tree(parse_plane_code("B((((())())()))"), _memo=memo)
    assert memo[found] is not None
    assert shabat._solve_tree_alt(parse_plane_code(found), memo) is \
        memo[found]


def test_a_mirror_image_is_solved_by_conjugation(monkeypatch):
    # solving a chiral tree stores its mirror image's solution as well, the
    # conjugate, so the mirror image is solved with no Newton run
    tree = parse_plane_code(_ANCHOR)
    assert plane_code(mirror(tree)) != plane_code(tree)
    memo = {}
    x, y = shabat._solve_tree_alt(tree, memo)

    def refuse(system, u0):
        raise AssertionError("Newton run for a mirror image")

    monkeypatch.setattr(shabat, "_newton", refuse)
    mx, my = shabat._solve_tree_alt(mirror(tree), memo)
    assert np.array_equal(mx, np.conj(x)) and np.array_equal(my, np.conj(y))


def test_a_seed_whose_lift_fails_is_skipped(monkeypatch):
    # the first solution found cannot be lifted here; the search goes on to
    # the next seeds and still returns the tree's own solution
    identify = shabat._identify_from_vertices
    calls = []

    def first_fails(*args):
        calls.append(1)
        if len(calls) == 1:
            raise PathLiftingError("refused")
        return identify(*args)

    monkeypatch.setattr(shabat, "_identify_from_vertices", first_fails)
    tree = parse_plane_code(_ANCHOR)
    sol = solve_tree(tree)
    assert len(calls) > 1
    assert plane_code(identify(sol.poly, sol.white, sol.black)) == \
        plane_code(tree)


def test_the_one_tree_rule_is_the_passport_count():
    # a solve skips path lifting for a tree that is not rotational, on a
    # passport of n edge-rooted trees (Tutte's count): exactly the trees
    # alone on their passport, on 99 of the 401 passports of 2-10 edges
    alone = 0
    for n in range(2, 11):
        parts = _partitions(n)
        for k in parts:
            for l in (l for l in parts if len(k) + len(l) == n + 1):
                trees = trees_with_passport(k, l)
                rule = [not is_rotational(t) and shabat._one_tree(k, l)
                        for t in trees]
                assert rule == [len(trees) == 1 and not is_rotational(t)
                                for t in trees], (k, l)
                alone += rule == [True]
    assert alone == 99


def test_a_tree_alone_on_its_passport_is_not_lifted(monkeypatch):
    identify = shabat._identify_from_vertices
    calls = []

    def counted(*args):
        calls.append(1)
        return identify(*args)

    monkeypatch.setattr(shabat, "_identify_from_vertices", counted)
    for family in (1, 2, 3):
        for n in range(10, 14):
            solve_tree(series_tree(family, n))
    assert not calls
    solve_tree(parse_plane_code(_ANCHOR))  # a passport of several trees
    assert calls


def test_the_one_tree_rule_keeps_every_solution(monkeypatch):
    # a solution taken without a lift is the one lifting would have kept
    def solve_all():
        out = {}
        for n in range(2, 8):
            for tree in _nonsym(n):
                try:
                    out[plane_code(tree)] = solve_tree(tree).poly.as_array()
                except NoZapponiFormError:
                    out[plane_code(tree)] = None
        return out

    ruled = solve_all()
    monkeypatch.setattr(shabat, "_one_tree", lambda k, l: False)
    lifted = solve_all()
    assert ruled.keys() == lifted.keys()
    for code, coeffs in ruled.items():
        assert (coeffs is None and lifted[code] is None) or \
            np.array_equal(coeffs, lifted[code]), code


def test_color_inversion_negates():
    # p_inverted(z) = -p(z applied to -z): solve both colorings directly
    tree = parse_plane_code("W(())()()")
    a = solve_tree(tree).poly
    b = solve_tree(invert_colors(tree)).poly
    neg = (a.compose_affine(-1.0, 0.0)) * -1.0
    assert np.allclose(b.as_array(), neg.as_array(), atol=1e-8)


def test_determinism():
    tree = parse_plane_code("W((()))()()")
    a = solve_tree(tree).poly.as_array()
    b = solve_tree(tree).poly.as_array()
    assert np.array_equal(a, b)


def test_aimed_seed_solves_caterpillars_in_one_run(monkeypatch):
    # the layout seed, fitted to the monic system's scale and orientation,
    # converges to the tree itself: one Newton run per tree
    newton = shabat._newton
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(shabat, "_newton", counted)
    runs = {}
    for family in (1, 2, 3):
        for n in range(10, 14):
            calls.clear()
            solve_tree(series_tree(family, n))
            runs[family, n] = len(calls)
    assert set(runs.values()) == {1}, runs


def test_lifting_newton_work_on_the_seven_edge_catalog(monkeypatch):
    # the power-law predictor lands each root within Newton's reach of the
    # level set: 1919 evaluations of p -+ 1 to lift the 33 solved
    # seven-edge trees.  Each solution is lifted here, so the count does
    # not depend on which solutions the solver itself lifts
    sols = []
    for tree in catalog_trees(7):
        try:
            sols.append(solve_tree(tree))
        except NoZapponiFormError:
            pass
    assert len(sols) == 33
    evaluate_products = shabat._product_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate_products(*args, **kwargs)

    monkeypatch.setattr(shabat, "_product_form", counted)
    for sol in sols:
        shabat._identify_from_vertices(sol.poly, sol.white, sol.black)
    assert len(calls) <= 2500, len(calls)


@pytest.mark.parametrize("family", [1, 2, 3])
def test_lifting_steps_around_a_degree_13_hub(monkeypatch, family):
    # a regression guard on the step sizing: the caterpillar <13,family|...>
    # lifts in 33, 32 and 32 steps with none halved.  Sizing steps by the
    # Euler move, linear in v where the predictor's move about a degree-k
    # vertex grows like v^(1/k), took 69, 53 and 49; capping each root by
    # the spacing of its nearest vertex however far off, 52, 38 and 34
    sol = solve_tree(series_tree(family, 13))
    to_level = shabat._to_level
    levels = []

    def counted(z, v, *args):
        levels.append(float(np.ravel(v)[0]))
        return to_level(z, v, *args)

    monkeypatch.setattr(shabat, "_to_level", counted)
    shabat._identify_from_vertices(sol.poly, sol.white, sol.black)
    # after the start, one call per step; a halved step retries lower
    steps = levels[1:]
    assert all(b > a for a, b in zip(steps, steps[1:])), "halved a step"
    assert steps[-1] == 1.0 and len(steps) <= 40, len(steps)


# ----------------------------------------------------------- identification


@pytest.mark.parametrize("n", [5, 6, 7])
def test_identify_round_trip_small_trees(n):
    # from 6 edges on, some vertices crowd far closer together than others
    for tree in _nonsym(n):
        sol = solve_tree(tree)
        got = identify_tree(sol.poly)
        assert plane_code(got) == plane_code(tree)


@pytest.mark.parametrize("family", [1, 2, 3])
def test_identify_round_trip_caterpillars(family):
    # up to 16 edges around a degree-13 hub, where the level-set branches
    # crowd closest together
    for n in range(3, 14):
        tree = series_tree(family, n)
        if symmetry_flags(tree)["rotational"]:
            continue
        got = identify_tree(solve_tree(tree).poly)
        assert plane_code(got) == plane_code(tree), n


def test_identify_reads_a_4_fold_vertex_of_10_edges():
    # on p + 1 the rung that splits the 4-fold black vertex scores 1.02e-12
    # and the right one 1.14e-12: roots takes the fewer clusters
    tree = parse_plane_code("W(((()(()()())())()))")
    sol = solve_tree(tree)
    assert sorted(b.multiplicity for b in sol.black) == [1, 1, 1, 1, 2, 4]
    assert plane_code(identify_tree(sol.poly)) == plane_code(tree)


def test_roots_of_p_minus_1_cost_one_capped_solve(monkeypatch):
    # the white vertices of the caterpillar <13,1|2,1,...,1> are a 13-fold
    # and a simple root of p - 1: the split copies of the 13-fold root never
    # pass a relative-correction test, so the solve is one run to the
    # iteration cap (80)
    tree = series_tree(1, 13)
    p = solve_tree(tree).poly
    asked = []
    iterate = _kernels._aberth_iterate

    def counted(c, dc, w, z, maxiter, tol):
        asked.append(maxiter)
        return iterate(c, dc, w, z, maxiter, tol)

    monkeypatch.setattr(_kernels, "_aberth_iterate", counted)
    whites = roots(p - 1.0)
    assert sum(asked) <= 80, asked
    want, _ = shabat._degrees(tree)
    assert sorted((w.multiplicity for w in whites), reverse=True) \
        == list(want)


def test_lifts_must_meet_at_the_zeros_of_p():
    # the lifts from the white and the black vertices meet at the zeros of
    # p only when both vertex sets belong to the same polynomial; moving
    # every black vertex by 1e-3 makes each pair miss by about 1e-3 of the
    # distance to the nearest other zero
    tree = parse_plane_code("W((()()())())")
    sol = solve_tree(tree)
    got = shabat._identify_from_vertices(sol.poly, sol.white, sol.black)
    assert plane_code(got) == plane_code(tree)
    moved = [RootCluster(b.location + 1e-3, b.multiplicity)
             for b in sol.black]
    with pytest.raises(PathLiftingError, match="do not meet"):
        shabat._identify_from_vertices(sol.poly, sol.white, moved)


@pytest.fixture(scope="module")
def anchor():
    return solve_tree(parse_plane_code(_ANCHOR))


def _lift(sol, dp_factor):
    """Plane code of the tree lifted from sol's vertices, with p' of the
    k-th evaluation of the products multiplied by dp_factor(k), and the
    number of evaluations."""
    product_form = shabat._product_form
    calls = []

    def scaled(*args):
        calls.append(1)
        pq, dp = product_form(*args)
        return pq, dp * dp_factor(len(calls))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shabat, "_product_form", scaled)
        tree = shabat._identify_from_vertices(sol.poly, sol.white, sol.black)
    return plane_code(tree), len(calls)


def test_lift_recovers_from_rejected_steps(anchor):
    # p' 1000 times too small on evaluations 5-16 sends the predictor and
    # Newton 1000 times too far: those steps are rejected and retried at
    # half the size, and once p' is exact again the lifts meet as before
    code, calls = _lift(anchor, lambda k: 1.0)
    assert code == plane_code(parse_plane_code(_ANCHOR))
    retried, more = _lift(anchor, lambda k: 1e-3 if 5 <= k <= 16 else 1.0)
    assert retried == code and more > calls


@pytest.mark.parametrize("dp_factor, message", [
    (lambda k: 1e-3 if k >= 5 else 1.0, "^stalled continuation$"),
    (lambda k: 1e-3, "could not start continuation"),
    (lambda k: 0.0 if k == 4 else 1.0,
     r"stalled continuation \(p' = 0 on path\)"),
], ids=["stalls", "no-start", "zero-derivative"])
def test_lift_exits(anchor, dp_factor, message):
    with pytest.raises(PathLiftingError, match=message):
        _lift(anchor, dp_factor)


def test_lift_refuses_coincident_vertices(anchor):
    black = [RootCluster(anchor.white[0].location,
                         anchor.black[0].multiplicity), *anchor.black[1:]]
    with pytest.raises(PathLiftingError, match="coincident vertices"):
        shabat._identify_from_vertices(anchor.poly, anchor.white, black)


def test_identify_rejects_non_shabat():
    with pytest.raises(ShabatError):
        identify_tree(ComplexPoly((0, 0, 1)))


def test_near_shabat_input_is_not_a_tree():
    # p + eps has critical values within eps of +-1, but p -+ 1 now have
    # split double roots: s + t != n + 1 vertices, so no tree is read off
    sol = solve_tree(parse_plane_code("W((()))()()"))
    for eps in (1e-10, 1e-9, 1e-8):
        for read in (identify_tree, zapponi_normalize):
            with pytest.raises(ShabatError, match="not Shabat") as info:
                read(sol.poly + eps)
            assert not isinstance(info.value, NoZapponiFormError)
    back = zapponi_normalize(sol.poly + 1e-12)
    assert sorted((w.multiplicity for w in back.white), reverse=True) == \
        [3, 2]
    assert sorted((b.multiplicity for b in back.black), reverse=True) == \
        [2, 1, 1, 1]


# ------------------------------------------------------------ normalization


def test_zapponi_normalize_recovers_form():
    # destroy the normalization of every solvable 6-edge tree with an affine
    # substitution, then recover it
    solved = 0
    for tree in _nonsym(6):
        try:
            sol = solve_tree(tree)
        except NoZapponiFormError:
            continue
        solved += 1
        q = sol.poly.compose_affine(0.7 - 0.2j, 1.3 + 0.4j)
        back = zapponi_normalize(q)
        assert np.allclose(back.poly.as_array(), sol.poly.as_array(),
                           atol=1e-6)
        assert max(back.invariant_deviations()) < 1e-6
    assert solved > 1


def test_zapponi_normalize_refuses_a_zero_white_sum():
    # the Chebyshev polynomial T_4 = 8z^4 - 8z^2 + 1 is even: its white and
    # its black vertices both sum to zero
    with pytest.raises(NoZapponiFormError, match=_DEGENERATE):
        zapponi_normalize(parse_poly("1,0,-8,0,8"))


def test_solution_json_round_trip():
    sol = solve_tree(parse_plane_code("W(())()()()"))
    rec = sol.to_json()
    back = SZSolution.from_json(rec)
    assert np.allclose(back.poly.as_array(), sol.poly.as_array())
    assert back.residual == rec["residual"] == sol.residual
