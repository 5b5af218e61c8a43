import numpy as np
import pytest

from dessinjulia.polynomial import (ComplexPoly, PolynomialError,
                                    RootCluster, RootFindingError, derivative,
                                    evaluate, expand_roots, format_poly,
                                    parse_poly, poly_from_roots, roots)

RNG = np.random.default_rng(20240817)
EPS = np.finfo(float).eps


# --------------------------------------------------------------- arithmetic


def test_coefficients_trim_and_degree():
    p = ComplexPoly((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert ComplexPoly((0, 0)).degree == 0


def test_add_mul_match_numpy():
    for _ in range(50):
        a = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        b = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        pa, pb = ComplexPoly(tuple(a)), ComplexPoly(tuple(b))
        s = np.polynomial.polynomial.polyadd(a, b)
        m = np.polynomial.polynomial.polymul(a, b)
        assert np.allclose((pa + pb).as_array(), s)
        assert np.allclose((pa * pb).as_array(), m)


def test_evaluate_matches_numpy_scalar_and_array():
    c = RNG.normal(size=6) + 1j * RNG.normal(size=6)
    p = ComplexPoly(tuple(c))
    zs = RNG.normal(size=20) + 1j * RNG.normal(size=20)
    ref = np.polynomial.polynomial.polyval(zs, c)
    assert np.allclose(evaluate(p, zs), ref)
    assert np.allclose(p(zs[0]), ref[0])


def test_derivative_matches_numpy():
    c = RNG.normal(size=7)
    p = ComplexPoly(tuple(c))
    assert np.allclose(derivative(p).as_array(),
                       np.polynomial.polynomial.polyder(c))
    assert derivative(ComplexPoly((5.0,))).coeffs == (0j,)


def test_compose_affine():
    p = ComplexPoly((1, 0, 1))  # z^2 + 1
    q = p.compose_affine(2.0, 1.0)  # (2z+1)^2 + 1
    zs = RNG.normal(size=10)
    assert np.allclose(evaluate(q, zs), evaluate(p, 2 * zs + 1))


def test_poly_from_roots():
    p = poly_from_roots([1, -1], [2, 1], 3.0)  # 3(z-1)^2(z+1)
    assert np.allclose(p.as_array(), [3, -3, -3, 3])


@pytest.mark.parametrize("top", [1, 2, 5, 13])
def test_expand_roots_matches_polyfromroots_on_repeated_roots(top):
    # multiplying out n linear factors errs by at most ~4*n*eps times the
    # coefficients of prod (z + |r|), which have no cancellation
    rng = np.random.default_rng(top)
    fromroots = np.polynomial.polynomial.polyfromroots
    for _ in range(40):
        k = int(rng.integers(1, 5))
        r = rng.normal(size=k) + 1j * rng.normal(size=k)
        r *= rng.choice([0.1, 1.0, 3.0])
        m = rng.integers(1, top + 1, size=k)
        m[0] = top
        lead = complex(rng.normal(), rng.normal())
        got = expand_roots(r, m.tolist(), lead)
        rep = np.repeat(r, m)
        ref = lead * fromroots(rep)
        bound = abs(lead) * fromroots(-np.abs(rep))
        assert len(got) == m.sum() + 1
        assert np.all(np.abs(got - ref) <= 4 * m.sum() * EPS * bound)
    assert np.array_equal(expand_roots([], [], 2.5), [2.5])
    assert np.array_equal(expand_roots([3.0], [0]), [1.0])


# -------------------------------------------------------------- text format


def test_parse_format_round_trip():
    for text in ("0,-15/4,0,10,0,-12", "1+2i,3", "-i,1/3", "2.5e-3,1"):
        p = parse_poly(text)
        assert np.allclose(parse_poly(format_poly(p)).as_array(),
                           p.as_array())
    assert parse_poly("1+2i,3").coeffs[0] == 1 + 2j
    assert parse_poly("-3/4,1").coeffs[0] == -0.75


def test_parse_rejects_garbage():
    # nan, inf and literals past the largest double are not coefficients
    huge = "1" + "0" * 400 + "/3"
    for bad in ("", "1,,2", "abc", "1+2", "nan,0,1", "inf,0,1", "-infinity",
                "1e400", "1,1e400i", "1+nani", "1e400/3", huge):
        with pytest.raises(PolynomialError):
            parse_poly(bad)
    # finite, though |c| is past the largest double
    assert parse_poly("1.3e308+1.3e308i,0,1").coeffs[0] == 1.3e308 + 1.3e308j
    for empty in ("", "1,,2"):
        with pytest.raises(PolynomialError, match="empty coefficient"):
            parse_poly(empty)


# ------------------------------------------------------------- root finding


def test_roots_simple_random():
    for _ in range(25):
        rs = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        p = poly_from_roots(rs, [1] * 5, 2.0)
        found = roots(p)
        assert sorted(r.multiplicity for r in found) == [1] * 5
        for r in found:
            assert min(abs(r.location - z) for z in rs) < 1e-8


def test_roots_with_multiplicities():
    p = poly_from_roots([1.0, -2.0, 0.5j], [4, 2, 1], -3.0)
    found = roots(p)
    by_mult = {r.multiplicity: r.location for r in found}
    assert set(by_mult) == {4, 2, 1}
    assert abs(by_mult[4] - 1.0) < 1e-9
    assert abs(by_mult[2] + 2.0) < 1e-9
    assert abs(by_mult[1] - 0.5j) < 1e-9


def test_roots_close_pair_not_merged():
    # two simple roots 1e-3 apart must stay separate clusters
    p = poly_from_roots([0.0, 1e-3, 1.0], [1, 1, 1])
    assert sorted(r.multiplicity for r in roots(p)) == [1, 1, 1]


def test_roots_exact_triple_root():
    # p' of the section-4 quintic q1: p underflows at the triple root -1/3
    q1 = poly_from_roots([-1 / 3, 4 / 3], [4, 1], 243 / 128) + 1.0
    found = roots(derivative(q1))
    assert [r.multiplicity for r in found] == [3, 1]
    assert abs(found[0].location + 1 / 3) < 1e-9
    assert abs(found[1].location - 1.0) < 1e-9


def test_roots_rejects_non_finite_aberth_output(monkeypatch):
    import dessinjulia.polynomial as P
    monkeypatch.setattr(P, "aberth_roots",
                        lambda c: np.array([np.nan, 1.0 + 0j]))
    with pytest.raises(RootFindingError):
        roots(ComplexPoly((-1, 0, 1)))


def test_roots_refuses_an_uncertified_clustering():
    # 52.17 (z - r1)^5 (z - r2)^5 (z - r3)^5 (z - r4)^4 with r1 = 0.891 -
    # 1.202i, r2 = -3.289 - 4.265i, r3 = 0.356 - 2.693i, r4 = -3.715 -
    # 4.459i (r2 and r4 are 0.47 apart), drawn by a default_rng(5)
    # generator of degree 18-26 polynomials with several roots of
    # multiplicity 3-5: Aberth converges, but no rung of the clustering
    # ladder re-expands to the coefficients (best error 0.08)
    coeffs = (
        -238240892965.12003 + 179285303911.14978j,
        1326304273831.0635 + 1156151919634.0264j,
        2545219388271.0825 - 4170921463301.399j,
        -7774841981299.207 - 3457118872052.992j,
        -3362276475508.2734 + 9881436328982.203j,
        9235353893233.723 + 2614946774453.7695j,
        1775392491271.1758 - 6635979486793.659j,
        -3761514277991.6475 - 1096293302982.1481j,
        -605632886906.1823 + 1703337120473.8008j,
        617405495774.7375 + 286678188153.2617j,
        111914309705.44464 - 177660845578.19705j,
        -39751756865.080154 - 35094075479.521355j,
        -8662929773.67909 + 6632212248.707557j,
        749824563.4971867 + 1648663644.4211707j,
        235403101.8893142 - 40050038.72938558j,
        2942527.0724036503 - 24223595.91641773j,
        -1683444.8559505478 - 793711.8668869952j,
        -70701.47333313304 + 70108.54881407779j,
        1307.8957811383939 + 3059.5184963682927j,
        52.174113740065295 + 0j,
    )
    with pytest.raises(RootFindingError,
                       match="could not certify a multiplicity clustering"):
        roots(ComplexPoly(coeffs))


def test_roots_of_a_linear_polynomial():
    (found,) = roots(ComplexPoly((1 - 2j, 4)))
    assert found == RootCluster(-(1 - 2j) / 4, 1)


def test_roots_rejects_constants():
    with pytest.raises(PolynomialError):
        roots(ComplexPoly((3.0,)))


def test_root_finding_error_is_a_polynomial_error():
    # identify_tree turns a PolynomialError from roots into its own refusal
    with pytest.raises(PolynomialError, match="boom"):
        raise RootFindingError("boom")
