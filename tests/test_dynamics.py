import numpy as np
import pytest

from dessinjulia._kernels import _polyval
from dessinjulia.dynamics import (MAX_ITER, WEAK_MAX_PERIOD,
                                  _fate_from_candidate, classify,
                                  escape_radius, iterate_orbit,
                                  trapping_radius)
from dessinjulia.plane_tree import parse_plane_code
from dessinjulia.polynomial import ComplexPoly, parse_poly, poly_from_roots
from dessinjulia.shabat import solve_tree
from test_acceptance import QUINTICS

RNG = np.random.default_rng(20240818)


def _solve(code):
    return solve_tree(parse_plane_code(code)).poly


# ------------------------------------------------------------ escape radius


def test_escape_radius_guarantee_random():
    for _ in range(200):
        deg = int(RNG.integers(2, 7))
        c = RNG.normal(size=deg + 1) + 1j * RNG.normal(size=deg + 1)
        c[-1] += 3.0  # keep the leading term well away from zero
        p = ComplexPoly(tuple(c))
        R = escape_radius(p)
        theta = RNG.uniform(0, 2 * np.pi, size=32)
        z = (R + 1e-9) * np.exp(1j * theta)
        assert np.all(np.abs(p(z)) >= 2 * np.abs(z) - 1e-9)


def test_escape_radius_rejects_low_degree():
    with pytest.raises(ValueError):
        escape_radius(ComplexPoly((1, 2)))


# ------------------------------------------------------------- single orbits


def test_orbit_escape():
    fate = iterate_orbit(ComplexPoly((3, 0, 1)), 1.0)  # z^2 + 3
    assert fate.kind == "escape" and not fate.bounded


def test_orbit_superattracting_cycle():
    # z^2 - 1: 0 -> -1 -> 0, superattracting 2-cycle
    fate = iterate_orbit(ComplexPoly((-1, 0, 1)), 1.0)
    assert fate.kind == "attracting_cycle"
    assert fate.period == 2
    assert abs(fate.multiplier) < 1e-9
    assert min(abs(z) for z in fate.cycle_points) < 1e-9


def test_orbit_attracting_fixed_point():
    # z^2 - 0.2: attracting fixed point is the smaller root of z^2 - z - 0.2
    p = ComplexPoly((-0.2, 0, 1))
    fate = iterate_orbit(p, 0.9)
    assert fate.kind == "attracting_point"
    zfix = (1 - np.sqrt(1.8)) / 2
    assert abs(fate.cycle_points[0] - zfix) < 1e-9
    assert abs(fate.multiplier - 2 * zfix) < 1e-8


def test_short_orbit_verdict_ignores_earlier_calls():
    # z^2 - 0.7 with max_iter=20: a short orbit and its weak pass give
    # one verdict on every call
    p = ComplexPoly((-0.7, 0, 1))
    verdicts = set()
    for _ in range(3):
        verdicts.add(iterate_orbit(p, 1.0, max_iter=20).kind)
    assert len(verdicts) == 1


def test_weak_pass_finds_a_weakly_attracting_cycle():
    # z^2 + c with a 2-cycle of multiplier 4(c + 1) = 1 - 1e-5: the orbit
    # of 0 is still too far from it after MAX_ITER steps for Brent's test,
    # and the weak pass, which continues that orbit, finds it
    c = (1 - 1e-5) / 4 - 1
    fate = iterate_orbit(ComplexPoly((c, 0, 1)), 0.0)
    assert fate.kind == "attracting_cycle" and fate.period == 2
    assert abs(abs(fate.multiplier) - (1 - 1e-5)) < 1e-8
    extra = fate.iterations_used - MAX_ITER
    assert 0 < extra <= 2 * WEAK_MAX_PERIOD + 1


def test_an_orbit_past_the_largest_double_escapes():
    # z^2 + c, c = 3u^2 + 4u^2 i with u = 1.875 * 2^510: c is finite but
    # |c| = 5u^2 is not a double.  From 0 the orbit reaches c at step 1;
    # from u - 2u i, a square root of -c in exact arithmetic, it reaches 0
    # and then c, at step 2, in the weak pass after max_iter = 1
    u = 1.875 * 2.0 ** 510
    p = ComplexPoly((complex(3 * u * u, 4 * u * u), 0, 1))
    with np.errstate(over="ignore"):
        assert escape_radius(p) == np.inf
        for z0, max_iter, steps in ((0.0, MAX_ITER, 1),
                                    (complex(u, -2 * u), 1, 2)):
            fate = iterate_orbit(p, z0, max_iter)
            assert (fate.kind, fate.iterations_used) == ("escape", steps)
        assert classify(p).taxonomy == "g4"


def test_least_period_is_read_from_the_refined_orbit():
    # a candidate period that is a multiple of the cycle's
    fate = _fate_from_candidate(ComplexPoly((-1, 0, 1)), 6, 1e-3, 0)
    assert fate.kind == "attracting_cycle" and fate.period == 2
    assert sorted(round(z.real) for z in fate.cycle_points) == [-1, 0]
    assert max(abs(z - round(z.real)) for z in fate.cycle_points) < 1e-12
    assert abs(fate.multiplier) < 1e-12
    p = ComplexPoly((-0.2, 0, 1))
    fate = _fate_from_candidate(p, 4, 1e-3, 0)
    zfix = (1 - np.sqrt(1.8)) / 2
    assert fate.kind == "attracting_point" and fate.period == 1
    assert len(fate.cycle_points) == 1
    assert abs(fate.cycle_points[0] - zfix) < 1e-12
    assert abs(fate.multiplier - 2 * zfix) < 1e-12


def test_unconverged_candidate_is_undetermined():
    # from 50 + 50i the period-3 Newton walk on z^2 + 3 leaves the disc of
    # radius 1e6 on its second step: Newton does not converge
    fate = _fate_from_candidate(ComplexPoly((3, 0, 1)), 3, 50.0 + 50j, 7)
    assert fate.kind == "undetermined"
    assert (fate.period, fate.cycle_points, fate.iterations_used) == \
        (3, [], 7)


def test_orbit_config_validation():
    with pytest.raises(ValueError):
        iterate_orbit(ComplexPoly((0, 0, 1)), 0.5, max_iter=0)


# --------------------------------------------------- taxonomy on known trees


def test_classify_g2_superattracting():
    # the 6-edge tree whose critical values form the 2-cycle {1, -1}
    cls = classify(_solve("W((()))()()()"))
    assert cls.taxonomy == "g2"
    assert cls.connectedness == "connected"
    assert abs(cls.fate_plus.multiplier) < 1e-8
    assert {round(z.real) for z in cls.fate_plus.cycle_points} == {1, -1}


def test_classify_g3_long_cycle():
    cls = classify(_solve("W(())()()()"))
    assert cls.taxonomy == "g3"
    assert cls.fate_plus.period == 24
    assert cls.connectedness == "connected"


def test_classify_g1_fixed_points():
    cls = classify(_solve("W(())()(())()()"))
    assert cls.taxonomy == "g1"
    assert cls.fate_plus.period == 1 and cls.fate_minus.period == 1
    assert cls.connectedness == "connected"


def test_classify_g4_both_escape():
    cls = classify(_solve("W((()))((()))()"))
    assert cls.taxonomy == "g4"
    assert cls.connectedness == "totally_disconnected"


def test_classify_s2_two_cycles():
    # (z^5 - 5z^3 + 5z)/2: two distinct attracting 4-cycles swapped by z->-z
    p = parse_poly("0,5/2,0,-5/2,0,1/2")
    cls = classify(p)
    assert cls.taxonomy == "s2"
    assert cls.fate_plus.period == 4 and cls.fate_minus.period == 4
    got = sorted(z.real for z in cls.fate_plus.cycle_points)
    want = sorted((0.500469, 0.953491, 0.610612, 0.999810))
    assert np.allclose(got, want, atol=1e-4)
    assert np.allclose(sorted(z.real for z in cls.fate_minus.cycle_points),
                       [-w for w in want[::-1]], atol=1e-4)


def test_classify_s1_cycle_and_fixed_point():
    # +1 reaches an attracting 4-cycle, -1 a weakly attracting fixed point
    cls = classify(_solve("B(((((()()()))))())"))
    assert cls.taxonomy == "s1"
    assert cls.connectedness == "connected"
    plus, minus = cls.fate_plus, cls.fate_minus
    assert plus.kind == "attracting_cycle" and plus.period == 4
    assert abs(abs(plus.multiplier) - 0.5609) < 1e-4
    assert minus.kind == "attracting_point" and minus.period == 1
    assert abs(abs(minus.multiplier) - 0.9071) < 1e-4


def test_classify_s3_mixed():
    cls = classify(_solve("W(())((()))(())"))
    assert cls.taxonomy == "s3"
    assert cls.connectedness == "infinitely_many_components"
    kinds = {cls.fate_plus.kind, cls.fate_minus.kind}
    assert "escape" in kinds and len(kinds) == 2


def test_classify_deterministic_json():
    cls = classify(_solve("W((()))()()"))
    rec = cls.to_json()
    assert rec["taxonomy"] == cls.taxonomy
    assert len(rec["plus"]["points"]) == cls.fate_plus.period


def test_known_two_cycle_values():
    # quintic -(z+2)^3 (z-3)^2/54 + 1: both orbits join the 2-cycle
    # {0.607872363, -0.879463661}
    p = poly_from_roots([-2.0, 3.0], [3, 2], -1 / 54) + 1.0
    cls = classify(p)
    assert cls.taxonomy == "g2"
    got = sorted(z.real for z in cls.fate_plus.cycle_points)
    assert np.allclose(got, [-0.879463661, 0.607872363], atol=1e-6)


# --------------------------------------------------------- trapping discs


@pytest.mark.parametrize("name", ["basilica", "tree7", "q1", "q2", "q5",
                                  "t7s3"])
def test_trapping_radius_maps_each_disc_into_the_next(name):
    # points on the boundary of and inside D(c_j, rho_j), mapped by the
    # render loop's own Horner step, land in D(c_(j+1), rho_(j+1)); the
    # discs lie inside the escape disc
    p = {"basilica": parse_poly("-1,0,1"),
         "tree7": _solve("W((())())()(())"), "q1": QUINTICS[0],
         "q2": QUINTICS[1], "q5": QUINTICS[4],
         "t7s3": _solve("W(())((()))(())")}[name]
    c = p.as_array()
    radius = escape_radius(p)
    cls = classify(p)
    for fate in (cls.fate_plus, cls.fate_minus):
        if not fate.bounded:
            continue
        pts = fate.cycle_points
        rho = trapping_radius(p, pts)
        assert rho is not None and len(rho) == len(pts)
        for j, (z, r) in enumerate(zip(pts, rho)):
            assert 0 < r and abs(z) + r < radius
            ang = np.exp(2j * np.pi * RNG.uniform(size=2000))
            scale = np.concatenate([np.ones(1000),
                                    np.sqrt(RNG.uniform(size=1000))])
            image = _polyval(c, z + r * scale * ang)
            k = (j + 1) % len(pts)
            assert np.all(np.abs(image - pts[k]) <= rho[k])


def test_trapping_radius_refuses_non_attracting_points():
    # the repelling fixed point 1 of z^2, the parabolic fixed point 1/2 of
    # z^2 + 1/4 and a point on no cycle get no disc
    for p, pts in ((ComplexPoly((0, 0, 1)), [1.0]),
                   (ComplexPoly((0.25, 0, 1)), [0.5]),
                   (ComplexPoly((0, 0, 1)), [0.3])):
        assert trapping_radius(p, pts) is None
