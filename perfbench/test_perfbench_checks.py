"""Each output check of the benchmark accepts the program's real output and
rejects a deliberately wrong one."""

import copy

import numpy as np
import pytest

import checks
import workloads
from dessinjulia.catalog import CatalogConfig, run_catalog, run_series
from dessinjulia.dynamics import classify
from dessinjulia.fractal import julia_cloud, render_basins, render_escape
from dessinjulia.plane_tree import enumerate_trees, plane_code, symmetry_flags
from dessinjulia.polynomial import ComplexPoly

SERIES_N = range(3, 11)


@pytest.fixture(scope="module")
def catalog_output(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("store"))
    cfg = CatalogConfig()
    seven = [r.to_json() for r in run_catalog(7, cfg, store)]
    series = {(f, n): r.to_json() for f in (1, 2, 3)
              for n, r in zip(SERIES_N, run_series(f, SERIES_N, cfg, store))}
    written = {r["tree_code"]: r for r in seven + list(series.values())}
    return seven, series, written


def _solved(written):
    return next(r for r in written.values() if r["sz"] is not None
                and r["classification"]["taxonomy"] == "g3")


def test_tree_helpers_agree_with_the_package():
    for n in range(2, 7):
        for tree in enumerate_trees(n, dedup_color_swap=False):
            code = plane_code(tree)
            assert checks.code_variants(code)[0] == code
            assert checks.rotationally_symmetric(code) == \
                symmetry_flags(tree)["rotational"]


def test_catalog_check_accepts_real_output(catalog_output):
    seven, series, written = catalog_output
    assert checks.check_catalog(seven, series, written,
                                copy.deepcopy(written)) == []


def test_sz_check_rejects_a_perturbed_coefficient(catalog_output):
    rec = copy.deepcopy(_solved(catalog_output[2]))
    assert checks.check_sz(rec) == []
    re, im = rec["sz"]["coefficients"][2]
    rec["sz"]["coefficients"][2] = [re * (1 + 1e-6) + 1e-9, im]
    assert checks.check_sz(rec)


def test_sz_check_rejects_wrong_multiplicities(catalog_output):
    rec = copy.deepcopy(_solved(catalog_output[2]))
    whites = rec["sz"]["white"]
    i = max(range(len(whites)), key=lambda k: whites[k]["mult"])
    j = min(range(len(whites)), key=lambda k: whites[k]["mult"])
    whites[i]["mult"], whites[j]["mult"] = whites[j]["mult"] + 1, \
        whites[i]["mult"] - 1
    assert checks.check_sz(rec)


def test_classification_check_rejects_a_swapped_taxonomy(catalog_output):
    rec = copy.deepcopy(_solved(catalog_output[2]))
    assert checks.check_classification(rec) == []
    rec["classification"]["taxonomy"] = "s2"
    assert checks.check_classification(rec)


def test_classification_check_rejects_a_false_escape(catalog_output):
    rec = copy.deepcopy(_solved(catalog_output[2]))
    rec["classification"]["plus"] = {"kind": "escape", "period": 1,
                                     "multiplier": [0.0, 0.0], "points": [],
                                     "iterations_used": 50}
    assert checks.check_classification(rec)


def test_catalog_check_rejects_a_table_mismatch(catalog_output):
    seven, series, written = copy.deepcopy(catalog_output)
    # relabel the paper's <3,1> 10-cycle as a 4-cycle in the stored fate
    series[(1, 3)]["classification"]["plus"]["period"] = 4
    problems = checks.check_catalog(seven, series, written, written)
    assert any("series <3,1>" in p for p in problems)


def test_catalog_check_rejects_a_missing_form_and_a_duplicate(
        catalog_output):
    seven, series, written = copy.deepcopy(catalog_output)
    solved = [r for r in seven if r["sz"] is not None]
    solved[1]["sz"] = copy.deepcopy(solved[0]["sz"])
    solved[2]["sz"] = None
    problems = checks.check_catalog(seven, series, written, written)
    assert any("distinct polynomials" in p for p in problems)
    assert any("without rotational symmetry" in p for p in problems)


def test_catalog_check_rejects_a_changed_resume(catalog_output):
    seven, series, written = catalog_output
    resumed = copy.deepcopy(written)
    code = next(iter(resumed))
    resumed[code]["passport"] = "1|1"
    assert checks.check_catalog(seven, series, written, resumed)
    del resumed[code]
    assert checks.check_catalog(seven, series, written, resumed)


def test_dims_check():
    z2 = ComplexPoly((-1, 0, 1))
    cloud = julia_cloud(z2, 20_000)
    polys = {"b": np.array([-1, 0, 1], dtype=complex)}
    rng = np.random.default_rng(0)
    good = {"pressure:z2": 0.9997, "box:segment": 0.99, "box:square": 1.99,
            "box:q2": 1.22, "pressure:q3": 0.85, "box:t7": 1.04,
            "box:b": 1.2}
    assert checks.check_dims(good, {"b": cloud}, polys, rng) == []
    for name, bad in (("pressure:z2", 1.002), ("box:square", 1.9),
                      ("box:t7", 1.15), ("box:b", 2.01)):
        assert checks.check_dims({**good, name: bad}, {}, polys, rng)
    assert checks.check_dims(good, {"b": cloud * 1.1}, polys, rng)


@pytest.fixture(scope="module")
def rasters():
    p = ComplexPoly((-1, 0, 1))
    cls = classify(p)
    view, size = (0.0, 0.0, 2.0, 1.5), (48, 36)
    esc = render_escape(p, view, size, max_iter=60)
    bas = render_basins(p, cls, view, size, trap_radius=0.05,
                        thresholds=(5, 7, 10), max_iter=200)
    traps = [z for f in (cls.fate_plus, cls.fate_minus) if f.bounded
             for z in f.cycle_points]
    pixels = [(i, j) for i in range(36) for j in range(48)]
    return np.array(p.coeffs), view, size, esc, bas, traps, pixels


def test_escape_check_rejects_a_flipped_pixel(rasters):
    c, view, size, esc, _, _, pixels = rasters
    assert checks.check_escape(c, view, size, 60, esc.escaped_at,
                               pixels) == []
    counts = esc.escaped_at.copy()
    counts[17, 30] = 3 if counts[17, 30] != 3 else 4
    assert checks.check_escape(c, view, size, 60, counts, pixels)


def test_basin_check_rejects_a_flipped_band(rasters):
    c, view, size, _, bas, traps, pixels = rasters
    args = (c, view, size, 200, traps, 0.05, (5, 7, 10))
    assert checks.check_basins(*args, bas.escaped_at, bas.band, pixels) == []
    band = bas.band.copy()
    band[5, 9] = (band[5, 9] + 1) % 5
    assert checks.check_basins(*args, bas.escaped_at, band, pixels)
    steps = bas.escaped_at.copy()
    steps[20, 20] += 1
    assert checks.check_basins(*args, steps, bas.band, pixels)


def test_repeated_pass_comparison_rejects_a_change():
    clouds = {"q3": np.arange(4, dtype=complex)}
    dims = ({"box:q3": 0.88}, clouds)
    assert workloads.Dims.same(dims, ({"box:q3": 0.88},
                                      {"q3": clouds["q3"].copy()}))
    assert not workloads.Dims.same(dims, ({"box:q3": 0.89}, clouds))
    raster = {("escape", "q3"): (np.zeros((3, 3), dtype=np.int32),)}
    flipped = {("escape", "q3"): (np.eye(3, dtype=np.int32),)}
    assert workloads.Render.same(raster, copy.deepcopy(raster))
    assert not workloads.Render.same(raster, flipped)
    rec = {"tree_code": "W(())()", "timings": {"solve": 0.1}}
    cat = ({("seven", None): [rec]}, {("seven", None): [rec]})
    retimed = copy.deepcopy(cat)
    retimed[0][("seven", None)][0]["timings"]["solve"] = 0.2
    assert workloads.Catalog.same(cat, retimed)
    retimed[1][("seven", None)][0]["tree_code"] = "W()()()"
    assert not workloads.Catalog.same(cat, retimed)
