import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from dessinjulia import catalog
from dessinjulia.catalog import (CatalogConfig, CatalogRecord, Store,
                                 analyze_tree, report, run_catalog,
                                 run_series, series_tree)
from dessinjulia.dynamics import classify
from dessinjulia.fractal import FractalError
from dessinjulia.plane_tree import (Passport, mirror, parse_plane_code,
                                    plane_code, trees_with_passport)
from dessinjulia.shabat import (ExhaustedError, _same_vertex_set,
                                identify_tree, solve_passport, solve_tree)


# the six embeddings of the 15-edge passport <13,1,1|2,2,1,...,1>
BIG_PASSPORT = json.loads(
    (Path(__file__).parent / "big_passport_trees.json").read_text())


def _whites(sol):
    return [(w.location, w.multiplicity) for w in sol.white]


# ------------------------------------------------------------ single record


def test_analyze_tree_full_record():
    tree = parse_plane_code("W(())()()()")
    rec = analyze_tree(tree, CatalogConfig())
    assert rec.tree_code == plane_code(tree)
    assert rec.passport == "4,1|2,1,1,1"
    assert rec.sz is not None and rec.sz_absent_reason is None
    assert rec.classification.taxonomy == "g3"
    assert "solve" in rec.timings and "classify" in rec.timings
    rec.validate()


def test_analyze_symmetric_tree():
    rec = analyze_tree(parse_plane_code("W(()()())"), CatalogConfig())
    assert rec.sz is None
    assert rec.sz_absent_reason == "symmetric"
    assert rec.classification is None
    rec.validate()


def test_analyze_degenerate_tree():
    rec = analyze_tree(parse_plane_code("W(((((())(())))))"), CatalogConfig())
    assert rec.sz_absent_reason == "degenerate"
    rec.validate()


def test_record_json_round_trip():
    rec = analyze_tree(parse_plane_code("W((()))()()"), CatalogConfig())
    back = CatalogRecord.from_json(rec.to_json())
    assert back.tree_code == rec.tree_code
    assert back.classification.taxonomy == rec.classification.taxonomy
    assert back.sz.poly.coeffs == rec.sz.poly.coeffs


def test_record_validation_errors():
    rec = analyze_tree(parse_plane_code("W((()))()()"), CatalogConfig())
    rec.sz_absent_reason = "symmetric"  # sz present and a reason: invalid
    with pytest.raises(ValueError):
        rec.validate()
    rec.sz_absent_reason = None
    rec.classification.connectedness = "totally_disconnected"
    with pytest.raises(ValueError):
        rec.validate()


def test_analyze_with_images(tmp_path):
    store = Store(str(tmp_path / "store"))
    rec = analyze_tree(parse_plane_code("W((()))()()"),
                       CatalogConfig(with_images=True), store)
    assert set(rec.artifacts) == {"escape", "basins"}
    for rel in rec.artifacts.values():
        path = os.path.join(store.root, rel)
        assert open(path, "rb").read(2) == b"P6"


def test_analyze_with_dims(tmp_path):
    # the box estimate, then the pressure one, each with its confidence; the
    # values are not pinned, so that tuning an estimator does not break this
    rec = analyze_tree(parse_plane_code("W((()))"),
                       CatalogConfig(with_dims=True))
    assert [d.method for d in rec.dims] == ["box_counting", "pressure"]
    for d in rec.dims:
        assert 0.0 <= d.value <= 2.0 and d.confidence in ("ok", "low")
    assert {"box_dim", "pressure_dim"} <= set(rec.timings)
    assert rec.error is None
    root = str(tmp_path / "store")
    Store(root).save(rec)
    back = Store(root).load(rec.tree_code)
    assert [d.to_json() for d in back.dims] == [d.to_json() for d in rec.dims]
    text = report(root)
    for d in rec.dims:
        assert f"{d.value:.3f} ({d.method}" in text


@pytest.mark.parametrize("failing, stage, kept", [
    ("julia_cloud", "box_dim", "pressure"),
    ("pressure_dim", "pressure_dim", "box_counting")])
def test_a_failed_dimension_stage_keeps_the_other(monkeypatch, failing, stage,
                                                  kept):
    def refuse(*args, **kwargs):
        raise FractalError("refused")

    monkeypatch.setattr(catalog, failing, refuse)
    rec = analyze_tree(parse_plane_code("W((()))"),
                       CatalogConfig(with_dims=True))
    assert [d.method for d in rec.dims] == [kept]
    assert rec.error == f"{stage}: refused"
    rec.validate()


def test_both_failed_dimension_stages_keep_both_errors(monkeypatch):
    def refuse(name):
        def fail(*args, **kwargs):
            raise FractalError(f"{name} refused")
        return fail

    monkeypatch.setattr(catalog, "box_dim", refuse("box"))
    monkeypatch.setattr(catalog, "pressure_dim", refuse("pressure"))
    rec = analyze_tree(parse_plane_code("W((()))"),
                       CatalogConfig(with_dims=True))
    assert rec.dims == []
    assert rec.error == "box_dim: box refused; pressure_dim: pressure refused"
    rec.validate()


# -------------------------------------------------------------------- store


def test_store_round_trip_gives_back_the_saved_record(tmp_path):
    # a solved record with dims loads back equal to the one saved, its
    # vertex clusters included
    rec = analyze_tree(parse_plane_code("W((())())()(())"),
                       CatalogConfig(with_dims=True))
    assert rec.sz is not None and len(rec.dims) == 2
    store = Store(str(tmp_path / "store"))
    store.save(rec)
    assert store.load(rec.tree_code) == rec


def test_store_save_load_and_resume(tmp_path):
    root = str(tmp_path / "store")
    seen = []
    run_catalog(4, CatalogConfig(), root,
                progress=lambda r: seen.append(r.tree_code))
    assert len(seen) == 3
    # second run reuses every record
    seen2 = []
    out = run_catalog(4, CatalogConfig(), root,
                      progress=lambda r: seen2.append(r))
    assert seen2 == []
    assert sorted(r.tree_code for r in out) == sorted(seen)
    # no stray temp files from the atomic writes
    stray = [f for f in os.listdir(os.path.join(root, "records"))
             if ".tmp." in f]
    assert stray == []
    store = Store(root)
    rec = store.load(seen[0])
    rec.validate()


def _save_many(root, prefix, count):
    store = Store(root)
    for i in range(count):
        store.save(CatalogRecord(f"{prefix}{i}", "1|1", {},
                                 sz_absent_reason="symmetric"))


def test_store_concurrent_writers_lose_nothing(tmp_path):
    root = str(tmp_path / "store")
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_save_many, args=(root, prefix, 200))
             for prefix in ("W", "B")]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert not p.is_alive() and p.exitcode == 0
    store = Store(root)
    codes = [f"{prefix}{i}" for prefix in ("W", "B") for i in range(200)]
    assert all(store.has(code) for code in codes)
    assert [r.tree_code for r in store.all_records()] == sorted(codes)


def test_store_force_reanalyzes(tmp_path):
    root = str(tmp_path / "store")
    run_catalog(3, CatalogConfig(), root)
    seen = []
    run_catalog(3, CatalogConfig(force=True), root,
                progress=lambda r: seen.append(r.tree_code))
    assert len(seen) == 2  # both 3-edge representatives redone


def test_run_catalog_range_check():
    with pytest.raises(ValueError):
        run_catalog(1)
    with pytest.raises(ValueError):
        run_catalog(9)


def test_jobs_never_exceed_the_trees_to_analyze(tmp_path, monkeypatch):
    # a fork-started pool forks all max_workers processes at its first
    # submit, so the pool is sized by the trees left to analyze
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(catalog, "ProcessPoolExecutor", InProcessPool)
    root = str(tmp_path / "store")
    assert len(run_catalog(2, CatalogConfig(), root, jobs=8)) == 1
    assert len(run_catalog(4, CatalogConfig(), root, jobs=8)) == 3
    # all resumed
    assert len(run_catalog(4, CatalogConfig(), root, jobs=8)) == 3
    assert len(run_catalog(5, CatalogConfig(), root, jobs=2)) == 6
    assert sizes == [3, 2]


# ------------------------------------------------------------------- series


def test_series_tree_codes():
    assert plane_code(series_tree(1, 4)) == plane_code(
        parse_plane_code("W(())()()()"))
    assert str(series_tree(2, 5).n_edges) == "7"
    with pytest.raises(ValueError):
        series_tree(4, 5)
    with pytest.raises(ValueError):
        series_tree(1, 2)


def test_run_series_small(tmp_path):
    root = str(tmp_path / "store")
    recs = run_series(2, range(3, 5), CatalogConfig(), root)
    assert [r.classification.taxonomy for r in recs] == ["g2", "g2"]
    assert all(r.classification.fate_plus.period == 2 for r in recs)


# ----------------------------------------------------------------- fixtures


def test_big_passport_fixture():
    data = BIG_PASSPORT
    assert data["passport"] == "13,1,1|" + ",".join(["2", "2"] + ["1"] * 11)
    entries = data["trees"]
    assert len(entries) == 6
    assert {e["separation"] for e in entries} == set(range(1, 7))
    from dessinjulia.plane_tree import passport_of
    for e in entries:
        tree = parse_plane_code(e["code"])
        assert tree.n_edges == 15
        assert str(passport_of(tree)) == data["passport"]
        assert e["taxonomy"] in ("g1", "g4")
    # the nearly-symmetric placements are the connected ones
    assert [e["taxonomy"] for e in sorted(entries,
                                          key=lambda e: e["separation"])] == \
        ["g4", "g4", "g4", "g4", "g1", "g1"]


def test_big_passport_separation_one_recomputed():
    # solved, identified and classified here, not read back from the JSON
    entry = next(e for e in BIG_PASSPORT["trees"]
                 if e["separation"] == 1)
    tree = parse_plane_code(entry["code"])
    sz = solve_tree(tree)
    assert plane_code(identify_tree(sz.poly)) == plane_code(tree)
    assert classify(sz.poly).taxonomy == entry["taxonomy"] == "g4"


def test_big_passport_recomputed():
    # every fixture taxonomy recomputed, and the passport solve returns one
    # solution per fixture tree, in the order of their plane codes
    data = BIG_PASSPORT
    passport = Passport.parse("13,1,1|2,2,1,1,1,1,1,1,1,1,1,1,1")
    assert data["passport"] == str(passport)
    solved = {}
    for e in data["trees"]:
        tree = parse_plane_code(e["code"])
        sz = solve_tree(tree)
        assert classify(sz.poly).taxonomy == e["taxonomy"]
        solved[plane_code(tree)] = _whites(sz)
    assert set(solved) == {plane_code(t) for t in
                           trees_with_passport(passport.white, passport.black)}
    sols = solve_passport(passport)
    matches = [[code for code, whites in solved.items()
                if _same_vertex_set(_whites(sol), whites)] for sol in sols]
    assert matches == sorted([code] for code in solved)


# ------------------------------------------------------------------- report


def test_report_renders_markdown(tmp_path):
    root = str(tmp_path / "store")
    run_catalog(4, CatalogConfig(), root)
    text = report(root)
    assert text.startswith("| tree | passport |")
    assert "`W((()()))`" in text and "| g3 | c(10) | c(10) |" in text
    assert "no SZ form (symmetric)" in text


def test_report_names_escaping_and_fixed_point_fates(tmp_path):
    root = str(tmp_path / "store")
    store = Store(root)
    for code in ("W(((())()))", "B(((((()()()))))())"):
        store.save(analyze_tree(parse_plane_code(code), CatalogConfig()))
    text = report(root)
    assert "| `W(((())()))` | 3,1,1|2,2,1 | g4 | inf | inf |" in text
    assert "| `B(((((()()()))))())` | 4,3,2|2,2,1,1,1,1,1 | s1 | c(4) | p |" \
        in text


# ------------------------------------------------------------ mirror classes


def _derived(rec):
    return "derive" in rec.timings


def _assert_like_fresh(rec, fresh):
    """A derived record against a fresh analysis of its tree: the same
    outcome, coefficients within 1e-10 of the largest, vertices within
    1e-9, and fates of equal kind, period and iterations whose points and
    multipliers lie within 1e-9."""
    assert (rec.tree_code, rec.passport, rec.symmetry, rec.sz_absent_reason) \
        == (fresh.tree_code, fresh.passport, fresh.symmetry,
            fresh.sz_absent_reason)
    if fresh.sz is None:
        assert rec.classification is None and rec.error == fresh.error
        return
    c, f = rec.sz.poly.as_array(), fresh.sz.poly.as_array()
    assert len(c) == len(f)
    assert np.max(np.abs(c - f)) <= 1e-10 * np.max(np.abs(f))
    for side in ("white", "black"):
        assert _same_vertex_set(
            [(v.location, v.multiplicity) for v in getattr(rec.sz, side)],
            [(v.location, v.multiplicity) for v in getattr(fresh.sz, side)],
            tol=1e-9)
    got, want = rec.classification, fresh.classification
    assert (got.taxonomy, got.connectedness) == (want.taxonomy,
                                                 want.connectedness)
    for a, b in ((got.fate_plus, want.fate_plus),
                 (got.fate_minus, want.fate_minus)):
        assert (a.kind, a.period, a.iterations_used) == \
            (b.kind, b.period, b.iterations_used)
        assert len(a.cycle_points) == len(b.cycle_points)
        assert all(abs(x - y) <= 1e-9
                   for x, y in zip(a.cycle_points, b.cycle_points))
        assert abs(a.multiplier - b.multiplier) <= 1e-9


@pytest.mark.parametrize("edges, derived, solved, swapped", [
    (7, 7, 7, 1), (8, 30, 29, 0)])
def test_mirror_records_match_a_fresh_analysis(tmp_path, edges, derived,
                                               solved, swapped):
    # each tree whose mirror partner comes first in the catalog gets that
    # partner's solution conjugated in place of a solve, then the stages of
    # any record: its fates are what classify gives on the derived
    # polynomial, and close to those of a fresh solve
    recs = run_catalog(edges, CatalogConfig(), str(tmp_path / "store"))
    codes = {r.tree_code for r in recs}
    mine = [r for r in recs if _derived(r)]
    assert len(mine) == derived
    assert sum(r.sz is not None for r in mine) == solved
    assert sum(plane_code(mirror(parse_plane_code(r.tree_code))) not in codes
               for r in mine) == swapped
    for rec in mine:
        if rec.sz is None:
            assert set(rec.timings) == {"derive"}
        else:
            assert set(rec.timings) == {"derive", "classify"}
            assert classify(rec.sz.poly) == rec.classification
        _assert_like_fresh(rec, analyze_tree(parse_plane_code(rec.tree_code),
                                             CatalogConfig()))


# both box values low: the sets are disconnected; box 1.4526 against 1.3921
# when each tree is estimated on its own
_PAIR = ("W(((((())()))))", "W(((((())))()))")


def test_a_mirror_record_copies_its_partners_dimensions(tmp_path):
    cfg = CatalogConfig(with_dims=True)
    first, second = map(parse_plane_code, _PAIR)
    a, b = catalog._run_trees([first, second], cfg, str(tmp_path / "store"))
    assert not _derived(a) and _derived(b)
    assert [d.method for d in b.dims] == ["box_counting", "pressure"]
    assert [d.to_json() for d in b.dims] == [d.to_json() for d in a.dims]
    assert b.error == a.error
    fresh = analyze_tree(second, cfg)
    _assert_like_fresh(b, fresh)
    assert abs(b.dims[1].value - fresh.dims[1].value) <= 1e-6


def test_a_stored_partner_without_dimensions_gets_them(tmp_path):
    # a stored partner without estimates does not answer a dims run: the
    # tree is solved and estimated itself
    root = str(tmp_path / "store")
    first, second = map(parse_plane_code, _PAIR)
    catalog._run_trees([first], CatalogConfig(), root)
    (b,) = catalog._run_trees([second], CatalogConfig(with_dims=True), root)
    assert not _derived(b)
    assert {"solve", "box_dim", "pressure_dim"} <= set(b.timings)
    assert [d.method for d in b.dims] == ["box_counting", "pressure"]
    # with force no stored record is reused, not even as a partner
    (again,) = catalog._run_trees([second], CatalogConfig(force=True), root)
    assert not _derived(again)


def _untimed_records(root):
    return [{k: v for k, v in rec.to_json().items() if k != "timings"}
            for rec in Store(root).all_records()]


def test_a_resumed_store_gains_the_stages_it_lacks(tmp_path):
    # a store written without dims and images, resumed with both, equals a
    # store written with both at once, its image bytes too; then every
    # record answers the run, and none is analysed again
    trees = [parse_plane_code(c) for c in (*_PAIR, "W(()()())")]
    full = CatalogConfig(with_dims=True, with_images=True)
    resumed, fresh = str(tmp_path / "resumed"), str(tmp_path / "fresh")
    catalog._run_trees(trees, CatalogConfig(), resumed)
    catalog._run_trees(trees, full, resumed)
    catalog._run_trees(trees, full, fresh)
    assert _untimed_records(resumed) == _untimed_records(fresh)
    assert [len(r["dims"]) for r in _untimed_records(fresh)] == [2, 2, 0]
    images = sorted(os.listdir(os.path.join(fresh, "images")))
    assert len(images) == 4
    assert sorted(os.listdir(os.path.join(resumed, "images"))) == images
    for name in images:
        assert Path(resumed, "images", name).read_bytes() == \
            Path(fresh, "images", name).read_bytes()
    seen = []
    catalog._run_trees(trees, full, resumed, progress=seen.append)
    assert seen == []


def test_after_an_exhausted_partner_the_tree_is_analysed(tmp_path,
                                                         monkeypatch):
    first, second = map(parse_plane_code, _PAIR)

    def exhausted_for_first(tree):
        if plane_code(tree) == _PAIR[0]:
            raise ExhaustedError("no seed converged")
        return solve_tree(tree)

    monkeypatch.setattr(catalog, "solve_tree", exhausted_for_first)
    a, b = catalog._run_trees([first, second], CatalogConfig(),
                              str(tmp_path / "store"))
    assert a.sz_absent_reason == "exhausted"
    assert not _derived(b) and b.sz is not None


def test_the_workers_get_one_tree_per_mirror_class(tmp_path, monkeypatch):
    mapped = []

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        @staticmethod
        def map(fn, trees, *rest):
            trees = list(trees)
            mapped.extend(plane_code(t) for t in trees)
            return map(fn, trees, *rest)

    monkeypatch.setattr(catalog, "ProcessPoolExecutor", InProcessPool)
    seen = []
    recs = run_catalog(7, CatalogConfig(), str(tmp_path / "store"),
                       progress=lambda r: seen.append(r.tree_code), jobs=2)
    codes = [r.tree_code for r in recs]
    assert seen == codes == sorted(codes)
    assert mapped == [r.tree_code for r in recs if not _derived(r)]
    assert len(mapped) == 27
