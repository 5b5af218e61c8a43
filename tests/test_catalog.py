import multiprocessing
import os

import pytest

from dessinjulia import catalog
from dessinjulia.catalog import (CatalogConfig, CatalogRecord, Store,
                                 analyze_tree, big_passport_trees, report,
                                 run_catalog, run_series, series_tree)
from dessinjulia.dynamics import classify
from dessinjulia.fractal import FractalError
from dessinjulia.plane_tree import (Passport, parse_plane_code, plane_code,
                                    trees_with_passport)
from dessinjulia.shabat import (_same_vertex_set, identify_tree,
                                solve_passport, solve_tree)


def _cfg(**kw):
    return CatalogConfig(rng_seed=0, **kw)


def _whites(sol):
    return [(w.location, w.multiplicity) for w in sol.white]


# ------------------------------------------------------------ single record


def test_analyze_tree_full_record():
    tree = parse_plane_code("W(())()()()")
    rec = analyze_tree(tree, _cfg())
    assert rec.tree_code == plane_code(tree)
    assert rec.passport == "4,1|2,1,1,1"
    assert rec.sz is not None and rec.sz_absent_reason is None
    assert rec.classification.taxonomy == "g3"
    assert "solve" in rec.timings and "classify" in rec.timings
    rec.validate()


def test_analyze_symmetric_tree():
    rec = analyze_tree(parse_plane_code("W(()()())"), _cfg())
    assert rec.sz is None
    assert rec.sz_absent_reason == "symmetric"
    assert rec.classification is None
    rec.validate()


def test_analyze_degenerate_tree():
    rec = analyze_tree(parse_plane_code("W(((((())(())))))"), _cfg())
    assert rec.sz_absent_reason == "degenerate"
    rec.validate()


def test_record_json_round_trip():
    rec = analyze_tree(parse_plane_code("W((()))()()"), _cfg())
    back = CatalogRecord.from_json(rec.to_json())
    assert back.tree_code == rec.tree_code
    assert back.classification.taxonomy == rec.classification.taxonomy
    assert back.sz.poly.coeffs == rec.sz.poly.coeffs


def test_record_validation_errors():
    rec = analyze_tree(parse_plane_code("W((()))()()"), _cfg())
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
                       _cfg(with_images=True), store)
    assert set(rec.artifacts) == {"escape", "basins"}
    for rel in rec.artifacts.values():
        path = os.path.join(store.root, rel)
        assert open(path, "rb").read(2) == b"P6"


def test_analyze_with_dims(tmp_path):
    # the box estimate, then the pressure one, each with its confidence; the
    # values are not pinned, so that tuning an estimator does not break this
    rec = analyze_tree(parse_plane_code("W((()))"), _cfg(with_dims=True))
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
    rec = analyze_tree(parse_plane_code("W((()))"), _cfg(with_dims=True))
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
    rec = analyze_tree(parse_plane_code("W((()))"), _cfg(with_dims=True))
    assert rec.dims == []
    assert rec.error == "box_dim: box refused; pressure_dim: pressure refused"
    rec.validate()


# -------------------------------------------------------------------- store


def test_store_round_trip_gives_back_the_saved_record(tmp_path):
    # a solved record with dims loads back equal to the one saved, its
    # vertex clusters included
    rec = analyze_tree(parse_plane_code("W((())())()(())"),
                       _cfg(with_dims=True))
    assert rec.sz is not None and len(rec.dims) == 2
    store = Store(str(tmp_path / "store"))
    store.save(rec)
    assert store.load(rec.tree_code) == rec


def test_store_save_load_and_resume(tmp_path):
    root = str(tmp_path / "store")
    seen = []
    run_catalog(4, _cfg(), root, progress=lambda r: seen.append(r.tree_code))
    assert len(seen) == 3
    # second run reuses every record
    seen2 = []
    out = run_catalog(4, _cfg(), root, progress=lambda r: seen2.append(r))
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
    run_catalog(3, _cfg(), root)
    seen = []
    run_catalog(3, _cfg(force=True), root,
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
    assert len(run_catalog(2, _cfg(), root, jobs=8)) == 1
    assert len(run_catalog(4, _cfg(), root, jobs=8)) == 3
    assert len(run_catalog(4, _cfg(), root, jobs=8)) == 3  # all resumed
    assert len(run_catalog(5, _cfg(), root, jobs=2)) == 6
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
    recs = run_series(2, range(3, 5), _cfg(), root)
    assert [r.classification.taxonomy for r in recs] == ["g2", "g2"]
    assert all(r.classification.fate_plus.period == 2 for r in recs)


# ----------------------------------------------------------------- fixtures


def test_big_passport_fixture():
    data = big_passport_trees()
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
    entry = next(e for e in big_passport_trees()["trees"]
                 if e["separation"] == 1)
    tree = parse_plane_code(entry["code"])
    sz = solve_tree(tree)
    assert plane_code(identify_tree(sz.poly)) == plane_code(tree)
    assert classify(sz.poly).taxonomy == entry["taxonomy"] == "g4"


def test_big_passport_recomputed():
    # every fixture taxonomy recomputed, and the passport solve returns one
    # solution per fixture tree, in the order of their plane codes
    data = big_passport_trees()
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
    run_catalog(4, _cfg(), root)
    text = report(root)
    assert text.startswith("| tree | passport |")
    assert "`W((()()))`" in text and "| g3 | c(10) | c(10) |" in text
    assert "no SZ form (symmetric)" in text


def test_report_names_escaping_and_fixed_point_fates(tmp_path):
    root = str(tmp_path / "store")
    store = Store(root)
    for code in ("W(((())()))", "B(((((()()()))))())"):
        store.save(analyze_tree(parse_plane_code(code), _cfg()))
    text = report(root)
    assert "| `W(((())()))` | 3,1,1|2,2,1 | g4 | inf | inf |" in text
    assert "| `B(((((()()()))))())` | 4,3,2|2,2,1,1,1,1,1 | s1 | c(4) | p |" \
        in text
