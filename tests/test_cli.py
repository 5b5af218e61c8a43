import io
import os
import warnings

import pytest

from dessinjulia import catalog as cat
from dessinjulia.cli import pair_representative, run_cli
from dessinjulia.plane_tree import (enumerate_trees, parse_plane_code,
                                    plane_code)


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------- enumerate


def test_enumerate_counts_and_format():
    code, text = run(["enumerate", "--edges", "4"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == len(enumerate_trees(4))
    for line in lines:
        tree_code, passport, tags = line.split("\t")
        assert plane_code(parse_plane_code(tree_code)) == tree_code
        assert "|" in passport


def test_enumerate_all_colorings():
    _, text = run(["enumerate", "--edges", "4", "--all-colorings"])
    assert len(text.strip().splitlines()) == \
        len(enumerate_trees(4, dedup_color_swap=False))


def test_enumerate_edge_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--edges", "13"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -------------------------------------------------------------------- solve


def test_solve_tree_with_color_swap_note():
    code, text = run(["solve", "--tree", "W(()())()"])
    assert code == 0
    assert "seed:" not in text
    assert "note: colors swapped to pair representative" in text
    # 2(2z+1)^3 (2z-3)/27 + 1: constant term 7/9
    assert "p(z) = 0.777777777778" in text
    assert "-1.18518518519" in text
    assert "residual:" in text


def test_solve_passport():
    code, text = run(["solve", "--passport", "3,1,1|3,1,1"])
    assert code == 0
    assert "-- solution 1 of 1" in text
    assert "-3.75" in text  # coefficient -15/4


def test_solve_symmetric_tree_fails(capsys):
    code, _ = run(["solve", "--tree", "W(()()())"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--passport", "2,2|2,2"],
                                  ["--passport", "1|1"],
                                  ["--tree", "W()"]])
def test_solve_unsolvable_input_fails(argv, capsys):
    # not a tree passport, or fewer than 2 edges: an error line, no traceback
    code, _ = run(["solve", *argv])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_bad_code(capsys):
    code, _ = run(["solve", "--tree", "W((("])
    assert code == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["solve"])  # neither --tree nor --passport
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["bogus"])


# ----------------------------------------------------------------- classify


def test_classify_poly():
    code, text = run(["classify", "--poly", "0,5/2,0,-5/2,0,1/2"])
    assert code == 0
    assert text.splitlines()[0] == "s2 connected"
    assert "+1: period 4" in text and "-1: period 4" in text


def test_classify_empty_poly(capsys):
    code, _ = run(["classify", "--poly", ""])
    assert code == 1
    assert "bad polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify", "--poly", "inf,0,1"],
                                  ["render", "--poly", "nan,0,1"]])
def test_non_finite_poly_fails(argv, tmp_path, capsys):
    out = tmp_path / "img.ppm"
    code, _ = run(argv + (["--out", str(out)] if argv[0] == "render" else []))
    assert code == 1
    assert "bad polynomial" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["classify"],
                                  ["render", "--mode", "escape"],
                                  ["render", "--mode", "basins"]])
def test_degree_one_poly_fails(argv, tmp_path, capsys):
    # no escape radius below degree 2: an error line, no traceback
    out = tmp_path / "img.ppm"
    if argv[0] == "render":
        argv = [*argv, "--out", str(out), "--size", "8x8"]
    code, _ = run([*argv, "--poly", "0,1"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: escape radius needs degree >= 2\n"
    assert not out.exists()


def test_an_orbit_past_the_largest_double_escapes(tmp_path):
    # |c| of c = 1.3e308(1 + i) is past the largest double: both critical
    # orbits escape at their first step, and render draws the image
    poly = "1.3e308+1.3e308i,0,1"
    code, text = run(["classify", "--poly", poly])
    assert code == 0
    assert text.splitlines() == ["g4 totally_disconnected",
                                 "+1: escape after 1 iterations",
                                 "-1: escape after 1 iterations"]
    for mode in ("escape", "basins"):
        out = tmp_path / f"{mode}.ppm"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(["render", "--poly", poly, "--mode", mode,
                           "--out", str(out), "--size", "8x8"])
        assert code == 0 and out.read_bytes().startswith(b"P6\n8 8\n")
        assert not [w.message for w in caught]


def test_dim_pressure_with_no_finite_fixed_point(capsys):
    # both fixed points of z^2 + 1.3e308(1 + i) overflow to inf in the root
    # solve; the estimate is refused with an error line
    code, _ = run(["dim", "--poly", "1.3e308+1.3e308i,0,1",
                   "--method", "pressure"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: no repelling fixed point found\n"


def test_classify_tree():
    code, text = run(["classify", "--tree", "W((()))()()()"])
    assert code == 0
    assert "g2 connected" in text
    assert "|multiplier| 0.000000" in text


# ------------------------------------------------------------ render / dim


def test_render_escape(tmp_path):
    out = tmp_path / "img.ppm"
    code, text = run(["render", "--poly=-1,0,1", "--out", str(out),
                      "--size", "32x24", "--max-iter", "60"])
    assert code == 0
    assert f"wrote {out} (32x24)" in text
    assert out.read_bytes().startswith(b"P6\n32 24\n255\n")


def test_render_basins(tmp_path):
    out = tmp_path / "bas.ppm"
    code, _ = run(["render", "--poly=-1,0,1", "--mode", "basins",
                   "--out", str(out), "--size", "20x20",
                   "--trap-radius", "0.05"])
    assert code == 0
    assert out.exists()


def test_render_escape_rejects_escape_bound(tmp_path):
    # the escape render has no bound to honour: a usage error, no image
    out = tmp_path / "img.ppm"
    with pytest.raises(SystemExit) as exc:
        run(["render", "--poly=-1,0,1", "--out", str(out), "--size", "8x8",
             "--escape-bound", "5"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--viewport", "nan,0,1,1"], ["--viewport", "0,inf,1,1"],
    ["--viewport", "0,0,inf,1"], ["--viewport", "0,0,1,nan"],
    ["--mode", "basins", "--trap-radius", "inf"],
    ["--mode", "basins", "--trap-radius", "nan"],
    ["--mode", "basins", "--escape-bound", "inf"],
    ["--mode", "basins", "--escape-bound", "nan"]])
def test_render_rejects_non_finite_values(extra, tmp_path):
    # a usage error, no image of all step-0 pixels
    out = tmp_path / "img.ppm"
    with pytest.raises(SystemExit) as exc:
        run(["render", "--poly=-1,0,1", "--out", str(out), "--size", "8x8"]
            + extra)
    assert exc.value.code == 2
    assert not out.exists()


def test_render_basins_honours_max_iter(tmp_path):
    images = []
    for extra in ([], ["--max-iter", "3"]):
        out = tmp_path / f"bas{len(extra)}.ppm"
        code, _ = run(["render", "--poly=-1,0,1", "--mode", "basins",
                       "--out", str(out), "--size", "20x20",
                       "--trap-radius", "0.05"] + extra)
        assert code == 0
        images.append(out.read_bytes())
    assert images[0] != images[1]


def test_dim_box():
    code, text = run(["dim", "--poly", "0,0,1", "--method", "box",
                      "--points", "60000"])
    assert code == 0
    line = [l for l in text.splitlines() if l.startswith("dimension:")][0]
    val = float(line.split()[1])
    assert abs(val - 1.0) < 0.05


def test_dim_pressure():
    code, text = run(["dim", "--poly", "0,0,1", "--method", "pressure",
                      "--max-period", "8"])
    assert code == 0
    val = float([l for l in text.splitlines()
                 if l.startswith("dimension:")][0].split()[1])
    assert abs(val - 1.0) < 0.02
    assert "drift:" in text


def test_dim_pressure_confidence_reads_the_attractors():
    # the +-1 orbits of z^2 - 0.76 reach a 2-cycle with |multiplier| 0.96;
    # a weakly attracting cycle makes the estimate low, as in the catalog,
    # though its drift alone would pass
    code, text = run(["dim", "--poly=-0.76,0,1", "--method", "pressure"])
    assert code == 0
    assert "(pressure, confidence low)" in text
    drift = [l for l in text.splitlines() if l.startswith("  drift:")][0]
    assert float(drift.split()[1]) <= 0.02


def test_dim_failure_exit_1(capsys):
    code, _ = run(["dim", "--poly", "0,0,1", "--method", "pressure",
                   "--max-period", "30"])
    assert code == 1


# ---------------------------------------------------------- batch commands


def test_catalog_and_report(tmp_path):
    store = str(tmp_path / "store")
    code, text = run(["catalog", "--edges", "3", "--store", store])
    assert code == 0
    assert len([l for l in text.splitlines() if "\t" in l]) == 2
    code, rep = run(["report", "--store", store])
    assert code == 0
    assert rep.startswith("| tree | passport |")


def test_report_refuses_a_missing_store(tmp_path, capsys):
    store = tmp_path / "typo"
    code, text = run(["report", "--store", str(store)])
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("error: ")
    assert not store.exists()
    # an empty store is a store: the table header alone
    cat.Store(str(store))
    code, text = run(["report", "--store", str(store)])
    assert code == 0
    assert text.startswith("| tree | passport |")
    assert len(text.splitlines()) == 2


def _bad_record(tmp_path, text):
    """A store whose record of the 3-edge tree W((())) holds ``text``."""
    store = cat.Store(str(tmp_path / "store"))
    path = store.record_path("W((()))")
    with open(path, "w") as fh:
        fh.write(text)
    return ["--store", store.root], path


def _blocked_store(tmp_path):
    (tmp_path / "F").write_text("")
    return ["--store", str(tmp_path / "F" / "x")], None


@pytest.mark.parametrize("command, setup", [
    (["render", "--poly", "0,0,1", "--size", "8x8", "--out", "nodir/x.ppm"],
     lambda tmp_path: ([], None)),
    (["catalog", "--edges", "3"], _blocked_store),
    (["report"], lambda tmp_path: _bad_record(tmp_path, "{")),
    (["catalog", "--edges", "3"],
     lambda tmp_path: _bad_record(tmp_path, '{"tree_code": "x"}'))],
    ids=["missing-directory", "store-under-a-file", "truncated-record",
         "record-without-sz"])
def test_an_unusable_path_or_record_is_an_error_line(command, setup, tmp_path,
                                                     monkeypatch, capsys):
    # exit 1 with one error line, no traceback; a bad record is named
    monkeypatch.chdir(tmp_path)
    extra, bad_file = setup(tmp_path)
    code, _ = run(command + extra)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    if bad_file:
        assert bad_file in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_catalog_edge_cap_is_a_usage_error(tmp_path, monkeypatch, jobs):
    def no_solving(*args, **kwargs):
        raise AssertionError("analysis started")
    monkeypatch.setattr(cat, "analyze_tree", no_solving)
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        run(["catalog", "--edges", "9", "--jobs", jobs, "--store", str(store)])
    assert exc.value.code == 2
    assert not store.exists()


def test_catalog_images_do_not_depend_on_jobs(tmp_path):
    written = []
    for jobs in ("1", "2"):
        store = tmp_path / f"store{jobs}"
        code, _ = run(["catalog", "--edges", "4", "--images", "--jobs", jobs,
                       "--store", str(store)])
        assert code == 0
        written.append((sorted(os.listdir(store / "images")),
                        [r.artifacts for r in
                         cat.Store(str(store)).all_records()]))
    assert written[0][0]
    assert written[0] == written[1]


def test_series_command(tmp_path):
    store = str(tmp_path / "store")
    code, text = run(["series", "--family", "2", "--min", "3", "--max", "4",
                      "--store", store])
    assert code == 0
    assert sum("g2" in l for l in text.splitlines()) == 2


@pytest.mark.parametrize("lo, hi, flag", [("1", "3", "--min"),
                                          ("5", "4", "--max")])
def test_series_refuses_a_bad_range(lo, hi, flag, tmp_path, capsys):
    store = tmp_path / "store"
    code, _ = run(["series", "--family", "1", "--min", lo, "--max", hi,
                   "--store", str(store)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be")
    assert not store.exists()


# ------------------------------------------------------------ helper logic


def test_pair_representative_idempotent():
    for n in (4, 5):
        for tree in enumerate_trees(n):
            rep, swapped = pair_representative(tree)
            assert not swapped
            assert plane_code(rep) == plane_code(tree)
