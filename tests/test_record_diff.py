import copy
import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

from dessinjulia.catalog import CatalogConfig, run_catalog
from dessinjulia.cli import run_cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_diff.py"
_spec = importlib.util.spec_from_file_location("record_diff", _TOOL)
record_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_diff)
_DIGEST = Path(__file__).resolve().parent / "catalog_digest.json"


def test_record_diff_names_a_moved_pressure_value(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_catalog(3, CatalogConfig(with_dims=True), store_path=str(a))
    shutil.copytree(a, b)
    paths = sorted((b / "records").glob("*.json"))
    for path in paths:  # timings differ between any two runs
        rec = json.loads(path.read_text())
        rec["timings"] = {"solve": -1.0}
        path.write_text(json.dumps(rec))
    assert record_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""

    (path,) = [p for p in paths if json.loads(p.read_text())["dims"]]
    rec = json.loads(path.read_text())
    (i,) = [i for i, d in enumerate(rec["dims"]) if d["method"] == "pressure"]
    rec["dims"][i]["value"] += 1e-6
    path.write_text(json.dumps(rec))
    assert record_diff.main([str(a), str(b)]) == 1
    code, line = capsys.readouterr().out.splitlines()
    assert code == rec["tree_code"]
    assert line.startswith(f"  dims[{i}].value: ")
    assert "abs 1e-06" in line and " rel " in line


def test_record_diff_lists_a_record_in_one_store(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_catalog(3, store_path=str(a))
    shutil.copytree(a, b)
    path = sorted((b / "records").glob("*.json"))[0]
    code = json.loads(path.read_text())["tree_code"]
    path.unlink()
    assert record_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"{code}: only in {a}\n"
    assert record_diff.main([str(a), str(tmp_path / "none")]) == 2


def test_catalog_records_do_not_depend_on_jobs(tmp_path, capsys):
    # with two workers the trees derived from a mirror partner are derived
    # in the parent, so both stores hold the same records
    stores = [tmp_path / f"jobs{jobs}" for jobs in ("1", "2")]
    for jobs, store in zip(("1", "2"), stores):
        assert run_cli(["catalog", "--edges", "7", "--jobs", jobs,
                        "--store", str(store)], out=io.StringIO()) == 0
    assert record_diff.main([str(s) for s in stores]) == 0
    assert capsys.readouterr().out == ""


def test_catalog_matches_the_digest(tmp_path):
    # the 26 records of run_catalog(2..6) with dims against the digest
    # checked in beside this file.  A change that moves an output writes it
    # anew, and lists what moved:
    #   dessinjulia catalog --edges N --dims --store S    for N = 2, ..., 6
    #   python tools/record_diff.py --write-digest tests/catalog_digest.json S
    root = tmp_path / "store"
    for n in range(2, 7):
        run_catalog(n, CatalogConfig(with_dims=True), store_path=str(root))
    out = tmp_path / "digest.json"
    assert record_diff.main(["--write-digest", str(out), str(root)]) == 0
    got = json.loads(out.read_text())
    assert got == record_diff.digest(str(root))
    want = json.loads(_DIGEST.read_text())
    assert len(want) == 26
    assert record_diff.digest_diff(want, got) == []


def _moved(want, field, step):
    """A copy of the digest with one value of the first record that has
    ``field`` moved by ``step``, and that record's tree and path."""
    got = copy.deepcopy(want)
    rec = next(r for r in got if r[field])
    if field == "dims":
        (i,) = [i for i, d in enumerate(rec["dims"])
                if d["method"] == "pressure"]
        rec["dims"][i]["value"] += step
        return got, rec["tree"], f"dims[{i}].value"
    if field == "fates":
        rec["fates"][0]["multiplier"][1] += step
        return got, rec["tree"], "fates[0].multiplier[1]"
    scale = max(abs(complex(*c)) for c in rec["coefficients"])
    rec["coefficients"][0][0] += step * scale
    return got, rec["tree"], "coefficients[0][0]"


@pytest.mark.parametrize("field, inside, outside", [
    ("dims", 5e-10, 1e-6), ("fates", 5e-10, 2e-9),
    ("coefficients", 5e-11, 2e-10)])
def test_digest_tolerances(field, inside, outside):
    want = json.loads(_DIGEST.read_text())
    got, _, _ = _moved(want, field, inside)
    assert record_diff.digest_diff(want, got) == []
    got, code, path = _moved(want, field, outside)
    head, line = record_diff.digest_diff(want, got)
    assert head == code and line.startswith(f"  {path}: ")


def test_digest_is_exact_on_the_outcome():
    # a missing record, a taxonomy and a confidence are never within
    # tolerance
    want = json.loads(_DIGEST.read_text())
    got = copy.deepcopy(want[1:])
    rec = next(r for r in got if r["dims"])
    tax, conf = rec["taxonomy"], rec["dims"][0]["confidence"]
    flip = {"ok": "low", "low": "ok"}[conf]
    rec["taxonomy"], rec["dims"][0]["confidence"] = "undetermined", flip
    assert record_diff.digest_diff(want, got) == [
        f"{want[0]['tree']}: only in want", rec["tree"],
        f'  taxonomy: "{tax}" -> "undetermined"',
        f'  dims[0].confidence: "{conf}" -> "{flip}"']
