import importlib.util
import io
import json
import shutil
from pathlib import Path

from dessinjulia.catalog import CatalogConfig, run_catalog
from dessinjulia.cli import run_cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_diff.py"
_spec = importlib.util.spec_from_file_location("record_diff", _TOOL)
record_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_diff)


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
