import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "coverage_tool", Path(__file__).resolve().parent.parent / "tools" / "coverage.py")
coverage_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(coverage_tool)


def test_coverage_keeps_one_record_per_cell_and_totals_per_beta():
    """The schema on a 2 x 2 grid; the counts are checked for consistency
    with each other, not against expected values."""
    doc = coverage_tool.coverage(["2/3", "3/5"], [0.5, 3.0])
    assert set(doc) == {"fractions", "betas", "cells", "totals", "seconds"}
    assert doc["fractions"] == ["2/3", "3/5"] and doc["betas"] == [0.5, 3.0]
    assert [(c["p"], c["q"], c["beta"]) for c in doc["cells"]] == [
        (2, 3, 0.5), (3, 5, 0.5), (2, 3, 3.0), (3, 5, 3.0)]
    for c in doc["cells"]:
        assert set(c["refused"]) == set(coverage_tool.REASONS)
        assert c["answered"] + sum(c["refused"].values()) == c["open"] > 0
        assert sorted(why for _, why in c["refused_gaps"]) == sorted(
            r for r, n in c["refused"].items() for _ in range(n))
        assert c["other_message"] is None or c["refused"]["other"] > 0
    assert list(doc["totals"]) == ["0.5", "3.0"]
    for beta, row in doc["totals"].items():
        cells = [c for c in doc["cells"] if str(c["beta"]) == beta]
        assert row["open"] == sum(c["open"] for c in cells)
        assert row["answered"] + sum(row[r] for r in coverage_tool.REASONS) == row["open"]


def test_coverage_writes_the_grid_with_its_pr_and_machine(tmp_path, capsys, monkeypatch):
    """The command line writes the grid's document with `pr` and `machine`
    and prints the file name last; the grid is shrunk to one cell."""
    monkeypatch.setattr(coverage_tool, "GOLDEN", ["2/3"])
    monkeypatch.setattr(coverage_tool, "BETAS", [0.5])
    out = tmp_path / "cov.json"
    assert coverage_tool.main(["--pr", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == str(out)
    doc = json.loads(out.read_text())
    assert set(doc) == {"pr", "machine", "fractions", "betas", "cells", "totals", "seconds"}
    assert doc["pr"] == 7 and doc["fractions"] == ["2/3"] and doc["betas"] == [0.5]
    assert set(doc["machine"]) == {"python", "numpy", "cpu", "nproc"}


def test_coverage_reasons_follow_the_refusal_wording():
    assert coverage_tool.reason(ValueError("A=4.0 lies in the spectrum: its phase strip 0")) \
        == "spectrum"
    assert coverage_tool.reason(ArithmeticError("the Hessian leaves the float64 range")) \
        == "float_range"
    assert coverage_tool.reason(ValueError("gap (0, 1) at 2/3: f(a) and f(b) ...")) == "other"
