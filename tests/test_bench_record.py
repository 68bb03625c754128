import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

MACHINE = {"cpu": "test cpu", "nproc": 2}


def _run(path, workload, seed, wall, machine=MACHINE):
    path.write_text(
        f"# workload={workload} seed={seed} passes=3 untraced + 0 traced\n"
        f"# machine {json.dumps(machine)}\n"
        f"# unnormalized wall_s = 9.0, host slowdown per pass = 1.5, 1.6\n"
        f"# wall_s = {wall}\n"
        f"# ok_frac = 1\n"
        f"# failed op: ValueError: x = 1\n"
        '{"correct": true}\n')
    return str(path)


def test_bench_record_takes_medians_per_workload_and_role(tmp_path):
    parent = [_run(tmp_path / f"p{i}.txt", "resolvent", i, w) for i, w in enumerate((3.0, 1.0, 2.0))]
    change = [_run(tmp_path / "c.txt", "resolvent", 7, 0.5),
              _run(tmp_path / "b.txt", "butterfly", 1, 2.5)]
    out = tmp_path / "BENCH_3.json"
    assert bench_record.main(["--pr", "3", "--out", str(out), "--parent", *parent,
                              "--change", *change]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == 3 and doc["machine"] == MACHINE
    assert doc["workloads"]["resolvent"]["parent"] == {
        "seeds": [0, 1, 2], "metrics": {"ok_frac": 1.0, "wall_s": 2.0}}
    assert doc["workloads"]["resolvent"]["change"]["metrics"]["wall_s"] == 0.5
    assert doc["workloads"]["butterfly"] == {
        "change": {"seeds": [1], "metrics": {"ok_frac": 1.0, "wall_s": 2.5}}}


def test_bench_record_refuses_mixed_machines_and_foreign_files(tmp_path):
    a = _run(tmp_path / "a.txt", "critical", 1, 0.2)
    b = _run(tmp_path / "b.txt", "critical", 1, 0.2, machine={"cpu": "other", "nproc": 2})
    with pytest.raises(ValueError, match="differs"):
        bench_record.record(11, {"parent": [a], "change": [b]})
    junk = tmp_path / "junk.txt"
    junk.write_text("not a perfbench run\n")
    assert bench_record.main(["--pr", "11", "--out", str(tmp_path / "x.json"),
                              "--parent", a, "--change", str(junk)]) == 2
    assert not (tmp_path / "x.json").exists()
