import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from harperlab import (RationalFrequency, band_edges, build_phi, chambers, coefficient_sheet,
                       corner_bands, gaps, ids, recursion_sheets, symmetrized_sheet)
from harperlab.cli import main
from harperlab.spectrum import _fmt


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_three_bands(capsys):
    code, out, _ = run(["spectrum", "--alpha", "1/3", "--beta", "0.5"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith(("#", "p,"))]
    assert len(rows) == 3
    assert out.splitlines()[0].startswith("# harperlab=")


def test_gaps_csv_columns(capsys):
    code, out, _ = run(["gaps", "--alpha", "2/5", "--beta", "0.5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "p,q,beta,gap_lo,gap_hi,ids_num,ids_den,m,n,width"
    assert len(lines) == 2 + 4


def test_franel_table_value(capsys):
    code, out, _ = run(["franel", "--nmax", "3"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[0] == "3"
    assert abs(float(last[1]) - 0.0138888888888888) <= 1e-12


def test_farey_matches_totient_count(capsys):
    code, out, _ = run(["farey", "--order", "6"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 12


def test_label_hall_sequence(capsys):
    code, out, _ = run(["label", "--alpha", "2/5"], capsys)
    assert code == 0
    ns = [int(ln.split(",")[-1]) for ln in out.strip().splitlines()[2:]]
    assert ns == [-2, 1, -1, 2]


@pytest.mark.parametrize("alpha", ["1/6", "5/8"])
def test_label_and_gaps_agree_on_ids_and_label(alpha, capsys):
    _, out, _ = run(["label", "--alpha", alpha], capsys)
    labels = [ln.split(",")[1:] for ln in out.splitlines()[2:]]
    _, out, _ = run(["gaps", "--alpha", alpha, "--beta", "1", "--min-width=-1"], capsys)
    rows = [ln.split(",")[5:9] for ln in out.splitlines()[2:]]
    assert len(labels) == len(rows) == int(alpha.split("/")[1]) - 1
    assert labels == rows


def test_lyapunov_all_methods(capsys):
    code, out, _ = run(["lyapunov", "--alpha", "1/3", "--beta", "0.5",
                        "--z", "3.5", "--method", "all"], capsys)
    assert code == 0
    vals = {ln.split(",")[0]: float(ln.split(",")[-1])
            for ln in out.strip().splitlines()[2:]}
    assert set(vals) == {"transfer", "thouless", "trace"}
    assert abs(vals["transfer"] - vals["trace"]) <= 1e-3


def test_lyapunov_all_methods_deep_in_gap(capsys):
    # 21/34, beta 0.5: z sits deep in gap 13, where |P(z)| is about 9e3
    code, out, _ = run(["lyapunov", "--alpha", "21/34", "--beta", "0.5",
                        "--z", "-0.8142785695731551", "--method", "all"], capsys)
    assert code == 0
    vals = {ln.split(",")[0]: float(ln.split(",")[-1])
            for ln in out.strip().splitlines()[2:]}
    assert set(vals) == {"transfer", "thouless", "trace"}
    assert max(vals.values()) - min(vals.values()) <= 1e-10
    assert abs(vals["trace"] - vals["transfer"]) <= 1e-12


def test_lyapunov_thouless_at_band_edges(capsys):
    # the top of band 3 of 5/8 at beta 0.5 prints a finite value; the one
    # float edge of a band of zero float width of 1/128 at beta 1 exits 2
    top, flat = corner_bands(RationalFrequency(5, 8), 0.5).bands[2][1], -1.1102801363588721
    assert (flat, flat) in corner_bands(RationalFrequency(1, 128), 1.0).bands
    argv = ["lyapunov", "--method", "thouless", "--alpha"]
    code, out, _ = run(argv + ["5/8", "--beta", "0.5", "--z", repr(top)], capsys)
    assert code == 0 and np.isfinite(float(out.strip().splitlines()[-1].split(",")[-1]))
    code, out, err = run(argv + ["1/128", "--beta", "1", "--z", repr(flat)], capsys)
    assert code == 2 and f"error: E={flat!r} lies on a band of zero float width" in err


def test_gradient_json(capsys):
    code, out, _ = run(["gradient", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 3 and "config_hash" in doc
    assert abs(doc["dL_dbeta"] - 2 * doc["g1"]) <= 1e-15


def test_critical_scan_rows(capsys):
    code, out, _ = run(["critical-scan", "--alpha", "1/3", "--beta", "0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert set(row) >= {"p", "q", "beta", "m", "n", "s_star", "g1_abs",
                            "hessian_det", "hessian_d2z", "hessian_d2beta"}
        assert row["margin_ok"]


def test_sigma_check(capsys):
    code, out, _ = run(["sigma-check", "--alpha", "2/5", "--beta", "0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"]


def test_coeffs_and_decay(tmp_path, capsys):
    out_file = tmp_path / "sheet.csv"
    code, _, _ = run(["coeffs", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2",
                      "--window", "4", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert "kind=c" in text and len(text.splitlines()) == 1 + 1 + 1 + 81
    code, out, _ = run(["decay", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2",
                        "--window", "8", "--kind", "d", "--offsets=-1,0,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "d"
    assert all(row["rho"] <= 0.55 for row in doc["rows"])


def test_track_output(capsys):
    code, out, _ = run(["track", "--alpha", "5/8", "--m", "0", "--n", "1",
                        "--beta-grid", "0.2:1.0:5"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 5
    assert all(ln.endswith(",1") for ln in rows)


def test_track_empty_grid_exits_two(capsys):
    code, out, err = run(["track", "--alpha", "5/8", "--m", "0", "--n", "1",
                          "--beta-grid", "0.1:1:0"], capsys)
    assert code == 2
    assert err == "error: beta grid must not be empty\n"
    assert out == ""


@pytest.mark.parametrize("alpha", ["0/1", "1/1"])
def test_hessian_scalar_frequency_at_zero_coupling(alpha, capsys):
    code, out, err = run(["hessian", "--alpha", alpha, "--beta", "0", "--z", "5"], capsys)
    assert code == 0 and err == ""
    assert abs(json.loads(out)["d2z"] + 5.0 / 21.0 ** 1.5) <= 1e-14


def test_qmax_zero_and_count_without_dataset_exit_two(tmp_path, capsys):
    ds_file = tmp_path / "fly.csv"
    code, out, err = run(["butterfly", "--qmax", "0", "--beta", "1", "--out", str(ds_file)],
                         capsys)
    assert code == 2
    assert err == "error: order must be >= 1\n"
    assert out == "" and not ds_file.exists()
    with pytest.raises(SystemExit) as exc:
        main(["count-components", "--hall", "1"])
    assert exc.value.code == 2
    assert "--dataset" in capsys.readouterr().err


def test_irrational_expansion(capsys):
    code, out, _ = run(["spectrum", "--irrational", "golden", "--depth", "6",
                        "--beta", "0.5"], capsys)
    assert code == 0
    qs = {ln.split(",")[1] for ln in out.strip().splitlines()[2:]}
    assert "8" in qs  # convergent 5/8 appears at depth 6


def test_butterfly_render_count_components(tmp_path, capsys):
    ds_file = tmp_path / "fly.csv"
    code, _, _ = run(["butterfly", "--qmax", "5", "--beta", "1.0",
                      "--out", str(ds_file)], capsys)
    assert code == 0
    code, _, _ = run(["render", "--dataset", str(ds_file), "--format", "svg",
                      "--out", str(tmp_path / "fly.svg")], capsys)
    assert code == 0
    assert (tmp_path / "fly.svg").read_text().startswith("<svg")
    code, out, _ = run(["count-components", "--dataset", str(ds_file),
                        "--hall", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == 2 and doc["observed"] <= 2


def test_butterfly_partial_failure_exit_status(tmp_path, capsys, monkeypatch):
    from test_butterfly import fail_one_denominator
    from harperlab.cli import EXIT_PARTIAL
    fail_one_denominator(monkeypatch, 5)
    ds_file = tmp_path / "fly.csv"
    code, _, err = run(["butterfly", "--qmax", "5", "--beta", "1.0", "--workers", "1",
                        "--out", str(ds_file)], capsys)
    assert code == EXIT_PARTIAL and code not in (0, 1, 2)
    assert err == "4 of 11 fractions failed\n"
    lines = ds_file.read_text().splitlines()
    for p in (1, 2, 3, 4):
        assert f"# error,{p},5,ChambersError: synthetic" in lines


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_butterfly_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    ds_file = tmp_path / "fly.csv"
    code, out, err = run(["butterfly", "--qmax", "3", "--beta", "1.0", "--workers", workers,
                          "--out", str(ds_file)], capsys)
    assert code == 2 and out == ""
    assert err == "error: workers must be >= 1\n"
    assert not ds_file.exists()


def test_cli_import_loads_neither_scipy_nor_the_process_pool():
    """A fresh `import harperlab.cli` loads numpy and the standard library
    only: the root step is in-house and the pool is imported where a batch
    forks."""
    import harperlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(harperlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import harperlab.cli, sys; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
    top = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "harperlab" in top and "numpy" in top
    assert not {"scipy", "concurrent", "multiprocessing"} & set(top)


def test_identical_config_identical_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run(["gaps", "--alpha", "5/8", "--beta", "0.7",
                          "--out", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_recursion_and_hessian_commands(tmp_path, capsys):
    for kind in ("R+", "R-"):
        code, out, _ = run(["coeffs", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2",
                            "--window", "4", "--kind", kind], capsys)
        assert code == 0
        assert out.count("kind=R+") == (kind == "R+") and out.count("kind=R-") == (kind == "R-")
    code, out, _ = run(["hessian", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d2z"] < 0 and abs(doc["det"] - (doc["d2z"] * doc["d2beta"]
                                                - doc["dzdbeta"] ** 2)) < 1e-12


def test_ids_command_monotone(capsys):
    code, out, _ = run(["ids", "--alpha", "1/3", "--beta", "0.5",
                        "--energies=-4:4:17"], capsys)
    assert code == 0
    vals = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[2:]]
    assert vals == sorted(vals)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_ids_command_equals_per_point_calls(capsys):
    code, out, _ = run(["ids", "--alpha", "5/8", "--beta", "0.5", "--energies=-4:4:33"], capsys)
    assert code == 0
    bands = band_edges(chambers(RationalFrequency(5, 8), 0.5, verify=False))
    assert out.strip().splitlines()[2:] == [f"{_fmt(e)},{_fmt(ids(bands, float(e)))}"
                                            for e in np.linspace(-4.0, 4.0, 33)]


def test_selftest_exit_zero(capsys):
    assert main(["selftest"]) == 0


def _boom(nmax):
    raise ValueError("boom")


@pytest.mark.parametrize("franel_table, line", [
    (_boom, "[FAIL] number theory (boom)"),
    (lambda nmax: [SimpleNamespace(total=0)], "[FAIL] number theory"),
], ids=["message", "bare-assert"])
def test_selftest_reports_a_failing_check_and_exits_one(capsys, monkeypatch, franel_table, line):
    """A failing check prints its message in parentheses, or none if it is empty."""
    monkeypatch.setattr("harperlab.cli.franel_table", franel_table)
    code, out, _ = run(["selftest"], capsys)
    assert code == 1
    assert out.splitlines() == ["[PASS] rotation algebra identities",
                                "[PASS] spectra, duality, labels",
                                "[PASS] lyapunov three methods", "[PASS] coefficient sheets",
                                line, "[PASS] butterfly batch", "5/6 checks passed"]


@pytest.mark.parametrize("argv", [
    ["render", "--dataset", "DIR", "--out", "x.svg"],
    ["farey", "--order", "3", "--out", "DIR"],
    ["butterfly", "--qmax", "3", "--beta", "1", "--checkpoint", "DIR", "--out", "x.csv"],
], ids=["render-dataset", "farey-out", "butterfly-checkpoint"])
def test_a_directory_for_a_file_exits_two(tmp_path, capsys, monkeypatch, argv):
    """Every file-system refusal, not only a missing file, is one error line and status 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Is a directory" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR"]


def test_an_empty_alpha_is_refused_as_an_unparsable_frequency(capsys):
    code, out, err = run(["spectrum", "--alpha", "", "--beta", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err == "error: cannot parse frequency ''; expected 'p/q'\n"


def test_output_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HARPERLAB_OUT_DIR", str(tmp_path / "artifacts"))
    code, _, _ = run(["farey", "--order", "3", "--out", "f.csv"], capsys)
    assert code == 0
    assert (tmp_path / "artifacts" / "f.csv").exists()


def test_validation_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "1/3", "--irrational", "golden", "--beta", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "1/3", "--beta", "0.5", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["butterfly", "--qmax", "3", "--beta", "nan"],
    ["critical-scan", "--alpha", "5/8", "--beta", "0.5", "--min-width", "nan"],
    ["ids", "--alpha", "5/8", "--beta", "0.5", "--energies", "nan"],
    ["ids", "--alpha", "5/8", "--beta", "0.5", "--energies=-inf:4:5"],
    ["lyapunov", "--alpha", "5/8", "--beta", "0.5", "--method", "thouless", "--z", "nan"],
    ["lyapunov", "--alpha", "5/8", "--beta", "0.5", "--method", "trace", "--z", "1+infj"],
    ["spectrum", "--alpha", "5/8", "--beta", "inf"],
    ["track", "--alpha", "5/8", "--m", "0", "--n", "1", "--beta-grid", "0.1,nan"],
    ["coeffs", "--alpha", "5/8", "--beta", "0.5", "--z", "4", "--window", "-1"],
    ["decay", "--alpha", "5/8", "--beta", "0.5", "--z", "4", "--window", "-2", "--kind", "d"],
])
def test_non_finite_numbers_and_negative_windows_exit_two(tmp_path, capsys, argv):
    """Refused with status 2, by the parser or the command, before any file is written."""
    out_file = tmp_path / "out.txt"
    try:
        code = main(argv + ["--out", str(out_file)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and not out_file.exists()
    assert "not a finite number" in err or "invalid finite value" in err or \
        "window must be >= 0" in err


def test_gradient_beyond_float_range_exits_two(capsys):
    # |P(5)| at 377/610, beta = 1 exceeds float64: refused, never printed as NaN
    code, out, err = run(["gradient", "--alpha", "377/610", "--beta", "1", "--z", "5"], capsys)
    assert code == 2
    assert "error:" in err and "q=610" in err
    assert "NaN" not in out


def test_transfer_at_q_610_answers_where_its_squared_trace_overflowed(capsys):
    # P(3.2) at 377/610, beta = 1, is 3.4e232: the trace squared would overflow,
    # the square-free multiplier does not.  The strip there is wide, so one phase
    # answers; arccosh(P/2)/q with P from an 80-digit monodromy at the float 3.2
    # is 0.877739333135149432
    code, out, err = run(["lyapunov", "--alpha", "377/610", "--beta", "1", "--z", "3.2",
                          "--method", "transfer"], capsys)
    assert code == 0 and not err
    assert out.strip().splitlines()[-1] == "transfer,1,3.2,0.87773933313514574"
    value = float(out.strip().splitlines()[-1].split(",")[-1])
    assert abs(value - 0.877739333135149432) <= 5e-15 * 0.877739333135149432


def test_transfer_beyond_float_range_exits_two(capsys):
    # P at 377/610, beta = 1, z = 4.5 leaves float64: exit 2, no NaN
    code, out, err = run(["lyapunov", "--alpha", "377/610", "--beta", "1", "--z", "4.5",
                          "--method", "transfer"], capsys)
    assert code == 2
    assert "error:" in err and "q=610, E=4.5" in err
    assert "nan" not in out.lower()


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_coeffs_next_to_a_gap_edge_exits_two_and_states_the_strip(tmp_path, capsys, side):
    """5e-7 from an edge of the widest gap of 5/8, beta 0.5, the sheet's grid
    would need more than 512 nodes a side: refused, and no file written."""
    widest = max((g for g in gaps(RationalFrequency(5, 8), 0.5) if g.is_open),
                 key=lambda g: g.width)
    z = widest.lo + 5e-7 if side == "lo" else widest.hi - 5e-7
    out_file = tmp_path / "sheet.csv"
    code, _, err = run(["coeffs", "--alpha", "5/8", "--beta", "0.5", "--z", repr(z),
                        "--window", "6", "--out", str(out_file)], capsys)
    assert code == 2 and not out_file.exists()
    assert "too close to the spectrum: its phase strip" in err
    assert "needs more than 512 nodes" in err


def test_domain_errors_exit_two(capsys):
    code, _, err = run(["gradient", "--alpha", "1/3", "--beta", "0.5", "--z", "0.1"], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(["spectrum", "--alpha", "7/21", "--beta", "0.5"], capsys)
    assert code == 2  # unreduced fraction rejected


def test_critical_scan_keeps_the_gaps_that_scan(capsys):
    # gap 30 of 34/55 at beta 0.5 has a torus margin below P's float error
    from harperlab.cli import EXIT_PARTIAL
    code, out, err = run(["critical-scan", "--alpha", "34/55", "--beta", "0.5"], capsys)
    assert code == EXIT_PARTIAL
    doc = json.loads(out)
    assert len(doc["rows"]) == 49
    assert [(e["p"], e["q"], e["j"]) for e in doc["errors"]] == [(34, 55, 30)]
    assert "lies in the spectrum" in doc["errors"][0]["error"]
    assert err == "1 of 50 gaps failed\n"


def test_config_hash_ignores_out(tmp_path, capsys):
    docs = []
    for name in ("a.json", "b.json"):
        code, _, _ = run(["gradient", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2",
                          "--out", str(tmp_path / name)], capsys)
        assert code == 0
        docs.append(json.loads((tmp_path / name).read_text()))
    assert docs[0]["config_hash"] == docs[1]["config_hash"]
    assert len(docs[0]["config_hash"]) == 16
    code, out, _ = run(["gradient", "--alpha", "1/3", "--beta", "0.6", "--z", "4.2"], capsys)
    assert json.loads(out)["config_hash"] != docs[0]["config_hash"]


@pytest.mark.parametrize("argv, digest", [
    (["spectrum", "--alpha", "1/3", "--beta", "0.5"], "a9a68ae08849e419"),
    (["gradient", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2"], "dfb5dd9e80e9af41"),
    (["label", "--irrational", "golden", "--depth", "5"], "7b8853b480124655"),
], ids=["spectrum", "gradient", "label"])
def test_config_hashes_are_pinned(capsys, argv, digest):
    """The hash covers the name and value of every parsed option and the tool
    version: declaring an option in another place must not move it."""
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert f"config_hash={digest}\n" in out or f'"config_hash": "{digest}"' in out


def test_count_components_hashes_the_dataset_not_its_path(tmp_path, capsys):
    def count_hash(path, hall=1):
        code, out, _ = run(["count-components", "--dataset", str(path), "--hall", str(hall)],
                           capsys)
        assert code == 0
        return json.loads(out)["config_hash"]

    a, b = tmp_path / "a.csv", tmp_path / "copy" / "b.csv"
    assert run(["butterfly", "--qmax", "5", "--beta", "1", "--out", str(a)], capsys)[0] == 0
    b.parent.mkdir()
    b.write_bytes(a.read_bytes())
    beta_one = count_hash(a)
    assert count_hash(b) == beta_one and count_hash(a, hall=2) != beta_one
    # another dataset written over the same path
    assert run(["butterfly", "--qmax", "5", "--beta", "0.5", "--out", str(a)], capsys)[0] == 0
    assert count_hash(a) not in (beta_one, count_hash(b))


def test_render_and_count_make_no_eigensolve(tmp_path, capsys, monkeypatch):
    import numpy as np
    ds_file = tmp_path / "fly.csv"
    assert run(["butterfly", "--qmax", "6", "--beta", "1.0", "--out", str(ds_file)],
               capsys)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for fmt in ("svg", "ppm"):
        code, _, _ = run(["render", "--dataset", str(ds_file), "--format", fmt,
                          "--out", str(tmp_path / f"fly.{fmt}")], capsys)
        assert code == 0
    code, out, _ = run(["count-components", "--dataset", str(ds_file), "--hall", "1"], capsys)
    assert code == 0 and json.loads(out)["predicted"] == 2


@pytest.mark.parametrize("fmt", ["svg", "ppm"])
@pytest.mark.parametrize("size", [["--width", "0"], ["--height", "0"], ["--width", "-5"]])
def test_render_refuses_image_sizes_below_one(tmp_path, capsys, fmt, size):
    ds_file = tmp_path / "fly.csv"
    assert run(["butterfly", "--qmax", "3", "--beta", "1.0", "--out", str(ds_file)],
               capsys)[0] == 0
    out = tmp_path / f"fly.{fmt}"
    code, _, err = run(["render", "--dataset", str(ds_file), "--format", fmt, *size,
                        "--out", str(out)], capsys)
    assert code == 2 and "side below 1 pixel" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "count-components"])
def test_bad_dataset_files_exit_two(tmp_path, capsys, command):
    ds_file = tmp_path / "fly.csv"
    assert run(["butterfly", "--qmax", "4", "--beta", "1.0", "--out", str(ds_file)],
               capsys)[0] == 0
    text = ds_file.read_text()
    v1 = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("# bands,"))
    extra = (["--out", str(tmp_path / "x.svg")] if command == "render" else ["--hall", "1"])
    for content, match in ((v1.replace("# version=2,", "# version=1,"), "harperlab butterfly"),
                           ("", "header")):
        ds_file.write_text(content)
        code, _, err = run([command, "--dataset", str(ds_file), *extra], capsys)
        assert code == 2
        assert err.startswith("error:") and match in err


def test_coeffs_and_decay_of_phi(capsys):
    """`--kind phi` prints, after the run header, the sheet `build_phi` makes
    from the coefficient sheet and the symmetrized recursion sheet."""
    freq, argv = RationalFrequency(5, 8), ["--alpha", "5/8", "--beta", "0.5", "--z", "4",
                                           "--window", "4", "--kind", "phi"]
    code, out, _ = run(["coeffs", *argv], capsys)
    want = build_phi(coefficient_sheet(freq, 0.5, 4.0, window=4),
                     symmetrized_sheet(*recursion_sheets(freq, 0.5, 4.0, window=4)))
    assert code == 0
    assert out.startswith("# harperlab=") and out.split("\n", 1)[1] == want.to_csv()
    code, out, _ = run(["decay", *argv], capsys)
    assert code == 0 and len(json.loads(out)["rows"]) == 10


def test_custom_continued_fraction_runs_its_convergents(capsys):
    """[0; 2, 1, 3] expands to 0/1, 1/2, 1/3 and 4/11, whose band lines are
    those of the four `--alpha` runs; without `--cf-terms` the run exits 2."""
    def band_lines(argv):
        code, out, _ = run(["spectrum", *argv, "--beta", "0.5"], capsys)
        assert code == 0
        return out.splitlines()[2:]

    want = [ln for a in ("0/1", "1/2", "1/3", "4/11") for ln in band_lines(["--alpha", a])]
    assert band_lines(["--irrational", "custom-cf", "--cf-terms", "0,2,1,3"]) == want
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--irrational", "custom-cf", "--beta", "0.5"])
    assert exc.value.code == 2
    assert "--cf-terms" in capsys.readouterr().err


def test_critical_scan_skips_the_closed_central_gap(capsys):
    """3/8 has seven gaps; the central one, n = 4, is closed and not scanned."""
    code, out, _ = run(["critical-scan", "--alpha", "3/8", "--beta", "0.7"], capsys)
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == 6
    assert all(row["n"] != 4 for row in rows)


@pytest.mark.parametrize("argv", [["lyapunov", "--z", "0.5"], ["critical-scan"],
                                  ["coeffs", "--z", "4.2"], ["ids", "--energies=-4:4:3"]],
                         ids=["lyapunov", "critical-scan", "coeffs", "ids"])
def test_a_coupling_power_beyond_the_float_range_exits_two(argv, capsys):
    """At 987/1597, beta 2, c2 = -2 beta^q overflows: one error line naming q and beta."""
    code, out, err = run(argv + ["--alpha", "987/1597", "--beta", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: -2 beta^q leaves the float64 range at q=1597, beta=2.0\n"


def test_sigma_check_at_a_singular_twist_exits_two(capsys):
    """At 1/3, theta1 = pi/3, beta 1, -beta is an eigenvalue of u v (cond 5.6e15)."""
    code, out, err = run(["sigma-check", "--alpha", "1/3", "--beta", "1",
                          "--theta1", "1.0471975511965976"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: u*v + beta nearly singular at beta=1.0 (cond=")
