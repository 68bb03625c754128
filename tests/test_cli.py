import json

import pytest

from harperlab.cli import main


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
    assert max(vals.values()) - min(vals.values()) <= 1e-5
    assert abs(vals["trace"] - vals["transfer"]) <= 1e-12


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
    from test_butterfly import fail_one_fraction
    from harperlab.cli import EXIT_PARTIAL
    fail_one_fraction(monkeypatch, 2, 5)
    ds_file = tmp_path / "fly.csv"
    code, _, err = run(["butterfly", "--qmax", "5", "--beta", "1.0", "--workers", "1",
                        "--out", str(ds_file)], capsys)
    assert code == EXIT_PARTIAL and code not in (0, 1, 2)
    assert err == "1 of 11 fractions failed\n"
    assert "# error,2,5,ChambersError: synthetic" in ds_file.read_text().splitlines()


def test_identical_config_identical_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run(["gaps", "--alpha", "5/8", "--beta", "0.7",
                          "--out", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_recursion_and_hessian_commands(tmp_path, capsys):
    code, out, _ = run(["recursion", "--alpha", "1/3", "--beta", "0.5", "--z", "4.2",
                        "--window", "4", "--side", "both"], capsys)
    assert code == 0
    assert out.count("kind=R+") == 1 and out.count("kind=R-") == 1
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


def test_selftest_fast_exit_zero(capsys):
    assert main(["selftest", "--fast"]) == 0


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


def test_gradient_beyond_float_range_exits_two(capsys):
    # |P(5)| at 377/610, beta = 1 exceeds float64: refused, never printed as NaN
    code, out, err = run(["gradient", "--alpha", "377/610", "--beta", "1", "--z", "5"], capsys)
    assert code == 2
    assert "error:" in err and "q=610" in err
    assert "NaN" not in out


def test_transfer_beyond_float_range_exits_two(capsys):
    # the monodromy at 377/610, beta = 1, z = 4.5 leaves float64: exit 2, no NaN
    code, out, err = run(["lyapunov", "--alpha", "377/610", "--beta", "1", "--z", "4.5",
                          "--method", "transfer"], capsys)
    assert code == 2
    assert "error:" in err and "q=610, E=4.5" in err
    assert "nan" not in out.lower()


def test_domain_errors_exit_two(capsys):
    code, _, err = run(["gradient", "--alpha", "1/3", "--beta", "0.5", "--z", "0.1"], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(["spectrum", "--alpha", "7/21", "--beta", "0.5"], capsys)
    assert code == 2  # unreduced fraction rejected
