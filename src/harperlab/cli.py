"""Command-line surface: every subcommand writes deterministic artifacts.

A resolved run configuration is hashed and the hash embedded in every
artifact, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .rationals import RationalFrequency, convergents, named_continued_fraction
from .rotation import build_rep, build_uv, hamiltonian, lam_phase, max_norm, monomial, sigma_images, rho_images
from .spectrum import (GAP_CSV_HEADER, _config_hash, _fmt, band_edges, chambers,
                       corner_bands, dual_check, gap_csv, gap_label, gap_table, gaps, ids,
                       track_gap)
from .lyapunov import (critical_scan, gradient, hessian, lyapunov_thouless,
                       lyapunov_trace, lyapunov_transfer)
from .coefficients import (SHEET_KINDS, build_phi, coefficient_sheet, decay_rate,
                           recursion_sheets, symmetrized_sheet, system_residual,
                           vanishing_probe)
from .numbertheory import component_count, farey, franel_table, phi_cumulative
from .butterfly import compute_butterfly, parse_dataset, render, serialize_dataset

# the artifact was written, but some fractions (`butterfly`) or gaps
# (`critical-scan`) failed and are listed in it as errors
EXIT_PARTIAL = 3


def finite(text: str) -> float:
    """The type of every float option and grid entry: a finite float (else exit status 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="harperlab",
                                 description="Spectral toolkit for the Harper operator "
                                             "at rational flux")
    ap.add_argument("--version", action="version", version=f"harperlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # the options several subcommands share, each declared once as a parent parser
    freq = argparse.ArgumentParser(add_help=False)
    g = freq.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", help="rational frequency p/q")
    g.add_argument("--irrational", choices=("golden", "sqrt2", "e-based", "custom-cf"),
                   help="irrational target, expanded to convergents")
    freq.add_argument("--cf-terms", help="comma-separated terms for --irrational custom-cf")
    freq.add_argument("--depth", type=int, default=8,
                      help="continued-fraction depth for --irrational")
    beta = argparse.ArgumentParser(add_help=False)
    beta.add_argument("--beta", type=finite, required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default: stdout)")

    sub.add_parser("spectrum", parents=[freq, beta, out])

    p = sub.add_parser("gaps", parents=[freq, beta, out])
    p.add_argument("--min-width", type=finite, default=1e-9)

    p = sub.add_parser("ids", parents=[freq, beta, out])
    p.add_argument("--energies", required=True,
                   help="comma-separated energies, or lo:hi:n for a grid")

    p = sub.add_parser("label", parents=[freq, out])
    p.add_argument("--j", type=int, default=None, help="gap index (default: all)")

    p = sub.add_parser("lyapunov", parents=[freq, beta, out])
    p.add_argument("--z", type=str, required=True, help="energy (complex ok for trace)")
    p.add_argument("--method", choices=("transfer", "thouless", "trace", "all"),
                   default="all")

    for name in ("gradient", "hessian"):
        p = sub.add_parser(name, parents=[freq, beta, out])
        p.add_argument("--z", type=finite, required=True)

    p = sub.add_parser("critical-scan", parents=[freq, beta, out])
    p.add_argument("--min-width", type=finite, default=1e-9)
    p.add_argument("--margin-threshold", type=finite, default=1e-8)

    p = sub.add_parser("coeffs", parents=[freq, beta, out])
    p.add_argument("--z", type=finite, required=True)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--kind", choices=SHEET_KINDS, default="c")

    p = sub.add_parser("decay", parents=[freq, beta, out])
    p.add_argument("--z", type=finite, required=True)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--kind", choices=SHEET_KINDS, default="d")
    p.add_argument("--offsets", default="-2,-1,0,1,2")

    p = sub.add_parser("sigma-check", parents=[freq, beta, out])
    p.add_argument("--theta1", type=finite, default=0.0)
    p.add_argument("--theta2", type=finite, default=0.0)
    p.add_argument("--tol", type=finite, default=1e-10)

    p = sub.add_parser("butterfly", parents=[beta])
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--min-width", type=finite, default=1e-9)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render")
    p.add_argument("--dataset", required=True, help="butterfly dataset file")
    p.add_argument("--format", choices=("svg", "ppm"), default="svg")
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--no-gap-fill", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("track", parents=[freq, out])
    p.add_argument("--beta-grid", required=True, help="lo:hi:n or comma list")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("franel", parents=[out])
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("farey", parents=[out])
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("count-components", parents=[out])
    p.add_argument("--dataset", required=True, help="butterfly dataset file")
    p.add_argument("--hall", type=int, required=True)

    sub.add_parser("selftest")
    return ap


def _parse_grid(text):
    if ":" in text:
        lo, hi, n = text.split(":")
        return list(np.linspace(finite(lo), finite(hi), int(n)))
    return [finite(x) for x in text.split(",")]


def _resolve_freqs(args, parser):
    """The run's fractions: the one --alpha, or the distinct convergents of --irrational."""
    if args.alpha is not None:
        return [RationalFrequency.from_string(args.alpha)]
    if args.irrational == "custom-cf":
        if not args.cf_terms:
            parser.error("--irrational custom-cf requires --cf-terms")
        terms = [int(t) for t in args.cf_terms.split(",")]
    else:
        terms = named_continued_fraction(args.irrational, args.depth)
    out = []
    seen = set()
    for f in convergents(terms, args.depth):
        if f.q not in seen:
            seen.add(f.q)
            out.append(f)
    return out


def _out_path(path: str) -> str:
    """Resolve an output path; HARPERLAB_OUT_DIR redirects relative paths."""
    base = os.environ.get("HARPERLAB_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _emit(args, text):
    if args.out:
        with open(_out_path(args.out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, header, columns, rows) -> int:
    """Write a CSV artifact: the run's header line, the column line and one line per row."""
    _emit(args, "\n".join([header, columns, *rows]) + "\n")
    return 0


def _write_json(args, run_hash, **fields) -> int:
    """Write a JSON artifact: the run's config hash, then the fields in order."""
    _emit(args, json.dumps({"config_hash": run_hash, **fields}, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser) -> int:
    cmd = args.command
    # the run's configuration: every option except where the output goes
    run_hash = _config_hash({**{k: v for k, v in vars(args).items() if k != "out"},
                             "tool_version": __version__})
    header = f"# harperlab={__version__},config_hash={run_hash}"
    if hasattr(args, "alpha"):
        freqs = _resolve_freqs(args, parser)
        freq = freqs[-1]  # a single-frequency command runs at the last convergent

    if cmd == "spectrum":
        rows = []
        for freq in freqs:
            edges = corner_bands(freq, args.beta).edges.reshape(-1, 2).tolist()
            for i, (lo, hi) in enumerate(edges, start=1):
                rows.append(f"{freq.p},{freq.q},{_fmt(args.beta)},{i},{_fmt(lo)},{_fmt(hi)}")
        return _write_csv(args, header, "p,q,beta,band,lo,hi", rows)

    if cmd == "gaps":
        text = [f"{header}\n{GAP_CSV_HEADER}\n"]
        for freq in freqs:
            bands = corner_bands(freq, args.beta)
            text.append(gap_csv(bands, gap_table(bands, args.min_width), {})[1])
        _emit(args, "".join(text))
        return 0

    if cmd == "ids":
        bands = corner_bands(freq, args.beta)
        rows = []
        grid = _parse_grid(args.energies)
        for e, n in zip(grid, ids(bands, np.asarray(grid, dtype=float))):
            rows.append(f"{_fmt(e)},{_fmt(n)}")
        return _write_csv(args, header, "E,N", rows)

    if cmd == "label":
        rows = []
        indices = [args.j] if args.j is not None else list(range(1, freq.q))
        for j in indices:
            m, n = gap_label(j, freq)
            g = math.gcd(j, freq.q)  # the IDS j/q in lowest terms, as `gaps` prints it
            rows.append(f"{j},{j // g},{freq.q // g},{m},{n}")
        return _write_csv(args, header, "j,ids_num,ids_den,m,n", rows)

    if cmd == "lyapunov":
        z = complex(args.z)
        if not np.isfinite(z):
            raise ValueError(f"--z {args.z!r} is not a finite number")
        zr = z.real if z.imag == 0 else z
        rows = []
        if args.method in ("transfer", "all"):
            rows.append(lyapunov_transfer(freq, args.beta, zr))
        if args.method in ("thouless", "all"):
            rows.append(lyapunov_thouless(corner_bands(freq, args.beta), zr))
        if args.method in ("trace", "all"):
            rows.append(lyapunov_trace(freq, args.beta, zr))
        lines = []
        for r in rows:
            lines.append(f"{r.method},{_fmt(r.beta)},{r.z},{_fmt(r.value)}")
        return _write_csv(args, header, "method,beta,z,value", lines)

    if cmd == "gradient":
        g = gradient(freq, args.beta, args.z)
        return _write_json(args, run_hash, p=freq.p, q=freq.q, beta=args.beta, z=args.z,
                           g0=g.g0, g1=g.g1, dL_dbeta=2 * g.g1)

    if cmd == "hessian":
        h = hessian(freq, args.beta, args.z)
        return _write_json(args, run_hash, p=freq.p, q=freq.q, beta=args.beta, z=args.z,
                           d2z=h.d2z, dzdbeta=h.dzdbeta, d2beta=h.d2beta, det=h.determinant)

    if cmd == "critical-scan":
        rows, errors = [], []
        for freq in freqs:
            ch = chambers(freq, args.beta, verify=False)
            for g in gaps(freq, args.beta, min_width=args.min_width):
                if not g.is_open:
                    continue
                try:
                    cp = critical_scan(freq, args.beta, g, ch=ch)
                    hs = hessian(freq, args.beta, cp.s_star, ch=ch, edge_distance=0.0)
                except (ValueError, ArithmeticError, RuntimeError) as exc:
                    errors.append({"p": freq.p, "q": freq.q, "j": g.j,
                                   "error": f"{type(exc).__name__}: {exc}"})
                    continue
                rows.append({"p": freq.p, "q": freq.q, "beta": args.beta,
                             "m": g.label[0], "n": g.label[1],
                             "s_star": cp.s_star, "g1_abs": cp.g1_abs,
                             "hessian_det": hs.determinant, "hessian_d2z": hs.d2z,
                             "hessian_d2beta": hs.d2beta,
                             "margin_ok": cp.margin_ok(args.margin_threshold)})
        _write_json(args, run_hash, rows=rows, errors=errors)
        if errors:
            print(f"{len(errors)} of {len(rows) + len(errors)} gaps failed", file=sys.stderr)
            return EXIT_PARTIAL
        return 0

    if cmd == "coeffs":
        sheet = _make_sheet(freq, args.beta, args.z, args.window, args.kind)
        _emit(args, f"{header}\n" + sheet.to_csv())
        return 0

    if cmd == "decay":
        sheet = _make_sheet(freq, args.beta, args.z, args.window, args.kind)
        rows = []
        for slope in (1, -1):
            for k in (int(t) for t in args.offsets.split(",")):
                est = decay_rate(sheet, slope, k)
                rows.append({"slope": slope, "offset": k, "rho": est.rho,
                             "fit_residual": est.fit_residual,
                             "n_points": est.n_points, "all_zero": est.all_zero})
        return _write_json(args, run_hash, kind=sheet.kind, rows=rows)

    if cmd == "sigma-check":
        report = sigma_check_report(freq, args.beta, args.theta1, args.theta2)
        report["config_hash"] = run_hash
        report["pass"] = max(v for k, v in report.items()
                             if k.startswith("residual")) <= args.tol
        _emit(args, json.dumps(report, indent=2) + "\n")
        return 0

    if cmd == "butterfly":
        ds = compute_butterfly(args.qmax, args.beta, workers=args.workers,
                               min_width=args.min_width,
                               checkpoint_path=args.checkpoint)
        with open(_out_path(args.out), "w") as fh:
            fh.write(serialize_dataset(ds))
        failed = sum(1 for row in ds.rows if row.error)
        if failed:
            print(f"{failed} of {len(ds.rows)} fractions failed", file=sys.stderr)
            return EXIT_PARTIAL
        return 0

    if cmd == "render":
        with open(args.dataset) as fh:
            ds = parse_dataset(fh.read())
        render(ds, _out_path(args.out), size=(args.width, args.height),
               fmt=args.format, gap_fill=not args.no_gap_fill)
        return 0

    if cmd == "track":
        tr = track_gap((args.m, args.n), freq, _parse_grid(args.beta_grid))
        rows = []
        for b, w, o in zip(tr.beta_grid, tr.widths, tr.open_flags):
            rows.append(f"{_fmt(b)},{_fmt(w)},{int(o)}")
        return _write_csv(args, header, "beta,width,open", rows)

    if cmd == "franel":
        rows = []
        for row in franel_table(args.nmax):
            rows.append(f"{row.n},{_fmt(row.total_float)},{_fmt(row.n_times_total)}")
        return _write_csv(args, header, "n,sum,n_times_sum", rows)

    if cmd == "farey":
        seq = farey(args.order)
        rows = []
        for f in seq.fractions:
            rows.append(f"{f.numerator},{f.denominator}")
        return _write_csv(args, header, "numerator,denominator", rows)

    if cmd == "count-components":
        with open(args.dataset) as fh:
            ds = parse_dataset(fh.read())
        cc = component_count(ds, args.hall)
        # the dataset's own digest, not its path: a copy hashes alike, a new file anew
        run_hash = _config_hash({"dataset": ds.provenance["config"], "hall": args.hall,
                                 "tool_version": __version__})
        return _write_json(args, run_hash, k=cc.hall, Q=cc.order, beta=cc.beta,
                           predicted=cc.predicted, observed=cc.observed,
                           component_members=[list(map(list, m)) for m in cc.members])

    return run_selftest()  # "selftest", the one command left: argparse accepts no other


def _make_sheet(freq, beta, z, window, kind):
    if kind == "c":
        return coefficient_sheet(freq, beta, z, window=window)
    plus, minus = recursion_sheets(freq, beta, z, window=window)
    if kind == "R+":
        return plus
    if kind == "R-":
        return minus
    d = symmetrized_sheet(plus, minus)
    if kind == "d":
        return d
    return build_phi(coefficient_sheet(freq, beta, z, window=window), d)


def sigma_check_report(freq, beta, theta1, theta2) -> dict:
    """Residuals of the ladder-pair and symmetry identities at one phase point."""
    rep = build_rep(freq, theta1, theta2)
    lam = lam_phase(freq)
    U, V = build_uv(rep, beta)
    Ua, Va = U.conj().T, V.conj().T
    eye = np.eye(freq.q)
    gamma = beta + 1.0 / beta
    res = {
        "p": freq.p, "q": freq.q, "beta": beta,
        "residual_commutation": max_norm(rep.u @ rep.v - np.exp(2j * np.pi * freq.alpha) * rep.v @ rep.u),
        "residual_ladder_twist": max_norm(U @ V - lam ** -2 * V @ U),
        "residual_ladder_twist_star": max_norm(Ua @ V - lam ** 2 * V @ Ua),
        "residual_ladder_product": max_norm(Ua @ U - (lam * V + np.conj(lam) * Va + gamma * eye)),
        "residual_hamiltonian_split": max_norm(np.sqrt(beta) * (U + Ua) - hamiltonian(rep, beta)),
    }
    ru, rv = rho_images(rep, beta)
    res["residual_twist_automorphism"] = max_norm(ru + beta * rv - (rep.u.conj().T + beta * rep.v))
    if 0 < beta < 1:
        su, sv = sigma_images(rep, beta)
        res["residual_symmetry_fixes_ladder"] = max_norm(beta ** -0.5 * su + beta ** 0.5 * sv - U)
        res["residual_symmetry_conjugates_twist"] = max_norm(np.conj(lam) * su @ sv.conj().T - Va)
    return res


def run_selftest() -> int:
    """Quick pass over the headline invariants; prints one line per check as it ends."""
    def algebra():
        for q in (2, 3, 5, 8):
            freq = RationalFrequency(1 if q == 2 else q - 3 or 1, q)
            rep = build_rep(freq, 0.37, 1.21)
            report = sigma_check_report(freq, 0.5, 0.37, 1.21)
            worst = max(v for k, v in report.items() if k.startswith("residual"))
            assert worst < 1e-10, f"algebra residual {worst:.2e} at {freq}"
            w = monomial(rep, 2, -3)
            assert max_norm(w @ w.conj().T - np.eye(q)) < 1e-12

    def spectra():
        for (p, q, beta) in ((1, 3, 0.5), (2, 5, 1.0), (5, 8, 0.25)):
            freq = RationalFrequency(p, q)
            ch = chambers(freq, beta)  # verify=True checks phase independence
            bands = band_edges(ch)
            assert bands.edges.shape == (2 * q,)
            rep = dual_check(freq, beta)
            assert rep.hausdorff < 1e-8, f"duality {rep.hausdorff:.2e}"
            for g in gaps(freq, beta):
                assert (g.label[1] * p - g.j) % q == 0

    def lyap():
        freq = RationalFrequency(1, 3)
        bands = corner_bands(freq, 0.5)
        for z in (3.2, -3.2, 4.0):
            lt = lyapunov_transfer(freq, 0.5, z).value
            lh = lyapunov_thouless(bands, z).value
            lr = lyapunov_trace(freq, 0.5, z).value
            assert abs(lt - lh) < 1e-10 and abs(lh - lr) < 1e-10

    def coeffs():
        freq = RationalFrequency(1, 3)
        sheet = coefficient_sheet(freq, 0.5, 4.2, window=4)
        r = system_residual(sheet, 0.5, 4.2)
        assert r.max_residual < 1e-8, f"system residual {r.max_residual:.2e}"
        assert abs(r.origin_inhomogeneity - 1.0) < 1e-8
        plus, minus = recursion_sheets(freq, 0.5, 4.2, window=8)
        d = symmetrized_sheet(plus, minus)
        assert d.value(1, 0) == 0.5
        probe = vanishing_probe(sheet)
        assert not probe.both_vanish

    def numbers():
        assert phi_cumulative(6) == 12
        seq = farey(40)
        assert len(seq) == phi_cumulative(40)
        assert all(d == 1 for d in seq.neighbor_determinants())
        from fractions import Fraction as Fr
        assert franel_table(3)[-1].total == Fr(2, 144)

    def batch():
        ds = compute_butterfly(5, 1.0)
        assert len(ds.rows) == phi_cumulative(5) + 1
        back = parse_dataset(serialize_dataset(ds))  # the file path: bands in, gaps derived
        assert back == ds, "dataset file does not round-trip"
        cc = component_count(back, 1)
        assert cc.observed <= cc.predicted

    checks = (("rotation algebra identities", algebra), ("spectra, duality, labels", spectra),
              ("lyapunov three methods", lyap), ("coefficient sheets", coeffs),
              ("number theory", numbers), ("butterfly batch", batch))
    passed = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            print(f"[FAIL] {name}" + (f" ({exc})" if str(exc) else ""))
        else:
            print(f"[PASS] {name}")
            passed += 1
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
