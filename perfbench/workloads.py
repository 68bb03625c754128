"""The three workloads: their operations, their inputs and their correctness checks.

Operations call harperlab through module attributes looked up at call time,
so a traced pass sees the wrapped entry points.  Inputs come from the seed;
the program only ever receives the generated inputs.

* butterfly -- the CLI pipeline (batch, checkpoint, serialize, parse,
  render, component count) at order 60; no P' or torus kernel runs.
* critical  -- few large q: band edges once per fraction, then a critical
  point and Hessian per open gap; P' root finding and torus averages.
* resolvent -- dense phase-grid eigensolves and inverses, the IDS model
  and the coefficient recursion; no root finding and no I/O.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import time

import numpy as np

import calibration
from harperlab import cli, coefficients, lyapunov, spectrum
from harperlab.rationals import RationalFrequency

# Accuracy floors: what each method reaches today with room for roundoff
# reshuffles.  An error below its floor reads as the floor itself.
FLOORS = {
    "band_edge_err": 1e-12,       # two eigensolvers of a matrix of norm <= 6
    "critical_g0_resid": 1e-4,    # brentq at xtol 1e-13 times |dg0/dz| in the narrowest gaps
    "lyapunov_spread": 1e-5,      # the 64-node piecewise-linear IDS of the Thouless route
    "sheet_rel_resid": 1e-13,     # dense inverses and a long-double column march
}

BUTTERFLY_Q, BUTTERFLY_BETA = 60, 1.0
CRITICAL_BETAS = (0.5, 1.0)
CRITICAL_FRACS = ((8, 13), (13, 21), (21, 34), (34, 55), (55, 89))
RESOLVENT_BETA = 0.5
RESOLVENT_FRACS = ((8, 13), (21, 34), (55, 89))
RESOLVENT_COMPLEX_Z = 0.3 + 0.2j
COEFF_FRACS = ((5, 8), (8, 13))
COEFF_Z, COEFF_WINDOW = 4.0, 24


class Pass:
    """Runs and times the operations of one pass; failures are counted, not raised."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []  # [label, group, seconds, ok, error, start, end, request]
        self.request = None  # ops made for one user request; None: each op is its own
        self.cal = []  # [start, seconds] of calibration.kernel runs, timed around the ops
        self.checks = []  # [name, ok, detail]
        self.accuracy = {}
        self.rows = [0, 0]  # dataset rows attempted, failed
        if tracer is None:  # in a traced pass the kernel would land in the spans' self time
            signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate(force=True))

    def calibrate(self, force=False):
        if force or not self.cal or time.perf_counter() - self.cal[-1][0] >= calibration.EVERY_S:
            self.cal.append([time.perf_counter(), calibration.kernel()])

    def op(self, label, group, fn, *args, pool=False, **kwargs):
        """Time fn(*args, **kwargs) as one operation and return its result, or None.

        pool=True marks an operation that runs worker processes: it is
        neither traced nor sampled inside, where the kernel would compete
        with the workers.
        """
        self.calibrate()
        tr = self.tracer
        if tr is not None:
            tr.op = label
            idx = tr.begin(f"op.{group}")
            tr.active = not pool
        sample = tr is None and not pool
        n_cal = len(self.cal)
        t0 = time.perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, calibration.EVERY_S, calibration.EVERY_S)
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # one failing operation must not void the pass
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        if tr is not None:
            tr.active = True
            tr.end(idx)
            tr.op = None
        dt = t1 - t0 - sum(c[1] for c in self.cal[n_cal:])
        self.ops.append([label, group, dt, err is None, err, t0, t1, self.request or label])
        return out

    def skip(self, label, group, why):
        """An operation whose input failed counts as attempted and failed."""
        now = time.perf_counter()
        self.ops.append([label, group, 0.0, False, f"skipped: {why}", now, now,
                         self.request or label])

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)])


def oracle_edges(p, q, beta):
    """Sorted 2q band edges from real corner matrices, sharing no code with spectrum.

    In the gauge that puts the whole flux on the closing bond, the corners
    where both cosines of the determinant are +1 or both -1 are real
    symmetric matrices with closing-bond sign +1 or -1 and diagonal phase
    0 or pi/q.
    """
    out = []
    for theta, sign in ((0.0, 1.0), (math.pi / q, -1.0)):
        h = np.diag(2.0 * np.cos(theta + 2.0 * math.pi * ((np.arange(q) * p) % q) / q))
        for j in range(q):
            i = (j - 1) % q
            w = beta * (sign if j == 0 else 1.0)
            h[j, i] += w
            h[i, j] += w
        out.extend(np.linalg.eigvalsh(h))
    return sorted(out)


def _gap_edge_err(p, q, beta, gap_rows):
    """Max deviation of (j, lo, hi) gap rows from the oracle's edges 2j-1 and 2j."""
    edges = oracle_edges(p, q, beta)
    return max((max(abs(lo - edges[2 * j - 1]), abs(hi - edges[2 * j]))
                for j, lo, hi in gap_rows), default=0.0)


# --------------------------------------------------------------------------- butterfly

def read_dataset(path):
    """Gap rows and error rows of a dataset file, read without harperlab's parser."""
    gap_rows, errors = {}, {}
    cols = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# error,"):
                _, p, q, msg = line.split(",", 3)
                errors[(int(p), int(q))] = msg
            elif line.startswith("#") or not line:
                continue
            elif cols is None:
                cols = line.split(",")
            else:
                rec = dict(zip(cols, line.split(",")))
                key = (int(rec["p"]), int(rec["q"]))
                gap_rows.setdefault(key, []).append(rec)
    return gap_rows, errors


def _check_butterfly_file(run, path, rng):
    gap_rows, errors = read_dataset(path)
    expected = {(p, q) for q in range(1, BUTTERFLY_Q + 1) for p in range(q + 1)
                if math.gcd(p, q) == 1}
    # q = 1 has no gaps, so its two fractions leave no row in the file
    present = set(gap_rows) | set(errors)
    run.check("butterfly.rows", present == {f for f in expected if f[1] >= 2},
              f"{len(present) + 2} of {len(expected)} fractions")
    bad = []
    good = sorted(f for f in gap_rows if f not in errors)
    for p, q in good:
        recs = gap_rows[(p, q)]
        js = [int(r["ids_num"]) * q // int(r["ids_den"]) for r in recs]
        bounds = [float(x) for r in recs for x in (r["gap_lo"], r["gap_hi"])]
        ok = (js == sorted(set(js)) and all(1 <= j < q for j in js)
              and all(int(r["m"]) * q + int(r["n"]) * p == j for r, j in zip(recs, js))
              and all(int(r["ids_num"]) * q == j * int(r["ids_den"]) for r, j in zip(recs, js))
              and all(b - a >= -1e-12 for a, b in zip(bounds, bounds[1:])))
        if not ok:
            bad.append(f"{p}/{q}")
    run.check("butterfly.bands_and_labels", not bad, ",".join(bad[:5]))
    sample = rng.sample(good, min(32, len(good)))
    run.accuracy["band_edge_err"] = max([run.accuracy.get("band_edge_err", 0.0)] + [
        _gap_edge_err(p, q, BUTTERFLY_BETA,
                      [(int(r["ids_num"]) * q // int(r["ids_den"]), float(r["gap_lo"]),
                        float(r["gap_hi"])) for r in gap_rows[(p, q)]])
        for p, q in sample])
    return len(expected), len(errors)


def butterfly(run, seed, workdir):
    rng = random.Random(seed)
    a, b = os.path.join(workdir, "a.csv"), os.path.join(workdir, "b.csv")
    ck, svg = os.path.join(workdir, "ck.json"), os.path.join(workdir, "x.svg")
    cc = os.path.join(workdir, "cc.json")
    common = ["--qmax", str(BUTTERFLY_Q), "--beta", str(BUTTERFLY_BETA)]

    def cli_step(argv):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    run.op("butterfly", "butterfly_s", cli_step,
           ["butterfly", *common, "--workers", "1", "--checkpoint", ck, "--out", a])
    # pool workers cannot report spans, so a traced pass records this step as one span
    run.op("butterfly_w2", "butterfly_w2_s", cli_step,
           ["butterfly", *common, "--workers", "2", "--out", b], pool=True)
    run.op("render", "render_s", cli_step,
           ["render", "--dataset", a, "--format", "svg", "--out", svg])
    run.op("count", "count_s", cli_step,
           ["count-components", "--dataset", a, "--hall", "1", "--out", cc])
    for path in (a, b):
        if not os.path.exists(path):
            run.check("butterfly.dataset_written", False, os.path.basename(path))
            continue
        rows, failed = _check_butterfly_file(run, path, rng)
        run.rows[0] += rows
        run.rows[1] += failed
    if os.path.exists(a) and os.path.exists(b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            run.check("butterfly.workers_identical", fa.read() == fb.read())
    if os.path.exists(svg):
        with open(svg) as fh:
            text = fh.read()
        run.check("render.svg", text.startswith("<svg") and text.rstrip().endswith("</svg>"))
    if os.path.exists(cc):
        with open(cc) as fh:
            rep = json.load(fh)
        run.check("count.report", isinstance(rep["observed"], int) and rep["observed"] >= 0,
                  repr(rep.get("observed")))


# --------------------------------------------------------------------------- critical

def critical(run, seed, workdir):
    rng = random.Random(seed)
    combos = [(beta, RationalFrequency(p, q)) for beta in CRITICAL_BETAS
              for p, q in CRITICAL_FRACS]
    rng.shuffle(combos)
    gap_ops = []
    edge_err = 0.0
    for beta, freq in combos:
        res = run.op(f"spectrum:{freq}@{beta}", "spectrum_s", _critical_prep, freq, beta)
        if res is None:
            continue
        ch, recs = res
        edge_err = max(edge_err, _gap_edge_err(freq.p, freq.q, beta,
                                                [(g.j, g.lo, g.hi) for g in recs]))
        gap_ops.extend((beta, freq, ch, g) for g in recs if g.is_open)
    run.accuracy["band_edge_err"] = edge_err
    rng.shuffle(gap_ops)
    inside, g0 = [], 0.0
    for beta, freq, ch, g in gap_ops:
        res = run.op(f"gap:{freq}@{beta}#{g.j}", f"gap@{beta}", _critical_gap, freq, beta, ch, g)
        if res is None:
            continue
        cp = res
        g0 = max(g0, abs(cp.g0_residual))
        if not g.lo < cp.s_star < g.hi:
            inside.append(f"{freq}@{beta}#{g.j}")
    run.accuracy["critical_g0_resid"] = g0
    run.check("critical.s_star_inside_gap", not inside, ",".join(inside[:5]))


def _critical_prep(freq, beta):
    ch = spectrum.chambers(freq, beta, verify=False)
    return ch, spectrum.gaps(freq, beta)


def _critical_gap(freq, beta, ch, gap):
    cp = lyapunov.critical_scan(freq, beta, gap, ch=ch)
    lyapunov.hessian(freq, beta, cp.s_star, ch=ch, edge_distance=0.0)
    return cp


# --------------------------------------------------------------------------- resolvent

def _center_poly(p, q, beta, energy):
    """P(E) = det(E - H) at the phases where both cosines vanish, by the oracle's gauge."""
    h = np.diag(2.0 * np.cos(math.pi / (2 * q) + 2.0 * math.pi * ((np.arange(q) * p) % q) / q))
    h = h.astype(complex)
    for j in range(q):
        i = (j - 1) % q
        w = beta * (1j if j == 0 else 1.0)
        h[j, i] += w
        h[i, j] += np.conj(w)
    return float(np.prod(energy - np.linalg.eigvalsh(h)))


def resolvent_energies(p, q, beta, rng):
    """A seeded deep point of one of the three widest gaps, and hull top + 0.5.

    Deep means |P(E)| >= 4, twice the cosine amplitude: the cost of every
    Lyapunov route is then the same for any seed, so the seed varies the
    inputs without varying the work.
    """
    edges = oracle_edges(p, q, beta)
    gaps = sorted(((edges[2 * j] - edges[2 * j - 1], j) for j in range(1, q)), reverse=True)
    for _ in range(1000):
        _, j = rng.choice(gaps[:3])
        lo, hi = edges[2 * j - 1], edges[2 * j]
        energy = lo + rng.uniform(0.2, 0.8) * (hi - lo)
        if abs(_center_poly(p, q, beta, energy)) >= 4.0:
            return energy, edges[-1] + 0.5
    raise RuntimeError(f"no deep gap point found at {p}/{q}")


def _thouless(freq, beta, energy):
    bands = spectrum.band_edges(spectrum.chambers(freq, beta, verify=False))
    return lyapunov.lyapunov_thouless(bands, energy)


def _log_potential(freq, beta, energy):
    return lyapunov.log_potential(spectrum.chambers(freq, beta, verify=False), energy)


def resolvent(run, seed, workdir):
    rng = random.Random(seed)
    beta = RESOLVENT_BETA
    spread = 0.0
    for p, q in RESOLVENT_FRACS:
        freq = RationalFrequency(p, q)
        for energy in resolvent_energies(p, q, beta, rng):
            run.request = f"lyapunov:{freq}:{energy!r}"
            # cold IDS model for every Thouless call, as each CLI invocation pays it
            cache_clear = getattr(getattr(lyapunov, "_ids_model", None), "cache_clear", None)
            if cache_clear is not None:
                cache_clear()
            vals = [
                run.op(f"transfer:{freq}", "lyapunov_s", lyapunov.lyapunov_transfer,
                       freq, beta, energy),
                run.op(f"thouless:{freq}", "lyapunov_s", _thouless, freq, beta, energy),
                run.op(f"trace:{freq}", "lyapunov_s", lyapunov.lyapunov_trace,
                       freq, beta, energy),
                run.op(f"log_potential:{freq}", "lyapunov_s", _log_potential,
                       freq, beta, energy),
            ]
            vals = [float(getattr(v, "value", v)) for v in vals if v is not None]
            if len(vals) == 4:
                spread = max(spread, max(vals) - min(vals))
            run.check("resolvent.lyapunov_finite", all(math.isfinite(v) and v > 0 for v in vals),
                      f"{freq} E={energy!r}")
    freq = RationalFrequency(*RESOLVENT_FRACS[0])
    run.request = f"lyapunov:{freq}:{RESOLVENT_COMPLEX_Z!r}"
    for fn in (lyapunov.lyapunov_transfer, lyapunov.lyapunov_trace):
        run.op(f"complex:{fn.__name__}:{freq}", "lyapunov_s", fn, freq, beta, RESOLVENT_COMPLEX_Z)
    run.accuracy["lyapunov_spread"] = spread
    run.request = None

    rel = 0.0
    for p, q in COEFF_FRACS:
        run.request = f"coeffs:{p}/{q}"
        rel = max(rel, _coefficient_ops(run, RationalFrequency(p, q), beta))
    run.request = None
    run.accuracy["sheet_rel_resid"] = rel


def _coefficient_ops(run, freq, beta):
    z, w, g = COEFF_Z, COEFF_WINDOW, "coeffs_s"
    c = run.op(f"sheet:{freq}", g, coefficients.coefficient_sheet, freq, beta, z, window=w)
    pair = run.op(f"recursion:{freq}", g, coefficients.recursion_sheets, freq, beta, z, window=w)
    d = phi = None
    if pair is None:
        run.skip(f"symmetrized:{freq}", g, "recursion failed")
    else:
        d = run.op(f"symmetrized:{freq}", g, coefficients.symmetrized_sheet, *pair)
    if c is None or d is None:
        run.skip(f"phi:{freq}", g, "c or d sheet missing")
    else:
        phi = run.op(f"phi:{freq}", g, coefficients.build_phi, c, d)
    rel = 0.0
    for kind, sheet in (("c", c), ("d", d), ("phi", phi)):
        if sheet is None:
            run.skip(f"residual:{kind}:{freq}", g, "sheet missing")
            continue
        res = run.op(f"residual:{kind}:{freq}", g, coefficients.system_residual, sheet, beta, z)
        if res is None:
            continue
        rel = max(rel, res.max_residual / float(np.max(np.abs(sheet.values))))
        if kind in ("c", "d"):
            run.check(f"resolvent.origin_inhomogeneity.{kind}",
                      abs(res.origin_inhomogeneity - 1.0) <= 1e-9,
                      f"{freq}: {res.origin_inhomogeneity!r}")
    if d is not None:
        run.check("resolvent.d10_half", abs(d.value(1, 0) - 0.5) <= 1e-15,
                  f"{freq}: {d.value(1, 0)!r}")
        for slope in (1, -1):
            for offset in range(-2, 3):
                run.op(f"decay:{slope}:{offset}:{freq}", g, coefficients.decay_rate,
                       d, slope, offset)
    else:
        for i in range(10):
            run.skip(f"decay:{i}:{freq}", g, "d sheet missing")
    return rel


WORKLOADS = {"butterfly": butterfly, "critical": critical, "resolvent": resolvent}
