"""Acceptance suite: the ten exit criteria, each printing one summary line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 5 is split: the
finite-difference agreements and the energy-diagonal sign hold and pass; the
pointwise two-variable sign structure, asserted exactly as stated, is a
knowingly red test -- the underlying function has genuine saddle points in
the gaps (see notes in the repository root README and the failing message).
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

import harperlab as hl
from harperlab.cli import sigma_check_report
from conftest import center_eigenvalues, oracle_band_sweep, persistence_sweep

F = hl.RationalFrequency
ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "test_artifacts")
RNG = np.random.default_rng(1312)


def _reduced(qmax):
    out = []
    for q in range(1, qmax + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append(F(p, q))
    return out


def _report(n, text):
    print(f"criterion {n:>2} PASS  {text}")


def test_criterion_01_algebraic_identity_suite():
    tol = 1e-10
    worst = 0.0
    for q in range(2, 14):
        p = max(x for x in range(1, q) if math.gcd(x, q) == 1)
        for beta in (0.1, 0.5, 0.9):
            for _ in range(5):
                t1, t2 = RNG.uniform(0, 2 * np.pi, 2)
                rep = sigma_check_report(F(p, q), beta, t1, t2)
                worst = max(worst, max(v for k, v in rep.items()
                                       if k.startswith("residual")))
    assert worst <= tol, f"identity residual {worst:.3e} exceeds {tol}"
    _report(1, f"max identity residual {worst:.2e} over q=2..13, "
               f"three couplings, five phase pairs")


def test_criterion_02_spectrum_oracle_equivalence():
    tol = 1e-6
    worst = 0.0
    for freq in _reduced(13):
        for beta in (0.25, 0.5, 1.0):
            bands = hl.band_edges(hl.chambers(freq, beta, verify=False))
            oracle = oracle_band_sweep(freq.p, freq.q, beta, n=32)
            d = hl.hausdorff_intervals(bands.bands, oracle)
            worst = max(worst, d)
    assert worst <= tol, f"Hausdorff {worst:.3e} exceeds {tol}"
    _report(2, f"max Hausdorff distance to 32x32 eigensolve {worst:.2e} "
               f"across {len(_reduced(13))} fractions x 3 couplings")


def test_criterion_03_gap_labelling_exactness():
    worst_ids = 0.0
    n_records = 0
    for freq in _reduced(13):
        if freq.q == 1:
            continue
        for beta in (0.25, 0.5, 1.0):
            bands = hl.band_edges(hl.chambers(freq, beta, verify=False))
            for g in hl.gaps(freq, beta):
                n_records += 1
                assert (g.hall * freq.p - g.j) % freq.q == 0
                assert g.ids_value == Fraction(g.j, freq.q)
                val = hl.ids(bands, g.midpoint)
                worst_ids = max(worst_ids, abs(val - g.j / freq.q))
    assert worst_ids <= 1e-10
    assert [hl.gap_label(j, F(2, 5))[1] for j in (1, 2, 3, 4)] == [-2, 1, -1, 2]
    _report(3, f"congruence exact on {n_records} gap records; "
               f"max |IDS - j/q| in gaps {worst_ids:.2e}; "
               f"hall sequence at 2/5 is (-2, 1, -1, 2)")


def test_criterion_04_flatness_and_three_method_agreement():
    # on-spectrum flatness at the spectral median of every band (the energy
    # with IDS = (i - 1/2)/q, which represents the band in the approximant)
    worst_flat = 0.0
    for freq in (F(3, 5), F(5, 8), F(8, 13)):
        for beta in (0.25, 0.5, 0.75, 1.0):
            for e in center_eigenvalues(freq, beta):
                worst_flat = max(worst_flat,
                                 abs(hl.lyapunov_transfer(freq, beta, float(e)).value))
    assert worst_flat <= 5e-3, f"on-spectrum |L| reaches {worst_flat:.3e}"

    # off-spectrum three-method cross-validation at 50+ sampled points
    pts = []
    for freq in (F(1, 3), F(2, 5), F(5, 8)):
        for beta in (0.5, 0.8):
            bands = hl.band_edges(hl.chambers(freq, beta, verify=False))
            lo, hi = bands.hull
            for d in (0.1, 0.5, 1.5):
                pts.append((freq, beta, bands, hi + d))
                pts.append((freq, beta, bands, lo - d))
            for g in hl.gaps(freq, beta):
                if g.is_open and g.width >= 0.15:
                    pts.append((freq, beta, bands, g.midpoint))
    assert len(pts) >= 50
    worst_tt = worst_tr = 0.0
    for freq, beta, bands, z in pts:
        t = hl.lyapunov_transfer(freq, beta, z).value
        th = hl.lyapunov_thouless(bands, z).value
        tr = hl.lyapunov_trace(freq, beta, z).value
        worst_tt = max(worst_tt, abs(t - th))
        worst_tr = max(worst_tr, abs(th - tr))
    assert worst_tt <= 1e-10 and worst_tr <= 1e-10
    _report(4, f"band-median |L| <= {worst_flat:.2e}; three-method spread at "
               f"{len(pts)} points: |transfer-thouless| <= {worst_tt:.2e}, "
               f"|thouless-trace| <= {worst_tr:.2e}")


def _fd_gap_points():
    for freq, beta in ((F(1, 3), 0.5), (F(2, 5), 0.7), (F(5, 8), 0.5)):
        for g in hl.gaps(freq, beta):
            if g.is_open and g.width >= 0.3:
                yield freq, beta, g


def test_criterion_05a_gradient_hessian_finite_differences():
    worst_g = worst_h = 0.0
    n_pts = 0
    for freq, beta, g in _fd_gap_points():
        n_pts += 1
        z = g.midpoint
        rec = hl.gradient(freq, beta, z)
        h = 1e-4
        fd_z = (hl.log_potential(hl.chambers(freq, beta, verify=False), z + h)
                - hl.log_potential(hl.chambers(freq, beta, verify=False), z - h)) / (2 * h)
        fd_b = (hl.log_potential(hl.chambers(freq, beta + h, verify=False), z)
                - hl.log_potential(hl.chambers(freq, beta - h, verify=False), z)) / (2 * h)
        worst_g = max(worst_g, abs(fd_z - rec.g0), abs(fd_b - 2 * rec.g1))

        hrec = hl.hessian(freq, beta, z)
        assert hrec.d2z < 0  # the pointwise-true diagonal sign
        s = 1e-3

        def L(bb, zz):
            return hl.log_potential(hl.chambers(freq, bb, verify=False), zz)

        base = L(beta, z)
        fzz = (L(beta, z + s) - 2 * base + L(beta, z - s)) / s ** 2
        fbb = (L(beta + s, z) - 2 * base + L(beta - s, z)) / s ** 2
        fzb = (L(beta + s, z + s) - L(beta + s, z - s)
               - L(beta - s, z + s) + L(beta - s, z - s)) / (4 * s ** 2)
        worst_h = max(worst_h,
                      abs(hrec.d2z - fzz) / abs(fzz),
                      abs(hrec.d2beta - fbb) / abs(fbb),
                      abs(hrec.dzdbeta - fzb) / abs(fzb))
    assert worst_g <= 1e-6, f"gradient FD mismatch {worst_g:.3e}"
    assert worst_h <= 1e-4, f"hessian FD mismatch {worst_h:.3e}"
    _report(5, f"(a) FD agreement at {n_pts} gap points: gradient {worst_g:.2e} "
               f"(tol 1e-6), hessian relative {worst_h:.2e} (tol 1e-4); "
               f"energy diagonal negative throughout")


def test_criterion_05b_hessian_sign_structure_pointwise_as_stated():
    """Knowingly red: asserts the advertised pointwise sign structure.

    The two-variable Hessian of the log-potential is NOT negative-definite
    at every gap point.  At the energy-critical point of a widening gap the
    ridge height grows convexly with the coupling, which makes the
    determinant genuinely negative there; the value at 2/5, coupling 0.1,
    second gap (open, width 0.2) is det = -0.120 at scale 0.5, confirmed
    three ways (closed-form kernels, finite differences of the closed-form
    log-potential, finite differences of dense-eigensolve traces).  The
    maximum-type structure is a conditional statement about joint critical
    points of both variables, and criterion 6 verifies those never occur.
    The energy diagonal alone is sign-definite (criterion 5a).  This test
    keeps the pointwise claim as stated over the same representative sweep
    as criterion 6 and documents its failure; the emitted margin table
    carries the Hessian columns for inspection.
    """
    violations = []
    total = 0
    for freq in (F(1, 3), F(2, 5), F(5, 8), F(8, 13)):
        for beta in np.linspace(0.1, 1.0, 10):
            for g in hl.gaps(freq, float(beta)):
                if not g.is_open:
                    continue
                total += 1
                hrec = hl.hessian(freq, float(beta), g.midpoint, edge_distance=0.0)
                if not (hrec.d2z < 0 and hrec.d2beta < 0 and hrec.determinant > 0):
                    violations.append((str(freq), round(float(beta), 2), g.j,
                                       float(hrec.determinant)))
    assert not violations, (
        f"pointwise Hessian sign structure fails at {len(violations)} of "
        f"{total} open-gap midpoints (first few: {violations[:4]}); the "
        "determinant changes sign along widening gaps, so only the energy "
        "diagonal is sign-definite away from joint critical points"
    )


def test_criterion_06_margin_suite():
    rows = []
    t0 = time.time()
    for freq in (F(1, 3), F(2, 5), F(5, 8), F(8, 13)):
        for beta in np.linspace(0.1, 1.0, 10):
            ch = hl.chambers(freq, float(beta), verify=False)
            for g in hl.gaps(freq, float(beta)):
                if not g.is_open:
                    continue
                cp = hl.critical_scan(freq, float(beta), g, ch=ch)
                hs = hl.hessian(freq, float(beta), cp.s_star, ch=ch, edge_distance=0.0)
                assert g.lo < cp.s_star < g.hi
                rows.append({"p": freq.p, "q": freq.q, "beta": float(beta),
                             "m": g.label[0], "n": g.label[1],
                             "s_star": cp.s_star, "g1_abs": cp.g1_abs,
                             "hessian_det": hs.determinant,
                             "hessian_d2z": hs.d2z, "hessian_d2beta": hs.d2beta})
    os.makedirs(ARTIFACTS, exist_ok=True)
    path = os.path.join(ARTIFACTS, "margin_table.json")
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
    min_margin = min(r["g1_abs"] for r in rows)
    assert min_margin > 1e-8, f"margin {min_margin:.3e} at or below 1e-8"
    _report(6, f"{len(rows)} critical points located, min |g1(s*)| = "
               f"{min_margin:.2e} > 1e-8; table at {os.path.relpath(path)} "
               f"({time.time() - t0:.1f}s)")


def test_criterion_07_persistence_suite():
    t0 = time.time()
    report = persistence_sweep([F(3, 5), F(5, 8), F(8, 13)],
                               np.linspace(0.05, 1.0, 20), max_hall=3)
    elapsed = time.time() - t0
    assert report.all_open, f"closure flags: {report.closure_flags}"
    min_width = min(min(t.widths) for t in report.tracks)
    assert min_width > 1e-6
    assert elapsed <= 120.0
    _report(7, f"{len(report.tracks)} labelled tracks x 20 couplings, zero "
               f"closures, min width {min_width:.2e} ({elapsed:.1f}s)")


def test_criterion_08_coefficient_lab_suite():
    worst_resid = worst_origin = worst_rho_excess = worst_cross = 0.0
    for (p, q) in ((2, 5), (5, 8), (8, 13)):
        freq = F(p, q)
        for beta in (0.3, 0.5, 0.7):
            gs = [g for g in hl.gaps(freq, beta) if g.is_open]
            z = max(gs, key=lambda g: g.width).midpoint
            c = hl.coefficient_sheet(freq, beta, z, window=12)  # reality enforced
            res = hl.system_residual(c, beta, z)
            worst_resid = max(worst_resid, res.max_residual)
            worst_origin = max(worst_origin, abs(res.origin_inhomogeneity - 1.0))
            plus, minus = hl.recursion_sheets(freq, beta, z, window=12)
            assert np.all(plus.values[:plus.window + 1, :] == 0.0)
            d = hl.symmetrized_sheet(plus, minus)
            assert d.value(1, 0) == 0.5
            for sheet in (d, plus, minus):
                for slope in (1, -1):
                    for k in (-2, -1, 0, 1, 2):
                        est = hl.decay_rate(sheet, slope, k)
                        if not est.all_zero:
                            worst_rho_excess = max(worst_rho_excess, est.rho - beta)
            grad = hl.gradient(freq, beta, z)
            worst_cross = max(worst_cross, abs(c.value(0, 0) + grad.g0))
    assert worst_resid <= 1e-8
    assert worst_rho_excess <= 0.05
    assert worst_cross <= 1e-9
    _report(8, f"system residual <= {worst_resid:.2e}, origin defect off by "
               f"{worst_origin:.2e}, decay-rate excess <= {worst_rho_excess:.3f}, "
               f"origin-entry cross-check <= {worst_cross:.2e}")


def test_criterion_09_number_theory_suite():
    for n in range(1, 201):
        assert all(d == 1 for d in hl.farey(n).neighbor_determinants())
        assert len(hl.farey(n)) == hl.phi_cumulative(n)
    assert hl.phi_cumulative(2) == 2
    assert hl.phi_cumulative(4) == 6
    assert hl.phi_cumulative(6) == 12
    assert hl.franel_sum(3).total == Fraction(2, 144)
    last = {1: 0, 2: 0}
    for order in range(4, 13):
        ds = hl.compute_butterfly(order, 1.0)
        for k in (1, 2):
            cc = hl.component_count(ds, k)
            assert cc.observed <= cc.predicted
            assert cc.observed >= last[k]
            last[k] = cc.observed
    _report(9, f"farey determinants exact to order 200; totient sums exact; "
               f"equidistribution sum exact at order 3; component counts "
               f"bounded and monotone (k=1: {last[1]}, k=2: {last[2]})")


def test_criterion_10_determinism(monkeypatch):
    texts = {w: hl.serialize_dataset(hl.compute_butterfly(10, 1.0, workers=w))
             for w in (1, 4, 8)}
    assert texts[1] == texts[4] == texts[8]

    import tempfile
    import harperlab.butterfly as butterfly_module

    def interrupt_after_nine(q, ps, beta):
        if len(computed) >= 9:
            raise KeyboardInterrupt
        computed.extend(ps)
        return hl.corner_edges(q, ps, beta)

    computed = []
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "state.json")
        with monkeypatch.context() as m:
            m.setattr(butterfly_module, "corner_edges", interrupt_after_nine)
            with pytest.raises(KeyboardInterrupt):
                hl.compute_butterfly(10, 1.0, checkpoint_path=ck)
        resumed = hl.compute_butterfly(10, 1.0, checkpoint_path=ck)
    assert hl.serialize_dataset(resumed) == texts[1]
    _report(10, "dataset at order 10 byte-identical across worker counts "
                "{1, 4, 8} and across a checkpoint interrupt/resume cycle")
