import math
import warnings

import numpy as np
import pytest

from harperlab import (RationalFrequency, band_edges, chambers, critical_scan,
                       gaps, gradient, hessian, log_potential,
                       lyapunov_thouless, lyapunov_trace, lyapunov_transfer,
                       PhaseGrid, build_rep, hamiltonian, vanishing_scan)
from harperlab._torus import _psi_count, averages
from conftest import oracle_average_inverse, oracle_moment, oracle_trace

F = RationalFrequency

# constant cocycle at zero coupling: L(3) = log((3 + sqrt 5)/2)
FREE_L_AT_3 = 0.9624236501192069


def widest_gap(freq, beta):
    recs = [g for g in gaps(freq, beta) if g.is_open]
    return max(recs, key=lambda g: g.width)


def test_transfer_free_case_closed_form():
    val = lyapunov_transfer(F(1, 3), 1e-30, 3.0).value
    assert abs(val - FREE_L_AT_3) <= 1e-12
    inside = lyapunov_transfer(F(1, 3), 1e-30, 1.0).value
    assert abs(inside) <= 1e-10


def test_transfer_nonnegative_and_band_median_flat():
    freq = F(5, 8)
    ch = chambers(freq, 0.5, verify=False)
    for e in ch.lam:  # spectral medians of the bands
        val = lyapunov_transfer(freq, 0.5, float(e)).value
        assert -1e-12 <= val <= 5e-3


def test_transfer_irrational_orbit_matches_fine_convergent():
    golden = (math.sqrt(5) - 1) / 2
    e, beta = 3.4, 0.5
    via_orbit = lyapunov_transfer(golden, beta, e, theta_samples=16, n_steps=4000).value
    via_convergent = lyapunov_transfer(F(144, 233), beta, e).value
    assert abs(via_orbit - via_convergent) <= 5e-3


def test_thouless_free_case():
    bands = band_edges(chambers(F(1, 3), 0.0, verify=False))
    val = lyapunov_thouless(bands, 3.0).value
    assert abs(val - FREE_L_AT_3) <= 2e-3


def test_thouless_matches_transfer_in_gap():
    freq = F(1, 3)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    g = widest_gap(freq, 0.5)
    for e in (g.midpoint, 3.6, -4.1):
        t = lyapunov_transfer(freq, 0.5, e).value
        th = lyapunov_thouless(bands, e).value
        assert abs(t - th) <= 2e-3


def test_thouless_symmetric_in_energy():
    bands = band_edges(chambers(F(2, 5), 0.7, verify=False))
    for e in (3.9, 4.4):
        a = lyapunov_thouless(bands, e).value
        b = lyapunov_thouless(bands, -e).value
        assert abs(a - b) <= 1e-10


def test_trace_far_field_expansion():
    # oracle: log|z| - m2/(2 z^2) - m4/(4 z^4) with moments from dense sweeps
    freq, beta, z = F(1, 3), 0.5, 10.0
    m2 = oracle_moment(1, 3, beta, 2)
    m4 = oracle_moment(1, 3, beta, 4)
    expansion = math.log(z) - m2 / (2 * z ** 2) - m4 / (4 * z ** 4)
    val = lyapunov_trace(freq, beta, z).value
    assert abs(val - expansion) <= 2e-4
    assert abs(val - 2.2898443) <= 2e-3  # frozen from the expansion oracle


def test_trace_matches_thouless_in_gap():
    freq = F(1, 3)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    g = widest_gap(freq, 0.5)
    tr = lyapunov_trace(freq, 0.5, g.midpoint).value
    th = lyapunov_thouless(bands, g.midpoint).value
    assert abs(tr - th) <= 1e-3


def test_trace_complex_argument():
    freq = F(1, 3)
    tr = lyapunov_trace(freq, 0.5, 0.2 + 1.5j).value
    th = lyapunov_thouless(band_edges(chambers(freq, 0.5, verify=False)), 0.2 + 1.5j).value
    assert abs(tr - th) <= 1e-3


@pytest.mark.parametrize("p, q, beta, z, n", [
    (5, 8, 0.5, "gap", 16),
    (5, 8, 0.5, "gap", 17),
    (8, 13, 0.5, 6.0, 9),
    (3, 7, 0.5, 0.2 + 1.5j, 12),
    (1, 1, 0.7, 5.0, 7),
    (1, 1, 0.7, 0.3 + 0.4j, 8),
])
def test_trace_folded_grid_equals_full_grid(p, q, beta, z, n):
    """The mirror-folded grid gives the full n x n phase sum to roundoff."""
    if z == "gap":
        z = widest_gap(F(p, q), beta).midpoint
    got = lyapunov_trace(F(p, q), beta, z, grid_size=n).value
    assert abs(got - oracle_trace(p, q, beta, z, n)) <= 1e-13


def test_trace_rejects_on_spectrum():
    freq = F(1, 3)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    inside = 0.5 * (bands.bands[0][0] + bands.bands[0][1])
    with pytest.raises(ValueError):
        lyapunov_trace(freq, 0.5, inside)


def test_log_potential_agrees_with_trace_and_transfer():
    freq, beta = F(5, 8), 0.5
    ch = chambers(freq, beta, verify=False)
    for e in (3.7, widest_gap(freq, beta).midpoint):
        lp = log_potential(ch, e)
        assert abs(lp - lyapunov_transfer(freq, beta, e).value) <= 1e-12
        assert abs(lp - lyapunov_trace(freq, beta, e).value) <= 1e-9


def test_gradient_far_field_moment_oracle():
    freq, beta, z = F(1, 3), 0.5, 10.0
    m2 = oracle_moment(1, 3, beta, 2)
    m4 = oracle_moment(1, 3, beta, 4)
    g = gradient(freq, beta, z)
    series = 1 / z + m2 / z ** 3 + m4 / z ** 5
    assert abs(g.g0 - series) <= 1e-5
    assert abs(g.g0 - 0.10250) <= 1.5e-4  # two-moment magnitude check


def test_gradient_matches_phase_grid_trace():
    # independent route: tau of the resolvent kernels on a dense phase grid
    freq, beta, z = F(1, 3), 0.5, 4.2
    q = freq.q
    n = 48
    grid = PhaseGrid(n, n)
    t1, t2 = grid.nodes()
    g0_acc = 0.0
    g1_acc = 0.0
    for a in t1:
        for b in t2:
            rep = build_rep(freq, a, b)
            h = hamiltonian(rep, beta).matrix
            r = np.linalg.inv(z * np.eye(q) - h)
            g0_acc += np.trace(r).real / q
            g1_acc += np.trace(np.linalg.inv(h - z * np.eye(q)) @ rep.v).real / q
    g = gradient(freq, beta, z)
    assert abs(g.g0 - g0_acc / n ** 2) <= 1e-10
    assert abs(g.g1 - g1_acc / n ** 2) <= 1e-10


def test_gradient_finite_difference():
    freq, beta = F(5, 8), 0.5
    g = widest_gap(freq, beta)
    z = g.midpoint
    rec = gradient(freq, beta, z)
    h = 1e-4
    fd_z = (log_potential(chambers(freq, beta, verify=False), z + h)
            - log_potential(chambers(freq, beta, verify=False), z - h)) / (2 * h)
    fd_b = (log_potential(chambers(freq, beta + h, verify=False), z)
            - log_potential(chambers(freq, beta - h, verify=False), z)) / (2 * h)
    assert abs(fd_z - rec.g0) <= 1e-6
    assert abs(fd_b - 2 * rec.g1) <= 1e-6


def test_gradient_mirror_symmetry():
    freq, beta = F(1, 3), 0.5
    g1rec = gaps(freq, beta)
    z = g1rec[0].midpoint
    mirrored = -z
    a = gradient(freq, beta, z)
    b = gradient(freq, beta, mirrored)
    assert abs(a.g0 + b.g0) <= 1e-10


def test_gradient_flags_near_edge():
    freq, beta = F(1, 3), 0.5
    g = gaps(freq, beta)[0]
    with pytest.raises(ValueError):
        gradient(freq, beta, g.lo + 1e-8)


def test_critical_scan_single_gap():
    freq, beta = F(1, 3), 0.5
    g = [r for r in gaps(freq, beta) if r.label == (0, 1)][0]
    cp = critical_scan(freq, beta, g)
    assert g.lo < cp.s_star < g.hi
    assert cp.g0_residual <= 1e-9
    assert cp.g1_abs > 1e-8


def test_critical_scan_all_gaps_5_8():
    # q = 8 is even, so of the 7 inter-band intervals the central one is
    # permanently touching: 6 open gaps carry critical points
    freq, beta = F(5, 8), 0.9
    open_gaps = [g for g in gaps(freq, beta) if g.is_open]
    assert len(open_gaps) == 6
    for g in open_gaps:
        cp = critical_scan(freq, beta, g)
        assert g.lo < cp.s_star < g.hi
        assert cp.g1_abs > 1e-8


def test_critical_scan_continuity_in_coupling():
    freq = F(1, 3)
    g1 = [g for g in gaps(freq, 0.5) if g.label == (0, 1)][0]
    g2 = [g for g in gaps(freq, 0.500001) if g.label == (0, 1)][0]
    s1 = critical_scan(freq, 0.5, g1).s_star
    s2 = critical_scan(freq, 0.500001, g2).s_star
    assert abs(s1 - s2) <= 1e-3


def test_critical_scan_rejects_closed_gap():
    freq = F(1, 2)
    g = gaps(freq, 0.7)[0]
    with pytest.raises(ValueError):
        critical_scan(freq, 0.7, g)


def test_hessian_energy_diagonal_always_negative():
    # -tau((z-h)^{-2}) < 0 is the one sign that holds pointwise in every gap
    for (p, q, beta) in ((1, 3, 0.5), (2, 5, 0.3), (5, 8, 0.8)):
        freq = F(p, q)
        for g in gaps(freq, beta):
            if not g.is_open:
                continue
            rec = hessian(freq, beta, g.midpoint)
            assert rec.d2z < 0


def test_hessian_saddle_and_maximum_shaped_points_both_exist():
    """The two-variable Hessian is not sign-definite across gap points.

    Along a widening gap the ridge height L(beta, s*(beta)) grows convexly
    in the coupling, which forces det < 0 there; near flat ridge segments
    the maximum-like structure det > 0 shows up instead.  Both frozen
    examples are finite-difference-validated.
    """
    saddle = hessian(F(2, 5), 0.1, critical_scan(F(2, 5), 0.1,
                     [g for g in gaps(F(2, 5), 0.1) if g.j == 2][0]).s_star,
                     edge_distance=0.0)
    assert saddle.d2z < 0 and saddle.d2beta < 0
    assert saddle.determinant < -0.05  # genuine, scale ~0.5

    maxlike = hessian(F(2, 5), 0.7,
                      critical_scan(F(2, 5), 0.7,
                                    max((g for g in gaps(F(2, 5), 0.7) if g.is_open),
                                        key=lambda g: g.width)).s_star,
                      edge_distance=0.0)
    assert maxlike.d2z < 0 and maxlike.d2beta < 0
    assert maxlike.determinant > 0.0


def test_hessian_finite_difference():
    freq, beta = F(2, 5), 0.7
    z = widest_gap(freq, beta).midpoint
    rec = hessian(freq, beta, z)
    h = 1e-3

    def L(bb, zz):
        return log_potential(chambers(freq, bb, verify=False), zz)

    base = L(beta, z)
    fzz = (L(beta, z + h) - 2 * base + L(beta, z - h)) / h ** 2
    fbb = (L(beta + h, z) - 2 * base + L(beta - h, z)) / h ** 2
    fzb = (L(beta + h, z + h) - L(beta + h, z - h)
           - L(beta - h, z + h) + L(beta - h, z - h)) / (4 * h ** 2)
    assert abs(rec.d2z - fzz) / abs(fzz) <= 1e-4
    assert abs(rec.d2beta - fbb) / abs(fbb) <= 1e-4
    assert abs(rec.dzdbeta - fzb) / abs(fzb) <= 1e-4


def test_hessian_flags_near_edge():
    freq, beta = F(1, 3), 0.5
    g = gaps(freq, beta)[0]
    with pytest.raises(ValueError):
        hessian(freq, beta, g.hi - 1e-9)


def test_transfer_requires_full_period():
    with pytest.raises(ValueError):
        lyapunov_transfer(F(2, 5), 0.5, 3.0, n_steps=3)


def test_gradient_free_case_closed_form():
    # zero coupling: dL/dz = 1/sqrt(z^2 - 4) outside [-2, 2], dL/dbeta = 0
    g = gradient(F(1, 3), 0.0, 3.0)
    assert abs(g.g0 - 1.0 / math.sqrt(5.0)) <= 1e-14
    assert g.g1 == 0.0


def test_scalar_frequency_all_methods():
    freq = F(1, 1)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    assert bands.bands == ((-3.0, 3.0),)
    for z in (3.6, -4.5):
        t = lyapunov_transfer(freq, 0.5, z).value
        th = lyapunov_thouless(bands, z).value
        tr = lyapunov_trace(freq, 0.5, z).value
        assert abs(t - th) <= 2e-3 and abs(th - tr) <= 1e-3


def test_scan_with_chambers_runs_no_eigensolve(monkeypatch):
    """A supplied `ch` and edge_distance=0 leave nothing to eigensolve: the
    bracket is the gap's own (lo, hi).  Outputs equal the unpatched run bit
    for bit, and the default band-distance refusal still holds."""
    freq, beta = F(55, 89), 0.5
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)

    def scan():
        cp = critical_scan(freq, beta, g, ch=ch)
        return (cp, gradient(freq, beta, cp.s_star, ch=ch, edge_distance=0.0),
                hessian(freq, beta, cp.s_star, ch=ch, edge_distance=0.0),
                vanishing_scan(freq, beta, g))

    unpatched = repr(scan())

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert repr(scan()) == unpatched
    monkeypatch.undo()
    with pytest.raises(ValueError, match="band edge"):
        gradient(freq, beta, g.lo + 1e-8, ch=ch)


def test_transfer_beyond_float_range_is_refused():
    # the squared monodromy trace at 377/610, beta = 1, E = 4.5 overflows float64
    with pytest.raises(ArithmeticError, match=r"q=610, E=4\.5"):
        lyapunov_transfer(F(377, 610), 1.0, 4.5)


def test_torus_kernels_beyond_float_range_are_refused():
    """|P| is 3e215 at hull top + 0.5 and 3.6e140 at the midpoint of gap 233
    (377/610, beta = 1): D^2 overflows for the log kernel at the first,
    root^3 for the second-order kernels at the second, where the
    first-order ones still fit."""
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    bands = band_edges(ch)
    top = bands.hull[1] + 0.5
    with pytest.raises(ArithmeticError, match=f"q=610, E={top}"):
        log_potential(ch, top)
    z = [g for g in gaps(freq, beta, band_set=bands) if g.j == 233][0].midpoint
    assert abs(ch.P(z)) > 1e140
    g = gradient(freq, beta, z, ch=ch, edge_distance=0.0)
    assert math.isfinite(g.g0) and math.isfinite(g.g1) and g.g0 != 0.0
    with pytest.raises(ArithmeticError, match=f"q=610, E={z}"):
        hessian(freq, beta, z, ch=ch, edge_distance=0.0)


def test_psi_count_with_an_infinite_strip():
    """At 377/610, beta = 0.5, |c2| = 4.7e-184, so margin/|c2| squared
    overflows and the strip is infinite: the base node count, no warning."""
    freq, beta = F(377, 610), 0.5
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = critical_scan(freq, beta, g, ch=ch)
        assert _psi_count(ch.P(cp.s_star), ch.c1, ch.c2) == 256
    assert g.lo < cp.s_star < g.hi and cp.g0_residual <= 1e-12


# (fraction, beta, widest or narrowest open gap, bound): relative error of
# the trapezoid m1 at the gap midpoint against the elliptic closed form.
# Measured 0, 1.6e-16, 3.8e-12 and 3.6e-7; in the two narrow gaps (margins
# 9.1e-7 and 2.5e-12) both sides inherit the cancellation in |P| - 2 - |c2|
M1_ORACLE_POINTS = [((2, 5), 0.7, max, 1e-15), ((55, 89), 0.5, max, 1e-15),
                    ((8, 13), 0.3, min, 1e-11), ((8, 13), 0.1, min, 1e-6)]


@pytest.mark.parametrize("pq,beta,pick,bound", M1_ORACLE_POINTS)
def test_m1_kernel_against_elliptic_closed_form(pq, beta, pick, bound):
    freq = F(*pq)
    ch = chambers(freq, beta, verify=False)
    g = pick((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)
    A = ch.P(g.midpoint)
    ref = oracle_average_inverse(A, ch.c1, ch.c2)
    got = averages(A, ch.c1, ch.c2, ("m1",))["m1"]
    assert abs(got - ref) <= bound * abs(ref)
