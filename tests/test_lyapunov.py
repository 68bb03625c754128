import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from harperlab import (RationalFrequency, band_edges, chambers, critical_scan,
                       gaps, gradient, hessian, log_potential,
                       lyapunov_thouless, lyapunov_trace, lyapunov_transfer,
                       build_rep, hamiltonian)
from harperlab import lyapunov, spectrum
from harperlab._torus import GRID_CAP, averages, grid_nodes, nodes, strip
from harperlab.lyapunov import _trace_sum
from conftest import (center_eigenvalues, oracle_average_inverse, oracle_band_distance,
                      oracle_continuant, oracle_moment, oracle_orbit_transfer,
                      oracle_transfer_steps,
                      oracle_torus_kernels, oracle_trace, vanishing_scan)

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
    for e in center_eigenvalues(freq, 0.5):  # spectral medians of the bands
        val = lyapunov_transfer(freq, 0.5, float(e)).value
        assert -1e-12 <= val <= 5e-3


def test_transfer_irrational_orbit_matches_fine_convergent():
    golden = (math.sqrt(5) - 1) / 2
    e, beta = 3.4, 0.5
    via_orbit = oracle_orbit_transfer(golden, beta, e, n_theta=16, n_steps=4000)
    via_convergent = lyapunov_transfer(F(144, 233), beta, e).value
    assert abs(via_orbit - via_convergent) <= 5e-3


def test_thouless_free_case():
    bands = band_edges(chambers(F(1, 3), 0.0, verify=False))
    val = lyapunov_thouless(bands, 3.0).value
    assert abs(val - FREE_L_AT_3) <= 1e-12


def test_thouless_matches_transfer_in_gap():
    freq = F(1, 3)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    g = widest_gap(freq, 0.5)
    for e in (g.midpoint, 3.6, -4.1):
        t = lyapunov_transfer(freq, 0.5, e).value
        th = lyapunov_thouless(bands, e).value
        assert abs(t - th) <= 1e-10


def test_thouless_symmetric_in_energy():
    bands = band_edges(chambers(F(2, 5), 0.7, verify=False))
    for e in (3.9, 4.4):
        a = lyapunov_thouless(bands, e).value
        b = lyapunov_thouless(bands, -e).value
        assert abs(a - b) <= 1e-10


@pytest.mark.parametrize("p,q,beta", [(2, 5, 0.7), (8, 13, 0.5)])
def test_thouless_same_for_corner_bands_and_band_edges(p, q, beta):
    freq = F(p, q)
    via_ch = band_edges(chambers(freq, beta, verify=False))
    corner = spectrum.corner_bands(freq, beta)
    lo, hi = via_ch.hull
    for z in list(np.linspace(lo - 1.0, hi + 1.0, 21)) + [0.3 + 0.5j]:
        a = lyapunov_thouless(via_ch, z).value
        assert lyapunov_thouless(corner, z).value == a


def test_thouless_makes_one_batched_eigensolve_and_one_ids_call(monkeypatch):
    """Each Thouless call adds one batched `eigvalsh`, the two mixed corners
    that place the van Hove cuts, to the two corner solves that made its band
    set, and makes one `ids` call, in a gap and off the axis alike."""
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, f=np.linalg.eigvalsh: calls.append("eigvalsh") or f(*a))
    monkeypatch.setattr(lyapunov, "ids", lambda *a, f=spectrum.ids: calls.append("ids") or f(*a))
    bands = band_edges(chambers(F(8, 13), 0.5, verify=False))
    lo, hi = max(bands.edges[1:-1].reshape(-1, 2), key=lambda g: g[1] - g[0])
    for n, z in enumerate(((lo + hi) / 2, 0.3 + 0.5j), start=1):
        assert lyapunov_thouless(bands, z).value > 0
        assert (calls.count("eigvalsh"), calls.count("ids")) == (2 + n, n)


_FRACTIONS = st.integers(1, 34).flatmap(lambda q: st.sampled_from(
    [(p, q) for p in range(q) if math.gcd(p, q) == 1]))


@settings(max_examples=40, deadline=None)
@given(_FRACTIONS, st.floats(0.2, 3.0), st.booleans(), st.floats(0.1, 3.0))
@example((0, 1), 1.0, True, 0.1).via("q = 1, at the worst point found")
@example((1, 2), 0.7, False, 0.5).via("q = 2")
@example((8, 13), 1.5, True, 0.3).via("an odd q")
@example((13, 34), 2.5, False, 0.2).via("an even q")
def test_thouless_agrees_with_log_potential_and_transfer_off_the_hull(pq, beta, top, t):
    """Above the hull top or below the hull bottom by t, the Thouless value
    is within 1e-9 of `log_potential` and of the transfer, for any p/q with
    q <= 34 and beta in [0.2, 3].  Measured at most 1.3e-11 over 400 random
    samples; the worst point found is 0/1 at beta 1, t = 0.1, with 7.6e-10,
    where both van Hove energies of the one band sit at its center."""
    freq = F(*pq)
    bands = spectrum.corner_bands(freq, beta)
    z = bands.hull[1] + t if top else bands.hull[0] - t
    th = lyapunov_thouless(bands, z).value
    assert abs(th - log_potential(chambers(freq, beta, verify=False), z)) <= 1e-9
    assert abs(th - lyapunov_transfer(freq, beta, z).value) <= 1e-9


@pytest.mark.parametrize("q", [32, 64, 128])
def test_thouless_at_thin_bands(q):
    """At every open-gap midpoint wider than 1e-3 of 1/q, beta 1, within 1e-12
    of `log_potential`, although 4, 28 and 84 bands are narrower than 1e-13
    (12 of zero float width at q = 128).  Measured 4.3e-16, 3.3e-16, 1.3e-15."""
    freq = F(1, q)
    ch, bands = chambers(freq, 1.0, verify=False), spectrum.corner_bands(freq, 1.0)
    for g in gaps(freq, 1.0):
        if g.is_open and g.width > 1e-3:
            assert abs(lyapunov_thouless(bands, g.midpoint).value
                       - log_potential(ch, g.midpoint)) <= 1e-12, g.j


@pytest.mark.parametrize("p, q, beta", [(1, 3, 0.5), (2, 5, 0.7), (5, 8, 0.5), (8, 13, 1.0),
                                        (21, 34, 0.5)])
def test_thouless_at_band_edges(p, q, beta):
    """At every band edge the value is finite and raises no RuntimeWarning
    (an error in this suite).  Where the transfer answers, the two agree
    within 1e-5: measured at most 1.9e-6 over the 101 of these 126 edges
    where the float P leaves the transfer a phase strip it can sample."""
    freq, bands = F(p, q), spectrum.corner_bands(F(p, q), beta)
    answered = 0
    for e in np.ravel(bands.bands).tolist():
        th = lyapunov_thouless(bands, e).value
        assert math.isfinite(th), e
        try:
            t = lyapunov_transfer(freq, beta, e).value
        except ValueError:  # the float P puts the edge a thin strip off the spectrum
            continue
        answered += 1
        assert abs(th - t) <= 1e-5, e
    assert answered > 0


def test_thouless_refuses_energies_on_bands_of_zero_float_width():
    """1/128 at beta 1 has 12 bands whose two float edges are equal.  E there
    is refused; every other band edge answers."""
    bands = spectrum.corner_bands(F(1, 128), 1.0)
    flat = [lo for lo, hi in bands.bands if lo == hi]
    assert len(flat) == 12
    for e in flat:
        with pytest.raises(ValueError, match="lies on a band of zero float width"):
            lyapunov_thouless(bands, e)
    others = [e for lo, hi in bands.bands if lo < hi for e in (lo, hi)]
    assert all(math.isfinite(lyapunov_thouless(bands, e).value) for e in others)


def test_thouless_matches_a_50_digit_lyapunov_exponent():
    """Within 1e-11 of L = <log|D|>/q, with P from a 50-digit continuant and
    the 40-digit torus kernel, at the three widest gap midpoints and hull
    top + 0.5 of 5/8 beta 0.5, 21/34 beta 2 and 73/144 beta 1, where
    c2 = -2 beta^q is exact in float.  Measured 1.5e-12."""
    for (p, q), beta in (((5, 8), 0.5), ((21, 34), 2.0), ((73, 144), 1.0)):
        freq, bands = F(p, q), spectrum.corner_bands(F(p, q), beta)
        widest = sorted((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)[-3:]
        for z in [g.midpoint for g in widest] + [bands.hull[1] + 0.5]:
            P = oracle_continuant(p, q, beta, z)
            ref = oracle_torus_kernels(P, -2.0, -2.0 * beta ** q)["log"] / q
            assert abs(lyapunov_thouless(bands, z).value - ref) <= 1e-11, (p, q, beta, z)


def test_band_distance_is_the_per_band_distance():
    """`BandSet.distance` equals a per-band loop bit for bit at real and complex
    z inside bands, at their edges, between them and beyond the hull."""
    for pq, beta in (((1, 1), 0.5), ((2, 5), 0.7), ((3, 8), 1.0), ((21, 34), 0.5), ((1, 128), 1.0)):
        bands = spectrum.corner_bands(F(*pq), beta)
        edges = np.asarray(bands.bands)
        xs = np.concatenate([edges.ravel(), edges.mean(axis=1),
                             (edges[:-1, 1] + edges[1:, 0]) / 2, edges[0, :1] - [2.0, 1e-9],
                             edges[-1, 1:] + [1e-9, 2.0]])
        for x in xs:
            for z in (float(x), complex(x, 1e-3), complex(x, -0.7)):
                assert bands.distance(z) == oracle_band_distance(bands.bands, z), (pq, z)


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
    assert abs(tr - th) <= 1e-10


def test_trace_complex_argument():
    freq = F(1, 3)
    tr = lyapunov_trace(freq, 0.5, 0.2 + 1.5j).value
    th = lyapunov_thouless(band_edges(chambers(freq, 0.5, verify=False)), 0.2 + 1.5j).value
    assert abs(tr - th) <= 1e-10


@pytest.mark.parametrize("p, q, beta, z, n", [
    (5, 8, 0.5, "gap", 16),
    (5, 8, 0.5, "gap", 17),
    (8, 13, 0.5, 6.0, 9),
    (3, 7, 0.5, 0.2 + 1.5j, 12),
    (1, 1, 0.7, 5.0, 7),
    (1, 1, 0.7, 0.3 + 0.4j, 8),
    (3, 7, 0.5, 0.2 + 1.5j, 13),
    (8, 13, 0.5, 0.3 + 0.2j, 10),
    (8, 13, 0.5, 0.3 + 0.2j, 11),
    (2, 5, 1.5, -0.4 + 0.05j, 14),
    (2, 5, 1.5, -0.4 + 0.05j, 15),
    (5, 8, 0.5, -4.4, 6),
    (5, 8, 0.5, "gap", (1, 1)),
    (8, 13, 0.5, 6.0, (1, 4)),
    (3, 7, 0.5, 0.2 + 1.5j, (17, 4)),
    (2, 5, 1.5, -0.4 + 0.05j, (7, 10)),
    (8, 13, 0.5, 0.3 + 0.2j, (10, 3)),
])
def test_trace_folded_grid_equals_full_grid(p, q, beta, z, n):
    """The mirror-folded grid of log-determinants gives the full sum of logs
    of eigenvalues to roundoff, on an n x n grid or, where n is a pair, an
    n1 x n2 one, for real and complex z, for odd and even n on either axis
    and for one node on an axis."""
    if z == "gap":
        z = widest_gap(F(p, q), beta).midpoint
    n1, n2 = n if isinstance(n, tuple) else (n, n)
    got = _trace_sum(F(p, q), beta, z, n1, n2)
    assert abs(got - oracle_trace(p, q, beta, z, n1, n2)) <= 1e-13


@pytest.mark.parametrize("p, q, beta, z, grid", [
    (55, 89, 0.5, "top", (1, 1)),
    (55, 89, 0.5, "gap", (2, 1)),
    (21, 34, 0.5, "gap", (5, 2)),
    (2, 5, 1.5, "top", (8, 14)),
    (2, 5, 1.5, "gap", (12, 24)),
])
def test_grid_nodes_sizes_each_phase_by_its_own_strip(p, q, beta, z, grid):
    """`grid_nodes` is (ceil(40/w1), ceil(40/w2)) with no floor, w1 the t1
    strip `strip(P, c2, c1)` and w2 the t2 strip `strip(P, c1, c2)`: one node
    per axis 0.5 above the hull top of 55/89, and at 2/5, beta 1.5, where
    c2 = -2 beta^5 is the larger amplitude, t2 is the narrower axis."""
    freq = F(p, q)
    ch = chambers(freq, beta, verify=False)
    z = band_edges(ch).hull[1] + 0.5 if z == "top" else widest_gap(freq, beta).midpoint
    assert grid_nodes(ch, z) == grid


@settings(max_examples=40, deadline=None)
@given(_FRACTIONS, st.floats(0.3, 2.0), st.integers(0, 1 << 16), st.floats(0.0, 1.0))
def test_trace_on_its_per_axis_grid_agrees_with_log_potential(pq, beta, pick, u):
    """At a real z at least 1e-3 from the bands, in a gap or within 1 of the
    hull, the trace on its per-axis grid is within 1e-12 relative of
    `log_potential`, for any p/q with q <= 34 and beta in [0.3, 2].  Nearer
    the bands, where the narrower strip needs more than `GRID_CAP` nodes,
    the trace refuses and the point is not drawn.  Measured at most 9.3e-15
    over these 40 points (9.1e-15 on one square grid sized by the narrower
    strip with a floor of 8), and 2.5e-13 over 80 random points, the same on
    both grids: at 7/24, beta 0.478, z = 1.970, 1.2e-3 below a band, where
    L is 0.0051."""
    freq = F(*pq)
    ch = chambers(freq, beta, verify=False)
    bands = band_edges(ch)
    edges = np.concatenate([[bands.hull[0] - 1.0], np.ravel(bands.bands), [bands.hull[1] + 1.0]])
    starts, ends = edges[::2] + 1e-3, edges[1::2] - 1e-3  # the gaps and the two outer runs
    starts, ends = starts[ends > starts], ends[ends > starts]
    i = pick % starts.size
    z = float(starts[i] + u * (ends[i] - starts[i]))
    P = ch.P(z)
    assume(min(strip(P, ch.c1, ch.c2), strip(P, ch.c2, ch.c1)) * GRID_CAP >= 40.0)
    want = log_potential(ch, z)
    assert abs(lyapunov_trace(freq, beta, z).value - want) <= 1e-12 * want


def test_trace_rejects_on_spectrum():
    freq = F(1, 3)
    bands = band_edges(chambers(freq, 0.5, verify=False))
    inside = 0.5 * (bands.bands[0][0] + bands.bands[0][1])
    with pytest.raises(ValueError, match="phase strip 0 needs more than 512 nodes"):
        lyapunov_trace(freq, 0.5, inside)


def test_trace_refuses_above_its_cap_and_states_the_strip():
    """At 5/8, beta 0.5, the widest gap's strip needs more than 512 nodes
    within about 3e-4 of its edges; at 1e-3 the trace is still within
    2e-15 of `log_potential`."""
    freq, beta = F(5, 8), 0.5
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)
    for e in (g.lo + 1e-4, g.hi - 1e-4, g.lo + 1e-7):
        with pytest.raises(ValueError, match=r"too close to the spectrum: its phase strip 0\.0"):
            lyapunov_trace(freq, beta, e)
    for e in (g.lo + 1e-3, g.hi - 1e-3):
        assert abs(lyapunov_trace(freq, beta, e).value - log_potential(ch, e)) <= 5e-15


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
    nodes = 2 * np.pi * np.arange(n) / n
    g0_acc = 0.0
    g1_acc = 0.0
    for a in nodes:
        for b in nodes:
            rep = build_rep(freq, a, b)
            h = hamiltonian(rep, beta)
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


# every convergent of the critical workload at both of its couplings, plus
# small q, both mirror fractions of q = 144 and weak to strong coupling
BRENT_ORACLE_CASES = [(F(p, q), beta)
                      for p, q in ((1, 3), (2, 5), (3, 8), (5, 8), (8, 13), (13, 21), (21, 34),
                                   (34, 55), (55, 89), (73, 144), (89, 144), (144, 233))
                      for beta in (0.1, 0.3, 0.5, 1.0, 1.5)]


def test_brent_matches_scipy_brentq_bitwise_on_every_open_gap():
    """The in-house root step repeats scipy's brentq operation for operation:
    the same s* bit for bit on the bracket critical_scan uses, from two fewer
    P' calls, since it takes the bracket values critical_scan has already
    evaluated."""
    from scipy.optimize import brentq

    def oracle(f, a, b):
        return brentq(f, a, b, xtol=lyapunov._BRENT_XTOL, rtol=lyapunov._BRENT_RTOL)

    n_gaps = 0
    for freq, beta in BRENT_ORACLE_CASES:
        ch = chambers(freq, beta, verify=False)
        for g in gaps(freq, beta):
            if not g.is_open:
                continue
            eps = (g.hi - g.lo) * 1e-9
            a, b = g.lo + eps, g.hi - eps
            fa, fb = ch.dP(a), ch.dP(b)
            roots, calls = [], []
            for solve in (oracle, lambda f, a, b: lyapunov._brent(f, a, b, fa, fb)):
                count = [0]

                def f(x):
                    count[0] += 1
                    return ch.dP(x)

                roots.append(solve(f, a, b).hex())
                calls.append(count[0])
            assert roots[0] == roots[1] and calls[0] == calls[1] + 2, (freq, beta, g.j)
            n_gaps += 1
    assert n_gaps > 1500


def test_critical_scan_root_is_the_brent_step_on_the_gap_bracket():
    freq, beta = F(21, 34), 0.5
    ch = chambers(freq, beta, verify=False)
    for g in (g for g in gaps(freq, beta) if g.is_open):
        eps = (g.hi - g.lo) * 1e-9
        a, b = g.lo + eps, g.hi - eps
        root = lyapunov._brent(ch.dP, a, b, ch.dP(a), ch.dP(b))
        assert critical_scan(freq, beta, g, ch=ch).s_star == root


def test_bracket_search_reads_no_beta_partial(monkeypatch):
    """At 34/55, beta = 0.5, the sign check at the bracket ends and every
    Brent step of each open gap call `jet` at order 1; the evaluation at s*
    makes the one order-2 call."""
    freq, beta = F(34, 55), 0.5
    ch = chambers(freq, beta, verify=False)
    open_gaps = [g for g in gaps(freq, beta) if g.is_open]
    orders, refused = [], []
    jet = spectrum.ChambersData.jet

    def recorded(self, E, order=2):
        orders.append(order)
        return jet(self, E, order)

    monkeypatch.setattr(spectrum.ChambersData, "jet", recorded)
    lyapunov._point.cache_clear()  # an earlier test may have evaluated these s*
    for g in open_gaps:
        orders.clear()
        try:
            critical_scan(freq, beta, g, ch=ch)
        except ValueError:  # the cancelled margin of ROADMAP item 1, refused in `averages`
            refused.append(g.j)
        assert len(orders) > 3 and orders[-1] == 2 and set(orders[:-1]) == {1}, (g.j, orders)
    assert set(refused) <= {30}


def test_brent_refuses_like_brentq():
    from scipy.optimize import brentq

    def oracle(f, a, b):
        return brentq(f, a, b, xtol=lyapunov._BRENT_XTOL, rtol=lyapunov._BRENT_RTOL)

    def step(x):  # a sign change at 1e-200 and no zero: ~1040 halvings to reach xtol
        return -1.0 if x < 1e-200 else 1.0

    def brent(f, a, b):
        return lyapunov._brent(f, a, b, f(a), f(b))

    for solve in (oracle, brent):
        with pytest.raises(RuntimeError):
            solve(step, -1e300, 1e300)
        with pytest.raises(ValueError):
            solve(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            solve(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0)
    assert brent(lambda x: x - 0.25, 0.25, 1.0) == 0.25


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


@pytest.mark.parametrize("p", [0, 1])
def test_hessian_scalar_frequency_at_zero_coupling(p):
    # q = 1: the coupling curvature of c2 = -2 beta carries the factor q - 1 = 0,
    # so beta = 0 leaves the free energy diagonal -z / (z^2 - 4)^(3/2)
    rec = hessian(F(p, 1), 0.0, 5.0)
    assert abs(rec.d2z + 5.0 / 21.0 ** 1.5) <= 1e-14


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.3 + 0.2j, "gap", 3.7])
def test_trace_runs_no_eigensolve(monkeypatch, z):
    """The grid is sized from P(z), real or complex, and the refusal comes
    from the same strip, so the trace takes no band edges."""
    freq, beta = F(8, 13), 0.5
    if z == "gap":
        z = widest_gap(freq, beta).midpoint
    want = lyapunov_trace(freq, beta, z).value

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert lyapunov_trace(freq, beta, z).value == want


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
        assert abs(t - th) <= 1e-10 and abs(th - tr) <= 1e-10


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
    """At 377/610, beta = 1, P(4.5), which sizes the phases, overflows
    float64 and is refused.  At 610/987, beta 0.5, E = 2.646251256281407
    the float P is finite (1.2e308), but the monodromy of some phases is
    not, and the transfer refuses.  At E = 3.2 of 377/610 P fits; the
    squared monodromy trace would not, and the square-free multiplier
    |Re arccosh(t/2)| answers there, 2.0e-15 from `log_potential`."""
    freq, beta = F(377, 610), 1.0
    with pytest.raises(ArithmeticError, match=r"q=610, E=4\.5"):
        lyapunov_transfer(freq, beta, 4.5)
    assert math.isfinite(chambers(F(610, 987), 0.5, verify=False).P(2.646251256281407))
    with pytest.raises(ArithmeticError, match=r"monodromy leaves the float64 range at q=987"):
        lyapunov_transfer(F(610, 987), 0.5, 2.646251256281407)
    ch = chambers(freq, beta, verify=False)
    assert abs(lyapunov_transfer(freq, beta, 3.2).value - log_potential(ch, 3.2)) <= 1e-13


def test_torus_kernels_beyond_the_square_root_of_the_float_range():
    """|P| is 3e215 at hull top + 0.5 and 4.8e140 at s* of gap 233
    (377/610, beta = 1), beyond where D^2, or root^3, is finite: scaled by
    a power of 2, `log_potential` agrees with the transfer at the first,
    and at the second m1, m2, k2 and log match the 40-digit quadrature fed
    the same float (A, B, C) as closely as at small |P|.  n1 and n2 are odd
    in y and cancel to C/A = 4e-141 of m1 and m2, below the roundoff of any
    float sum of their terms, so they are checked at the scale of m1, m2."""
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    bands = band_edges(ch)
    top = bands.hull[1] + 0.5
    assert abs(ch.P(top)) > 1e200
    assert abs(log_potential(ch, top) - lyapunov_transfer(freq, beta, top).value) <= 1e-13
    g = [g for g in gaps(freq, beta) if g.j == 233][0]
    A = ch.P(critical_scan(freq, beta, g, ch=ch).s_star)
    assert abs(A) > 1e140
    got = averages(A, ch.c1, ch.c2, ("m1", "n1", "m2", "n2", "k2", "log"))
    ref = oracle_torus_kernels(A, ch.c1, ch.c2)
    for k in ("m1", "m2", "k2", "log"):
        assert abs(got[k] - ref[k]) <= 1e-14 * abs(ref[k]), k
    for k, scale in (("n1", "m1"), ("n2", "m2")):
        assert abs(got[k] - ref[k]) <= 1e-13 * abs(ref[scale]), k


@pytest.mark.parametrize("first", ["hessian", "gradient"])
def test_shared_evaluation_is_the_same_whichever_call_fills_it(first):
    """At the midpoint of gap 233 of 377/610, beta = 1, |P| = 3.6e140:
    whichever of `gradient` and `hessian` fills the shared evaluation, both
    answer, with the same numbers as cold calls."""
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    z = [g for g in gaps(freq, beta) if g.j == 233][0].midpoint
    calls = {"gradient": gradient, "hessian": hessian}
    other = "gradient" if first == "hessian" else "hessian"
    lyapunov._point.cache_clear()
    warm = {name: calls[name](freq, beta, z, ch=ch, edge_distance=0.0) for name in (first, other)}
    assert all(map(math.isfinite, (warm["gradient"].g0, warm["gradient"].g1,
                                   warm["hessian"].determinant)))
    for name, fn in calls.items():
        lyapunov._point.cache_clear()
        assert repr(fn(freq, beta, z, ch=ch, edge_distance=0.0)) == repr(warm[name])


def test_hessian_refuses_entries_beyond_the_float_range():
    """At 377/610, beta = 1, E = 3.2, P = 3.4e232 fits, and so does m1, so
    `gradient` answers, with its repr pinned; but P'^2 overflows and
    m2 = 1/P^2 underflows, so the Hessian's entries are not finite and
    `hessian` refuses, naming q and E."""
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    lyapunov._point.cache_clear()
    g = gradient(freq, beta, 3.2, ch=ch, edge_distance=0.0)
    assert math.isfinite(g.g0) and math.isfinite(g.g1) and g.g0 != 0.0
    assert repr(g) == ("GradientRecord(beta=1.0, z=3.2, g0=0.5936852069082804, "
                       "g1=-0.22494816552662464)")
    with pytest.raises(ArithmeticError, match=r"the Hessian leaves the float64 range at q=610, E=3\.2"):
        hessian(freq, beta, 3.2, ch=ch, edge_distance=0.0)


def test_averages_scale_covariantly_across_2_to_the_340():
    """D scaled by 2^400 crosses the scaling threshold 2^340: m1, n1 come
    back scaled by 2^-400 and m2, n2, k2 by 2^-800 bit for bit, and log
    shifted by 400 log 2 within 1e-15 relative."""
    rng = np.random.default_rng(340)
    k = 400
    for _ in range(40):
        B, C = rng.uniform(-2.0, 2.0, 2)
        A = rng.choice([-1.0, 1.0]) * (abs(B) + abs(C)) * (1.0 + 10.0 ** rng.uniform(-9, 1))
        base = averages(A, B, C, ("m1", "n1", "m2", "n2", "k2", "log"))
        big = averages(*(math.ldexp(x, k) for x in (A, B, C)),
                       ("m1", "n1", "m2", "n2", "k2", "log"))
        for name in ("m1", "n1"):
            assert big[name] == math.ldexp(base[name], -k), (A, B, C, name)
        for name in ("m2", "n2", "k2"):
            assert big[name] == math.ldexp(base[name], -2 * k), (A, B, C, name)
        want = base["log"] + k * math.log(2.0)
        assert abs(big["log"] - want) <= 1e-15 * abs(want), (A, B, C)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_q_610_transfer_agrees_with_log_potential(beta):
    """At 377/610 P reaches 1e215 at hull top + 0.5; there and at the
    midpoint of the widest open gap the transfer and `log_potential` agree
    (measured at most 2.4e-15 apart)."""
    freq = F(377, 610)
    ch = chambers(freq, beta, verify=False)
    bands = band_edges(ch)
    widest = max((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)
    for z in (bands.hull[1] + 0.5, widest.midpoint):
        assert abs(lyapunov_transfer(freq, beta, z).value - log_potential(ch, z)) <= 1e-13, z


def test_q_610_mirror_gaps_scan_with_their_hessians():
    """Gaps 233 and 377 of 377/610, beta = 1, are mirror images under
    E -> -E, with |P(s*)| = 4.8e140: `critical_scan` and `hessian` answer at
    both, s* opposite, g1 and the Hessian determinant equal."""
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    by_j = {g.j: g for g in gaps(freq, beta)}
    cp, cq = (critical_scan(freq, beta, by_j[j], ch=ch) for j in (233, 377))
    h, k = (hessian(freq, beta, c.s_star, ch=ch, edge_distance=0.0) for c in (cp, cq))
    assert abs(cp.s_star + cq.s_star) <= 1e-15
    assert abs(cp.g1_abs - cq.g1_abs) <= 1e-13 * cq.g1_abs
    assert abs(h.determinant - k.determinant) <= 1e-10 * abs(k.determinant)
    assert cp.g0_residual <= 1e-12 and cq.g0_residual <= 1e-12


def test_warm_hessian_equals_cold_and_gradient_equals_its_formula():
    """At every open gap of the golden convergents 8/13..55/89, beta 0.5
    and 1, the `hessian` that reads the evaluation left by `critical_scan`
    equals a cold one bit for bit, and g0, g1 equal the formula rebuilt
    from `jet` and an m1, n1 `averages` call.  The two gaps whose float
    margin cancels (ROADMAP item 1) raise as before."""
    refused = []
    for (p, q), beta in itertools.product([(8, 13), (13, 21), (21, 34), (34, 55), (55, 89)],
                                          [0.5, 1.0]):
        freq = F(p, q)
        ch = chambers(freq, beta, verify=False)
        for g in (g for g in gaps(freq, beta) if g.is_open):
            try:
                cp = critical_scan(freq, beta, g, ch=ch)
            except ValueError as err:
                assert "lies in the spectrum" in str(err)
                refused.append((p, q, beta, g.j))
                continue
            s = cp.s_star
            warm = hessian(freq, beta, s, ch=ch, edge_distance=0.0)
            grad = gradient(freq, beta, s, ch=ch, edge_distance=0.0)
            lyapunov._point.cache_clear()
            assert repr(hessian(freq, beta, s, ch=ch, edge_distance=0.0)) == repr(warm)
            P, dP, _, dbP, _, _ = ch.jet(s)
            av = averages(P, ch.c1, ch.c2, ("m1", "n1"))
            dc2 = -2.0 * q * beta ** (q - 1)
            g0, g1 = dP * av["m1"] / q, 0.5 * ((dbP * av["m1"] + dc2 * av["n1"]) / q)
            assert (repr(grad.g0), repr(grad.g1)) == (repr(g0), repr(g1)), (p, q, beta, g.j)
            assert (cp.g0_residual, cp.g1_abs) == (abs(g0), abs(g1))
    assert refused == [(34, 55, 0.5, 30), (55, 89, 0.5, 49)]


def test_scan_and_hessian_make_one_order_2_jet_and_one_averages_call(monkeypatch):
    """The bracket search calls `jet` at order 1 only; the closing evaluation
    at s* makes the one order-2 call and the one torus pass, which `hessian` then
    reads.  A cold `hessian` and a following `gradient` do the same."""
    freq, beta = F(55, 89), 1.0
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)
    orders, passes = [], []
    jet, torus = spectrum.ChambersData.jet, lyapunov.averages

    def recorded_jet(self, E, order=2):
        orders.append(order)
        return jet(self, E, order)

    def recorded_averages(*args):
        passes.append(args[3])
        return torus(*args)

    monkeypatch.setattr(spectrum.ChambersData, "jet", recorded_jet)
    monkeypatch.setattr(lyapunov, "averages", recorded_averages)
    lyapunov._point.cache_clear()
    cp = critical_scan(freq, beta, g, ch=ch)
    hessian(freq, beta, cp.s_star, ch=ch, edge_distance=0.0)
    assert orders.count(2) == 1 and set(orders) == {1, 2} and len(passes) == 1
    assert orders[-1] == 2 and set(passes[0]) == {"m1", "n1", "m2", "n2", "k2"}
    orders.clear(), passes.clear()
    hessian(freq, beta, g.midpoint, ch=ch, edge_distance=0.0)
    gradient(freq, beta, g.midpoint, ch=ch, edge_distance=0.0)
    assert orders == [2] and len(passes) == 1


def test_shared_evaluation_keeps_each_chambers_data_apart(monkeypatch):
    """Calls that alternate between two `ch` at one z, first 2/5 at two
    couplings, then 2/5 and 3/7 at one, each return their own `ch`'s
    cold values; a `ch` of another fraction or coupling is refused before
    the shared evaluation is read."""
    z = 3.9  # above the spectrum of both fractions at both couplings

    def values(freq, beta, ch):
        return repr((gradient(freq, beta, z, ch=ch, edge_distance=0.0),
                     hessian(freq, beta, z, ch=ch, edge_distance=0.0)))

    for pair in [((F(2, 5), 0.5), (F(2, 5), 0.7)), ((F(2, 5), 0.7), (F(3, 7), 0.7))]:
        chs = [chambers(freq, beta, verify=False) for freq, beta in pair]
        cold = []
        for (freq, beta), ch in zip(pair, chs):
            lyapunov._point.cache_clear()
            cold.append(values(freq, beta, ch))
        assert cold[0] != cold[1]
        lyapunov._point.cache_clear()
        for _ in range(2):
            for (freq, beta), ch, want in zip(pair, chs, cold):
                assert values(freq, beta, ch) == want

    def unread(*args):
        raise AssertionError("the shared evaluation was read")
    monkeypatch.setattr(lyapunov, "_point", unread)
    other = chambers(F(3, 7), 0.7, verify=False)
    for fn in (gradient, hessian):
        with pytest.raises(ValueError, match="ch is built for"):
            fn(F(2, 5), 0.7, z, ch=other, edge_distance=0.0)


def test_psi_count_with_an_infinite_strip():
    """At 377/610, beta = 0.5, |c2| = 4.7e-184, so margin/|c2| squared
    overflows and the strip is infinite: the floor of 8 trapezoid nodes,
    which sums cos psi to 0 and cos^2 psi to 1/2, so n1 = <y/D> is 0 and
    k2 = <y^2/D^2> half of m2 = <1/D^2> to roundoff, and no warning."""
    freq, beta = F(377, 610), 0.5
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = critical_scan(freq, beta, g, ch=ch)
        A = ch.P(cp.s_star)
        assert strip(A, ch.c1, ch.c2) == math.inf
        got = averages(A, ch.c1, ch.c2, ("m1", "n1", "m2", "k2"))
    assert abs(got["n1"]) <= 1e-15 * abs(got["m1"])
    assert abs(got["k2"] - 0.5 * got["m2"]) <= 1e-15 * got["m2"]
    assert g.lo < cp.s_star < g.hi and cp.g0_residual <= 1e-12


@pytest.mark.parametrize("C", [-0.012, -1e-6])
def test_psi_floor_of_8_nodes_at_a_wide_strip(C):
    """At A = 4, B = -2 the strip is 5.8 (C = -0.012) and 15.2 (C = -1e-6),
    where `nodes` asks for 7 and 3: the floor of 8 keeps n1 within 1e-14 of
    m1 and k2 within 1e-14 of m2 against the 40-digit quadrature.  Measured
    9.4e-16 at most; a floor of 7 leaves k2 3.1e-13 off at C = -0.012, a
    floor of 3 1.9e-7 off at C = -1e-6."""
    A, B = 4.0, -2.0
    assert nodes(strip(A, B, C), 64, "A", A) < 8
    got = averages(A, B, C, ("m1", "n1", "m2", "k2"))
    ref = oracle_torus_kernels(A, B, C)
    assert abs(got["n1"] - ref["n1"]) <= 1e-14 * abs(ref["m1"])
    assert abs(got["k2"] - ref["k2"]) <= 1e-14 * ref["m2"]


def test_averages_answer_a_strip_of_3e_minus_7():
    """At A = 4 + 1e-13, B = C = -2 the psi strip is 3.2e-7, where the
    trapezoid would need 1.3e8 nodes (the old cap of 2^22 refused it): the
    graded rule's six kernels match the 40-digit quadrature, m1, m2, k2 and
    log within 1e-14 relative and n1, n2 within 1e-14 of m1, m2.  Measured
    1.4e-15 at most."""
    A = 4 + 1e-13
    assert strip(A, -2.0, -2.0) * 64 < 40.0
    got = averages(A, -2.0, -2.0, ("m1", "n1", "m2", "n2", "k2", "log"))
    ref = oracle_torus_kernels(A, -2.0, -2.0)
    for k, scale in (("m1", "m1"), ("n1", "m1"), ("m2", "m2"), ("n2", "m2"), ("k2", "k2"),
                     ("log", "log")):
        assert abs(got[k] - ref[k]) <= 1e-14 * abs(ref[scale]), k


def test_averages_refuse_the_spectrum_without_a_node_count():
    """`averages` has no node cap, so its one refusal, strip 0, names the point
    and the strip and no node count: at M = 0 with either amplitude the larger,
    inside the spectrum, and at the critical scan's gap 30 of 34/55, beta 0.5,
    whose float margin is not positive."""
    for A, B, C in ((4.0, -2.0, -2.0), (-3.0, -2.0, -1.0), (3.0, -1.0, -2.0), (1.0, -2.0, -2.0)):
        with pytest.raises(ValueError) as exc:
            averages(A, B, C, ("m1", "log"))
        assert str(exc.value) == f"A={A} lies in the spectrum: its phase strip is 0"
    freq = F(34, 55)
    g = next(g for g in gaps(freq, 0.5) if g.j == 30)
    with pytest.raises(ValueError, match=r"^A=\S+ lies in the spectrum: its phase strip is 0$"):
        critical_scan(freq, 0.5, g)


# (fraction, beta, widest or narrowest open gap, bound): relative error of
# the trapezoid m1 at the gap midpoint against the elliptic closed form.
# Measured 0, 0, 1.2e-16 and 0 (margins down to 2.5e-12 in the narrow gaps)
M1_ORACLE_POINTS = [((2, 5), 0.7, max, 1e-15), ((55, 89), 0.5, max, 1e-15),
                    ((8, 13), 0.3, min, 1e-15), ((8, 13), 0.1, min, 1e-15)]


@pytest.mark.parametrize("pq,beta,pick,bound", M1_ORACLE_POINTS)
def test_m1_kernel_against_elliptic_closed_form(pq, beta, pick, bound):
    freq = F(*pq)
    ch = chambers(freq, beta, verify=False)
    g = pick((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)
    A = ch.P(g.midpoint)
    ref = oracle_average_inverse(A, ch.c1, ch.c2)
    got = averages(A, ch.c1, ch.c2, ("m1",))["m1"]
    assert abs(got - ref) <= bound * abs(ref)


# (fraction, beta, gaps): s* of the narrowest open gap, of both 3.9e-7-wide
# gaps of 8/13 at beta 0.1, or of gap j.  At beta > 1 |c2| > |c1| = 2, and
# M = |A| - |c1| - |c2| taken in that order rounded at ulp(|A|): m1 was
# 1.0e-7 and 2.9e-7 off at 21/34 j = 28 and 34/55 j = 27, and the narrowest
# gaps there needed more trapezoid nodes than the old cap of 2^22
KERNEL_ORACLE_POINTS = [((34, 55), 0.5, "narrowest"), ((8, 13), 0.1, "both 3.9e-7 gaps"),
                        ((21, 34), 1.0, "narrowest"), ((8, 13), 3.0, "narrowest"),
                        ((21, 34), 3.0, 28), ((34, 55), 2.0, 27),
                        ((21, 34), 3.0, "narrowest"), ((34, 55), 2.0, "narrowest")]


@pytest.mark.parametrize("pq,beta,pick", KERNEL_ORACLE_POINTS)
def test_torus_kernels_against_40_digit_quadrature(pq, beta, pick):
    """All six kernels at s*, against mpmath fed the same float (A, B, C).
    Measured at most 6.0e-15 relative for m1, m2, k2 and log (8/13, beta 3)
    and 4.7e-14 for n1 and n2 (34/55, beta 0.5), whose sums cancel; at the
    four beta > 1 gaps, where the graded rule answers, at most 1.9e-15."""
    freq = F(*pq)
    ch = chambers(freq, beta, verify=False)
    open_gaps = [g for g in gaps(freq, beta) if g.is_open]
    if pick == "narrowest":
        picked = [min(open_gaps, key=lambda g: g.width)]
    elif isinstance(pick, int):
        picked = [g for g in open_gaps if g.j == pick]
        assert len(picked) == 1
    else:
        picked = [g for g in open_gaps if g.width < 5e-7]
        assert len(picked) == 2
    for g in picked:
        A = ch.P(critical_scan(freq, beta, g, ch=ch).s_star)
        got = averages(A, ch.c1, ch.c2, ("m1", "n1", "m2", "n2", "k2", "log"))
        for k, ref in oracle_torus_kernels(A, ch.c1, ch.c2).items():
            bound = 1e-13 if k in ("n1", "n2") else 1e-14
            assert abs(got[k] - ref) <= bound * abs(ref), (g.j, k)


# the float64 potentials leave the monodromy trace, and P, with O(1) errors
# at the top gaps of these two: 3/64 gap 59 reads P = -6.65 where the exact
# value is -5.647, and the transfer is 7.8e-4 off a 60-digit reference there
_ILL_CONDITIONED = pytest.mark.xfail(strict=True, reason="continuant roundoff at the top gaps")


@pytest.mark.parametrize("p,q", [(3, 16), (5, 32), pytest.param(3, 64, marks=_ILL_CONDITIONED),
                                 (1, 128), pytest.param(3, 256, marks=_ILL_CONDITIONED)])
def test_transfer_samples_one_period_at_even_q(p, q):
    """The transfer integrand has period 1/q; sampling [0, 1) with a fixed
    count saw 256/gcd(256, q) distinct phases.  Every open gap at beta 1, at
    the midpoint and 5% of the width above the lower edge, is within 1e-11
    of `log_potential`: measured 4.4e-14, 3.0e-12 and 1.1e-15 at 3/16, 5/32
    and 1/128, where the 256-phase sample was off by 1.0e-6, 2.1e-4 and
    1.1e-3."""
    freq = F(p, q)
    ch = chambers(freq, 1.0, verify=False)
    for g in gaps(freq, 1.0):
        if g.is_open:
            for e in (g.midpoint, g.lo + 0.05 * g.width):
                assert abs(lyapunov_transfer(freq, 1.0, e).value
                           - log_potential(ch, e)) <= 1e-11, g.j


@pytest.mark.parametrize("p, q, beta", [(1, 1, 0.7), (2, 5, 1.5), (8, 13, 0.5), (21, 34, 0.5),
                                        (55, 89, 0.5)])
def test_transfer_potentials_built_once_equal_the_per_step_loop(p, q, beta):
    """The (q, n) potentials taken from one cos before the q-step loop give the
    transfer of the per-step loop `repr` for `repr`: at real E (open-gap
    midpoints, hull +- 0.5), at complex E, and on the spectrum (band
    means), where the strip is 0 and the route takes 256 phases."""
    freq, ch = F(p, q), chambers(F(p, q), beta, verify=False)
    bands = band_edges(ch)
    lo, hi = bands.hull
    real = [g.midpoint for g in gaps(freq, beta) if g.is_open][:6] + [lo - 0.5, hi + 0.5]
    on = [0.5 * (a + b) for a, b in bands.bands][:6]
    for e in real + [0.3 + 0.2j, -1.1 + 0.05j] + on:
        width = strip(ch.P(e), ch.c1, ch.c2)
        assert (width == 0) == (e in on)
        n = nodes(width, 1 << 16, "E", e) if width else 256
        assert repr(lyapunov_transfer(freq, beta, e).value) == repr(
            oracle_transfer_steps(p, q, beta, e, n)), e


@pytest.mark.parametrize("p, q", [(13, 21), (21, 34)])
def test_transfer_potentials_in_blocks_equal_the_per_step_loop(p, q):
    """Above 2^20 (step, phase) pairs one cos builds the potentials of each
    block of steps, still `repr`-equal to the per-step loop: at beta 1 just
    above the hull top, halving the offset until q n > 2^20 (57246 phases
    at 13/21 and 32442 at 21/34, 3.0e-10 above the top)."""
    freq, ch = F(p, q), chambers(F(p, q), 1.0, verify=False)
    top, d = band_edges(ch).hull[1], 1e-2
    while (n := nodes(strip(ch.P(top + d), ch.c1, ch.c2), 1 << 16, "E", top + d)) * q <= 1 << 20:
        d /= 2
    assert repr(lyapunov_transfer(freq, 1.0, top + d).value) == repr(
        oracle_transfer_steps(p, q, 1.0, top + d, n))


def test_transfer_sizes_its_phases_by_the_strip_or_refuses():
    """At every open-gap midpoint of 5/8, 8/13 and 21/34, beta 1.5, 2 and 3,
    the transfer is within 1e-12 of `log_potential` (measured 1.35e-13), or
    it refuses and states the strip: 29 of 150 need more than 2^16 phases.
    A fixed cap of 256 phases answered all of them, up to 1.2e-3 off.  At
    21/34, beta 3, gap 30, the float P puts the midpoint on the spectrum, so
    `log_potential` refuses and there is nothing to compare."""
    points = refused = unchecked = 0
    for pq in ((5, 8), (8, 13), (21, 34)):
        for beta in (1.5, 2.0, 3.0):
            freq, ch = F(*pq), chambers(F(*pq), beta, verify=False)
            for g in gaps(freq, beta):
                if not g.is_open:
                    continue
                points += 1
                try:
                    value = lyapunov_transfer(freq, beta, g.midpoint).value
                except ValueError as exc:
                    assert "its phase strip" in str(exc) and "more than 65536 nodes" in str(exc)
                    refused += 1
                    continue
                try:
                    reference = log_potential(ch, g.midpoint)
                except ValueError:
                    unchecked += 1
                    continue
                assert abs(value - reference) <= 1e-12, (pq, beta, g.j)
    assert (points, refused, unchecked) == (150, 29, 1)


def test_derivatives_refuse_data_of_another_fraction_or_coupling():
    """5/8 with the `ch` of 8/13 read g0 -0.062 where the right value is
    0.024: a `ch` whose (freq, beta) differs from the arguments is refused."""
    freq, beta = F(5, 8), 0.5
    g = widest_gap(freq, beta)
    for other in (chambers(F(8, 13), beta, verify=False), chambers(freq, 0.7, verify=False)):
        for fn in (gradient, hessian):
            with pytest.raises(ValueError, match="ch is built for"):
                fn(freq, beta, g.midpoint, ch=other, edge_distance=0.0)
        with pytest.raises(ValueError, match="ch is built for"):
            critical_scan(freq, beta, g, ch=other)
    ch = chambers(freq, beta, verify=False)
    assert gradient(freq, beta, g.midpoint, ch=ch) == gradient(freq, beta, g.midpoint)


# (p, q, beta, j of the widest open gap): its s* scan, then gradient and hessian at the
# gap midpoint with the default edge check, and the hessian at s* that reads the scan's
# evaluation
PINNED_GAP_POINTS = {
    (2, 5, 0.7, 2): (
        "(-0.8140324221431405, 1.4832993992000526e-16, 0.2649678474811184)",
        "GradientRecord(beta=0.7, z=-0.8053584531882886, g0=-0.007058198611977491, "
        "g1=0.26343476666296195)",
        "HessianRecord(beta=0.7, z=-0.8053584531882886, d2z=-0.8132243932912715, "
        "dzdbeta=-0.3485023187068845, d2beta=-0.21598692051030338)",
        "HessianRecord(beta=0.7, z=-0.8140324221431405, d2z=-0.8143114845084186, "
        "dzdbeta=-0.3585228628156204, d2beta=-0.22321252863135257)"),
    (5, 8, 1.0, 5): (
        "(1.119116014207426, 1.5605420533527875e-18, 0.24999999999999997)",
        "GradientRecord(beta=1.0, z=1.065862885661271, g0=0.030313930834978957, "
        "g1=0.24192237655112322)",
        "HessianRecord(beta=1.0, z=1.065862885661271, d2z=-0.5659856118450164, "
        "dzdbeta=0.28647456332445514, d2beta=-0.2784896130951011)",
        "HessianRecord(beta=1.0, z=1.119116014207426, d2z=-0.5740518378030123, "
        "dzdbeta=0.32121530233527734, d2beta=-0.30691005016082107)"),
    (13, 21, 1.5, 8): (
        "(-1.3673323958130807, 1.095389539663596e-16, 0.2150897619483469)",
        "GradientRecord(beta=1.5, z=-1.325295683743958, g0=-0.015830694035699994, "
        "g1=0.21040639178793022)",
        "HessianRecord(beta=1.5, z=-1.325295683743958, d2z=-0.37523956859932045, "
        "dzdbeta=-0.2165090662904241, d2beta=-0.26744139320010907)",
        "HessianRecord(beta=1.5, z=-1.3673323958130807, d2z=-0.3784081737710644, "
        "dzdbeta=-0.22944091895684646, d2beta=-0.2800960724927257)"),
}


@pytest.mark.parametrize("p, q, beta, j", list(PINNED_GAP_POINTS),
                         ids=["2/5", "5/8", "13/21"])
def test_gap_point_derivatives_are_pinned(p, q, beta, j):
    """The scan, the gradient and both Hessians at the widest gap keep their reprs
    (numpy 2.4, glibc libm), whichever evaluation order fills the shared cache."""
    freq = F(p, q)
    ch = chambers(freq, beta, verify=False)
    g = widest_gap(freq, beta)
    assert g.j == j
    lyapunov._point.cache_clear()
    cp = critical_scan(freq, beta, g, ch=ch)
    got = (repr((cp.s_star, cp.g0_residual, cp.g1_abs)), repr(gradient(freq, beta, g.midpoint)),
           repr(hessian(freq, beta, g.midpoint)),
           repr(hessian(freq, beta, cp.s_star, ch=ch, edge_distance=0.0)))
    assert got == PINNED_GAP_POINTS[p, q, beta, j]


def test_trace_agrees_or_refuses_with_the_strip_at_beta_above_one():
    """At the open-gap midpoints of 5/8 and 8/13, beta 1.5, 2 and 3, the trace
    route either agrees with `log_potential` and the transfer within 1e-13 or
    refuses with the strip wording of `_torus.nodes` (measured: 40 answered,
    14 refused, at most 4.4e-15 apart)."""
    answered = refused = 0
    for (p, q), beta in itertools.product([(5, 8), (8, 13)], [1.5, 2.0, 3.0]):
        freq = F(p, q)
        ch = chambers(freq, beta, verify=False)
        for g in (g for g in gaps(freq, beta) if g.is_open):
            z = g.midpoint
            try:
                value = lyapunov_trace(freq, beta, z).value
            except ValueError as err:
                assert "the spectrum: its phase strip" in str(err) and "nodes" in str(err)
                refused += 1
                continue
            answered += 1
            for other in (log_potential(ch, z), lyapunov_transfer(freq, beta, z).value):
                assert abs(value - other) <= 1e-13, (p, q, beta, g.j)
    assert (answered, refused) == (40, 14)
