import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harperlab import spectrum
from harperlab import (BandSet, ChambersError, RationalFrequency, band_edges, chambers,
                       corner_bands, corner_edges, critical_scan, dual_check, gap_label, gaps,
                       gradient, harper_matrix, hausdorff_intervals, ids,
                       log_potential, track_gap)
from harperlab.butterfly import (butterfly_fractions, compute_butterfly, parse_dataset,
                                 serialize_dataset)
from harperlab.spectrum import (_band_measure, _fmt, _verify_phase_independence, gap_csv,
                               gap_table, gap_tables)
from conftest import (center_eigenvalues, hausdorff_intervals_loop, interval_union_distance,
                      oracle_band_measure,
                      oracle_band_sweep, oracle_center_jet, oracle_chern_numbers,
                      oracle_continuant, oracle_corner_edges, oracle_gap_label, oracle_harper, oracle_ids_counting)


def F(p, q):
    return RationalFrequency(p, q)


def test_chambers_scalar_case():
    ch = chambers(F(1, 1), 0.7)
    assert np.allclose(np.poly(center_eigenvalues(F(1, 1), 0.7)), [1.0, 0.0],
                       atol=1e-14)  # P(E) = E
    assert ch.c1 == -2.0
    assert ch.c2 == -2.0 * 0.7


def test_chambers_half_flux():
    beta = 0.5
    ch = chambers(F(1, 2), beta)
    # P(E) = E^2 - 2 - 2 beta^2
    assert np.allclose(np.poly(center_eigenvalues(F(1, 2), beta)),
                       [1.0, 0.0, -2 - 2 * beta ** 2], atol=1e-12)
    bands = band_edges(ch)
    edge = 2.0 * math.sqrt(1 + beta ** 2)   # frozen: 2.23606797749979
    assert abs(bands.bands[0][0] + edge) <= 1e-12
    assert abs(bands.bands[1][1] - edge) <= 1e-12
    assert abs(bands.bands[0][1]) <= 1e-12 and abs(bands.bands[1][0]) <= 1e-12


def test_chambers_amplitude_ratio():
    for (p, q) in ((1, 3), (2, 5), (5, 8)):
        for beta in (0.3, 0.8):
            ch = chambers(F(p, q), beta)
            assert abs(abs(ch.c2) / abs(ch.c1) - beta ** q) <= 1e-14


def test_chambers_phase_independence_runs_for_a_spread():
    for (p, q) in ((1, 3), (3, 7), (5, 8), (8, 13)):
        for beta in (0.1, 0.5, 1.0):
            chambers(F(p, q), beta, verify=True)  # raises ChambersError on failure


def test_band_edges_against_dense_sweep():
    for (p, q, beta) in ((1, 3, 1.0), (1, 3, 0.5), (2, 5, 0.7), (5, 8, 0.25)):
        bands = band_edges(chambers(F(p, q), beta, verify=False))
        oracle = oracle_band_sweep(p, q, beta, n=32)
        for (lo, hi), (olo, ohi) in zip(bands.bands, oracle):
            assert abs(lo - olo) <= 1e-8
            assert abs(hi - ohi) <= 1e-8


@pytest.mark.parametrize("p, q", [(73, 144), (307, 610)])
@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
def test_thin_band_fractions(p, q, beta):
    """Bands and gaps down to roundoff width, from the two corner
    eigensolves alone: band widths below 1e-6 and gaps near 1e-15."""
    bands = corner_bands(F(p, q), beta)
    widths = [hi - lo for lo, hi in bands.bands]
    assert min(widths) < 1e-6  # the data does contain thin bands
    edges = [x for iv in bands.bands for x in iv]
    assert len(bands.bands) == q and edges == sorted(edges)
    # independent complex assembly in the uniform gauge, both corners
    oracle = np.sort(np.concatenate([np.linalg.eigvalsh(oracle_harper(p, q, beta, t, t))
                                     for t in (0.0, np.pi / q)]))
    assert np.max(np.abs(np.array(edges) - oracle)) <= 1e-12
    recs = gaps(F(p, q), beta)
    assert recs and [g.j for g in recs] == sorted({g.j for g in recs})
    assert all(g.label[0] * q + g.label[1] * p == g.j and g.lo <= g.hi for g in recs)


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_thin_band_fraction_chambers_and_critical_point(beta):
    freq = F(73, 144)
    ch = chambers(freq, beta)  # verify=True: det(-H) minus the cosines against P(0)
    g = max((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)
    cp = critical_scan(freq, beta, g, ch=ch)
    assert g.lo < cp.s_star < g.hi


def test_chambers_without_verify_runs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    ch = chambers(F(21, 34), 0.8, verify=False)
    assert len(ch.potential) == 34 and len(ch.jet(0.3)) == 6
    assert ch.P(0.3) == ch.jet(0.3, 0)[0] and ch.dP(0.3) == ch.jet(0.3, 1)[1]


def test_verify_compares_the_determinant_with_the_continuant():
    for p, q, beta in ((5, 8, 0.7), (55, 89, 1.0)):
        ch = chambers(F(p, q), beta)
        shifted = replace(ch, potential=(ch.potential[0] + 1e-6,) + ch.potential[1:])
        with pytest.raises(ChambersError):
            _verify_phase_independence(shifted)


def test_verify_scale_stays_finite_at_large_q():
    # max|lambda|^q leaves float64 here; the roundoff scale of the product does not
    ch = chambers(F(377, 610), 1.5)
    assert ch.q == 610


def test_jet_matches_the_eigenvalue_product():
    # P is monic with the center-phase eigenvalues as roots
    for (p, q, beta) in ((1, 2, 0.5), (3, 7, 0.9), (8, 13, 1.0)):
        ch = chambers(F(p, q), beta, verify=False)
        lam = center_eigenvalues(F(p, q), beta)
        for e in (-4.1, 0.37, 2.9):
            prod = float(np.prod(e - lam))
            assert abs(ch.P(e) - prod) <= 1e-12 * max(1.0, abs(prod))


# errors relative to |P| that the earlier root-product form of P (center-phase
# eigenvalues with perturbative coupling derivatives) met at the points below,
# in the order of `jet`; its worst was at 21/34, beta = 1, for every entry
JET_ORACLE_BOUNDS = (2.5e-13, 2e-11, 5e-9, 2e-11, 7e-9, 9e-9)


def test_jet_against_mpmath_determinant():
    """P and its five partials at nine gap midpoints against a 50-digit
    determinant of the center-phase matrix differentiated by mp.diff; the
    widest or the narrowest open gap of each fraction, all partials up to
    q = 34, P alone at q = 55.  The 50-digit continuant oracle gives the
    determinant's P there within 1e-40 relative."""
    points = [((3, 7), 0.5, max), ((5, 8), 1.0, min), ((8, 13), 0.3, max),
              ((8, 13), 1.0, min), ((13, 21), 0.5, min), ((13, 21), 1.0, max),
              ((21, 34), 1.0, min), ((34, 55), 0.5, min), ((34, 55), 1.0, max)]
    worst = np.zeros(6)
    for (p, q), beta, pick in points:
        g = pick((g for g in gaps(F(p, q), beta) if g.is_open), key=lambda g: g.width)
        ref = oracle_center_jet(p, q, beta, g.midpoint, partials=q <= 34)
        assert abs(oracle_continuant(p, q, beta, g.midpoint) - ref[0]) <= 1e-40 * abs(ref[0])
        got = chambers(F(p, q), beta, verify=False).jet(g.midpoint)
        errs = [float(abs(mpmath.mpf(x) - r) / abs(ref[0])) for x, r in zip(got, ref)]
        worst[:len(errs)] = np.maximum(worst[:len(errs)], errs)
    assert np.all(worst <= JET_ORACLE_BOUNDS), f"errors relative to |P|: {worst}"


def test_P_outside_the_float_range_is_refused():
    freq, beta = F(377, 610), 1.0
    ch = chambers(freq, beta, verify=False)
    for call in (lambda: ch.P(5.0), lambda: ch.dP(5.0), lambda: ch.jet(5.0),
                 lambda: log_potential(ch, 5.0), lambda: gradient(freq, beta, 5.0)):
        with pytest.raises(ArithmeticError, match=r"q=610, E=5\.0"):
            call()


# real points integer-valued where an int E is also tried; complex ones off the axis
JET_POINTS = {float: (-3.0, -0.75, 0.0, 0.3, 2.0), complex: (-1.5 + 0.25j, 0.3 + 1e-3j, 2.0 - 0.5j)}


@pytest.mark.parametrize("kind", (float, complex))
@pytest.mark.parametrize("p, q, beta", ((8, 13, 0.7), (34, 55, 1.0)))
def test_scalar_and_array_jets_agree(kind, p, q, beta):
    """Orders 0, 1 and 2 at a Python number, an int, a numpy scalar, a 0-d
    array and an entry of a 1-D array give Python numbers, equal bit for bit.
    At real E they equal the 1-D call entry by entry, bit for bit.  At
    complex E only to 64 eps relative: numpy's complex array product may be
    fused (FMA on AVX-512 hosts), where Python's rounds each real product."""
    ch = chambers(F(p, q), beta, verify=False)
    points = np.array(JET_POINTS[kind])
    for order in (0, 1, 2):
        batch = ch.jet(points, order)
        assert len(batch) == (1, 2, 6)[order]
        for k, e in enumerate(points):
            scalars = [e.item(), e, np.asarray(e), points[k:k + 1].reshape(()), points[k]]
            if kind is float and e.item().is_integer():
                scalars.append(int(e))
            first = ch.jet(scalars[0], order)
            for E in scalars:
                got = ch.jet(E, order)
                assert all(type(x) is kind for x in got), (E, order)
                assert [np.asarray(x).tobytes() for x in got] == [
                    np.asarray(x).tobytes() for x in first]
            if kind is float:
                assert [np.asarray(x).tobytes() for x in first] == [b[k].tobytes() for b in batch]
            else:
                tol = 64 * np.finfo(float).eps
                assert all(abs(x - b[k]) <= tol * abs(x) for x, b in zip(first, batch))


def test_jet_refuses_overflow_and_nan_for_every_scalar_type():
    big = chambers(F(377, 610), 1.0, verify=False)  # P(5) leaves float64
    small = chambers(F(8, 13), 0.7, verify=False)
    for ch, e in ((big, 5.0), (small, math.nan)):
        for E in (e, np.float64(e), np.asarray(e), complex(e), np.complex128(e),
                  *((5,) if e == 5.0 else ())):
            for order in (0, 1, 2):
                with pytest.raises(ArithmeticError, match=f"q={ch.q}, E="):
                    ch.jet(E, order)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError):
            ch.jet(np.array([0.0, e]), 1)


def test_harper_matrix_broadcasts_over_phases():
    freq, beta = F(3, 7), 0.6
    a = np.array([0.1, 0.7, 2.0])
    b = np.array([[0.3], [1.1]])
    batch = harper_matrix(freq, beta, a, b)
    assert batch.shape == (2, 3, 7, 7)
    for i in range(2):
        for k in range(3):
            single = harper_matrix(freq, beta, a[k], b[i, 0])
            assert np.array_equal(batch[i, k], single)
            # same spectrum as the independent uniform-gauge assembly
            assert np.allclose(np.linalg.eigvalsh(single),
                               np.linalg.eigvalsh(oracle_harper(3, 7, beta, a[k], b[i, 0])),
                               atol=1e-13)


def numerators(q):
    return [p for p in range(q + 1) if math.gcd(p, q) == 1 and (p < q or q == 1)]


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.5])
def test_corner_edges_match_dense_corners(beta):
    """The reflection-folded, batched corner solve against one dense
    eigensolve per corner of every fraction with q <= 40 (0/1, 1/1 and
    1/2 included); the largest difference measured is 2.7e-14, at
    1/29, beta 2.5."""
    for q in range(1, 41):
        ps = numerators(q)
        edges = corner_edges(q, ps, beta)
        assert edges.shape == (len(ps), 2 * q)
        for p, got in zip(ps, edges):
            dense = np.sort(np.concatenate([
                np.linalg.eigvalsh(harper_matrix(F(p, q), beta, t, t).real)
                for t in (0.0, np.pi / q)]))
            assert np.max(np.abs(got - dense)) <= 3e-14, (p, q)


@pytest.mark.parametrize("p, q", [(1, 45), (5, 58)])
def test_corner_edges_against_40_digit_corners(p, q):
    """Both corners of an odd and an even q, against mpmath at 40 digits."""
    got = corner_edges(q, [p], 1.0)[0]
    want = np.array([float(x) for x in oracle_corner_edges(p, q, 1.0)])
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_mirror_fractions_have_one_band_set(beta):
    """p/q and (q - p)/q have one spectrum, H(1 - alpha, theta) = H(alpha, -theta):
    `corner_bands`, each fraction solved alone, gives them equal bands bit for
    bit for every reduced p/q with q <= 40, and within 1e-12 of one dense
    eigensolve per corner of the uniform-gauge matrix of p/q itself."""
    for q in range(1, 41):
        for p in numerators(q):
            bands = corner_bands(F(p, q), beta).bands
            assert bands == corner_bands(F(q - p, q), beta).bands, (p, q)
            dense = np.sort(np.concatenate([np.linalg.eigvalsh(oracle_harper(p, q, beta, t, t))
                                            for t in (0.0, np.pi / q)]))
            assert np.max(np.abs(np.ravel(bands) - dense)) <= 1e-12, (p, q)


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.5])
def test_odd_q_corner_edges_are_exactly_mirror_symmetric(beta):
    """For odd q the lo corner is the negated hi corner, so E -> -E maps
    the edges onto themselves exactly, not to roundoff."""
    for q in range(1, 42, 2):
        edges = corner_edges(q, numerators(q), beta)
        assert np.array_equal(edges, -edges[:, ::-1])


def test_corner_bands_rejects_negative_coupling():
    with pytest.raises(ValueError):
        corner_bands(F(1, 3), -0.5)


def test_band_edges_wraps_corner_bands_and_keeps_chambers():
    ch = chambers(F(5, 8), 0.7, verify=False)
    wrapped = band_edges(ch)
    assert wrapped.bands == corner_bands(F(5, 8), 0.7).bands
    assert wrapped == corner_bands(F(5, 8), 0.7)


@pytest.mark.parametrize("p,q,beta", [(2, 5, 0.7), (8, 13, 0.5)])
def test_ids_is_the_torus_measure_for_every_band_set(p, q, beta):
    """Bands from `corner_bands`, `band_edges` or plain edges give one IDS, bit for bit."""
    freq = F(p, q)
    via_ch = band_edges(chambers(freq, beta, verify=False))
    lo, hi = via_ch.hull
    E = np.linspace(lo - 0.3, hi + 0.3, 2001)
    want = ids(via_ch, E).tobytes()
    assert ids(corner_bands(freq, beta), E).tobytes() == want
    assert ids(BandSet(freq, beta, via_ch.bands), E).tobytes() == want


def test_band_edges_free_case_single_band():
    for (p, q) in ((1, 3), (1, 4), (2, 5)):
        bands = band_edges(chambers(F(p, q), 0.0, verify=False))
        assert len(bands.bands) == q
        # consecutive bands touch: the union is the single band [-2, 2]
        assert all(abs(b[0] - a[1]) <= 1e-9 for a, b in zip(bands.bands, bands.bands[1:]))
        lo, hi = bands.hull
        assert abs(lo + 2.0) <= 1e-12 and abs(hi - 2.0) <= 1e-12


def test_band_set_invariants():
    for (p, q, beta) in ((2, 5, 0.5), (5, 8, 1.0), (8, 13, 0.3)):
        bands = band_edges(chambers(F(p, q), beta, verify=False))
        assert len(bands.bands) == q
        for (l1, h1), (l2, h2) in zip(bands.bands, bands.bands[1:]):
            assert l1 <= h1 <= l2 + 1e-12
        lo, hi = bands.hull
        assert lo >= -(2 + 2 * beta) - 1e-12 and hi <= 2 + 2 * beta + 1e-12
        # spectral symmetry E -> -E
        mirrored = sorted((-h, -l) for l, h in bands.bands)
        for (l1, h1), (l2, h2) in zip(bands.bands, mirrored):
            assert abs(l1 - l2) <= 1e-10 and abs(h1 - h2) <= 1e-10


def test_even_q_central_touching():
    for (p, q) in ((1, 2), (1, 4), (3, 8)):
        for beta in (0.5, 1.0):
            bands = band_edges(chambers(F(p, q), beta, verify=False))
            j = q // 2
            assert bands.bands[j][0] - bands.bands[j - 1][1] <= 1e-12


def test_ids_outside_spectrum():
    bands = band_edges(chambers(F(1, 3), 0.5, verify=False))
    assert ids(bands, -10.0) == 0.0
    assert ids(bands, 10.0) == 1.0


def test_ids_in_gap_is_exact():
    bands = band_edges(chambers(F(1, 3), 0.5, verify=False))
    g = bands.gap_intervals()
    assert ids(bands, 0.5 * (g[0][0] + g[0][1])) == 1.0 / 3.0
    assert ids(bands, 0.5 * (g[1][0] + g[1][1])) == 2.0 / 3.0


@pytest.mark.parametrize("p, q, beta", [(3, 8, 0.5), (21, 34, 0.5), (2, 5, 0.7)])
def test_ids_array_equals_scalar_calls(p, q, beta):
    """Hull exterior, every band edge (the even-q central pair touches),
    gap midpoints, interior points and the graded nodes of each band, with
    and without the determinant data."""
    for bands in (band_edges(chambers(F(p, q), beta, verify=False)), corner_bands(F(p, q), beta)):
        lo, hi = bands.hull
        shape = (1.0 - np.cos(np.pi * np.arange(9) / 8)) / 2.0
        xs = np.concatenate([
            [lo - 1.0, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf), hi + 1.0],
            [x for iv in bands.bands for x in iv],
            [0.5 * (a + b) for a, b in bands.gap_intervals()],
            np.concatenate([a + (b - a) * shape for a, b in bands.bands]),
        ])
        got = ids(bands, xs)
        assert got.shape == xs.shape
        assert got.tobytes() == np.array([ids(bands, float(x)) for x in xs]).tobytes()
        assert ids(bands, xs.reshape(1, -1)).tobytes() == got.tobytes()
        if q % 2 == 0:  # the top of the lower touching band counts it
            assert ids(bands, np.array([bands.bands[q // 2 - 1][1]]))[0] == 0.5


def test_ids_monotone_and_matches_counting_oracle():
    p, q, beta = 2, 5, 0.7
    bands = band_edges(chambers(F(p, q), beta, verify=False))
    lo, hi = bands.hull
    grid = np.linspace(lo - 0.3, hi + 0.3, 120)
    vals = [ids(bands, float(e)) for e in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for e in np.linspace(lo + 0.2, hi - 0.2, 7):
        counted = oracle_ids_counting(p, q, beta, float(e), n=64)
        assert abs(ids(bands, float(e)) - counted) <= 5e-3


def graded_nodes(bands, subdiv=64):
    """The Thouless route's cosine-graded nodes, subdiv+1 per band."""
    shape = (1.0 - np.cos(np.pi * np.arange(subdiv + 1) / subdiv)) / 2.0
    return np.concatenate([lo + (hi - lo) * shape for lo, hi in bands.bands])


@pytest.mark.parametrize("p, q, beta", [(8, 13, 1.0), (13, 21, 1.5), (3, 8, 1.0), (2, 5, 2.0),
                                        (55, 89, 0.5)])
def test_band_measure_matches_mpmath_at_graded_nodes(p, q, beta):
    """Every graded node of every band against a 20-digit quadrature split
    at the kinks.  P comes from the library at both ends, so only the
    measure is under test.  The worst error measured over the five cases is
    3.7e-13 (8/13, beta 1, at P = 0.019, where the unkinked end of the
    piece lies 0.14 in psi from a complex kink); the 2048-node trapezoid
    this rule replaced was off by up to 4.2e-4."""
    ch = chambers(F(p, q), beta, verify=False)
    E = graded_nodes(band_edges(ch))
    got = _band_measure(ch, E)
    ref = np.array([float(oracle_band_measure(float(P), ch.c2)) for P in ch.P(E)])
    assert np.max(np.abs(got - ref)) <= 5e-13


@pytest.mark.parametrize("beta, c2", [(0.0, None), (0.5, -5e-324), (0.5, -1e-300)])
def test_band_measure_without_kinks_is_the_arccos(beta, c2):
    """c2 = 0 (beta = 0) and a c2 lost against P place no kink and divide by
    nothing, so no RuntimeWarning; the measure is then 1 - arccos(P/2)/pi, up
    to the rounding of a 32-term sum (1.0e-15 measured)."""
    ch = chambers(F(2, 5), beta, verify=False)
    if c2 is not None:
        ch = replace(ch, c2=c2)
    E = graded_nodes(corner_bands(F(2, 5), beta))
    closed = 1.0 - np.arccos(np.clip(ch.P(E) / 2.0, -1.0, 1.0)) / np.pi
    assert np.max(np.abs(_band_measure(ch, E) - closed)) <= 2e-15


def folded_entries(monkeypatch, measure, *args):
    """Which entries of measure(*args) took the strip-sized trapezoid of
    `_band_measure`: with NaN Gauss-Legendre weights only those stay finite."""
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_PIECE_W", np.full(len(spectrum._PIECE_W), np.nan))
        return np.isfinite(measure(*args))


def strip_count(P, c2):
    """ceil(40/w) for the strip w = arccosh((2 - |P|)/|c2|) of a kink-free energy, else None."""
    room = 2.0 - abs(P)
    if not room > abs(c2):
        return None
    return math.ceil(40.0 / math.acosh(room / abs(c2)))


@pytest.mark.parametrize("p, q, beta", [(8, 13, 0.5), (21, 34, 0.5), (55, 89, 0.5),
                                        (13, 21, 1.5)])
def test_band_measure_trapezoid_matches_mpmath(monkeypatch, p, q, beta):
    """The energies without a kink whose strip needs at most 63 nodes take the
    folded trapezoid, and it matches the 20-digit quadrature within the 5e-13
    of the Gauss-Legendre rule (measured at most 2.6e-16 on those entries,
    where that rule read up to 1.2e-15).  At 13/21, beta 1.5, |c2| = 4988
    puts a kink at every energy, so all of them keep the kinked rule."""
    ch = chambers(F(p, q), beta, verify=False)
    E = graded_nodes(band_edges(ch), 16)
    P = ch.P(E)
    counts = [strip_count(float(x), ch.c2) for x in P]
    folded = folded_entries(monkeypatch, _band_measure, ch, E)
    assert folded.tolist() == [n is not None and n <= 63 for n in counts]
    assert folded.any() == (beta < 1)
    got = _band_measure(ch, E)[folded]
    ref = np.array([float(oracle_band_measure(float(x), ch.c2)) for x in P[folded]])
    assert np.max(np.abs(got - ref), initial=0.0) <= 5e-13


@pytest.mark.parametrize("n", [62, 63, 64])
def test_band_measure_switches_rule_above_63_strip_nodes(monkeypatch, n):
    """A c2 that sizes the strip to exactly n nodes: 62 and 63 (32 folded
    nodes) take the trapezoid, 64 (33) the 32-node Gauss-Legendre, and each
    matches the 20-digit quadrature within 5e-13 (measured 1.4e-16 on the
    trapezoid and 7.2e-16 on the Gauss-Legendre side)."""
    ch = chambers(F(2, 5), 0.5, verify=False)
    for lo, hi in band_edges(ch).bands:
        E = lo + 0.3 * (hi - lo)
        P = float(ch.P(E))
        at = replace(ch, c2=-(2.0 - abs(P)) / math.cosh(40.0 / (n - 0.5)))
        assert strip_count(P, at.c2) == n
        assert folded_entries(monkeypatch, _band_measure, at, np.array([E])).tolist() == [n < 64]
        assert abs(_band_measure(at, np.array([E]))[0]
                   - float(oracle_band_measure(P, at.c2))) <= 5e-13


@pytest.mark.parametrize("p, q, beta", [(5, 8, 0.8), (13, 21, 0.9)])
def test_ids_array_equals_scalar_calls_across_both_rules(monkeypatch, p, q, beta):
    """One array call over energies of the trapezoid, of the unkinked and of the
    kinked Gauss-Legendre rule equals the scalar calls bit for bit."""
    bands = corner_bands(F(p, q), beta)
    ch = chambers(F(p, q), beta, verify=False)
    E = graded_nodes(bands, 16)
    folded = folded_entries(monkeypatch, ids, bands, E)
    kinked = 2.0 - np.abs(ch.P(E)) <= -ch.c2
    assert folded.any() and (kinked & ~folded).any() and (~kinked & ~folded).any()
    got = ids(bands, E)
    assert got.tobytes() == np.array([ids(bands, float(x)) for x in E]).tobytes()
    assert ids(bands, E[::-1]).tobytes() == got[::-1].tobytes()


def test_gap_records_carry_gap_label_and_exact_ids():
    """The records' labels come from one modular inverse per fraction and
    their IDS from (j, q); both must equal the public per-gap definitions
    at every fraction of order 30, every gap index included."""
    for freq in butterfly_fractions(30):
        recs = gaps(freq, 0.7, min_width=-1.0)
        assert [g.j for g in recs] == list(range(1, freq.q))
        bands = corner_bands(freq, 0.7).bands
        lines = gap_csv(freq, "0.7", bands, gap_table(freq, 0.7, bands, -1.0), {})[1].splitlines()
        assert len(lines) == len(recs)
        for g, line in zip(recs, lines):
            label = gap_label(g.j, freq)
            assert (g.label, g.hall, g.ids_value) == (label, label[1], Fraction(g.j, freq.q))
            ids_num, ids_den = line.split(",")[5:7]
            assert Fraction(int(ids_num), int(ids_den)) == g.ids_value
            assert math.gcd(int(ids_num), int(ids_den)) == 1


def _open_gaps(table):
    """(j, n) of the open gaps of a `gap_table`."""
    j, _, n, _ = table[table[:, 3] == 1].T
    return j, n


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_hall_numbers_are_minus_the_chern_numbers(beta):
    """The Hall number n that the congruence j = m q + n p assigns is measured
    from the operator: it is minus the lattice Chern number of the lowest j
    bands, on every open gap of every fraction with q <= 13."""
    checked = 0
    for q in range(2, 14):
        for p in (p for p in range(1, q) if math.gcd(p, q) == 1):
            table = gap_table(F(p, q), beta, corner_bands(F(p, q), beta).bands, 1e-9)
            j, n = _open_gaps(table)
            assert np.array_equal(-oracle_chern_numbers(p, q, beta, 4 * q, 6)[j - 1], n), \
                (p, q, beta)
            checked += len(j)
    assert checked == 456  # every gap but the closed central ones of even q


def test_dataset_hall_numbers_are_minus_the_chern_numbers():
    ds = parse_dataset(serialize_dataset(compute_butterfly(8, 0.7)))
    checked = 0
    for row in ds.rows:
        j, n = _open_gaps(row.table)
        if len(j):
            p, q = row.freq.p, row.freq.q
            assert np.array_equal(-oracle_chern_numbers(p, q, ds.beta, 4 * q, 6)[j - 1], n), \
                row.freq
            checked += len(j)
    assert checked == 92  # the 101 gaps of q <= 8 but the 9 closed central ones


def test_chern_numbers_keep_when_the_mesh_doubles():
    assert np.array_equal(oracle_chern_numbers(5, 13, 1.0, 52, 6),
                          oracle_chern_numbers(5, 13, 1.0, 104, 12))


def test_gap_label_examples():
    assert gap_label(1, F(1, 3)) == (0, 1)
    assert gap_label(2, F(1, 3)) == (1, -1)
    assert [gap_label(j, F(2, 5))[1] for j in (1, 2, 3, 4)] == [-2, 1, -1, 2]
    assert gap_label(1, F(1, 2)) == (0, 1)  # tie-break toward +q/2


def test_gap_label_rejects_out_of_range():
    with pytest.raises(ValueError):
        gap_label(0, F(1, 3))
    with pytest.raises(ValueError):
        gap_label(3, F(1, 3))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(1, 3), (2, 5), (5, 8), (8, 13), (3, 7), (1, 2), (1, 4)]),
       st.integers(1, 12))
def test_gap_label_against_brute_force(pq, j):
    p, q = pq
    if not 1 <= j <= q - 1:
        return
    m, n = gap_label(j, RationalFrequency(p, q))
    assert (n * p - j) % q == 0
    assert m * q + n * p == j
    assert abs(n) <= q / 2
    bm, bn = oracle_gap_label(j, p, q)
    assert (m, n) == (bm, bn)


def test_gaps_small_coupling_open():
    recs = gaps(F(1, 3), 0.1)
    assert len(recs) == 2
    assert [g.label for g in recs] == [(0, 1), (1, -1)]
    assert all(g.width > 0 and g.is_open for g in recs)


def test_gaps_free_case_empty():
    assert gaps(F(1, 3), 0.0) == []


def test_gaps_central_reported_closed():
    recs = gaps(F(1, 2), 1.0)
    assert len(recs) == 1
    g = recs[0]
    assert not g.is_open
    assert g.width <= 1e-9
    assert g.label == (0, 1)


@pytest.mark.parametrize("q", [4, 6, 10, 20, 60])
def test_central_gap_closed_at_any_min_width(q):
    """The even-q central touching is reported closed even at min_width 0, below
    its roundoff width (4.4e-17 at 1/4, beta 1), where `width > min_width`
    alone read it open; every other gap is open there."""
    edges = corner_edges(q, [1], 1.0)
    table = gap_table(F(1, q), 1.0, list(zip(edges[0, 0::2], edges[0, 1::2])), 0.0)
    assert table[:, 0].tolist() == list(range(1, q))
    assert table[table[:, 3] == 0, 0].tolist() == [q // 2]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
def test_gap_tables_equal_gap_table_row_by_row(beta):
    """One `gap_tables` call per denominator gives each p/q, q <= 60, the table
    `gap_table` gives it alone: no gaps at beta 0, and the closed central gap
    of every even q otherwise."""
    for q in range(1, 61):
        ps = [p for p in range(q + 1) if math.gcd(p, q) == 1]
        edges = corner_edges(q, ps, beta)
        tables = gap_tables(q, ps, beta, edges, 1e-9)
        assert len(tables) == len(ps)
        for p, e, table in zip(ps, edges.tolist(), tables):
            one = gap_table(F(p, q), beta, list(zip(e[0::2], e[1::2])), 1e-9)
            assert table.dtype == one.dtype == np.int64
            assert np.array_equal(table, one), (p, q, beta)
            if beta == 0.0:
                assert table.shape == (0, 4)
            elif q % 2 == 0:
                assert table[table[:, 0] == q // 2, 3].tolist() == [0]  # reported, closed


def test_gap_table_of_an_error_row_is_empty():
    for table in (gap_table(F(2, 5), 1.0, (), 1e-9), gap_tables(5, [2], 1.0, np.zeros((1, 0)),
                                                                 1e-9)[0]):
        assert table.shape == (0, 4) and table.dtype == np.int64


def test_gap_csv_row_format():
    """A gap line carries the record's fields, every float in `_fmt` text,
    and the edge text is the text of the band edges."""
    freq, beta = F(2, 5), 0.5
    g = gaps(freq, beta)[0]
    bands = corner_bands(freq, beta).bands
    text, lines = gap_csv(freq, _fmt(beta), bands, gap_table(freq, beta, bands, 1e-9), {})
    assert lines.endswith("\n")
    parts = lines.splitlines()[0].split(",")
    assert len(parts) == 10
    assert parts == ["2", "5", "0.5", _fmt(g.lo), _fmt(g.hi), "1", "5",
                     str(g.label[0]), str(g.label[1]), _fmt(g.width)]
    assert text.split(",") == [_fmt(x) for lo_hi in bands for x in lo_hi]


def test_gap_csv_keeps_the_sign_of_a_zero_edge():
    """`gap_csv`'s text memo is keyed by the edges' exact bytes: edges that
    differ only in the sign of a zero keep their own text in one memo."""
    freq, memo = F(1, 2), {}
    for bands, want in ((((-2.0, -0.0), (0.0, 2.0)), ("-2,-0,0,2", "0")),
                        (((-2.0, 0.0), (-0.0, 2.0)), ("-2,0,-0,2", "-0"))):
        text, lines = gap_csv(freq, "1", bands, gap_table(freq, 1.0, bands, 1e-9), memo)
        assert (text, lines.rstrip("\n").split(",")[-1]) == want
    assert len(memo) == 2


GOLDEN = [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34), (34, 55), (55, 89),
          (89, 144), (144, 233), (233, 377), (377, 610), (610, 987)]


def spectrum_measure(p, q, beta):
    """|sigma(p/q)|: the band widths summed by `math.fsum`."""
    return math.fsum(hi - lo for lo, hi in corner_bands(F(p, q), beta).bands)


@pytest.mark.parametrize("beta, reached", [(0.5, 89), (1.5, 144)])
def test_band_measure_tends_to_4_abs_1_minus_beta(beta, reached):
    """Along the golden convergents the measure falls to 4|1 - beta| (Avron, van
    Mouche, Simon, Commun. Math. Phys. 132, 103 (1990)), from above and
    exponentially in q, and from q = reached on stays within the roundoff of
    2q edges, C q eps with C = 32; measured |excess| <= 19.1 q eps (beta 0.5,
    q = 987: -4.2e-12) and 3.9 q eps (beta 1.5, q = 987: -8.4e-13)."""
    eps = np.finfo(float).eps
    excess = [spectrum_measure(p, q, beta) - 4 * abs(1 - beta) for p, q in GOLDEN]
    floor = [q for (_, q), x in zip(GOLDEN, excess) if abs(x) <= 32 * q * eps]
    assert floor == [q for _, q in GOLDEN if q >= reached]
    above = excess[:len(GOLDEN) - len(floor)]
    assert all(x > 0 for x in above) and above == sorted(above, reverse=True)


def test_band_measure_at_beta_1_is_9_33_over_q():
    """At beta = 1, q |sigma(p/q)| -> 9.3299 (Thouless, Phys. Rev. B 28, 4272
    (1983); Last, Commun. Math. Phys. 164, 421 (1994)); measured 9.32900 to
    9.33305 at the golden convergents with 89 <= q <= 987."""
    for p, q in GOLDEN:
        if q >= 89:
            assert abs(q * spectrum_measure(p, q, 1.0) - 9.3299) <= 3.5e-3, (p, q)


def test_dual_check():
    assert dual_check(F(1, 3), 0.5).hausdorff <= 1e-8
    assert dual_check(F(1, 3), 1.0).hausdorff == 0.0
    assert dual_check(F(2, 5), 0.25).hausdorff <= 1e-8


def test_hausdorff_intervals_basics():
    a = [(0.0, 1.0), (2.0, 3.0)]
    assert hausdorff_intervals(a, a) == 0.0
    b = [(0.0, 3.0)]
    # farthest point of b from a is the gap midpoint 1.5
    assert abs(hausdorff_intervals(a, b) - 0.5) <= 1e-15
    c = [(0.1, 1.0), (2.0, 3.4)]
    assert abs(hausdorff_intervals(a, c) - 0.4) <= 1e-15
    assert hausdorff_intervals([], []) == 0.0
    assert hausdorff_intervals(a, []) == hausdorff_intervals([], a) == math.inf


def test_hausdorff_intervals_equals_the_reference_loop():
    """The array pass returns the loop's float, ==, on random unions with touching,
    overlapping and point intervals, and on the dual_check pairs up to 377/610."""
    rng = np.random.default_rng(2028)

    def union():
        n = rng.integers(1, 9)
        # edges on a 0.1 grid make shared endpoints and touching intervals common
        los = np.where(rng.random(n) < 0.5, rng.uniform(-4, 4, n),
                       np.round(rng.uniform(-4, 4, n), 1))
        widths = np.choose(rng.integers(0, 3, n), [np.zeros(n), np.round(rng.uniform(0, 1, n), 1),
                                                   rng.uniform(0, 2, n)])
        return list(zip(los.tolist(), (los + widths).tolist()))

    for _ in range(1000):
        a, b = union(), union()
        assert hausdorff_intervals(a, b) == hausdorff_intervals_loop(a, b)
    for f in (F(1, 3), F(2, 5), F(8, 13), F(34, 55), F(144, 233), F(377, 610)):
        bands = corner_bands(f, 0.5).bands
        dual = [(0.5 * lo, 0.5 * hi) for lo, hi in corner_bands(f, 2.0).bands]
        assert hausdorff_intervals(bands, dual) == hausdorff_intervals_loop(bands, dual)


def test_hausdorff_matches_sampled_oracle():
    b1 = band_edges(chambers(F(2, 5), 0.4, verify=False)).bands
    b2 = band_edges(chambers(F(2, 5), 0.55, verify=False)).bands
    fast = hausdorff_intervals(b1, b2)
    slow = interval_union_distance(b1, b2)
    assert abs(fast - slow) <= 1e-3


def test_track_gap_persistent_label():
    grid = np.linspace(0.1, 1.0, 10)
    track = track_gap((0, 1), F(5, 8), grid)
    assert all(track.open_flags)
    assert all(w > 0 for w in track.widths)


def test_track_gap_central_closed_everywhere():
    track = track_gap((0, 1), F(1, 2), [0.2, 0.5, 1.0])
    assert all(w <= 1e-9 for w in track.widths)
    assert not any(track.open_flags)


def test_track_gap_single_point_matches_gaps():
    freq = F(2, 5)
    track = track_gap((0, 1), freq, [0.5])
    j = track.j
    rec = [g for g in gaps(freq, 0.5) if g.j == j][0]
    assert abs(track.widths[0] - rec.width) <= 1e-14


def test_track_gap_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="beta grid must not be empty"):
        track_gap((0, 1), F(5, 8), [])


def test_track_gap_rejects_unrealizable():
    with pytest.raises(ValueError):
        track_gap((0, 3), F(1, 3), [0.5])  # |n| > q/2
    with pytest.raises(ValueError):
        track_gap((0, 2), F(1, 4), [0.3, 0.1])  # grid not increasing


def test_larger_denominators_stay_consistent():
    # golden convergents beyond the acceptance range: structure only
    for (p, q) in ((13, 21), (21, 34)):
        bands = band_edges(chambers(F(p, q), 0.6, verify=False))
        assert len(bands.bands) == q
        assert dual_check(F(p, q), 0.6).hausdorff <= 1e-8
        mirrored = sorted((-h, -l) for l, h in bands.bands)
        for (l1, h1), (l2, h2) in zip(bands.bands, mirrored):
            assert abs(l1 - l2) <= 1e-9 and abs(h1 - h2) <= 1e-9


@pytest.mark.parametrize("p, q, label", [(1, 4, (0, 2)), (3, 8, (-1, 4)), (5, 12, (-2, 6))])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_track_gap_reports_the_central_gap_closed_as_gaps_does(p, q, label, beta):
    """The even-q central gap touches at every coupling; its roundoff width
    (up to 1.1e-15 here) exceeds min_width 0, yet `track_gap`, like `gaps`,
    reports it closed: both read one `gap_table`."""
    freq = F(p, q)
    track = track_gap(label, freq, [beta], min_width=0.0)
    assert track.j == q // 2 and track.widths[0] > 0.0
    assert [g.is_open for g in gaps(freq, beta, min_width=0.0) if g.j == track.j] == [False]
    assert track.open_flags == (False,)
