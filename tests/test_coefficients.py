import itertools
import math

import numpy as np
import pytest

from harperlab import (RationalFrequency, build_phi, coefficient_sheet, decay_rate, gaps,
                       gradient, recursion_sheets, symmetrized_sheet, system_residual,
                       vanishing_probe)
from conftest import (oracle_coefficient_sheet, oracle_core_closure, oracle_grid_size,
                      oracle_moment, oracle_recursion_sheets, oracle_system_residual,
                      vanishing_scan)

F = RationalFrequency


def widest_gap(freq, beta):
    return max((g for g in gaps(freq, beta) if g.is_open), key=lambda g: g.width)


def test_sheet_far_field_origin_entry():
    freq, beta, z = F(1, 3), 0.5, 10.0
    sheet = coefficient_sheet(freq, beta, z, window=4)
    # c00 = tau((h-z)^{-1}) = -(1/z + m2/z^3 + ...)
    m2 = oracle_moment(1, 3, beta, 2)
    m4 = oracle_moment(1, 3, beta, 4)
    series = -(1 / z + m2 / z ** 3 + m4 / z ** 5)
    assert abs(sheet.value(0, 0) - series) <= 1e-5
    assert abs(sheet.value(0, 0) + 0.10250) <= 1.5e-4


def test_sheet_index_negation_symmetry():
    sheet = coefficient_sheet(F(1, 3), 0.5, 4.2, window=4)
    P = sheet.window
    assert np.max(np.abs(sheet.values - sheet.values[::-1, ::-1])) <= 1e-12
    assert sheet.value(2, 1) == sheet.values[2 + P, 1 + P]


def test_sheet_rejects_z_in_spectrum(monkeypatch):
    """Both sheets read the spectrum from P(z): z in a band is refused, and
    neither a refusal nor a sheet runs an eigensolve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    with pytest.raises(ValueError, match=r"z=0\.1 lies in the spectrum: its phase strip 0 needs"):
        coefficient_sheet(F(1, 3), 0.5, 0.1, window=3)
    with pytest.raises(ValueError, match=r"z=0\.1 lies in the spectrum"):
        recursion_sheets(F(1, 3), 0.5, 0.1, window=3)
    coefficient_sheet(F(1, 3), 0.5, 4.2, window=3)
    recursion_sheets(F(1, 3), 0.5, 4.2, window=3)


# sheet points checked against the full-grid oracle; where `grid` is given it
# states the default grid (n1, n2) at that point, so the cases cover odd and
# even n on each axis, which the fold treats apart, and t2 the narrower axis
# (2/3, beta 2); the first two are the `resolvent` benchmark's
ORACLE_POINTS = [
    (5, 8, 0.5, 4.0, 24, None),
    (8, 13, 0.5, 4.0, 24, None),
    (1, 2, 0.5, -3.5, 6, None),
    (0, 1, 0.5, 4.0, 5, None),
    (1, 1, 0.5, 4.0, 5, None),
    (3, 7, 0.4, 4.1, 5, (8, 5)),
    (3, 7, 0.4, -4.1, 5, (8, 5)),
    (2, 5, 0.7, 3.9, 4, (9, 7)),
    (1, 3, 0.5, 4.2, 3, (13, 10)),
    (2, 5, 0.5, "gap", 6, None),
    (3, 5, 1.5, "gap", 6, None),
    (2, 3, 2.0, "gap", 6, (25, 59)),
    (4, 9, 0.6, "gap", 4, (16, 8)),
]


@pytest.mark.parametrize("p, q, beta, z, window, grid", ORACLE_POINTS)
def test_sheet_equals_the_full_grid_oracle(p, q, beta, z, window, grid):
    """The quarter-grid, streamed sheet gives the full-grid, entry-by-entry
    Fourier sums on its own grid, at couplings on both sides of the
    self-dual point."""
    if z == "gap":
        z = widest_gap(F(p, q), beta).midpoint
    n1, n2 = oracle_grid_size(p, q, beta, z, window)
    if grid is not None:
        assert (n1, n2) == grid
    got = coefficient_sheet(F(p, q), beta, z, window=window).values
    want = oracle_coefficient_sheet(p, q, beta, z, window, n1, n2)
    assert np.max(np.abs(want.imag)) <= 1e-10
    assert np.max(np.abs(got - want.real)) <= 1e-13 * np.max(np.abs(want.real))


@pytest.mark.parametrize("p, q, beta, z, window", [point[:5] for point in ORACLE_POINTS])
def test_sheet_is_converged_on_its_grid(p, q, beta, z, window):
    """The strip rule's grid resolves the sheet: the full-grid sums on a grid
    at least three times larger, coprime to q, move no entry by more than
    1e-14 of the largest."""
    if z == "gap":
        z = widest_gap(F(p, q), beta).midpoint
    n1, n2 = (next(n for n in itertools.count(3 * m) if math.gcd(n, q) == 1)
              for m in oracle_grid_size(p, q, beta, z, window))
    got = coefficient_sheet(F(p, q), beta, z, window=window).values
    want = oracle_coefficient_sheet(p, q, beta, z, window, n1, n2).real
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [(3, 7, 3, 6, 8), (3, 7, 15, 8, 10), (1, 3, 3, 10, 14),
                                  (2, 5, 4, 7, 11), (2, 3, 6, 11, 16)])
def test_sheet_inverts_a_quarter_grid(monkeypatch, grid):
    """Each case is a default grid at beta 2, z = 7, the sheet point
    (p, q, window) and its size (n1, n2), each axis sized by its own strip:
    only the nodes a = 0..n1//2 and b = 0..n2//2 are inverted, for even and
    odd n on either axis."""
    p, q, window, n1, n2 = grid
    assert oracle_grid_size(p, q, 2.0, 7.0, window) == (n1, n2)
    inv, count = np.linalg.inv, [0]

    def counting(a):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    coefficient_sheet(F(p, q), 2.0, 7.0, window=window)
    assert count[0] == (n1 // 2 + 1) * (n2 // 2 + 1)


@pytest.mark.parametrize("window", [-1, -2])
def test_sheets_refuse_a_negative_window(window):
    with pytest.raises(ValueError, match=f"window must be >= 0, got {window}"):
        coefficient_sheet(F(2, 5), 0.5, 4.0, window=window)
    with pytest.raises(ValueError, match=f"window must be >= 0, got {window}"):
        recursion_sheets(F(2, 5), 0.5, 4.0, window=window)


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_sheet_refuses_next_to_a_gap_edge_and_states_the_strip(side):
    """5e-7 from an edge of the widest gap of 5/8, beta 0.5, the strip needs
    more than 512 nodes, so the sheet refuses and states it.  A sheet there
    would still solve both equations to roundoff, since every grid average
    does, while its quadrature error is of order one."""
    freq, beta = F(5, 8), 0.5
    g = widest_gap(freq, beta)
    z = g.lo + 5e-7 if side == "lo" else g.hi - 5e-7
    with pytest.raises(ValueError, match=r"too close to the spectrum: its phase strip "
                                         r"[0-9.e-]+ needs more than 512 nodes"):
        coefficient_sheet(freq, beta, z, window=6)


@pytest.mark.parametrize("p, q, beta", [(2, 5, 0.5), (5, 8, 0.5), (3, 5, 1.5)])
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_sheet_is_accurate_a_thousandth_from_a_gap_edge(p, q, beta, side):
    """1e-3 from both edges of the widest gap the sheet solves both equations
    to 1e-13 of its largest entry, and c(0, 0) is -g0 from `gradient`, which
    does not use the sheet, within 1e-12 relative."""
    freq = F(p, q)
    g = widest_gap(freq, beta)
    z = g.lo + 1e-3 if side == "lo" else g.hi - 1e-3
    sheet = coefficient_sheet(freq, beta, z, window=6)
    scale = np.max(np.abs(sheet.values))
    res = system_residual(sheet, beta, z)
    assert res.max_residual <= 1e-13 * scale
    assert abs(res.origin_inhomogeneity - 1.0) <= 1e-13 * scale
    g0 = gradient(freq, beta, z).g0
    assert abs(sheet.value(0, 0) + g0) <= 1e-12 * abs(g0)


def test_system_residual_of_c_sheet():
    freq, beta = F(5, 8), 0.5
    z = widest_gap(freq, beta).midpoint
    sheet = coefficient_sheet(freq, beta, z, window=6)
    res = system_residual(sheet, beta, z)
    assert res.max_residual <= 1e-8
    assert abs(res.origin_inhomogeneity - 1.0) <= 1e-8


def test_system_residual_zero_sheet():
    from harperlab import CoefficientSheet
    sheet = CoefficientSheet("c", F(1, 3), 0.5, 4.2, 3, np.zeros((7, 7)))
    res = system_residual(sheet, 0.5, 4.2)
    assert res.max_residual == 0.0
    assert res.origin_inhomogeneity == 0.0


@pytest.mark.parametrize("p,q", [(5, 8), (8, 13), (1, 3), (2, 5)])
def test_system_residual_equals_the_loop_oracle_bitwise(p, q):
    """The vectorized equations give the double loop's numbers bit for bit
    on every sheet kind, both windows and the homogenized sheet's origin.
    The coupling is not a power of two, so a reordered product shows."""
    freq, beta = F(p, q), 0.7
    z = widest_gap(freq, beta).midpoint
    for window in (6, 24):
        c = coefficient_sheet(freq, beta, z, window=window)
        plus, minus = recursion_sheets(freq, beta, z, window=window)
        d = symmetrized_sheet(plus, minus)
        for sheet in (c, plus, minus, d, build_phi(c, d)):
            res = system_residual(sheet, beta, z)
            worst, origin, count = oracle_system_residual(sheet, beta, z)
            assert (res.max_residual, res.origin_inhomogeneity, res.n_points) == \
                (worst, origin, count), (sheet.kind, window)


def test_system_residual_window_zero():
    from harperlab import CoefficientSheet
    sheet = CoefficientSheet("c", F(1, 3), 0.5, 4.2, 0, np.ones((1, 1)))
    res = system_residual(sheet, 0.5, 4.2)
    assert (res.max_residual, res.origin_inhomogeneity, res.n_points) == (0.0, None, 0)


def test_one_sided_sheets_support_and_seed():
    freq, beta, z = F(5, 8), 0.5, None
    z = widest_gap(freq, beta).midpoint
    plus, minus = recursion_sheets(freq, beta, z, window=10)
    P = plus.window
    # right solution vanishes for p <= 0, exactly
    assert np.all(plus.values[:P + 1, :] == 0.0)
    assert np.all(minus.values[P:, :] == 0.0)
    # light-cone support: |qe| >= |p| forces zero
    for p in range(-P, P + 1):
        for qe in range(-P, P + 1):
            if abs(qe) >= abs(p):
                assert plus.values[p + P, qe + P] == 0.0
    res = system_residual(plus, beta, z)
    assert res.max_residual <= 1e-8
    assert abs(res.origin_inhomogeneity - 1.0) <= 1e-10


@pytest.mark.parametrize("p, q, beta, z, window", [
    (5, 8, 0.5, 4.0, 24),
    (8, 13, 0.5, 4.0, 24),
    (5, 8, 0.7, "gap", 24),
    (8, 13, 0.7, "gap", 24),
    (1, 3, 0.7, "gap", 6),
    (2, 5, 0.7, "gap", 6),
    (1, 3, 0.3, -3.1, 9),
])
def test_recursion_sheets_equal_the_scalar_march_bitwise(p, q, beta, z, window):
    """The column-at-a-time march gives the entry-by-entry march bit for bit."""
    if z == "gap":
        z = widest_gap(F(p, q), beta).midpoint
    plus, minus = recursion_sheets(F(p, q), beta, z, window=window)
    right, left = oracle_recursion_sheets(p, q, beta, z, window)
    assert plus.values.tobytes() == right.tobytes()
    assert minus.values.tobytes() == left.tobytes()


def test_recursion_breakdown_names_column_and_row():
    """Far out in z the columns grow like z^p and leave the float64 range;
    the error names the first entry that does, as the scalar march does."""
    with pytest.raises(ArithmeticError) as want:
        oracle_recursion_sheets(1, 3, 0.5, 1e30, 12)
    with pytest.raises(ArithmeticError, match="recursion breakdown at column 12, row 0") as got:
        recursion_sheets(F(1, 3), 0.5, 1e30, window=12)
    assert str(got.value) == str(want.value)


def test_one_sided_edge_line_is_exactly_geometric():
    freq, beta = F(1, 3), 0.3
    z = 2 + 2 * beta + 0.5
    plus, _ = recursion_sheets(freq, beta, z, window=9)
    for p in range(1, 9):
        expect = (-beta) ** (p - 1)
        assert abs(plus.value(p, p - 1) - expect) <= 1e-13 * max(1, abs(expect))


def test_symmetrized_sheet_normalization_and_symmetry():
    freq, beta = F(5, 8), 0.5
    z = widest_gap(freq, beta).midpoint
    plus, minus = recursion_sheets(freq, beta, z, window=10)
    d = symmetrized_sheet(plus, minus)
    assert d.value(1, 0) == 0.5
    P = d.window
    for p in range(-P, P + 1):
        for qe in range(-P, P + 1):
            assert d.values[p + P, qe + P] == d.values[abs(p) + P, abs(qe) + P]
            if abs(qe) >= abs(p):
                assert d.values[p + P, qe + P] == 0.0
    res = system_residual(d, beta, z)
    assert res.max_residual <= 1e-8
    assert abs(res.origin_inhomogeneity - 1.0) <= 1e-10


def test_phi_solves_full_system_and_decays():
    freq, beta = F(5, 8), 0.5
    z = widest_gap(freq, beta).midpoint
    c = coefficient_sheet(freq, beta, z, window=8)
    plus, minus = recursion_sheets(freq, beta, z, window=8)
    d = symmetrized_sheet(plus, minus)
    phi = build_phi(c, d)
    assert np.max(np.abs(phi.values - (c.values - d.values))) == 0.0
    res = system_residual(phi, beta, z)
    assert res.max_residual <= 1e-8  # origin row included for phi
    est = decay_rate(phi, -1, 0)
    assert est.rho < 1.0


def test_phi_requires_matching_sheets():
    c = coefficient_sheet(F(1, 3), 0.5, 4.2, window=4)
    plus, minus = recursion_sheets(F(1, 3), 0.5, 4.4, window=4)
    with pytest.raises(ValueError):
        build_phi(c, symmetrized_sheet(plus, minus))


def test_decay_rates_on_symmetrized_sheet():
    freq, beta = F(5, 8), 0.5
    z = widest_gap(freq, beta).midpoint
    plus, minus = recursion_sheets(freq, beta, z, window=12)
    d = symmetrized_sheet(plus, minus)
    # main diagonal line is identically zero by support: sentinel
    est0 = decay_rate(d, 1, 0)
    assert est0.all_zero and est0.rho == 0.0
    assert est0.rho <= beta + 0.05
    # adjacent lines decay at essentially the coupling rate
    for slope in (1, -1):
        for k in (-2, -1, 1, 2):
            est = decay_rate(d, slope, k)
            if est.all_zero:
                continue
            assert est.rho <= beta + 0.05


def test_decay_rate_far_field_sheet_is_fast():
    sheet = coefficient_sheet(F(1, 3), 0.5, 10.0, window=6)
    est = decay_rate(sheet, 1, 0)
    assert est.rho <= 0.3


def test_decay_rate_needs_points():
    sheet = coefficient_sheet(F(1, 3), 0.5, 4.2, window=2)
    with pytest.raises(ValueError):
        decay_rate(sheet, 1, 9)  # line misses the window entirely
    plus, _ = recursion_sheets(F(1, 3), 0.5, 4.2, window=3)
    with pytest.raises(ValueError):
        decay_rate(plus, 1, -1)  # only three nonzero entries fit


def test_vanishing_probe_and_scan():
    freq, beta = F(5, 8), 0.5
    g = widest_gap(freq, beta)
    sheet = coefficient_sheet(freq, beta, g.midpoint, window=4)
    probe = vanishing_probe(sheet)
    assert not probe.both_vanish
    report = vanishing_scan(freq, beta, g, n_z=21)
    assert report["passes"]
    assert report["min_of_max"] > 1e-8


def test_vanishing_probe_far_field_trivial():
    sheet = coefficient_sheet(F(1, 3), 0.5, 10.0, window=3)
    probe = vanishing_probe(sheet)
    assert abs(probe.c00 + 0.1025) <= 2e-4
    assert not probe.both_vanish


def test_origin_vanishing_forces_zero_on_window():
    """No nonzero decaying window solution has both origin entries zero.

    The smallest singular value of the constrained operator stays away from
    zero, so the constrained least-squares sheet is the zero sheet and every
    core entry sits at numerical zero.
    """
    freq, beta = F(2, 5), 0.5
    z = widest_gap(freq, beta).midpoint
    out = oracle_core_closure(2, 5, beta, z, 5)
    assert out["sigma_min"] > 1e-8
    assert out["core_max"] <= 1e-8


def test_cross_module_origin_consistency():
    # c00 equals -g0 at machine scale
    for (p, q, beta) in ((1, 3, 0.5), (2, 5, 0.7)):
        freq = F(p, q)
        z = widest_gap(freq, beta).midpoint
        sheet = coefficient_sheet(freq, beta, z, window=5)
        g = gradient(freq, beta, z)
        assert abs(sheet.value(0, 0) + g.g0) <= 1e-9
        assert abs(sheet.value(0, 1) - g.g1) <= 1e-9


def test_sheet_csv_header_and_shape():
    sheet = coefficient_sheet(F(1, 3), 0.5, 4.2, window=3)
    text = sheet.to_csv()
    head, cols, *rows = text.splitlines()
    assert head.startswith("# kind=c,p_num=1,q_den=3,")
    assert "sign_convention=" in head
    assert cols == "p,qe,value"
    assert len(rows) == 7 * 7
