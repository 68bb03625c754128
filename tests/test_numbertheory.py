import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harperlab import (component_count, compute_butterfly, farey, franel_sum,
                       franel_table, parse_dataset, phi_cumulative, serialize_dataset,
                       totients)


def test_farey_order_one():
    seq = farey(1)
    assert seq.fractions == (Fraction(1, 1),)
    assert phi_cumulative(1) == 1


def test_farey_order_three_direct_enumeration():
    # oracle: brute-force enumeration of reduced fractions in (0, 1]
    expected = sorted({Fraction(p, q) for q in range(1, 4) for p in range(1, q + 1)
                       if math.gcd(p, q) == 1})
    assert list(farey(3).fractions) == expected
    assert len(farey(3)) == 4


def test_farey_count_matches_totient_sum():
    for n in (1, 2, 5, 17, 60, 200):
        assert len(farey(n)) == phi_cumulative(n)


def test_totients_against_brute_force():
    def phi_brute(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    ts = totients(30)
    for n in range(1, 31):
        assert ts[n - 1] == phi_brute(n)


def test_phi_cumulative_small_values():
    assert phi_cumulative(2) == 2
    assert phi_cumulative(4) == 6
    assert phi_cumulative(6) == 12
    assert phi_cumulative(5) == 10  # 1+1+2+2+4


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120))
def test_farey_neighbor_determinants(n):
    assert all(d == 1 for d in farey(n).neighbor_determinants())


def test_franel_trivial_orders():
    assert franel_sum(1).total == 0
    assert franel_sum(2).total == 0


def test_franel_order_three_exact():
    row = franel_sum(3)
    assert row.total == Fraction(2, 144)
    assert abs(row.total_float - 0.013888888888888888) <= 1e-15


def test_franel_exact_vs_float_accumulation():
    # two-route check: exact rationals against plain float accumulation
    for n in (7, 23, 60, 100):
        seq = farey(n).fractions
        count = len(seq)
        acc = 0.0
        for j, r in enumerate(seq, start=1):
            acc += (r.numerator / r.denominator - j / count) ** 2
        assert abs(franel_sum(n).total_float - acc) <= 1e-12


def test_franel_table_shape():
    table = franel_table(5)
    assert [row.n for row in table] == [1, 2, 3, 4, 5]
    assert all(row.n_times_total >= 0 for row in table)


class _Flood:
    """Rasterized flood-fill oracle for butterfly gap components."""

    def __init__(self, dataset, hall, n_alpha=400, n_energy=400):
        rows = [r for r in dataset.rows if r.freq.q >= 2]
        rows.sort(key=lambda r: r.freq.alpha)
        alphas = [r.freq.alpha for r in rows]
        self.grid = np.zeros((n_alpha, n_energy), dtype=bool)
        emin, emax = -4.2, 4.2
        for ia in range(n_alpha):
            a = ia / (n_alpha - 1)
            # nearest dataset row in alpha; gap strips interpolate linearly
            k = int(np.argmin([abs(a - x) for x in alphas]))
            lo_k = max(0, k - 1) if alphas[k] > a else k
            hi_k = min(len(rows) - 1, lo_k + 1)
            r1, r2 = rows[lo_k], rows[hi_k]
            t = 0.0 if r1 is r2 else (a - r1.freq.alpha) / (r2.freq.alpha - r1.freq.alpha)
            if not 0.0 <= t <= 1.0:
                continue
            for g1 in r1.gaps:
                if g1.hall != hall or not g1.is_open:
                    continue
                for g2 in r2.gaps:
                    if g2.hall != hall or not g2.is_open:
                        continue
                    if g1.lo <= g2.hi and g2.lo <= g1.hi:
                        lo = (1 - t) * g1.lo + t * g2.lo
                        hi = (1 - t) * g1.hi + t * g2.hi
                        i0 = int((lo - emin) / (emax - emin) * (n_energy - 1))
                        i1 = int((hi - emin) / (emax - emin) * (n_energy - 1))
                        self.grid[ia, max(i0, 0):min(i1 + 1, n_energy)] = True

    def count(self):
        seen = np.zeros_like(self.grid)
        comps = 0
        stack = []
        for i in range(self.grid.shape[0]):
            for j in range(self.grid.shape[1]):
                if self.grid[i, j] and not seen[i, j]:
                    comps += 1
                    stack.append((i, j))
                    seen[i, j] = True
                    while stack:
                        x, y = stack.pop()
                        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            a, b = x + dx, y + dy
                            if (0 <= a < self.grid.shape[0] and 0 <= b < self.grid.shape[1]
                                    and self.grid[a, b] and not seen[a, b]):
                                seen[a, b] = True
                                stack.append((a, b))
        return comps


def test_component_count_hall_one():
    ds = compute_butterfly(10, 1.0)
    cc = component_count(ds, 1)
    assert cc.predicted == 2  # cumulative totient of 2
    assert cc.observed <= cc.predicted
    assert cc.observed == 2  # both wings present from order 5 on
    assert _Flood(ds, 1).count() == cc.observed


def test_component_count_small_orders():
    for order in (5, 7):
        ds = compute_butterfly(order, 1.0)
        cc = component_count(ds, 1)
        assert cc.observed == 2


def test_component_count_unrepresentable_hall():
    ds = compute_butterfly(5, 1.0)
    cc = component_count(ds, 3)  # needs q >= 6
    assert cc.observed == 0


def test_component_count_hall_two_bounded_and_flood_fill():
    ds = compute_butterfly(12, 1.0)
    cc = component_count(ds, 2)
    assert cc.predicted == 6  # cumulative totient of 4
    assert cc.observed <= 6
    assert _Flood(ds, 2).count() == cc.observed


def test_component_count_monotone_in_order():
    last = {1: 0, 2: 0}
    for order in (4, 6, 8, 10, 12):
        ds = compute_butterfly(order, 1.0)
        for k in (1, 2):
            obs = component_count(ds, k).observed
            assert obs >= last[k]
            last[k] = obs


def test_component_counts_at_order_60_match_prediction():
    # error rows used to break Farey-neighbour chains: 20 and 24 components
    ds = compute_butterfly(60, 1.0, workers=2)
    for hall, predicted in ((1, 2), (2, 6)):
        cc = component_count(ds, hall)
        assert cc.predicted == predicted
        assert cc.observed == predicted


def test_component_count_rejects_nonpositive_hall():
    ds = compute_butterfly(4, 1.0)
    with pytest.raises(ValueError):
        component_count(ds, 0)


@pytest.mark.parametrize("beta, n_max", [(0.5, 9), (1.0, 10), (2.0, 10)])
def test_component_count_by_label_at_order_60_reads_phi_2n(tmp_path, beta, n_max):
    """Read back from the dataset file, the label count equals Phi(2n) for every
    Hall number n up to n_max; the energy-overlap rule read 36 to 268 at beta 1,
    n = 5..10, against Phi(2n) = 32 to 128."""
    path = tmp_path / "ds.csv"
    path.write_text(serialize_dataset(compute_butterfly(60, beta)))
    ds = parse_dataset(path.read_text())
    observed = [component_count(ds, n).observed for n in range(1, n_max + 1)]
    assert observed == [phi_cumulative(2 * n) for n in range(1, n_max + 1)]
