"""Farey sequences, totient sums, the equidistribution sum, component counts."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FareySequence:
    """Reduced fractions of denominator <= order, listed in (0, 1]."""

    order: int
    fractions: tuple

    def __len__(self):
        return len(self.fractions)

    def neighbor_determinants(self):
        """b*c - a*d for consecutive a/b, c/d; equals 1 throughout."""
        out = []
        for f1, f2 in zip(self.fractions, self.fractions[1:]):
            out.append(f1.denominator * f2.numerator - f1.numerator * f2.denominator)
        return out


def farey(order: int) -> FareySequence:
    """Mediant walk through the Farey sequence of the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    seq = []
    a, b, c, d = 0, 1, 1, order
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        seq.append(Fraction(a, b))
    return FareySequence(order, tuple(seq))


def totients(n: int):
    """phi(1), ..., phi(n) by sieve."""
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:  # prime
            for k in range(i, n + 1, i):
                phi[k] -= phi[k] // i
    return phi[1:]


def phi_cumulative(n: int) -> int:
    """Sum of Euler's totient up to n; the length of the Farey sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(totients(n))


@dataclass(frozen=True)
class FranelRow:
    n: int
    total: Fraction

    @property
    def total_float(self) -> float:
        return float(self.total)

    @property
    def n_times_total(self) -> float:
        return self.n * float(self.total)


def franel_sum(n: int) -> FranelRow:
    """Sum of squared deviations of Farey fractions from uniform spacing.

    Exact rational arithmetic throughout; the trend of n * sum is the
    equidistribution diagnostic.
    """
    seq = farey(n).fractions
    count = len(seq)
    total = Fraction(0)
    for j, r in enumerate(seq, start=1):
        diff = r - Fraction(j, count)
        total += diff * diff
    return FranelRow(n, total)


def franel_table(n_max: int):
    return [franel_sum(n) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class ComponentCount:
    hall: int
    order: int
    beta: float
    predicted: int
    observed: int
    members: tuple


def component_count(dataset, hall: int) -> ComponentCount:
    """Observed connected gap components with a given positive Hall number.

    Rows are taken in order of p/q, so consecutive rows are Farey neighbours
    of the dataset's order; an open gap of the Hall number joins the previous
    row's when their labels (m, hall) agree, as one labelled gap continues
    across the fractal.  The prediction for the untruncated picture is the
    cumulative totient Phi(2 hall).  A run splits where a row lacks the
    label's open gap, which includes a gap narrower than the table's
    `min_width`, so at a fixed `min_width` the count exceeds the prediction
    once the Hall number's gaps get that narrow.  A dataset with error rows
    is refused: a missing row splits the chains it would have joined.
    """
    if hall < 1:
        raise ValueError("component counting applies to positive Hall numbers")
    failed = [str(row.freq) for row in dataset.rows if row.error]
    if failed:
        raise ValueError(f"{len(failed)} error rows (first {failed[0]}) would split "
                         f"gap components; recompute the dataset")
    predicted = phi_cumulative(2 * hall)
    rows = [row for row in dataset.rows if row.freq.q >= 2]
    # exact: reduced p/q with q < 2**26 lie more than an ulp apart as floats
    rows.sort(key=lambda r: r.freq.alpha)
    # labels are distinct within a row, so a row has at most one gap of this Hall
    # number, and a component is a run of such gaps with one label on consecutive rows
    chains, last = [], None
    for ridx, row in enumerate(rows):
        jm = row.table[(row.table[:, 2] == hall) & (row.table[:, 3] == 1), :2].tolist()
        if not jm:
            last = None
            continue
        j, m = jm[0]
        if m == last:
            chains[-1].append((ridx, j))
        else:
            chains.append([(ridx, j)])
        last = m
    return ComponentCount(hall, dataset.order, dataset.beta, predicted,
                          len(chains), tuple(map(tuple, chains)))
