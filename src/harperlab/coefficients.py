"""Double-indexed coefficient sheets of the resolvent and their relatives.

The numbers c(p, qe) = tau((h - z)^{-1} w(p, qe)) solve, at s = z, the
coupled pair of difference equations

    cos(pi a qe) (x[p+1,qe] + x[p-1,qe]) + b cos(pi a p) (x[p,qe+1] + x[p,qe-1]) = s x[p,qe]
    sin(pi a qe) (x[p+1,qe] - x[p-1,qe]) - b sin(pi a p) (x[p,qe+1] - x[p,qe-1]) = 0

at every index except the origin, where the resolvent identity leaves an
inhomogeneity of exactly 1.  The one-sided solutions supported in the
right/left sectors are generated by an explicit column march; their
symmetrized mean is the comparison sheet whose subtraction homogenizes c.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .rationals import TWO_PI, RationalFrequency, pi_fraction_trig
from .spectrum import chambers, harper_matrix
from ._torus import fold, grid_nodes, strip

SIGN_CONVENTION = "resolvent (h-z)^-1; trace normalized; w(p;qe) = exp(-i pi a p qe) u^p v^qe"

SHEET_KINDS = ("c", "d", "phi", "R+", "R-")


@dataclass(frozen=True)
class CoefficientSheet:
    """Real window {(p, qe): |p|, |qe| <= window} of one coefficient family."""

    kind: str
    freq: RationalFrequency
    beta: float
    z: float
    window: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in SHEET_KINDS:
            raise ValueError(f"unknown sheet kind {self.kind!r}")
        n = 2 * self.window + 1
        if self.values.shape != (n, n):
            raise ValueError("values array does not match the window")

    def value(self, p: int, qe: int) -> float:
        P = self.window
        if abs(p) > P or abs(qe) > P:
            raise IndexError(f"({p}, {qe}) outside window {P}")
        return float(self.values[p + P, qe + P])

    def line(self, slope: int, offset: int):
        """Entries ((p, qe), value) along the lattice line qe = slope*p + offset."""
        if slope not in (1, -1):
            raise ValueError("slope must be +1 or -1")
        P = self.window
        out = []
        for p in range(-P, P + 1):
            qe = slope * p + offset
            if abs(qe) <= P:
                out.append(((p, qe), self.value(p, qe)))
        return out

    def to_csv(self) -> str:
        head = (f"# kind={self.kind},p_num={self.freq.p},q_den={self.freq.q},"
                f"beta={self.beta:.17g},z={self.z:.17g},P={self.window},"
                f"sign_convention={SIGN_CONVENTION!r}")
        lines = [head, "p,qe,value"]
        P = self.window
        for p in range(-P, P + 1):
            for qe in range(-P, P + 1):
                lines.append(f"{p},{qe},{self.values[p + P, qe + P]:.17g}")
        return "\n".join(lines) + "\n"


def coefficient_sheet(freq: RationalFrequency, beta: float, z: float,
                      window: int = 12) -> CoefficientSheet:
    """The resolvent coefficient sheet at real z outside the spectrum.

    Works on the phase grid: one dense inverse per node, the q x q family of
    matrix traces T[m, s] = (1/q) tr(R Omega^m Sigma^s) against clock/shift
    powers, then a 2-d Fourier average to separate the window indices.  Two
    symmetries of the uniform-gauge matrix cut the inverses to a quarter
    grid, each its `_torus.fold`.  For real z, H(t1, -t2) = conj H(t1, t2), so
    T[m, s](t1, -t2) equals conj T[-m mod q, s](t1, t2): the mirror n2 - b of
    a t2 node b enters as that conjugate.  Each t1 row is contracted with the
    t2 phases as soon as it is built, into sums S[a, qe, k] over the diagonal
    qe mod q of R.  The reflection j -> -j mod q maps H(t1, t2) to
    H(-t1, -t2), which with the conjugation gives S[n1 - a, qe, k] =
    S[a, -qe, -k mod q]: each mirror row is that index permutation, with no
    conjugation and the same weights: (n1//2 + 1)(n2//2 + 1) inverses on the
    n1 x n2 grid.  Each axis is sized by its own strip, the trace's
    `grid_nodes`, plus ceil(window / q) + 1, raised to the first size
    coprime to q: the grid in t is then a permuted grid in psi = q t, and
    T[m, s] carries t-frequencies of one residue class mod q, so the window
    adds only |l| <= window / q + 1 harmonics of psi.  When the narrower
    strip needs more than `GRID_CAP` nodes, the spectrum included, z is
    refused and its strip stated.  The sweep keeps one (n1, 2 window + 1, q)
    array and ends in one matrix product over t1.  An imaginary part above
    1e-10 of the largest entry raises ArithmeticError.
    """
    if beta <= 0:
        raise ValueError("coupling must be positive")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    z = float(z)
    q = freq.q
    extra = math.ceil(window / q) + 1
    n1, n2 = (next(m for m in itertools.count(n + extra) if math.gcd(m, q) == 1)
              for n in grid_nodes(chambers(freq, beta, verify=False), z))
    (rows1, w1, *_), (b, w2, *_) = fold(n1), fold(n2)
    t1, t2 = TWO_PI * np.arange(n1) / n1, TWO_PI * b / n2
    j = np.arange(q)
    # harper_matrix carries the hopping phase on the closing bond; the gauge
    # exp(i (k - j) theta2) spreads it over every bond, the gauge of the
    # clock/shift traces
    gauge = np.exp(1j * (j[:, None] - j[None, :]) * t2[:, None, None])  # [b, k, j]
    k = np.arange(-window, window + 1)
    rows = (j - k[:, None]) % q  # [qe, k]: diagonal qe mod q of R runs over R[(k - qe) % q, k]
    phases2 = np.exp(1j * np.outer(k, t2)) / n2  # [qe, b]
    # weights of every inverted node, and of its mirror n2 - b where that is another node
    weights = np.stack([phases2, phases2 * (w2 - 1.0)], axis=-1)  # [qe, b, 2]
    diag_sums = np.empty((n1, k.size, q), dtype=complex)  # S[a, qe, k]
    for a in rows1:
        h = harper_matrix(freq, beta, t1[a], t2)
        h[:, j, j] -= z
        R = np.linalg.inv(h * gauge)  # [b, k, j]
        both = R[:, rows, j].transpose(1, 2, 0) @ weights  # [qe, k, 2]
        diag_sums[a] = both[..., 0] + both[..., 1].conj()
    mirror = rows1[w1 > 1]  # the rows a whose mirror S[n1 - a, qe, k] = S[a, -qe, -k mod q]
    diag_sums[n1 - mirror] = diag_sums[mirror, ::-1][..., -j % q]
    omega_pow = np.exp(2j * np.pi * ((np.outer(j, j) * freq.p) % q) / q)  # [k, m]
    phases1 = np.exp(1j * np.outer(k, t1)) / n1  # [p, a]
    # traces T[m, s] = (1/q) tr(R Omega^m Sigma^s) averaged against both phases: [p, qe, m]
    sums = (phases1 @ (diag_sums @ omega_pow / q).reshape(n1, -1)).reshape(k.size, k.size, q)
    trig = np.array([complex(*pi_fraction_trig(r, q)) for r in range(2 * q)])
    i = np.arange(k.size)
    vals = trig[(-np.outer(k, k) * freq.p) % (2 * q)] * sums[i[:, None], i, (k % q)[:, None]]
    worst_imag, scale = float(np.max(np.abs(vals.imag))), float(np.max(np.abs(vals)))
    if worst_imag > 1e-10 * scale:
        raise ArithmeticError(f"sheet entries should be real; worst imaginary part "
                              f"{worst_imag / scale:.3e} of the largest entry")
    return CoefficientSheet("c", freq, float(beta), z, window, vals.real.copy())


@dataclass(frozen=True)
class SystemResidual:
    """Worst-case residual of the two difference equations over the window."""

    max_residual: float
    origin_inhomogeneity: float | None
    n_points: int


def _trig_table(freq: RationalFrequency, window: int):
    """(cos, sin) of pi a k for k = -window..window, exact on the axes."""
    return np.array([pi_fraction_trig(freq.p * k, freq.q)
                     for k in range(-window, window + 1)]).T


def _equations(x: np.ndarray, freq: RationalFrequency, beta: float, s: float):
    """Left-hand sides (e1, e2) of both equations at every interior index.

    x holds sheets over its trailing (2P+1, 2P+1) axes, indexed
    [p + P, qe + P]; e1 and e2 have the leading axes of x and then
    (2P-1, 2P-1), indexed [p + P - 1, qe + P - 1].
    """
    P = (x.shape[-1] - 1) // 2
    cos, sin = _trig_table(freq, P)[:, 1:-1]
    cp, sp, cq, sq = cos[:, None], sin[:, None], cos, sin
    up, down = x[..., 2:, 1:-1], x[..., :-2, 1:-1]  # x[p+1, qe], x[p-1, qe]
    right, left = x[..., 1:-1, 2:], x[..., 1:-1, :-2]  # x[p, qe+1], x[p, qe-1]
    e1 = cq * (up + down) + beta * cp * (right + left) - s * x[..., 1:-1, 1:-1]
    e2 = sq * (up - down) - beta * sp * (right - left)
    return e1, e2


def system_residual(sheet: CoefficientSheet, beta: float, s: float) -> SystemResidual:
    """Evaluate both equations at all interior window indices.

    For the inhomogeneous families (kinds c, d, R+, R-) the origin row is
    excluded from the residual and its inhomogeneity, which should equal 1,
    is reported separately; the homogenized sheet is checked everywhere.
    """
    P = sheet.window
    if P == 0:
        return SystemResidual(0.0, None, 0)
    e1, e2 = _equations(sheet.values, sheet.freq, beta, s)
    origin = float(e1[P - 1, P - 1])
    if sheet.kind != "phi":
        e1[P - 1, P - 1] = 0.0
    worst = float(max(np.max(np.abs(e1)), np.max(np.abs(e2))))
    return SystemResidual(worst, origin, e1.size)


def recursion_sheets(freq: RationalFrequency, beta: float, z: float, window: int = 12):
    """The two one-sided solutions (right sector, left sector).

    March column by column in p: an entry of column p + 1 reads only
    columns p and p - 1, so each column is one long-double vector update
    over qe = -p..p.  At each target entry the two equations
    form an orthonormal-coefficient pair in the single unknown x[p+1, qe],
    so the least-squares update

        x[p+1,qe] = cos(t_qe) RA + sin(t_qe) RB - cos(2 t_qe) x[p-1,qe]

    is exact wherever the equations are consistent and glides through the
    axis degeneracies (where one of the sines or cosines vanishes) without
    division.  The seed column is forced by the equations at p = 0: only
    the origin-row exemption leaves x[1, 0] free, and the scale x[1,0] = 1
    makes the symmetrized mean satisfy the normalization d(1,0) = 1/2.
    The left solution is the mirror image, as the system is invariant under
    negating both indices.  A column with an entry outside the float64
    range raises ArithmeticError naming the column and its first such row.
    """
    if not 0 < beta < 1:
        raise ValueError(f"one-sided solutions need 0 < beta < 1, got {beta}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    ch = chambers(freq, beta, verify=False)
    if strip(ch.P(z), ch.c1, ch.c2) == 0:
        raise ValueError(f"z={z} lies in the spectrum")
    P = window
    cos, sin = _trig_table(freq, P).astype(np.longdouble)
    cols = np.zeros((P + 2, 2 * P + 3), dtype=np.longdouble)
    off = P + 1
    cols[1, off] = 1.0
    zl = np.longdouble(z)
    bl = np.longdouble(beta)
    for p in range(1, P + 1):
        rows = slice(off - p, off + p + 1)  # qe = -p..p
        plus1, minus1 = cols[p, off - p + 1:off + p + 2], cols[p, off - p - 1:off + p]  # qe +- 1
        cql, sql = cos[P - p:P + p + 1], sin[P - p:P + p + 1]
        ra = zl * cols[p, rows] - bl * cos[p + P] * (plus1 + minus1)
        rb = bl * sin[p + P] * (plus1 - minus1)
        nxt = cql * ra + sql * rb - (cql * cql - sql * sql) * cols[p - 1, rows]
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(nxt.astype(float))
        if bad.any():
            raise ArithmeticError(f"recursion breakdown at column {p + 1}, "
                                  f"row {int(np.argmax(bad)) - p}")
        cols[p + 1, rows] = nxt
    n = 2 * P + 1
    right = np.zeros((n, n))
    right[P + 1:] = cols[1:P + 1, 1:-1]
    left = right[::-1, ::-1].copy()
    plus = CoefficientSheet("R+", freq, float(beta), float(z), P, right)
    minus = CoefficientSheet("R-", freq, float(beta), float(z), P, left)
    return plus, minus


def symmetrized_sheet(plus: CoefficientSheet, minus: CoefficientSheet) -> CoefficientSheet:
    """Arithmetic mean of the one-sided pair: supported on |qe| < |p|.

    With the unit seed this has value exactly 1/2 at (1, 0), is even under
    separate index negation, and decays at rate beta along the sector edges.
    """
    _check_match(plus, minus)
    if plus.kind != "R+" or minus.kind != "R-":
        raise ValueError("expected the (right, left) pair")
    vals = 0.5 * (plus.values + minus.values)
    return CoefficientSheet("d", plus.freq, plus.beta, plus.z, plus.window, vals)


def build_phi(c_sheet: CoefficientSheet, d_sheet: CoefficientSheet) -> CoefficientSheet:
    """Homogenized sheet c - d: solves the full system including the origin row."""
    _check_match(c_sheet, d_sheet)
    if c_sheet.kind != "c" or d_sheet.kind != "d":
        raise ValueError("expected a (c, d) pair")
    return CoefficientSheet("phi", c_sheet.freq, c_sheet.beta, c_sheet.z,
                            c_sheet.window, c_sheet.values - d_sheet.values)


def _check_match(a: CoefficientSheet, b: CoefficientSheet):
    if (a.freq, a.beta, a.z, a.window) != (b.freq, b.beta, b.z, b.window):
        raise ValueError("sheets disagree on (freq, beta, z, window)")


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted exponential rate along one lattice line."""

    slope: int
    offset: int
    rho: float
    fit_residual: float
    n_points: int
    all_zero: bool = False


def decay_rate(sheet: CoefficientSheet, slope: int, offset: int) -> DecayEstimate:
    """Least-squares fit of log|entry| against |p| along a lattice line.

    Exact zeros (support boundaries) are excluded; an all-zero line returns
    the rho = 0 sentinel, and fewer than 4 nonzero points raise ValueError.
    """
    entries = sheet.line(slope, offset)
    if not entries:
        raise ValueError(f"line (slope={slope}, offset={offset}) misses the window")
    pts = [(abs(p), abs(v)) for (p, _), v in entries if v != 0.0]
    if not pts:
        return DecayEstimate(slope, offset, 0.0, 0.0, 0, all_zero=True)
    if len(pts) < 4:
        raise ValueError(f"only {len(pts)} nonzero points on line "
                         f"(slope={slope}, offset={offset}); need 4")
    xs = np.array([p for p, _ in pts], dtype=float)
    ys = np.log(np.array([v for _, v in pts]))
    design = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = float(np.sqrt(np.mean((design @ sol - ys) ** 2)))
    return DecayEstimate(slope, offset, float(np.exp(sol[0])), resid, len(pts))


@dataclass(frozen=True)
class VanishingReport:
    c00: float
    c01: float
    threshold: float

    @property
    def both_vanish(self) -> bool:
        return abs(self.c00) <= self.threshold and abs(self.c01) <= self.threshold


def vanishing_probe(sheet: CoefficientSheet) -> VanishingReport:
    """Report the two origin-adjacent entries whose joint vanishing is
    forbidden; both vanish when neither exceeds 1e-8."""
    return VanishingReport(sheet.value(0, 0), sheet.value(0, 1), 1e-8)
