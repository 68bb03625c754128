"""Band structure, gaps, IDS, gap labelling, duality, and gap tracking.

The determinant of the Harper matrix splits into a phase-independent monic
polynomial plus two pure cosines,

    det(E - H(t1, t2)) = P(E) + c1 cos(q t1) + c2 cos(q t2),

with c1 = -2 and c2 = -2 beta^q.  P is the trace of the transfer product
prod_n [[E - V_n, -beta^2], [1, 0]] over the potentials V_n at the center
phase, where both cosines vanish (Chambers' relation); its value and its
partials in E and beta come from one forward-mode pass of that three-term
recurrence.  Band edges are eigenvalues of the two corner matrices
(cosines = +-1), the IDS inside a band is the torus measure of a
half-space, and gap labels solve a congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .rationals import TWO_PI, RationalFrequency


class ChambersError(RuntimeError):
    """Raised when the determinant fails its phase-independence check."""


def _potential(freq: RationalFrequency, theta1) -> np.ndarray:
    """Harper diagonal 2 cos(theta1 + 2 pi j p / q), shape theta1.shape + (q,)."""
    q = freq.q
    return 2.0 * np.cos(np.asarray(theta1, dtype=float)[..., None]
                        + TWO_PI * ((np.arange(q) * freq.p) % q) / q)


def harper_matrix(freq: RationalFrequency, beta: float, theta1, theta2) -> np.ndarray:
    """The q x q Harper matrix at phases (theta1, theta2); beta = 0 is allowed here.

    The phases broadcast against each other and the result has shape
    broadcast(theta1, theta2).shape + (q, q), so one call assembles a whole
    phase sample for a batched eigensolve or inverse.  The gauge puts the
    whole hopping phase q theta2 on the closing bond (q-1, 0) and leaves
    every other bond at beta, so the matrix is real wherever
    cos(q theta2) = +-1.
    """
    q = freq.q
    theta2 = np.asarray(theta2, dtype=float)
    diag = _potential(freq, theta1)  # before broadcasting: one cosine per phase given
    h = np.zeros(np.broadcast_shapes(diag.shape[:-1], theta2.shape) + (q, q), dtype=complex)
    j = np.arange(q)
    h[..., j, j] = diag
    if q == 1:
        h[..., 0, 0] += 2.0 * beta * np.cos(theta2)
    else:
        h[..., j[1:], j[:-1]] = beta
        h[..., j[:-1], j[1:]] = beta
        closing = beta * np.exp(1j * q * theta2)
        h[..., 0, q - 1] += closing
        h[..., q - 1, 0] += np.conj(closing)
    return h


@dataclass(frozen=True)
class ChambersData:
    """Phase-independent data of det(E - H): center potentials and cosine amplitudes.

    P(E) is the trace of prod_n [[E - V_n, -beta^2], [1, 0]] over
    `potential`, the Harper diagonal V_n at the center phase
    t1 = pi/(2q), where cos(q t1) = 0 (Chambers' relation).  `jet` gives P
    and its partials in (E, beta) from one pass of that recurrence, O(q)
    per call and without any eigensolve.
    """

    freq: RationalFrequency
    beta: float
    potential: tuple = field(repr=False)
    c1: float
    c2: float

    @property
    def q(self) -> int:
        return self.freq.q

    @property
    def amplitude(self) -> float:
        """Total cosine range |c1| + |c2|."""
        return abs(self.c1) + abs(self.c2)

    @property
    def lam(self) -> np.ndarray:
        """Zeros of P, one per band: the center-phase eigenvalues (for reporting)."""
        t = np.pi / (2.0 * self.q)
        return np.linalg.eigvalsh(harper_matrix(self.freq, self.beta, t, t))

    @property
    def poly(self) -> np.ndarray:
        """Monic coefficients of P, highest degree first (for reporting)."""
        return np.poly(self.lam)

    def jet(self, E, order: int = 2):
        """P and its partials up to total order 0, 1 or 2 at E (a float or an array).

        Returns (P,), (P, P', dP/dbeta) or
        (P, P', P'', dP/dbeta, dP'/dbeta, d2P/dbeta2).  Both columns of the
        running product obey x_n = (E - V_n) x_{n-1} - s x_{n-2} with
        s = beta^2, from (x_0, x_{-1}) = (1, 0) and (0, 1); the trace is the
        first column's last entry plus the second column's last but one.
        The partials in (E, s) ride along by forward-mode differentiation,
        each order only when requested, and the chain rule to beta is
        applied at the end.  A value outside the float64 range raises
        ArithmeticError.
        """
        E = np.asarray(E, dtype=float) if np.ndim(E) else float(E)
        s = self.beta * self.beta
        u, up, v, vp = 1.0, 0.0, 0.0, 1.0
        ue = us = upe = ups = ve = vs = vpe = vps = 0.0
        uee = ues = uss = upee = upes = upss = 0.0
        vee = ves = vss = vpee = vpes = vpss = 0.0
        for w in self.potential:
            a = E - w
            if order:  # higher partials first: each reads the old lower ones
                if order == 2:
                    uee, ues, uss, upee, upes, upss = (
                        2.0 * ue + a * uee - s * upee, us + a * ues - upe - s * upes,
                        a * uss - 2.0 * ups - s * upss, uee, ues, uss)
                    vee, ves, vss, vpee, vpes, vpss = (
                        2.0 * ve + a * vee - s * vpee, vs + a * ves - vpe - s * vpes,
                        a * vss - 2.0 * vps - s * vpss, vee, ves, vss)
                ue, us, upe, ups = u + a * ue - s * upe, a * us - up - s * ups, ue, us
                ve, vs, vpe, vps = v + a * ve - s * vpe, a * vs - vp - s * vps, ve, vs
            u, up = a * u - s * up, u
            v, vp = a * v - s * vp, v
        P, Pe, Ps, b2 = u + vp, ue + vpe, us + vps, 2.0 * self.beta
        if order == 0:
            out = (P,)
        elif order == 1:
            out = (P, Pe, b2 * Ps)
        else:
            out = (P, Pe, uee + vpee, b2 * Ps, b2 * (ues + vpes),
                   2.0 * Ps + 4.0 * s * (uss + vpss))
        if not np.all(np.isfinite(out)):
            raise ArithmeticError(f"P or its derivatives leave the float64 range at "
                                  f"q={self.q}, E={E}")
        return out

    def P(self, E):
        return self.jet(E, 0)[0]

    def dP(self, E):
        return self.jet(E, 1)[1]


def chambers(freq: RationalFrequency, beta: float, verify: bool = True,
             tol: float = 1e-10) -> ChambersData:
    """Determinant decomposition at coupling beta >= 0.

    Stores the q center potentials that define P and the exact cosine
    amplitudes c1 = -2 and c2 = -2 beta^q; no eigensolve runs.  With
    verify=True, det(-H) minus both cosines is compared with P(0) on a
    5 x 5 phase sample, to tol times the roundoff scale of the eigenvalue
    product.
    """
    if beta < 0:
        raise ValueError(f"coupling must be nonnegative, got {beta}")
    q = freq.q
    data = ChambersData(freq, float(beta), tuple(_potential(freq, np.pi / (2.0 * q)).tolist()),
                        -2.0, -2.0 * beta ** q)
    if verify:
        _verify_phase_independence(data, tol)
    return data


def _verify_phase_independence(ch: ChambersData, tol: float):
    q = ch.q
    a, b = np.meshgrid(np.linspace(0.13, TWO_PI / q, 5), np.linspace(0.31, TWO_PI / q, 5),
                       indexing="ij")
    lam = np.linalg.eigvalsh(harper_matrix(ch.freq, ch.beta, a, b))
    det = np.prod(-lam, axis=-1)
    worst = float(np.max(np.abs(det - ch.c1 * np.cos(q * a) - ch.c2 * np.cos(q * b)
                                - ch.P(0.0))))
    # first-order roundoff of the eigenvalue product at each sample: every
    # eigenvalue is exact to about eps max|lam|, so |lam_i| is exact to
    # eps max|lam| / |lam_i| relative; the largest sample sets the scale
    mag = np.abs(lam)
    scale = float(np.max(np.abs(det) * np.sum(mag.max(axis=-1, keepdims=True) / mag,
                                              axis=-1)))
    if not worst <= tol * scale:
        raise ChambersError(
            f"phase-independence residual {worst:.3e} exceeds {tol:.1e} x scale {scale:.3e} "
            f"at {ch.freq}, beta={ch.beta}"
        )


@dataclass(frozen=True)
class BandSet:
    """Sorted spectral bands, one per monotone branch of P.

    Consecutive bands may share an endpoint (touching); the central pair for
    even q always does.  `merged` collapses touchings for presentation.
    """

    freq: RationalFrequency
    beta: float
    bands: tuple
    chambers: ChambersData | None = field(default=None, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.freq.q

    @property
    def hull(self):
        return self.bands[0][0], self.bands[-1][1]

    def gap_intervals(self):
        return tuple((self.bands[i][1], self.bands[i + 1][0]) for i in range(len(self.bands) - 1))

    def merged(self, tol: float = 1e-9):
        out = [list(self.bands[0])]
        for lo, hi in self.bands[1:]:
            if lo - out[-1][1] <= tol:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return tuple((a, b) for a, b in out)

    def distance(self, E) -> float:
        """Distance from (possibly complex) E to the band union."""
        x, y = float(np.real(E)), float(np.imag(E))
        best = np.inf
        for lo, hi in self.bands:
            dx = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            best = min(best, np.hypot(dx, y))
        return best


def corner_bands(freq: RationalFrequency, beta: float) -> BandSet:
    """Band set from the two corner matrices, with no determinant data.

    Solutions of P(E) = +-(|c1| + |c2|) are exactly the eigenvalues of H at
    the corner phases where both cosines are +-1, so the 2q edges come from
    two eigensolves; sorting and pairing them yields the bands.  In the
    gauge of `harper_matrix` both corners are real symmetric: every bond is
    +beta, except the closing bond at theta2 = pi/q, which is -beta.  A
    touching gap appears as a degenerate corner eigenvalue and therefore
    has width at roundoff scale, with no root finding, so exponentially
    thin bands pass.
    """
    if beta < 0:
        raise ValueError(f"coupling must be nonnegative, got {beta}")
    q = freq.q
    e_hi = np.linalg.eigvalsh(harper_matrix(freq, beta, 0.0, 0.0).real)
    e_lo = np.linalg.eigvalsh(harper_matrix(freq, beta, np.pi / q, np.pi / q).real)
    edges = np.sort(np.concatenate([e_hi, e_lo])).tolist()
    bands = list(zip(edges[0::2], edges[1::2]))
    for i in range(q - 1):
        if bands[i][1] > bands[i + 1][0] + 1e-9:
            raise ChambersError(f"band pairing failed at {freq}, beta={beta}")
    if beta == 0.0:
        # free case: all interior gaps are exactly closed; weld the edges
        welded = [list(bands[0])]
        for lo, hi in bands[1:]:
            mid = 0.5 * (welded[-1][1] + lo)
            welded[-1][1] = mid
            welded.append([mid, hi])
        bands = [tuple(x) for x in welded]
    return BandSet(freq, beta, tuple(bands))


def band_edges(ch: ChambersData) -> BandSet:
    """`corner_bands` at the data's coupling, carrying `ch` for the in-band IDS."""
    return replace(corner_bands(ch.freq, ch.beta), chambers=ch)


def _band_measure(ch: ChambersData, E: np.ndarray, n_psi: int = 2048) -> np.ndarray:
    """Torus measure of {D > 0} at each energy of a 1-d array, D = P + c1 x + c2 y.

    With c1 = -2 the inner measure over x is an arccos; the psi average is a
    trapezoid (the integrand has only square-root kinks, which the band
    interpolation tolerance absorbs).
    """
    psi = TWO_PI * np.arange(n_psi) / n_psi
    t = (ch.P(E)[:, None] + ch.c2 * np.cos(psi)) / 2.0
    return np.mean(1.0 - np.arccos(np.clip(t, -1.0, 1.0)) / np.pi, axis=-1)


def ids(bands: BandSet, E):
    """Integrated density of states at energy E, a float or an array of floats.

    Each band carries weight 1/q; on the j-th gap the value is exactly j/q.
    Inside a band the fraction is the phase-torus measure where the energy
    counting includes the band, computed from the determinant decomposition
    when available and by linear interpolation otherwise.  Band edges carry
    exact counting values: the bottom of band i counts i - 1 bands and its
    top counts i, so a point where bands i and i+1 touch counts i.  An
    array gives an array of the same shape whose entries equal the scalar
    calls bitwise; the torus measure holds len(E) x 2048 floats at once.
    """
    q = bands.q
    x = np.asarray(E, dtype=float)
    edges = np.asarray(bands.bands, dtype=float)
    k = np.minimum(np.searchsorted(edges[:, 1], x), q - 1)  # first band whose top is >= x
    lo, hi = edges[k, 0], edges[k, 1]
    inside = (lo < x) & (x < hi)
    frac = np.zeros(x.shape)
    if np.any(inside):
        xi, ki = x[inside], k[inside]
        if bands.chambers is None:
            f = (xi - lo[inside]) / (hi[inside] - lo[inside])
        else:
            s = _band_measure(bands.chambers, xi)
            f = np.where((q - 1 - ki) % 2 == 0, s, 1.0 - s)
        frac[inside] = np.clip(f, 0.0, 1.0)
    counted = k + ((x == hi) & (x > lo))
    out = np.where(x <= edges[0, 0], 0.0,
                   np.where(x >= edges[-1, 1], 1.0, (counted + frac) / q))
    return float(out) if out.ndim == 0 else out


def gap_label(j: int, freq: RationalFrequency):
    """Integers (m, n) with j/q = m + n p/q and |n| <= q/2.

    Unique for odd q; for even q and j = q/2 the tie n = +-q/2 is broken
    toward +q/2.
    """
    q, p = freq.q, freq.p
    if not 1 <= j <= q - 1:
        raise ValueError(f"gap index must satisfy 1 <= j <= q-1, got {j}")
    n = (j * pow(p, -1, q)) % q
    if n > q / 2:  # n = q/2 keeps the positive representative
        n -= q
    m = (j - n * p) // q
    assert m * q + n * p == j
    return m, n


@dataclass(frozen=True)
class GapRecord:
    freq: RationalFrequency
    beta: float
    j: int
    lo: float
    hi: float
    ids_value: Fraction
    label: tuple
    hall: int
    is_open: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def csv_row(self) -> str:
        m, n = self.label
        return ",".join([
            str(self.freq.p), str(self.freq.q), _fmt(self.beta),
            _fmt(self.lo), _fmt(self.hi),
            str(self.ids_value.numerator), str(self.ids_value.denominator),
            str(m), str(n), _fmt(self.width),
        ])


GAP_CSV_HEADER = "p,q,beta,gap_lo,gap_hi,ids_num,ids_den,m,n,width"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def gaps(freq: RationalFrequency, beta: float, min_width: float = 1e-9,
         band_set: BandSet | None = None):
    """Labelled gap records at coupling beta.

    Every inter-band interval wider than min_width is reported as open; the
    even-q central touching is always reported, marked closed.  beta = 0 is
    the degenerate free case with no gaps at all.
    """
    if beta < 0:
        raise ValueError("coupling must be nonnegative")
    if band_set is None:
        band_set = corner_bands(freq, beta)
    return [GapRecord(freq, float(beta), j, lo, hi, Fraction(j, freq.q), (m, n), n, is_open)
            for j, lo, hi, m, n, is_open in _gap_tuples(band_set, min_width)]


def _gap_tuples(band_set: BandSet, min_width: float):
    """(j, lo, hi, m, n, is_open) per gap that `gaps` reports, as plain tuples."""
    if band_set.beta == 0.0:
        return []
    freq, q = band_set.freq, band_set.q
    out = []
    for j, (lo, hi) in enumerate(band_set.gap_intervals(), start=1):
        width = hi - lo
        central = (q % 2 == 0 and j == q // 2)
        if width <= min_width and not central:
            continue
        m, n = gap_label(j, freq)
        out.append((j, float(lo), float(hi), m, n, width > min_width))
    return out


@dataclass(frozen=True)
class DualityReport:
    freq: RationalFrequency
    beta: float
    hausdorff: float


def hausdorff_intervals(a, b) -> float:
    """Hausdorff distance between two closed unions of intervals."""
    def sup_dist(src, dst):
        worst = 0.0
        # candidate maximizers: endpoints of src, and dst-gap midpoints inside src
        cands = [x for lo, hi in src for x in (lo, hi)]
        for i in range(len(dst) - 1):
            mid = 0.5 * (dst[i][1] + dst[i + 1][0])
            if any(lo <= mid <= hi for lo, hi in src):
                cands.append(mid)
        for x in cands:
            d = min(0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                    for lo, hi in dst)
            worst = max(worst, d)
        return worst
    a = sorted(tuple(map(float, iv)) for iv in a)
    b = sorted(tuple(map(float, iv)) for iv in b)
    return max(sup_dist(a, b), sup_dist(b, a))


def dual_check(freq: RationalFrequency, beta: float) -> DualityReport:
    """Compare the band set at beta against beta times the set at 1/beta."""
    if beta <= 0:
        raise ValueError("coupling must be positive")
    bands = corner_bands(freq, beta)
    if beta == 1.0:
        return DualityReport(freq, beta, 0.0)
    dual = corner_bands(freq, 1.0 / beta)
    scaled = [(beta * lo, beta * hi) for lo, hi in dual.bands]
    return DualityReport(freq, float(beta), hausdorff_intervals(bands.bands, scaled))


@dataclass(frozen=True)
class GapTrack:
    freq: RationalFrequency
    label: tuple
    j: int
    beta_grid: tuple
    widths: tuple
    open_flags: tuple

    @property
    def always_open(self) -> bool:
        return all(self.open_flags)


def label_to_index(label, freq: RationalFrequency) -> int:
    """Gap index j of an (m, n) label, or raise if not realizable."""
    m, n = label
    q, p = freq.q, freq.p
    if abs(n) > q / 2:
        raise ValueError(f"label {label} not realizable at {freq}: |n| > q/2")
    j = m * q + n * p
    if not 1 <= j <= q - 1:
        raise ValueError(f"label {label} at {freq} gives gap index {j} outside 1..q-1")
    return j


def track_gap(label, freq: RationalFrequency, beta_grid, min_width: float = 1e-9) -> GapTrack:
    """Width of one labelled gap across a strictly increasing coupling grid."""
    grid = [float(b) for b in beta_grid]
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    if any(not 0 < b for b in grid):
        raise ValueError("beta grid must be positive")
    j = label_to_index(label, freq)
    widths = []
    for beta in grid:
        lo, hi = corner_bands(freq, beta).gap_intervals()[j - 1]
        widths.append(max(hi - lo, 0.0))
    return GapTrack(freq, tuple(label), j, tuple(grid), tuple(widths),
                    tuple(w > min_width for w in widths))
