"""Band structure, gaps, IDS, gap labelling, duality, and gap tracking.

The determinant of the Harper matrix splits into a phase-independent monic
polynomial plus two pure cosines,

    det(E - H(t1, t2)) = P(E) + c1 cos(q t1) + c2 cos(q t2),

with c1 = -2 and c2 = -2 beta^q in the clock/shift gauge.  Everything here
rides on that decomposition: band edges are eigenvalues of the two corner
matrices (cosines = +-1), the IDS inside a band is the torus measure of a
half-space, and gap labels solve a congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .rationals import RationalFrequency


TWO_PI = 2.0 * np.pi


class ChambersError(RuntimeError):
    """Raised when the determinant fails its phase-independence check."""


def harper_matrix(freq: RationalFrequency, beta: float, theta1: float, theta2: float) -> np.ndarray:
    """The q x q Harper matrix at fixed phases; beta = 0 is allowed here.

    The gauge puts the whole hopping phase q theta2 on the closing bond
    (q-1, 0) and leaves every other bond at beta, so the matrix is real
    wherever cos(q theta2) = +-1.
    """
    q = freq.q
    j = np.arange(q)
    diag = 2.0 * np.cos(theta1 + TWO_PI * ((j * freq.p) % q) / q)
    h = np.zeros((q, q), dtype=complex)
    h[j, j] = diag
    if q == 1:
        h[0, 0] += 2.0 * beta * np.cos(theta2)
    else:
        hop = np.full(q, beta, dtype=complex)
        hop[0] = beta * np.exp(1j * q * theta2)
        h[j, (j - 1) % q] += hop
        h[(j - 1) % q, j] += np.conj(hop)
    return h


@dataclass(frozen=True)
class ChambersData:
    """Phase-independent polynomial data of det(E - H).

    P is stored through its roots (the center-phase eigenvalues), which keeps
    every evaluation near the spectrum well conditioned; `dlam`/`d2lam` are
    the first and second coupling derivatives of those roots, so coupling
    derivatives of P are available in closed form.
    """

    freq: RationalFrequency
    beta: float
    lam: np.ndarray = field(repr=False)
    dlam: np.ndarray = field(repr=False)
    d2lam: np.ndarray = field(repr=False)
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
    def poly(self) -> np.ndarray:
        """Monic coefficients of P, highest degree first (for reporting)."""
        return np.poly(self.lam)

    def P(self, E):
        E = np.asarray(E, dtype=float)
        return np.prod(E[..., None] - self.lam, axis=-1)

    def dP(self, E):
        """P'(E), stable both near and away from the roots."""
        E = np.asarray(E, dtype=float)
        diffs = E[..., None] - self.lam
        q = self.q
        out = np.zeros_like(E, dtype=float)
        # sum of products over all roots but one
        for i in range(q):
            out = out + np.prod(np.delete(diffs, i, axis=-1), axis=-1)
        return out

    def d2P(self, E):
        E = float(E)
        r = 1.0 / (E - self.lam)
        s1 = np.sum(r)
        s2 = np.sum(r * r)
        return self.P(E) * (s1 * s1 - s2)

    def dbeta_P(self, E):
        """d/dbeta P(E) via the coupling derivatives of the roots."""
        E = float(E)
        diffs = E - self.lam
        out = 0.0
        for i in range(self.q):
            out -= self.dlam[i] * np.prod(np.delete(diffs, i))
        return out

    def dbeta_dP(self, E):
        """d/dbeta P'(E)."""
        E = float(E)
        r = 1.0 / (E - self.lam)
        Pz = self.P(E)
        t1 = -np.sum(self.dlam * r)
        t1p = np.sum(self.dlam * r * r)
        return self.dP(E) * t1 + Pz * t1p

    def d2beta_P(self, E):
        E = float(E)
        r = 1.0 / (E - self.lam)
        Pz = self.P(E)
        t1 = -np.sum(self.dlam * r)
        return Pz * (-np.sum(self.d2lam * r) + t1 * t1 - np.sum(self.dlam ** 2 * r * r))


def chambers(freq: RationalFrequency, beta: float, verify: bool = True,
             tol: float = 1e-10) -> ChambersData:
    """Determinant decomposition at coupling beta >= 0.

    The polynomial roots come from the matrix at center phases
    (cos(q theta) = 0 for both angles); the cosine amplitudes are the exact
    path sums c1 = -2 and c2 = -2 beta^q.  With verify=True the claimed
    phase independence is checked on a 5 x 5 phase sample.
    """
    if freq.q < 1:
        raise ValueError("need q >= 1")
    if beta < 0:
        raise ValueError(f"coupling must be nonnegative, got {beta}")
    q = freq.q
    t_star = np.pi / (2.0 * q)
    h0 = harper_matrix(freq, beta, t_star, t_star)
    lam, vecs = np.linalg.eigh(h0)
    if q > 1 and float(np.min(np.diff(lam))) < 1e-10:
        # center-phase energies sit in distinct band interiors; a collision
        # would poison the coupling derivatives, so fail loudly
        raise ChambersError(f"near-degenerate center-phase spectrum at {freq}, "
                            f"beta={beta}")
    # H is affine in beta, so its coupling derivative is the hopping part
    # alone, in the same gauge as h0
    dh = harper_matrix(freq, 1.0, t_star, t_star) - harper_matrix(freq, 0.0, t_star, t_star)
    w = vecs.conj().T @ dh @ vecs
    dlam = np.diag(w).real.copy()
    d2lam = np.zeros(q)
    for i in range(q):
        gaps_i = lam[i] - lam
        gaps_i[i] = np.inf
        d2lam[i] = 2.0 * np.sum(np.abs(w[i, :]) ** 2 / gaps_i)
    c1 = -2.0
    c2 = -2.0 * beta ** q
    data = ChambersData(freq, float(beta), lam, dlam, d2lam, c1, c2)
    if verify:
        _verify_phase_independence(data, tol)
    return data


def _verify_phase_independence(ch: ChambersData, tol: float):
    q = ch.q
    base = None
    worst = 0.0
    scale = max(1.0, float(np.max(np.abs(ch.lam))) ** q)
    for a in np.linspace(0.13, TWO_PI / q, 5):
        for b in np.linspace(0.31, TWO_PI / q, 5):
            lam_ab = np.linalg.eigvalsh(harper_matrix(ch.freq, ch.beta, a, b))
            det0 = np.prod(-lam_ab)  # det(0 - H)
            resid = det0 - ch.c1 * np.cos(q * a) - ch.c2 * np.cos(q * b)
            if base is None:
                base = resid
            worst = max(worst, abs(resid - base))
    if worst > tol * scale:
        raise ChambersError(
            f"phase-independence residual {worst:.3e} exceeds {tol:.1e} x scale "
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
    has width at roundoff scale, with no root finding and no
    near-degeneracy guard, so exponentially thin bands pass.
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


def _band_measure(ch: ChambersData, E: float, n_psi: int = 2048) -> float:
    """Torus measure of {D > 0} at energy E, D = P + c1 x + c2 y.

    With c1 = -2 the inner measure over x is an arccos; the psi average is a
    trapezoid (the integrand has only square-root kinks, which the band
    interpolation tolerance absorbs).
    """
    psi = TWO_PI * np.arange(n_psi) / n_psi
    t = (ch.P(E) + ch.c2 * np.cos(psi)) / 2.0
    return float(np.mean(1.0 - np.arccos(np.clip(t, -1.0, 1.0)) / np.pi))


def ids(bands: BandSet, E: float) -> float:
    """Integrated density of states at energy E.

    Each band carries weight 1/q; on the j-th gap the value is exactly j/q.
    Inside a band the fraction is the phase-torus measure where the energy
    counting includes the band, computed from the determinant decomposition
    when available and by linear interpolation otherwise.
    """
    q = bands.q
    if E <= bands.bands[0][0]:
        return 0.0
    if E >= bands.bands[-1][1]:
        return 1.0
    for i, (lo, hi) in enumerate(bands.bands, start=1):
        if E < lo:
            return (i - 1) / q
        if lo <= E <= hi:
            if E == lo:  # band edges carry exact counting values
                return (i - 1) / q
            if E == hi:
                return i / q
            if bands.chambers is None:
                frac = (E - lo) / (hi - lo) if hi > lo else 0.5
            else:
                s = _band_measure(bands.chambers, E)
                frac = s if (q - i) % 2 == 0 else 1.0 - s
            return ((i - 1) + min(max(frac, 0.0), 1.0)) / q
    return 1.0


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
