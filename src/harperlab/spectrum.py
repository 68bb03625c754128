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

import cmath
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._torus import STRIP_EFOLDS
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

    def jet(self, E, order: int = 2):
        """P and its partials up to total order 0, 1 or 2 at E (a number or an array).

        Returns (P,), (P, P') or (P, P', P'', dP/dbeta, dP'/dbeta, d2P/dbeta2):
        order 1 is P and P', all that root finding on P' reads, and order 2
        adds P'' and the three beta-partials.  Both columns of the running
        product obey x_n = (E - V_n) x_{n-1} - s x_{n-2} with s = beta^2,
        from (x_0, x_{-1}) = (1, 0) and (0, 1); the trace is the first
        column's last entry plus the second column's last but one.  The
        partials in (E, s) ride along by forward-mode differentiation, each
        order only when requested, and the chain rule to beta is applied at
        the end.  A number, 0-d arrays included, gives Python numbers.  A
        value outside the float64 range raises ArithmeticError.
        """
        scalar = isinstance(E, (float, int, complex, np.generic)) or not np.ndim(E)
        if scalar:  # typed by isinstance: a numpy call costs as much as a step at small q
            E = E.item() if isinstance(E, (np.generic, np.ndarray)) else E
            E = complex(E) if isinstance(E, complex) else float(E)
        else:
            E = np.asarray(E, dtype=complex if np.iscomplexobj(E) else float)
        s = self.beta * self.beta
        u, up, v, vp = 1.0, 0.0, 0.0, 1.0
        ue = us = upe = ups = ve = vs = vpe = vps = 0.0
        uee = ues = uss = upee = upes = upss = 0.0
        vee = ves = vss = vpee = vpes = vpss = 0.0
        for w in self.potential:
            a = E - w
            if order == 2:  # higher partials first: each reads the old lower ones
                uee, ues, uss, upee, upes, upss = (
                    2.0 * ue + a * uee - s * upee, us + a * ues - upe - s * upes,
                    a * uss - 2.0 * ups - s * upss, uee, ues, uss)
                vee, ves, vss, vpee, vpes, vpss = (
                    2.0 * ve + a * vee - s * vpee, vs + a * ves - vpe - s * vpes,
                    a * vss - 2.0 * vps - s * vpss, vee, ves, vss)
                us, ups = a * us - up - s * ups, us
                vs, vps = a * vs - vp - s * vps, vs
            if order:
                ue, upe = u + a * ue - s * upe, ue
                ve, vpe = v + a * ve - s * vpe, ve
            u, up = a * u - s * up, u
            v, vp = a * v - s * vp, v
        P, Ps, b2 = u + vp, us + vps, 2.0 * self.beta
        if order == 0:
            out = (P,)
        elif order == 1:
            out = (P, ue + vpe)
        else:
            out = (P, ue + vpe, uee + vpee, b2 * Ps, b2 * (ues + vpes),
                   2.0 * Ps + 4.0 * s * (uss + vpss))
        if not (all(map(cmath.isfinite, out)) if scalar else np.all(np.isfinite(out))):
            raise ArithmeticError(f"P or its derivatives leave the float64 range at "
                                  f"q={self.q}, E={E}")
        return out

    def P(self, E):
        return self.jet(E, 0)[0]

    def dP(self, E):
        return self.jet(E, 1)[1]


def chambers(freq: RationalFrequency, beta: float, verify: bool = True) -> ChambersData:
    """Determinant decomposition at coupling beta >= 0.

    Stores the q center potentials that define P and the exact cosine
    amplitudes c1 = -2 and c2 = -2 beta^q; no eigensolve runs.  With
    verify=True, det(-H) minus both cosines is compared with P(0) on a
    5 x 5 phase sample, to 1e-10 times the roundoff scale of the
    eigenvalue product.
    """
    if not 0 <= beta < np.inf:
        raise ValueError(f"coupling must be finite and nonnegative, got {beta}")
    q = freq.q
    try:  # ldexp(x, 1) is 2x exactly, and raises where 2x leaves the float64 range
        c2 = -math.ldexp(float(beta) ** q, 1)
    except OverflowError:
        raise ArithmeticError(f"-2 beta^q leaves the float64 range at q={q}, beta={beta}") from None
    data = ChambersData(freq, float(beta), tuple(_potential(freq, np.pi / (2.0 * q)).tolist()),
                        -2.0, c2)
    if verify:
        _verify_phase_independence(data)
    return data


def _verify_phase_independence(ch: ChambersData):
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
    if not worst <= 1e-10 * scale:
        raise ChambersError(
            f"phase-independence residual {worst:.3e} exceeds 1.0e-10 x scale {scale:.3e} "
            f"at {ch.freq}, beta={ch.beta}"
        )


@dataclass(frozen=True)
class BandSet:
    """Sorted spectral bands, one per monotone branch of P.

    Consecutive bands may share an endpoint (touching); the central pair for
    even q always does.
    """

    freq: RationalFrequency
    beta: float
    bands: tuple

    @property
    def q(self) -> int:
        return self.freq.q

    @property
    def hull(self):
        return self.bands[0][0], self.bands[-1][1]

    def gap_intervals(self):
        return tuple((self.bands[i][1], self.bands[i + 1][0]) for i in range(len(self.bands) - 1))

    def distance(self, E) -> float:
        """Distance from (possibly complex) E to the band union."""
        x, y = float(np.real(E)), float(np.imag(E))
        lo, hi = np.asarray(self.bands, dtype=float).T
        return float(np.min(np.hypot(_outside(x, lo, hi), y)))


def _outside(x, lo, hi):
    """How far x lies outside [lo, hi], max(lo - x, x - hi, 0), broadcast over arrays."""
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


def _tridiagonal_eigvalsh(diag, off) -> np.ndarray:
    """Eigenvalues of the tridiagonal matrices with diagonals diag (n, k) and sub-diagonal off."""
    n, k = diag.shape
    m = np.zeros((n, k, k))
    m[:, range(k), range(k)] = diag
    m[:, range(1, k), range(k - 1)] = off
    return np.linalg.eigvalsh(m)  # reads the lower triangle only


def corner_edges(q: int, ps, beta: float) -> np.ndarray:
    """The sorted 2q corner eigenvalues of every p/q, p in ps, as a (len(ps), 2q) array.

    Each min(p, q - p) is solved once for p and q - p, whose spectra agree as
    H(1 - alpha, theta) = H(alpha, -theta), so mirror rows are equal bit for bit.
    A reflection of the site ring splits each corner into two tridiagonal
    blocks of about q/2 sites, solved for all ps in one call per block size.
    Hi corner (every bond +beta), j -> -j: sites 0..q//2 with sqrt(2) beta
    on the bonds to fixed sites, and 1..(q+1)//2 - 1; for odd q the bond
    {m, m + 1}, m = (q - 1)/2, adds +-beta to their last entries.  For odd q
    the lo edges are exactly -hi, as diag((-1)^j) maps H(pi, pi/q) to
    -H(0, 0).  Even q: at t1 = -pi p/q, k -> 1 - k, and with the -beta
    gauged onto the bond (0, 1) both blocks hold W_1..W_{q/2}, the first
    -+ beta and the last +- beta.  q = 2 joins its sites twice (2 beta).
    """
    if not 0 <= beta < np.inf:
        raise ValueError(f"coupling must be finite and nonnegative, got {beta}")
    row = {}  # each distinct min(p, q - p), numbered as it first appears; ps[i] reads row back[i]
    back = [row.setdefault(min(p, q - p), len(row)) for p in ps]
    p, half, odd, b = np.fromiter(row, np.int64, len(row))[:, None], q // 2, q % 2, float(beta)
    k = np.arange(half + 1)
    v = 2.0 * np.cos(TWO_PI * (k * p % q) / q)  # hi potentials V_0..V_{q//2}
    if q == 1:
        hi = [v + 2.0 * b]
    else:
        off = np.full(half, b)
        off[[0, 0 if odd else -1]] = 2.0 * b if q == 2 else np.sqrt(2.0) * b
        pair = np.where(k == half, odd * b, 0.0)  # the bond {m, m + 1} of odd q
        hi = [_tridiagonal_eigvalsh(v + pair, off),
              _tridiagonal_eigvalsh((v - pair)[:, 1:half + odd], b)]
    if odd:
        return np.sort(np.concatenate(hi + [-x for x in hi], axis=1), axis=1)[back]
    w = 2.0 * np.cos(np.pi * ((2 * k[1:] - 1) * p % (2 * q)) / q)  # W_1..W_{q/2}
    ends = b * ((k[1:] == half) - (k[1:] == 1).astype(float))
    lo = _tridiagonal_eigvalsh(np.concatenate([w + ends, w - ends]), b)
    return np.sort(np.concatenate(hi + np.split(lo, 2), axis=1), axis=1)[back]


def corner_bands(freq: RationalFrequency, beta: float) -> BandSet:
    """Band set from the two corner matrices, with no determinant data.

    Solutions of P(E) = +-(|c1| + |c2|) are exactly the eigenvalues of H at
    the corner phases where both cosines are +-1; `corner_edges` folds each
    corner by a reflection of the site ring into two tridiagonal blocks of
    about q/2 sites, and pairing its sorted edges yields the bands.  For
    odd q the lo corner is the negated hi corner, lo = -hi, so the band set
    is exactly mirror-symmetric.  A touching gap appears as a degenerate
    corner eigenvalue and therefore has width at roundoff scale, with no
    root finding, so exponentially thin bands pass.
    """
    edges = corner_edges(freq.q, [freq.p], beta)[0]
    if beta == 0.0:  # free case: all interior gaps are exactly closed; weld their ends
        edges[1:-1] = np.repeat(0.5 * (edges[1:-1:2] + edges[2::2]), 2)
    edges = edges.tolist()
    return BandSet(freq, beta, tuple(zip(edges[0::2], edges[1::2])))


def band_edges(ch: ChambersData) -> BandSet:
    """`corner_bands` at the data's coupling."""
    return corner_bands(ch.freq, ch.beta)


def _endpoint_rule(n: int):
    """n-node Gauss-Legendre on [0, 1] after u = (1 - cos theta)/2, theta in [0, pi].

    du = sin(theta)/2 dtheta vanishes at both ends, so a square-root
    endpoint behaviour in u becomes smooth in theta.  Returns the nodes u
    and weights that sum to one.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    theta = np.pi * (x + 1.0) / 2.0
    return (1.0 - np.cos(theta)) / 2.0, np.pi * w * np.sin(theta) / 4.0


_PIECE_U, _PIECE_W = _endpoint_rule(32)


def _band_measure(ch: ChambersData, E: np.ndarray) -> np.ndarray:
    """Torus measure of {D > 0} at each energy of a 1-d array, D = P + c1 x + c2 y.

    With c1 = -2 the inner measure over x is 1 - arccos(t)/pi at
    t = (P + c2 cos psi)/2 clipped to [-1, 1].  cos psi is even, so psi is
    folded onto [0, pi], where t rises with psi (c2 = -2 beta^q <= 0).  The
    clip is active up to the kink a where t = -1 (measure 0) and from the
    kink b where t = +1 (measure 1), at cos psi = (-+2 - P)/c2; those
    pieces contribute their lengths exactly (Thouless, J. Phys. C 5, 77
    (1972)).  The piece [a, b] has square-root ends at the kinks and takes
    32-node Gauss-Legendre after psi = a + (b - a)(1 - cos theta)/2.  A
    kink is placed only where |+-2 - P| < |c2|.  Without one, t is analytic
    in a strip arccosh((2 - |P|)/|c2|) wide, and the n-node periodic
    trapezoid of `_torus.nodes` replaces that rule where n//2 + 1 <= 32.
    At most 32 arccos per energy, summed per energy: entries are independent.
    """
    P = ch.P(E)
    m, room = -ch.c2, 2.0 - np.abs(P)
    with np.errstate(divide="ignore", over="ignore"):  # c2 = 0 or subnormal: an infinite strip
        width = np.arccosh(np.divide(room, m, out=np.ones_like(P), where=room > m))
        n = np.maximum(np.ceil(STRIP_EFOLDS / width), 1.0)  # inf at a kink (width 0)
    fold = n < 2 * len(_PIECE_U)  # n//2 + 1 <= 32 trapezoid nodes
    out, k = np.empty_like(P), (n[fold] // 2 + 1).astype(np.intp)
    first = np.cumsum(k) - k
    j, nj = np.arange(k.sum()) - np.repeat(first, k), np.repeat(n[fold], k)  # j = 0..n//2
    t = np.arccos((np.repeat(P[fold], k) + ch.c2 * np.cos(TWO_PI * j / nj)) / 2.0)
    t *= np.where((j == 0) | (2 * j == nj), 1.0, 2.0)  # psi = 0, pi once, the others twice
    out[fold] = 1.0 - np.add.reduceat(t, first) / (n[fold] * np.pi)
    num = np.stack([P[~fold] + 2.0, P[~fold] - 2.0])  # cos psi = num / |c2| at the kinks a, b
    a, b = np.arccos(np.clip(np.divide(num, m, out=np.sign(num), where=np.abs(num) < m),
                             -1.0, 1.0))
    length = b - a
    t = length[:, None] * _PIECE_U  # the one (len, 32) buffer; every step below runs in place
    np.cos(np.add(t, a[:, None], out=t), out=t)
    np.add(np.multiply(t, ch.c2, out=t), P[~fold, None], out=t)
    np.arccos(np.clip(np.divide(t, 2.0, out=t), -1.0, 1.0, out=t), out=t)
    inner = np.multiply(t, _PIECE_W, out=t).sum(axis=-1)
    out[~fold] = (np.pi - a - length * inner / np.pi) / np.pi
    return out


def ids(bands: BandSet, E):
    """Integrated density of states at energy E, a float or an array of floats.

    Each band carries weight 1/q; on the j-th gap the value is exactly j/q.
    Inside a band the fraction is the phase-torus measure where the energy
    counting includes the band, from the determinant decomposition at the
    set's (freq, beta): O(q) cosines and no eigensolve, so any band set of
    those edges, whether from `corner_bands`, `band_edges` or a dataset
    file, gives the same values.  Band edges carry exact counting values:
    the bottom of band i counts i - 1 bands and its top counts i, so a
    point where bands i and i+1 touch counts i.  An array gives an array of
    the same shape whose entries equal the scalar calls bitwise.  The
    in-band measure (`_band_measure`) is a strip-sized trapezoid or a
    kink-split 32-node rule: one `jet` pass over all in-band energies and at
    most 32 floats each, so a whole graded node set fits one call.
    """
    q = bands.q
    x = np.asarray(E, dtype=float)
    edges = np.asarray(bands.bands, dtype=float)
    k = np.minimum(np.searchsorted(edges[:, 1], x), q - 1)  # first band whose top is >= x
    lo, hi = edges[k, 0], edges[k, 1]
    inside = (lo < x) & (x < hi)
    frac = np.zeros(x.shape)
    if np.any(inside):
        s = _band_measure(chambers(bands.freq, bands.beta, verify=False), x[inside])
        frac[inside] = np.clip(np.where((q - 1 - k[inside]) % 2 == 0, s, 1.0 - s), 0.0, 1.0)
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
    m, n = (int(x) for x in _labels(np.array(j), p, pow(p, -1, q), q))
    assert m * q + n * p == j
    return m, n


def _labels(j: np.ndarray, p, inv, q: int):
    """`gap_label` of every entry of an int array j, as arrays (m, n); inv is p^-1 mod q."""
    n = j * inv % q
    n = np.where(2 * n > q, n - q, n)  # n = q/2 keeps the positive representative
    return (j - n * p) // q, n


@dataclass(frozen=True)
class GapRecord:
    freq: RationalFrequency
    beta: float
    j: int
    lo: float
    hi: float
    label: tuple
    hall: int
    is_open: bool

    @property
    def ids_value(self) -> Fraction:
        """The exact IDS j/q on this gap."""
        return Fraction(self.j, self.freq.q)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


GAP_CSV_HEADER = "p,q,beta,gap_lo,gap_hi,ids_num,ids_den,m,n,width"


def gap_csv(freq: RationalFrequency, beta_text: str, bands, table: np.ndarray, memo: dict):
    """The `_fmt` text of the bands' edges, comma-joined, and the `GAP_CSV_HEADER`
    lines of a `gap_table` of them, each ending in a newline.

    The edges and all q - 1 gap widths take one %-format each, kept in the
    caller's memo by their exact bytes until the next row with those edges,
    the mirror (q - p)/q, takes them out.  Gap j's ends are edges 2j - 1 and
    2j, their text taken from the edge text; the IDS j/q is in lowest terms.
    """
    edges, q = edge_array(bands), freq.q
    key = edges.tobytes()
    text, width_text = memo.pop(key, None) or memo.setdefault(key, [
        ",".join(["%.17g"] * len(x)) % tuple(x.tolist()) for x in (edges, np.diff(edges)[1::2])])
    parts, widths = text.split(","), width_text.split(",")
    j, m, n, _ = table.T
    cut = np.gcd(j, q)
    lo = (2 * j - 1).tolist()
    cols = zip([parts[k] for k in lo], [parts[k + 1] for k in lo], (j // cut).tolist(),
               (q // cut).tolist(), m.tolist(), n.tolist(), [widths[k // 2] for k in lo])
    line = f"{freq.p},{q},{beta_text},%s,%s,%d,%d,%d,%d,%s\n"
    return text, line * len(lo) % tuple(itertools.chain.from_iterable(cols))


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _config_hash(fields: dict) -> str:
    """The one provenance digest: sha256 of sorted-key JSON, 16 hex digits."""
    return hashlib.sha256(json.dumps(fields, sort_keys=True, default=str).encode()).hexdigest()[:16]


def edge_array(bands) -> np.ndarray:
    """The edges lo1, hi1, ..., loq, hiq of a sequence of (lo, hi) bands as one float array."""
    return np.fromiter(itertools.chain.from_iterable(bands), float, 2 * len(bands))


def gap_tables(q: int, ps, beta: float, edges, min_width: float) -> list:
    """The reported gaps of each p/q, p in ps, from its row of the (len(ps), 2q) edges:
    int64 tables of rows (j, m, n, open), in array ops over the block.

    Gap j runs from edge 2j - 1 to edge 2j; it is open (1) if wider than
    min_width, and the even-q central touching is reported closed (0) at any
    min_width; (m, n) is its `gap_label`.  At beta = 0, or with no edges (an error row), no gaps.
    """
    j = np.arange(1, edges.shape[1] // 2)
    is_open = (edges[:, 2::2] - edges[:, 1:-1:2] > min_width) & (2 * j != q)
    row, col = np.nonzero((is_open | (2 * j == q)) & (beta != 0.0))  # gap j = col + 1
    inv = np.array([pow(int(p), -1, q) for p in ps], dtype=np.int64)
    m, n = _labels(col + 1, np.asarray(ps, dtype=np.int64)[row], inv[row], q)
    table = np.stack([col + 1, m, n, is_open[row, col]], axis=1)
    ends = np.searchsorted(row, np.arange(len(ps) + 1)).tolist()
    return [table[a:b] for a, b in zip(ends[:-1], ends[1:])]


def gap_table(freq: RationalFrequency, beta: float, bands, min_width: float) -> np.ndarray:
    """The `gap_tables` table of one fraction's bands."""
    return gap_tables(freq.q, [freq.p], beta, edge_array(bands)[None], min_width)[0]


def gap_records(freq: RationalFrequency, beta: float, bands, table: np.ndarray):
    """One `GapRecord` per row of a `gap_table` of the bands."""
    return [GapRecord(freq, float(beta), j, float(bands[j - 1][1]), float(bands[j][0]), (m, n),
                      n, bool(is_open)) for j, m, n, is_open in table.tolist()]


def gaps(freq: RationalFrequency, beta: float, min_width: float = 1e-9):
    """Labelled gap records at coupling beta, as `gap_table` reports them."""
    bands = corner_bands(freq, beta).bands
    return gap_records(freq, beta, bands, gap_table(freq, beta, bands, min_width))


@dataclass(frozen=True)
class DualityReport:
    freq: RationalFrequency
    beta: float
    hausdorff: float


def hausdorff_intervals(a, b) -> float:
    """Hausdorff distance between two closed unions of intervals (inf if one alone is empty)."""
    def sup_dist(src, dst):
        # candidate maximizers: endpoints of src, and dst-gap midpoints inside src
        mids = 0.5 * (dst[:-1, 1] + dst[1:, 0])
        inside = ((src[:, :1] <= mids) & (mids <= src[:, 1:])).any(axis=0)
        x = np.concatenate([src.ravel(), mids[inside]])
        dist = np.min(_outside(x[:, None], dst[:, 0], dst[:, 1]), axis=1, initial=np.inf)
        return float(np.max(dist, initial=0.0))
    a = np.array(sorted(tuple(map(float, iv)) for iv in a), dtype=float).reshape(-1, 2)
    b = np.array(sorted(tuple(map(float, iv)) for iv in b), dtype=float).reshape(-1, 2)
    return max(sup_dist(a, b), sup_dist(b, a))


def dual_check(freq: RationalFrequency, beta: float) -> DualityReport:
    """Compare the band set at beta against beta times the set at 1/beta."""
    if beta <= 0:
        raise ValueError("coupling must be positive")
    bands = corner_bands(freq, beta)
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
    """Width of one labelled gap across an increasing coupling grid, open as `gap_table` says."""
    grid = [float(b) for b in beta_grid]
    if not grid:
        raise ValueError("beta grid must not be empty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    if any(not 0 < b for b in grid):
        raise ValueError("beta grid must be positive")
    j = label_to_index(label, freq)
    widths, flags = [], []
    for beta in grid:
        bs = corner_bands(freq, beta)
        lo, hi = bs.gap_intervals()[j - 1]
        widths.append(max(hi - lo, 0.0))
        table = gap_table(freq, beta, bs.bands, min_width)
        flags.append(j in table[table[:, 3] == 1, 0])
    return GapTrack(freq, tuple(label), j, tuple(grid), tuple(widths), tuple(flags))
