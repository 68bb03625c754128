"""The Lyapunov exponent L(beta, z) and its derivatives in both arguments.

Three independent routes to the same number:

  * transfer  -- log of the larger monodromy multiplier of the cocycle
                 T(x) = [[E - 2 beta cos(2 pi x), -1], [1, 0]], averaged
                 over the phase (exact one-period monodromy at rational
                 frequency);
  * thouless  -- the log-potential integral of the density of states,
                 L(E) = int log|E - E'| dN(E');
  * trace     -- the phase-averaged normalized trace of log|H - z|, as
                 log-determinants of dense LU factorizations.

Derivatives in (beta, z) reduce through the determinant decomposition to
torus averages of resolvent kernels, evaluated without any finite
differencing; the critical-point scan locates the unique zero of dL/dz in
each gap and reports the coupling derivative there as the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rationals import TWO_PI, RationalFrequency
from .spectrum import (BandSet, ChambersData, _endpoint_rule, band_edges, chambers, harper_matrix,
                       ids)
from ._torus import averages, grid_nodes, nodes, strip


@dataclass(frozen=True)
class LyapunovValue:
    beta: float
    z: complex
    value: float
    method: str


@dataclass(frozen=True)
class GradientRecord:
    """dL/dz and the halved dL/dbeta at real z in a gap.

    g0 = dL/dz is the trace of the resolvent (z - h)^{-1}; dL/dbeta equals
    twice g1, the v-weighted resolvent trace, which is real for real z.
    """

    beta: float
    z: float
    g0: float
    g1: float


@dataclass(frozen=True)
class HessianRecord:
    beta: float
    z: float
    d2z: float
    dzdbeta: float
    d2beta: float

    @property
    def determinant(self) -> float:
        return self.d2z * self.d2beta - self.dzdbeta ** 2


# the transfer's phase count on the spectrum, where the strip is 0 and sizes nothing
_SPECTRUM_PHASES = 256
# the Thouless rule on [0, 1]: `_endpoint_rule(24)` mapped again by u -> (1 - cos pi u)/2
_PIECE_U, _PIECE_W = _endpoint_rule(24)
_PIECE_U, _PIECE_W = (np.sin(np.pi * _PIECE_U / 2) ** 2,
                      np.pi / 2 * np.sin(np.pi * _PIECE_U) * _PIECE_W)


def lyapunov_transfer(freq: RationalFrequency, beta: float, energy) -> LyapunovValue:
    """Lyapunov exponent from the transfer cocycle at rational frequency.

    The product over one period is exact; with t its trace, its eigenvalues
    are exp(+-arccosh(t/2)), so the growth rate is |Re arccosh(t/2)| / q,
    which the complex arccosh gives without squaring t, averaged over phases
    x.  The trace P(E) + c2 cos(2 pi q x) makes that average 1/q periodic
    with the strip `strip(P, c1, c2)`: `nodes` phases on [0, 1/q), refused
    above 2^16, and `_SPECTRUM_PHASES` on the spectrum.  One cos gives the
    potentials of up to 2^20 (step, phase) pairs at once.  A monodromy
    outside the float64 range raises ArithmeticError.
    """
    p, q = freq.p, freq.q
    ch = chambers(freq, beta, verify=False)
    width = strip(ch.P(energy), ch.c1, ch.c2)
    n = nodes(width, 1 << 16, "E", energy) if width > 0 else _SPECTRUM_PHASES
    th = np.arange(n) / (n * q)
    dtype = complex if np.iscomplexobj(np.asarray(energy)) else float
    m00 = m11 = np.ones(n, dtype=dtype)  # each step builds new arrays
    m01 = m10 = np.zeros(n, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for shift in np.array_split(np.arange(q) * p / q, -(-q * n // (1 << 20))):
            for a in energy - 2.0 * beta * np.cos(TWO_PI * (th + shift[:, None])):
                m00, m01, m10, m11 = a * m00 - m10, a * m01 - m11, m00, m01
        val = float(np.mean(np.abs(np.arccosh((m00 + m11) / 2.0 + 0j).real))) / q
    if not np.isfinite(val):
        raise ArithmeticError(f"the monodromy leaves the float64 range at q={q}, E={energy}")
    return LyapunovValue(float(beta), energy, val, "transfer")


def lyapunov_thouless(bands: BandSet, energy) -> LyapunovValue:
    """Log-potential of the density of states, L(E) = int log|E - x| dN(x).

    Integrated by parts on each band k with ends lo, hi and c = N(x0) at
    x0 = Re E clipped to the band: (c - k/q) log|E - lo| + ((k+1)/q - c)
    log|E - hi| - int (N - c) Re 1/(x - E) dx, where a term of weight 0 and
    a node at x = E add 0.  c is exactly k/q at lo and (k+1)/q at hi, so a
    band of zero float width keeps its step; E on one raises ValueError.
    Cuts at x0, x0 +- |Im E| and the van Hove energies, the eigenvalues of
    the mixed corners H(0, pi/q) and H(pi/q, 0), leave pieces whose 24
    nodes `_PIECE_U` crowd both ends like u^4, with N from one `ids` call.
    """
    E, q, y = complex(energy), bands.q, abs(complex(energy).imag)
    lo, hi = np.asarray(bands.bands, dtype=float).T
    if np.any((lo == hi) & (lo == E)):
        raise ValueError(f"E={energy} lies on a band of zero float width")
    x0 = np.clip(E.real, lo, hi)
    mixed = harper_matrix(bands.freq, bands.beta, [0.0, np.pi / q], [np.pi / q, 0.0]).real
    hove = np.sort(np.linalg.eigvalsh(mixed), axis=None).reshape(q, 2)  # two per band
    cuts = np.sort(np.clip(np.column_stack([lo, hove, x0 - y, x0, x0 + y, hi]),
                           lo[:, None], hi[:, None]), axis=1)
    width = np.diff(cuts, axis=1)
    band, piece = np.nonzero(width > 0)
    x = cuts[band, piece, None] + width[band, piece, None] * _PIECE_U
    inside = (lo < x0) & (x0 < hi)
    N = ids(bands, np.concatenate([x.ravel(), x0[inside]]))
    c = np.where(x0 < hi, np.arange(q), np.arange(1, q + 1)) / q
    c[inside] = N[x.size:]
    dx = x - E.real
    den = dx * dx + y * y  # Re 1/(x - E) = dx / den
    f = (N[:x.size].reshape(x.shape) - c[band, None]) * dx
    inner = width[band, piece] @ (np.divide(f, den, out=np.zeros_like(f), where=den > 0) @ _PIECE_W)
    w = np.stack([c - np.arange(q) / q, np.arange(1, q + 1) / q - c])
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at an end of weight 0
        ends = np.where(w > 0, w * np.log(np.abs(E - np.stack([lo, hi]))), 0.0)
    return LyapunovValue(bands.beta, energy, float(ends.sum() - inner), "thouless")


def lyapunov_trace(freq: RationalFrequency, beta: float, z) -> LyapunovValue:
    """tau(log|h - z|) = (1/q) log|det(h - z)| by LU over the phase torus.

    Each phase row takes one batched `slogdet` of h - z, which costs an LU
    factorization per node where the eigenvalues would cost an eigensolve.
    The spectrum is 2 pi / q periodic in each phase, so the n1 x n2 grid
    t_k = 2 pi k / (n q) lives on the fundamental domain.  (n1, n2) is
    `grid_nodes`, the strip rule on each phase of det(z - h) = P(z) +
    c1 cos(q t1) + c2 cos(q t2), with no floor; z is refused when the
    narrower strip needs more than `GRID_CAP` nodes, the spectrum included.
    The spectrum is also even in each phase separately: complex conjugation
    maps H(t1, t2) to H(t1, -t2), and the reflection j -> -j maps t1 to -t1.
    So on an axis of n nodes indices k and n - k carry the same eigenvalues,
    and only k = 0..n//2 is factored, with weight 2 on interior indices and
    1 on k = 0 and, for even n, k = n/2: (n1//2 + 1)(n2//2 + 1)
    determinants instead of n1 n2.
    Neither the LU nor the symmetries use the determinant decomposition,
    which only sizes the grid, so the value stays independent of the other
    two routes.
    """
    n1, n2 = grid_nodes(chambers(freq, beta, verify=False), z)
    return LyapunovValue(float(beta), z, _trace_sum(freq, beta, z, n1, n2), "trace")


def _trace_sum(freq: RationalFrequency, beta: float, z, n1: int, n2: int) -> float:
    """The mirror-folded n1 x n2 grid sum of `lyapunov_trace`."""
    q = freq.q

    def axis(n):  # nodes k = 0..n//2 of one phase; k and n - k fold onto one node
        k = np.arange(n // 2 + 1)
        return TWO_PI * k / (n * q), np.where((k == 0) | (2 * k == n), 1.0, 2.0)

    (t1, w1), (t2, w2) = axis(n1), axis(n2)
    j = np.arange(q)
    total = 0.0
    for a, wa in zip(t1, w1):
        h = harper_matrix(freq, beta, a, t2)
        h[:, j, j] -= z
        total += wa * float(w2 @ np.linalg.slogdet(h).logabsdet) / q
    return total / (n1 * n2)


def log_potential(ch: ChambersData, z: float) -> float:
    """L(beta, z) for real z off the spectrum, via the determinant reduction.

    Equals the trace definition exactly: the phase average of log|det(z-H)|
    collapses to a single analytic integral once the first cosine is
    averaged in closed form.
    """
    return averages(ch.P(z), ch.c1, ch.c2, ("log",))["log"] / ch.q


@lru_cache(maxsize=8)
def _point(ch: ChambersData, z: float):
    """(g0, g1, d2z, dzdb, d2b) at real z from one order-2 `jet` and one torus pass, shared by
    `gradient`, `hessian` and `critical_scan`; dc2, d2c2 are beta-derivatives of c2 = -2 beta^q."""
    q, beta = ch.q, ch.beta
    P, dP, d2P, dbP, dbdP, d2bP = ch.jet(z)
    m1, n1, m2, n2, k2 = averages(P, ch.c1, ch.c2, ("m1", "n1", "m2", "n2", "k2")).values()
    dc2 = -2.0 * q * beta ** (q - 1)
    d2c2 = -2.0 * q * (q - 1) * beta ** max(q - 2, 0)  # zero at q = 1, where 0.0 ** -1 raises
    return (dP * m1 / q, 0.5 * ((dbP * m1 + dc2 * n1) / q), (d2P * m1 - dP * dP * m2) / q,
            (dbdP * m1 - dP * (dbP * m2 + dc2 * n2)) / q,
            (d2bP * m1 + d2c2 * n1 - (dbP * dbP * m2 + 2.0 * dbP * dc2 * n2 + dc2 * dc2 * k2)) / q)


def _resolve(freq, beta, ch):
    if ch is not None and (ch.freq, ch.beta) != (freq, beta):
        raise ValueError(f"ch is built for {ch.freq} at beta={ch.beta}, not {freq} at beta={beta}")
    return chambers(freq, beta, verify=False) if ch is None else ch


def _gap_point(freq, beta, z, ch, edge_distance):
    """`_point` of the resolved `ch` at z, refused closer than edge_distance to a band."""
    ch = _resolve(freq, beta, ch)
    if edge_distance > 0 and band_edges(ch).distance(z) < edge_distance:
        raise ValueError(f"z={z} is within {edge_distance} of a band edge")
    return _point(ch, float(z))


def gradient(freq: RationalFrequency, beta: float, z: float,
             ch: ChambersData | None = None, edge_distance: float = 1e-6) -> GradientRecord:
    """Analytic (dL/dz, dL/dbeta / 2) at real z inside a gap.

      dL/dz     = P'(z)/q <1/D>
      dL/dbeta  = (1/q) [ dP/dbeta <1/D> + dc2/dbeta <y/D> ]

    with D = P(z) + c1 x + c2 y averaged over the torus, both real by
    construction.  z closer than edge_distance to a band is refused, at the
    cost of two corner eigensolves; edge_distance=0 skips that, so with `ch`
    supplied the call runs no eigensolve.  A gradient and a Hessian at the
    same (ch, z) share one evaluation: one order-2 `jet` and one torus pass.
    """
    g0, g1, *_ = _gap_point(freq, beta, z, ch, edge_distance)
    return GradientRecord(float(beta), float(z), g0, g1)


def hessian(freq: RationalFrequency, beta: float, z: float,
            ch: ChambersData | None = None, edge_distance: float = 1e-6) -> HessianRecord:
    """Second partials of L at real z inside a gap.

    The energy diagonal -tau((z-h)^{-2}) is negative at every gap point.
    The coupling diagonal and the determinant are not sign-definite: along
    a widening gap the ridge height L(beta, s*(beta)) is convex in the
    coupling, which makes the determinant negative there, so the full
    maximum-type structure appears only where a joint critical point of
    both variables would sit.  The band-distance refusal is the one of
    `gradient` (edge_distance=0 skips it; with `ch` supplied no eigensolve
    runs), and so is the one evaluation at (ch, z), which the two share.
    An entry outside the float64 range raises ArithmeticError.
    """
    _, _, d2z, dzdb, d2b = _gap_point(freq, beta, z, ch, edge_distance)
    if not all(map(math.isfinite, (d2z, dzdb, d2b))):
        raise ArithmeticError(f"the Hessian leaves the float64 range at q={freq.q}, E={z}")
    return HessianRecord(float(beta), float(z), d2z, dzdb, d2b)


@dataclass(frozen=True)
class CriticalPoint:
    """The unique zero of dL/dz inside one gap, with the margin |g1| there."""

    freq: RationalFrequency
    beta: float
    j: int
    label: tuple
    gap_lo: float
    gap_hi: float
    s_star: float
    g0_residual: float
    g1_abs: float

    def margin_ok(self, threshold: float = 1e-8) -> bool:
        return self.g1_abs > threshold


def critical_scan(freq: RationalFrequency, beta: float, gap,
                  ch: ChambersData | None = None) -> CriticalPoint:
    """Locate the zero s* of dL/dz in an open gap and evaluate |g1| there.

    dL/dz = P'(z)/q <1/D> with <1/D> of constant sign throughout the gap,
    so s* is exactly the critical point of P inside the gap: g0 falls from
    +inf at the left edge to -inf at the right edge through a single root.
    Brent's method on P' is therefore bracket-safe at any gap width.  The
    bracket is the gap's own (lo, hi), so no band edges are recomputed: with
    `ch` supplied the scan runs no eigensolve.  g0 and g1 at s* come from
    the evaluation that a following `hessian(s*)` with the same `ch` reads.
    """
    ch = _resolve(freq, beta, ch)
    lo, hi = float(gap.lo), float(gap.hi)
    if hi - lo <= 0 or not getattr(gap, "is_open", True):
        raise ValueError(f"gap {gap.label} at {freq} is closed")
    eps = (hi - lo) * 1e-9
    a, b = lo + eps, hi - eps
    try:
        s_star = _brent(ch.dP, a, b, ch.dP(a), ch.dP(b))
    except ValueError as exc:  # `_brent`'s refusal, told which gap it was
        raise ValueError(f"gap {gap.label} at {freq}: {exc}") from None
    g0, g1, *_ = _point(ch, float(s_star))
    return CriticalPoint(freq, float(beta), gap.j, gap.label, lo, hi,
                         float(s_star), abs(g0), abs(g1))


_BRENT_MAXITER = 100
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """The zero of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    Step for step the C `brentq` of scipy, so the same float operations give
    the same root bit for bit from the same values of f, of which the caller
    passes the first two, fa = f(a) and fb = f(b), as it has them: inverse
    quadratic (or secant) steps accepted only while they shrink fast enough,
    bisection otherwise, and a step of at least delta = (xtol + rtol|x|)/2
    with xtol = _BRENT_XTOL and rtol = _BRENT_RTOL.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _brent_value(xpre, fa), _brent_value(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _brent_value(xcur, f(xcur))
    raise RuntimeError(f"Brent's method failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _brent_value(x: float, fx) -> float:
    fx = float(fx)
    if fx != fx:
        raise ValueError(f"the function value at x={x} is NaN; the root search cannot continue")
    return fx
