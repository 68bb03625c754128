"""The Lyapunov exponent L(beta, z) and its derivatives in both arguments.

Three independent routes to the same number:

  * transfer  -- log of the larger monodromy multiplier of the cocycle
                 T(x) = [[E - 2 beta cos(2 pi x), -1], [1, 0]], averaged
                 over the phase (exact one-period monodromy at rational
                 frequency);
  * thouless  -- the log-potential integral of the density of states,
                 L(E) = int log|E - E'| dN(E');
  * trace     -- the phase-averaged normalized trace of log|H - z| from
                 dense eigensolves.

Derivatives in (beta, z) reduce through the determinant decomposition to
torus averages of resolvent kernels, evaluated without any finite
differencing; the critical-point scan locates the unique zero of dL/dz in
each gap and reports the coupling derivative there as the margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .rationals import TWO_PI, RationalFrequency
from .spectrum import BandSet, ChambersData, band_edges, chambers, harper_matrix, ids
from ._torus import averages


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


def _coerce_freq(freq_or_alpha):
    if isinstance(freq_or_alpha, RationalFrequency):
        return freq_or_alpha
    return None


def lyapunov_transfer(freq_or_alpha, beta: float, energy, theta_samples: int = 256,
                      n_steps: int | None = None) -> LyapunovValue:
    """Lyapunov exponent from the transfer cocycle.

    At rational frequency the product over one period is exact and the
    growth rate is log of the larger monodromy-eigenvalue modulus divided
    by the period, averaged over theta_samples phases.  A float rotation
    number falls back to a renormalized product of n_steps factors.
    """
    freq = _coerce_freq(freq_or_alpha)
    if freq is not None:
        if n_steps is not None and n_steps < freq.q:
            raise ValueError(f"n_steps must cover one period (q={freq.q})")
        val = _monodromy_average(freq.p, freq.q, beta, energy, theta_samples)
        return LyapunovValue(float(beta), energy, val, "transfer")
    alpha = float(freq_or_alpha)
    steps = 20000 if n_steps is None else int(n_steps)
    val = _long_product(alpha, beta, energy, theta_samples, steps)
    return LyapunovValue(float(beta), energy, val, "transfer")


def _monodromy_average(p: int, q: int, beta: float, energy, n_theta: int) -> float:
    """Phase-averaged log of the larger multiplier over q; a monodromy or its
    squared trace outside the float64 range raises ArithmeticError."""
    th = np.arange(n_theta) / n_theta
    dtype = complex if np.iscomplexobj(np.asarray(energy)) or np.iscomplex(energy) else float
    m00 = np.ones(n_theta, dtype=dtype)
    m01 = np.zeros(n_theta, dtype=dtype)
    m10 = np.zeros(n_theta, dtype=dtype)
    m11 = np.ones(n_theta, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for n in range(q):
            a = energy - 2.0 * beta * np.cos(TWO_PI * (th + n * p / q))
            m00, m01, m10, m11 = a * m00 - m10, a * m01 - m11, m00, m01
        tr = m00 + m11
        # eigenvalues t/2 +- sqrt(t^2/4 - 1); unit modulus pair contributes zero
        half = np.asarray(tr, dtype=complex) / 2.0
        disc = np.sqrt(half * half - 1.0)
        rho = np.maximum(np.abs(half + disc), np.abs(half - disc))
        val = float(np.mean(np.log(np.maximum(rho, 1.0)))) / q
    if not np.isfinite(val):
        raise ArithmeticError(f"the monodromy leaves the float64 range at q={q}, E={energy}")
    return val


def _long_product(alpha: float, beta: float, energy, n_theta: int, n_steps: int) -> float:
    th = np.arange(n_theta) / n_theta
    total = np.zeros(n_theta)
    v0 = np.stack([np.ones(n_theta), np.zeros(n_theta)])
    v1 = np.stack([np.zeros(n_theta), np.ones(n_theta)])
    for n in range(n_steps):
        a = energy - 2.0 * beta * np.cos(TWO_PI * (th + n * alpha))
        v0 = np.stack([a * v0[0] - v0[1], v0[0]])
        v1 = np.stack([a * v1[0] - v1[1], v1[0]])
        if (n + 1) % 32 == 0 or n == n_steps - 1:
            scale = np.maximum(np.abs(v0).max(axis=0), np.abs(v1).max(axis=0))
            total += np.log(scale)
            v0 /= scale
            v1 /= scale
    return float(np.mean(total)) / n_steps


def _graded_nodes(bands: BandSet, subdiv: int) -> list:
    """subdiv+1 nodes per band, cosine-graded toward the edges."""
    shape = (1.0 - np.cos(np.pi * np.arange(subdiv + 1) / subdiv)) / 2.0
    return [lo + (hi - lo) * shape for lo, hi in bands.bands]


@lru_cache(maxsize=256)
def _ids_model(freq: RationalFrequency, beta: float, subdiv: int):
    """Nodes and IDS values per band, from one array-valued `ids` call per band."""
    bands = band_edges(chambers(freq, beta, verify=False))
    nodes_all = _graded_nodes(bands, subdiv)
    return (tuple(map(tuple, nodes_all)),
            tuple(tuple(ids(bands, nodes)) for nodes in nodes_all))


def lyapunov_thouless(bands: BandSet, energy, subdiv: int = 64) -> LyapunovValue:
    """Log-potential of the density of states.

    The IDS is sampled on subdiv+1 graded nodes per band and treated as
    piecewise linear; each panel integrates log|E - E'| in closed form, so
    the singularity at E' = E costs nothing.
    """
    if bands.chambers is not None:
        nodes_all, vals_all = _ids_model(bands.freq, bands.beta, subdiv)
    else:
        nodes_all = _graded_nodes(bands, subdiv)
        vals_all = [ids(bands, nodes) for nodes in nodes_all]
    E = complex(energy)
    total = 0.0
    for nodes, vals in zip(nodes_all, vals_all):
        nodes = np.asarray(nodes, dtype=float)
        vals = np.asarray(vals, dtype=float)
        dN = np.diff(vals)
        dx = np.diff(nodes)
        keep = dx > 0
        if not np.any(keep):
            continue
        a, b = nodes[:-1][keep], nodes[1:][keep]
        rho = dN[keep] / dx[keep]
        Fb = np.real((b - E) * (np.log(E - b + 0j) - 1.0))
        Fa = np.real((a - E) * (np.log(E - a + 0j) - 1.0))
        total += float(np.sum(rho * (Fb - Fa)))
    return LyapunovValue(bands.beta, energy, total, "thouless")


def lyapunov_trace(freq: RationalFrequency, beta: float, z, grid_size: int | None = None,
                   min_distance: float = 1e-8) -> LyapunovValue:
    """tau(log|h - z|) by dense eigensolves over the phase torus.

    The spectrum is 2 pi / q periodic in each phase, so the n x n grid
    t_k = 2 pi k / (n q) lives on the fundamental domain.  Its size n adapts
    to the analyticity strip of the integrand, which shrinks as z
    approaches the spectrum.  The spectrum is also even in each phase
    separately: complex conjugation maps H(t1, t2) to H(t1, -t2), and the
    reflection j -> -j maps t1 to -t1.  So indices k and n - k carry the
    same eigenvalues, and only k = 0..n//2 is solved on each axis, with
    weight 2 on interior indices and 1 on k = 0 and, for even n, k = n/2:
    (n//2 + 1)^2 eigensolves instead of n^2.  Neither symmetry uses the
    determinant decomposition, so this route stays independent of the
    other two.
    """
    ch = chambers(freq, beta, verify=False)
    bands = band_edges(ch)
    dist = bands.distance(z)
    if dist < min_distance:
        raise ValueError(f"z={z} is within {min_distance} of the spectrum")
    if grid_size is None:
        if float(np.imag(z)) == 0.0:
            m = abs(ch.P(float(np.real(z)))) - ch.amplitude
            m = max(m, 1e-15)
            strip = min(np.arccosh(1.0 + m / 2.0),
                        np.arccosh(1.0 + m / max(abs(ch.c2), 1e-300)))
            grid_size = int(np.clip(np.ceil(40.0 / strip), 32, 512))
        else:
            grid_size = int(np.clip(np.ceil(96.0 / np.sqrt(min(dist, 1.0))), 64, 512))
    q, n = freq.q, grid_size
    k = np.arange(n // 2 + 1)
    t = TWO_PI * k / (n * q)
    w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)  # k and n - k fold onto one node
    total = 0.0
    for a, wa in zip(t, w):
        lam = np.linalg.eigvalsh(harper_matrix(freq, beta, a, t))
        total += wa * float(np.sum(w[:, None] * np.log(np.abs(lam - z)))) / q
    return LyapunovValue(float(beta), z, total / (n * n), "trace")


def log_potential(ch: ChambersData, z: float) -> float:
    """L(beta, z) for real z off the spectrum, via the determinant reduction.

    Equals the trace definition exactly: the phase average of log|det(z-H)|
    collapses to a single analytic integral once the first cosine is
    averaged in closed form.
    """
    return _averages(ch, z, ch.P(z), ("log",))["log"] / ch.q


def _averages(ch: ChambersData, z: float, P: float, kinds) -> dict:
    """`averages` of D = P(z) + c1 x + c2 y, refused where D^2 inside it, or
    root^3 for the second-order kernels, would overflow."""
    power = 3 if {"m2", "n2", "k2"} & set(kinds) else 2
    if abs(P) + ch.amplitude >= np.finfo(float).max ** (1.0 / power):
        raise ArithmeticError(f"the torus kernels leave the float64 range at q={ch.q}, E={z}")
    return averages(P, ch.c1, ch.c2, kinds)


def _resolve(freq, beta, ch):
    return chambers(freq, beta, verify=False) if ch is None else ch


def gradient(freq: RationalFrequency, beta: float, z: float,
             ch: ChambersData | None = None, edge_distance: float = 1e-6) -> GradientRecord:
    """Analytic (dL/dz, dL/dbeta / 2) at real z inside a gap.

      dL/dz     = P'(z)/q <1/D>
      dL/dbeta  = (1/q) [ dP/dbeta <1/D> + dc2/dbeta <y/D> ]

    with D = P(z) + c1 x + c2 y averaged over the torus.  Both are real by
    construction; z closer than edge_distance to a band is refused since
    no finite-difference user can see anything there.  That check costs two
    corner eigensolves; edge_distance=0 skips it, so with `ch` supplied the
    call runs no eigensolve.
    """
    ch = _resolve(freq, beta, ch)
    if edge_distance > 0 and band_edges(ch).distance(z) < edge_distance:
        raise ValueError(f"z={z} is within {edge_distance} of a band edge")
    q = freq.q
    P, dP, dbP = ch.jet(z, 1)
    av = _averages(ch, z, P, ("m1", "n1"))
    g0 = dP * av["m1"] / q
    dc2 = -2.0 * q * beta ** (q - 1)
    two_g1 = (dbP * av["m1"] + dc2 * av["n1"]) / q
    return GradientRecord(float(beta), float(z), float(g0), float(0.5 * two_g1))


def hessian(freq: RationalFrequency, beta: float, z: float,
            ch: ChambersData | None = None, edge_distance: float = 1e-6) -> HessianRecord:
    """Second partials of L at real z inside a gap.

    The energy diagonal -tau((z-h)^{-2}) is negative at every gap point.
    The coupling diagonal and the determinant are not sign-definite: along
    a widening gap the ridge height L(beta, s*(beta)) is convex in the
    coupling, which makes the determinant negative there, so the full
    maximum-type structure appears only where a joint critical point of
    both variables would sit.  The band-distance refusal is the one of
    `gradient`: edge_distance=0 skips it, and with `ch` supplied the call
    then runs no eigensolve.
    """
    ch = _resolve(freq, beta, ch)
    if edge_distance > 0 and band_edges(ch).distance(z) < edge_distance:
        raise ValueError(f"z={z} is within {edge_distance} of a band edge")
    q = freq.q
    P, dP, d2P, dbP, dbdP, d2bP = ch.jet(z)
    av = _averages(ch, z, P, ("m1", "m2", "n1", "n2", "k2"))
    dc2 = -2.0 * q * beta ** (q - 1)
    d2c2 = -2.0 * q * (q - 1) * beta ** (q - 2)
    d2z = (d2P * av["m1"] - dP * dP * av["m2"]) / q
    dzdb = (dbdP * av["m1"] - dP * (dbP * av["m2"] + dc2 * av["n2"])) / q
    d2b = (d2bP * av["m1"] + d2c2 * av["n1"]
           - (dbP ** 2 * av["m2"] + 2.0 * dbP * dc2 * av["n2"] + dc2 ** 2 * av["k2"])) / q
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
    Bisection on P' is therefore bracket-safe at any gap width.  The
    bracket is the gap's own (lo, hi), so no band edges are recomputed: with
    `ch` supplied the scan runs no eigensolve.
    """
    ch = _resolve(freq, beta, ch)
    lo, hi = float(gap.lo), float(gap.hi)
    if hi - lo <= 0 or not getattr(gap, "is_open", True):
        raise ValueError(f"gap {gap.label} at {freq} is closed")
    width = hi - lo
    eps = width * 1e-9
    f = ch.dP
    a, b = lo + eps, hi - eps
    fa, fb = f(a), f(b)
    if fa * fb > 0:  # should not happen: P' has exactly one simple zero here
        raise RuntimeError(f"no sign change of dP across gap {gap.label} at {freq}; "
                           f"values ({fa:.3e}, {fb:.3e})")
    s_star = brentq(f, a, b, xtol=1e-13, rtol=8.9e-16)
    grad = gradient(freq, beta, s_star, ch=ch, edge_distance=0.0)
    return CriticalPoint(freq, float(beta), gap.j, gap.label, lo, hi,
                         float(s_star), abs(grad.g0), abs(grad.g1))
