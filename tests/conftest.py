"""Shared independent oracles for the test suite.

Everything here recomputes reference values through routes that do not share
code with the library internals under test: dense eigensolve sweeps over the
reduced phase domain, brute-force congruence search, rational arithmetic,
and moment expansions.
"""

import math

import mpmath as mp
import numpy as np
from hypothesis import settings
from scipy.special import ellipk, ellipkm1

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

TWO_PI = 2.0 * np.pi


def oracle_harper(p, q, beta, t1, t2):
    """Independent assembly of the Harper matrix at fixed phases."""
    j = np.arange(q)
    h = np.zeros((q, q), dtype=complex)
    h[j, j] = 2.0 * np.cos(t1 + TWO_PI * ((j * p) % q) / q)
    if q == 1:
        h[0, 0] += 2.0 * beta * np.cos(t2)
        return h
    hop = beta * np.exp(1j * t2)
    h[j, (j - 1) % q] += hop
    h[(j - 1) % q, j] += np.conj(hop)
    return h


def oracle_center_jet(p, q, beta, energy, partials=True, dps=50):
    """P and its partials from a dps-digit determinant at the center phase.

    det(E - H) at t1 = t2 = pi/(2q), in the uniform gauge, is P(E) because
    both cosines vanish there.  The partials come from mp.diff in the order
    (P, dP/dE, d2P/dE2, dP/dbeta, d2P/dE dbeta, d2P/dbeta2); with
    partials=False only (P,) is returned.  Values are mpf.
    """
    with mp.workdps(dps):
        t = mp.pi / (2 * q)
        diag = [2 * mp.cos(t + 2 * mp.pi * ((j * p) % q) / q) for j in range(q)]
        hop = mp.expj(t)

        def det(e, b):
            m = mp.zeros(q, q)
            for j in range(q):
                m[j, j] = e - diag[j]
                m[j, (j - 1) % q] -= b * hop
                m[(j - 1) % q, j] -= b * mp.conj(hop)
            return mp.re(mp.det(m))

        e0, b0 = mp.mpf(energy), mp.mpf(beta)
        if not partials:
            return (det(e0, b0),)
        in_e = list(mp.diffs(lambda e: det(e, b0), e0, 2))
        in_b = list(mp.diffs(lambda b: det(e0, b), b0, 2))
        return (in_e[0], in_e[1], in_e[2], in_b[1], mp.diff(det, (e0, b0), (1, 1)), in_b[2])


def oracle_band_sweep(p, q, beta, n=32):
    """Dense eigensolve over an n x n grid of the reduced phase domain.

    The grid contains the extremal phases, so per-branch minima and maxima
    are exact band edges up to eigensolver roundoff.
    """
    t = TWO_PI * np.arange(n) / (n * q)
    vals = np.empty((n * n, q))
    k = 0
    for a in t:
        hs = np.zeros((n, q, q), dtype=complex)
        for i, b in enumerate(t):
            hs[i] = oracle_harper(p, q, beta, a, b)
        vals[k:k + n] = np.linalg.eigvalsh(hs)
        k += n
    lo = vals.min(axis=0)
    hi = vals.max(axis=0)
    return [(lo[i], hi[i]) for i in range(q)]


def oracle_ids_counting(p, q, beta, energy, n=64):
    """IDS by eigenvalue counting averaged over a dense reduced-domain grid."""
    t = TWO_PI * np.arange(n) / (n * q)
    total = 0
    for a in t:
        hs = np.zeros((n, q, q), dtype=complex)
        for i, b in enumerate(t):
            hs[i] = oracle_harper(p, q, beta, a, b)
        total += int(np.sum(np.linalg.eigvalsh(hs) < energy))
    return total / (n * n * q)


def oracle_moment(p, q, beta, power, n=48):
    """tau(h^power) from dense eigensolves."""
    t = TWO_PI * np.arange(n) / (n * q)
    total = 0.0
    for a in t:
        hs = np.zeros((n, q, q), dtype=complex)
        for i, b in enumerate(t):
            hs[i] = oracle_harper(p, q, beta, a, b)
        total += float(np.sum(np.linalg.eigvalsh(hs) ** power)) / q
    return total / (n * n)


def oracle_trace(p, q, beta, z, n):
    """tau(log|h - z|) summed over all n x n phases t_k = 2 pi k / (n q).

    No symmetry of the grid is used: every phase pair gets its own
    uniform-gauge eigensolve, and the terms are summed with fsum.
    """
    t = TWO_PI * np.arange(n) / (n * q)
    terms = []
    for a in t:
        hs = np.array([oracle_harper(p, q, beta, a, b) for b in t])
        terms.extend(np.log(np.abs(np.linalg.eigvalsh(hs) - z)).ravel().tolist())
    return math.fsum(terms) / (n * n * q)


def oracle_average_inverse(A, B, C):
    """Torus average of 1/(A + B cos(phi) + C cos(psi)) by a complete elliptic integral.

    Closed form for |A| > |B| + |C|, with no quadrature: the phi-average
    gives 1/sqrt((A + C y)^2 - B^2), and its psi-average is
    (2/pi) K(m) / sqrt((a2 + |C|)(a1 - |C|)) with a1, a2 = |A| +- |B|.  Near
    m = 1 the complementary parameter goes through ellipkm1.
    """
    if abs(A) <= abs(B) + abs(C):
        raise ValueError("the elliptic form requires |A| > |B| + |C|")
    Aa, Ba, Ca = abs(A), abs(B), abs(C)
    a1, a2 = Aa + Ba, Aa - Ba
    den = (a2 + Ca) * (a1 - Ca)
    m = 2.0 * Ca * (a1 - a2) / den
    K = ellipkm1((a1 + Ca) * (a2 - Ca) / den) if m > 0.5 else ellipk(m)
    return math.copysign(1.0, A) * (2.0 / math.pi) * K / math.sqrt(den)


def oracle_gap_label(j, p, q):
    """Brute-force search for the label integers over |n| <= q/2."""
    best = None
    for n in range(-(q // 2), q // 2 + 1):
        if (n * p - j) % q == 0:
            m = (j - n * p) // q
            if best is None or abs(n) < abs(best[1]) or (abs(n) == abs(best[1]) and n > best[1]):
                best = (m, n)
    return best


def interval_union_distance(a, b, samples=20001):
    """Hausdorff distance between interval unions by dense sampling plus edges."""
    pts = set()
    for lo, hi in list(a) + list(b):
        pts.add(lo)
        pts.add(hi)
    lo = min(pts)
    hi = max(pts)
    grid = np.linspace(lo, hi, samples)

    def dist_to(x, ivs):
        return min(0.0 if l <= x <= h else min(abs(x - l), abs(x - h)) for l, h in ivs)

    worst = 0.0
    for x in list(pts) + list(grid):
        if any(l <= x <= h for l, h in a):
            worst = max(worst, dist_to(x, b))
        if any(l <= x <= h for l, h in b):
            worst = max(worst, dist_to(x, a))
    return worst
