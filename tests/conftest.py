"""Shared independent oracles for the test suite.

Everything here recomputes reference values through routes that do not share
code with the library internals under test: dense eigensolve sweeps over the
reduced phase domain, brute-force congruence search, rational arithmetic,
and moment expansions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import settings
from scipy.special import ellipk, ellipkm1

from harperlab.lyapunov import gradient
from harperlab.rationals import RationalFrequency, pi_fraction_trig
from harperlab.spectrum import chambers, gap_label, harper_matrix, track_gap

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


def oracle_corner_edges(p, q, beta, dps=40):
    """The sorted 2q eigenvalues of both real corner matrices, by mpmath at dps digits.

    The corners carry every bond at +beta, except the closing bond at the
    (pi/q, pi/q) corner, which is -beta, and the diagonal phase 0 or pi/q.
    """
    with mp.workdps(dps):
        out = []
        for t, sign in ((mp.mpf(0), 1), (mp.pi / q, -1)):
            h = mp.zeros(q, q)
            for j in range(q):
                h[j, j] += 2 * mp.cos(t + 2 * mp.pi * ((j * p) % q) / q)
                i = (j - 1) % q
                w = mp.mpf(beta) * (sign if j == 0 else 1)
                h[j, i] += w
                h[i, j] += w
            out.extend(mp.eigsy(h, eigvals_only=True))
        return sorted(out)


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


def oracle_continuant(p, q, beta, energy, dps=50):
    """P(E) as an mpf at dps digits, O(q): the trace of the product of the mpmath
    matrices [[E - V_j, -beta^2], [1, 0]] over V_j = 2 cos(t + 2 pi (j p mod q)/q)
    at the center phase t = pi/(2q)."""
    with mp.workdps(dps):
        e, s, t = mp.mpf(energy), mp.mpf(beta) ** 2, mp.pi / (2 * q)
        m = mp.eye(2)
        for j in range(q):
            m = mp.matrix([[e - 2 * mp.cos(t + 2 * mp.pi * ((j * p) % q) / q), -s], [1, 0]]) * m
        return m[0, 0] + m[1, 1]


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


def oracle_band_measure(P, c2, dps=20):
    """Torus measure of {P - 2 cos(phi) + c2 cos(psi) > 0} by mpmath quadrature.

    At fixed psi the phi-measure is 1 - acos(t)/pi with
    t = (P + c2 cos psi)/2 clipped to [-1, 1].  Its psi-average over [0, pi]
    is split at the kinks cos psi = (+-2 - P)/c2, where the clip starts to
    act.  A piece on which |t| >= 1 is exactly 0 or 1; every other piece is
    integrated by mp.quad at dps digits: tanh-sinh where it ends at a
    kink (square-root ends), Gauss-Legendre on a kink-free (analytic)
    piece.  P and c2 are taken as exact binary values.
    """
    with mp.workdps(dps):
        P, c2 = mp.mpf(P), mp.mpf(c2)

        def t(s):
            return (P + c2 * mp.cos(s)) / 2

        kinks = [mp.acos(r) for r in ((-2 - P) / c2, (2 - P) / c2) if -1 < r < 1] if c2 else []
        pts = sorted([mp.mpf(0), +mp.pi] + kinks)
        total = mp.mpf(0)
        for a, b in zip(pts, pts[1:]):
            mid = t((a + b) / 2)
            if abs(mid) >= 1:
                total += (b - a) if mid > 0 else 0
                continue
            method = "tanh-sinh" if a in kinks or b in kinks else "gauss-legendre"
            val, err = mp.quad(lambda s: 1 - mp.acos(max(-1, min(1, t(s)))) / mp.pi, [a, b],
                               method=method, error=True)
            assert err < mp.mpf(10) ** (4 - dps), f"quadrature error estimate {err}"
            total += val
        return total / mp.pi


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


def center_eigenvalues(freq, beta):
    """Zeros of P, one per band: the eigenvalues at the center phase
    t1 = t2 = pi/(2q), where both cosines of the determinant vanish."""
    t = np.pi / (2.0 * freq.q)
    return np.linalg.eigvalsh(harper_matrix(freq, beta, t, t))


def oracle_orbit_transfer(alpha, beta, energy, n_theta, n_steps):
    """Phase-averaged growth rate of the cocycle along n_steps of a float
    rotation alpha, for irrational frequency; both columns of the product
    are renormalized every 32 steps and the logs of the scales summed."""
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


def oracle_transfer_steps(p, q, beta, energy, n):
    """The transfer route's average over the n phases x = k/(n q), with each
    step's potential energy - 2 beta cos(2 pi (x + m p/q)) computed in its
    own step of the monodromy product: |Re arccosh(t/2)|/q at its trace t."""
    th = np.arange(n) / (n * q)
    dtype = complex if np.iscomplexobj(np.asarray(energy)) else float
    m00 = m11 = np.ones(n, dtype=dtype)
    m01 = m10 = np.zeros(n, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(q):
            a = energy - 2.0 * beta * np.cos(TWO_PI * (th + m * p / q))
            m00, m01, m10, m11 = a * m00 - m10, a * m01 - m11, m00, m01
        return float(np.mean(np.abs(np.arccosh((m00 + m11) / 2.0 + 0j).real))) / q


def oracle_trace(p, q, beta, z, n1, n2):
    """tau(log|h - z|) summed over all n1 x n2 phases t_k = 2 pi k / (n q).

    No symmetry of the grid is used: every phase pair gets its own
    uniform-gauge eigensolve, and the terms are summed with fsum.
    """
    t1, t2 = TWO_PI * np.arange(n1) / (n1 * q), TWO_PI * np.arange(n2) / (n2 * q)
    terms = []
    for a in t1:
        hs = np.array([oracle_harper(p, q, beta, a, b) for b in t2])
        terms.extend(np.log(np.abs(np.linalg.eigvalsh(hs) - z)).ravel().tolist())
    return math.fsum(terms) / (n1 * n2 * q)


def oracle_grid_size(p, q, beta, z, window):
    """The library's sheet grid (n1, n2): each n = ceil(40 / w) + ceil(window / q) + 1
    raised to the first size coprime to q, where w is that phase's own strip in
    det(z - h) = P + c1 cos(q t1) + c2 cos(q t2): w1 = arccosh((|P| - |c2|) / |c1|) for
    t1 and w2 = arccosh((|P| - |c1|) / |c2|) for t2.  P, c1 and c2 come from three
    dense determinants at phases where q t is 0 or pi/2, not from the recurrence."""
    quarter = math.pi / (2 * q)

    def det(t1, t2):
        return np.linalg.det(z * np.eye(q) - oracle_harper(p, q, beta, t1, t2)).real

    P = det(quarter, quarter)
    c1, c2 = det(0.0, quarter) - P, det(quarter, 0.0) - P
    sizes = []
    for w in (math.acosh((abs(P) - abs(c2)) / abs(c1)), math.acosh((abs(P) - abs(c1)) / abs(c2))):
        n = math.ceil(40.0 / w) + math.ceil(window / q) + 1
        while math.gcd(n, q) != 1:
            n += 1
        sizes.append(n)
    return tuple(sizes)


def oracle_coefficient_sheet(p, q, beta, z, window, n1, n2):
    """The coefficient sheet c(p, qe) as a (2 window + 1)^2 array, entry by entry.

    Every node of the full n1 x n2 phase grid gets its own inverse of the
    uniform-gauge matrix, all q x q clock/shift traces are kept as one
    (q, q, n1, n2) array, and each entry is its own 2-d Fourier sum, without
    the conjugate symmetry in t2.
    """
    t1, t2 = TWO_PI * np.arange(n1) / n1, TWO_PI * np.arange(n2) / n2
    j = np.arange(q)
    omega_pow = np.exp(2j * np.pi * ((np.outer(j, np.arange(q)) * p) % q) / q)  # [j, m]
    traces = np.zeros((q, q, n1, n2), dtype=complex)  # [m, s, a, b]
    for a in range(n1):
        R = np.linalg.inv(np.array([oracle_harper(p, q, beta, t1[a], b) for b in t2])
                          - z * np.eye(q))
        for s in range(q):
            traces[:, s, a, :] = (R[:, (j - s) % q, j] @ omega_pow).T / q
    phases1 = np.exp(1j * np.outer(np.arange(-window, window + 1), t1)) / n1
    phases2 = np.exp(1j * np.outer(np.arange(-window, window + 1), t2)) / n2
    vals = np.zeros((2 * window + 1, 2 * window + 1), dtype=complex)
    for ip, pp in enumerate(range(-window, window + 1)):
        for iq, qe in enumerate(range(-window, window + 1)):
            c, s = pi_fraction_trig(-pp * qe * p, q)
            vals[ip, iq] = complex(c, s) * (phases1[ip] @ traces[pp % q, qe % q] @ phases2[iq])
    return vals


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


def oracle_torus_kernels(A, B, C, dps=40):
    """The six kernels of `_torus.averages` at the given floats, by dps-digit quadrature.

    The phi-average is the textbook one, 1/sqrt(a^2 - B^2) and
    log((|a| + sqrt(a^2 - B^2))/2) with a = A + C cos(psi), evaluated at dps
    digits so its cancellation costs nothing; psi runs over [0, pi] by
    tanh-sinh on panels that shrink geometrically toward the end where |a|
    is least, down to a sixteenth of the peak's width there.  mp.quad stops
    on an absolute error estimate, which at |A| = 4.8e140 left m1 3.7e-14
    off at 40 and at 80 digits, so the kernels are taken of D/|A|, all of
    order 1, and scaled back exactly.  Values are floats.
    """
    with mp.workdps(dps):
        S = abs(mp.mpf(A))
        A, B, C = mp.mpf(A) / S, abs(mp.mpf(B)) / S, mp.mpf(C) / S
        sign = mp.sign(A)
        end = mp.pi if sign * C > 0 else mp.mpf(0)  # where a = A + C y is nearest 0
        width = mp.acosh((abs(A) - B) / abs(C)) if C else mp.inf  # the peak's psi scale
        depth = max(1, int(mp.ceil(mp.log(16 / width, 2)))) if width < 1 else 1
        cuts = sorted({end + (mp.pi / 2 - end) * mp.mpf(2) ** -k for k in range(0, depth + 1, 2)}
                      | {mp.mpf(0), mp.pi})

        memo = {}

        def parts(psi):  # every kernel's quadrature visits the same nodes
            if psi not in memo:
                y = mp.cos(psi)
                a = abs(A + C * y)
                memo[psi] = y, a, mp.sqrt((a - B) * (a + B))
            return memo[psi]

        def kernel(f):
            return mp.quad(f, cuts) / mp.pi

        out = {}
        for name, power, f in (("m1", 1, lambda y, a, r: sign / r),
                               ("n1", 1, lambda y, a, r: y * sign / r),
                               ("m2", 2, lambda y, a, r: a / r ** 3),
                               ("n2", 2, lambda y, a, r: y * a / r ** 3),
                               ("k2", 2, lambda y, a, r: y * y * a / r ** 3),
                               ("log", 0, lambda y, a, r: mp.log((a + r) / 2))):
            value = kernel(lambda psi, f=f: f(*parts(psi)))
            out[name] = float(value + mp.log(S) if name == "log" else value / S ** power)
        return out


def oracle_system_residual(sheet, beta, s):
    """(max residual, origin value, point count) of both difference equations.

    One Python double loop over the interior indices, every entry written
    out; the origin row of e1 counts toward the maximum only for kind phi.
    The trig values come from `pi_fraction_trig`, whose exact zeros on the
    axes the equations need.
    """
    P, x, q, pf = sheet.window, sheet.values, sheet.freq.q, sheet.freq.p
    worst, origin, count = 0.0, None, 0
    for p in range(-P + 1, P):
        cp, sp = pi_fraction_trig(pf * p, q)
        for qe in range(-P + 1, P):
            cq, sq = pi_fraction_trig(pf * qe, q)
            e1 = (cq * (x[p + 1 + P, qe + P] + x[p - 1 + P, qe + P])
                  + beta * cp * (x[p + P, qe + 1 + P] + x[p + P, qe - 1 + P])
                  - s * x[p + P, qe + P])
            e2 = (sq * (x[p + 1 + P, qe + P] - x[p - 1 + P, qe + P])
                  - beta * sp * (x[p + P, qe + 1 + P] - x[p + P, qe - 1 + P]))
            if p == 0 and qe == 0:
                origin = e1
                if sheet.kind != "phi":
                    e1 = 0.0
            worst = max(worst, abs(e1), abs(e2))
            count += 1
    return worst, origin, count


def oracle_recursion_sheets(p, q, beta, z, window):
    """The (right, left) one-sided sheets by the scalar column march.

    Entry by entry over qe = -p..p in each column p, the long-double
    least-squares update, with the breakdown error raised at the first
    entry outside the float64 range; the right sheet is copied out one
    entry at a time and the left is its mirror image.
    """
    P = window
    cos, sin = np.array([pi_fraction_trig(p * k, q) for k in range(-P, P + 1)],
                        dtype=np.longdouble).T
    cols = np.zeros((P + 2, 2 * P + 3), dtype=np.longdouble)
    off = P + 1
    cols[1, off] = 1.0
    zl, bl = np.longdouble(z), np.longdouble(beta)
    for c in range(1, P + 1):
        cpl, spl = cos[c + P], sin[c + P]
        for qe in range(-c, c + 1):
            cql, sql = cos[qe + P], sin[qe + P]
            ra = zl * cols[c, qe + off] - bl * cpl * (cols[c, qe + 1 + off] + cols[c, qe - 1 + off])
            rb = bl * spl * (cols[c, qe + 1 + off] - cols[c, qe - 1 + off])
            nxt = cql * ra + sql * rb - (cql * cql - sql * sql) * cols[c - 1, qe + off]
            if not np.isfinite(float(nxt)):
                raise ArithmeticError(f"recursion breakdown at column {c + 1}, row {qe}")
            cols[c + 1, qe + off] = nxt
    n = 2 * P + 1
    right = np.zeros((n, n))
    for c in range(1, P + 1):
        for qe in range(-P, P + 1):
            right[c + P, qe + P] = float(cols[c, qe + off])
    return right, right[::-1, ::-1].copy()


def oracle_core_closure(p, q, beta, z, window):
    """Desk-scale uniqueness behind the forbidden-vanishing principle.

    The full system on the window, assembled row by row: per interior index
    (p, qe) one row for each equation, then a unit row per boundary-ring
    entry and per vanishing hypothesis x(0,0) = x(0,+-1) = 0.  Returns the
    smallest singular value of that operator and the largest core entry of
    its least-squares solution; a strictly positive value certifies that
    the only windowed solution with those vanishings is the zero sheet.
    """
    P = window
    n = 2 * P + 1
    idx = {(a, b): k for k, (a, b) in enumerate(
        (a, b) for a in range(-P, P + 1) for b in range(-P, P + 1))}
    rows = []
    for a in range(-P + 1, P):
        ca, sa = pi_fraction_trig(p * a, q)
        for b in range(-P + 1, P):
            cb, sb = pi_fraction_trig(p * b, q)
            r1 = np.zeros(n * n)
            r1[idx[(a + 1, b)]] += cb
            r1[idx[(a - 1, b)]] += cb
            r1[idx[(a, b + 1)]] += beta * ca
            r1[idx[(a, b - 1)]] += beta * ca
            r1[idx[(a, b)]] -= z
            rows.append(r1)
            r2 = np.zeros(n * n)
            r2[idx[(a + 1, b)]] += sb
            r2[idx[(a - 1, b)]] -= sb
            r2[idx[(a, b + 1)]] -= beta * sa
            r2[idx[(a, b - 1)]] += beta * sa
            rows.append(r2)
    for (a, b), k in idx.items():
        if max(abs(a), abs(b)) == P or (a, b) in ((0, 0), (0, 1), (0, -1)):
            r = np.zeros(n * n)
            r[k] = 1.0
            rows.append(r)
    mat = np.vstack(rows)
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    sol, *_ = np.linalg.lstsq(mat, np.zeros(len(rows)), rcond=None)
    core = sol.reshape(n, n)[P - 1:P + 2, P - 1:P + 2]
    return {"sigma_min": smin, "core_max": float(np.max(np.abs(core)))}


def oracle_chern_numbers(p, q, beta, n1, n2):
    """Chern numbers of the lowest j bands, j = 1..q-1, by Fukui-Hatsugai-Suzuki.

    Eigenvectors of `harper_matrix` on the n1 x n2 mesh of theta1 in
    [0, 2 pi) and theta2 in [0, 2 pi / q); the matrix is periodic on both,
    so the mesh closes on itself.  The link U_mu(k) of the lowest j bands
    is the determinant of the j x j overlap of the frames at k and at the
    next node k + e_mu, and the Chern number is the sum over plaquettes of
    arg(U_1(k) U_2(k + e_1) / (U_1(k + e_2) U_2(k))) over 2 pi, an integer
    up to roundoff.  Entry j - 1 belongs to gap j; a closed gap has no
    projector, so its entry means nothing.
    """
    t1 = TWO_PI * np.arange(n1) / n1
    t2 = TWO_PI * np.arange(n2) / (n2 * q)
    _, vecs = np.linalg.eigh(harper_matrix(RationalFrequency(p, q), beta,
                                           t1[:, None], t2[None, :]))  # [a, b, site, band]
    links = []
    for axis in (0, 1):
        overlap = np.swapaxes(vecs.conj(), -1, -2) @ np.roll(vecs, -1, axis=axis)
        links.append(np.stack([np.linalg.det(overlap[..., :j, :j]) for j in range(1, q)],
                              axis=-1))  # [a, b, j]
    u1, u2 = links
    flux = np.angle(u1 * np.roll(u2, -1, axis=0) / (np.roll(u1, -1, axis=1) * u2))
    chern = flux.sum(axis=(0, 1)) / TWO_PI
    assert np.max(np.abs(chern - np.round(chern)), initial=0.0) <= 1e-9, chern
    return np.round(chern).astype(int)


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


def hausdorff_intervals_loop(a, b):
    """Hausdorff distance between interval unions, one candidate and one interval at a time.

    The loop that `hausdorff_intervals` replaced, kept as its reference: the
    candidate maximizers are the edges of one union and the gap midpoints of
    the other that lie in it."""
    def sup_dist(src, dst):
        worst = 0.0
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


def oracle_band_distance(bands, z):
    """Distance from (possibly complex) z to a union of (lo, hi) bands, one band at a time."""
    x, y = float(np.real(z)), float(np.imag(z))
    best = np.inf
    for lo, hi in bands:
        dx = 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
        best = min(best, np.hypot(dx, y))
    return best


# The per-gap butterfly writers that the gap-table columns replaced, kept as
# oracles: each row's gaps are rebuilt one by one from its band edges, with
# the brute-force label, and every gap is written, drawn or joined on its own.

def oracle_row_gaps(row, beta, min_width):
    """(j, lo, hi, m, n, is_open) per reported gap of a dataset row, by the per-gap loop."""
    q, p = row.freq.q, row.freq.p
    if beta == 0.0 or row.error:
        return []
    out = []
    for j in range(1, q):
        lo, hi = float(row.bands[j - 1][1]), float(row.bands[j][0])
        central = q % 2 == 0 and j == q // 2
        if hi - lo <= min_width and not central:
            continue
        out.append((j, lo, hi, *oracle_gap_label(j, p, q), hi - lo > min_width and not central))
    return out


def _oracle_fmt(x):
    return f"{float(x):.17g}"


def oracle_serialize_dataset(ds):
    """The dataset file text, one CSV row written per gap object."""
    fmt = _oracle_fmt
    lines = [f"# version=2,Q={ds.order},beta={fmt(ds.beta)},min_width={fmt(ds.min_width)},"
             f"config={ds.provenance.get('config', '')},"
             f"convention=farey-(0-1]-plus-zero,label_tiebreak=+q/2",
             "p,q,beta,gap_lo,gap_hi,ids_num,ids_den,m,n,width"]
    for row in ds.rows:
        p, q = row.freq.p, row.freq.q
        if row.error:
            lines.append(f"# error,{p},{q},{row.error}")
            continue
        lines.append(f"# bands,{p},{q}," + ",".join(fmt(x) for band in row.bands for x in band))
        for j, lo, hi, m, n, _ in oracle_row_gaps(row, ds.beta, ds.min_width):
            g = math.gcd(j, q)
            lines.append(",".join([str(p), str(q), fmt(ds.beta), fmt(lo), fmt(hi), str(j // g),
                                   str(q // g), str(m), str(n), fmt(hi - lo)]))
    return "\n".join(lines) + "\n"


def _oracle_palette(n):
    n = max(-6, min(6, n))
    fade = round(255 * (1 - abs(n) / 6))
    rgb = (255, fade, fade) if n >= 0 else (fade, fade, 255)
    return rgb, "#%02x%02x%02x" % rgb


def _oracle_extent(ds):
    lo = min((b[0] for row in ds.rows for b in row.bands), default=-4.0)
    hi = max((b[1] for row in ds.rows for b in row.bands), default=4.0)
    pad = 0.02 * (hi - lo)
    return lo - pad, hi + pad


def oracle_render_svg(ds, size, gap_fill):
    """The SVG text, one element formatted per gap and per band."""
    width, height = size
    elo, ehi = _oracle_extent(ds)

    def xpix(e):
        return (e - elo) / (ehi - elo) * width

    def ypix(alpha):
        return height - alpha * height

    stroke = max(1.0, height / (2.5 * ds.order ** 2))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
           f'<!-- config={ds.provenance.get("config", "")} Q={ds.order} '
           f'beta={_oracle_fmt(ds.beta)} -->']
    if gap_fill:
        for row in ds.rows:
            y = ypix(row.freq.alpha)
            for _, lo, hi, _, n, is_open in oracle_row_gaps(row, ds.beta, ds.min_width):
                if not is_open:
                    continue
                out.append(f'<rect x="{xpix(lo):.2f}" y="{y - stroke:.2f}" '
                           f'width="{xpix(hi) - xpix(lo):.2f}" height="{2 * stroke:.2f}" '
                           f'fill="{_oracle_palette(n)[1]}"/>')
    for row in ds.rows:
        y = ypix(row.freq.alpha)
        for lo, hi in row.bands:
            out.append(f'<line x1="{xpix(lo):.2f}" y1="{y:.2f}" x2="{xpix(hi):.2f}" '
                       f'y2="{y:.2f}" stroke="#000000" stroke-width="{stroke:.2f}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def oracle_render_ppm(ds, size, gap_fill):
    """The PPM bytes, one slice painted per open gap and then per band, row by row."""
    width, height = size
    elo, ehi = _oracle_extent(ds)
    pixels = np.full((height, width, 3), 255, dtype=np.uint8)
    for row in sorted(ds.rows, key=lambda r: r.freq.alpha):
        y = int(round((1.0 - row.freq.alpha) * (height - 1)))
        if not 0 <= y < height:
            continue
        fills = ([g for g in oracle_row_gaps(row, ds.beta, ds.min_width) if g[5]]
                 if gap_fill else [])
        colors = [_oracle_palette(g[4])[0] for g in fills] + [0] * len(row.bands)
        ends = np.array([(g[1], g[2]) for g in fills] + list(row.bands), dtype=float)
        cols = np.clip(((ends - elo) / (ehi - elo) * (width - 1)).astype(int), 0, width - 1)
        for (a, b), rgb in zip(cols.tolist(), colors):  # in order: bands paint over gaps
            pixels[y, a:b + 1] = rgb
    return b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def oracle_component_count(ds, hall):
    """(observed, members) of the Hall-number components, by union-find over gap pairs
    of one label on consecutive rows."""
    rows = sorted((row for row in ds.rows if row.freq.q >= 2),
                  key=lambda r: Fraction(r.freq.p, r.freq.q))
    gaps = [[g for g in oracle_row_gaps(row, ds.beta, ds.min_width) if g[4] == hall and g[5]]
            for row in rows]
    parent = {(ridx, g[0]): (ridx, g[0]) for ridx, row_gaps in enumerate(gaps)
              for g in row_gaps}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ridx in range(len(rows) - 1):
        for g1 in gaps[ridx]:
            for g2 in gaps[ridx + 1]:
                if g1[3] == g2[3]:
                    r1, r2 = find((ridx, g1[0])), find((ridx + 1, g2[0]))
                    if r1 != r2:
                        parent[r1] = r2
    comps = {}
    for key in parent:
        comps.setdefault(find(key), []).append(key)
    members = tuple(tuple(sorted(v)) for v in sorted(comps.values(), key=lambda v: sorted(v)[0]))
    return len(comps), members


# Test instruments on top of the library's public routes, not oracles: a
# phase-grid trace of any matrix family, a sheet-free vanishing scan, a
# coupling sweep of labelled gaps and the geometric series of the matrix
# that `sigma_images` solves with.

def trace_tau(family, n):
    """Phase-averaged normalized trace of a representation-valued family.

    `family` maps (theta1, theta2) to a matrix; the average runs over the
    n x n grid of phases 2 pi k / n.  Raises on non-finite entries (e.g. a
    resolvent evaluated inside the spectrum).
    """
    ts = TWO_PI * np.arange(n) / n
    total = 0.0 + 0.0j
    count = 0
    for a in ts:
        for b in ts:
            m = family(a, b)
            if not np.all(np.isfinite(m)):
                raise ValueError(f"family has non-finite entries at phases ({a}, {b})")
            total += np.trace(m) / m.shape[0]
            count += 1
    return total / count


def vanishing_scan(freq, beta, gap, n_z=41):
    """min over a gap of max(|c00|, |c01|), via the reduced trace formulas.

    c00 = -dL/dz and c01 = g1, both computed without sheets, so the scan
    stays accurate arbitrarily close to the band edges; it passes when that
    minimum exceeds 1e-8.
    """
    ch = chambers(freq, beta, verify=False)
    lo, hi = float(gap.lo), float(gap.hi)
    pad = (hi - lo) * 1e-6
    zs = np.linspace(lo + pad, hi - pad, n_z)
    worst = np.inf
    argmin = None
    for z in zs:
        g = gradient(freq, beta, float(z), ch=ch, edge_distance=0.0)
        score = max(abs(g.g0), abs(g.g1))  # |c00| = |g0|
        if score < worst:
            worst, argmin = score, float(z)
    return {"freq": str(freq), "beta": beta, "j": gap.j, "min_of_max": worst,
            "at_z": argmin, "passes": worst > 1e-8}


@dataclass(frozen=True)
class PersistenceReport:
    beta_grid: tuple
    tracks: tuple
    closure_flags: tuple  # (freq, label, beta) triples where an open label closed

    @property
    def all_open(self) -> bool:
        return not self.closure_flags


def persistence_sweep(freqs, beta_grid, max_hall=3, min_width=1e-9):
    """Track every gap whose `gap_label` has |n| <= max_hall across the coupling grid.

    Each gap is tracked once, under its own label, so the even-q central gap
    (the permanently touching one) appears once, as n = +q/2, and is
    excluded from closure flagging; everything else must stay open at every
    coupling.
    """
    freqs = list(freqs)
    grid = tuple(float(b) for b in beta_grid)
    tracks = []
    flags = []
    for freq in freqs:
        for label, j in sorted((gap_label(j, freq), j) for j in range(1, freq.q)):
            if abs(label[1]) > max_hall:
                continue
            central = freq.q % 2 == 0 and j == freq.q // 2
            track = track_gap(label, freq, grid, min_width=min_width)
            tracks.append(track)
            if central:
                continue
            for b, ok in zip(grid, track.open_flags):
                if not ok:
                    flags.append((str(freq), label, b))
    return PersistenceReport(grid, tuple(tracks), tuple(flags))


@dataclass(frozen=True)
class NeumannExpansion:
    element: np.ndarray
    errors: tuple
    observed_ratio: float


def neumann_inverse(rep, beta, n_terms):
    """Partial geometric series for (u* v + beta)^{-1}.

    The series sum_n (-beta)^n (v* u)^{n+1} converges for beta < 1 with
    ratio exactly beta; the returned record carries the error of each
    partial sum against the direct inverse and the fitted ratio.
    """
    if not 0 < beta < 1:
        raise ValueError(f"series requires 0 < beta < 1, got beta={beta}")
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    u, v = rep.u, rep.v
    eye = np.eye(rep.q)
    target = np.linalg.inv(u.conj().T @ v + beta * eye)
    t = v.conj().T @ u
    partial = np.zeros_like(target)
    term = t.copy()
    errors = []
    for n in range(n_terms + 1):
        partial = partial + (-beta) ** n * term
        term = term @ t
        errors.append(float(np.max(np.abs(partial - target))))
    if len(errors) >= 2 and errors[-1] > 0 and errors[0] > 0:
        k = len(errors) - 1
        ratio = (errors[-1] / errors[0]) ** (1.0 / k)
    else:
        ratio = 0.0
    return NeumannExpansion(partial, tuple(errors), ratio)
