"""Torus averages of resolvent kernels D = A + B cos(phi) + C cos(psi).

Everything the trace state assigns to functions of the Hamiltonian reduces,
through the determinant decomposition, to averages of y^k / D^m and of
log|D| over the phase torus, with A the characteristic polynomial value and
(B, C) the two cosine amplitudes.  The phi-average has closed forms; the
remaining psi-integral is analytic whenever |A| > |B| + |C| and is done by
a trapezoid rule whose size adapts to the distance of the singularities
from the real axis, so accuracy degrades gracefully even in very narrow
gaps.
"""

from __future__ import annotations

import numpy as np


def margin(A: float, B: float, C: float) -> float:
    """|A| - |B| - |C|; positive iff the kernel is nonsingular on the torus."""
    return abs(A) - abs(B) - abs(C)


def _psi_count(A: float, B: float, C: float, base: int = 256, cap: int = 1 << 22) -> int:
    """Trapezoid size so that the quadrature error is below roundoff.

    The integrand's complex singularities sit at cos(psi) = (+-|B| - A)/C,
    a relative distance eps = margin/|C| beyond the interval; the analyticity
    strip has width arccosh(1 + eps), and the error decays like exp(-n*strip).
    """
    Ca = abs(C)
    if Ca == 0.0:
        return 4  # integrand constant in psi; 4 nodes still average y to 0 exactly
    eps = margin(A, B, C) / Ca
    if eps <= 0:
        raise ValueError("kernel singular on the torus")
    strip = np.log1p(eps + np.sqrt(eps * (eps + 2.0)))
    if np.isinf(strip):  # eps^2 overflowed: |C| is negligible against the margin
        return base
    n = int(min(max(base, 2.0 ** np.ceil(np.log2(48.0 / max(strip, 1e-12)))), cap))
    return n


def averages(A: float, B: float, C: float, kinds, base: int = 256):
    """Torus averages of the requested kernels.

    kinds is an iterable drawn from:
      'm1' -> <1/D>        'n1' -> <y/D>
      'm2' -> <1/D^2>      'n2' -> <y/D^2>      'k2' -> <y^2/D^2>
      'log' -> <log|D|>
    where x = cos(phi), y = cos(psi), D = A + B x + C y.  The phi-average
    is exact; psi is a trapezoid sized by the analyticity strip, evaluated
    in chunks so narrow-gap requests stay memory-bounded.
    """
    kinds = tuple(kinds)
    if margin(A, B, C) <= 0:
        raise ValueError("averages require |A| > |B| + |C| (point off the spectrum)")
    n = _psi_count(A, B, C, base=base)
    acc = {k: 0.0 for k in kinds}
    B2 = B * B
    chunk = 1 << 20
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        y = np.cos(2.0 * np.pi * idx / n)
        Ay = A + C * y
        root = np.sqrt(Ay * Ay - B2)
        for k in kinds:
            if k == 'm1':
                vals = np.sign(Ay) / root
            elif k == 'm2':
                vals = np.abs(Ay) / root ** 3
            elif k == 'n1':
                vals = y * np.sign(Ay) / root
            elif k == 'n2':
                vals = y * np.abs(Ay) / root ** 3
            elif k == 'k2':
                vals = y * y * np.abs(Ay) / root ** 3
            elif k == 'log':
                vals = np.log(0.5 * (np.abs(Ay) + root))
            else:
                raise ValueError(f"unknown kernel kind {k!r}")
            acc[k] += float(np.sum(vals))
    return {k: acc[k] / n for k in kinds}
