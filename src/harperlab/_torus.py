"""Torus averages of resolvent kernels D = A + B cos(phi) + C cos(psi).

Everything the trace state assigns to functions of the Hamiltonian reduces,
through the determinant decomposition, to averages of y^k / D^m and of
log|D| over the phase torus, with A the characteristic polynomial value and
(B, C) the two cosine amplitudes.  The phi-average has closed forms; the
remaining psi-integral is a trapezoid sized by the half-width of its
analyticity strip, one rule (`strip`, `nodes`) that also sizes the phases
of the transfer route, as `grid_nodes` each axis of the trace and sheet
grids, and the in-band measure of `spectrum.ids` wherever it has no kink,
and that alone refuses a point.  Only the psi-kernels keep a floor of 8
nodes, for their cos psi and cos 2 psi.  The float range adds no
threshold: the kernels are homogeneous in D, and `averages` scales a
large D back.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

STRIP_EFOLDS = 40.0  # n x width of every strip-sized trapezoid: its error falls like exp(-40)
# each kernel at the psi nodes, from y = cos(psi), g = |A + C y| - |B|, |B| and
# the root of the phi-average; m1 and n1 also carry the sign of A
_KERNELS = {
    'm1': lambda y, g, b, root: 1.0 / root,
    'n1': lambda y, g, b, root: y / root,
    'm2': lambda y, g, b, root: (g + b) / root ** 3,
    'n2': lambda y, g, b, root: y * (g + b) / root ** 3,
    'k2': lambda y, g, b, root: y * y * (g + b) / root ** 3,
    # log((|a| + root)/2), in log1p form to keep a log near 0 accurate at |B| = 2
    'log': lambda y, g, b, root: np.log1p(0.5 * (g + root) + (0.5 * b - 1.0)),
}


def strip(A, B: float, C: float) -> float:
    """Half-width in psi of the analyticity strip of D = A + B cos(phi) + C cos(psi):
    arccosh(1 + (|A| - |B| - |C|)/|C|) for real A, in log1p form, and for
    complex A |Im arccos w| at the point w of -(A + |B| [-1, 1])/|C| nearest
    the imaginary axis (its level sets are ellipses with foci +-1).  0 on the
    spectrum, inf when C = 0."""
    if C == 0:
        return math.inf
    if isinstance(A, complex) and A.imag:
        t = max(-1.0, min(1.0, -A.real / abs(B))) if B else 0.0
        return abs(cmath.acos(-(A + abs(B) * t) / abs(C)).imag)
    eps = (abs(A) - abs(B) - abs(C)) / abs(C)
    return math.log1p(eps + math.sqrt(eps * (eps + 2.0))) if eps > 0 else 0.0  # inf past overflow


def nodes(width: float, cap: int, name: str, value) -> int:
    """ceil(STRIP_EFOLDS/width) trapezoid nodes, at least 1, whose error falls
    like exp(-n width) in a strip of that half-width.  Above cap, the spectrum
    (width 0) included, the point name=value is refused with its strip."""
    if width * cap < STRIP_EFOLDS:
        raise ValueError(f"{name}={value} {'lies in' if width == 0 else 'is too close to'} the "
                         f"spectrum: its phase strip {width:.3g} needs more than {cap} nodes")
    return max(1, math.ceil(STRIP_EFOLDS / width))


GRID_CAP = 512  # the most strip nodes of a phase grid's narrower axis, the trace's and the sheets'
_SCALE_EXP = 340  # `averages` scales a larger D into [2^339, 2^340), where root^3 < 2^1020


def grid_nodes(ch, z) -> tuple[int, int]:
    """(n1, n2), the `nodes` of each phase's own strip in det(z - h) = P(z) + c1 cos(q t1)
    + c2 cos(q t2), refused when the narrower strip needs more than `GRID_CAP`."""
    P = ch.P(z)
    widths = strip(P, ch.c2, ch.c1), strip(P, ch.c1, ch.c2)
    nodes(min(widths), GRID_CAP, "z", z)  # the narrower strip refuses, and is named
    return nodes(widths[0], GRID_CAP, "z", z), nodes(widths[1], GRID_CAP, "z", z)


def _psi_count(A: float, B: float, C: float) -> int:
    """The psi-trapezoid size of `averages`: `nodes`, at least 8 for the cos psi and cos 2 psi
    of the y and y^2 numerators, refused above 2^22."""
    return max(8, nodes(strip(A, B, C), 1 << 22, "A", A))


def averages(A: float, B: float, C: float, kinds):
    """Torus averages of the requested kernels.

    kinds is an iterable drawn from:
      'm1' -> <1/D>        'n1' -> <y/D>
      'm2' -> <1/D^2>      'n2' -> <y/D^2>      'k2' -> <y^2/D^2>
      'log' -> <log|D|>
    where x = cos(phi), y = cos(psi), D = A + B x + C y.  The phi-average
    is exact, with the root sqrt(a^2 - B^2), a = A + C y, written as
    sqrt(g (g + 2|B|)), g = |a| - |B| = M + |C| (1 + t y), M = |A| - |B| - |C|
    and t = sign(A C): 1 + t y = 2 cos^2(psi/2) or 2 sin^2(psi/2) keeps every
    digit of a small M, which a^2 - B^2 loses.  psi is a trapezoid of
    `_psi_count` nodes, in chunks that bound the memory of narrow gaps; a
    strip that needs more than 2^22 nodes, the spectrum included, raises
    ValueError.  From |A| + |B| + |C| = 2^340 on, D is divided by the power
    of 2 s that brings that sum into [2^339, 2^340), and the homogeneous
    kernels are scaled back: m1, n1 by 1/s, m2, n2, k2 by 1/s^2, log by + log s.
    """
    kinds = tuple(kinds)
    n = _psi_count(A, B, C)
    s = math.ldexp(1.0, max(math.frexp(abs(A) + abs(B) + abs(C))[1] - _SCALE_EXP, 0))
    A, B, C = A / s, B / s, C / s
    sign = math.copysign(1.0, A)
    t = 1.0 if sign * C >= 0 else -1.0
    half = np.cos if t > 0 else np.sin
    Ba, M = abs(B), abs(A) - abs(B) - abs(C)
    acc = dict.fromkeys(kinds, 0.0)
    for start in range(0, n, 1 << 20):
        h = 2.0 * half(np.pi * np.arange(start, min(start + (1 << 20), n)) / n) ** 2  # 1 + t y
        y, g = t * (h - 1.0), M + abs(C) * h
        root = np.sqrt(g * (g + 2.0 * Ba))
        for k in kinds:
            acc[k] += float(_KERNELS[k](y, g, Ba, root).sum())
    out = {k: (sign / s if k in ('m1', 'n1') else 1.0 / s / s) * acc[k] / n for k in kinds}
    return out | {'log': acc['log'] / n + math.log(s)} if 'log' in out else out
