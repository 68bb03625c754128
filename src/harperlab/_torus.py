"""Torus averages of resolvent kernels D = A + B cos(phi) + C cos(psi).

Everything the trace state assigns to functions of the Hamiltonian reduces,
through the determinant decomposition, to averages of y^k / D^m and of
log|D| over the phase torus, with A the characteristic polynomial value and
(B, C) the two cosine amplitudes.  The phi-average has closed forms; the
remaining psi-integral is a trapezoid sized by the half-width of its
analyticity strip, one rule (`strip`, `nodes`) that also sizes the phases
of the transfer route, as `grid_nodes` each axis of the trace and sheet
grids, and the in-band measure of `spectrum.ids` wherever it has no kink.
The psi-kernels take at least 8 nodes (for cos psi and cos 2 psi), above
64 a sinh-graded rule with no cap.  The float range adds no threshold: the
kernels are homogeneous in D, and `averages` scales a large D back.
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
    eps = (abs(A) - max(abs(B), abs(C)) - min(abs(B), abs(C))) / abs(C)
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
_TRAPEZOID_MAX = 64  # the most psi nodes of the trapezoid in `averages`; beyond, the graded rule
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(12)  # on each panel of the graded psi-rule


def grid_nodes(ch, z) -> tuple[int, int]:
    """(n1, n2), the `nodes` of each phase's own strip in det(z - h) = P(z) + c1 cos(q t1)
    + c2 cos(q t2), refused when the narrower strip needs more than `GRID_CAP`."""
    P = ch.P(z)
    widths = strip(P, ch.c2, ch.c1), strip(P, ch.c1, ch.c2)
    nodes(min(widths), GRID_CAP, "z", z)  # the narrower strip refuses, and is named
    return nodes(widths[0], GRID_CAP, "z", z), nodes(widths[1], GRID_CAP, "z", z)


def averages(A: float, B: float, C: float, kinds):
    """Torus averages of the requested kernels.

    kinds is an iterable drawn from:
      'm1' -> <1/D>        'n1' -> <y/D>
      'm2' -> <1/D^2>      'n2' -> <y/D^2>      'k2' -> <y^2/D^2>
      'log' -> <log|D|>
    where x = cos(phi), y = cos(psi), D = A + B x + C y.  The phi-average is
    exact, with the root sqrt(a^2 - B^2), a = A + C y, written as
    sqrt(g (g + 2|B|)), g = |a| - |B| = M + |C| h, M = |A| - |B| - |C| with
    the larger of |B|, |C| taken off first, h = 1 + t y = 2 sin^2(v/2), t =
    sign(A C), v the psi-distance from the end where g is least: this keeps
    every digit of a small M, which a^2 - B^2 loses.  psi is the trapezoid of
    max(8, ceil(40/strip)) nodes up to 64, else the sinh map v = d sinh(u),
    d = (2M/|C|)^(1/2) (Johnston and Elliott 2005), 12-node Gauss-Legendre
    on unit panels of u in [0, asinh(pi/d)], weights summing to 1.  Only
    strip 0, the spectrum, raises ValueError.  From |A| + |B| + |C| = 2^340
    on, D is divided by the power of 2 s that brings that sum into [2^339,
    2^340), and m1, n1 are scaled back by 1/s, m2, n2, k2 by 1/s^2, log by + log s.
    """
    kinds = tuple(kinds)
    width = strip(A, B, C)
    if width == 0:
        raise ValueError(f"A={A} lies in the spectrum: its phase strip is 0")
    s = math.ldexp(1.0, max(math.frexp(abs(A) + abs(B) + abs(C))[1] - _SCALE_EXP, 0))
    sign, Ba, Ca = math.copysign(1.0, A), abs(B) / s, abs(C) / s
    t = 1.0 if sign * C >= 0 else -1.0
    M = abs(A) / s - max(Ba, Ca) - min(Ba, Ca)
    if width * _TRAPEZOID_MAX < STRIP_EFOLDS:  # the trapezoid would take too many nodes
        d = math.sqrt(2.0 * M / Ca)
        end = math.asinh(math.pi / d)
        u = (np.arange(math.ceil(end))[:, None] + 0.5 * (_PANEL_X + 1.0)) * (end / math.ceil(end))
        h, w = 2.0 * np.sin(0.5 * d * np.sinh(u)) ** 2, _PANEL_W * np.cosh(u)
        n, total = float(w.sum()), w.ravel().dot  # the weights normalised to sum 1
    else:  # h at psi = 2 pi k/n
        n, total = max(8, math.ceil(STRIP_EFOLDS / width)), np.add.reduce
        h = 2.0 * (np.cos if t > 0 else np.sin)(np.pi * np.arange(n) / n) ** 2
    y, g = t * (h - 1.0), M + Ca * h
    root = np.sqrt(g * (g + 2.0 * Ba))
    acc = {k: float(total(_KERNELS[k](y, g, Ba, root).ravel())) for k in kinds}
    out = {k: (sign / s if k in ('m1', 'n1') else 1.0 / s / s) * acc[k] / n for k in kinds}
    return out | {'log': acc['log'] / n + math.log(s)} if 'log' in out else out
