"""Reduced rational frequencies and continued-fraction approximants."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=True)
class RationalFrequency:
    """A reduced fraction p/q in [0, 1] used as rotation number.

    The denominator doubles as the matrix dimension of the associated
    clock-and-shift representation, so q >= 1 is enforced.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"denominator must be positive, got q={self.q}")
        if not 0 <= self.p <= self.q:
            raise ValueError(f"need 0 <= p <= q, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced")

    @property
    def alpha(self) -> float:
        return self.p / self.q

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    @classmethod
    def from_string(cls, text: str) -> "RationalFrequency":
        try:
            num, den = text.strip().split("/")
            return cls(int(num), int(den))
        except ValueError as exc:
            raise ValueError(f"cannot parse frequency {text!r}; expected 'p/q'") from exc

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def convergents(cf_terms, depth=None):
    """Convergents of a continued fraction [a0; a1, a2, ...] as frequencies.

    Only fractions that land in [0, 1] are representable; terms are expected
    to describe a number in [0, 1] (leading term 0).  Denominators are
    strictly increasing past the first entry.
    """
    terms = list(cf_terms) if depth is None else list(cf_terms)[: depth + 1]
    if not terms:
        raise ValueError("need at least one continued-fraction term")
    h0, h1 = 1, terms[0]
    k0, k1 = 0, 1
    out = [RationalFrequency(h1, k1)]
    for a in terms[1:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append(RationalFrequency(h1, k1))
    return out


def named_continued_fraction(name: str, depth: int):
    """Continued-fraction terms for the built-in irrational targets.

    golden: (sqrt(5)-1)/2, sqrt2: sqrt(2)-1, e-based: e-2.  All lie in (0,1).
    """
    if name == "golden":
        return [0] + [1] * depth
    if name == "sqrt2":
        return [0] + [2] * depth
    if name == "e-based":
        # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]; drop the integer part.
        terms = []
        k = 2
        while len(terms) < depth:
            terms.extend([1, k, 1])
            k += 2
        return [0] + terms[:depth]
    raise ValueError(f"unknown irrational target {name!r}")


def pi_fraction_trig(num: int, den: int):
    """(cos, sin) of pi*num/den with exact values at multiples of pi/2.

    The exactness at the axes matters: the coefficient recursions degenerate
    precisely where these sines and cosines vanish, and a 1e-16 residue there
    changes which equations are active.
    """
    r = num % (2 * den)
    if r % den == 0:
        return (1.0 if r == 0 else -1.0), 0.0
    if (2 * r) % den == 0:
        return 0.0, (1.0 if 2 * r == den else -1.0)
    sign = 1.0
    if r > den:  # canonicalize to [0, pi] so negated arguments mirror bit-exactly
        r = 2 * den - r
        sign = -1.0
    x = math.pi * r / den
    return math.cos(x), sign * math.sin(x)
