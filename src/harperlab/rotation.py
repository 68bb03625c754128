"""Clock-and-shift representations of the rotation algebra at rational flux.

At alpha = p/q the algebra generated by unitaries u, v with
u v = exp(2 pi i alpha) v u has q x q representations parameterized by two
phases.  We take u diagonal (clock) and v a cyclic shift; the trace state
is the normalized matrix trace averaged over the phase torus.  Elements of
the algebra are the q x q complex ndarrays of one representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rationals import TWO_PI, RationalFrequency, pi_fraction_trig


@dataclass(frozen=True)
class RotationRep:
    """A q x q unitary pair (u, v) at phases (theta1, theta2)."""

    freq: RationalFrequency
    theta1: float
    theta2: float
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.freq.q


def max_norm(a) -> float:
    """Entrywise max norm of a."""
    return float(np.max(np.abs(a)))


def build_rep(freq: RationalFrequency, theta1: float = 0.0, theta2: float = 0.0) -> RotationRep:
    """Clock/shift pair with u v = exp(2 pi i p/q) v u exactly.

    u = exp(i theta1) diag(omega^j) with omega = exp(2 pi i p/q), and
    v = exp(i theta2) S with (S x)_j = x_{j-1} cyclically.
    """
    q = freq.q
    j = np.arange(q)
    diag = np.exp(1j * (theta1 + TWO_PI * ((j * freq.p) % q) / q))
    u = np.diag(diag)
    shift = np.zeros((q, q), dtype=complex)
    shift[j, (j - 1) % q] = 1.0
    v = np.exp(1j * theta2) * shift
    return RotationRep(freq, float(theta1), float(theta2), u, v)


def monomial(rep: RotationRep, p: int, qe: int) -> np.ndarray:
    """Standardized monomial exp(-i pi alpha p qe) u^p v^qe.

    The balancing phase makes the family self-adjoint under index negation,
    w(p, qe)* = w(-p, -qe), and each w unitary.  Negative exponents are the
    corresponding adjoint powers.
    """
    freq = rep.freq
    q = freq.q
    j = np.arange(q)
    # u^p is diagonal; v^qe is the shifted permutation. Build both directly
    # so large |p|, |qe| cost O(q^2) and lose no phase accuracy.
    updiag = np.exp(1j * (p * rep.theta1 + TWO_PI * ((j * freq.p * p) % q) / q))
    mat = np.zeros((q, q), dtype=complex)
    mat[j, (j - qe) % q] = updiag
    c, s = pi_fraction_trig(-p * qe * freq.p, q)
    return complex(c, s) * np.exp(1j * qe * rep.theta2) * mat


def hamiltonian(rep: RotationRep, beta: float) -> np.ndarray:
    """u + u* + beta (v + v*); self-adjoint with norm at most 2 + 2 beta."""
    if beta <= 0:
        raise ValueError(f"coupling must be positive, got beta={beta}")
    u, v = rep.u, rep.v
    return u + u.conj().T + beta * (v + v.conj().T)


def build_uv(rep: RotationRep, beta: float):
    """The ladder pair (U, V) generating the scaled copy of the algebra.

    U = beta^{-1/2} u + beta^{1/2} v and V is the standardized monomial
    w(1, -1).  They satisfy, with lam = exp(i pi alpha) and
    gamma = beta + 1/beta,

        U V  = lam^{-2} V U,        U* V = lam^{2} V U*,
        U* U = lam V + lam^{-1} V* + gamma,

    and sqrt(beta) (U + U*) recovers the Hamiltonian.
    """
    if beta <= 0:
        raise ValueError(f"coupling must be positive, got beta={beta}")
    return beta ** -0.5 * rep.u + beta ** 0.5 * rep.v, monomial(rep, 1, -1)


def lam_phase(freq: RationalFrequency) -> complex:
    """exp(i pi alpha) with the angle reduced exactly."""
    c, s = pi_fraction_trig(freq.p, freq.q)
    return complex(c, s)


def rho_images(rep: RotationRep, beta: float):
    """Images of (u, v) under the linear twist automorphism.

    rho(u) = v u v (u v + beta)^{-1} (v* u* + beta)
    rho(v) = v (u v + beta)^{-1} (v* u* + beta)

    so that rho(u + beta v) = u* + beta v.
    """
    return _twisted(rep, rep.u, beta)


def sigma_images(rep: RotationRep, beta: float):
    """Images of (u, v) under the conjugate-linear symmetry.

    sigma(u) = v u* v (u* v + beta)^{-1} (v* u + beta)
    sigma(v) = v (u* v + beta)^{-1} (v* u + beta)

    The map extends conjugate-linearly (sigma(c a) = conj(c) sigma(a)), so
    its defining identities reduce to plain matrix identities on the images:
    sigma(u) + beta sigma(v) = u + beta v (it fixes the ladder generator U)
    and lam^{-1} sigma(u) sigma(v)* = V* (it conjugates the twist V).
    """
    if not 0 < beta < 1:
        raise ValueError(f"symmetry images need 0 < beta < 1, got beta={beta}")
    return _twisted(rep, rep.u.conj().T, beta)


def _twisted(rep, x, beta):
    """(v x v c, v c), c = (x v + beta)^{-1} (v* x* + beta): rho's at x = u, sigma's at u*."""
    v, eye = rep.v, np.eye(rep.q)
    a = x @ v + beta * eye
    _check_cond(a, beta)
    core = np.linalg.solve(a, v.conj().T @ x.conj().T + beta * eye)
    return v @ x @ v @ core, v @ core


def _check_cond(a, beta):
    """Refuse a solve whose condition number exceeds 1e12."""
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"u*v + beta nearly singular at beta={beta} (cond={cond:.3e}); "
            "-beta approaches an eigenvalue of the unitary"
        )
