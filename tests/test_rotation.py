import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harperlab import (RationalFrequency, build_rep, build_uv, hamiltonian,
                       lam_phase, max_norm, monomial, rho_images, sigma_images)
from conftest import neumann_inverse, trace_tau

RNG = np.random.default_rng(20240811)


def coprime_pairs(qmax):
    import math
    out = []
    for q in range(1, qmax + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return out


def test_commutation_residual_all_q_up_to_64():
    for q in list(range(1, 14)) + [21, 34, 64]:
        p = 1 if q == 1 else max(x for x in range(1, q) if np.gcd(x, q) == 1)
        freq = RationalFrequency(p, q)
        worst = 0.0
        for _ in range(20):
            t1, t2 = RNG.uniform(0, 2 * np.pi, 2)
            rep = build_rep(freq, t1, t2)
            w = np.exp(2j * np.pi * freq.alpha)
            worst = max(worst, max_norm(rep.u @ rep.v - w * rep.v @ rep.u))
            worst = max(worst, max_norm(rep.u @ rep.u.conj().T - np.eye(q)))
            worst = max(worst, max_norm(rep.v @ rep.v.conj().T - np.eye(q)))
        assert worst <= 1e-12


def test_scalar_rep_commutes():
    rep = build_rep(RationalFrequency(0, 1), 0.4, 1.9)
    assert rep.u.shape == (1, 1)
    assert abs(rep.u[0, 0] - np.exp(0.4j)) < 1e-15
    assert abs(rep.v[0, 0] - np.exp(1.9j)) < 1e-15


def test_unitarity_residual_5_8():
    rep = build_rep(RationalFrequency(5, 8), 0.7, 1.1)
    assert max_norm(rep.u.conj().T @ rep.u - np.eye(8)) <= 1e-12
    assert max_norm(rep.v.conj().T @ rep.v - np.eye(8)) <= 1e-12


def test_monomial_identity_and_half_flux():
    rep = build_rep(RationalFrequency(1, 2), 0.0, 0.0)
    w00 = monomial(rep, 0, 0)
    assert max_norm(w00 - np.eye(2)) == 0.0
    w11 = monomial(rep, 1, 1)
    expected = np.exp(-1j * np.pi / 2) * rep.u @ rep.v
    assert max_norm(w11 - expected) <= 1e-15


def test_monomial_inverse_pairs():
    rep = build_rep(RationalFrequency(2, 5), 0.3, 0.9)
    prod = monomial(rep, 1, 1) @ monomial(rep, -1, -1)
    assert max_norm(prod - np.eye(5)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.sampled_from([(1, 3), (2, 5), (5, 8), (3, 7)]))
def test_monomial_adjoint_and_unitary(p, qe, pq):
    rep = build_rep(RationalFrequency(*pq), 0.21, 1.7)
    w = monomial(rep, p, qe)
    wadj = monomial(rep, -p, -qe)
    assert max_norm(w.conj().T - wadj) <= 1e-12
    assert max_norm(w @ w.conj().T - np.eye(pq[1])) <= 1e-12


def test_trace_identity_and_monomial_orthogonality():
    freq = RationalFrequency(1, 5)
    val = trace_tau(lambda a, b: build_rep(freq, a, b).u @ np.zeros((5, 5)) + np.eye(5), 8)
    assert abs(val - 1.0) <= 1e-14
    val = trace_tau(lambda a, b: monomial(build_rep(freq, a, b), 2, 3), 8)
    assert abs(val) <= 1e-12


def test_trace_kills_every_window_monomial():
    # delta at the origin across the whole window once the grid clears it
    freq = RationalFrequency(2, 5)
    for p in range(-4, 5):
        for qe in range(-4, 5):
            val = trace_tau(lambda a, b, p=p, qe=qe:
                            monomial(build_rep(freq, a, b), p, qe), 9)
            expect = 1.0 if (p, qe) == (0, 0) else 0.0
            assert abs(val - expect) <= 1e-12


def test_trace_of_squared_hamiltonian():
    freq = RationalFrequency(1, 3)
    beta = 0.5

    def family(a, b):
        h = hamiltonian(build_rep(freq, a, b), beta)
        return h @ h

    val = trace_tau(family, 8)
    assert abs(val - (2 + 2 * beta ** 2)) <= 1e-12


def test_trace_is_tracial_on_random_polynomials():
    freq = RationalFrequency(2, 5)
    coeffs = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))

    def poly(rep, shift):
        acc = np.zeros((5, 5), dtype=complex)
        for i in range(3):
            for j in range(3):
                acc += (coeffs[i, j] + shift) * monomial(rep, i - 1, j - 1)
        return acc

    def ab(a, b):
        rep = build_rep(freq, a, b)
        return poly(rep, 0.0) @ poly(rep, 0.25)

    def ba(a, b):
        rep = build_rep(freq, a, b)
        return poly(rep, 0.25) @ poly(rep, 0.0)

    assert abs(trace_tau(ab, 16) - trace_tau(ba, 16)) <= 1e-10


def test_trace_rejects_nonfinite():
    freq = RationalFrequency(1, 2)

    def family(a, b):
        rep = build_rep(freq, a, b)
        h = hamiltonian(rep, 1.0)
        return h if abs(np.cos(a)) > 1e-12 else np.full((2, 2), np.inf)

    with pytest.raises(ValueError):
        trace_tau(family, 4)


def test_trace_grid_error_decays_for_resolvent():
    freq = RationalFrequency(1, 3)
    z = 4.5

    def family(a, b):
        h = hamiltonian(build_rep(freq, a, b), 0.5)
        return np.linalg.inv(h - z * np.eye(3))

    ref = trace_tau(family, 64)
    errs = [abs(trace_tau(family, n) - ref) for n in (2, 4, 8)]
    floor = 1e-14
    assert errs[1] <= errs[0] + floor and errs[2] <= errs[1] + floor
    assert errs[2] <= 1e-10


def test_hamiltonian_shape_and_norm():
    freq = RationalFrequency(5, 8)
    worst = 0.0
    for _ in range(100):
        t1, t2 = RNG.uniform(0, 2 * np.pi, 2)
        h = hamiltonian(build_rep(freq, t1, t2), 1.0)
        assert max_norm(h - h.conj().T) <= 1e-14
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
    assert worst <= 4.0 + 1e-12


def test_hamiltonian_scalar_case():
    rep = build_rep(RationalFrequency(0, 1), 0.8, 2.2)
    h = hamiltonian(rep, 0.7)
    assert abs(h[0, 0] - (2 * np.cos(0.8) + 2 * 0.7 * np.cos(2.2))) <= 1e-14


def test_hamiltonian_rejects_bad_coupling():
    rep = build_rep(RationalFrequency(1, 2))
    with pytest.raises(ValueError):
        hamiltonian(rep, 0.0)
    with pytest.raises(ValueError):
        hamiltonian(rep, -0.5)


def test_ladder_pair_identities_examples():
    # the two frozen example points, residuals at roundoff scale
    for (p, q, beta) in ((1, 3, 0.5), (2, 5, 0.7)):
        rep = build_rep(RationalFrequency(p, q), 0.0, 0.0)
        U, V = build_uv(rep, beta)
        lam = lam_phase(rep.freq)
        gamma = beta + 1 / beta
        assert max_norm(U @ V - lam ** -2 * V @ U) <= 1e-12
        assert max_norm(U.conj().T @ V
                        - lam ** 2 * V @ U.conj().T) <= 1e-12
        assert max_norm(U.conj().T @ U
                        - (lam * V + np.conj(lam) * V.conj().T
                           + gamma * np.eye(q))) <= 1e-12


def test_ladder_product_spectrum_at_self_dual_point():
    rep = build_rep(RationalFrequency(1, 3), 0.4, 0.9)
    U, _ = build_uv(rep, 1.0)
    spec = np.linalg.eigvalsh(U.conj().T @ U)
    assert np.all(spec >= -1e-12) and np.all(spec <= 4.0 + 1e-12)


def test_hamiltonian_from_ladder_pair():
    rep = build_rep(RationalFrequency(3, 7), 1.2, 0.5)
    beta = 0.6
    U, _ = build_uv(rep, beta)
    h = hamiltonian(rep, beta)
    assert max_norm(np.sqrt(beta) * (U + U.conj().T) - h) <= 1e-12


def test_twist_automorphism_identity():
    rep = build_rep(RationalFrequency(1, 3), 0.0, 0.0)
    beta = 0.5
    ru, rv = rho_images(rep, beta)
    assert max_norm(ru + beta * rv - (rep.u.conj().T + beta * rep.v)) <= 1e-10


def test_symmetry_images_identities():
    # residuals of the three defining identities at the frozen example points
    cases = [((1, 3), 0.5), ((2, 5), 0.3), ((1, 4), 0.6)]
    for (p, q), beta in cases:
        rep = build_rep(RationalFrequency(p, q), 0.0, 0.0)
        su, sv = sigma_images(rep, beta)
        lam = lam_phase(rep.freq)
        eye = np.eye(q)
        assert max_norm(su @ su.conj().T - eye) <= 1e-10
        assert max_norm(sv @ sv.conj().T - eye) <= 1e-10
        # conjugate-linear image of the defining commutation
        assert max_norm(su @ sv
                        - lam ** -2 * sv @ su) <= 1e-10
        # fixes the ladder generator (the twisted-inverse identity composed
        # with conjugation)
        assert max_norm(su + beta * sv - (rep.u + beta * rep.v)) <= 1e-10
        U, V = build_uv(rep, beta)
        assert max_norm(beta ** -0.5 * su + beta ** 0.5 * sv
                        - U) <= 1e-10
        assert max_norm(np.conj(lam) * su @ sv.conj().T
                        - V.conj().T) <= 1e-10


def test_symmetry_rejects_coupling_outside_unit_interval():
    rep = build_rep(RationalFrequency(1, 3))
    with pytest.raises(ValueError):
        sigma_images(rep, 1.0)
    with pytest.raises(ValueError):
        sigma_images(rep, 1.5)


def test_neumann_series_examples():
    rep = build_rep(RationalFrequency(1, 3), 0.3, 0.8)
    out = neumann_inverse(rep, 0.5, 40)
    assert out.errors[-1] <= 2 * 0.5 ** 40
    out = neumann_inverse(rep, 0.1, 10)
    assert out.errors[-1] <= 1e-9
    out = neumann_inverse(rep, 0.4, 0)
    # one term: geometric tail bound beta/(1-beta)
    assert out.errors[0] <= 0.4 / (1 - 0.4) + 1e-12


def test_neumann_ratio_and_constant():
    rep = build_rep(RationalFrequency(2, 5), 1.1, 0.2)
    beta = 0.6
    out = neumann_inverse(rep, beta, 30)
    assert abs(out.observed_ratio - beta) <= 0.01
    fitted_c = max(err / beta ** n for n, err in enumerate(out.errors))
    assert fitted_c <= 10.0


def test_neumann_rejects_divergent_coupling():
    rep = build_rep(RationalFrequency(1, 2))
    with pytest.raises(ValueError):
        neumann_inverse(rep, 1.0, 5)


@pytest.mark.parametrize("beta", [0.1, 0.4])
def test_sigma_of_v_through_the_neumann_series(beta):
    """sigma(v) = v (u* v + beta)^{-1} (v* u + beta): with the inverse
    replaced by the series' partial sum N up to n = 10, v N (v* u + beta) is
    within beta^11, the size of the first term left out, of `sigma_images`
    (measured 0.99 and 0.85 of it).  From about n = 20 on the difference is
    the 3e-16 of roundoff."""
    rep = build_rep(RationalFrequency(2, 5), 0.3, 0.9)
    u, v = rep.u, rep.v
    series = v @ neumann_inverse(rep, beta, 10).element @ (v.conj().T @ u + beta * np.eye(5))
    assert np.max(np.abs(series - sigma_images(rep, beta)[1])) <= beta ** 11


def test_algebra_functions_return_plain_arrays():
    rep = build_rep(RationalFrequency(2, 5), 0.3, 0.9)
    out = [monomial(rep, 2, -1), hamiltonian(rep, 0.5), *build_uv(rep, 0.5),
           *rho_images(rep, 0.5), *sigma_images(rep, 0.5), neumann_inverse(rep, 0.5, 3).element]
    for m in out:
        assert type(m) is np.ndarray and m.shape == (5, 5)
