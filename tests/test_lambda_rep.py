import math

import numpy as np
import pytest

from asymtop import (
    ComplexQ,
    ConvergenceWarning,
    DimensionError,
    DomainError,
    FourierState,
    casimir_matrix,
    const_C,
    delta_j,
    ell_matrix,
    evaluate_state,
    gram_matrix,
    inner_product,
    inner_product_quadrature,
    q_rule,
    weight_B,
    weight_vector,
)


def test_weight_values():
    assert weight_B(0, 3) == pytest.approx(1.0)
    assert weight_B(1, 1) == pytest.approx(0.5)
    assert weight_B(2, 2) == pytest.approx(1.0 / 6.0)
    # recurrence B_{n+1}/B_n = (j-n)/(j+n+1)
    for j in (2, 5, 9):
        for n in range(-j, j):
            ratio = weight_B(n + 1, j) / weight_B(n, j)
            assert ratio == pytest.approx((j - n) / (j + n + 1), rel=1e-12)
    with pytest.raises(DomainError):
        weight_B(3, 2)


def test_const_values():
    assert const_C(0) == pytest.approx(1.0)
    assert const_C(1) == pytest.approx(3.0)
    assert const_C(2) == pytest.approx(120.0 / 16.0)
    with pytest.raises(DomainError):
        const_C(-1)


def test_complex_q_wraps_alpha():
    q = ComplexQ(2 * math.pi + 0.25, -0.5)
    assert q.alpha == pytest.approx(0.25)
    assert q.value == pytest.approx(0.25 - 0.5j)
    assert ComplexQ.from_complex(1.0 + 2.0j).beta == 2.0


def test_fourier_state_shape_guard():
    with pytest.raises(DimensionError):
        FourierState(j=2, coeffs=np.ones(3))


def test_generator_commutators_and_casimir():
    for j in (0, 1, 2, 5, 10):
        ells = {a: ell_matrix(a, j) for a in (1, 2, 3)}
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            comm = ells[a] @ ells[b] - ells[b] @ ells[a]
            assert np.max(np.abs(comm - ells[c])) < 1e-12
        cas = casimir_matrix(j)
        assert np.max(np.abs(cas - j * (j + 1) * np.eye(2 * j + 1))) < 1e-12


def test_generator_index_guard():
    with pytest.raises(DomainError):
        ell_matrix(0, 2)
    with pytest.raises(DomainError):
        ell_matrix(1, -1)


def test_matrix_action_equals_operator_action(rng):
    # l1 = -i sin q d/dq + i j cos q, etc., applied with exact derivatives
    for j in (1, 2, 4):
        n = np.arange(-j, j + 1)
        for _ in range(5):
            coeffs = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
            u = FourierState(j=j, coeffs=coeffs)
            q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-1.0, 1.0))
            z = np.exp(1j * q.value * n)
            val = np.sum(coeffs * z)
            dval = np.sum(coeffs * 1j * n * z)
            ops = {
                1: -1j * np.sin(q.value) * dval + 1j * j * np.cos(q.value) * val,
                2: -1j * np.cos(q.value) * dval - 1j * j * np.sin(q.value) * val,
                3: dval,
            }
            for a in (1, 2, 3):
                via_matrix = evaluate_state(
                    FourierState(j=j, coeffs=ell_matrix(a, j) @ coeffs), q
                )
                assert abs(via_matrix - ops[a]) < 1e-10 * max(1.0, abs(ops[a]))


def test_gram_and_inner_product(rng):
    j = 3
    gram = gram_matrix(j)
    assert np.allclose(np.diag(gram), 1.0 / weight_vector(j))
    u = FourierState(j=j, coeffs=rng.normal(size=7) + 1j * rng.normal(size=7))
    v = FourierState(j=j, coeffs=rng.normal(size=7) + 1j * rng.normal(size=7))
    direct = np.sum(u.coeffs.conj() * v.coeffs / weight_vector(j))
    assert inner_product(u, v) == pytest.approx(direct)
    # antilinear in the first slot
    assert inner_product(v, u) == pytest.approx(np.conj(direct))
    with pytest.raises(DimensionError):
        inner_product(u, FourierState(j=2, coeffs=np.ones(5)))


def test_generators_antihermitian_for_gram():
    # (-i l_a) is self-adjoint: G L = L^H G
    for j in (1, 3, 6):
        gram = gram_matrix(j)
        for a in (1, 2, 3):
            mat = -1j * ell_matrix(a, j)
            lhs = gram @ mat
            assert np.max(np.abs(lhs - mat.conj().T @ gram)) < 1e-12 * np.max(np.abs(lhs))


def test_delta_j_matches_fourier_sum(rng):
    for j in (0, 1, 4):
        n = np.arange(-j, j + 1)
        b = weight_vector(j)
        for _ in range(5):
            q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-1, 1))
            qp = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-1, 1))
            direct = np.sum(b * np.exp(1j * n * (q.value - np.conj(qp.value))))
            val = delta_j(q, qp, j)
            assert abs(val - direct) < 1e-10 * max(1.0, abs(direct))


def test_evaluate_state_overflow_guard():
    u = FourierState(j=2, coeffs=np.ones(5))
    with pytest.raises(OverflowError):
        evaluate_state(u, ComplexQ(0.0, 60.0))


def test_quadrature_gram_is_diagonal():
    for j in (0, 1, 2, 4):
        rule = q_rule(j)
        assert abs(np.sum(rule.weights) - 1.0) < 1e-13  # (psi_0, psi_0)_Q = 1
        n = np.arange(-j, j + 1)
        vals = np.exp(1j * np.outer(rule.nodes, n))
        quad = vals.conj().T @ (rule.weights[:, None] * vals)
        b = weight_vector(j)
        rel = np.abs(quad - np.diag(1.0 / b)) * np.sqrt(np.outer(b, b))
        assert np.max(rel) < 1e-8


def test_measure_normalization_closed_form():
    # integral of (1 + cosh 2 beta)^{-(j+1)} over the line equals 1/C_j
    x, w = np.polynomial.legendre.leggauss(400)
    for j in (0, 1, 2, 5):
        bmax = 20.0
        betas = bmax * x
        val = bmax * np.sum(w / (1.0 + np.cosh(2 * betas)) ** (j + 1))
        assert val == pytest.approx(1.0 / const_C(j), rel=1e-10)


def test_quadrature_inner_product_and_tail_warning(rng):
    j = 2
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    u = FourierState(j=j, coeffs=coeffs)
    exact = inner_product(u, u)
    quad = inner_product_quadrature(u, u)
    assert abs(quad - exact) < 1e-8 * max(1.0, abs(exact))
    with pytest.warns(ConvergenceWarning):
        inner_product_quadrature(u, u, beta_max=2.0)


def test_coefficients_recovered_by_pairing(rng):
    # c_n = B_nj (psi_n, u)_Q, evaluated by quadrature
    j = 2
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    rule = q_rule(j)
    n = np.arange(-j, j + 1)
    vals = np.exp(1j * np.outer(rule.nodes, n)) @ coeffs
    for m in range(-j, j + 1):
        pair = np.sum(rule.weights * np.conj(np.exp(1j * m * rule.nodes)) * vals)
        assert abs(weight_B(m, j) * pair - coeffs[m + j]) < 1e-8
