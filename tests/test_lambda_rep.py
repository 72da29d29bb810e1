import math
import tracemalloc
import warnings

import numpy as np
import pytest

from asymtop import (
    ComplexQ,
    ConvergenceWarning,
    DimensionError,
    DomainError,
    EulerAngles,
    FourierState,
    casimir_matrix,
    const_C,
    delta_j,
    ell_matrix,
    evaluate_state,
    fourier_basis,
    gram_matrix,
    inner_product,
    inner_product_quadrature,
    kernel_eval,
    phi_state,
    q_grid,
    q_rule,
    weight_B,
    weight_vector,
)
from asymtop import caching
from asymtop.lambda_rep import LOG_MAX, QRule, default_beta_max, quadrature_gram
from asymtop.so3 import gauss_legendre


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


def test_weights_refuse_negative_j():
    # log_factorials(2j) of j < 0 is empty: an IndexError before the check
    for call, args in [(weight_B, (0, -1)), (weight_B, ([], -1)), (weight_vector, (-1,)), (weight_vector, (-3,))]:
        with pytest.raises(DomainError, match="^j must be >= 0$"):
            call(*args)


def test_const_values():
    assert const_C(0) == pytest.approx(1.0)
    assert const_C(1) == pytest.approx(3.0)
    assert const_C(2) == pytest.approx(120.0 / 16.0)
    with pytest.raises(DomainError):
        const_C(-1)


def test_const_C_past_the_float_range_names_its_j():
    # C_j ~ (2j+1) 2^j / sqrt(pi j) passes max float at j = 1019; math.exp
    # raised a bare "math range error" there, from delta_j and the kernel too
    assert math.isfinite(const_C(1018))
    q, qp, g = ComplexQ(0.3, 0.0), ComplexQ(0.5, 0.0), EulerAngles(0.1, 0.5, 0.2)
    assert math.isfinite(abs(delta_j(q, qp, 1018))) and math.isfinite(abs(kernel_eval(q, qp, 1018, g)))
    for j in (1019, 1030):
        for call, args in ((const_C, (j,)), (delta_j, (q, qp, j)), (kernel_eval, (q, qp, j, g))):
            with pytest.raises(OverflowError, match=f"^C_j at j={j} leaves the float range$"):
                call(*args)


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
    # j |Im q| = 342 passes LOG_MAX; at j = 0, |Im q| itself does
    for j, beta in [(2, 171.0), (0, 341.0)]:
        u = FourierState(j=j, coeffs=np.ones(2 * j + 1))
        with pytest.raises(OverflowError):
            evaluate_state(u, ComplexQ(0.0, beta))


def test_quadrature_gram_is_diagonal():
    for j in (0, 1, 2, 4):
        nodes, log_weights = q_grid(j, default_beta_max(j))
        weights = np.exp(log_weights)
        assert abs(np.sum(weights) - 1.0) < 1e-13  # (psi_0, psi_0)_Q = 1
        n = np.arange(-j, j + 1)
        vals = np.exp(1j * np.outer(nodes, n))
        quad = vals.conj().T @ (weights[:, None] * vals)
        b = weight_vector(j)
        rel = np.abs(quad - np.diag(1.0 / b)) * np.sqrt(np.outer(b, b))
        assert np.max(rel) < 1e-8


def test_q_rule_flat_grid_is_the_product_of_its_axes():
    for j in (0, 1, 4, 15):
        rule = q_rule(j)
        beta_max = default_beta_max(j)
        n_alpha = 2 * j + 4
        alphas = 2.0 * math.pi * np.arange(n_alpha) / n_alpha
        x, wx = gauss_legendre(224 + 32 * j)
        betas = beta_max * x
        log_density = np.log(beta_max * wx) - (j + 1) * (2.0 * np.logaddexp(betas, -betas) - math.log(2.0))
        top = log_density.max()
        log_weights = log_density - (top + math.log(n_alpha * float(np.sum(np.exp(log_density - top)))))
        qs = alphas[:, None] + 1j * betas[None, :]
        grid = q_grid(j, beta_max)
        for got, want in zip(grid, (qs.ravel(), np.broadcast_to(log_weights, qs.shape).ravel())):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert rule.beta_max == beta_max
        assert q_grid(j, beta_max) is grid  # built once


def test_q_rule_is_cached_and_read_only(cold_caches):
    rule = q_rule(2)
    assert q_rule(2) is rule and q_rule(2, default_beta_max(2)) is rule
    assert q_rule(2, 9.0) is not rule and q_rule(2, 9.0).beta_max == 9.0
    for arr in (rule.alphas, rule.betas, rule.beta_log_weights, *q_grid(2, rule.beta_max)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    caching.TABLES.clear()
    assert q_rule(2) is not rule


def test_q_rule_cache_stays_within_its_byte_bound(cold_caches, monkeypatch):
    # rules and their flattened grids share the one cache, which trims as
    # each is stored
    monkeypatch.setattr(caching.TABLES, "limit", 1 << 20)
    built = 0
    for j in range(12):
        rule = q_rule(j)
        built += sum(arr.nbytes for arr in caching.arrays((rule, q_grid(j, rule.beta_max))))
        assert 0 < caching.TABLES.nbytes <= 1 << 20
    assert built > 1 << 20  # the bound binds
    assert q_rule(11) is q_rule(11)


def test_quadrature_gram_by_axes_is_the_node_sum():
    for j in range(5):
        rule = q_rule(j)
        nodes, log_weights = q_grid(j, rule.beta_max)
        vals = fourier_basis(j, nodes, 0.5 * log_weights) * np.sqrt(weight_vector(j))
        assert np.max(np.abs(quadrature_gram(rule) - vals.conj().T @ vals)) <= 1e-14
    # the node table's refusal: at j = 4, |beta| = 90 gives e^360, past LOG_MAX
    def one_node(beta):
        return QRule(j=4, alphas=np.zeros(1), betas=np.array([beta]), beta_log_weights=np.zeros(1), beta_max=90.0)

    assert np.isfinite(quadrature_gram(one_node(-80.0))).all()
    for beta in (90.0, -90.0, np.nan):
        with pytest.raises(OverflowError):
            fourier_basis(4, np.array([1j * beta]), np.zeros(1))  # one_node(beta)'s one node
        with pytest.raises(OverflowError):
            quadrature_gram(one_node(beta))


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


@pytest.mark.parametrize("j", [15, 23, 30, 40])
def test_quadrature_norm_of_states_at_larger_j(p321, j):
    # from j = 14 the weights at the beta cutoff underflow where |Phi|^2
    # overflows; sqrt(weight) rides inside each node value instead
    u = phi_state(j, 0, p321)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = inner_product_quadrature(u, u)
    assert abs(norm - (2 * j + 1)) <= 1e-9 * (2 * j + 1)


def test_quadrature_inner_product_is_the_node_sum_without_a_node_table(p321, rng):
    # the alpha x beta factored sum against the flat sum over q_rule's nodes
    j = 5
    u = FourierState(j=j, coeffs=rng.normal(size=11) + 1j * rng.normal(size=11))
    v = phi_state(j, 2, p321)
    nodes, log_weights = q_grid(j, default_beta_max(j))
    vals = fourier_basis(j, nodes, 0.5 * log_weights)
    flat = np.vdot(vals @ u.coeffs, vals @ v.coeffs)
    assert abs(inner_product_quadrature(u, v) - flat) < 1e-13 * abs(flat)
    # at j = 40 the node-by-n table alone is 126336 x 81 complex values (164 MB)
    w = phi_state(40, 0, p321)
    inner_product_quadrature(w, w)  # the Gauss-Legendre nodes are cached per size
    tracemalloc.start()
    try:
        inner_product_quadrature(w, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_weight_vector_is_cached_and_read_only():
    b = weight_vector(7)
    assert weight_vector(7) is b
    assert np.array_equal(b, weight_B(np.arange(-7, 8), 7))
    with pytest.raises(ValueError):
        b[0] = 2.0


def test_fourier_basis_values_and_overflow_rule(rng):
    j = 3
    q = rng.uniform(-1, 1, size=4) + 1j * rng.uniform(-1, 1, size=4)
    scale = rng.uniform(-1, 1, size=4) + 1j * rng.uniform(-1, 1, size=4)
    ref = np.exp(scale[:, None] + 1j * np.outer(q, np.arange(-j, j + 1)))
    assert np.max(np.abs(fourier_basis(j, q, scale) - ref) / np.abs(ref)) < 1e-14
    assert fourier_basis(0, 0.3).shape == (1,)
    # the largest value is e^{Re scale + j |Im q|}: e^-300 e^{10 * 60} is in range
    assert np.isfinite(fourier_basis(10, 60j, -300.0)).all()
    for q, scale in ((35j, 0.0), (-35j, 0.0), (0.0, LOG_MAX + 1.0), (complex(0.0, np.nan), 0.0)):
        with pytest.raises(OverflowError):
            fourier_basis(10, q, scale)


def test_coefficients_recovered_by_pairing(rng):
    # c_n = B_nj (psi_n, u)_Q, evaluated by quadrature
    j = 2
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    nodes, log_weights = q_grid(j, default_beta_max(j))
    n = np.arange(-j, j + 1)
    vals = np.exp(1j * np.outer(nodes, n)) @ coeffs
    for m in range(-j, j + 1):
        pair = np.sum(np.exp(log_weights) * np.conj(np.exp(1j * m * nodes)) * vals)
        assert abs(weight_B(m, j) * pair - coeffs[m + j]) < 1e-8
