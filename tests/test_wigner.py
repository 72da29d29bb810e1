import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_jacobi

from asymtop import (
    DimensionError,
    DomainError,
    EulerAngles,
    angular_momentum_matrices,
    compose,
    haar_rule,
    wigner_D,
    wigner_D_matrix,
    wigner_d_matrix,
    wigner_gram,
    wigner_small_d,
)
from asymtop.wigner import check_dimension, jx_eigenbasis, unitarity_defect, wigner_D_stack


def closed_form_small_d(j, m, n, theta):
    """The Jacobi closed form with exact factorial ratios, for m >= |n|,

        d^j_{mn} = (-1)^{m-n} sqrt((j+m)!(j-m)!/((j+n)!(j-n)!))
                   * sin^{m-n}(theta/2) cos^{m+n}(theta/2) P^{(m-n, m+n)}_{j-m}(cos theta),

    extended to every (m, n) by d_mn = (-1)^{m-n} d_nm = (-1)^{m-n} d_{-m,-n}.
    """
    sign = 1.0
    if abs(n) > abs(m):
        m, n, sign = n, m, (-1.0) ** (m - n)
    if m < 0:
        m, n, sign = -m, -n, sign * (-1.0) ** (m - n)
    f = math.factorial
    ratio = math.sqrt(f(j + m) * f(j - m) / (f(j + n) * f(j - n)))
    return (
        sign
        * (-1.0) ** (m - n)
        * ratio
        * math.sin(theta / 2) ** (m - n)
        * math.cos(theta / 2) ** (m + n)
        * eval_jacobi(j - m, m - n, m + n, math.cos(theta))
    )


def test_small_d_matrix_matches_jacobi_closed_form(rng):
    thetas = (*rng.uniform(0.0, math.pi, size=2), math.pi / 2, math.pi)
    for j in range(25):
        idx = range(-j, j + 1)
        for theta in thetas:
            ref = np.array([[closed_form_small_d(j, m, n, theta) for n in idx] for m in idx])
            assert np.max(np.abs(wigner_d_matrix(j, theta) - ref)) < 1e-12


def test_small_d_j1_closed_forms(rng):
    for theta in rng.uniform(0, math.pi, size=8):
        c, s = math.cos(theta), math.sin(theta)
        ch, sh = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
        ref = np.array(
            [
                [ch, s / math.sqrt(2), sh],
                [-s / math.sqrt(2), c, s / math.sqrt(2)],
                [sh, -s / math.sqrt(2), ch],
            ]
        )
        np.testing.assert_allclose(wigner_d_matrix(1, theta), ref, atol=1e-14)


def test_small_d_j2_entries(rng):
    for theta in rng.uniform(0, math.pi, size=8):
        z = math.cos(theta)
        assert abs(wigner_small_d(2, 0, 0, theta) - 0.5 * (3 * z * z - 1)) < 1e-14
        assert (
            abs(wigner_small_d(2, 2, 0, theta) - math.sqrt(3 / 8) * math.sin(theta) ** 2)
            < 1e-14
        )
        assert abs(wigner_small_d(2, 2, 2, theta) - math.cos(theta / 2) ** 4) < 1e-14


def test_small_d_at_zero_is_identity():
    for j in (0, 1, 3, 6):
        np.testing.assert_allclose(wigner_d_matrix(j, 0.0), np.eye(2 * j + 1), atol=1e-14)


@pytest.mark.parametrize("j", [10, 24, 48, 80, 150, 300])
def test_small_d_matrix_matches_expm_oracle(j, rng):
    # d^j(theta) = exp(i theta J1) on the n = j..-j basis, reversed to -j..j
    j1 = angular_momentum_matrices(j)[0]
    for theta in (*rng.uniform(0.0, math.pi, size=3), math.pi):
        ref = expm(1j * theta * j1)[::-1, ::-1]
        assert np.max(np.abs(wigner_d_matrix(j, theta) - ref)) < 1e-12


def test_small_d_matrix_stacks_over_theta(rng):
    thetas = rng.uniform(0.0, math.pi, size=(2, 3))
    for j in (0, 2, 7):
        stacked = wigner_d_matrix(j, thetas)
        assert stacked.shape == (2, 3, 2 * j + 1, 2 * j + 1)
        for idx in np.ndindex(thetas.shape):
            np.testing.assert_array_equal(stacked[idx], wigner_d_matrix(j, thetas[idx]))


def test_eigenbasis_computed_once_per_j(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    jx_eigenbasis.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    rule = haar_rule(3)
    for theta in (0.4, 1.3, 2.9):
        wigner_d_matrix(3, theta)
        wigner_d_matrix(3, rule.theta)
        wigner_D_stack(3, rule)
        wigner_small_d(3, 1, -2, theta)
    wigner_d_matrix(1, 0.4)
    wigner_D_stack(1, rule)
    assert calls == [(7, 7), (3, 3)]
    for arr in jx_eigenbasis(3):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_small_d_symmetries(rng):
    for _ in range(30):
        j = int(rng.integers(0, 6))
        m = int(rng.integers(-j, j + 1))
        n = int(rng.integers(-j, j + 1))
        theta = rng.uniform(0, math.pi)
        d = wigner_small_d(j, m, n, theta)
        sign = -1.0 if (m - n) % 2 else 1.0
        assert abs(d - sign * wigner_small_d(j, n, m, theta)) < 1e-13
        assert abs(d - wigner_small_d(j, -n, -m, theta)) < 1e-13


def test_small_d_domain_guards():
    with pytest.raises(DomainError):
        wigner_d_matrix(-1, 0.3)
    with pytest.raises(DomainError):
        wigner_small_d(-1, 0, 0, 0.3)
    with pytest.raises(DomainError):
        wigner_small_d(2, 3, 0, 0.3)


def test_big_d_matches_elementwise(rng):
    g = EulerAngles(0.7, 1.2, 2.1)
    for j in (0, 1, 3):
        mat = wigner_D_matrix(j, g)
        for m in range(-j, j + 1):
            for n in range(-j, j + 1):
                assert abs(mat[m + j, n + j] - wigner_D(j, m, n, g)) < 1e-14


def test_representation_property(rng):
    # D(g1 g2) = D(g1) D(g2); composition goes through rotation matrices,
    # so this ties the D phases to the geometry
    for j in (1, 2, 4):
        for _ in range(5):
            g1 = EulerAngles(rng.uniform(0, 6.28), rng.uniform(0.2, 2.9), rng.uniform(0, 6.28))
            g2 = EulerAngles(rng.uniform(0, 6.28), rng.uniform(0.2, 2.9), rng.uniform(0, 6.28))
            lhs = wigner_D_matrix(j, compose(g1, g2))
            rhs = wigner_D_matrix(j, g1) @ wigner_D_matrix(j, g2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unitarity(rng):
    for j in (1, 2, 5):
        assert unitarity_defect(j, rng.uniform(0.05, 3.1, size=6)) < 1e-12


def test_haar_orthogonality_small():
    rule = haar_rule(2)
    for j in (0, 1, 2):
        gram = wigner_gram(j, j, rule)
        dim = 2 * j + 1
        expected = np.einsum("mp,nq->mnpq", np.eye(dim), np.eye(dim)) / (2 * j + 1)
        np.testing.assert_allclose(gram, expected, atol=1e-13)
    np.testing.assert_allclose(wigner_gram(2, 1, rule), 0.0, atol=1e-13)


def test_gram_matches_einsum_oracle():
    for j, jt in ((2, 2), (3, 1), (5, 5)):
        rule = haar_rule(max(j, jt))

        def stack(k):
            n = np.arange(-k, k + 1)
            d = wigner_d_matrix(k, rule.theta)
            return np.exp(1j * np.outer(rule.phi, n))[:, :, None] * d * np.exp(1j * np.outer(rule.psi, n))[:, None, :]

        ref = np.einsum("k,kmn,kpq->mnpq", rule.weights, stack(j).conj(), stack(jt))
        assert np.max(np.abs(wigner_gram(j, jt, rule) - ref)) < 1e-14


def test_gram_degree_guard():
    with pytest.raises(DomainError):
        wigner_gram(3, 1, haar_rule(2))


def test_check_dimension():
    vec = check_dimension(1, [1.0, 2.0, 3.0])
    assert vec.dtype == complex
    with pytest.raises(DimensionError):
        check_dimension(2, np.ones(3))
