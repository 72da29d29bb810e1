import math

import mpmath
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
    haar_grid,
    haar_rule,
    t_matrix,
    wigner_D,
    wigner_D_matrix,
    wigner_d_apply,
    wigner_d_matrix,
    wigner_gram,
    wigner_small_d,
)
from asymtop.lambda_rep import check_dimension
from asymtop.wigner import jx_eigenbasis, ladder_coefficients, unitarity_defect


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
    # d over theta, D and t over all three angles (phi a scalar once, to
    # broadcast): each stacked matrix is its one-angle call, bit for bit
    angles = [rng.uniform(0.0, top, size=(2, 3)) for top in (2 * math.pi, math.pi, 2 * math.pi)]
    evaluators = {
        "d": lambda j, phi, theta, psi: wigner_d_matrix(j, theta),
        "D": lambda j, phi, theta, psi: wigner_D_matrix(j, EulerAngles(phi, theta, psi)),
        "t": lambda j, phi, theta, psi: t_matrix(j, EulerAngles(phi, theta, psi)),
        "D, one phi": lambda j, phi, theta, psi: wigner_D_matrix(j, EulerAngles(0.3, theta, psi)),
    }
    for name, evaluate in evaluators.items():
        for j in (0, 2, 7):
            stacked = evaluate(j, *angles)
            assert stacked.shape == (2, 3, 2 * j + 1, 2 * j + 1), name
            for idx in np.ndindex(angles[1].shape):
                alone = evaluate(j, *(a[idx] for a in angles))
                np.testing.assert_array_equal(stacked[idx], alone, err_msg=name)


def test_d_apply_is_the_matrix_times_the_vector(rng):
    # the four vector products equal d^j(theta) x to rounding, and each
    # vector of a stack (over x, over theta, or both) is its one-vector
    # call bit for bit
    for j in (0, 1, 2, 7, 40):
        theta = rng.uniform(0.0, math.pi, size=(2, 3))
        x = rng.standard_normal((2, 3, 2 * j + 1)) + 1j * rng.standard_normal((2, 3, 2 * j + 1))
        want = (wigner_d_matrix(j, theta) @ x[..., None])[..., 0]
        got = wigner_d_apply(j, theta, x)
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(x)))
        for idx in np.ndindex(theta.shape):
            assert got[idx].tobytes() == wigner_d_apply(j, theta[idx], x[idx]).tobytes()
        one_x = wigner_d_apply(j, theta, x[0, 0])  # one vector at every theta
        one_theta = wigner_d_apply(j, theta[0, 0], x)  # every vector at one theta
        for idx in np.ndindex(theta.shape):
            assert one_x[idx].tobytes() == wigner_d_apply(j, theta[idx], x[0, 0]).tobytes()
            assert one_theta[idx].tobytes() == wigner_d_apply(j, theta[0, 0], x[idx]).tobytes()


def test_eigenbasis_computed_once_per_j(monkeypatch, cold_caches):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rule = haar_rule(3)
    for theta in (0.4, 1.3, 2.9):
        wigner_d_matrix(3, theta)
        wigner_d_matrix(3, haar_grid(3).theta)
        wigner_gram(3, 3, rule)
        wigner_small_d(3, 1, -2, theta)
    wigner_d_matrix(1, 0.4)
    wigner_gram(3, 1, rule)
    # per j, one eigh of the reversal-even block (size j+1) and one of the odd (size j)
    assert calls == [(4, 4), (3, 3), (2, 2), (1, 1)]
    for arr in jx_eigenbasis(3):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _small_d_from_full_eigh(j, theta):
    """d^j from one eigh of the whole (2j+1)-square tridiagonal form."""
    _, c = ladder_coefficients(j)
    half = np.diag(c / 2.0, 1)
    lam, v = np.linalg.eigh(half + half.T)
    v = v * ((-1.0) ** (np.arange(2 * j + 1) // 2))[:, None]
    t = np.asarray(theta, dtype=float)[..., None, None] * np.rint(lam)
    even, odd = v[0::2], v[1::2]
    out = np.empty(t.shape[:-2] + (2 * j + 1, 2 * j + 1))
    out[..., 0::2, 0::2] = (even * np.cos(t)) @ even.T
    out[..., 1::2, 1::2] = (odd * np.cos(t)) @ odd.T
    out[..., 0::2, 1::2] = (even * np.sin(t)) @ odd.T
    out[..., 1::2, 0::2] = -out[..., 0::2, 1::2].swapaxes(-1, -2)
    return out


@pytest.mark.parametrize("j", [*range(11), 24, 48, 80])
def test_reversal_split_matches_one_full_size_eigh(j):
    thetas = np.array([0.0, 0.3, 1.1, math.pi / 2, 2.5, math.pi])
    assert np.max(np.abs(wigner_d_matrix(j, thetas) - _small_d_from_full_eigh(j, thetas))) <= 1e-14


def _small_d_mpmath(j, theta):
    """d^j(theta) from Wigner's finite sum at 40 digits: the entries with
    m >= |n|, the rest by d_mn = (-1)^{m-n} d_nm = d_{-n,-m}."""
    with mpmath.workdps(40):
        c, s = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
        f = [mpmath.factorial(k) for k in range(2 * j + 1)]
        canonical = {}
        for m in range(j + 1):
            for n in range(-m, m + 1):
                total = mpmath.mpf(0)
                for k in range(max(0, n - m), min(j + n, j - m) + 1):
                    term = c ** (2 * j + n - m - 2 * k) * s ** (m - n + 2 * k)
                    term /= f[j + n - k] * f[k] * f[m - n + k] * f[j - m - k]
                    total += -term if (m - n + k) % 2 else term
                canonical[m, n] = float(total * mpmath.sqrt(f[j + m] * f[j - m] * f[j + n] * f[j - n]))
    out = np.empty((2 * j + 1, 2 * j + 1))
    for m in range(-j, j + 1):
        for n in range(-j, j + 1):
            a, b, sign = m, n, 1.0
            if abs(b) > abs(a):
                a, b, sign = b, a, (-1.0) ** (m - n)
            if a < 0:
                a, b, sign = -a, -b, sign * (-1.0) ** (m - n)
            out[m + j, n + j] = sign * canonical[a, b]
    return out


def test_small_d_matches_40_digit_sum_at_j48():
    # one full-size eigh was off by 4.3e-15 and 8.0e-15 at these angles, the split by 2.6e-15 and 2.7e-15
    for theta in (1.1, 2.9):
        assert np.max(np.abs(wigner_d_matrix(48, theta) - _small_d_mpmath(48, theta))) <= 7.0e-15


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
    gs = [EulerAngles(0.7, 1.2, 2.1), EulerAngles(3.9, 0.4, 5.5), EulerAngles(6.1, 2.9, 0.2)]
    stacked = EulerAngles(*np.array([g.as_tuple() for g in gs]).T)
    for j in (0, 1, 3):
        mats = [wigner_D_matrix(j, gs[0])] + list(wigner_D_matrix(j, stacked))
        for mat, g in zip(mats, gs[:1] + gs):
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
        rule, grid = haar_rule(max(j, jt)), haar_grid(max(j, jt))

        def stack(k):
            n = np.arange(-k, k + 1)
            d = wigner_d_matrix(k, grid.theta)
            return np.exp(1j * np.outer(grid.phi, n))[:, :, None] * d * np.exp(1j * np.outer(grid.psi, n))[:, None, :]

        ref = np.einsum("k,kmn,kpq->mnpq", grid.weights, stack(j).conj(), stack(jt))
        assert np.max(np.abs(wigner_gram(j, jt, rule) - ref)) < 1e-14


def test_gram_degree_guard():
    with pytest.raises(DomainError):
        wigner_gram(3, 1, haar_rule(2))


def test_check_dimension():
    vec = check_dimension(1, [1.0, 2.0, 3.0])
    assert vec.dtype == complex
    with pytest.raises(DimensionError):
        check_dimension(2, np.ones(3))
