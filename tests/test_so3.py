import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtop import (
    IDENTITY,
    DomainError,
    EulerAngles,
    casimir_apply,
    compose,
    euler_to_matrix,
    field_stencil,
    haar_rule,
    inverse,
    invariant_field_apply,
    matrix_to_euler,
    wigner_D,
    wigner_small_d,
)
from asymtop.so3 import THETA_MARGIN, gauss_legendre, rot_x, rot_z
from asymtop.wigner import wigner_d_matrix


def random_angles(rng, margin=0.3):
    return EulerAngles(
        rng.uniform(0, 2 * math.pi),
        rng.uniform(margin, math.pi - margin),
        rng.uniform(0, 2 * math.pi),
    )


def test_rotation_matrices_orthogonal(rng):
    for t in rng.uniform(-10, 10, size=5):
        for r in (rot_z(t), rot_x(t)):
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
            assert abs(np.linalg.det(r) - 1.0) < 1e-14


def test_euler_round_trip(rng):
    for _ in range(20):
        g = random_angles(rng, margin=1e-4)
        g2 = matrix_to_euler(euler_to_matrix(g))
        np.testing.assert_allclose(
            euler_to_matrix(g2), euler_to_matrix(g), atol=1e-12
        )


def test_normalized_preserves_rotation(rng):
    for _ in range(10):
        g = EulerAngles(
            rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)
        )
        gn = g.normalized()
        assert 0 <= gn.phi < 2 * math.pi
        assert 0 <= gn.theta <= math.pi
        assert 0 <= gn.psi < 2 * math.pi
        np.testing.assert_allclose(
            euler_to_matrix(gn), euler_to_matrix(g), atol=1e-12
        )


def test_compose_matches_matrix_product(rng):
    for _ in range(10):
        g1, g2 = random_angles(rng), random_angles(rng)
        np.testing.assert_allclose(
            euler_to_matrix(compose(g1, g2)),
            euler_to_matrix(g1) @ euler_to_matrix(g2),
            atol=1e-12,
        )


def test_inverse(rng):
    for _ in range(10):
        g = random_angles(rng)
        np.testing.assert_allclose(
            euler_to_matrix(compose(g, inverse(g))), np.eye(3), atol=1e-12
        )
    assert inverse(IDENTITY) == IDENTITY


def test_gimbal_lock_convention():
    g = compose(EulerAngles(0.3, 0.0, 0.0), EulerAngles(0.4, 0.0, 0.0))
    assert g.psi == 0.0
    assert abs(g.phi - 0.7) < 1e-12
    assert g.theta == 0.0


def test_matrix_to_euler_rejects_bad_shape():
    with pytest.raises(DomainError):
        matrix_to_euler(np.eye(4))


def test_field_theta_guard():
    f = lambda g: 1.0
    with pytest.raises(DomainError):
        invariant_field_apply("xi", 1, f, EulerAngles(0.1, 1e-5, 0.2))
    with pytest.raises(DomainError):
        casimir_apply(f, EulerAngles(0.1, math.pi - 1e-5, 0.2))


def test_field_stencil_on_arrays_equals_the_scalar_field(rng):
    # the stencil applied to D^3_{2,-1} evaluated as arrays at all the
    # points at once gives invariant_field_apply on the scalar callable
    j, m, n = 3, 2, -1
    f = lambda g: wigner_D(j, m, n, g)
    centres = [random_angles(rng) for _ in range(4)]
    phi, theta, psi = (np.array(x) for x in zip(*(g.as_tuple() for g in centres)))
    for side in ("xi", "eta"):
        for a in (1, 2, 3):
            (pphi, ptheta, ppsi), weights = field_stencil(side, a, phi, theta, psi, 1e-5)
            vals = np.exp(1j * (m * pphi + n * ppsi)) * wigner_small_d(j, m, n, ptheta)
            applied = np.sum(weights * vals, axis=-1)
            ref = [invariant_field_apply(side, a, f, g, h=1e-5) for g in centres]
            assert np.max(np.abs(applied - ref)) < 1e-14


def test_field_stencil_guards_every_centre():
    theta = np.array([1.0, 0.5 * THETA_MARGIN, 2.0])
    with pytest.raises(DomainError, match="theta"):
        field_stencil("xi", 1, 0.3, theta, 0.2)
    with pytest.raises(DomainError, match="theta"):
        field_stencil("eta", 3, 0.3, math.pi - theta, 0.2)


def test_unknown_field_rejected():
    with pytest.raises(DomainError):
        invariant_field_apply("xi", 4, lambda g: 1.0, EulerAngles(0.1, 1.0, 0.2))


@pytest.mark.parametrize("side", ["xi", "eta"])
def test_field_commutators(side, rng):
    # [X_1, X_2] = X_3 and cyclic, via nested central differences
    f = lambda g: wigner_D(2, 1, -1, g)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        g = random_angles(rng, margin=0.6)
        inner_b = lambda gg: invariant_field_apply(side, b, f, gg)
        inner_a = lambda gg: invariant_field_apply(side, a, f, gg)
        comm = invariant_field_apply(side, a, inner_b, g) - invariant_field_apply(
            side, b, inner_a, g
        )
        assert abs(comm - invariant_field_apply(side, c, f, g)) < 1e-5


def test_left_and_right_fields_commute(rng):
    f = lambda g: wigner_D(1, 1, 0, g)
    g = random_angles(rng, margin=0.6)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            inner_eta = lambda gg: invariant_field_apply("eta", b, f, gg)
            inner_xi = lambda gg: invariant_field_apply("xi", a, f, gg)
            comm = invariant_field_apply("xi", a, inner_eta, g) - invariant_field_apply(
                "eta", b, inner_xi, g
            )
            assert abs(comm) < 1e-5


@pytest.mark.parametrize("j,m,n", [(0, 0, 0), (1, 0, 0), (1, 1, -1), (2, 2, 1), (3, -2, 0)])
def test_casimir_eigenvalue_on_wigner_functions(j, m, n, rng):
    f = lambda g: wigner_D(j, m, n, g)
    for _ in range(3):
        g = random_angles(rng, margin=0.5)
        val = casimir_apply(f, g)
        ref = j * (j + 1) * f(g)
        assert abs(val - ref) < 1e-4 * max(1.0, abs(ref))


def test_casimir_matches_nested_fields(rng):
    # L^2 = -sum_a xi_a^2 as a differential operator
    f = lambda g: wigner_D(2, 1, 0, g)
    g = random_angles(rng, margin=0.6)
    total = 0.0
    for a in (1, 2, 3):
        inner = lambda gg, a=a: invariant_field_apply("xi", a, f, gg, h=1e-4)
        total -= invariant_field_apply("xi", a, inner, g, h=1e-4)
    assert abs(total - casimir_apply(f, g, h=1e-4)) < 1e-4


def test_haar_rule_normalized():
    for degree in (0, 1, 3):
        rule = haar_rule(degree)
        assert abs(np.sum(rule.weights) - 1.0) < 1e-14


def test_haar_rule_kills_nontrivial_modes():
    rule = haar_rule(2)
    nodes = [EulerAngles(*g) for g in zip(rule.phi, rule.theta, rule.psi)]
    for j, m, n in ((1, 0, 0), (2, 1, -1), (1, 1, 1)):
        vals = np.array([wigner_D(j, m, n, g) for g in nodes])
        assert abs(np.sum(rule.weights * vals)) < 1e-14


def test_haar_rule_flat_grid_is_the_meshgrid_of_its_axes():
    for degree in (0, 1, 4, 7):
        rule = haar_rule(degree)
        n_az = 2 * degree + 1
        az = 2.0 * math.pi * np.arange(n_az) / n_az
        x, wx = gauss_legendre(degree + 1)
        phi, theta, psi = np.meshgrid(az, np.arccos(x), az, indexing="ij")
        w = np.ascontiguousarray(np.broadcast_to(wx[None, :, None] / (2.0 * n_az * n_az), phi.shape).ravel())
        for got, want in zip((rule.phi, rule.theta, rule.psi, rule.weights), (phi.ravel(), theta.ravel(), psi.ravel(), w)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert rule.phi is rule.phi  # built once
        with pytest.raises(AttributeError):
            rule.phi = az
        for j in range(degree + 1):
            table = rule.polar_d(j)
            assert table.tobytes() == wigner_d_matrix(j, rule.polar_nodes).tobytes()
            assert not table.flags.writeable
            assert rule.polar_d(j) is table  # built once per rule and j


def test_haar_rule_is_cached_and_read_only(cold_caches):
    rule = haar_rule(3)
    assert haar_rule(3) is rule
    for arr in (rule.azimuths, rule.polar_nodes, rule.polar_weights, rule.phi, rule.weights, rule.polar_d(2)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert rule.nbytes == sum(
        a.nbytes for a in (rule.azimuths, rule.polar_nodes, rule.polar_weights, rule.phi, rule.theta, rule.psi, rule.weights, rule.polar_d(2))
    )
    haar_rule.cache_clear()
    assert haar_rule(3) is not rule


def test_haar_rule_size_guard():
    with pytest.raises(DomainError):
        haar_rule(-1)


EPS = np.finfo(float).eps


def _newton_reference(n, x0):
    """Gauss-Legendre node and weight at 40 digits: one Newton step from the
    node x0 >= 0 by the three-term recurrence (its error is about
    n^2 (x0 - x)^2, far below eps for any x0 within 1e-10 of the root), the
    weight 2 / ((1 - x^2) P_n'(x)^2) with P_n' carried to the new point by
    the Legendre equation."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        p_prev, p = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1)
        step = -p / dp
        dp += step * (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
        x += step
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [*range(1, 41), 224, 256, 288, 384, 544, 1504])
def test_gauss_legendre_matches_40_digit_newton(n):
    # every node up to n = 24, else 20 spread over [-1, 1] and three at each end
    picks = range(n) if n <= 24 else sorted({*np.linspace(0, n - 1, 20).round().astype(int), 1, 2, n - 3, n - 2})
    x, w = gauss_legendre(n)
    for i in picks:
        # P_n(-x) = (-1)^n P_n(x): the reference at |x| serves both signs
        ref_x, ref_w = _newton_reference(n, abs(x[i]))
        assert abs(float(ref_x) - abs(x[i])) <= 4 * EPS
        assert abs(float(mpmath.mpf(w[i]) / ref_w - 1)) <= 1e-12


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(1, 1600))
def test_gauss_legendre_is_symmetric_and_agrees_with_leggauss_nodes(n):
    # leggauss's weights are not compared: near +-1 they are off by up to 4e-8
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert (x == -x[::-1]).all() and (w == w[::-1]).all()
    assert (np.diff(x) > 0).all() and (w > 0).all()
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 4 * EPS


def test_gauss_legendre_is_read_only_and_small():
    x, w = gauss_legendre(3)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(DomainError):
        gauss_legendre(0)
    # the series is summed without a (nodes x frequencies) table
    tracemalloc.start()
    try:
        gauss_legendre(1504)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
