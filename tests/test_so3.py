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
    compose,
    caching,
    euler_to_matrix,
    haar_grid,
    haar_rule,
    inverse,
    matrix_to_euler,
    orbit_derivatives,
    orbits,
    rotation,
    wigner_D,
    wigner_D_matrix,
)
from asymtop.so3 import gauss_legendre
from asymtop.wigner import jx_eigenbasis, polar_d, wigner_d_matrix

# theta from the north pole to the south pole, through the gimbal-lock band
POLAR = [0.0, 1e-300, 1e-15, 1e-12, 1e-9, 1.4e-5, 1e-3, 0.5, math.pi / 2]
POLAR += [math.pi - t for t in (1e-3, 1e-5, 1e-9, 1e-12, 1e-15)] + [math.pi]


def random_angles(rng, margin=0.3):
    return EulerAngles(
        rng.uniform(0, 2 * math.pi),
        rng.uniform(margin, math.pi - margin),
        rng.uniform(0, 2 * math.pi),
    )


def test_rotation_matrices_orthogonal(rng):
    t = rng.uniform(-10, 10, size=5)
    for a in (1, 2, 3):
        r = rotation(a, t)
        assert r.shape == (5, 3, 3)
        np.testing.assert_allclose(r @ r.swapaxes(-1, -2), np.broadcast_to(np.eye(3), r.shape), atol=1e-14)
        assert np.max(np.abs(np.linalg.det(r) - 1.0)) < 1e-14
        # the axis is fixed, and a quarter turn takes the next axis to the one after
        axis, nxt, last = np.eye(3)[a - 1], np.eye(3)[a % 3], np.eye(3)[(a + 1) % 3]
        np.testing.assert_allclose(r @ axis, np.broadcast_to(axis, (5, 3)), atol=1e-15)
        np.testing.assert_allclose(rotation(a, math.pi / 2) @ nxt, last, atol=1e-15)


def test_euler_round_trip(rng):
    for _ in range(20):
        g = random_angles(rng, margin=1e-4)
        g2 = matrix_to_euler(euler_to_matrix(g))
        np.testing.assert_allclose(
            euler_to_matrix(g2), euler_to_matrix(g), atol=1e-12
        )


@pytest.mark.parametrize("theta", POLAR)
def test_euler_round_trip_at_and_near_the_poles(theta, rng):
    # the angle that 1 - |cos theta| loses near a pole is read from the 2x2 block
    for _ in range(20):
        g = EulerAngles(rng.uniform(0, 2 * math.pi), theta, rng.uniform(0, 2 * math.pi))
        mat = euler_to_matrix(g)
        back = matrix_to_euler(mat)
        assert 0.0 <= back.theta <= math.pi and 0.0 <= back.phi < 2 * math.pi and 0.0 <= back.psi < 2 * math.pi
        assert np.max(np.abs(euler_to_matrix(back) - mat)) <= 1e-14
        assert abs(back.theta - theta) <= 1e-14
        g2 = random_angles(rng)
        for left, right in ((g, g2), (g2, g)):
            product = euler_to_matrix(left) @ euler_to_matrix(right)
            assert np.max(np.abs(euler_to_matrix(compose(left, right)) - product)) <= 1e-14


def test_matrix_to_euler_broadcasts_over_stacked_matrices(rng):
    gs = [EulerAngles(rng.uniform(0, 2 * math.pi), theta, rng.uniform(0, 2 * math.pi)) for theta in POLAR]
    mats = np.stack([euler_to_matrix(g) for g in gs]).reshape(3, 5, 3, 3)
    back = matrix_to_euler(mats)
    assert back.phi.shape == back.theta.shape == back.psi.shape == (3, 5)
    np.testing.assert_allclose(euler_to_matrix(back), mats, rtol=0, atol=1e-14)
    one = matrix_to_euler(mats[1, 2])
    assert all(np.ndim(x) == 0 for x in one.as_tuple())


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
    # at the south pole the whole z-rotation, phi - psi, also goes into phi
    flip = np.diag([1.0, -1.0, -1.0])  # g_x(pi) with its sines exactly 0
    south = matrix_to_euler(euler_to_matrix(EulerAngles(1.0, 0.0, 0.0)) @ flip @ euler_to_matrix(EulerAngles(0.25, 0.0, 0.0)))
    assert south.theta == math.pi and south.psi == 0.0
    assert abs(south.phi - 0.75) < 1e-15


def test_matrix_to_euler_rejects_bad_shape():
    with pytest.raises(DomainError):
        matrix_to_euler(np.eye(4))


def test_orbits_are_the_one_parameter_subgroups_through_g(rng):
    g = random_angles(rng)
    t = 2 * math.pi * np.arange(7) / 7
    at = orbits(g, 7)
    assert at.phi.shape == (6, 7)
    mats = euler_to_matrix(at)
    for a in (1, 2, 3):
        np.testing.assert_allclose(mats[a - 1], euler_to_matrix(g) @ rotation(a, t), rtol=0, atol=1e-14)
        np.testing.assert_allclose(mats[a + 2], rotation(a, t) @ euler_to_matrix(g), rtol=0, atol=1e-14)


def test_orbit_derivatives_of_a_trigonometric_polynomial(rng):
    # f(t) = sum_k c_k e^{ikt}, |k| <= 4, at 9 and at 12 samples
    k = np.arange(-4, 5)
    c = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
    for n in (9, 12):
        t = 2 * math.pi * np.arange(n) / n
        d1, d2 = orbit_derivatives(c @ np.exp(1j * np.multiply.outer(k, t)))
        assert np.max(np.abs(d1 - c @ (1j * k))) < 1e-13
        assert np.max(np.abs(d2 - c @ -(k * k))) < 1e-12


def _field_derivatives(j, g):
    """xi_a D^j(g) and xi_a^2 D^j(g) for a = 1, 2, 3, then the same for
    eta_a: the exact derivatives along so3.orbits."""
    values = np.moveaxis(wigner_D_matrix(j, orbits(g, 2 * j + 1)), 1, -1)
    d1, d2 = orbit_derivatives(values)
    return np.concatenate((d1[:3], -d1[3:])), d2


def test_unknown_field_rejected():
    # a field is indexed by the axis of its rotations
    for a in (0, 4):
        with pytest.raises(DomainError):
            rotation(a, 0.1)


def test_fields_match_a_central_difference(rng):
    # xi_a f(g) = d/dt f(g R_a(t)) and eta_a f(g) = -d/dt f(R_a(t) g) at t = 0
    j, h = 3, 1e-5
    g = random_angles(rng)
    first, _ = _field_derivatives(j, g)
    for a in (1, 2, 3):
        ends = [rotation(a, x) for x in (h, -h)]
        fields = {"xi": [euler_to_matrix(g) @ r for r in ends], "eta": [r @ euler_to_matrix(g) for r in ends[::-1]]}
        for got, (plus, minus) in zip((first[a - 1], first[a + 2]), fields.values()):
            diff = (wigner_D_matrix(j, matrix_to_euler(plus)) - wigner_D_matrix(j, matrix_to_euler(minus))) / (2 * h)
            assert np.max(np.abs(got - diff)) < 1e-8


def _generators(j):
    """G_a = xi_a D^j at the identity, a = 1, 2, 3."""
    return _field_derivatives(j, IDENTITY)[0][:3]


@pytest.mark.parametrize("side", ["xi", "eta"])
def test_field_commutators(side, rng):
    # xi_a D(g) = D(g) G_a and eta_a D(g) = -G_a D(g), so [X_a, X_b] = X_c
    # and cyclic on either side follows from [G_a, G_b] = G_c
    for j in (1, 2, 3):
        gens = _generators(j)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(gens[a] @ gens[b] - gens[b] @ gens[a] - gens[c])) < 1e-13
        g = random_angles(rng)
        first, _ = _field_derivatives(j, g)
        d = wigner_D_matrix(j, g)
        for a in range(3):
            if side == "xi":
                assert np.max(np.abs(first[a] - d @ gens[a])) < 1e-13
            else:
                assert np.max(np.abs(first[a + 3] + gens[a] @ d)) < 1e-13


def test_left_and_right_fields_commute(rng):
    # xi_a eta_b D = eta_b xi_a D = -G_b D G_a: applying eta_b to each
    # column of xi_a D, and xi_a to each row of eta_b D, gives the same
    j = 2
    gens = _generators(j)
    g = random_angles(rng, margin=0.6)
    first, _ = _field_derivatives(j, g)
    for a in range(3):
        for b in range(3):
            eta_xi = -gens[b] @ first[a]  # eta_b of xi_a D = D G_a
            xi_eta = first[b + 3] @ gens[a]  # xi_a of eta_b D = -G_b D
            assert np.max(np.abs(xi_eta - eta_xi)) < 1e-13
            assert np.max(np.abs(xi_eta + gens[b] @ wigner_D_matrix(j, g) @ gens[a])) < 1e-13


@pytest.mark.parametrize("j,m,n", [(0, 0, 0), (1, 0, 0), (1, 1, -1), (2, 2, 1), (3, -2, 0)])
def test_casimir_eigenvalue_on_wigner_functions(j, m, n, rng):
    # -sum_a xi_a^2 D^j_{mn} = -sum_a eta_a^2 D^j_{mn} = j(j+1) D^j_{mn},
    # also at the poles, where the coordinate form of L^2 is singular
    poles = [EulerAngles(0.3, t, 1.1) for t in (0.0, 1e-5, math.pi - 1e-5, math.pi)]
    for g in [random_angles(rng) for _ in range(3)] + poles:
        _, second = _field_derivatives(j, g)
        want = j * (j + 1) * wigner_D_matrix(j, g)[m + j, n + j]
        for side in (second[:3], second[3:]):
            assert abs(-side.sum(axis=0)[m + j, n + j] - want) < 1e-12 * max(1, j * (j + 1))


def test_casimir_matches_nested_fields(rng):
    # L^2 = -sum_a xi_a^2 = -sum_a eta_a^2 on a mixture of j = 0..6, each
    # D^j entry taken j(j+1) times
    g = random_angles(rng, margin=0.0)
    left = right = want = 0.0
    for j in range(7):
        _, second = _field_derivatives(j, g)
        c = rng.normal(size=(2 * j + 1, 2 * j + 1))
        left += np.sum(c * -second[:3].sum(axis=0))
        right += np.sum(c * -second[3:].sum(axis=0))
        want += j * (j + 1) * np.sum(c * wigner_D_matrix(j, g))
    assert abs(left - want) < 1e-12 * abs(want) and abs(right - want) < 1e-12 * abs(want)


def test_haar_rule_normalized():
    for degree in (0, 1, 3):
        assert abs(np.sum(haar_grid(degree).weights) - 1.0) < 1e-14


def test_haar_rule_kills_nontrivial_modes():
    grid = haar_grid(2)
    nodes = [EulerAngles(*g) for g in zip(grid.phi, grid.theta, grid.psi)]
    for j, m, n in ((1, 0, 0), (2, 1, -1), (1, 1, 1)):
        vals = np.array([wigner_D(j, m, n, g) for g in nodes])
        assert abs(np.sum(grid.weights * vals)) < 1e-14


def test_haar_rule_flat_grid_is_the_meshgrid_of_its_axes():
    for degree in (0, 1, 4, 7):
        rule = haar_rule(degree)
        n_az = 2 * degree + 1
        az = 2.0 * math.pi * np.arange(n_az) / n_az
        x, wx = gauss_legendre(degree + 1)
        phi, theta, psi = np.meshgrid(az, np.arccos(x), az, indexing="ij")
        w = np.ascontiguousarray(np.broadcast_to(wx[None, :, None] / (2.0 * n_az * n_az), phi.shape).ravel())
        grid = haar_grid(degree)
        for got, want in zip(grid, (phi.ravel(), theta.ravel(), psi.ravel(), w)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert haar_grid(degree) is grid  # built once
        with pytest.raises(AttributeError):
            rule.azimuths = az
        for j in range(degree + 1):
            table = polar_d(degree, j)
            assert table.tobytes() == wigner_d_matrix(j, rule.polar_nodes).tobytes()
            assert not table.flags.writeable
            assert polar_d(degree, j) is table  # built once per rule and j


def test_haar_rule_is_cached_and_read_only(cold_caches):
    rule = haar_rule(3)
    assert haar_rule(3) is rule
    grid, table = haar_grid(3), polar_d(3, 2)
    for arr in (rule.azimuths, rule.polar_nodes, rule.polar_weights, grid.phi, grid.weights, table):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the one cache holds the rule, its grid, the d^2 table and the J_1
    # eigenbasis that table was built from, each counted with its key
    held = {
        (haar_rule, (3,)): rule,
        (haar_grid, (3,)): grid,
        (polar_d, (3, 2)): table,
        (jx_eigenbasis, (2,)): jx_eigenbasis(2),
    }
    keys = [(build.__wrapped__, args) for build, args in held]
    assert set(caching.TABLES._entries) == set(keys)
    assert caching.TABLES.nbytes == sum(caching.footprint((key, value)) for key, value in zip(keys, held.values()))
    assert caching.TABLES.nbytes > sum(a.nbytes for value in held.values() for a in caching.arrays(value))
    caching.TABLES.clear()
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
