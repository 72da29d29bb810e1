import math

import numpy as np
import pytest

from asymtop import (
    IDENTITY,
    DomainError,
    EulerAngles,
    casimir_apply,
    compose,
    euler_to_matrix,
    haar_rule,
    inverse,
    invariant_field_apply,
    matrix_to_euler,
    wigner_D,
)
from asymtop.so3 import rot_x, rot_z


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


def test_haar_rule_size_guard():
    with pytest.raises(DomainError):
        haar_rule(-1)
