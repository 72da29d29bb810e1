import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from asymtop import (
    IDENTITY,
    ComplexQ,
    DomainError,
    EulerAngles,
    FourierState,
    PoleError,
    SingularInput,
    TopParams,
    completeness_defect,
    completeness_sides,
    delta_j,
    evaluate_state,
    gram_matrix,
    haar_rule,
    kernel_conj_defect,
    kernel_eval,
    kernel_factored,
    kernel_factored_from_phase,
    kernel_gram,
    kernel_values,
    mobius_phase,
    phase_map,
    psi_from_phase,
    psi_via_kernel_values,
    state_values,
    pde_residual,
    phi_state,
    psi_eval,
    psi_grid,
    psi_via_kernel,
    so3_norm,
    spectrum,
    state_jms,
    t_matrix,
    t_matrix_quadrature,
    uncertainty,
    h_matrix_wigner,
    compose,
    const_C,
    q_rule,
    weight_vector,
)
from asymtop import wavefunctions
from asymtop.lambda_rep import QRule
from asymtop.wavefunctions import _kernel_factors


def random_g(rng):
    return EulerAngles(
        phi=rng.uniform(0, 2 * math.pi),
        theta=rng.uniform(0.4, math.pi - 0.4),
        psi=rng.uniform(0, 2 * math.pi),
    )


def random_q(rng, beta=0.7):
    return ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-beta, beta))


def test_mobius_phase_basics(rng):
    # identity rotation: w = e^{iq}, base = 1
    for _ in range(5):
        q = random_q(rng)
        base, w = mobius_phase(q, IDENTITY)
        assert abs(w - cmath.exp(1j * q.value)) < 1e-12
        assert abs(base - 1.0) < 1e-12
    # rotations about the third axis shift the angle: w = e^{i(q+phi+psi)}
    for _ in range(5):
        q = random_q(rng)
        g = EulerAngles(rng.uniform(0, 2 * math.pi), 0.0, rng.uniform(0, 2 * math.pi))
        base, w = mobius_phase(q, g)
        assert abs(w - cmath.exp(1j * (q.value + g.phi + g.psi))) < 1e-12
        assert abs(base - 1.0) < 1e-12


def test_mobius_phase_guards():
    with pytest.raises(PoleError):
        mobius_phase(ComplexQ(math.pi / 2, 0.0), EulerAngles(0.0, math.pi / 2, 0.0))
    with pytest.raises(SingularInput):
        mobius_phase(ComplexQ(math.nan, 0.0), IDENTITY)
    with pytest.raises(SingularInput):
        mobius_phase(ComplexQ(0.0, 0.0), EulerAngles(0.0, math.inf, 0.0))
    # the array map refuses when any one point is refused
    qv, phi, theta = np.array([0.3 + 0.1j, math.pi / 2]), np.array([0.4, 0.0]), np.array([1.1, math.pi / 2])
    with pytest.raises(PoleError):
        phase_map(qv, phi, theta, 2.5)
    with pytest.raises(SingularInput):
        phase_map(qv, phi, np.array([1.1, math.inf]), 2.5)
    with pytest.raises(SingularInput):
        phase_map(qv, phi, theta, np.array([2.5, math.nan]))


def test_array_entry_points_are_their_one_point_calls(p321, rng):
    # each point of an array call equals its one-point call, bit for bit
    for j in (0, 1, 4, 9):
        qs, qps = [random_q(rng, beta=3.0) for _ in range(5)], [random_q(rng, beta=3.0) for _ in range(5)]
        gs = [random_g(rng) for _ in range(5)]
        ss = [int(s) for s in rng.integers(-j, j + 1, size=5)]
        qv, qpv = np.array([q.value for q in qs]), np.array([q.value for q in qps])
        at = EulerAngles(*np.array([g.as_tuple() for g in gs]).T)
        states = np.array([phi_state(j, s, p321).coeffs for s in ss])
        base, w = phase_map(qv, at.phi, at.theta, at.psi)
        cases = {
            "mobius_phase": (np.stack([base, w], axis=-1), [mobius_phase(q, g) for q, g in zip(qs, gs)]),
            "psi_eval": (psi_from_phase(states, base, w), [psi_eval(q, j, s, p321, g) for q, s, g in zip(qs, ss, gs)]),
            "psi_via_kernel": (
                psi_via_kernel_values(qv, states, at.phi, at.theta, at.psi),
                [psi_via_kernel(q, j, s, p321, g) for q, s, g in zip(qs, ss, gs)],
            ),
            "kernel_eval": (kernel_values(qv, qpv, j, at.phi, at.theta, at.psi), [kernel_eval(q, qp, j, g) for q, qp, g in zip(qs, qps, gs)]),
            "kernel_factored": (
                kernel_factored_from_phase(qpv, j, base, w),
                [kernel_factored(q, qp, j, g) for q, qp, g in zip(qs, qps, gs)],
            ),
            "evaluate_state": (state_values(qv, states), [evaluate_state(FourierState(j, c), q) for c, q in zip(states, qs)]),
            "completeness_sides": (
                np.stack(completeness_sides(j, p321, qs), axis=-1),
                [np.concatenate(completeness_sides(j, p321, [q])) for q in qs],
            ),
        }
        for name, (together, alone) in cases.items():
            assert np.asarray(together).tobytes() == np.array(alone).astype(np.asarray(together).dtype).tobytes(), (name, j)


def test_j1_closed_forms(p321, rng):
    # s = -1, 0, +1 match the three closed forms with E = B+C, A+C, A+B
    for _ in range(20):
        q = random_q(rng)
        g = random_g(rng)
        Q = q.value + g.phi
        ct, st = math.cos(g.theta), math.sin(g.theta)
        cp, sp = math.cos(g.psi), math.sin(g.psi)
        r3 = math.sqrt(3.0)
        want = {
            1: r3 * (ct + 1j * cmath.cos(Q) * st),
            0: r3 * ((ct * cmath.cos(Q) + 1j * st) * cp - cmath.sin(Q) * sp),
            -1: r3 * (cp * cmath.sin(Q) + (ct * cmath.cos(Q) + 1j * st) * sp),
        }
        for s, ref in want.items():
            got = psi_eval(q, 1, s, p321, g)
            assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))


def test_kernel_at_identity_is_delta(rng):
    for j in (0, 1, 3):
        for _ in range(5):
            q, qp = random_q(rng), random_q(rng)
            val = kernel_eval(q, qp, j, IDENTITY)
            ref = delta_j(q, qp, j)
            assert abs(val - ref) < 1e-11 * max(1.0, abs(ref))


def test_kernel_factored_form(rng):
    for j in (1, 2, 4):
        for _ in range(5):
            q, qp = random_q(rng), random_q(rng)
            g = random_g(rng)
            a = kernel_eval(q, qp, j, g)
            b = kernel_factored(q, qp, j, g)
            assert abs(a - b) < 1e-11 * max(1.0, abs(a))


def test_kernel_conjugation_symmetry(rng):
    for j in (1, 2, 3):
        for _ in range(5):
            q, qp = random_q(rng), random_q(rng)
            d = kernel_conj_defect(q, qp, j, random_g(rng))
            assert d < 1e-10


def test_t_matrix_representation(rng):
    for j in (1, 2, 4):
        assert np.max(np.abs(t_matrix(j, IDENTITY) - np.eye(2 * j + 1))) < 1e-13
        for _ in range(3):
            g1, g2 = random_g(rng), random_g(rng)
            prod = t_matrix(j, g1) @ t_matrix(j, g2)
            assert np.max(np.abs(t_matrix(j, compose(g1, g2)) - prod)) < 1e-10
            # unitary for the weighted inner product: t^H G t = G
            t = t_matrix(j, g1)
            gram = gram_matrix(j)
            defect = np.max(np.abs(t.conj().T @ gram @ t - gram))
            assert defect < 1e-10 * np.max(gram)


def test_t_matrix_quadrature(rng):
    for j in (0, 1, 2):
        g = random_g(rng)
        a = t_matrix(j, g)
        b = t_matrix_quadrature(j, g)
        assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(a)))


def _t_quadrature_brute_force(j, g, block=256):
    """t by the plain double sum over node pairs, the kernel written out."""
    rule = q_rule(j)
    n = np.arange(-j, j + 1)
    left = np.exp(-1j * np.outer(np.conj(rule.nodes), n))
    right = np.exp(1j * np.outer(rule.nodes, n))
    trail = np.conj(rule.nodes)[None, :] - g.psi
    total = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    for start in range(0, len(rule.nodes), block):  # rows of the kernel, a block at a time
        rows = slice(start, start + block)
        lead = g.phi + rule.nodes[rows, None]
        base = (
            (np.cos(lead) * np.cos(trail) + 1.0) * np.cos(g.theta)
            + 1j * (np.cos(lead) + np.cos(trail)) * np.sin(g.theta)
            + np.sin(lead) * np.sin(trail)
        )
        kern = (2 * j + 1) / const_C(j) * base**j
        mid = rule.weights[rows, None] * kern * rule.weights[None, :]
        total += left[rows].T @ mid @ right
    return weight_vector(j)[:, None] * total


def test_t_matrix_quadrature_matches_brute_force_double_sum(rng):
    for j in range(5):
        g = random_g(rng)
        ref = _t_quadrature_brute_force(j, g)
        got = t_matrix_quadrature(j, g)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_t_matrix_quadrature_sums_by_axis(rng, monkeypatch):
    # the node grid and the kernel's node factors are never read
    g = random_g(rng)
    expected = [t_matrix_quadrature(j, g) for j in range(4)]

    def refuse(*args):
        raise AssertionError("node-grid path taken")

    monkeypatch.setattr(QRule, "nodes", property(refuse))
    monkeypatch.setattr(wavefunctions, "_kernel_factors", refuse)
    for j, want in enumerate(expected):
        assert np.array_equal(t_matrix_quadrature(j, g), want)
    with pytest.raises(AssertionError):
        q_rule(1).nodes


def test_t_matrix_quadrature_at_larger_j(rng):
    for j in (3, 4, 5):
        g = random_g(rng)
        a = t_matrix(j, g)
        b = t_matrix_quadrature(j, g)
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_t_matrix_quadrature_allocates_no_node_pair_array(rng):
    j = 2
    g = random_g(rng)
    nodes = len(q_rule(j).nodes)
    t_matrix_quadrature(j, g)
    tracemalloc.start()
    try:
        t_matrix_quadrature(j, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex nodes x nodes array would take nodes**2 * 16 bytes (85 MB)
    assert peak < nodes**2 * 16 / 20


def test_psi_via_kernel_matches_closed_form(p321, rng):
    for j in (1, 2, 3):
        for s in range(-j, j + 1):
            q = random_q(rng)
            g = random_g(rng)
            v1 = psi_eval(q, j, s, p321, g)
            v2 = psi_via_kernel(q, j, s, p321, g)
            assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_state_jms_eigenvectors(p321):
    for j in (1, 2, 4):
        h = h_matrix_wigner(j, p321)
        levels = spectrum(j, p321, route="wigner")
        vecs = [state_jms(j, 0, s, p321) for s in range(-j, j + 1)]
        for s, v in zip(range(-j, j + 1), vecs):
            res = np.max(np.abs(h @ v - levels[s + j].E * v))
            assert res < 1e-9 * max(1.0, abs(levels[s + j].E))
        overlap = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.max(np.abs(overlap - np.eye(2 * j + 1))) < 1e-10


def test_state_jms_m_phase(p321):
    j = 2
    for s in range(-j, j + 1):
        for m in range(-j, j):
            a = state_jms(j, m, s, p321)
            b = state_jms(j, m + 1, s, p321)
            assert np.max(np.abs(b + 1j * a)) < 1e-12  # global factor e^{-i pi/2}
    with pytest.raises(DomainError):
        state_jms(2, 3, 0, p321)


def test_pde_residual_is_exact_at_every_s_and_at_the_poles(p321, rng):
    # exact derivatives: both residuals sit at rounding for every level,
    # also where the Euler coordinates are singular
    for j in range(5):
        for s in range(-j, j + 1):
            for theta in (0.0, 1e-9, rng.uniform(0.0, math.pi), math.pi):
                g = EulerAngles(rng.uniform(0, 2 * math.pi), theta, rng.uniform(0, 2 * math.pi))
                assert max(pde_residual(random_q(rng, beta=0.4), j, s, p321, g)) < 1e-13


def test_pde_residual_symmetry_part_holds_for_any_coefficients(p321, rng, monkeypatch):
    # (eta_a + l_a) Psi = 0 holds for every Phi, since Psi = t(g) Phi at q;
    # only the Schroedinger part sees that Phi is not a state
    j = 3
    coeffs = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
    monkeypatch.setattr(wavefunctions, "phi_state", lambda j, s, p: FourierState(j, coeffs))
    schrod, sym = pde_residual(random_q(rng, beta=0.4), j, 0, p321, random_g(rng))
    assert sym < 1e-13 < 1e-3 < schrod


def test_so3_norm_matches_delta(p321, rng):
    for j in (0, 1, 2, 4):
        rule = haar_rule(j)
        for s in (-j, j):
            q = random_q(rng, beta=0.5)
            val = so3_norm(q, j, s, p321, rule)
            ref = delta_j(q, q, j).real
            assert abs(val - ref) < 1e-7 * max(1.0, abs(ref))
    with pytest.raises(DomainError):
        so3_norm(ComplexQ(0.1, 0.0), 3, 0, p321, haar_rule(2))


def test_kernel_gram_orthogonality():
    assert kernel_gram(1, 1, haar_rule(1)) < 1e-8
    assert kernel_gram(2, 2, haar_rule(2)) < 1e-8
    assert kernel_gram(1, 2, haar_rule(2)) < 1e-8  # different j: integral vanishes
    pts = [
        (
            ComplexQ(0.3, 0.2),
            ComplexQ(1.1, -0.4),
            ComplexQ(2.0, 0.1),
            ComplexQ(0.9, 0.3),
        )
    ]
    assert kernel_gram(2, 2, haar_rule(2), points=pts) < 1e-8
    with pytest.raises(DomainError):
        kernel_gram(2, 1, haar_rule(1))


def test_completeness(p321, rng):
    for j in (1, 3, 6):
        q = random_q(rng, beta=0.5)
        assert completeness_defect(j, p321, q) < 1e-8 * max(
            1.0, delta_j(q, q, j).real
        )


def test_uncertainty_bound(rng):
    q = ComplexQ(rng.uniform(0, 2 * math.pi), 0.0)
    assert uncertainty(q, 1) == pytest.approx(4.0, abs=1e-12)
    for j in range(1, 11):
        qc = random_q(rng)
        assert uncertainty(qc, j) > j


@st.composite
def evaluation_points(draw):
    """(j, s, params, q, g) with j <= 60, |Im q| <= 60, theta at or near 0 and
    pi, and, on half the draws, q on a singular point of the phase map."""
    j = draw(st.integers(0, 60))
    s = draw(st.integers(-j, j))
    params = draw(st.sampled_from([(3.0, 2.0, 1.0), (5.3, 2.1, 0.4)]))
    angle = st.floats(0.0, 2.0 * math.pi)
    theta = draw(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, 1e-9, math.pi - 1e-9, math.pi])))
    alpha, beta, phi, psi = draw(angle), draw(st.floats(-60.0, 60.0)), draw(angle), draw(angle)
    if draw(st.booleans()):
        # num or den of the map vanishes where tan((q+phi)/2) = -+i e^{i theta}
        try:
            x = cmath.atan(draw(st.sampled_from([1j, -1j])) * cmath.exp(1j * theta))
        except ValueError:  # tan x = +-i: the point is at infinity
            reject()
        beta, phi = 2.0 * x.imag, 2.0 * x.real - alpha
        if abs(beta) > 60.0:
            reject()
    return j, s, TopParams(*params), ComplexQ(alpha, beta), EulerAngles(phi, theta, psi)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(evaluation_points())
def test_every_e_inq_evaluator_is_finite_or_refuses(point):
    j, s, p, q, g = point
    state = phi_state(j, s, p)
    evaluators = {
        "evaluate_state": lambda: evaluate_state(state, q),
        "psi_grid": lambda: complex(psi_grid(q.value, state, g.phi, g.theta, g.psi)),
        "psi_eval": lambda: psi_eval(q, j, s, p, g),
        "psi_via_kernel": lambda: psi_via_kernel(q, j, s, p, g),
        "completeness_defect": lambda: completeness_defect(j, p, q),
        "kernel_factored": lambda: kernel_factored(q, q, j, g),
        "kernel_values": lambda: complex(kernel_values(q.value, q.value, j, g.phi, g.theta, g.psi)),
    }
    values = {}
    for name, evaluate in evaluators.items():
        try:
            values[name] = evaluate()
        except (OverflowError, PoleError, SingularInput, DomainError):
            continue
        assert cmath.isfinite(values[name]), name
    if "psi_eval" in values and "psi_grid" in values:
        a, b = values["psi_eval"], values["psi_grid"]
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_closed_form_powers_refuse_past_log_max():
    # (1 + cosh 120)^10 ~ e^1190: this used to overflow to nan with a bare
    # RuntimeWarning
    with pytest.raises(OverflowError, match="at j=10"):
        uncertainty(ComplexQ(0.0, 60.0), 10)
    with pytest.raises(OverflowError, match="at j=40"):
        kernel_eval(ComplexQ(0.0, 20.0), ComplexQ(0.0, 20.0), 40, EulerAngles(0.0, 0.5, 0.0))
    # cos of the angle itself overflows here; at j = 0 the power is 1
    with pytest.raises(OverflowError):
        delta_j(ComplexQ(0.0, 400.0), ComplexQ(0.0, 400.0), 1)
    assert delta_j(ComplexQ(0.0, 400.0), ComplexQ(0.0, 400.0), 0) == 1.0


def test_closed_form_powers_keep_their_bits_in_range():
    # the range rule only reads log magnitudes: in range, the values are the
    # direct powers, bit for bit
    q, qp, g = ComplexQ(0.7, 0.3), ComplexQ(2.1, -0.4), EulerAngles(0.4, 1.1, 2.5)
    for j in (0, 1, 5, 30):
        pref = (2 * j + 1) / const_C(j)
        assert delta_j(q, qp, j) == pref * (1.0 + np.cos(q.value - qp.value.conjugate())) ** j
        x, y = _kernel_factors(q.value, qp.value, g.phi, g.theta, g.psi)
        assert kernel_eval(q, qp, j, g) == complex(pref * np.sum(x * y, axis=-1) ** j)
