import cmath
import math
import tracemalloc
import warnings

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
    fourier_basis,
    phi_rows,
    phi_state,
    phi_states,
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
    q_grid,
    q_rule,
    weight_vector,
)
from asymtop import caching, lambda_rep, wavefunctions, wigner


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


def test_complex_angle_refusals_come_before_any_numpy_warning(p321):
    # each of these printed a bare numpy RuntimeWarning from _mobius before
    # refusing "e^(inq) values reach e^nan" (the error::RuntimeWarning filter
    # turns that warning into the failure)
    g, state = EulerAngles(0.5, 1.1, 2.3), phi_state(2, 0, p321)
    with pytest.raises(SingularInput, match=r"^non-finite input: q=\(inf\+0j\)$"):
        psi_grid(complex(math.inf, 0.0), state, g.phi, g.theta, g.psi)
    with pytest.raises(SingularInput, match="^non-finite input: phi$"):
        psi_grid(0.3 + 0.1j, state, np.array([0.5, math.nan]), g.theta, g.psi)
    with pytest.raises(OverflowError, match=r"^\|Im q\| reaches 800, above 340$"):
        psi_eval(ComplexQ(0.0, 800.0), 2, 0, p321, g)
    with pytest.raises(OverflowError, match=r"^\|Im q\| reaches 800, above 340$"):
        psi_grid(np.array([0.3, 800j]), state, g.phi, g.theta, g.psi)
    # |Im q| = LOG_MAX is the last angle the phase map takes: there e^{iq}
    # reaches e^LOG_MAX, j = 2 already refuses its values, and j = 0 is
    # constant
    assert psi_eval(ComplexQ(0.0, 340.0), 0, 0, p321, g) == psi_eval(ComplexQ(0.0, 0.3), 0, 0, p321, g)
    with pytest.raises(OverflowError, match="at j=2"):
        psi_eval(ComplexQ(0.0, 340.0), 2, 0, p321, g)
    for beta in (340.5, -340.5, 1e300):
        with pytest.raises(OverflowError, match="above 340$"):
            kernel_factored(ComplexQ(0.0, beta), ComplexQ(0.2, 0.1), 0, g)


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


@st.composite
def one_point_cases(draw):
    """(j, s, q, qp, g) with j <= 60, theta anywhere in [0, pi] or within
    1e-6 of 0 or of pi, and q in one of three places: |Im q| <= 3; at the
    edge j |Im q| = LOG_MAX, give or take 4 ulps; or within 1e-12 of a pole
    of the phase map, where tan((q+phi)/2) = -+i e^{i theta}."""
    j = draw(st.integers(0, 60))
    s = draw(st.integers(-j, j))
    angle, near = st.floats(0.0, 2.0 * math.pi), st.floats(-1e-6, 1e-6)
    theta = draw(st.one_of(st.floats(0.0, math.pi), near, near.map(lambda d: math.pi + d)))
    alpha, phi, psi = draw(angle), draw(angle), draw(angle)
    place = draw(st.sampled_from(("strip", "edge", "pole")))
    if place == "strip":
        beta = draw(st.floats(-3.0, 3.0))
    elif place == "edge":
        sign, ulps = draw(st.sampled_from([-1.0, 1.0])), draw(st.integers(-4, 4))
        beta = sign * lambda_rep.LOG_MAX / max(j, 1) * (1.0 + ulps * 2.0**-52)
    else:
        try:
            x = cmath.atan(draw(st.sampled_from([1j, -1j])) * cmath.exp(1j * theta))
        except ValueError:  # tan x = +-i: the point is at infinity
            reject()
        offset = st.floats(-1e-12, 1e-12)
        beta, phi = 2.0 * x.imag + draw(offset), 2.0 * x.real - alpha + draw(offset)
    qp = ComplexQ(draw(angle), draw(st.floats(-3.0, 3.0)))
    return j, s, ComplexQ(alpha, beta), qp, EulerAngles(phi, theta, psi)


def _outcome(evaluate, *args):
    """The bytes of evaluate(*args) as a complex array, or the type and
    message of what it raises."""
    try:
        return np.asarray(evaluate(*args), dtype=complex).tobytes()
    except Exception as exc:  # a RuntimeWarning too, where warnings are errors
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(one_point_cases())
def test_one_point_calls_are_their_array_forms_on_drawn_points(case):
    # test_array_entry_points_are_their_one_point_calls at the edges: each
    # one-point call returns the bytes of its array form on one-point arrays,
    # or both raise the same type; the message is the array form's at the
    # point given as scalars (the arrays print themselves in a PoleError)
    j, s, q, qp, g = case
    p = TopParams(3.0, 2.0, 1.0)
    coeffs = phi_state(j, s, p).coeffs

    def mobius(qv, phi, theta, psi):
        return np.stack(phase_map(qv, phi, theta, psi), axis=-1)

    def psi(qv, phi, theta, psi):
        return psi_from_phase(coeffs, *phase_map(qv, phi, theta, psi))

    def via_kernel(qv, phi, theta, psi):
        return psi_via_kernel_values(qv, coeffs, phi, theta, psi)

    def factored(qv, phi, theta, psi):
        return kernel_factored_from_phase(qp.value, j, *phase_map(qv, phi, theta, psi))

    def values(qv, *angles):
        return state_values(qv, coeffs)

    cases = {
        "mobius_phase": (mobius, lambda: mobius_phase(q, g)),
        "psi_eval": (psi, lambda: psi_eval(q, j, s, p, g)),
        "psi_via_kernel": (via_kernel, lambda: psi_via_kernel(q, j, s, p, g)),
        "kernel_factored": (factored, lambda: kernel_factored(q, qp, j, g)),
        "evaluate_state": (values, lambda: evaluate_state(FourierState(j, coeffs), q)),
    }
    point = (q.value, *g.as_tuple())
    for name, (array_form, one_point) in cases.items():
        alone = _outcome(one_point)
        together = _outcome(array_form, *(np.array([x]) for x in point))
        if isinstance(alone, bytes) and isinstance(together, bytes):
            assert together == alone, name
        else:
            assert type(together) is tuple and together[0] is alone[0], (name, together, alone)
            assert _outcome(array_form, *point) == alone, name


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


def test_t_matrix_refuses_negative_j():
    with pytest.raises(DomainError, match="^j must be >= 0$"):
        t_matrix(-1, IDENTITY)


def test_kernel_route_refuses_where_the_weights_leave_the_normal_range(monkeypatch):
    # from j = 514 the smallest B_nj is subnormal: f = sqrt(B_nj) (-i)^n
    # would lose bits there, and from j = 560 1/f would overflow to NaN
    # behind a bare numpy RuntimeWarning; the refusal comes first, in
    # closed form
    g = EulerAngles(0.5, 1.1, 2.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = t_matrix(513, g)
        assert np.isfinite(t).all()
        root_b = np.sqrt(weight_vector(513))
        assert np.isfinite(psi_via_kernel_values(0.3 + 0.1j, root_b, g.phi, g.theta, g.psi))
        for j in (514, 560):
            with pytest.raises(DomainError, match=f"^t\\(g\\) at j={j} needs B_nj down to"):
                t_matrix(j, g)
            with pytest.raises(DomainError, match=f"^t\\(g\\) at j={j} needs B_nj down to"):
                psi_via_kernel_values(0.3 + 0.1j, np.ones(2 * j + 1), g.phi, g.theta, g.psi)

        def no_weights(j):
            raise AssertionError(f"weight_vector({j}) was called")

        monkeypatch.setattr(wavefunctions, "weight_vector", no_weights)
        with pytest.raises(DomainError, match="^t\\(g\\) at j=100000000 needs"):
            t_matrix(100_000_000, g)


def test_states_and_t_refuse_past_one_bound_for_normal_weights(p321):
    # NORMAL_WEIGHT_JMAX is the largest j whose smallest B_nj is normal;
    # the states and t(g) both refuse the next j, each with its own message
    bound, g = lambda_rep.NORMAL_WEIGHT_JMAX, EulerAngles(0.5, 1.1, 2.3)
    assert lambda_rep.smallest_weight(bound) >= np.finfo(float).tiny > lambda_rep.smallest_weight(bound + 1)
    j = bound + 1
    states = f"^states at j={j} need B_nj down to 1.397e-308, below the normal float range$"
    with pytest.raises(DomainError, match=states):
        phi_state(j, 0, p321)
    with pytest.raises(DomainError, match=f"^t\\(g\\) at j={j} needs B_nj down to 1.397e-308, "):
        t_matrix(j, g)
    # psi_via_kernel reads the state first
    with pytest.raises(DomainError, match=states):
        psi_via_kernel(ComplexQ(0.3, 0.1), j, 0, p321, g)


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
    nodes, log_weights = q_grid(j, q_rule(j).beta_max)
    weights = np.exp(log_weights)
    n = np.arange(-j, j + 1)
    left = np.exp(-1j * np.outer(np.conj(nodes), n))
    right = np.exp(1j * np.outer(nodes, n))
    trail = np.conj(nodes)[None, :] - g.psi
    total = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    for start in range(0, len(nodes), block):  # rows of the kernel, a block at a time
        rows = slice(start, start + block)
        lead = g.phi + nodes[rows, None]
        base = (
            (np.cos(lead) * np.cos(trail) + 1.0) * np.cos(g.theta)
            + 1j * (np.cos(lead) + np.cos(trail)) * np.sin(g.theta)
            + np.sin(lead) * np.sin(trail)
        )
        kern = (2 * j + 1) / const_C(j) * base**j
        mid = weights[rows, None] * kern * weights[None, :]
        total += left[rows].T @ mid @ right
    return weight_vector(j)[:, None] * total


def test_t_matrix_quadrature_matches_brute_force_double_sum(rng):
    for j in range(5):
        g = random_g(rng)
        ref = _t_quadrature_brute_force(j, g)
        got = t_matrix_quadrature(j, g)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_t_matrix_quadrature_sums_by_axis(rng, monkeypatch):
    # the node grid is never read
    g = random_g(rng)
    expected = [t_matrix_quadrature(j, g) for j in range(4)]

    def refuse(*args):
        raise AssertionError("node-grid path taken")

    monkeypatch.setattr(lambda_rep, "q_grid", refuse)
    for j, want in enumerate(expected):
        assert np.array_equal(t_matrix_quadrature(j, g), want)
    with pytest.raises(AssertionError):
        lambda_rep.q_grid(1, q_rule(1).beta_max)


def test_t_matrix_quadrature_memoized_gram_is_a_fresh_node_sum(cold_caches, rng, monkeypatch):
    # the axis Gram depends on neither the top nor g, so it is memoized: every
    # t, from a kept, a rebuilt or an unmemoized Gram, has the same bits
    gs = [random_g(rng) for _ in range(2)]
    kept = [t_matrix_quadrature(j, g) for j in range(5) for g in gs]
    assert wavefunctions._t_quadrature_gram(4) is wavefunctions._t_quadrature_gram(4)
    caching.TABLES.clear()
    rebuilt = [t_matrix_quadrature(j, g) for j in range(5) for g in gs]
    monkeypatch.setattr(wavefunctions, "_t_quadrature_gram", wavefunctions._t_quadrature_gram.__wrapped__)
    fresh = [t_matrix_quadrature(j, g) for j in range(5) for g in gs]
    for a, b, c in zip(kept, rebuilt, fresh):
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_t_matrix_quadrature_at_larger_j(rng):
    for j in (3, 4, 5):
        g = random_g(rng)
        a = t_matrix(j, g)
        b = t_matrix_quadrature(j, g)
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_t_matrix_quadrature_allocates_no_node_pair_array(rng):
    j = 2
    g = random_g(rng)
    nodes = len(q_grid(j, q_rule(j).beta_max).nodes)
    t_matrix_quadrature(j, g)
    tracemalloc.start()
    try:
        t_matrix_quadrature(j, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex nodes x nodes array would take nodes**2 * 16 bytes (85 MB)
    assert peak < nodes**2 * 16 / 20


def test_psi_via_kernel_matches_closed_form(rng):
    # at |Im q| <= beta.  The kernel path sums terms of the size of
    # sqrt(B_nj) e^{|n Im q|}, which peaks near e^{j beta^2 / 2}, with an
    # absolute error of about 1e-16 of it, while Psi can be O(1): at
    # |Im q| = 0.5 the two paths part by up to 1e-5 at j = 150 and 1e3 at
    # j = 300 (so does t_matrix(j, g) @ Phi), and at j = 300 psi_eval
    # itself is off by O(1) there against a 60-digit sum
    cases = [(0, 0.5), (1, 0.7), (2, 0.7), (3, 0.7), (8, 0.5), (48, 0.5), (150, 0.1), (300, 0.1)]
    for params in [(3.0, 2.0, 1.0), (100.0, 2.0, 1.0)]:
        p = TopParams(*params)
        for j, beta in cases:
            for s in range(-j, j + 1) if j <= 8 else (-j, -j + 1, -1, 0, 1, j - 1, j):
                for _ in range(3):
                    q, g = random_q(rng, beta), random_g(rng)
                    v1 = psi_eval(q, j, s, p, g)
                    v2 = psi_via_kernel(q, j, s, p, g)
                    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1)), (params, j, s, q, g)


def test_psi_via_kernel_forms_no_square_array(p321, rng, monkeypatch):
    # t(g) Phi is applied through the J_1 eigenbasis blocks, O(j^2) per point
    points = [(j, int(rng.integers(-j, j + 1)), random_q(rng, 0.5), random_g(rng)) for j in (0, 1, 4, 48, 300)]
    expected = [psi_via_kernel(q, j, s, p321, g) for j, s, q, g in points]

    def square(*args):
        raise AssertionError("a (2j+1)^2 array was formed")

    for module, name in [(wavefunctions, "t_matrix"), (wavefunctions, "wigner_D_matrix"), (wigner, "wigner_d_matrix")]:
        monkeypatch.setattr(module, name, square)
    assert [psi_via_kernel(q, j, s, p321, g) for j, s, q, g in points] == expected
    j, s, q, g = points[-1]
    tracemalloc.start()
    try:
        psi_via_kernel(q, j, s, p321, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * j + 1) ** 2 * 16 / 20


@pytest.mark.parametrize("j, beta", [(0, 340.0), (1, 200.0), (2, 60.0), (3, 100.0), (4, 80.0)])
def test_both_psi_routes_share_one_im_q_bound(p321, j, beta):
    # both return wherever |Im q| and j |Im q| stay within LOG_MAX, and agree
    g = EulerAngles(0.5, 1.1, 2.3)
    for s in range(-j, j + 1):
        v1 = psi_eval(ComplexQ(0.4, beta), j, s, p321, g)
        v2 = psi_via_kernel(ComplexQ(0.4, beta), j, s, p321, g)
        assert abs(v1 - v2) <= 1e-13 * abs(v1)
    # and both refuse past it
    for j, beta in [(0, 341.0), (2, 171.0)]:
        for psi in (psi_eval, psi_via_kernel):
            with pytest.raises(OverflowError):
                psi(ComplexQ(0.4, beta), j, 0, p321, g)


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


@pytest.mark.parametrize("params", [(3.0, 2.0, 1.0), (100.0, 2.0, 1.0)])
def test_completeness_sides_is_the_stacked_phi_states(params, rng):
    # the oracle: one FourierState per state, stacked back into one array
    p = TopParams(*params)
    for j in (0, 1, 6, 48):
        qs = [random_q(rng, beta=0.5) for _ in range(4)]
        rows = np.array([u.coeffs for u in phi_states(j, p)])
        assert phi_rows(j, p).tobytes() == rows.tobytes()
        basis = fourier_basis(j, np.array([q.value for q in qs]))
        values = (rows @ basis[..., None])[..., 0]
        sums = np.array([np.vdot(v, v).real / (2 * j + 1) for v in values])
        deltas = np.array([delta_j(q, q, j) for q in qs])
        got_sums, got_deltas = completeness_sides(j, p, qs)
        assert got_sums.tobytes() == sums.tobytes()
        assert got_deltas.tobytes() == deltas.tobytes()


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
    if "psi_eval" in values:
        assert values["psi_grid"] == values["psi_eval"]


def test_psi_grid_is_psi_eval_at_every_point(p321):
    # one evaluator: wherever psi_eval returns, the grid holds its value bit
    # for bit; at an exact pole psi_eval refuses and the grid nudges
    phi, theta, psi = np.meshgrid(
        np.linspace(0.0, 2 * math.pi, 5), np.linspace(0.0, math.pi, 5), np.linspace(0.0, 2 * math.pi, 4), indexing="ij"
    )
    pole_q, pole_g = ComplexQ(math.pi / 2, 0.0), EulerAngles(0.0, math.pi / 2, 0.0)
    for j in range(21):
        s = j // 2 - j // 3
        for q in (ComplexQ(0.7, 0.3), ComplexQ(2.1, -0.4)):
            grid = psi_grid(q.value, phi_state(j, s, p321), phi, theta, psi)
            assert grid.shape == phi.shape
            for at in np.ndindex(phi.shape):
                assert grid[at] == psi_eval(q, j, s, p321, EulerAngles(phi[at], theta[at], psi[at])), (j, at)
        with pytest.raises(PoleError):
            psi_eval(pole_q, j, s, p321, pole_g)
        at_pole = psi_grid(pole_q.value, phi_state(j, s, p321), *pole_g.as_tuple())
        assert cmath.isfinite(complex(at_pole))


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


def _kernel_base_rank3(qv, qpv, phi, theta, psi):
    """The kernel base as the rank-3 bilinear form u(q)^T M(theta) v(q'),
    u = (1, cos L, sin L), v = (1, cos L', sin L'), L = phi + q and
    L' = conj(q') - psi: x = u M and y = v stacked on a last axis and
    summed."""
    lead, trail = phi + qv, np.conjugate(qpv) - psi
    cos_th, sin_th, cos_lead = np.cos(theta), np.sin(theta), np.cos(lead)
    x = (cos_th + 1j * sin_th * cos_lead, 1j * sin_th + cos_th * cos_lead, np.sin(lead))
    y = (np.ones_like(trail), np.cos(trail), np.sin(trail))
    return np.sum(np.stack(np.broadcast_arrays(*x), axis=-1) * np.stack(y, axis=-1), axis=-1)


def test_closed_form_powers_keep_their_bits_in_range(rng):
    # the range rule only reads log magnitudes: in range, the values are the
    # direct powers, bit for bit, of the rank-3 form of the kernel's base
    q, qp, g = ComplexQ(0.7, 0.3), ComplexQ(2.1, -0.4), EulerAngles(0.4, 1.1, 2.5)
    n = 500
    qv = rng.uniform(0, 2 * math.pi, n) + 1j * rng.uniform(-2, 2, n)
    qpv = rng.uniform(0, 2 * math.pi, n) + 1j * rng.uniform(-2, 2, n)
    phi, theta, psi = rng.uniform(0, 2 * math.pi, n), rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)
    for j in (0, 1, 5, 30):
        pref = (2 * j + 1) / const_C(j)
        assert delta_j(q, qp, j) == pref * (1.0 + np.cos(q.value - qp.value.conjugate())) ** j
        base = _kernel_base_rank3(q.value, qp.value, g.phi, g.theta, g.psi)
        assert kernel_eval(q, qp, j, g) == complex(pref * base ** j)
        values = kernel_values(qv, qpv, j, phi, theta, psi)
        assert np.array_equal(values, pref * np.power(_kernel_base_rank3(qv, qpv, phi, theta, psi), j))
        # one rotation against many angle pairs broadcasts as the points do
        values = kernel_values(qv[:, None], qpv[None, :20], j, g.phi, g.theta, g.psi)
        base = _kernel_base_rank3(qv[:, None], qpv[None, :20], g.phi, g.theta, g.psi)
        assert values.shape == (n, 20) and np.array_equal(values, pref * np.power(base, j))
