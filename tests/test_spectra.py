import itertools
import math
import warnings

import numpy as np
import pytest

from asymtop import (
    ComplexQ,
    DegenerateParamsError,
    DomainError,
    NotTerminatingError,
    PoleError,
    ROUTES,
    RootCountError,
    TopParams,
    angular_momentum_matrices,
    h_matrix_lambda,
    h_matrix_wigner,
    inner_product,
    lame_polynomial,
    lame_residual,
    lame_series_eval,
    lame_spectrum,
    phi_state,
    phi_state_series,
    phi_states,
    require_strict,
    rho_map,
    spectrum,
)
from asymtop import spectra


def random_strict(rng):
    c = rng.uniform(0.5, 2.0)
    b = c + rng.uniform(0.3, 2.0)
    a = b + rng.uniform(0.3, 2.0)
    return TopParams(A=a, B=b, C=c)


def test_params_validation():
    with pytest.raises(DomainError):
        TopParams(A=1.0, B=2.0, C=3.0)
    with pytest.raises(DomainError):
        TopParams(A=3.0, B=2.0, C=0.0)
    with pytest.raises(DomainError):
        TopParams(A=math.nan, B=2.0, C=1.0)
    p = TopParams(A=3.0, B=2.0, C=1.0)
    assert p.u == 1.0 and p.v == 1.0


def test_require_strict_threshold():
    require_strict(TopParams(A=3.0, B=2.0, C=1.0))
    with pytest.raises(DegenerateParamsError):
        require_strict(TopParams(A=3.0, B=2.0, C=2.0))
    with pytest.raises(DegenerateParamsError):
        require_strict(TopParams(A=3.0, B=3.0 - 1e-12, C=1.0))


@pytest.mark.parametrize("j", [1, 2, 5])
def test_angular_momentum_algebra(j):
    j1, j2, j3 = angular_momentum_matrices(j)
    for m in (j1, j2, j3):
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
    for a, b, c in ((j1, j2, j3), (j2, j3, j1), (j3, j1, j2)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
    cas = j1 @ j1 + j2 @ j2 + j3 @ j3
    assert np.max(np.abs(cas - j * (j + 1) * np.eye(2 * j + 1))) < 1e-12
    assert np.allclose(np.diag(j3), np.arange(j, -j - 1, -1))


def test_h_wigner_structure(p321):
    for j in (1, 2, 4):
        h = h_matrix_wigner(j, p321)
        assert np.max(np.abs(h.imag)) == 0.0
        assert np.allclose(h, h.T)
        # only the m, m +- 2 couplings survive
        band = np.triu(np.ones_like(h), 3) + np.triu(np.ones_like(h), 1) - np.triu(
            np.ones_like(h), 2
        )
        assert np.max(np.abs(h * (band + band.T))) == 0.0
        # symmetric under m -> -m
        assert np.allclose(h, h[::-1, ::-1])


def test_h_lambda_same_eigenvalues(p321):
    for j in (0, 1, 3, 6):
        ew = np.sort(np.linalg.eigvalsh(h_matrix_wigner(j, p321)))
        el = np.sort(np.linalg.eigvals(h_matrix_lambda(j, p321)).real)
        assert np.max(np.abs(ew - el)) < 1e-10 * max(1.0, np.max(np.abs(ew)))


def test_trace_rule(rng):
    for _ in range(5):
        p = random_strict(rng)
        j = int(rng.integers(0, 9))
        tr = np.trace(h_matrix_wigner(j, p))
        ref = (p.A + p.B + p.C) * j * (j + 1) * (2 * j + 1) / 3.0
        assert tr == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_spectrum_small_j(rng):
    for _ in range(10):
        p = random_strict(rng)
        for route in ROUTES:
            lv0 = spectrum(0, p, route=route)
            assert len(lv0) == 1 and lv0[0].E == pytest.approx(0.0, abs=1e-12)
            lv1 = spectrum(1, p, route=route)
            ref = sorted([p.B + p.C, p.A + p.C, p.A + p.B])
            got = [lev.E for lev in lv1]
            assert got == sorted(got)
            assert np.allclose(got, ref, atol=1e-10)
            assert [lev.s for lev in lv1] == [-1, 0, 1]


def test_spectrum_j2_reference(p321):
    # A=3, B=2, C=1: closed-form quintet
    ref = [12 - 2 * math.sqrt(3), 9.0, 12.0, 15.0, 12 + 2 * math.sqrt(3)]
    for route in ROUTES:
        got = [lev.E for lev in spectrum(2, p321, route=route)]
        assert np.allclose(got, ref, atol=1e-10)


def test_spectrum_route_guard(p321):
    with pytest.raises(DomainError):
        spectrum(2, p321, route="exact")
    with pytest.raises(DomainError):
        spectrum(-1, p321)


def test_lame_class_sizes(p321):
    for j in range(0, 9):
        levels = lame_spectrum(j, p321)
        assert len(levels) == 2 * j + 1
        counts = {n: 0 for n in (1, 2, 3, 4)}
        for lev in levels:
            counts[lev.lame_class] += 1
        assert counts[1] == j // 2 + 1
        assert counts[2] == (j + 1) // 2
        assert counts[3] == (j + 1) // 2
        assert counts[4] == j // 2


def test_lame_j2_classes(p321):
    levels = lame_spectrum(2, p321)
    assert [lev.lame_class for lev in levels] == [1, 2, 4, 3, 1]


def test_lame_rejects_degenerate():
    with pytest.raises(DegenerateParamsError):
        lame_spectrum(2, TopParams(A=3.0, B=2.0, C=2.0))


@pytest.mark.parametrize("j", [150, 300])
@pytest.mark.parametrize(
    "params", [(3.0, 2.0, 1.0), (100.0, 2.0, 1.0), (1 + 1e-6, 1.0, 0.5), (2.0, 1 + 1e-7, 0.3)]
)
def test_lame_agrees_with_wigner_at_large_j(j, params):
    p = TopParams(*params)
    ref = np.array([lev.E for lev in spectrum(j, p, route="wigner")])
    got = np.array([lev.E for lev in lame_spectrum(j, p)])
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_lame_rejects_unsymmetrizable_recurrence(p321, monkeypatch):
    # a companion with a negative off-diagonal product has no real symmetric
    # similar matrix; the route must refuse it instead of taking its root
    original = spectra.lame_recurrence

    def flipped(N, j, p):
        T = original(N, j, p)
        if T.shape[0] > 1:
            T[1, 0] = -T[1, 0]
        return T

    monkeypatch.setattr(spectra, "lame_recurrence", flipped)
    with pytest.raises(RootCountError, match="off-diagonal product"):
        lame_spectrum(4, p321)


def test_lame_polynomial_terminates_only_at_eigenvalues(p321):
    levels = lame_spectrum(3, p321)
    for lev in levels:
        series = lame_polynomial(lev.lame_class, 3, lev.E, p321)
        assert series.coeffs[0] == 1.0
        with pytest.raises(NotTerminatingError):
            lame_polynomial(lev.lame_class, 3, lev.E + 0.1, p321)
    with pytest.raises(DomainError):
        lame_polynomial(5, 3, levels[0].E, p321)
    with pytest.raises(DomainError):
        lame_polynomial(4, 1, 1.0, p321)  # class empty for j=1


def test_lame_residual_vanishes(rng):
    # the terminating series solves the equation identically in rho
    for _ in range(3):
        p = random_strict(rng)
        for j in (1, 2, 4, 7):
            for lev in lame_spectrum(j, p):
                series = lame_polynomial(lev.lame_class, j, lev.E, p)
                smax = float(np.abs(series.coeffs).max())
                for _ in range(3):
                    rho = rng.uniform(p.C + 0.05, p.A - 0.05)
                    if min(abs(rho - p.A), abs(rho - p.B), abs(rho - p.C)) < 0.02:
                        continue
                    scale = (1 + abs(lev.E)) * (1 + abs(rho)) ** (j + 1) * smax
                    assert abs(lame_residual(series, rho)) < 1e-8 * scale
                rho = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.0)) * p.A
                scale = (1 + abs(lev.E)) * (1 + abs(rho)) ** (j + 1) * smax
                assert abs(lame_residual(series, rho)) < 1e-8 * scale
                assert np.isfinite(abs(lame_series_eval(series, rho)))


def test_rho_map_range(p321):
    assert rho_map(ComplexQ(0.0, 0.0), p321) == pytest.approx(p321.A)
    assert rho_map(ComplexQ(math.pi / 2, 0.0), p321) == pytest.approx(p321.B)
    # sweeps [B, A] on the real line
    for qv in np.linspace(0, math.pi, 17):
        r = rho_map(ComplexQ(float(qv), 0.0), p321)
        assert p321.B - 1e-12 <= r.real <= p321.A + 1e-12
        assert abs(r.imag) < 1e-14


def test_rho_map_pole(p321):
    beta = math.acosh((p321.A + p321.B - 2 * p321.C) / (p321.A - p321.B)) / 2.0
    with pytest.raises(PoleError):
        rho_map(ComplexQ(0.0, beta), p321)


R3 = math.sqrt(3.0)
J1_STATES = {
    -1: np.array([1j * R3 / 2, 0.0, -1j * R3 / 2]),
    0: np.array([R3 / 2, 0.0, R3 / 2]),
    1: np.array([0.0, R3, 0.0]),
}


def test_phi_state_j1_closed_forms(p321):
    for s, ref in J1_STATES.items():
        got = phi_state(1, s, p321).coeffs
        assert np.max(np.abs(got - ref)) < 1e-12


def test_phi_states_orthogonal(rng):
    p = random_strict(rng)
    for j in (1, 2, 3):
        states = [phi_state(j, s, p) for s in range(-j, j + 1)]
        for i, u in enumerate(states):
            for k, v in enumerate(states):
                ref = (2 * j + 1) if i == k else 0.0
                assert abs(inner_product(u, v) - ref) < 1e-9 * (2 * j + 1)
    for j in range(11):
        states = phi_states(j, p)
        for s in range(-j, j + 1):
            assert np.array_equal(states[s + j].coeffs, phi_state(j, s, p).coeffs)


def test_phi_series_matches_diagonalization(rng):
    for p in (TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4), random_strict(rng)):
        for j in range(0, 6):
            for s in range(-j, j + 1):
                a = phi_state(j, s, p).coeffs
                b = phi_state_series(j, s, p).coeffs
                assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("j", [16, 20])
@pytest.mark.parametrize("params", [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4)])
def test_phi_series_matches_diagonalization_at_larger_j(params, j):
    # inside an exact doublet the s order is a convention: match by energy
    p = TopParams(*params)
    E = np.array([lev.E for lev in spectrum(j, p, route="lambda")])
    states = [phi_state(j, s, p).coeffs for s in range(-j, j + 1)]
    for s in range(-j, j + 1):
        b = phi_state_series(j, s, p).coeffs
        near = np.flatnonzero(np.abs(E - E[s + j]) <= 1e-12 * abs(E[s + j]))
        assert min(np.max(np.abs(states[k] - b)) for k in near) < 1e-8


def class_impurity(coeffs: np.ndarray, j: int) -> float:
    """Distance from one D2 class, relative to max|c|: the coefficients
    should vanish on one parity of n and satisfy c_{-n} = +-c_n."""
    n = np.arange(-j, j + 1)
    mixed_parity = min(np.abs(coeffs[n % 2 == k]).max(initial=0.0) for k in (0, 1))
    mixed_sign = min(np.abs(coeffs - sign * coeffs[::-1]).max() for sign in (1, -1))
    return max(mixed_parity, mixed_sign) / np.abs(coeffs).max()


def test_states_are_class_pure():
    # near-degenerate doublets always lie in different classes, so a dense
    # diagonalization would return arbitrary mixtures of the two
    for params in ((3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0)):
        p = TopParams(*params)
        for j in (20, 40, 80):
            for s in range(-j, j + 1):
                assert class_impurity(phi_state(j, s, p).coeffs, j) < 1e-12
    p = TopParams(A=3.0, B=2.0, C=2.0 - 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, ref in J1_STATES.items():
            assert np.max(np.abs(phi_state(1, s, p).coeffs - ref)) < 1e-12


def wang_class(coeffs: np.ndarray, j: int) -> tuple[int, int]:
    """(parity of n, sign of c_{-n}/c_n) of a class-pure state."""
    n = np.arange(-j, j + 1)
    parity = int(np.abs(coeffs[n % 2 == 1]).sum() > np.abs(coeffs[n % 2 == 0]).sum())
    sign = 1 if np.abs(coeffs - coeffs[::-1]).sum() < np.abs(coeffs + coeffs[::-1]).sum() else -1
    return parity, sign


@pytest.mark.parametrize(
    "params, j", [((5.3, 2.1, 0.4), 17), ((3.0, 2.0, 1.0), 40), ((1 + 1e-6, 1.0, 0.5), 13)]
)
def test_doublet_labels_survive_one_ulp_of_eigenvalue_rounding(params, j, monkeypatch):
    # the levels of a doublet can be equal to the last bit; which class gets
    # the lower s must not follow eigh's rounding.  Each Wang block's
    # eigenvalues move one ulp up or down, in every combination.
    p = TopParams(*params)
    ref = [wang_class(st.coeffs, j) for st in phi_states(j, p)]
    original = np.linalg.eigh
    for directions in itertools.product((np.inf, -np.inf), repeat=4):
        blocks = iter(directions)

        def nudged(a, *args, **kwargs):
            w, v = original(a, *args, **kwargs)
            toward = np.array([next(blocks) for _ in range(len(w))])[:, None]
            return np.nextafter(w, toward), v

        monkeypatch.setattr(np.linalg, "eigh", nudged)
        assert [wang_class(st.coeffs, j) for st in phi_states(j, p)] == ref
        monkeypatch.undo()


LARGE_J_PARAMS = [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0), (1 + 1e-6, 1.0, 0.5)]


def complex_j_product_levels(j, p):
    """The dense construction the Wang blocks replace: A J1^2 + B J2^2 + C J3^2
    from the complex spin matrices, one dense eigvalsh."""
    j1, j2, j3 = angular_momentum_matrices(j)
    return np.linalg.eigvalsh(p.A * j1 @ j1 + p.B * j2 @ j2 + p.C * j3 @ j3)


@pytest.mark.parametrize("params", LARGE_J_PARAMS)
def test_block_spectra_match_complex_j_products(params):
    p = TopParams(*params)
    for j in [*range(11), 40, 150, 300]:
        ref = complex_j_product_levels(j, p)
        for route in ("wigner", "lambda"):
            got = np.array([lev.E for lev in spectrum(j, p, route=route)])
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_h_wigner_matches_complex_j_products(p321):
    for j in (0, 1, 2, 5, 12):
        j1, j2, j3 = angular_momentum_matrices(j)
        ref = p321.A * j1 @ j1 + p321.B * j2 @ j2 + p321.C * j3 @ j3
        assert np.max(np.abs(h_matrix_wigner(j, p321) - ref)) < 1e-12 * max(1, j * j)


@pytest.mark.parametrize("route", ["wigner", "lambda"])
def test_block_spectrum_makes_at_most_three_eigvalsh_calls(route, monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    p = TopParams(5.3, 2.1, 0.4)
    for j in [*range(13), 40, 151]:
        calls.clear()
        assert len(spectrum(j, p, route=route)) == 2 * j + 1
        assert 1 <= len(calls) <= 3
        assert all(shape[-1] <= j // 2 + 1 for shape in calls)


@pytest.mark.parametrize("j", [540, 560, 600])
def test_routes_agree_past_the_weight_underflow(j):
    # B_nj leaves the normal float range at j = 514: levels must not
    # notice, and states must refuse with a typed error, never NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in LARGE_J_PARAMS:
            p = TopParams(*params)
            ref = np.array([lev.E for lev in lame_spectrum(j, p)])
            scale = np.maximum(1.0, np.abs(ref))
            for route in ("wigner", "lambda"):
                got = np.array([lev.E for lev in spectrum(j, p, route=route)])
                assert np.max(np.abs(got - ref) / scale) < 1e-12
        p = TopParams(3.0, 2.0, 1.0)
        with pytest.raises(DomainError, match=f"j={j}"):
            phi_state(j, 0, p)
        with pytest.raises(DomainError, match=f"j={j}"):
            phi_states(j, p)


def test_phase_makes_first_nonvanishing_derivative_positive():
    # the k-th derivative at q=0 is sum_n c_n (in)^k; powers of n overflow
    # int64 long before k reaches 2j, so test on x = n/j
    for params in ((100.0, 2.0, 1.0), (5.3, 2.1, 0.4)):
        p = TopParams(*params)
        for j in (48, 80):
            x = np.arange(-j, j + 1) / j
            for state in phi_states(j, p):
                for k in range(2 * j + 1):
                    terms = state.coeffs * (1j * x) ** k
                    z = terms.sum()
                    if abs(z) > 1e-9 * np.abs(terms).sum():
                        break
                assert z.real > 0 and abs(z.imag) <= 1e-12 * np.abs(terms).sum()
