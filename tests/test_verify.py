import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from asymtop import (
    IDENTITY,
    ROUTES,
    ComplexQ,
    EulerAngles,
    FourierState,
    PoleError,
    TopParams,
    angular_momentum_matrices,
    caching,
    casimir_matrix,
    compose,
    completeness_defect,
    delta_j,
    ell_matrix,
    gram_matrix,
    h_matrix_lambda,
    haar_rule,
    kernel_conj_defect,
    kernel_eval,
    kernel_factored,
    pde_residual,
    psi_eval,
    polar_d,
    psi_via_kernel,
    spectra,
    t_matrix,
    t_matrix_quadrature,
    verify,
    wavefunctions,
    weight_vector,
    wigner_gram,
)
from asymtop.cli import main
from asymtop.verify import (
    CHECKS,
    check_bridge,
    check_casimir,
    check_commutators,
    check_completeness,
    check_gram_hermiticity,
    check_kernel_group,
    check_measure_quadrature,
    check_pde_residual,
    check_wigner_orthogonality,
    run_all,
)
from asymtop.wigner import unitarity_defect

P321 = TopParams(3.0, 2.0, 1.0)
TOPS = [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0), (1 + 1e-6, 1.0, 0.5)]
NAMES = [c.name for c in CHECKS]


def _verify_tols(capsys, argv):
    code = main(["verify", "--jmax", "0", "--format", "json", *argv])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    return {row["check"]: row["tol"] for row in doc["checks"]}


def test_run_all_follows_the_table():
    assert [r.name for r in run_all(P321, jmax=0)] == NAMES


def test_cli_flags_and_config_keys_follow_the_table(tmp_path, capsys):
    # distinct loose tolerances, so every check passes and each value is traceable
    wanted = {name: 10.0 + k for k, name in enumerate(NAMES)}
    flags = [arg for name in NAMES for arg in (f"--tol-{name}", str(wanted[name]))]
    tols = _verify_tols(capsys, flags)
    assert list(tols) == NAMES
    assert tols == wanted
    cfg = tmp_path / "tols.cfg"
    cfg.write_text("".join(f"tol-{name} = {wanted[name]}\n" for name in NAMES))
    assert _verify_tols(capsys, ["--config", str(cfg)]) == wanted
    assert _verify_tols(capsys, []) == {c.name: c.tol for c in CHECKS}


@pytest.mark.parametrize("target", ["h_matrix_lambda", "ell_matrix"])
def test_gram_hermiticity_compares_ode_and_operator_constructions(monkeypatch, cold_caches, target):
    # a uniform 1e-9 rescale keeps every matrix Gram-self-adjoint, so only the
    # ODE-vs-generator-product identity can see it; ell_matrix is read by
    # generator_stack, whose cache the fixture empties
    original = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: (1.0 + 1e-9) * original(*args))
    result = check_gram_hermiticity(P321)
    assert not result.passed
    assert result.defect > 1e-10


def test_pde_residual_not_fooled_by_rounding_near_the_pole():
    # a draw near theta = pi, where finite differences of step 5e-4 sat on
    # their rounding floor; the exact residual does not depend on theta
    p = TopParams(2.2585069608950636, 1.1666653838424454, 0.7594536690222149)
    assert check_pde_residual(p, seed=582196194).passed


PDE_TOL = dict((c.name, c.tol) for c in CHECKS)["pde-residual"]
# strict tops from generic to near-degenerate and far outside O(1)
PDE_TOPS = TOPS + [
    (1 + 2e-9, 1.0, 1 - 2e-9),
    (1e4, 2.0, 1.0),
    (1e4, 9e3, 1.0),
    (200.0, 150.0, 1.0),
    (3e100, 2e100, 1e100),
    (3e-100, 2e-100, 1e-100),
]


def test_pde_residual_tolerance_is_tight():
    assert PDE_TOL <= 1e-12
    assert check_pde_residual(P321).defect < PDE_TOL / 100


@pytest.mark.parametrize("jmax", [1, 3])
def test_pde_residual_sees_one_perturbed_coefficient(monkeypatch, jmax):
    # the largest coefficient of Phi at j = jmax moved by 1e-10 of itself
    state = wavefunctions.phi_state

    def perturbed(j, s, p):
        coeffs = state(j, s, p).coeffs.copy()
        if j == jmax:
            coeffs[np.argmax(np.abs(coeffs))] *= 1 + 1e-10
        return FourierState(j, coeffs)

    assert check_pde_residual(P321, jmax).defect < PDE_TOL / 100
    monkeypatch.setattr(wavefunctions, "phi_state", perturbed)
    assert not check_pde_residual(P321, jmax).passed


@pytest.mark.parametrize("jmax", [1, 2, 3])
def test_pde_residual_sees_the_energy_of_a_neighbouring_level(monkeypatch, jmax):
    solve = wavefunctions.spectrum

    def shifted(j, p, route):
        levels = solve(j, p, route=route)
        return levels[1:] + levels[:1] if j == jmax else levels

    monkeypatch.setattr(wavefunctions, "spectrum", shifted)
    assert not check_pde_residual(P321, jmax).passed


@pytest.mark.parametrize("theta", [0.0, 1e-9, math.pi - 1e-9, math.pi])
def test_pde_residual_passes_draws_at_the_poles(monkeypatch, theta):
    # the Euler coordinates are singular there; the orbits are not
    draw = verify._random_angles
    monkeypatch.setattr(verify, "_random_angles", lambda rng: EulerAngles(draw(rng).phi, theta, draw(rng).psi))
    for top in PDE_TOPS[:4]:
        result = check_pde_residual(TopParams(*top))
        assert result.passed and result.defect < PDE_TOL / 10


@pytest.mark.slow
def test_pde_residual_to_j40_on_every_top():
    # two draws per j, theta over all of [0, pi]
    rng = np.random.default_rng(2211)
    for top in PDE_TOPS:
        p = TopParams(*top)
        for j in range(41):
            for _ in range(2):
                s = int(rng.integers(-j, j + 1))
                g = EulerAngles(rng.uniform(0, 2 * math.pi), math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
                q = verify._random_q(rng, beta=0.3)
                assert max(pde_residual(q, j, s, p, g)) <= PDE_TOL / 5, (top, j, s)


def test_pde_residual_passes_random_tops_and_seeds():
    rng = np.random.default_rng(14812)
    for _ in range(500):
        p = verify.random_strict_params(rng)
        result = check_pde_residual(p, seed=int(rng.integers(0, 2**31)))
        assert result.passed, p


def _wigner_orthogonality_dense(jmax):
    # the dense oracle: wigner_gram for every jt <= j, its diagonal entries
    # (m, n, m, n) relative to 1/(2j+1), plus d unitarity
    worst = 0.0
    thetas = np.linspace(0.2, math.pi - 0.2, 5)
    for j in range(jmax + 1):
        worst = max(worst, unitarity_defect(j, thetas))
        rule = haar_rule(j)
        for jt in range(j + 1):
            gram = wigner_gram(j, jt, rule)
            eye = np.eye(2 * j + 1)[:, j - jt : j + jt + 1]  # delta_{m mt}
            diagonal = np.einsum("mp,nq->mnpq", eye, eye)
            expected = diagonal / (2 * j + 1) if jt == j else 0.0
            worst = max(worst, float(np.max((1 + 2 * j * diagonal) * np.abs(gram - expected))))
    return worst


def test_wigner_orthogonality_is_the_per_pair_gram(monkeypatch):
    # by axes, the check reads the d tables of every pair and gives the
    # dense defect up to its jmax; past it, a bound of it.  The two sum the
    # polar products in another order, and the polar-diagonal part is scaled
    # by 2j+1, so they agree to 1e-15 rather than bit for bit
    tables = []
    monkeypatch.setattr(verify, "polar_d", lambda degree, j: tables.append((degree, j)) or polar_d(degree, j))
    assert abs(check_wigner_orthogonality(jmax=5).defect - _wigner_orthogonality_dense(5)) < 1e-15
    assert sorted(set(tables)) == [(j, jt) for j in range(6) for jt in range(j + 1)]
    for jmax in (8, 10):
        defect = check_wigner_orthogonality(jmax).defect
        assert _wigner_orthogonality_dense(jmax) < defect + 1e-15 and defect < 1e-14


@pytest.mark.parametrize("at", [1, 3, 4, 5])
@pytest.mark.parametrize("fault", ["one azimuth fewer", "one polar weight off by 1e-9"])
def test_wigner_orthogonality_fails_on_a_wrong_rule(monkeypatch, fault, at):
    # a weight off by 1e-9 moves a polar diagonal entry by about 1e-9/(2j+2);
    # the check takes that part times 2j+1, past the tolerance 1e-10 at every j
    def wrong(degree):
        rule = haar_rule(degree)
        if degree != at:
            return rule
        if fault == "one azimuth fewer":
            return dataclasses.replace(rule, azimuths=2.0 * math.pi * np.arange(2 * at) / (2 * at))
        weights = rule.polar_weights.copy()
        weights[at // 2] *= 1 + 1e-9
        return dataclasses.replace(rule, polar_weights=weights)

    monkeypatch.setattr(verify, "haar_rule", wrong)
    assert not check_wigner_orthogonality(jmax=5).passed


def test_wigner_orthogonality_forms_no_gram_tensor():
    # at jmax 20 the dense Gram of j = jt = 20 alone is 41^4 complex values (45 MB)
    check_wigner_orthogonality(20)  # the d tables are the cache's, built once
    tracemalloc.start()
    try:
        check_wigner_orthogonality(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_haar_rule_cache_stays_within_its_byte_bound(monkeypatch, cold_caches):
    # the tables check_wigner_orthogonality(jmax=40) builds: d^jt at the
    # polar nodes of every rule of degree j <= 40, for jt <= j
    built = 0
    for j in range(41):
        rule = haar_rule(j)
        for jt in range(j + 1):
            built += polar_d(j, jt).nbytes
            assert caching.TABLES.nbytes <= caching.CACHE_BYTES
    assert built > 4 * caching.CACHE_BYTES  # the bound binds
    assert haar_rule(40) is rule
    # the checks themselves, under a bound that binds at jmax 8 and 10,
    # change no bit
    expected = check_wigner_orthogonality(jmax=8).defect, run_all(P321, jmax=10)
    caching.TABLES.clear()
    monkeypatch.setattr(caching.TABLES, "limit", 100 << 10)
    assert check_wigner_orthogonality(jmax=8).defect == expected[0]
    assert 0 < caching.TABLES.nbytes <= 100 << 10
    assert run_all(P321, jmax=10) == expected[1]
    assert 0 < caching.TABLES.nbytes <= 100 << 10


def test_run_all_solves_each_state_once_and_no_level_past_the_caps(monkeypatch):
    solved, phased, ranges = [], [], []
    rows, phase, table = spectra._state_rows, spectra._phase, spectra.spectrum_range
    monkeypatch.setattr(spectra, "_state_rows", lambda js, p: solved.append(js) or rows(js, p))
    monkeypatch.setattr(spectra, "_phase", lambda r, j: phased.append((j, len(r))) or phase(r, j))
    monkeypatch.setattr(
        spectra, "spectrum_range", lambda js, p, route="wigner": ranges.append((js, route)) or table(js, p, route)
    )
    for jmax in (4, 10, 300):
        spectra._SLOTS.clear()  # the run before kept its levels and states
        run_all(P321, jmax=jmax)
        # one range solve per route, and one states solve per run over the
        # j whose states are read (completeness reads the most, to j = 6);
        # each of those j is phased once, whole, in one _phase call (5 and
        # 7 calls)
        top = min(jmax, 10)
        assert sorted(route for _, route in ranges) == sorted(ROUTES)
        assert solved == [range(min(jmax, 6) + 1)]
        assert phased == [(j, 2 * j + 1) for j in range(min(jmax, 6) + 1)]
        # levels are read to route-agreement's cap, j = 10, and solved no further
        assert max(js.stop - 1 for js, _ in ranges) == top
        for calls in (solved, phased, ranges):
            calls.clear()
    # the slots outlive the run, and every read of the run falls inside
    # them: a second run at the same top solves and phases nothing
    run_all(P321, jmax=300)
    assert solved == [] and phased == [] and ranges == []


@pytest.mark.parametrize("params", [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0)])
@pytest.mark.parametrize("jmax", [4, 10])
def test_run_all_is_every_check_run_alone(cold_caches, params, jmax):
    # the shared batch changes no bit of any result, and neither do the
    # per-process caches: the first run_all builds every rule and stack
    p = TopParams(*params)
    runs = [run_all(p, jmax=jmax), run_all(p, jmax=jmax)]
    alone = [c.run(p, min(jmax, c.jmax), 42, c.tol) for c in CHECKS]
    for batched in runs:
        assert [(r.name, r.defect.hex(), r.tol, r.passed) for r in batched] == [
            (r.name, r.defect.hex(), r.tol, r.passed) for r in alone
        ]


# per-j formulations of the generator checks: one matrix per j and layer


def _casimir_per_j(jmax):
    worst = 0.0
    for j in range(jmax + 1):
        eye = np.eye(2 * j + 1)
        worst = max(worst, float(np.max(np.abs(casimir_matrix(j) - j * (j + 1) * eye))))
        j1, j2, j3 = angular_momentum_matrices(j)
        total = j1 @ j1 + j2 @ j2 + j3 @ j3
        worst = max(worst, float(np.max(np.abs(total - j * (j + 1) * eye))))
    return worst


def _commutators_per_j(jmax):
    worst = 0.0
    for j in range(jmax + 1):
        ells = {a: ell_matrix(a, j) for a in (1, 2, 3)}
        js = dict(zip((1, 2, 3), angular_momentum_matrices(j)))
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            d1 = ells[a] @ ells[b] - ells[b] @ ells[a] - ells[c]
            d2 = js[a] @ js[b] - js[b] @ js[a] - 1j * js[c]
            worst = max(worst, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
    return worst


def _gram_hermiticity_per_j(p, jmax):
    worst = 0.0
    for j in range(jmax + 1):
        gram = gram_matrix(j)
        h = h_matrix_lambda(j, p)
        gens = [-1j * ell_matrix(a, j) for a in (1, 2, 3)]
        from_ops = sum(w * m @ m for w, m in zip((p.A, p.B, p.C), gens))
        scale = max(1.0, float(np.max(np.abs(h))))
        worst = max(worst, float(np.max(np.abs(from_ops - h))) / scale)
        for m in [h] + gens:
            lhs = gram @ m
            d = float(np.max(np.abs(lhs - m.conj().T @ gram)))
            worst = max(worst, d / max(1.0, float(np.max(np.abs(lhs)))))
    return worst


@pytest.mark.parametrize("params", TOPS)
def test_generator_checks_equal_their_per_j_formulation(cold_caches, params):
    # stacked products and per-j reductions: the same defect bit for bit, on
    # whole chunks and on chunks cut at jmax (at 0, 1 and 20)
    p = TopParams(*params)
    for jmax in (0, 1, 4, 10, 20):
        assert check_casimir(jmax).defect == _casimir_per_j(jmax)
        assert check_commutators(jmax).defect == _commutators_per_j(jmax)
        assert check_gram_hermiticity(p, jmax).defect == _gram_hermiticity_per_j(p, jmax)


def test_generator_stack_is_the_per_j_tables_centred_and_read_only(cold_caches):
    for lo, hi in verify._chunks(20):
        st = verify.generator_stack(lo, hi)
        assert verify.generator_stack(lo, hi) is st
        for k, j in enumerate(st.js):
            c = slice(hi - j, hi + j + 1)
            blocks = [(st.ell[a - 1, k], ell_matrix(a, j)) for a in (1, 2, 3)]
            blocks += [(st.spin[a, k], m) for a, m in enumerate(angular_momentum_matrices(j))]
            for stacked, block in blocks + [(st.eye[k], np.eye(2 * j + 1))]:
                assert stacked[c, c].tobytes() == block.tobytes()
                assert np.count_nonzero(stacked) == np.count_nonzero(block)
            assert st.gram[k, c].tobytes() == np.diag(gram_matrix(j)).tobytes()
            assert np.count_nonzero(st.gram[k]) == 2 * j + 1
        for arr in (st.js, st.ell, st.spin, st.eye, st.gram):
            with pytest.raises(ValueError):
                arr[0] = 0
    assert caching.TABLES.nbytes <= caching.CACHE_BYTES


def _one_entry_off(m):
    m = m.copy()
    m[0, 1] += 1e-9
    return m


@pytest.mark.parametrize("table", ["ell_matrix", "angular_momentum_matrices"])
@pytest.mark.parametrize("at", [1, 20])
def test_one_entry_off_by_1e_9_fails_casimir_and_commutators(monkeypatch, cold_caches, table, at):
    # the stacks are built from the per-j tables, once: a 1e-9 error in one
    # entry of l_1 or J_1 at one j must reach both checks
    ell, spin = verify.ell_matrix, verify.angular_momentum_matrices
    if table == "ell_matrix":
        monkeypatch.setattr(verify, table, lambda a, j: _one_entry_off(ell(a, j)) if (a, j) == (1, at) else ell(a, j))
    else:
        monkeypatch.setattr(verify, table, lambda j: (_one_entry_off(spin(j)[0]), *spin(j)[1:]) if j == at else spin(j))
    for result in (check_casimir(20), check_commutators(20)):
        assert not result.passed and result.defect > 1e-10, result


@pytest.mark.parametrize("jmax", [20, 40])
def test_kernel_group_passes_where_t_grows(jmax):
    # t's entries reach 1.8e4 at j = 20 and 1.4e6 at j = 24; the defects are
    # taken on G^{1/2} t G^{-1/2}, which is unitary, so they stay at rounding
    result = check_kernel_group(jmax)
    assert result.passed and result.defect < 1e-12, result


@pytest.mark.parametrize("at", [1, 40])
def test_one_entry_of_t_off_by_1e_9_fails_kernel_group(monkeypatch, at):
    # 1e-9 on the largest entry of G^{1/2} t(g1) G^{-1/2}, first draw at j = at
    exact = verify.t_matrix

    def one_entry_off(j, g):
        t = exact(j, g)
        if j == at:
            root_b = np.sqrt(weight_vector(j))
            m, n = np.unravel_index(np.argmax(np.abs(t[1] * root_b / root_b[:, None])), t[1].shape)
            t = t.copy()
            t[1, m, n] += 1e-9 * root_b[m] / root_b[n]
        return t

    monkeypatch.setattr(verify, "t_matrix", one_entry_off)
    result = check_kernel_group(at)
    assert not result.passed and result.defect > 1e-10, result


# per-draw formulations of the sampled checks: one scalar call per draw and
# layer, with the draws taken in the checks' order


def _unitary_t(j, g):
    """G^{1/2} t(g) G^{-1/2}, G = diag(1 / B_nj)."""
    root_b = np.sqrt(weight_vector(j))
    return t_matrix(j, g) * root_b / root_b[:, None]


def _kernel_group_per_draw(jmax, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        eye = np.eye(2 * j + 1)
        worst = max(worst, float(np.max(np.abs(_unitary_t(j, IDENTITY) - eye))))
        for _ in range(2):
            g1, g2 = verify._random_angles(rng), verify._random_angles(rng)
            u1 = _unitary_t(j, g1)
            worst = max(worst, float(np.max(np.abs(_unitary_t(j, compose(g1, g2)) - u1 @ _unitary_t(j, g2)))))
            worst = max(worst, float(np.max(np.abs(u1.conj().T @ u1 - eye))))
            q, qp = verify._random_q(rng), verify._random_q(rng)
            expected = delta_j(q, qp, j)
            worst = max(worst, abs(kernel_eval(q, qp, j, IDENTITY) - expected) / max(1.0, abs(expected)))
            worst = max(worst, kernel_conj_defect(q, qp, j, g1) / max(1.0, abs(kernel_eval(q, qp, j, g1))))
    return worst


def _bridge_per_draw(p, jmax, seed):
    rng = np.random.default_rng(seed)
    d_matrix = 0.0
    for j in range(jmax + 1):
        for _ in range(2):
            g = verify._random_angles(rng)
            q, qp = verify._random_q(rng), verify._random_q(rng)
            s = int(rng.integers(-j, j + 1))
            v1 = psi_eval(q, j, s, p, g)
            d_matrix = max(d_matrix, abs(v1 - psi_via_kernel(q, j, s, p, g)) / max(1.0, abs(v1)))
            k1 = kernel_eval(q, qp, j, g)
            d_matrix = max(d_matrix, abs(k1 - kernel_factored(q, qp, j, g)) / max(1.0, abs(k1)))
    d_quad = 0.0
    for j in range(min(jmax, 2) + 1):
        g = verify._random_angles(rng)
        d_quad = max(d_quad, float(np.max(np.abs(t_matrix_quadrature(j, g) - t_matrix(j, g)))))
    return max(d_matrix, d_quad)


def _completeness_per_draw(p, jmax, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        for _ in range(2):
            q = verify._random_q(rng, beta=0.5)
            worst = max(worst, completeness_defect(j, p, q) / max(1.0, float(delta_j(q, q, j).real)))
    return worst


def _pde_residual_per_draw(p, jmax, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        s = int(rng.integers(-j, j + 1))
        g = verify._random_angles(rng)
        q = verify._random_q(rng, beta=0.3)
        worst = max(worst, *pde_residual(q, j, s, p, g))
    return worst


@pytest.mark.parametrize("seed", [42, 7])
def test_sampled_checks_equal_their_per_draw_formulation(seed):
    # draws first, then each j once over its draws: the same defect bit for bit
    p = TopParams(5.3, 2.1, 0.4)
    for route in ROUTES:  # levels read from range solves, as run_all reads them
        spectra.solve_levels(range(6), p, route)
    for jmax in range(6):
        assert check_kernel_group(jmax, seed).defect == _kernel_group_per_draw(jmax, seed)
        assert check_bridge(p, jmax, seed).defect == _bridge_per_draw(p, jmax, seed)
        assert check_completeness(p, jmax, seed).defect == _completeness_per_draw(p, jmax, seed)
        assert check_pde_residual(p, jmax, seed).defect == _pde_residual_per_draw(p, jmax, seed)


def test_completeness_takes_delta_j_once_per_draw(monkeypatch):
    calls = []
    for module in (verify, wavefunctions):
        monkeypatch.setattr(module, "delta_j", lambda q, qp, j, f=module.delta_j: calls.append(j) or f(q, qp, j))
    check_completeness(P321, jmax=6)
    assert sorted(calls) == [j for j in range(7) for _ in range(2)]


def test_one_entry_of_t_by_quadrature_off_by_1e_9_fails_bridge(monkeypatch):
    # the quadrature part enters the defect at its own size, about 1e-14
    exact = verify.t_matrix_quadrature

    def one_entry_off(j, g):
        t = exact(j, g)
        if j == 2:
            t = t.copy()
            t[0, 1] += 1e-9
        return t

    monkeypatch.setattr(verify, "t_matrix_quadrature", one_entry_off)
    result = check_bridge(P321)
    assert not result.passed and result.defect > 1e-10, result


SCALE_FAULTS = {
    "n=0 off by 1e-9": lambda f, j: f * np.where(np.arange(-j, j + 1) == 0, 1 + 1e-9, 1.0),
    "n=1 off by 1e-9": lambda f, j: f * np.where(np.arange(-j, j + 1) == 1, 1 + 1e-9, 1.0),
    "i^n for (-i)^n": lambda f, j: f.conj(),
}


@pytest.mark.parametrize("fault", SCALE_FAULTS.values(), ids=SCALE_FAULTS)
@pytest.mark.parametrize("at", [3, 4, 5])
def test_a_wrong_kernel_scale_above_the_quadrature_part_fails_bridge(monkeypatch, fault, at):
    # f = sqrt(B_n) (-i)^n sets both t_matrix and psi_via_kernel; the
    # quadrature part compares t_matrix to j = 2 only, so from j = 3 on
    # Psi via the kernel is what sees f.  Its draws barely see the edge
    # n of j = 4 and 5 (sqrt(B_n) is small there): 1e-9 on n = 4 at j = 4,
    # or on n = 3, 4 or 5 at j = 5, stays below 1e-10
    exact = wavefunctions._kernel_scale
    assert next(r for r in run_all(P321, jmax=5) if r.name == "bridge").passed
    monkeypatch.setattr(wavefunctions, "_kernel_scale", lambda j: fault(exact(j), j) if j == at else exact(j))
    result = next(r for r in run_all(P321, jmax=5) if r.name == "bridge")
    assert not result.passed and result.defect > 1e-10, result


def test_every_q_rule_weight_off_by_1e_9_fails_measure_quadrature(monkeypatch):
    # the Gram moves by 1e-9 of its size; the defect at a true rule is
    # below 1e-14 to j = 4
    exact = verify.q_rule

    def heavier(j):
        rule = exact(j)
        return dataclasses.replace(rule, beta_log_weights=rule.beta_log_weights + math.log1p(1e-9))

    assert check_measure_quadrature().defect < 1e-14
    monkeypatch.setattr(verify, "q_rule", heavier)
    result = check_measure_quadrature()
    assert not result.passed and result.defect > 1e-10, result


def test_bridge_refuses_a_draw_on_the_phase_map_pole(monkeypatch):
    # the second draw at j = 1 (the fourth rotation and the seventh q drawn)
    # sits where the phase map is singular; psi_eval refuses it, and so
    # must the batched check
    pole_q, pole_g = ComplexQ(math.pi / 2, 0.0), EulerAngles(0.0, math.pi / 2, 0.0)
    with pytest.raises(PoleError):
        psi_eval(pole_q, 1, 0, P321, pole_g)
    angles, qs = verify._random_angles, verify._random_q
    drawn = {"angles": 0, "q": 0}

    def angles_at_pole(rng):
        drawn["angles"] += 1
        return pole_g if drawn["angles"] == 4 else angles(rng)

    def q_at_pole(rng, beta=0.7):
        drawn["q"] += 1
        return pole_q if drawn["q"] == 7 else qs(rng, beta)

    monkeypatch.setattr(verify, "_random_angles", angles_at_pole)
    monkeypatch.setattr(verify, "_random_q", q_at_pole)
    with pytest.raises(PoleError):
        check_bridge(P321, jmax=3)
