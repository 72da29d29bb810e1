import json
import math

import numpy as np
import pytest

from asymtop import (
    IDENTITY,
    ROUTES,
    ComplexQ,
    EulerAngles,
    PoleError,
    TopParams,
    compose,
    completeness_defect,
    delta_j,
    gram_matrix,
    haar_rule,
    kernel_conj_defect,
    kernel_eval,
    kernel_factored,
    pde_residual,
    psi_eval,
    psi_via_kernel,
    spectra,
    t_matrix,
    t_matrix_quadrature,
    verify,
    wavefunctions,
    wigner_gram,
)
from asymtop.cli import main
from asymtop.verify import (
    CHECKS,
    check_bridge,
    check_completeness,
    check_gram_hermiticity,
    check_kernel_group,
    check_pde_residual,
    check_wigner_orthogonality,
    run_all,
)
from asymtop.wigner import unitarity_defect

P321 = TopParams(3.0, 2.0, 1.0)
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
def test_gram_hermiticity_compares_ode_and_operator_constructions(monkeypatch, target):
    # a uniform 1e-9 rescale keeps every matrix Gram-self-adjoint, so only the
    # ODE-vs-generator-product identity can see it
    original = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: (1.0 + 1e-9) * original(*args))
    result = check_gram_hermiticity(P321)
    assert not result.passed
    assert result.defect > 1e-10


def test_pde_residual_not_fooled_by_rounding_near_the_pole():
    # j=1 residual at theta near pi sits on the rounding floor at h = 5e-4
    p = TopParams(2.2585069608950636, 1.1666653838424454, 0.7594536690222149)
    assert check_pde_residual(p, seed=582196194).passed


def test_wigner_orthogonality_is_the_per_pair_gram(monkeypatch):
    # the per-pair oracle: wigner_gram for every jt <= j, plus d unitarity
    worst = 0.0
    thetas = np.linspace(0.2, math.pi - 0.2, 5)
    for j in range(6):
        worst = max(worst, unitarity_defect(j, thetas))
        rule = haar_rule(j)
        for jt in range(j + 1):
            gram = wigner_gram(j, jt, rule)
            eye = np.eye(2 * j + 1)
            expected = np.einsum("mp,nq->mnpq", eye, eye) / (2 * j + 1) if jt == j else 0.0
            worst = max(worst, float(np.max(np.abs(gram - expected))))
    pairs = []
    monkeypatch.setattr(verify, "wigner_gram", lambda j, jt, rule: pairs.append((j, jt, rule.degree)) or wigner_gram(j, jt, rule))
    result = check_wigner_orthogonality(jmax=5)
    assert result.defect == worst
    assert pairs == [(j, jt, j) for j in range(6) for jt in range(j + 1)]


def test_run_all_solves_each_state_once_and_no_level_past_the_caps(monkeypatch):
    solved, phased, ranges = [], [], []
    rows, phase, table = spectra._state_rows, spectra._fix_phase, spectra.spectrum_range
    monkeypatch.setattr(spectra, "_state_rows", lambda j, p: solved.append(j) or rows(j, p))
    monkeypatch.setattr(spectra, "_fix_phase", lambda r, j: phased.append(j) or phase(r, j))
    monkeypatch.setattr(
        spectra, "spectrum_range", lambda js, p, route="wigner": ranges.append((js, route)) or table(js, p, route)
    )
    for jmax in (4, 10):
        run_all(P321, jmax=jmax)
        # one range solve per route, one solve and one phasing per (j, p)
        assert sorted(route for _, route in ranges) == sorted(ROUTES)
        assert sorted(solved) == sorted(set(solved)) == sorted(phased) and solved
        for calls in (solved, phased, ranges):
            calls.clear()
    run_all(P321, jmax=300)
    assert solved and max(solved) <= 6
    assert ranges and max(js.stop - 1 for js, _ in ranges) <= max(c.jmax for c in CHECKS)


@pytest.mark.parametrize("params", [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0)])
@pytest.mark.parametrize("jmax", [4, 10])
def test_run_all_is_every_check_run_alone(params, jmax):
    # the shared batch changes no bit of any result
    p = TopParams(*params)
    alone = [c.run(p, min(jmax, c.jmax), 42, c.tol) for c in CHECKS]
    batched = run_all(p, jmax=jmax)
    assert [(r.name, r.defect.hex(), r.tol, r.passed) for r in batched] == [
        (r.name, r.defect.hex(), r.tol, r.passed) for r in alone
    ]


# per-draw formulations of the sampled checks: one scalar call per draw and
# layer, with the draws taken in the checks' order


def _kernel_group_per_draw(jmax, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        eye = np.eye(2 * j + 1)
        worst = max(worst, float(np.max(np.abs(t_matrix(j, IDENTITY) - eye))))
        gram = gram_matrix(j)
        gram_scale = max(1.0, float(np.max(gram)))
        for _ in range(2):
            g1, g2 = verify._random_angles(rng), verify._random_angles(rng)
            t1 = t_matrix(j, g1)
            worst = max(worst, float(np.max(np.abs(t_matrix(j, compose(g1, g2)) - t1 @ t_matrix(j, g2)))))
            worst = max(worst, float(np.max(np.abs(t1.conj().T @ gram @ t1 - gram))) / gram_scale)
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
    return max(d_matrix, 1e-4 * d_quad)


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
        schrod, sym = pde_residual(q, j, s, p, g, steps=(4e-3, 2e-3))
        coarse, fine = np.column_stack((schrod, sym))
        for big, small in zip(coarse, fine):
            if big >= 1e-10 and small >= 1e-300:
                worst = max(worst, abs(big / small - 4.0))
    return worst


@pytest.mark.parametrize("seed", [42, 7])
def test_sampled_checks_equal_their_per_draw_formulation(seed):
    # draws first, then each j once over its draws: the same defect bit for bit
    p = TopParams(5.3, 2.1, 0.4)
    with spectra.SpectrumBatch(range(6)):
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


def test_pde_residual_builds_its_stencils_once_per_check(monkeypatch):
    # 9 field_stencil calls on the stacked centres of every draw, whatever jmax
    calls = []
    stencil = wavefunctions.field_stencil
    monkeypatch.setattr(wavefunctions, "field_stencil", lambda *a: calls.append(np.shape(a[2])) or stencil(*a))
    for jmax in (0, 3):
        check_pde_residual(P321, jmax)
        assert len(calls) == 9 and all(shape[0] == jmax + 1 for shape in calls)
        calls.clear()


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
