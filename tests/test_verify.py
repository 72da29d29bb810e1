import json
import math

import numpy as np
import pytest

from asymtop import ROUTES, TopParams, haar_rule, spectra, verify, wigner_gram
from asymtop.cli import main
from asymtop.verify import (
    CHECKS,
    check_gram_hermiticity,
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
