"""Self-verification suite: every identity the package is built on.

Each check_* function measures a defect that is analytically zero (or, for
pde-residual, a Richardson ratio that is analytically 4) and compares it to a
tolerance.  CHECKS is the one table of the suite: it fixes the order of the
checks, the jmax each is specified at and its default tolerance.  The
check_* defaults, run_all (which caps the caller's jmax per check so quick
runs stay quick), and the CLI's --tol-<name> flags and tol-<name> config
keys all come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lambda_rep import (
    ComplexQ,
    casimir_matrix,
    delta_j,
    ell_matrix,
    gram_matrix,
    q_rule,
    weight_vector,
)
from .so3 import IDENTITY, EulerAngles, compose, haar_rule
from .spectra import ROUTES, TopParams, h_matrix_lambda, spectrum
from .wavefunctions import (
    completeness_defect,
    kernel_conj_defect,
    kernel_eval,
    kernel_factored,
    pde_residual,
    psi_eval,
    psi_via_kernel,
    t_matrix,
    t_matrix_quadrature,
    uncertainty,
)
from .wigner import angular_momentum_matrices, unitarity_defect, wigner_D_stack


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class Check:
    """One entry of the suite.

    jmax is the range the check is specified at: its default, and the cap
    run_all puts on the caller's jmax.  run(p, jmax, seed, tol) calls the
    check_* function through its module-level name at call time, so a
    wrapper put on that name (a tracer, a test's monkeypatch) sees the call.
    """

    name: str
    jmax: int
    tol: float
    run: Callable[[TopParams, int, int, float], CheckResult]


CHECKS = (
    Check("route-agreement", 10, 1e-8, lambda p, jmax, seed, tol: check_route_agreement(p, jmax, tol)),
    Check("casimir", 20, 1e-10, lambda p, jmax, seed, tol: check_casimir(jmax, tol)),
    Check("commutators", 20, 1e-10, lambda p, jmax, seed, tol: check_commutators(jmax, tol)),
    Check("gram-hermiticity", 10, 1e-12, lambda p, jmax, seed, tol: check_gram_hermiticity(p, jmax, tol)),
    Check("wigner-orthogonality", 5, 1e-10, lambda p, jmax, seed, tol: check_wigner_orthogonality(jmax, tol)),
    Check("kernel-group", 5, 1e-10, lambda p, jmax, seed, tol: check_kernel_group(jmax, seed, tol)),
    Check("bridge", 5, 1e-10, lambda p, jmax, seed, tol: check_bridge(p, jmax, seed, tol)),
    Check("pde-residual", 3, 0.8, lambda p, jmax, seed, tol: check_pde_residual(p, jmax, seed, tol)),
    Check("completeness", 6, 1e-8, lambda p, jmax, seed, tol: check_completeness(p, jmax, seed, tol)),
    Check("measure-quadrature", 4, 1e-6, lambda p, jmax, seed, tol: check_measure_quadrature(jmax, tol)),
    Check("uncertainty", 10, 1e-10, lambda p, jmax, seed, tol: check_uncertainty(jmax, seed, tol)),
)

_SPEC = {c.name: c for c in CHECKS}


def _result(name: str, defect: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name, defect=float(defect), tol=float(tol), passed=bool(defect < tol)
    )


def random_strict_params(rng: np.random.Generator) -> TopParams:
    """Strictly ordered A > B > C > 0 with O(1) gaps."""
    c = rng.uniform(0.5, 2.0)
    b = c + rng.uniform(0.3, 2.0)
    a = b + rng.uniform(0.3, 2.0)
    return TopParams(A=a, B=b, C=c)


def _random_angles(rng: np.random.Generator) -> EulerAngles:
    return EulerAngles(
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.4, math.pi - 0.4),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def _random_q(rng: np.random.Generator, beta: float = 0.7) -> ComplexQ:
    return ComplexQ(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-beta, beta))


def route_agreement_defects(p: TopParams, jmax: int) -> tuple[float, float]:
    """(cross-route, trace-rule) relative defects over j <= jmax.

    Trace rule: sum_s E_{j,s} = (A+B+C) j(j+1)(2j+1)/3.
    """
    worst_route = 0.0
    worst_trace = 0.0
    for j in range(jmax + 1):
        energies = {
            r: np.array([lv.E for lv in spectrum(j, p, route=r)]) for r in ROUTES
        }
        scale = np.maximum(1.0, np.abs(energies["wigner"]))
        for r in ("lambda", "lame"):
            worst_route = max(
                worst_route,
                float(np.max(np.abs(energies[r] - energies["wigner"]) / scale)),
            )
        target = (p.A + p.B + p.C) * j * (j + 1) * (2 * j + 1) / 3.0
        worst_trace = max(
            worst_trace,
            abs(float(np.sum(energies["wigner"])) - target) / max(1.0, target),
        )
    return worst_route, worst_trace


def check_route_agreement(
    p: TopParams,
    jmax: int = _SPEC["route-agreement"].jmax,
    tol: float = _SPEC["route-agreement"].tol,
) -> CheckResult:
    """All three spectral routes agree level by level; trace rule holds.

    The trace part is held to a 100x tighter bar by scaling it into the
    shared defect.
    """
    d_route, d_trace = route_agreement_defects(p, jmax)
    return _result("route-agreement", max(d_route, 100.0 * d_trace), tol)


def check_casimir(
    jmax: int = _SPEC["casimir"].jmax, tol: float = _SPEC["casimir"].tol
) -> CheckResult:
    """l-matrix and J-matrix Casimirs equal j(j+1) I."""
    worst = 0.0
    for j in range(jmax + 1):
        eye = np.eye(2 * j + 1)
        worst = max(worst, float(np.max(np.abs(casimir_matrix(j) - j * (j + 1) * eye))))
        j1, j2, j3 = angular_momentum_matrices(j)
        total = j1 @ j1 + j2 @ j2 + j3 @ j3
        worst = max(worst, float(np.max(np.abs(total - j * (j + 1) * eye))))
    return _result("casimir", worst, tol)


def check_commutators(
    jmax: int = _SPEC["commutators"].jmax, tol: float = _SPEC["commutators"].tol
) -> CheckResult:
    """[l_a, l_b] = eps_abc l_c and [J_a, J_b] = i eps_abc J_c."""
    worst = 0.0
    for j in range(jmax + 1):
        ells = {a: ell_matrix(a, j) for a in (1, 2, 3)}
        js = dict(zip((1, 2, 3), angular_momentum_matrices(j)))
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            d1 = ells[a] @ ells[b] - ells[b] @ ells[a] - ells[c]
            d2 = js[a] @ js[b] - js[b] @ js[a] - 1j * js[c]
            worst = max(worst, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
    return _result("commutators", worst, tol)


def check_gram_hermiticity(
    p: TopParams,
    jmax: int = _SPEC["gram-hermiticity"].jmax,
    tol: float = _SPEC["gram-hermiticity"].tol,
) -> CheckResult:
    """H and the generators m_a = -i l_a are self-adjoint for the diagonal
    Gram form, and h_matrix_lambda (built from the ODE coefficients) equals
    the generator product A m_1^2 + B m_2^2 + C m_3^2.

    Self-adjointness defects are relative to the size of G M, whose entries
    grow like 1/B_nj; the construction defect is relative to max(1, |H|).
    """
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
    return _result("gram-hermiticity", worst, tol)


def check_wigner_orthogonality(
    jmax: int = _SPEC["wigner-orthogonality"].jmax,
    tol: float = _SPEC["wigner-orthogonality"].tol,
) -> CheckResult:
    """Haar orthogonality of the D-functions plus row unitarity of d(theta).

    The Gram tensors of wigner_gram for every jt <= j, with the weighted D^j
    stack built once per j instead of once per jt.
    """
    worst = 0.0
    thetas = np.linspace(0.2, math.pi - 0.2, 5)
    for j in range(jmax + 1):
        worst = max(worst, unitarity_defect(j, thetas))
        rule = haar_rule(j)
        d_j = wigner_D_stack(j, rule)
        weighted = (rule.weights[:, None, None] * d_j).conj().reshape(len(d_j), -1)
        for jt in range(j + 1):
            d_jt = d_j if jt == j else wigner_D_stack(jt, rule)
            gram = weighted.T @ d_jt.reshape(len(d_jt), -1)
            expected = np.eye(len(gram)) / (2 * j + 1) if jt == j else 0.0
            worst = max(worst, float(np.max(np.abs(gram - expected))))
    return _result("wigner-orthogonality", worst, tol)


def check_kernel_group(
    jmax: int = _SPEC["kernel-group"].jmax,
    seed: int = 42,
    tol: float = _SPEC["kernel-group"].tol,
) -> CheckResult:
    """t is a representation: t(e) = I, t(g1 g2) = t(g1) t(g2), t^H G t = G;
    the kernel at the identity reproduces delta_j and obeys the conjugation
    symmetry conj(D_{qq'}(g)) = D_{q'q}(g^{-1})."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        eye = np.eye(2 * j + 1)
        worst = max(worst, float(np.max(np.abs(t_matrix(j, IDENTITY) - eye))))
        gram = gram_matrix(j)
        gram_scale = max(1.0, float(np.max(gram)))
        for _ in range(2):
            g1, g2 = _random_angles(rng), _random_angles(rng)
            lhs = t_matrix(j, compose(g1, g2))
            rhs = t_matrix(j, g1) @ t_matrix(j, g2)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            t1 = t_matrix(j, g1)
            worst = max(
                worst,
                float(np.max(np.abs(t1.conj().T @ gram @ t1 - gram))) / gram_scale,
            )
            q, qp = _random_q(rng), _random_q(rng)
            expected = delta_j(q, qp, j)
            d_id = abs(kernel_eval(q, qp, j, IDENTITY) - expected)
            worst = max(worst, d_id / max(1.0, abs(expected)))
            k_val = kernel_eval(q, qp, j, g1)
            worst = max(
                worst, kernel_conj_defect(q, qp, j, g1) / max(1.0, abs(k_val))
            )
    return _result("kernel-group", worst, tol)


def check_bridge(
    p: TopParams,
    jmax: int = _SPEC["bridge"].jmax,
    seed: int = 42,
    tol: float = _SPEC["bridge"].tol,
) -> CheckResult:
    """Kernel route and closed form agree: Psi via t-action vs direct
    evaluation, factored vs expanded kernel, and t by double quadrature
    (quadrature-limited, so scaled by 1e-4 into the shared defect)."""
    d_matrix, d_quad = bridge_defects(p, jmax, seed)
    return _result("bridge", max(d_matrix, 1e-4 * d_quad), tol)


def bridge_defects(
    p: TopParams, jmax: int = _SPEC["bridge"].jmax, seed: int = 42
) -> tuple[float, float]:
    """(closed-form, quadrature) parts of the bridge check."""
    rng = np.random.default_rng(seed)
    d_matrix = 0.0
    for j in range(jmax + 1):
        for _ in range(2):
            g = _random_angles(rng)
            q, qp = _random_q(rng), _random_q(rng)
            s = int(rng.integers(-j, j + 1))
            v1 = psi_eval(q, j, s, p, g)
            v2 = psi_via_kernel(q, j, s, p, g)
            d_matrix = max(d_matrix, abs(v1 - v2) / max(1.0, abs(v1)))
            k1 = kernel_eval(q, qp, j, g)
            k2 = kernel_factored(q, qp, j, g)
            d_matrix = max(d_matrix, abs(k1 - k2) / max(1.0, abs(k1)))
    d_quad = 0.0
    for j in range(min(jmax, 2) + 1):
        g = _random_angles(rng)
        d_quad = max(
            d_quad, float(np.max(np.abs(t_matrix_quadrature(j, g) - t_matrix(j, g))))
        )
    return d_matrix, d_quad


def check_pde_residual(
    p: TopParams,
    jmax: int = _SPEC["pde-residual"].jmax,
    seed: int = 42,
    tol: float = _SPEC["pde-residual"].tol,
) -> CheckResult:
    """Residuals of H Psi = E Psi and (eta_a + l_a) Psi = 0 shrink at the
    O(h^2) Richardson rate: r(h)/r(h/2) within tol of 4.

    The steps h = 4e-3 and 2e-3 keep truncation above the rounding floor
    of the nested central differences; at h = 5e-4 rounding can already
    dominate near theta = 0 or pi and the ratio is noise.  Residuals below
    1e-10 are skipped.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        s = int(rng.integers(-j, j + 1))
        g = _random_angles(rng)
        q = _random_q(rng, beta=0.3)
        coarse_s, coarse_v = pde_residual(q, j, s, p, g, h=4e-3)
        fine_s, fine_v = pde_residual(q, j, s, p, g, h=2e-3)
        coarse = np.concatenate(([coarse_s], coarse_v))
        fine = np.concatenate(([fine_s], fine_v))
        for big, small in zip(coarse, fine):
            if big < 1e-10 or small < 1e-300:
                continue
            worst = max(worst, abs(big / small - 4.0))
    return _result("pde-residual", worst, tol)


def check_completeness(
    p: TopParams,
    jmax: int = _SPEC["completeness"].jmax,
    seed: int = 42,
    tol: float = _SPEC["completeness"].tol,
) -> CheckResult:
    """sum_s |Phi_{j,s}(q)|^2 / (2j+1) = delta_j(q, conj(q)), relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(jmax + 1):
        for _ in range(2):
            q = _random_q(rng, beta=0.5)
            scale = max(1.0, float(delta_j(q, q, j).real))
            worst = max(worst, completeness_defect(j, p, q) / scale)
    return _result("completeness", worst, tol)


def check_measure_quadrature(
    jmax: int = _SPEC["measure-quadrature"].jmax,
    tol: float = _SPEC["measure-quadrature"].tol,
) -> CheckResult:
    """Quadrature Gram of the e^{inq} basis matches diag(1/B_nj).

    Entry (m, n) defects are taken relative to the geometric mean
    sqrt(1/(B_m B_n)) of the corresponding diagonal entries.
    """
    worst = 0.0
    for j in range(jmax + 1):
        rule = q_rule(j)
        n = np.arange(-j, j + 1)
        vals = np.exp(1j * np.outer(rule.nodes, n))
        quad = vals.conj().T @ (rule.weights[:, None] * vals)
        b = weight_vector(j)
        expected = np.diag(1.0 / b)
        rel = np.abs(quad - expected) * np.sqrt(np.outer(b, b))
        worst = max(worst, float(np.max(rel)))
    return _result("measure-quadrature", worst, tol)


def check_uncertainty(
    jmax: int = _SPEC["uncertainty"].jmax,
    seed: int = 42,
    tol: float = _SPEC["uncertainty"].tol,
) -> CheckResult:
    """Momentum spread j(j+1) delta_j(q, conj(q)) stays above j for j >= 1
    and equals 4 exactly at j = 1 with real q."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for j in range(1, max(jmax, 1) + 1):
        worst = max(worst, j - uncertainty(_random_q(rng), j))
    base = abs(uncertainty(ComplexQ(rng.uniform(0.0, 2.0 * math.pi), 0.0), 1) - 4.0)
    return _result("uncertainty", max(worst, base), tol)


def run_all(
    p: TopParams,
    jmax: int = 4,
    seed: int = 42,
    tols: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run every check of CHECKS, in order, at min(jmax, its jmax).

    tols maps check names to tolerances that replace the table's defaults.
    """
    tols = tols or {}
    return [c.run(p, min(jmax, c.jmax), seed, tols.get(c.name, c.tol)) for c in CHECKS]
