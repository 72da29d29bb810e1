"""End-to-end checks for the full chain of cross-validation identities.

Each test exercises one published-figure identity or defect bound at its
stated tolerance and range, reports a single PASS/FAIL line, and fails the
suite if the bound is violated.
"""

import cmath
import math
import time

import numpy as np

from asymtop import (
    ComplexQ,
    EulerAngles,
    ROUTES,
    TopParams,
    completeness_defect,
    delta_j,
    h_matrix_wigner,
    haar_rule,
    kernel_eval,
    lame_polynomial,
    lame_residual,
    lame_spectrum,
    psi_eval,
    so3_norm,
    spectrum,
    state_jms,
    uncertainty,
)
from asymtop.verify import (
    bridge_defects,
    check_casimir,
    check_commutators,
    check_gram_hermiticity,
    check_kernel_group,
    check_measure_quadrature,
    check_pde_residual,
    check_uncertainty,
    check_wigner_orthogonality,
    random_strict_params,
    route_agreement_defects,
)

P321 = TopParams(A=3.0, B=2.0, C=1.0)


def _report(capsys, name, ok):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_small_j_spectra(capsys):
    # E(j=0) = {0} and E(j=1) = {B+C, A+C, A+B}, every route, 1e-10
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(20):
        p = random_strict_params(rng)
        ref1 = sorted([p.B + p.C, p.A + p.C, p.A + p.B])
        for route in ROUTES:
            e0 = [lev.E for lev in spectrum(0, p, route=route)]
            ok = ok and len(e0) == 1 and abs(e0[0]) < 1e-10
            e1 = [lev.E for lev in spectrum(1, p, route=route)]
            ok = ok and np.max(np.abs(np.array(e1) - ref1)) < 1e-10
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(capsys, "small-j spectra", ok)


def test_explicit_j1_wavefunctions(capsys):
    # the three closed-form j=1 states at 100 random (q, g), 1e-9
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.7, 0.7))
        g = EulerAngles(
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.3, math.pi - 0.3),
            rng.uniform(0, 2 * math.pi),
        )
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
            worst = max(worst, abs(psi_eval(q, 1, s, P321, g) - ref))
    ok = worst < 1e-9 and (time.perf_counter() - t0) < 1.0
    _report(capsys, "explicit j=1 wavefunctions", ok)


def test_three_route_agreement(capsys):
    # pairwise relative agreement < 1e-8 and trace rule < 1e-10, j <= 10
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst_route = worst_trace = 0.0
    for _ in range(20):
        p = random_strict_params(rng)
        d_route, d_trace = route_agreement_defects(p, jmax=10)
        worst_route = max(worst_route, d_route)
        worst_trace = max(worst_trace, d_trace)
    ok = worst_route < 1e-8 and worst_trace < 1e-10
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report(capsys, "three-route spectrum agreement", ok)


def test_lame_structure(capsys):
    # class multiplicities for j <= 8 and the exact-derivative residual oracle
    rng = np.random.default_rng(404)
    ok = True
    for j in range(0, 9):
        levels = lame_spectrum(j, P321)
        counts = {n: 0 for n in (1, 2, 3, 4)}
        for lev in levels:
            counts[lev.lame_class] += 1
        ok = ok and counts[1] == j // 2 + 1 and counts[4] == j // 2
        ok = ok and counts[2] == (j + 1) // 2 and counts[3] == (j + 1) // 2
        for lev in levels:
            series = lame_polynomial(lev.lame_class, j, lev.E, P321)
            smax = float(np.abs(series.coeffs).max())
            for _ in range(2):
                rho = complex(rng.uniform(1.1, 2.9), rng.uniform(0.1, 0.8))
                scale = (1 + abs(lev.E)) * (1 + abs(rho)) ** (j + 1) * smax
                ok = ok and abs(lame_residual(series, rho)) < 1e-8 * scale
    _report(capsys, "lame class structure and residuals", ok)


def test_lambda_irrep_identities(capsys):
    # commutators and Casimir to j=20 at 1e-10; Gram-Hermiticity to j=10 at 1e-12
    ok = check_commutators(jmax=20, tol=1e-10).passed
    ok = ok and check_casimir(jmax=20, tol=1e-10).passed
    ok = ok and check_gram_hermiticity(P321, jmax=10, tol=1e-12).passed
    _report(capsys, "lambda-irrep identities", ok)


def test_measure_calibration(capsys):
    # quadrature Gram equals diag(1/B) within 1e-6 for j <= 4
    ok = check_measure_quadrature(jmax=4, tol=1e-6).passed
    _report(capsys, "measure calibration", ok)


def test_wigner_orthogonality(capsys):
    # Haar orthogonality for j, jt <= 5 and unitarity, both < 1e-10
    ok = check_wigner_orthogonality(jmax=5, tol=1e-10).passed
    _report(capsys, "wigner orthogonality", ok)


def test_kernel_bridge(capsys):
    # group property < 1e-10; kernel action reproduces the closed form for
    # j <= 5 at 1e-10, double quadrature confirms at j <= 2 within 1e-6;
    # kernel at the identity matches the reproducing kernel at 1e-12
    rng = np.random.default_rng(505)
    ok = check_kernel_group(jmax=5, tol=1e-10).passed
    d_matrix, d_quad = bridge_defects(P321, jmax=5)
    ok = ok and d_matrix < 1e-10 and d_quad < 1e-6
    worst = 0.0
    for j in range(0, 6):
        for _ in range(3):
            q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.7, 0.7))
            qp = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.7, 0.7))
            ref = delta_j(q, qp, j)
            d = abs(kernel_eval(q, qp, j, EulerAngles(0.0, 0.0, 0.0)) - ref)
            worst = max(worst, d / max(1.0, abs(ref)))
    ok = ok and worst < 1e-12
    _report(capsys, "kernel group property and bridge", ok)


def test_pde_residuals(capsys):
    # Schroedinger and symmetry residuals from exact derivatives, for j <= 3
    ok = check_pde_residual(P321, jmax=3, tol=1e-12).passed
    _report(capsys, "pde residuals", ok)


def test_norm_and_completeness(capsys):
    rng = np.random.default_rng(606)
    ok = True
    for j in range(0, 5):
        rule = haar_rule(j)
        q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.5, 0.5))
        s = int(rng.integers(-j, j + 1))
        ref = delta_j(q, q, j).real
        ok = ok and abs(so3_norm(q, j, s, P321, rule) - ref) < 1e-7 * max(1.0, ref)
    for j in range(0, 7):
        q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.5, 0.5))
        ok = ok and completeness_defect(j, P321, q) < 1e-8 * max(
            1.0, delta_j(q, q, j).real
        )
    for j in range(1, 7):
        h = h_matrix_wigner(j, P321)
        levels = spectrum(j, P321, route="wigner")
        for s in range(-j, j + 1):
            v = state_jms(j, min(j, 1), s, P321)
            ok = ok and np.max(np.abs(h @ v - levels[s + j].E * v)) < 1e-9
    _report(capsys, "norm and completeness", ok)


def test_uncertainty_floor(capsys):
    # j(j+1) delta_j(q, qbar) > j for j in 1..10, and equals 4 at j=1 real q
    rng = np.random.default_rng(707)
    ok = check_uncertainty(jmax=10, tol=1e-10).passed
    for j in range(1, 11):
        q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.7, 0.7))
        ok = ok and uncertainty(q, j) > j
    q1 = ComplexQ(rng.uniform(0, 2 * math.pi), 0.0)
    ok = ok and abs(uncertainty(q1, 1) - 4.0) < 1e-10
    _report(capsys, "uncertainty floor", ok)
