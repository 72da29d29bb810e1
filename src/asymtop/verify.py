"""Self-verification suite: every identity the package is built on.

Each check_* function measures a defect that is analytically zero and
compares it to a tolerance.  CHECKS is the one table of the suite: it fixes
the order of the checks, the jmax each is specified at and its default
tolerance.  The check_* defaults, run_all (which caps the caller's jmax per
check so quick runs stay quick), and the CLI's --tol-<name> flags and
tol-<name> config keys all come from it.

The sampled checks kernel-group, bridge, pde-residual and completeness draw
everything first, in the original order; kernel-group, bridge and
completeness then evaluate each j once over all of its draws with the array
entry points (a stacked t_matrix, kernel_values, phase_map,
psi_via_kernel_values, ...), each point of which equals its one-point call
bit for bit.

run_all solves each route's levels and the states of every j the checks
read in one range solve each first (spectra.solve_levels and
spectra.solve_states), so the checks' reads find them in spectra's slots:
the levels in each route's, the states, each j phased whole, in the states
slot.

The tables that do not depend on the top (rules, d^j tables at polar nodes,
the node sums of t_matrix_quadrature, the GeneratorStacks of casimir,
commutators and gram-hermiticity) are memoized in the one table cache,
caching.TABLES.  Those three checks take batched products over a stack of j
(padding a j to the size of its chunk changes no bit) and reduce per j;
gram-hermiticity still calls h_matrix_lambda(j, p) once per j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .caching import memoize
from .lambda_rep import (
    ComplexQ,
    casimir_from,
    delta_j,
    ell_matrix,
    q_rule,
    quadrature_gram,
    weight_vector,
)
from .so3 import IDENTITY, EulerAngles, compose, haar_rule, inverse
from .spectra import ROUTES, TopParams, h_matrix_lambda, phi_state, solve_levels, solve_states, spectrum
from .wavefunctions import (
    completeness_sides,
    kernel_factored_from_phase,
    kernel_values,
    pde_residual,
    phase_map,
    psi_from_phase,
    psi_via_kernel_values,
    t_matrix,
    t_matrix_quadrature,
    uncertainty,
)
from .wigner import angular_momentum_matrices, polar_d, unitarity_defect


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
    A wrapper on ell_matrix or angular_momentum_matrices, which only the
    memoized generator_stack reads, sees only the calls that build a stack,
    the first in a process; caching.TABLES.clear() empties the one cache.
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
    Check("pde-residual", 3, 1e-12, lambda p, jmax, seed, tol: check_pde_residual(p, jmax, seed, tol)),
    Check("completeness", 6, 1e-8, lambda p, jmax, seed, tol: check_completeness(p, jmax, seed, tol)),
    Check("measure-quadrature", 4, 1e-12, lambda p, jmax, seed, tol: check_measure_quadrature(jmax, tol)),
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


def _stacked(gs: list[EulerAngles]) -> EulerAngles:
    """The rotations gs as one EulerAngles of angle arrays."""
    return EulerAngles(*np.array([g.as_tuple() for g in gs]).T)


def _values(qs: list[ComplexQ]) -> np.ndarray:
    return np.array([q.value for q in qs])


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as abs of one complex value is (np.abs of
    a complex array can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def route_agreement_defects(p: TopParams, jmax: int) -> tuple[float, float]:
    """(cross-route, trace-rule) relative defects over j <= jmax, read
    from the tables run_all's solve_levels calls keep.

    Trace rule: sum_s E_{j,s} = (A+B+C) j(j+1)(2j+1)/3.
    """
    worst_route = 0.0
    worst_trace = 0.0
    for j in range(jmax + 1):
        energies = {r: np.array([lv.E for lv in spectrum(j, p, route=r)]) for r in ROUTES}
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


CHUNK_BYTES = 4 << 20  # the most a GeneratorStack of more than one j holds


class GeneratorStack(NamedTuple):
    """The generators at j = js[0]..js[-1], zero-padded and centred on one
    grid n = -N..N, N = js[-1]: item k holds j = js[k] in rows and columns
    N - j..N + j and zeros elsewhere, so a batched product of stacks is the
    stack of the per-j products, bit for bit.

    ell[a - 1] stacks lambda_rep.ell_matrix(a, j), spin[a - 1] the J_a of
    wigner.angular_momentum_matrices(j), eye the identity of each block and
    gram the Gram diagonal 1/weight_vector(j).
    """

    js: np.ndarray
    ell: np.ndarray
    spin: np.ndarray
    eye: np.ndarray
    gram: np.ndarray


def _centred(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """The blocks (vectors or square matrices of size 2j+1) stacked,
    zero-padded and centred to size n on every axis."""
    out = np.zeros((len(blocks),) + (n,) * blocks[0].ndim, dtype=np.result_type(*blocks))
    for k, block in enumerate(blocks):
        c = slice((n - len(block)) // 2, (n + len(block)) // 2)
        out[(k,) + (c,) * block.ndim] = block
    return out


@memoize
def generator_stack(lo: int, hi: int) -> GeneratorStack:
    """The GeneratorStack of j = lo..hi, read-only and memoized."""
    js, n = range(lo, hi + 1), 2 * hi + 1
    spins = [angular_momentum_matrices(j) for j in js]
    return GeneratorStack(
        np.array(js),
        np.stack([_centred([ell_matrix(a, j) for j in js], n) for a in (1, 2, 3)]),
        np.stack([_centred([m[a] for m in spins], n) for a in range(3)]),
        _centred([np.eye(2 * j + 1) for j in js], n),
        _centred([1.0 / weight_vector(j) for j in js], n),
    )


def _chunks(jmax: int):
    """(lo, hi) of the j chunks that cover 0..jmax; the last is cut at jmax.

    hi = lo + 4 + lo // 4: at small j one chunk saves calls, at large j
    padding each j to its chunk's last costs about a third more products.
    An item holds 104 bytes per entry of its n x n grid (six complex
    generators and the identity); a chunk holds at most CHUNK_BYTES, or
    one j.
    """
    lo = 0
    while lo <= jmax:
        hi = lo + 4 + lo // 4
        hi = min(hi, lo + max(0, CHUNK_BYTES // (104 * (2 * hi + 1) ** 2) - 1), jmax)
        yield lo, hi
        lo = hi + 1


def generator_stacks(jmax: int) -> list[GeneratorStack]:
    """The GeneratorStacks of j = 0..jmax, chunk by chunk."""
    return [generator_stack(lo, hi) for lo, hi in _chunks(jmax)]


def check_casimir(
    jmax: int = _SPEC["casimir"].jmax, tol: float = _SPEC["casimir"].tol
) -> CheckResult:
    """l-matrix and J-matrix Casimirs equal j(j+1) I: batched over each
    GeneratorStack, the l one by lambda_rep.casimir_from."""
    worst = 0.0
    for st in generator_stacks(jmax):
        target = (st.js * (st.js + 1))[:, None, None] * st.eye
        j1, j2, j3 = st.spin
        for total in (casimir_from(st.ell), j1 @ j1 + j2 @ j2 + j3 @ j3):
            worst = max(worst, float(np.max(np.abs(total - target))))
    return _result("casimir", worst, tol)


def check_commutators(
    jmax: int = _SPEC["commutators"].jmax, tol: float = _SPEC["commutators"].tol
) -> CheckResult:
    """[l_a, l_b] = eps_abc l_c and [J_a, J_b] = i eps_abc J_c, batched over
    each GeneratorStack."""
    worst = 0.0
    for st in generator_stacks(jmax):
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            d1 = st.ell[a] @ st.ell[b] - st.ell[b] @ st.ell[a] - st.ell[c]
            d2 = st.spin[a] @ st.spin[b] - st.spin[b] @ st.spin[a] - 1j * st.spin[c]
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
    Batched over each GeneratorStack, with h_matrix_lambda(j, p) per j; G is
    diagonal, so G M and M^H G are products with its diagonal.
    """
    worst = 0.0
    for st in generator_stacks(jmax):
        h = _centred([h_matrix_lambda(int(j), p) for j in st.js], st.gram.shape[-1])
        gens = -1j * st.ell
        from_ops = sum(w * m @ m for w, m in zip((p.A, p.B, p.C), gens))
        scale = np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))
        worst = max(worst, float(np.max(np.max(np.abs(from_ops - h), axis=(-2, -1)) / scale)))
        for m in [h, *gens]:
            lhs = st.gram[..., :, None] * m
            d = np.max(np.abs(lhs - m.conj().swapaxes(-1, -2) * st.gram[..., None, :]), axis=(-2, -1))
            worst = max(worst, float(np.max(d / np.maximum(1.0, np.max(np.abs(lhs), axis=(-2, -1))))))
    return _result("gram-hermiticity", worst, tol)


def check_wigner_orthogonality(
    jmax: int = _SPEC["wigner-orthogonality"].jmax,
    tol: float = _SPEC["wigner-orthogonality"].tol,
) -> CheckResult:
    """Haar orthogonality of the D-functions plus row unitarity of d(theta),
    by axes on the rule of degree j for every jt <= j.

    Its Gram wigner_gram(j, jt) is P[m, n, mt, nt] F(mt - m) F(nt - n)
    (HaarRule), with F(0) = 1 exactly and |P|, |F| <= 1.  So the defect of
    every entry is at most the larger of the azimuth means |F(k)|,
    0 < |k| <= 2j (|F(-k)| = |F(k)|), and the defect of the polar diagonal
    P[m, n, m, n] - delta_{j jt}/(2j+1), |m|, |n| <= jt, read from polar_d:
    no (2j+1)^2 x (2jt+1)^2 tensor is formed.  The polar-diagonal defect is
    taken relative to 1/(2j+1), the size of its entries, so one tolerance
    sees a relative error in a polar weight at every j.
    """
    worst = 0.0
    thetas = np.linspace(0.2, math.pi - 0.2, 5)
    for j in range(jmax + 1):
        worst = max(worst, unitarity_defect(j, thetas))
        rule = haar_rule(j)
        means = np.exp(1j * np.outer(rule.azimuths, np.arange(1, 2 * j + 1))).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(means), initial=0.0)))
        weighted = 0.5 * rule.polar_weights[:, None, None] * polar_d(rule.degree, j)
        for jt in range(j + 1):
            inner = weighted[:, j - jt : j + jt + 1, j - jt : j + jt + 1]
            diagonal = np.einsum("bmn,bmn->mn", inner, polar_d(rule.degree, jt))
            worst = max(worst, (2 * j + 1) * float(np.max(np.abs(diagonal - (jt == j) / (2 * j + 1)))))
    return _result("wigner-orthogonality", worst, tol)


def check_kernel_group(
    jmax: int = _SPEC["kernel-group"].jmax,
    seed: int = 42,
    tol: float = _SPEC["kernel-group"].tol,
) -> CheckResult:
    """t is a representation: t(e) = I, t(g1 g2) = t(g1) t(g2), t^H G t = G;
    the kernel at the identity reproduces delta_j and obeys the conjugation
    symmetry conj(D_{qq'}(g)) = D_{q'q}(g^{-1}).

    The three representation defects are taken on u = G^{1/2} t G^{-1/2},
    which is unitary: t's entries grow with j (1.8e4 at j = 20), u's stay
    within 1, so one tolerance holds at every j.

    Every draw's g1 g2 comes from one broadcast compose.  Per j: one
    stacked t for the identity and (g1, g1 g2, g2) of each draw, and one
    kernel evaluation at (q, q', e), (q, q', g1) and (q', q, g1^{-1}) of
    each draw.
    """
    rng = np.random.default_rng(seed)
    draws = [
        [(_random_angles(rng), _random_angles(rng), _random_q(rng), _random_q(rng)) for _ in range(2)]
        for _ in range(jmax + 1)
    ]
    flat = [sample for samples in draws for sample in samples]
    g12 = compose(_stacked([s[0] for s in flat]), _stacked([s[1] for s in flat]))
    products = iter([EulerAngles(*angles) for angles in zip(*g12.as_tuple())])
    worst = 0.0
    for j, samples in enumerate(draws):
        rotations = [IDENTITY] + [g for g1, g2, _, _ in samples for g in (g1, next(products), g2)]
        root_b = np.sqrt(weight_vector(j))  # G = diag(1 / B_nj)
        u = t_matrix(j, _stacked(rotations)) * root_b / root_b[:, None]
        u1, u12, u2 = u[1::3], u[2::3], u[3::3]
        eye = np.eye(2 * j + 1)
        worst = max(
            worst,
            float(np.max(np.abs(u[0] - eye))),
            float(np.max(np.abs(u12 - u1 @ u2))),
            float(np.max(np.abs(u1.conj().swapaxes(-1, -2) @ u1 - eye))),
        )
        points = [pt for g1, _, q, qp in samples for pt in ((q, qp, IDENTITY), (q, qp, g1), (qp, q, inverse(g1)))]
        lead, trail, gs = zip(*points)
        at = _stacked(gs)
        k = kernel_values(_values(lead), _values(trail), j, at.phi, at.theta, at.psi)
        k_id, k_g, k_inv = k.reshape(-1, 3).T
        expected = np.array([delta_j(q, qp, j) for _, _, q, qp in samples])
        worst = max(
            worst,
            float(np.max(_modulus(k_id - expected) / np.maximum(1.0, _modulus(expected)))),
            float(np.max(_modulus(k_g.conj() - k_inv) / np.maximum(1.0, _modulus(k_g)))),
        )
    return _result("kernel-group", worst, tol)


def check_bridge(
    p: TopParams,
    jmax: int = _SPEC["bridge"].jmax,
    seed: int = 42,
    tol: float = _SPEC["bridge"].tol,
) -> CheckResult:
    """Kernel route and closed form agree: Psi via t-action vs direct
    evaluation, factored vs expanded kernel, and t by double quadrature;
    the defect is the larger of the two parts of bridge_defects."""
    d_matrix, d_quad = bridge_defects(p, jmax, seed)
    return _result("bridge", max(d_matrix, d_quad), tol)


def bridge_defects(
    p: TopParams, jmax: int = _SPEC["bridge"].jmax, seed: int = 42
) -> tuple[float, float]:
    """(closed-form, quadrature) parts of the bridge check.

    The closed-form part takes the phase map of every draw at once; then,
    per j, Psi and the factored kernel from it, Psi via the kernel action
    (psi_via_kernel_values, t(g) applied to Phi at O(j^2) per draw, with
    no t matrix) and the kernel in one evaluation.  The quadrature part,
    where t_matrix itself is compared, is the largest entry
    of t_matrix_quadrature - t_matrix at one rotation per j <= 2; the
    sums over the q_rule nodes leave it at rounding (about 1e-14).
    """
    rng = np.random.default_rng(seed)
    draws = [
        [(_random_angles(rng), _random_q(rng), _random_q(rng), int(rng.integers(-j, j + 1))) for _ in range(2)]
        for j in range(jmax + 1)
    ]
    quad_draws = [_random_angles(rng) for _ in range(min(jmax, 2) + 1)]
    gs, qs, qps, _ = zip(*(sample for samples in draws for sample in samples))
    at, qv, qpv = _stacked(gs), _values(qs), _values(qps)
    base, w = phase_map(qv, at.phi, at.theta, at.psi)
    d_matrix = 0.0
    for j, samples in enumerate(draws):
        k = slice(2 * j, 2 * j + 2)
        states = np.array([phi_state(j, s, p).coeffs for _, _, _, s in samples])
        v1 = psi_from_phase(states, base[k], w[k])
        v2 = psi_via_kernel_values(qv[k], states, at.phi[k], at.theta[k], at.psi[k])
        k1 = kernel_values(qv[k], qpv[k], j, at.phi[k], at.theta[k], at.psi[k])
        k2 = kernel_factored_from_phase(qpv[k], j, base[k], w[k])
        d_matrix = max(
            d_matrix,
            float(np.max(_modulus(v1 - v2) / np.maximum(1.0, _modulus(v1)))),
            float(np.max(_modulus(k1 - k2) / np.maximum(1.0, _modulus(k1)))),
        )
    d_quad = 0.0
    for j, g in enumerate(quad_draws):
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
    """H Psi = E Psi and (eta_a + l_a) Psi = 0 at one random (s, g, q) per
    j: the larger of pde_residual's two scaled residuals, from exact
    derivatives along one-parameter subgroups."""
    rng = np.random.default_rng(seed)
    draws = [(int(rng.integers(-j, j + 1)), _random_angles(rng), _random_q(rng, beta=0.3)) for j in range(jmax + 1)]
    worst = 0.0
    for j, (s, g, q) in enumerate(draws):
        worst = max(worst, *pde_residual(q, j, s, p, g))
    return _result("pde-residual", worst, tol)


def check_completeness(
    p: TopParams,
    jmax: int = _SPEC["completeness"].jmax,
    seed: int = 42,
    tol: float = _SPEC["completeness"].tol,
) -> CheckResult:
    """sum_s |Phi_{j,s}(q)|^2 / (2j+1) = delta_j(q, conj(q)), relative to
    max(1, delta_j), which is taken once per draw (completeness_sides)."""
    rng = np.random.default_rng(seed)
    draws = [[_random_q(rng, beta=0.5) for _ in range(2)] for _ in range(jmax + 1)]
    worst = 0.0
    for j, qs in enumerate(draws):
        sums, deltas = completeness_sides(j, p, qs)
        worst = max(worst, max(abs(a - b) / max(1.0, float(b.real)) for a, b in zip(sums, deltas)))
    return _result("completeness", worst, tol)


def check_measure_quadrature(
    jmax: int = _SPEC["measure-quadrature"].jmax,
    tol: float = _SPEC["measure-quadrature"].tol,
) -> CheckResult:
    """Quadrature Gram of the e^{inq} basis matches diag(1/B_nj).

    Entry (m, n) defects are taken relative to the geometric mean
    sqrt(1/(B_m B_n)) of the corresponding diagonal entries: the Gram of
    sqrt(B_n) e^{inq} (quadrature_gram) is compared with the identity.
    """
    worst = 0.0
    for j in range(jmax + 1):
        worst = max(worst, float(np.max(np.abs(quadrature_gram(q_rule(j)) - np.eye(2 * j + 1)))))
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
    The levels and states the checks read are solved first, in one
    spectra.solve_levels call per route and one spectra.solve_states call;
    neither changes a result, only how often it is solved: each route's
    levels once per run, and the states of every j read in one range solve,
    each j phased whole once; every read falls inside them, so a later run
    at the same top solves and phases nothing.
    """
    tols = tols or {}
    caps = [min(jmax, c.jmax) for c in CHECKS]
    # levels are read up to route-agreement's cap (pde-residual's is lower),
    # states up to completeness's (bridge's and pde-residual's are lower)
    for route in ROUTES:
        solve_levels(range(min(jmax, _SPEC["route-agreement"].jmax) + 1), p, route)
    solve_states(range(min(jmax, _SPEC["completeness"].jmax) + 1), p)
    return [c.run(p, cap, seed, tols.get(c.name, c.tol)) for c, cap in zip(CHECKS, caps)]
