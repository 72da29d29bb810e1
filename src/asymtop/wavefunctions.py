"""Asymmetric-top wavefunctions on SO(3) and the reproducing kernel.

The closed-form eigenfunctions are

    Psi_{q,j,s}(g) = (cos th + i cos(q+phi) sin th)^j  Phi_{j,s}(u),

where the shifted angle u is defined branch-free through the Moebius map
e^{iu} = e^{ipsi} (cos x + i e^{-ith} sin x)/(cos x - i e^{-ith} sin x) with
x = (q+phi)/2.  The same objects are reachable through the kernel

    D^j_{qq'}(g) = (2^j (j!)^2/(2j)!) { [cos(phi+q)cos(qb'-psi)+1] cos th
                   + i [cos(phi+q)+cos(qb'-psi)] sin th
                   + sin(phi+q) sin(qb'-psi) }^j,     qb' = conj(q'),

whose matrix on the e^{inq} basis is t_mn(g) = sqrt(B_m/B_n)
e^{-i pi (m-n)/2} D^j_{mn}(g); both paths are implemented and must agree.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleError, SingularInput
from .lambda_rep import (
    ComplexQ,
    FourierState,
    const_C,
    delta_j,
    fourier_basis,
    fourier_sum,
    q_rule,
    scaled_power,
    state_values,
    weight_vector,
)
from .so3 import EulerAngles, HaarRule, inverse, orbit_derivatives, orbits
from .spectra import TopParams, phi_state, phi_states, spectrum
from .wigner import wigner_D_matrix


def _times(a, b):
    """a * b with each real product and sum rounded on its own, as numpy
    rounds the product of two complex scalars; numpy's loop over complex
    arrays fuses them into multiply-adds and can differ in the last bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)
    return a * b


def _mobius(qv, phi, theta, psi):
    """(num, den, gap) of the phase map over broadcast arrays.

    With x = (q+phi)/2, c = cos(th/2) and s = i sin(th/2), num = c e^{ix} +
    s e^{-ix} and den = s e^{ix} + c e^{-ix} are e^{ith/2} (cos x +- i e^{-ith}
    sin x), free of cancellation at large |Im x|: base = num den and w =
    e^{ipsi} num/den.  u is singular where num or den is 0; gap is the
    smaller of each over the size of its two terms.  An exact zero is nudged
    to 1e-300 before dividing (the other factor is then >= sqrt 2).  Each
    product here has a real or an imaginary factor, so num and den round
    the same alone and in an array.
    """
    half = theta / 2.0
    c, s = np.cos(half), 1j * np.sin(half)
    up, down = np.exp(0.5j * (qv + phi)), np.exp(-0.5j * (qv + phi))
    cu, sd, su, cd = c * up, s * down, s * up, c * down
    num, den = cu + sd, su + cd
    gap = np.minimum(abs(num) / (abs(cu) + abs(sd)), abs(den) / (abs(su) + abs(cd)))
    return num + (num == 0) * 1e-300, den + (den == 0) * 1e-300, gap


def phase_map(qv, phi, theta, psi) -> tuple[np.ndarray, np.ndarray]:
    """mobius_phase at every point of the broadcast complex angles qv and
    Euler-angle arrays: (base, w) arrays, each point equal to its one-point
    call bit for bit.  Refuses as mobius_phase does at any point (the moduli
    in gap may round apart in the last bit, which only a gap within an ulp
    of the 1e-13 bar can show).
    """
    inputs = (qv, phi, theta, psi)
    if not all(np.isfinite(x).all() if isinstance(x, np.ndarray) else cmath.isfinite(x) for x in inputs):
        raise SingularInput(f"non-finite input: q={qv}, g={(phi, theta, psi)}")
    num, den, gap = _mobius(qv, phi, theta, psi)
    if np.count_nonzero(gap < 1e-13):
        raise PoleError(f"phase map pole at q={qv}, g={(phi, theta, psi)}")
    return _times(num, den), _times(np.exp(1j * psi), num) / den


def mobius_phase(q: ComplexQ, g: EulerAngles) -> tuple[complex, complex]:
    """Prefactor base (its j-th power multiplies the state) and w = e^{iu} of
    the closed-form wavefunction.  SingularInput at a non-finite input;
    PoleError where u is singular: w = 0 or infinity, its num or den
    cancelled to below 1e-13 of its terms.
    """
    base, w = phase_map(q.value, g.phi, g.theta, g.psi)
    return complex(base), complex(w)


def psi_from_phase(coeffs, base, w) -> np.ndarray:
    """Psi = base^j sum_n c_n w^n at each phase (base, w) of phase_map, with
    base^j inside the basis exponent.  coeffs holds the 2j+1 coefficients
    on its last axis, one row per point or one row for all; each point
    equals its one-point call bit for bit (lambda_rep.fourier_sum).
    """
    coeffs = np.asarray(coeffs)
    j = (coeffs.shape[-1] - 1) // 2
    return fourier_sum(-1j * np.log(w), coeffs, j * np.log(base))


def psi_grid(
    qv: complex, state: FourierState | np.ndarray, phi, theta, psi
) -> np.ndarray:
    """Closed-form Psi_{q,j,s} at every point of the Euler-angle arrays.

    qv is the complex angle (ComplexQ.value); state is Phi_{j,s} as a
    FourierState or its 2j+1 coefficients.  The arrays broadcast together;
    exact pole nodes of the phase map are nudged, not rejected; OverflowError
    where a term passes e^LOG_MAX (lambda_rep.fourier_basis).  The grid is
    one matrix-vector product, with base and w as array products, so a
    value can differ from psi_eval at its point in the last bit.
    """
    coeffs = state.coeffs if isinstance(state, FourierState) else np.asarray(state)
    j = (len(coeffs) - 1) // 2
    num, den, _ = _mobius(qv, np.asarray(phi), np.asarray(theta), np.asarray(psi))
    w = np.exp(1j * np.asarray(psi)) * num / den
    return fourier_basis(j, -1j * np.log(w), j * np.log(num * den)) @ coeffs


def psi_eval(
    q: ComplexQ, j: int, s: int, p: TopParams, g: EulerAngles
) -> complex:
    """Psi_{q,j,s}(g): psi_from_phase of phi_state at mobius_phase."""
    return complex(psi_from_phase(phi_state(j, s, p).coeffs, *mobius_phase(q, g)))


# --- kernel ------------------------------------------------------------


def _kernel_factors(qv, qpv, phi, theta, psi):
    """The kernel base as a rank-3 bilinear form, base = sum_k x_k y_k.

    base(q, q') = u(q)^T M(theta) v(q') with u = (1, cos(phi+q), sin(phi+q)),
    v = (1, cos(qb'-psi), sin(qb'-psi)) and M = [[cos th, i sin th, 0],
    [i sin th, cos th, 0], [0, 0, 1]].  Returns x = u M, which carries q, phi
    and theta, and y = v, which carries q' and psi, both with the three
    components on a new last axis; the other arguments broadcast.
    """
    lead = phi + qv
    trail = np.conjugate(qpv) - psi
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    cos_lead = np.cos(lead)
    x = (cos_th + 1j * sin_th * cos_lead, 1j * sin_th + cos_th * cos_lead, np.sin(lead))
    y = (np.ones_like(trail), np.cos(trail), np.sin(trail))
    return np.stack(np.broadcast_arrays(*x), axis=-1), np.stack(y, axis=-1)


def kernel_values(qv, qpv, j: int, phi, theta, psi) -> np.ndarray:
    """Closed-form kernel D^j_{qq'}(g) at every point of the five broadcast
    arrays (qv, qpv complex angles, the second entering conjugated); each
    point equals its kernel_eval call bit for bit.  OverflowError where a
    value passes e^LOG_MAX (lambda_rep.scaled_power)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite base is refused
        x, y = _kernel_factors(qv, qpv, phi, theta, psi)
        base = np.sum(x * y, axis=-1)
    return scaled_power((2 * j + 1) / const_C(j), base, j)


def kernel_eval(q: ComplexQ, qp: ComplexQ, j: int, g: EulerAngles) -> complex:
    """Closed-form kernel D^j_{qq'}(g); the second angle enters conjugated."""
    return complex(kernel_values(q.value, qp.value, j, g.phi, g.theta, g.psi))


def kernel_factored_from_phase(qpv, j: int, base, w) -> np.ndarray:
    """The kernel as prefactor times the reproducing delta of the shifted
    angle, base^j sum_n B_nj e^{in(u - conj(qp))}, at each phase (base, w =
    e^{iu}) of phase_map and complex angle qpv; each point equals its
    kernel_factored call bit for bit."""
    return psi_from_phase(weight_vector(j), base, _times(w, np.exp(-1j * np.conjugate(qpv))))


def kernel_factored(q: ComplexQ, qp: ComplexQ, j: int, g: EulerAngles) -> complex:
    """kernel_factored_from_phase at mobius_phase(q, g); must equal
    kernel_eval wherever the phase map is regular."""
    return complex(kernel_factored_from_phase(qp.value, j, *mobius_phase(q, g)))


def t_matrix(j: int, g: EulerAngles) -> np.ndarray:
    """Matrix of the kernel action on e^{inq}: rows/columns n = -j..j.

    t(identity) = I; Gram-unitary (t^H G t = G with G = diag(1/B_nj)); and
    t(g1 g2) = t(g1) t(g2).  Stacks over arrays of angles as
    wigner_D_matrix does.
    """
    f = np.sqrt(weight_vector(j)) * fourier_basis(j, -math.pi / 2)  # sqrt(B_n) (-i)^n
    return np.outer(f, 1.0 / f) * wigner_D_matrix(j, g)


def t_matrix_quadrature(j: int, g: EulerAngles) -> np.ndarray:
    """t by direct double quadrature of the kernel against the basis.

    t_mn = B_m * Iint conj(e^{imq}) D^j_{qq'}(g) e^{inq'} dmu(q) dmu(q'),
    summed over the q_rule nodes; used to validate the closed form at small
    j.  The sum is taken by axis, as quadrature_gram is.  The kernel's base
    is trigonometric of degree 1 in L = phi + q and in L' = conj(q') - psi,
    so base^j = sum_{r, r'} c_{rr'} e^{irL} e^{ir'L'} over |r|, |r'| <= j,
    with c from j 2-D convolutions of the 3 x 3 table of base (phi and psi
    ride in the table as e^{ir phi} e^{-ir' psi}).  On the product grid
    e^{irq} factors by axis, and the double node sum becomes
    Q c Q[::-1] with Q_mr = sum_nodes w conj(e^{imq}) e^{irq}: the Hadamard
    product of one alpha and one beta table product of fourier_basis, the
    log weights in the exponent.  No node-sized kernel table is formed;
    OverflowError where fourier_basis refuses a table.
    """
    along_alpha, along_beta = q_rule(j).basis_by_axis(0.5)
    gram = (along_alpha.conj().T @ along_alpha) * (along_beta.T @ along_beta)
    cos_th, half_sin = math.cos(g.theta), 0.5j * math.sin(g.theta)
    corner, anti = (cos_th - 1.0) / 4.0, (cos_th + 1.0) / 4.0
    step = np.array([[corner, half_sin, anti], [half_sin, cos_th, half_sin], [anti, half_sin, corner]])
    step *= np.outer(fourier_basis(1, g.phi), fourier_basis(1, -g.psi))  # rows r, columns r' = -1, 0, 1
    coef = np.ones((1, 1), dtype=complex)
    for _ in range(j):  # base^(k+1) = base^k base
        n = len(coef)
        grown = np.zeros((n + 2, n + 2), dtype=complex)
        for (r, rp), c in np.ndenumerate(step):
            grown[r : r + n, rp : rp + n] += c * coef
        coef = grown
    scale = (2 * j + 1) / const_C(j) * weight_vector(j)
    return scale[:, None] * (gram @ coef @ gram[::-1])


def psi_via_kernel_values(qv, coeffs, phi, theta, psi) -> np.ndarray:
    """Psi through the kernel action, t(g) Phi evaluated at q, at every
    point of the broadcast arrays (coeffs as in psi_from_phase); refuses as
    lambda_rep.state_values does.  Each point equals its psi_via_kernel
    call bit for bit.
    """
    coeffs = np.asarray(coeffs)
    t = t_matrix((coeffs.shape[-1] - 1) // 2, EulerAngles(phi, theta, psi))
    return state_values(qv, (t @ coeffs[..., None])[..., 0])


def psi_via_kernel(
    q: ComplexQ, j: int, s: int, p: TopParams, g: EulerAngles
) -> complex:
    """Psi through the kernel action on Phi; must equal psi_eval."""
    return complex(psi_via_kernel_values(q.value, phi_state(j, s, p).coeffs, g.phi, g.theta, g.psi))


# --- Wigner-basis eigenvectors ------------------------------------------


def state_jms(j: int, m: int, s: int, p: TopParams) -> np.ndarray:
    """Expansion of |j,m,s> over the |j,m,n> basis, n = -j..j.

    Orthonormal and an eigenvector of h_matrix_wigner with eigenvalue
    E_{j,s}; m enters only as a global phase.
    """
    if abs(m) > j:
        raise DomainError(f"|m| must be <= j={j}")
    phase = fourier_basis(j, math.pi / 2, -0.5j * math.pi * m)  # e^{-i pi (m-n)/2}
    return phi_state(j, s, p).coeffs * phase / np.sqrt(weight_vector(j)) / math.sqrt(2 * j + 1)


# --- residuals and norms -------------------------------------------------


def pde_residual(q: ComplexQ, j: int, s: int, p: TopParams, g: EulerAngles) -> tuple[float, float]:
    """Residuals of the defining equations at (q, g), from exact derivatives.

    H = -(A xi_1^2 + B xi_2^2 + C xi_3^2) in the left-invariant fields, and
    l_a acts on the complex angle: l_1 = -i sin q d/dq + i j cos q,
    l_2 = -i cos q d/dq - i j sin q, l_3 = d/dq.  Psi is a trigonometric
    polynomial of degree j along each of the six so3.orbits through g and
    along the shift q + t, so one psi_grid call at their 2j + 1 samples and
    so3.orbit_derivatives give every derivative at t = 0 to rounding, with
    no step.  Returns |H Psi - E Psi| over A max(1, j(j+1)) max|Psi| and
    the largest |(eta_a + l_a) Psi| over max(1, j) max|Psi|, max|Psi| over
    the samples (Psi can be small at g itself).
    """
    coeffs = phi_state(j, s, p).coeffs
    energy = spectrum(j, p, route="lambda")[s + j].E
    n = 2 * j + 1
    at = orbits(g, n)
    shift = 2.0 * math.pi * np.arange(n) / n
    # the six orbits at q, then the shift q + t at g
    qs = np.concatenate((np.full((6, n), q.value), q.value + shift[None]))
    angles = [np.concatenate((x, np.full((1, n), x0))) for x, x0 in zip(at.as_tuple(), g.as_tuple())]
    values = psi_grid(qs, coeffs, *angles)
    d1, d2 = orbit_derivatives(values)
    psi0, dq = values[-1, 0], d1[-1]
    scale = np.max(np.abs(values))
    schrod = abs(-(p.A * d2[0] + p.B * d2[1] + p.C * d2[2]) - energy * psi0)
    ell = (
        -1j * cmath.sin(q.value) * dq + 1j * j * cmath.cos(q.value) * psi0,
        -1j * cmath.cos(q.value) * dq - 1j * j * cmath.sin(q.value) * psi0,
        dq,
    )
    sym = max(abs(ell[a] - d1[3 + a]) for a in range(3))
    return float(schrod / (p.A * max(1, j * (j + 1)) * scale)), float(sym / (max(1, j) * scale))


def so3_norm(q: ComplexQ, j: int, s: int, p: TopParams, rule: HaarRule) -> float:
    """Haar integral of |Psi_{q,j,s}|^2; equals delta_j(q, conj(q))."""
    if rule.degree < j:
        raise DomainError(f"rule degree {rule.degree} < j={j}")
    vals = psi_grid(q.value, phi_state(j, s, p), rule.phi, rule.theta, rule.psi)
    return float(np.sum(rule.weights * np.abs(vals) ** 2))


def kernel_gram(
    j: int,
    jt: int,
    rule: HaarRule,
    points: list[tuple[ComplexQ, ComplexQ, ComplexQ, ComplexQ]] | None = None,
    seed: int = 7,
) -> float:
    """Largest defect of the kernel orthogonality relation at sampled points.

    Integrates conj(D^j_{q qp}) D^jt_{qt qtp} over the group and compares to
    delta_{j jt} delta_j(qt, q) delta_j(qp, qtp)/(2j+1).
    """
    if rule.degree < max(j, jt):
        raise DomainError(f"rule degree {rule.degree} < max(j, jt)")
    if points is None:
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(3):
            a4 = rng.uniform(0.0, 2.0 * math.pi, size=4)
            b4 = rng.uniform(-1.0, 1.0, size=4)
            points.append(tuple(ComplexQ(a, b) for a, b in zip(a4, b4)))
        shared = ComplexQ(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0))
        shared2 = ComplexQ(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0))
        points.append((shared, shared2, shared, shared2))
    defect = 0.0
    for qq, qp, qt, qtp in points:
        left = kernel_values(qq.value, qp.value, j, rule.phi, rule.theta, rule.psi)
        right = kernel_values(qt.value, qtp.value, jt, rule.phi, rule.theta, rule.psi)
        quad = complex(np.sum(rule.weights * np.conj(left) * right))
        if j == jt:
            expected = delta_j(qt, qq, j) * delta_j(qp, qtp, j) / (2 * j + 1)
        else:
            expected = 0.0
        defect = max(defect, abs(quad - expected))
    return defect


def completeness_sides(j: int, p: TopParams, qs: list[ComplexQ]) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the completeness relation at every q of qs:
    sum_s |Phi_{j,s}(q)|^2/(2j+1), from one phi_states read, and
    delta_j(q, conj(q)), one delta_j call per q."""
    rows = np.array([u.coeffs for u in phi_states(j, p)])
    basis = fourier_basis(j, np.array([q.value for q in qs]))
    values = (rows @ basis[..., None])[..., 0]  # Phi_{j,s}(q), a row per q
    sums = np.array([np.vdot(v, v).real / (2 * j + 1) for v in values])
    return sums, np.array([delta_j(q, q, j) for q in qs])


def completeness_defect(j: int, p: TopParams, q: ComplexQ) -> float:
    """|sum_s |Phi_{j,s}(q)|^2/(2j+1) - delta_j(q, conj(q))|, the two
    completeness_sides at q."""
    (total,), (delta,) = completeness_sides(j, p, [q])
    return abs(total - delta)


def uncertainty(q: ComplexQ, j: int) -> float:
    """Squared angular-momentum spread j(j+1) delta_j(q, conj(q)).

    Exceeds j for every j >= 1; the states never saturate the bound.
    """
    return j * (j + 1) * delta_j(q, q, j).real


def kernel_conj_defect(q: ComplexQ, qp: ComplexQ, j: int, g: EulerAngles) -> float:
    """|conj(D^j_{qq'}(g)) - D^j_{q'q}(g^{-1})|: the conjugation symmetry."""
    lhs = kernel_eval(q, qp, j, g)
    rhs = kernel_eval(qp, q, j, inverse(g))
    return abs(lhs.conjugate() - rhs)
